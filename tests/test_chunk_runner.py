"""The fork-and-pipe chunk runner (analysis._run_chunks), with real forks:
results equal to the bit for any jobs, a child's exception re-raised with
its own type, a dead child reported as an internal error, and no child left
behind in any case."""

import os

import pytest

from ranking_market import (
    ArrivalOrder,
    PriceScheme,
    analysis,
    edge_guarantee_sweep,
    kvv_hard_instance,
    last_buyer_report,
    property_sweep,
)
from ranking_market.cli import main
from helpers import count_forks

TRIALS = 2048 * 4 + 5  # five chunks, the last one short


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _estimators():
    kvv5 = kvv_hard_instance(5)
    return [
        lambda jobs: edge_guarantee_sweep(
            kvv5, PriceScheme.EXPONENTIAL, ArrivalOrder.identity(5), TRIALS, 3, jobs=jobs),
        lambda jobs: last_buyer_report(5, TRIALS, 3, jobs=jobs),
        lambda jobs: property_sweep(TRIALS, 3, jobs=jobs),
    ]


@pytest.mark.parametrize("jobs", [2, 3])
def test_forked_runs_equal_the_sequential_run_to_the_bit(monkeypatch, jobs):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    forks = count_forks(monkeypatch)
    for estimator in _estimators():
        sequential = estimator(1)
        assert forks == []
        assert estimator(jobs) == sequential
        assert len(forks) == jobs - 1
        forks.clear()


def test_without_fork_the_chunks_run_in_process(monkeypatch):
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(analysis.os, "fork")
    for estimator in _estimators():
        assert estimator(3) == estimator(1)


def _in_children(monkeypatch, name: str, action) -> None:
    """Make analysis.<name> call action() first when it runs in a forked
    child; in this process it runs unchanged."""
    parent = os.getpid()
    real = getattr(analysis, name)

    def patched(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(analysis, name, patched)


def _raise(exc):
    def action():
        raise exc

    return action


def test_a_childs_exception_is_raised_with_its_own_type(monkeypatch):
    _in_children(monkeypatch, "_trial_weights", _raise(ValueError("bad chunk")))
    _in_children(monkeypatch, "_random_tuples", _raise(ValueError("bad tuples")))
    estimate, _, sweep = _estimators()
    with pytest.raises(ValueError, match="bad chunk"):
        estimate(2)
    with pytest.raises(ValueError, match="bad tuples"):
        sweep(2)


def test_a_childs_value_error_exits_2(monkeypatch, capsys):
    _in_children(monkeypatch, "_trial_weights", _raise(ValueError("bad chunk")))
    code = main(["claim1", "--kvv", "3", "--trials", str(TRIALS), "--seed", "1", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: bad chunk\n"
    assert captured.out == ""


def test_an_unpicklable_exception_is_a_runtime_error(monkeypatch):
    class Local(Exception):  # a local class cannot be pickled
        pass

    _in_children(monkeypatch, "_trial_weights", _raise(Local("odd")))
    with pytest.raises(RuntimeError, match="raised Local: odd"):
        _estimators()[0](2)


def test_a_child_that_dies_exits_3(monkeypatch, capsys):
    _in_children(monkeypatch, "_trial_weights", lambda: os._exit(1))
    code = main(["remark3", "--n", "5", "--trials", str(TRIALS), "--seed", "1", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal error: RuntimeError: chunk worker" in captured.err
    assert "exited with status 1" in captured.err
    assert captured.out == ""


def test_an_interrupt_here_kills_every_child(monkeypatch):
    # the children would run their shares to the end; the interrupt in this
    # process's share must not wait for them
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    parent = os.getpid()
    real = analysis._trial_weights

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(analysis, "_trial_weights", interrupted)
    forks = count_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        _estimators()[0](3)
    assert len(forks) == 2
