"""The fork-and-pipe chunk runner (analysis._run_chunks), with real forks:
results equal to the bit for any jobs, totals added as the chunks arrive in
bounded memory, a child's exception re-raised with its own type, a dead
child reported as an internal error, and no child left behind in any case."""

import os
import tracemalloc

import numpy as np
import pytest

from ranking_market import (
    ArrivalOrder,
    PriceScheme,
    analysis,
    check_welfare_bound,
    edge_guarantee_sweep,
    estimate_matching_size,
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_totals_are_added_as_the_chunks_arrive(monkeypatch, jobs):
    # 40 chunks of 1 MB results: held until the last chunk, they would take
    # 40 MB here; added as they arrive, a total, a chunk and their sum
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    chunks = 40

    def worker(t0, t1):
        return np.full(1 << 17, float(t0)), t1 - t0

    tracemalloc.start()
    try:
        total, trials = analysis._run_chunks(worker, chunks * 2048, jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert trials == chunks * 2048
    assert (total == 2048 * chunks * (chunks - 1) / 2).all()


@pytest.mark.parametrize("jobs", [1, 2])
def test_counts_are_read_back_exactly(monkeypatch, jobs):
    # every trial flagged: the counts come back through the estimates'
    # means, over two full chunks and one trial
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
    trials = 2 * 2048 + 1
    welfare, last_buyer = analysis._welfare, analysis._last_buyer

    def flag(observe, column):
        def flagged(*args, **kwargs):
            x = observe(*args, **kwargs)
            x[:, column] = 1.0
            return x

        return flagged

    monkeypatch.setattr(analysis, "_welfare", flag(welfare, 2))
    monkeypatch.setattr(analysis, "_last_buyer", flag(last_buyer, 4))
    bound = check_welfare_bound(kvv_hard_instance(5), ArrivalOrder.identity(5), trials, 3, jobs=jobs)
    assert bound.pointwise_violations == trials
    assert last_buyer_report(5, trials, 3, jobs=jobs).service_without_priciest == trials
    # every tuple fails all three checks: the counts are the sweep's totals
    monkeypatch.setattr(analysis, "_property_block",
                        lambda *block: np.zeros((3, len(block[-1])), dtype=bool))
    sweep = property_sweep(trials, 3, jobs=jobs)
    assert sweep == analysis.PropertySweep(trials, 3, trials, trials, trials)


def test_every_chunk_enters_the_one_block_loop_once(monkeypatch):
    # perfbench counts the sweep's chunks as the calls of _property_chunk,
    # which hands its blocks to _trial_chunk, the one block loop
    trials = 2 * analysis._CHUNK_TRIALS + 1
    entries = {"_property_chunk": 0, "_trial_chunk": 0}
    for name in entries:
        def counting(*args, real=getattr(analysis, name), name=name):
            entries[name] += 1
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)
    property_sweep(trials, 3)
    assert entries == {"_property_chunk": 3, "_trial_chunk": 3}
    estimate_matching_size(kvv_hard_instance(5), ArrivalOrder.identity(5), trials, 3)
    assert entries == {"_property_chunk": 3, "_trial_chunk": 6}


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
