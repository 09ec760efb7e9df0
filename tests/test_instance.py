import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranking_market import (
    ArrivalOrder,
    RightPermutation,
    kvv_hard_instance,
    make_instance,
    parse,
    random_bipartite,
    serialize,
)
from ranking_market import cli
from ranking_market import instance as instance_module
from ranking_market.instance import MAX_EDGES, MAX_SIDE
from helpers import without_right_vertex


def test_make_instance_single_edge():
    inst = make_instance(1, 1, [(0, 0)])
    assert inst.adjacency == ((0,),)


def test_make_instance_sorts_and_dedups():
    inst = make_instance(2, 2, [(0, 1), (0, 0), (1, 1), (0, 1)])
    assert inst.adjacency == ((0, 1), (1,))
    assert inst.edge_count == 3


def test_make_instance_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        make_instance(2, 2, [(0, 2)])
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        make_instance(2, 2, [(-1, 0)])


def test_kvv_small():
    assert kvv_hard_instance(1).adjacency == ((0,),)
    assert kvv_hard_instance(3).adjacency == ((0, 1, 2), (1, 2), (2,))


def test_kvv_rejects_zero():
    with pytest.raises(ValueError):
        kvv_hard_instance(0)


def test_generators_reject_more_than_max_edges():
    # just above the bound, so without the check each call builds (~0.2 s)
    assert min(2000 * 2001 // 2, 1415 * 1414) > MAX_EDGES >= 1414 * 1414
    with pytest.raises(ValueError, match="MAX_EDGES"):
        kvv_hard_instance(2000)
    with pytest.raises(ValueError, match="MAX_EDGES"):
        random_bipartite(1415, 1414, 0.5, 1)
    assert random_bipartite(1414, 1414, 0.0, 1).edge_count == 0


@pytest.mark.parametrize("n", [1, 2, 5, 10, 40])
def test_kvv_edge_count(n):
    assert kvv_hard_instance(n).edge_count == n * (n + 1) // 2


def test_kvv_last_buyer_has_one_neighbor():
    inst = kvv_hard_instance(7)
    assert inst.adjacency[6] == (6,)


def test_random_bipartite_extremes():
    assert random_bipartite(3, 3, 0.0, 1).edge_count == 0
    full = random_bipartite(3, 3, 1.0, 1)
    assert all(row == (0, 1, 2) for row in full.adjacency)


def test_random_bipartite_deterministic():
    assert random_bipartite(50, 50, 0.1, 7) == random_bipartite(50, 50, 0.1, 7)


def test_random_bipartite_rejects_bad_prob():
    with pytest.raises(ValueError):
        random_bipartite(3, 3, 1.5, 1)


def test_serialize_parse_round_trip():
    inst = kvv_hard_instance(3)
    assert parse(serialize(inst)) == inst


def test_round_trip_empty_graph():
    inst = make_instance(2, 2, [])
    assert parse(serialize(inst)) == inst


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n2 2\n0 1\n\n# tail comment\n1 0\n"
    assert parse(text) == make_instance(2, 2, [(0, 1), (1, 0)])


def test_parse_out_of_range_reports_line():
    with pytest.raises(ValueError, match="line 3"):
        parse("# header\n2 2\n0 5\n")


def test_parse_rejects_an_oversize_header_before_allocating(monkeypatch):
    def no_instance(*args):
        raise AssertionError("make_instance was reached")

    monkeypatch.setattr(instance_module, "make_instance", no_instance)
    big = MAX_SIDE + 1
    for text, line in [
        ("1000000000 1000000000\n", 1),
        ("# a comment\n\n3 1000000000\n0 0\n", 3),
        (f"{big} 1\n", 1),
        (f"1 {big}\n", 1),
    ]:
        with pytest.raises(ValueError, match=f"line {line}: side sizes must be at most"):
            parse(text)
    # the bound itself is accepted
    monkeypatch.setattr(instance_module, "make_instance", lambda *args: args)
    assert parse(f"{MAX_SIDE} {MAX_SIDE}\n") == (MAX_SIDE, MAX_SIDE, [])


def test_parse_malformed_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        parse("2 2\n0 one\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("")


@st.composite
def instances(draw, max_side=8):
    n_left = draw(st.integers(1, max_side))
    n_right = draw(st.integers(1, max_side))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
            max_size=3 * max_side,
        )
    )
    return make_instance(n_left, n_right, edges)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_round_trip_is_identity(inst):
    assert parse(serialize(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(instances())
def test_adjacency_invariants(inst):
    for row in inst.adjacency:
        assert list(row) == sorted(set(row))
        assert all(0 <= j < inst.n_right for j in row)


def test_without_right_vertex():
    inst = kvv_hard_instance(3)
    reduced = without_right_vertex(inst, 1)
    assert reduced.n_right == 3
    assert reduced.adjacency == ((0, 2), (2,), (2,))
    with pytest.raises(ValueError):
        without_right_vertex(inst, 3)


def test_arrival_order_constructors():
    assert ArrivalOrder.identity(3).order == (0, 1, 2)
    assert ArrivalOrder.reversed(3).order == (2, 1, 0)
    drawn = ArrivalOrder.random(6, 42)
    assert sorted(drawn.order) == list(range(6))
    assert ArrivalOrder.random(6, 42) == drawn


def test_arrival_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        ArrivalOrder((0, 0, 1))


def test_right_permutation_constructors():
    assert RightPermutation.identity(2).rank == (0, 1)
    drawn = RightPermutation.random(5, 9)
    assert sorted(drawn.rank) == list(range(5))
    with pytest.raises(ValueError):
        RightPermutation((1, 2))


def test_generator_outputs_satisfy_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_bipartite(
            int(rng.integers(0, 8)), int(rng.integers(0, 8)), float(rng.uniform(0, 1)), rng
        )
        for row in inst.adjacency:
            assert list(row) == sorted(set(row))


# Tokens a malformed instance file may hold: small and negative integers,
# sides past MAX_SIDE, numbers int() rejects or takes (unicode digits,
# underscores, a sign), an int too long for int(), comment marks and noise.
_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(
        [str(MAX_SIDE + 1), "1.5", "0x1", "1e3", "nan", "#", "--", "٣", "1_0", "+2",
         "9" * 5000, "\x00"]
    ),
    st.text(max_size=3),
)
_LINES = st.one_of(st.lists(_TOKENS, max_size=4).map(" ".join), st.text(max_size=6))
_TEXTS = st.lists(_LINES, max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(_TEXTS)
def test_parse_fails_only_with_a_line_numbered_value_error(text):
    try:
        inst = parse(text)
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), exc
    else:
        assert parse(serialize(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(text=_TEXTS)
def test_a_malformed_instance_file_exits_2(tmp_path_factory, text):
    try:
        parse(text)
    except ValueError:
        pass
    else:
        return  # well-formed: not this test's case
    path = tmp_path_factory.mktemp("fuzz") / "instance.txt"
    path.write_text(text, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["properties", "--file", str(path), "--sweep", "5", "--seed", "1"])
    assert code == 2, stderr.getvalue()
    assert stderr.getvalue().startswith("error: "), stderr.getvalue()
