import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ranking_market import (
    GUARANTEE,
    ArrivalOrder,
    RightPermutation,
    exact_ranking_expectation,
    estimate_matching_size,
    greedy,
    kvv_hard_instance,
    make_instance,
    maximum_matching,
    random_bipartite,
    ranking,
)
from ranking_market import matchers
from ranking_market.matchers import _assign_min_score
from helpers import brute_force_max_size, random_instance, reference_assignment, validate_matching

IDENTITY2 = ArrivalOrder.identity(2)


def test_ranking_kvv2_identity_permutation():
    m = ranking(kvv_hard_instance(2), RightPermutation((0, 1)), IDENTITY2)
    assert m.assignment == (0, 1)
    assert m.size == 2


def test_ranking_kvv2_swapped_permutation():
    m = ranking(kvv_hard_instance(2), RightPermutation((1, 0)), IDENTITY2)
    assert m.assignment == (1, None)
    assert m.size == 1


def test_ranking_no_edges():
    inst = make_instance(2, 3, [])
    m = ranking(inst, RightPermutation.identity(3), IDENTITY2)
    assert m.assignment == (None, None)


def test_ranking_size_mismatch():
    inst = kvv_hard_instance(2)
    with pytest.raises(ValueError):
        ranking(inst, RightPermutation.identity(3), IDENTITY2)
    with pytest.raises(ValueError):
        ranking(inst, RightPermutation.identity(2), ArrivalOrder.identity(3))


def test_greedy_half_exhibit():
    inst = make_instance(2, 2, [(0, 0), (0, 1), (1, 0)])
    m = greedy(inst, IDENTITY2)
    assert m.assignment == (0, None)
    assert maximum_matching(inst).size == 2


def test_greedy_kvv3():
    m = greedy(kvv_hard_instance(3), ArrivalOrder.identity(3))
    assert m.assignment == (0, 1, 2)


def test_greedy_no_edges():
    assert greedy(make_instance(3, 3, []), ArrivalOrder.identity(3)).size == 0


def test_greedy_outputs_are_maximal():
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = random_instance(rng, max_side=8)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        m = greedy(inst, sigma)
        validate_matching(m, inst)
        matched_right = {j for j in m.assignment if j is not None}
        for i, j in enumerate(m.assignment):
            if j is None:
                assert all(k in matched_right for k in inst.adjacency[i])
        # maximality implies at least half the optimum
        assert 2 * m.size >= maximum_matching(inst).size


def test_maximum_matching_examples():
    for n in (1, 3, 7, 25):
        assert maximum_matching(kvv_hard_instance(n)).size == n
    assert maximum_matching(make_instance(2, 2, [(0, 0), (0, 1), (1, 0)])).size == 2
    assert maximum_matching(make_instance(3, 3, [])).size == 0


def test_maximum_matching_is_valid():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst = random_instance(rng, max_side=9)
        validate_matching(maximum_matching(inst), inst)


def test_maximum_matching_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(120):
        inst = random_instance(rng, max_side=8)
        assert maximum_matching(inst).size == brute_force_max_size(inst)


def test_brute_force_examples():
    assert brute_force_max_size(kvv_hard_instance(4)) == 4
    complete = make_instance(3, 2, [(i, j) for i in range(3) for j in range(2)])
    assert brute_force_max_size(complete) == 2
    assert brute_force_max_size(make_instance(3, 3, [])) == 0


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_max_size(kvv_hard_instance(11))


def test_exact_expectation_kvv2():
    assert exact_ranking_expectation(kvv_hard_instance(2), IDENTITY2) == Fraction(3, 2)


def test_exact_expectation_single_edge():
    inst = make_instance(1, 1, [(0, 0)])
    assert exact_ranking_expectation(inst, ArrivalOrder.identity(1)) == 1


def test_exact_expectation_guard():
    with pytest.raises(ValueError):
        exact_ranking_expectation(kvv_hard_instance(9), ArrivalOrder.identity(9))


def test_exact_expectation_equals_the_scalar_loop_over_every_ranking(monkeypatch):
    rng = np.random.default_rng(46)
    cases = [case for case in _block_cases(rng) if case[0].n_right <= 5]
    for cells in (matchers._BLOCK_CELLS, 7):  # one block of rankings, or many
        monkeypatch.setattr(matchers, "_BLOCK_CELLS", cells)
        for inst, sigma in cases:
            served = 0
            for ranks in itertools.permutations(range(inst.n_right)):
                assignment = reference_assignment(inst, ranks, sigma.order)
                served += inst.n_left - assignment.count(None)
            exact = exact_ranking_expectation(inst, sigma)
            assert exact == Fraction(served, math.factorial(inst.n_right)), (cells, inst)


def test_the_oracle_ranks_in_the_order_of_itertools_permutations():
    for n in range(9):
        expected = list(itertools.permutations(range(n)))
        assert list(map(tuple, matchers._permutations(n).tolist())) == expected, n


def test_exact_expectation_trend_toward_guarantee():
    ratios = [
        exact_ranking_expectation(kvv_hard_instance(n), ArrivalOrder.identity(n)) / n
        for n in range(2, 9)
    ]
    assert all(earlier > later for earlier, later in zip(ratios, ratios[1:]))
    assert all(float(r) > GUARANTEE for r in ratios)


def test_ranking_equivariant_under_right_relabeling():
    rng = np.random.default_rng(33)
    for _ in range(30):
        inst = random_instance(rng, max_side=7)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        pi = RightPermutation.random(inst.n_right, rng)
        relabel = [int(x) for x in rng.permutation(inst.n_right)]
        relabeled = make_instance(
            inst.n_left,
            inst.n_right,
            [(i, relabel[j]) for i, j in inst.edges],
        )
        rank = [0] * inst.n_right
        for j, r in enumerate(pi.rank):
            rank[relabel[j]] = r
        m1 = ranking(inst, pi, sigma)
        m2 = ranking(relabeled, RightPermutation(tuple(rank)), sigma)
        assert m1.size == m2.size
        for a, b in zip(m1.assignment, m2.assignment):
            if a is None:
                assert b is None
            else:
                assert b == relabel[a]


def test_monte_carlo_matches_exact_expectation():
    inst = kvv_hard_instance(5)
    sigma = ArrivalOrder.identity(5)
    exact = float(exact_ranking_expectation(inst, sigma))
    est = estimate_matching_size(inst, sigma, trials=40_000, seed=8)
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_validate_matching_rejects_bad_matchings():
    inst = kvv_hard_instance(2)
    from ranking_market import Matching

    with pytest.raises(ValueError, match="twice"):
        validate_matching(Matching((1, 1)), inst)
    with pytest.raises(ValueError, match="not an edge"):
        validate_matching(Matching((1, 0)), inst)
    with pytest.raises(ValueError):
        validate_matching(Matching((0,)), inst)


def chain_instance(n: int):
    """Left 0 - {0}, left i - {i-1, i}: each new left vertex's augmenting
    path runs back through every earlier one."""
    return make_instance(n, n, [(0, 0)] + [(i, j) for i in range(1, n) for j in (i - 1, i)])


def test_maximum_matching_long_chain_needs_no_recursion():
    inst = chain_instance(3000)
    m = maximum_matching(inst)
    validate_matching(m, inst)
    assert m.size == 3000
    for n in range(1, 9):
        assert maximum_matching(chain_instance(n)).size == brute_force_max_size(chain_instance(n))


def test_greedy_takes_the_lowest_index_open_neighbor():
    rng = np.random.default_rng(22)
    for _ in range(40):
        inst = random_instance(rng, max_side=8)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        expected: list[int | None] = [None] * inst.n_left
        taken = set()
        for b in sigma.order:
            expected[b] = next((k for k in inst.adjacency[b] if k not in taken), None)
            taken.add(expected[b])
        assert greedy(inst, sigma).assignment == tuple(expected)


def _block_cases(rng):
    """Instances with n_left != n_right, empty adjacency rows, 0 x k and
    k x 0 sides, with a random arrival order each."""
    for _ in range(60):
        n_left, n_right = (int(x) for x in rng.integers(0, 9, size=2))
        coins = rng.random((n_left, n_right)) < rng.uniform(0.0, 1.0)
        coins[rng.random(n_left) < 0.2] = False  # empty rows
        edges = [(i, j) for i in range(n_left) for j in range(n_right) if coins[i, j]]
        yield make_instance(n_left, n_right, edges), ArrivalOrder.random(n_left, rng)
    for n_left, n_right in ((0, 3), (3, 0), (0, 0), (4, 1), (1, 4)):
        edges = [(i, j) for i in range(n_left) for j in range(n_right)]
        yield make_instance(n_left, n_right, edges), ArrivalOrder.random(n_left, rng)
    yield kvv_hard_instance(20), ArrivalOrder.reversed(20)
    # buyers whose only neighbor is item 0: an index array [0] is falsy
    yield make_instance(3, 2, [(0, 0), (1, 0), (1, 1), (2, 0)]), ArrivalOrder.random(3, rng)


def as_row(assignment, n_left: int) -> list[int]:
    """A from-scratch assignment in the kernel's form, -1 for None, padded
    with unserved buyers to n_left."""
    row = [-1 if j is None else j for j in assignment]
    return row + [-1] * (n_left - len(row))


def assert_rows_equal_the_scalar_loop(inst, score, order):
    """Run a [T, n_right] score block through the shared-graph kernel and
    check each row against the from-scratch market on its own scores."""
    before = score.copy()
    block = _assign_min_score(inst.adjacency, score, order)
    assert block.shape == (len(score), inst.n_left) and block.dtype == np.intp
    assert np.array_equal(score, before)  # the caller's scores are not consumed
    for t in range(len(score)):
        expected = reference_assignment(inst, score[t].tolist(), order)
        assert block[t].tolist() == as_row(expected, inst.n_left), t
    return block


@pytest.mark.parametrize("rows", [1, 3, 128])
def test_block_kernel_equals_the_scalar_loop_row_by_row(rows):
    rng = np.random.default_rng(40 + rows)
    for inst, sigma in _block_cases(rng):
        score = rng.random((rows, inst.n_right))
        score[rows // 3 :] = np.round(score[rows // 3 :], 1)  # forced ties
        score[rng.random(score.shape) < 0.15] = np.inf
        score[rng.random(rows) < 0.1] = np.inf  # markets with nothing to sell
        block = assert_rows_equal_the_scalar_loop(inst, score, sigma.order)
        # the estimators pass the neighbor lists as intp arrays
        arrays = tuple(np.array(a, dtype=np.intp) for a in inst.adjacency)
        assert np.array_equal(_assign_min_score(arrays, score, sigma.order), block)


@pytest.mark.parametrize("rows", [1, 3, 128])
@pytest.mark.parametrize("n_right", [64, 150, 300])
def test_block_kernel_ranks_long_runs_of_equal_scores_by_index(rows, n_right):
    # three distinct scores over up to 300 items: an unstable sort of a row
    # this long misorders the ties
    rng = np.random.default_rng(n_right + rows)
    inst = random_bipartite(30, n_right, 0.5, rng)
    score = rng.choice([0.25, 0.5, 1.0], size=(rows, n_right))
    sigma = ArrivalOrder.random(30, rng)
    assert_rows_equal_the_scalar_loop(inst, score, sigma.order)


@pytest.mark.parametrize(
    "rows, n_right, width",
    [(3, 20, np.uint8), (128, 100, np.uint16), (128, 600, np.uint32)],
)
def test_block_kernel_ids_of_every_width(rows, n_right, width):
    # the kernel numbers market t's items t·(n_right+1) + rank: these blocks
    # need one, two and four bytes for that
    assert np.min_scalar_type(rows * (n_right + 1)) == width
    rng = np.random.default_rng(n_right)
    inst = random_bipartite(40, n_right, 8 / n_right, rng)
    score = rng.random((rows, n_right))
    score[rng.random(score.shape) < 0.1] = np.inf
    sigma = ArrivalOrder.random(40, rng)
    block = assert_rows_equal_the_scalar_loop(inst, score, sigma.order)
    assert (block >= 0).any()


def _unserved_cases(rng):
    """Graphs on which arrivals with neighbors find them all sold: kvv20 in
    its identity order (in reversed order every buyer is served) and a
    random 30 x 12 graph with empty rows."""
    yield kvv_hard_instance(20), ArrivalOrder.identity(20)
    coins = rng.random((30, 12)) < 0.3
    coins[::4] = False
    edges = [(i, j) for i in range(30) for j in range(12) if coins[i, j]]
    yield make_instance(30, 12, edges), ArrivalOrder.random(30, rng)


@pytest.mark.parametrize("rows", [1, 3, 128])
def test_block_kernel_leaves_arrivals_unserved_with_no_inf_score(rows):
    # with no score at inf the kernel builds no inf mask, and an unserved
    # arrival's write of market t's sentinel cell, -T + t, wraps onto the
    # sentinel row
    rng = np.random.default_rng(50 + rows)
    for inst, sigma in _unserved_cases(rng):
        score = rng.random((rows, inst.n_right))
        block = assert_rows_equal_the_scalar_loop(inst, score, sigma.order)
        has_neighbors = [b for b, neighbors in enumerate(inst.adjacency) if neighbors]
        assert (block[:, has_neighbors] == -1).any()


def test_block_kernel_with_one_inf_score_in_a_block():
    # one item of one market of 128 is unavailable: every other market of
    # the complete 30 x 20 graph sells all 20 items, that one 19
    rng = np.random.default_rng(52)
    inst = make_instance(30, 20, [(i, j) for i in range(30) for j in range(20)])
    score = rng.random((128, 20))
    score[77, 5] = np.inf
    block = assert_rows_equal_the_scalar_loop(inst, score, ArrivalOrder.random(30, rng).order)
    sold = (block >= 0).sum(axis=1)
    assert sold[77] == 19 and 5 not in block[77]
    assert (np.delete(sold, 77) == 20).all()


@pytest.mark.parametrize("gaps", [False, True], ids=["tail", "gaps"])
def test_per_market_block_kernel_equals_the_scalar_loop_market_by_market(gaps):
    # every market has its own graph and arrival order, padded to the
    # block's largest: missing buyers arrive last with no neighbors, and a
    # row's missing neighbors are the padding item R, which scores inf;
    # with copies > 1, market t runs on the rows of graph t % len(cases)
    # with its own scores and arrival order
    rng = np.random.default_rng(44)
    cases = list(_block_cases(rng))
    n_left = max(inst.n_left for inst, _ in cases)
    n_right = max(inst.n_right for inst, _ in cases)
    adjacency = np.full((len(cases), n_left, n_right), n_right, dtype=np.intp)
    for t, (inst, _) in enumerate(cases):
        for b, neighbors in enumerate(inst.adjacency):
            adjacency[t, b, list(neighbors) if gaps else slice(len(neighbors))] = neighbors
    for copies in (1, 3):
        markets = [(inst, sigma if c == 0 else ArrivalOrder.random(inst.n_left, rng))
                   for c in range(copies) for inst, sigma in cases]
        orders = np.tile(np.arange(n_left), (len(markets), 1))
        score = np.full((len(markets), n_right + 1), np.inf)
        for t, (inst, sigma) in enumerate(markets):
            orders[t, : inst.n_left] = sigma.order
            score[t, : inst.n_right] = np.round(rng.random(inst.n_right), 1)  # ties
        before = score.copy()
        block = _assign_min_score(adjacency, score, orders)
        assert block.shape == (len(markets), n_left) and block.dtype == np.intp
        assert np.array_equal(score, before)
        for t, (inst, sigma) in enumerate(markets):
            expected = reference_assignment(inst, score[t].tolist(), sigma.order)
            assert block[t].tolist() == as_row(expected, n_left), (copies, t)
