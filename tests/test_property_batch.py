"""The batched property sweep against the one-tuple-at-a-time reference.

Each tuple of the reference loop draws from ``trial_rng(seed, t)`` and is
checked from scratch, with no package code: a random tuple is drawn one
double at a time by ``helpers.random_tuple``, a fixed instance's by
``helpers.fixed_tuple``, both markets re-simulated by
``helpers.reference_assignment`` (the reduced one also on the graph without
the item's edges), availability replayed by ``helpers.availability_sets``
and the two counterfactual properties as direct price and utility
comparisons. The batch must draw the same tuples and reach the same three
verdicts, tuple by tuple. The mutant tests show that each
property can fail inside the batch, which the all-zero counts of a working
sweep cannot show.

The sweep prints only violation counts, which stay 0 whatever tuples it
checks, so no output digest can catch a block that draws the wrong tuples.
The draw test here compares ``_random_tuples`` blocks too few to reach the
largest sides, whose frames are trimmed further, with blocks built one
tuple at a time by ``helpers.random_tuple``; ``test_tuple_decoder.py``
does so for every size class and a span of t crossing 2**32.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ranking_market import (
    ArrivalOrder,
    PriceScheme,
    analysis,
    kvv_hard_instance,
    make_instance,
    matchers,
    prices_from_weights,
    property_sweep,
)
from ranking_market.analysis import (
    _fixed_tuples,
    _instance_rows,
    _property_block,
    _random_tuples,
)
from ranking_market.instance import MAX_EDGES
from helpers import (
    TUPLE_SEEDS,
    availability_nested,
    check_random_tuple_blocks,
    fixed_tuple,
    random_tuple,
    reference_assignment,
    without_right_vertex,
)


def reference_tuple(instance, max_side: int, seed: int, t: int):
    """Tuple t as the per-tuple loop draws and checks it: the instance, the
    arrival order, the prices, the edge and the three verdicts."""
    if instance is None:
        inst, order, weights, (buyer, item) = random_tuple(max_side, seed, t)
        sigma = ArrivalOrder(order)
    else:
        inst = instance
        order, weights, (buyer, item) = fixed_tuple(instance, seed, t)
        sigma = ArrivalOrder(order)
    pa = prices_from_weights(weights, PriceScheme.EXPONENTIAL)
    prices, order = pa.prices, sigma.order
    full = reference_assignment(inst, prices, order)
    reduced = reference_assignment(inst, prices, order, removed=item)
    assert reduced == reference_assignment(without_right_vertex(inst, item), prices, order)
    cf_price = 1.0 if reduced[buyer] is None else prices[reduced[buyer]]
    utility = 0.0 if full[buyer] is None else 1.0 - prices[full[buyer]]
    verdicts = (
        prices[item] >= cf_price or item in full,
        utility >= 1.0 - cf_price,
        availability_nested(inst.n_right, full, reduced, order, item),
    )
    return inst, sigma, pa, (buyer, item), verdicts


# the reference tests check the batch in blocks of this many tuples
BLOCK = 128


def blocks(tuples, count: int):
    """Tuples 0..count-1 of a sweep in blocks of BLOCK: (first tuple, block
    arrays) pairs."""
    for b0 in range(0, count, BLOCK):
        yield b0, tuples(b0, min(b0 + BLOCK, count))


@pytest.mark.parametrize("max_side, count", [(1, 1000), (3, 3000), (10, 10_000), (37, 1000)],
                         ids=["1", "3", "10", "37"])
def test_random_tuples_match_the_reference_loop(max_side, count):
    seed = 17
    totals = np.zeros(3, dtype=int)
    for b0, block in blocks(partial(_random_tuples, max_side, seed), count):
        rows, orders, weights, buyers, items = block
        verdicts = _property_block(*block).T.tolist()
        for r, t in enumerate(range(b0, b0 + len(items))):
            inst, sigma, pa, chosen, expected = reference_tuple(None, max_side, seed, t)
            n_left, n_right = inst.n_left, inst.n_right
            # the padding item marks a non-edge; nothing outside the graph is an edge
            edges = np.argwhere(rows[r] < weights.shape[1])
            assert list(map(tuple, edges.tolist())) == list(inst.edges), t
            assert tuple(orders[r, :n_left].tolist()) == sigma.order, t
            assert orders[r, n_left:].tolist() == list(range(n_left, orders.shape[1])), t
            assert tuple(weights[r, :n_right].tolist()) == pa.weights, t
            assert not weights[r, n_right:].any(), t
            assert (int(buyers[r]), int(items[r])) == chosen, t
            assert tuple(verdicts[r]) == expected, t
            totals += np.logical_not(expected)
    sweep = property_sweep(count, seed, max_side=max_side)
    assert totals.tolist() == [0, 0, 0]
    assert [sweep.sold_if_cheaper_violations, sweep.utility_floor_violations,
            sweep.monotone_violations] == totals.tolist()


def test_random_tuples_reach_every_graph_size_and_checked_edge():
    # sides up to 3: every (n_left, n_right) and every cell of its corner as
    # the checked edge, 36 in all, each with probability >= 1/81
    max_side, count = 3, 4000
    rows, orders, weights, buyers, items = _random_tuples(max_side, 11, 0, count)
    seen = set()
    for t in range(count):
        inst = random_tuple(max_side, 11, t)[0]
        n_left, n_right, buyer, item = inst.n_left, inst.n_right, buyers[t], items[t]
        assert buyer < n_left and item < n_right and rows[t, buyer, item] == item, t
        assert sorted(orders[t, :n_left].tolist()) == list(range(n_left)), t
        assert orders[t, n_left:].tolist() == list(range(n_left, orders.shape[1])), t
        seen.add((n_left, n_right, int(buyer), int(item)))
    sides = range(1, max_side + 1)
    assert seen == {(l, r, b, i) for l in sides for r in sides for b in range(l) for i in range(r)}


@pytest.mark.parametrize("max_side", [37, 100])
def test_random_tuple_blocks_below_the_largest_sides_equal_single_draws(max_side):
    # four tuples rarely reach the largest sides: the coin frame, the keys
    # and the weights are cut to the block's own
    for seed in TUPLE_SEEDS:
        check_random_tuple_blocks(max_side, seed, 2**32 - 64, 2**32 + 64, block=4)


def test_fixed_instance_tuples_match_the_reference_loop():
    inst = kvv_hard_instance(7)
    seed, count = 29, 1500
    rows, edge_buyers, edge_items = _instance_rows(inst)
    assert list(zip(edge_buyers.tolist(), edge_items.tolist())) == list(inst.edges)
    tuples = partial(_fixed_tuples, rows, edge_buyers, edge_items, inst.n_right, seed)
    for b0, block in blocks(tuples, count):
        _, orders, weights, buyers, items = block
        verdicts = _property_block(*block).T.tolist()
        for r, t in enumerate(range(b0, b0 + len(items))):
            _, sigma, pa, chosen, expected = reference_tuple(inst, 0, seed, t)
            assert tuple(orders[r].tolist()) == sigma.order, t
            assert tuple(weights[r].tolist()) == pa.weights, t
            assert (int(buyers[r]), int(items[r])) == chosen, t
            assert tuple(verdicts[r]) == expected, t


def test_fixed_instance_tuples_reach_every_order_and_edge():
    # kvv3: 3! arrival orders times 6 edges, 36 pairs, each with probability 1/36
    inst = kvv_hard_instance(3)
    rows, edge_buyers, edge_items = _instance_rows(inst)
    _, orders, _, buyers, items = _fixed_tuples(rows, edge_buyers, edge_items, inst.n_right, 7, 0, 2000)
    seen = {(tuple(o), (b, i)) for o, b, i in zip(orders.tolist(), buyers.tolist(), items.tolist())}
    assert seen == set(itertools.product(itertools.permutations(range(3)), inst.edges))


@pytest.mark.parametrize("max_side", [3, 10, 14, 0], ids=["3", "10", "14", "kvv30"])
def test_the_arena_changes_no_tuple_bits(max_side):
    # a full block, then a shorter last block with views of its own, and the
    # full block again over what the shorter one left in the arena; max_side
    # 14's rows are filled by numpy's own random() into the arena's rows,
    # which have it to themselves
    if max_side:
        tuples, doubles = partial(_random_tuples, max_side), 5 + 2 * max_side + max_side**2
    else:
        rows, edge_buyers, edge_items = _instance_rows(kvv_hard_instance(30))
        tuples, doubles = partial(_fixed_tuples, rows, edge_buyers, edge_items, 30), 61
    arena = analysis._Arena(partial(analysis._tuple_layout, doubles))
    for b0, b1 in [(0, 300), (300, 410), (0, 300)]:
        fresh, in_arena = tuples(9, b0, b1), tuples(9, b0, b1, arena)
        assert [a.tobytes() for a in in_arena] == [a.tobytes() for a in fresh]
    assert sorted(arena.views) == [110, 300]
    # the rows are views of the one buffer, over the jump's first buffer
    stream, (u,) = arena(110)
    assert np.shares_memory(u, arena.memory)
    assert not stream or np.shares_memory(u, stream[0])


def test_blocks_are_sized_by_their_working_set(monkeypatch):
    sizes = []
    block = analysis._property_block

    def recording(rows, orders, weights, buyers, items):
        sizes.append(len(items))
        return block(rows, orders, weights, buyers, items)

    monkeypatch.setattr(analysis, "_property_block", recording)
    # random sides up to 10: the arena's 3 * 132 + 3 * 11 cells of jump
    # buffers (the 125 doubles over the first), then the stream's 2 * 132 +
    # 5 * 12 + 32 = 356 cells, more than the markets' 8 * 30 + 100: 785
    # cells a tuple and 1036 a block, (2**18 - 1036) // 785 = 332 a block
    property_sweep(1300, seed=3)
    assert sizes == [332, 332, 332, 304]
    # kvv30: 936 cells a tuple, and its rows and edges, 2866 cells a block
    cells, fixed = 936, 2866
    for budget, expected in [(fixed + 2 * cells, [2, 2, 1]), (fixed + 2 * cells - 1, [1] * 5)]:
        sizes.clear()
        monkeypatch.setattr(matchers, "_BLOCK_CELLS", budget)
        property_sweep(5, seed=3, instance=kvv_hard_instance(30))
        assert sizes == expected


def test_tuple_cells_cover_every_row_of_doubles():
    assert analysis._tuple_cells(10, 10, 10, 125, own_rows=True) == 3 * 132 + 3 * 11 + 356
    # a fixed 10 x 10 instance's 21 doubles, 5 x 5 of them in the jump: its
    # two markets, 8 * 30 cells, outweigh the stream's 2 * 25 + 5 * 5 + 32
    assert analysis._tuple_cells(10, 10, 10, 21, own_rows=False) == 3 * 25 + 3 * 5 + 8 * 30
    # a tuple's K = 5 + 2·m + m² doubles stay in the arena while its padded
    # rows are built, at every size a sweep accepts
    for m in range(1, math.isqrt(MAX_EDGES) + 1):
        doubles = 5 + 2 * m + m * m
        assert analysis._tuple_cells(m, m, m, doubles, own_rows=True) >= doubles + m * m


@pytest.mark.parametrize("max_side, instance", [(3, None), (9, None), (10, None),
                                                (10, kvv_hard_instance(30))],
                         ids=["3", "9", "10", "kvv30"])
def test_random_tuple_blocks_peak_within_their_counted_cells(monkeypatch, max_side, instance):
    # a fresh run of three blocks, the arena's allocation and a fixed
    # instance's rows included: every row of doubles takes the jump here
    counts = []
    block_size = analysis._block_size

    def count(cells, fixed=0):
        counts.append((cells, fixed))
        return block_size(cells, fixed)

    monkeypatch.setattr(analysis, "_block_size", count)
    property_sweep(10, 5, instance=instance, max_side=max_side)  # fills the stream's caches
    (cells, fixed), = counts
    block = block_size(cells, fixed)
    tracemalloc.start()
    try:
        property_sweep(3 * block, 5, instance=instance, max_side=max_side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = 8 * (cells * block + fixed)
    assert 0.75 * count < peak <= count


def test_the_padded_neighbor_rows_are_shared_not_copied(monkeypatch):
    # a fixed instance's rows [1, L, D] serve every market of every block
    seen = []
    kernel = analysis._assign_min_score

    def recording(adjacency, score, order):
        seen.append((adjacency, order.shape))
        return kernel(adjacency, score, order)

    monkeypatch.setattr(analysis, "_assign_min_score", recording)
    # 936 cells a tuple and 2866 a block: blocks of (2**18 - 2866) // 936 = 277
    property_sweep(500, seed=3, instance=kvv_hard_instance(30))
    assert [shape for _, shape in seen] == [(554, 30), (446, 30)]
    assert all(a.shape == (1, 30, 30) and a is seen[0][0] for a, _ in seen)


# ---------------------------------------------------------------------------
# mutants: each property must be able to fail inside the batch
# ---------------------------------------------------------------------------


def _counts(sweep) -> tuple[int, int, int]:
    return (sweep.sold_if_cheaper_violations, sweep.utility_floor_violations,
            sweep.monotone_violations)


@pytest.mark.parametrize("instance", [None, kvv_hard_instance(6)], ids=["random", "kvv6"])
def test_removing_the_next_item_breaks_monotone_availability(monkeypatch, instance):
    removal_scores = analysis._removal_scores

    def next_item(prices, items):
        return removal_scores(prices, items + 1)

    monkeypatch.setattr(analysis, "_removal_scores", next_item)
    assert property_sweep(2000, seed=5, instance=instance).monotone_violations > 0


def test_the_full_market_read_from_the_reduced_one_breaks_sold_if_cheaper(monkeypatch):
    # the item never sells without itself, so "sold" fails whenever the item
    # is cheaper than the fallback; the buyer's utility is then 1 - fallback
    # price exactly, so the floor still holds
    counterfactual_block = analysis._counterfactual_block

    def reduced_only(prices, full, reduced, buyers, items):
        return counterfactual_block(prices, reduced, reduced, buyers, items)

    monkeypatch.setattr(analysis, "_counterfactual_block", reduced_only)
    p1, p2, mono = _counts(property_sweep(2000, seed=5))
    assert p1 > 0 and p2 == 0 and mono == 0


def test_settling_at_the_reduced_scores_breaks_utility_floor(monkeypatch):
    # the accounting of the full market reads the removed item's price as
    # inf, so a buyer who bought it has utility -inf
    counterfactual_block = analysis._counterfactual_block

    def reduced_prices(prices, full, reduced, buyers, items):
        scores = prices.copy()
        scores[np.arange(len(items)), items] = math.inf
        return counterfactual_block(scores, full, reduced, buyers, items)

    monkeypatch.setattr(analysis, "_counterfactual_block", reduced_prices)
    p1, p2, mono = _counts(property_sweep(2000, seed=5))
    assert p1 == 0 and p2 > 0 and mono == 0


def test_a_utility_a_hair_below_the_floor_breaks_utility_floor(monkeypatch):
    # the floor holds exactly in floating point: the fallback item is
    # available in the full market, the kernel takes the minimum over the
    # same doubles and 1 - p is monotone. So it is checked with no slack,
    # and a utility 1e-12 too low shows
    counterfactual_block = analysis._counterfactual_block

    def lowered(prices, full, reduced, buyers, items):
        cf_price, item_sold, utility = counterfactual_block(prices, full, reduced, buyers, items)
        return cf_price, item_sold, utility - 1e-12

    monkeypatch.setattr(analysis, "_counterfactual_block", lowered)
    p1, p2, mono = _counts(property_sweep(2000, seed=5))
    assert p1 == 0 and p2 > 0 and mono == 0


def test_an_instance_too_skewed_to_pad_is_rejected_before_any_tuple(monkeypatch):
    # one buyer adjacent to every item, every other buyer to one: few edges,
    # but n_left x the largest degree padded cells
    n = math.isqrt(analysis._MAX_ROW_CELLS) + 1
    star = make_instance(n, n, [(0, j) for j in range(n)] + [(i, 0) for i in range(1, n)])

    def no_work(*args):
        raise AssertionError("a tuple was drawn")

    monkeypatch.setattr(analysis, "_trial_weights", no_work)
    with pytest.raises(ValueError, match="largest degree"):
        property_sweep(10, seed=1, instance=star)
