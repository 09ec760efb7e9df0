"""Shared oracles and verifiers used across the test modules: the package
itself needs none of them."""

from __future__ import annotations

import math
import os

import numpy as np

from ranking_market import (
    ArrivalOrder,
    BipartiteInstance,
    MarketOutcome,
    Matching,
    PriceAssignment,
    PriceScheme,
    make_instance,
)
from ranking_market.analysis import _edge_values, _random_tuples
from ranking_market.market import _price_array
from ranking_market.matchers import _assign_min_score


def without_right_vertex(instance: BipartiteInstance, j: int) -> BipartiteInstance:
    """Copy of the instance with every edge into right vertex j removed.

    The right side keeps its size so item indices (and price vectors) stay
    aligned with the original instance. The oracle for the reduced market,
    which the package runs as the full graph with item j's score at inf.
    """
    if not 0 <= j < instance.n_right:
        raise ValueError(f"right vertex {j} out of range")
    adjacency = tuple(
        tuple(k for k in neighbors if k != j) for neighbors in instance.adjacency
    )
    return BipartiteInstance(instance.n_left, instance.n_right, adjacency)


def validate_matching(matching: Matching, instance: BipartiteInstance) -> None:
    """Raise ValueError unless the matching is injective and feasible for the
    given instance."""
    if len(matching.assignment) != instance.n_left:
        raise ValueError("matching size does not match the instance's left side")
    seen: set[int] = set()
    for i, j in enumerate(matching.assignment):
        if j is None:
            continue
        if j in seen:
            raise ValueError(f"right vertex {j} is matched twice")
        seen.add(j)
        if j not in instance.adjacency[i]:
            raise ValueError(f"pair ({i}, {j}) is not an edge of the instance")


def brute_force_max_size(instance: BipartiteInstance) -> int:
    """Exact maximum matching size by exhaustive search over assignments.

    Independent of maximum_matching by construction; guarded to n_left <= 10.
    """
    if instance.n_left > 10:
        raise ValueError("brute force oracle is limited to n_left <= 10")
    adjacency = instance.adjacency
    n = instance.n_left
    best = 0

    def explore(i: int, used: int, matched: int) -> None:
        nonlocal best
        if matched + (n - i) <= best:
            return
        if i == n:
            best = matched
            return
        for j in adjacency[i]:
            if not used >> j & 1:
                explore(i + 1, used | 1 << j, matched + 1)
        explore(i + 1, used, matched)

    explore(0, 0, 0)
    return best


def random_instance(rng: np.random.Generator, max_side: int = 10) -> BipartiteInstance:
    """Random instance with at least one edge and sides in [1, max_side]."""
    while True:
        n_left = int(rng.integers(1, max_side + 1))
        n_right = int(rng.integers(1, max_side + 1))
        prob = float(rng.uniform(0.1, 0.95))
        coins = rng.random((n_left, n_right)) < prob
        edges = [(i, j) for i in range(n_left) for j in range(n_right) if coins[i, j]]
        if edges:
            return make_instance(n_left, n_right, edges)


def random_tuple(max_side: int, seed: int, t: int):
    """Random property tuple t of a sweep, drawn from scratch by the rule
    the package states, one double at a time: u = trial_rng(seed, t)
    .random(K), K = 5 + 2·m + m², m = max_side. Returns the instance, the
    arrival order, the weights and the checked edge."""
    m = max_side
    u = np.random.default_rng((seed, t)).random(5 + 2 * m + m * m).tolist()
    n_left, n_right = int(u[0] * m) + 1, int(u[1] * m) + 1
    prob = 0.2 + 0.7 * u[2]
    edge = (int(u[3] * n_left), int(u[4] * n_right))
    keys = u[5 : 5 + n_left]
    order = sorted(range(n_left), key=keys.__getitem__)  # sorted is stable
    weights = u[5 + m : 5 + m + n_right]
    coins = u[5 + 2 * m :]
    edges = [
        (i, j) for i in range(n_left) for j in range(n_right)
        if coins[i * m + j] < prob or (i, j) == edge
    ]
    return make_instance(n_left, n_right, edges), tuple(order), tuple(weights), edge


# 1, 1, 2 and 3 entropy words
TUPLE_SEEDS = [0, 2**32 - 1, 2**32 + 5, 2**64 + 7]


def random_tuple_block(max_side: int, seed: int, t0: int, t1: int) -> tuple:
    """Tuples t0..t1-1 drawn by random_tuple, padded as
    analysis._random_tuples pads them: the edges [B, L, R], the arrival
    orders, the weights and the checked edges' buyers and items."""
    draws = [random_tuple(max_side, seed, t) for t in range(t0, t1)]
    size_l = max(inst.n_left for inst, _, _, _ in draws)
    size_r = max(inst.n_right for inst, _, _, _ in draws)
    edges = np.zeros((len(draws), size_l, size_r), dtype=bool)
    orders = np.tile(np.arange(size_l), (len(draws), 1))
    padded = np.zeros((len(draws), size_r))
    for r, (inst, order, weights, _) in enumerate(draws):
        for i, j in inst.edges:
            edges[r, i, j] = True
        orders[r, : inst.n_left] = order
        padded[r, : inst.n_right] = weights
    buyers, items = np.array([edge for _, _, _, edge in draws]).T
    return edges, orders, padded, buyers, items


def check_random_tuple_blocks(
    max_side: int, seed: int, t0: int, t1: int, block: int = 128
) -> None:
    """analysis._random_tuples against random_tuple_block, block by block:
    every array with its shape and dtype."""
    names = ("edges", "orders", "weights", "buyers", "items")
    for b0 in range(t0, t1, block):
        b1 = min(b0 + block, t1)
        got = _random_tuples(max_side, seed, b0, b1)
        expected = random_tuple_block(max_side, seed, b0, b1)
        for name, a, b in zip(names, got, expected, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype, (max_side, seed, b0, name)
            assert np.array_equal(a, b), (max_side, seed, b0, name)


def fixed_tuple(instance: BipartiteInstance, seed: int, t: int):
    """Property tuple t of a sweep on a fixed instance, drawn from scratch by
    the rule the package states: u = trial_rng(seed, t).random(1 + L + R);
    the edge is number floor(u0·E) of the instance's E edges, buyer by buyer,
    the arrival order sorts the buyers by the next L doubles (ties keep
    index order) and the weights are the last R. Returns the arrival order,
    the weights and the checked edge."""
    n_left = instance.n_left
    u = np.random.default_rng((seed, t)).random(1 + n_left + instance.n_right).tolist()
    edges = [(i, j) for i in range(n_left) for j in instance.adjacency[i]]
    keys = u[1 : 1 + n_left]
    order = sorted(range(n_left), key=keys.__getitem__)  # sorted is stable
    return tuple(order), tuple(u[1 + n_left :]), edges[int(u[0] * len(edges))]


def replay_market(
    instance: BipartiteInstance,
    pa: PriceAssignment,
    sigma: ArrivalOrder,
    outcome: MarketOutcome,
) -> None:
    """Re-simulate availability step by step and assert the outcome is what a
    rational buyer sequence produces: every purchase is the cheapest available
    neighbor (ties to the lowest index) at non-negative utility, buyers only
    walk away when nothing is available, and the accounting is consistent."""
    validate_matching(outcome.matching, instance)
    prices = pa.prices
    available = set(range(instance.n_right))
    for b in sigma.order:
        j = outcome.matching.assignment[b]
        open_neighbors = [k for k in instance.adjacency[b] if k in available]
        if j is None:
            assert not open_neighbors, f"buyer {b} walked away from {open_neighbors}"
            assert outcome.utils[b] == 0.0
        else:
            assert j in open_neighbors
            cheapest = min(open_neighbors, key=lambda k: (prices[k], k))
            assert j == cheapest, f"buyer {b} took {j}, cheapest available was {cheapest}"
            assert outcome.utils[b] == 1.0 - prices[j]
            assert outcome.utils[b] >= 0.0
            assert outcome.revs[j] == prices[j]
            available.remove(j)
    sold = {j for j in outcome.matching.assignment if j is not None}
    assert outcome.purchased == sold
    for j in range(instance.n_right):
        if j not in sold:
            assert outcome.revs[j] == 0.0


def reference_assignment(
    instance: BipartiteInstance,
    scores,
    order,
    removed: int | None = None,
) -> list[int | None]:
    """The market re-simulated from scratch on n_right raw scores (prices,
    rank values), optionally without item `removed`: each buyer of `order`
    in turn takes its open neighbor with the lowest score, ties to the
    lowest index. An item scoring inf is never taken."""
    available = {j for j in range(instance.n_right) if scores[j] != math.inf} - {removed}
    assignment: list[int | None] = [None] * instance.n_left
    for b in order:
        open_neighbors = [k for k in instance.adjacency[b] if k in available]
        if open_neighbors:
            j = min(open_neighbors, key=lambda k: (scores[k], k))
            assignment[b] = j
            available.remove(j)
    return assignment


def last_buyer_by_settling(adjacency, w, exp_prices, assignment) -> np.ndarray:
    """analysis._last_buyer's [B, 5] read off full settlements: the last
    edge's util + rev from _settle_block and _edge_values under exponential
    prices and under uniform prices, the uniform market run on every row,
    then served, priciest last and served without the priciest."""
    last = exp_prices.shape[1] - 1
    uni_prices = _price_array(w, PriceScheme.UNIFORM)
    uni_assignment = _assign_min_score(adjacency, uni_prices, range(last + 1))
    edge = np.array([last])
    values = [_edge_values(edge, edge, w, exp_prices, assignment)[:, 0],
              _edge_values(edge, edge, w, uni_prices, uni_assignment)[:, 0]]
    served = assignment[:, last] >= 0
    priciest = w.argmax(axis=1) == last
    return np.stack([*values, served, priciest, served & ~priciest], axis=1).astype(float)


def availability_sets(
    n_right: int, assignment, order, removed: int | None = None
) -> list[frozenset[int]]:
    """The available items before each arrival and after the last, each set
    recomputed from scratch from the purchases made so far."""
    return [
        frozenset(range(n_right))
        - {removed}
        - {assignment[b] for b in order[:k] if assignment[b] is not None}
        for k in range(len(order) + 1)
    ]


def availability_nested(n_right: int, full, reduced, order, removed: int) -> bool:
    """Monotone availability from scratch: before each arrival and after the
    last, the full market's available set contains that of the market
    without `removed`, with at most one item to spare."""
    pairs = zip(
        availability_sets(n_right, full, order),
        availability_sets(n_right, reduced, order, removed=removed),
    )
    return all(r <= f and len(f - r) <= 1 for f, r in pairs)


def no_fork():
    """Stands in for os.fork where no process may be started."""
    raise AssertionError("a process was forked")


def count_forks(monkeypatch) -> list:
    """Wrap os.fork (as the chunk runner reaches it, analysis.os.fork) so
    that each call is recorded, and return the record: one entry a fork."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks
