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
    make_instance,
)


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
