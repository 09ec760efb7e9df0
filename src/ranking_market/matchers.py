"""Matching algorithms: online (RANKING and greedy), the offline
maximum-matching solver, and the exact expected RANKING size of a small
instance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instance import ArrivalOrder, BipartiteInstance, RightPermutation

_INF = float("inf")

# A block of markets (estimator trials, property tuples, the oracle's
# rankings) holds about this many 8-byte array cells, 2 MiB, whatever the
# instance: see _block_size.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class Matching:
    """Partial injective assignment of left to right vertices.

    assignment[i] is the right vertex matched to left vertex i, or None.
    """

    assignment: tuple[int | None, ...]

    @property
    def size(self) -> int:
        return sum(1 for j in self.assignment if j is not None)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.assignment) if j is not None)


def _block_size(cells: int, fixed: int = 0) -> int:
    """Markets a block takes when each holds `cells` array cells at its
    peak and the block `fixed` more, whatever its size: as many as fit
    _BLOCK_CELLS, and at least one."""
    return max(1, (_BLOCK_CELLS - fixed) // max(cells, 1))


def _assign_min_score(adjacency, score: np.ndarray, order, out=None) -> np.ndarray:
    """Sequentially assign each arriving left vertex to its available
    neighbor with the minimum score, ties going to the lowest index.

    This single rule realizes RANKING (score = rank values), greedy (the
    identity ranking) and the price market (score = prices). A neighbor
    scoring inf is never taken, so the market without an item is the same
    rule with that item's score at inf.

    score is a [T, n_right] float array, each score finite or +inf: T
    markets run at once, one market being a one-row block. The result is a
    [T, n_left] intp array, row t market t's item for each left vertex or -1
    for an unserved arrival; the caller's scores are left as they are. The
    T markets either share one graph and one arrival order (adjacency[b] a
    sequence or intp array of buyer b's neighbors in ascending order, order
    a sequence of left vertices) or each have their own: order a
    [T, n_left] array, row t market t's arrival order, and adjacency a
    [T', n_left, D] intp array of padded neighbor rows for T a multiple of
    T', adjacency[t % T', b] buyer b's neighbors in market t in ascending
    order with gaps and tail filled by an item whose score is inf in every
    market. On a shared graph only the order of each market's scores
    matters: the markets run in rank space, one integer min over the
    arrival's neighbor rows per arrival, ties found by one sort of the
    values and an unserved arrival's cell -T + t (see _assign_shared). With
    their own graphs, per arrival, argmin over the gathered neighbor scores
    takes the first minimum (the lowest index), a minimum below inf is a
    purchase, and the taken item's score becomes inf.
    """
    if isinstance(order, np.ndarray) and order.ndim == 2:
        return _assign_per_market(adjacency, score, order)
    return _assign_shared(adjacency, score, order, out)


def _kernel_buffers(n_left: int, n_right: int, n_markets: int) -> list[tuple]:
    """(shape, dtype) of _assign_shared's four arrays for a block of
    n_markets: the sorted scores, the cell map, the ids in the narrowest
    unsigned dtype that numbers every cell, and the assignment."""
    cells = n_markets * (n_right + 1)
    return [((n_markets, n_right), float), ((n_markets, n_right + 1), np.intp),
            ((n_right + 1, n_markets), np.min_scalar_type(cells)), ((n_left, n_markets), np.intp)]


def _assign_shared(adjacency, score: np.ndarray, order, out=None) -> np.ndarray:
    """_assign_min_score's T markets on one graph and one arrival order, in
    rank space. With R = n_right, item j of market t has the id t·(R+1) + k,
    k its rank in score[t] (ties by index), until it is taken; an item taken
    or scoring inf has market t's sentinel id t·(R+1) + R instead. ids[j, t]
    holds them in the narrowest unsigned dtype, with a row R of sentinels,
    so an arrival's cheapest available neighbor in every market is one min
    over its neighbors' contiguous rows. cell_of maps each id to its cell
    j·T + t, a sentinel to -T + t: that cell is the arrival's purchase and
    gets the sentinel, wrapping onto row R for an unserved arrival. At the
    end cell // T is the item, -1 an unserved arrival.

    The four arrays are out, views of _kernel_buffers' shapes (a run's
    arena: they need not be zeroed), or are allocated afresh; the argsort's
    output always is. The ids are numbered by rank, then offset by market,
    so no array of all the ids is built."""
    n_markets, n_right = score.shape
    ordered, cell_of, ids, assignment = out or [
        np.empty(shape, dtype) for shape, dtype in _kernel_buffers(len(adjacency), n_right, n_markets)
    ]
    by_rank = np.argsort(score, axis=1)
    # the SIMD sort is not stable: tied rows are sorted again to rank ties by index
    np.copyto(ordered, score)
    ordered.sort(axis=1)
    if (tied := _tied_rows(ordered)).any():
        by_rank[tied] = np.argsort(score[tied], axis=1, kind="stable")
    np.multiply(by_rank, n_markets, out=cell_of[:, :n_right])
    cell_of[:, n_right] = -n_markets
    markets = np.arange(n_markets)
    cell_of += markets[:, None]
    flat = ids.reshape(-1)
    flat[cell_of] = np.arange(n_right + 1, dtype=ids.dtype)
    ids += (markets * (n_right + 1)).astype(ids.dtype)
    sentinel = ids[n_right].copy()
    if (ordered[:, -1:] == _INF).any():
        np.copyto(ids[:n_right], sentinel, where=(score == _INF).T)
    assignment.fill(-1)
    for b in order:
        if len(neighbors := adjacency[b]):
            cheapest = np.minimum.reduce(ids.take(neighbors, axis=0), axis=0)
            flat[cell_of.take(cheapest, out=assignment[b], mode="clip")] = sentinel
    return np.floor_divide(assignment, n_markets, out=assignment).T


def _tied_rows(ordered: np.ndarray) -> np.ndarray:
    """[T] bool: whether row t of the row-sorted [T, R] array has two equal
    values. The rows are compared as one flat run, each last column's pair
    with the next row dropped: the two-dimensional comparison would copy
    both of its strided operands through buffers."""
    equal = np.empty(ordered.shape, dtype=bool)
    flat = ordered.reshape(-1)
    np.equal(flat[1:], flat[:-1], out=equal.reshape(-1)[:-1])
    equal[:, -1:] = False
    return equal.any(axis=1)


def _assign_per_market(adjacency: np.ndarray, score: np.ndarray, order: np.ndarray) -> np.ndarray:
    """_assign_min_score's T markets, each with its own padded neighbor rows
    and arrival order. The scores are one flat array, market t's from
    t·n_items on, so that each arrival's [T, D] neighbors, offset into it,
    are gathered with one take."""
    n_markets, n_items = score.shape
    scores = score.ravel().copy()  # taken items become inf
    markets = np.arange(n_markets)
    offsets = markets * n_items
    sources = markets % len(adjacency)
    # per market, row k first holds the item of arrival k
    assignment = np.full((order.shape[1], n_markets), -1, dtype=np.intp)
    for arrival, buyers in zip(assignment, order.T):  # market t's arrival in column t
        neighbors = adjacency[sources, buyers]
        neighbors += offsets[:, None]
        gathered = scores.take(neighbors)
        pick = gathered.argmin(axis=1)
        items = neighbors[markets, pick]
        # an unserved market's neighbors all score inf already
        np.subtract(items, offsets, out=arrival, where=gathered[markets, pick] < _INF)
        scores[items] = _INF
    unpermuted = np.empty_like(assignment)
    unpermuted[order.T, markets] = assignment
    return unpermuted.T


def _check_sigma(instance: BipartiteInstance, sigma: ArrivalOrder) -> None:
    if len(sigma) != instance.n_left:
        raise ValueError(f"arrival order has {len(sigma)} entries, expected {instance.n_left}")


def ranking(
    instance: BipartiteInstance, pi: RightPermutation, sigma: ArrivalOrder
) -> Matching:
    """RANKING: process arrivals in sigma order, matching each left vertex to
    its unmatched neighbor with the best (lowest) rank under pi."""
    _check_sigma(instance, sigma)
    if len(pi) != instance.n_right:
        raise ValueError(f"permutation has {len(pi)} entries, expected {instance.n_right}")
    row = _assign_min_score(instance.adjacency, np.array([pi.rank], dtype=float), sigma.order)[0]
    return Matching(tuple(j if j >= 0 else None for j in row.tolist()))


def greedy(instance: BipartiteInstance, sigma: ArrivalOrder) -> Matching:
    """Deterministic greedy: RANKING under the identity ranking, so each
    arrival takes its lowest-index unmatched neighbor. The output is always a
    maximal matching."""
    return ranking(instance, RightPermutation.identity(instance.n_right), sigma)


def maximum_matching(instance: BipartiteInstance) -> Matching:
    """Offline maximum matching via augmenting paths (Kuhn's algorithm).

    Only the cardinality is contractual; when several maximum matchings
    exist, which one is returned is an implementation detail.
    """
    match_right = [-1] * instance.n_right
    match_left: list[int | None] = [None] * instance.n_left
    adjacency = instance.adjacency
    for root in range(instance.n_left):
        visited = [False] * instance.n_right
        # Depth-first search for an augmenting path from root, on an explicit
        # stack so path length is not bounded by the recursion limit:
        # path[d] is the left vertex at depth d and cursor[d] the index of
        # the neighbor it is trying.
        path = [root]
        cursor = [0]
        while path:
            neighbors = adjacency[path[-1]]
            k = cursor[-1]
            while k < len(neighbors) and visited[neighbors[k]]:
                k += 1
            if k == len(neighbors):
                path.pop()
                cursor.pop()
                continue
            cursor[-1] = k
            v = neighbors[k]
            visited[v] = True
            if match_right[v] == -1:
                for u, c in zip(path, cursor):
                    match_right[adjacency[u][c]] = u
                    match_left[u] = adjacency[u][c]
                break
            path.append(match_right[v])
            cursor.append(0)
    return Matching(tuple(match_left))


def _permutations(n: int) -> np.ndarray:
    """The permutations of range(n), in itertools.permutations' order: for
    each first value f, those of range(n - 1) with the values >= f raised."""
    perms = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    return perms


def exact_ranking_expectation(instance: BipartiteInstance, sigma: ArrivalOrder) -> Fraction:
    """Exact expected RANKING matching size over all n_right! permutations,
    as a rational number. Oracle for the Monte Carlo estimators; guarded to
    n_right <= 8."""
    _check_sigma(instance, sigma)
    if instance.n_right > 8:
        raise ValueError("exact enumeration is limited to n_right <= 8")
    # one market per ranking: row p ranks the items as the p-th permutation
    ranks = _permutations(instance.n_right).astype(float)
    # the kernel holds under 6 cells per item: scores, ranks, sorted scores, cell map, ids
    rows = _block_size(instance.n_left + 6 * instance.n_right)
    served = sum(
        np.count_nonzero(_assign_min_score(instance.adjacency, block, sigma.order) >= 0)
        for block in np.split(ranks, range(rows, len(ranks), rows))
    )
    return Fraction(int(served), len(ranks))
