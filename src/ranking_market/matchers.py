"""Matching algorithms: online (RANKING and greedy), the offline
maximum-matching solver, and the exact expected RANKING size of a small
instance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

import numpy as np

from .instance import ArrivalOrder, BipartiteInstance, RightPermutation

_INF = float("inf")

# A block of markets (estimator trials, property tuples, the oracle's
# rankings) holds about this many 8-byte array cells, 2 MiB, whatever the
# instance: see _block_size.
_BLOCK_CELLS = 1 << 18

# Most items of a dense per-market graph that the mask kernel takes: a row
# mask sums distinct powers of two in float64, exact below 2**53.
_MASK_ITEMS = 53


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
    [T, n_left] array, row t market t's arrival order, and market t's graph
    adjacency[t % T'] for T a multiple of T'. That graph is either dense,
    a bool [T', n_left, R] edge matrix (a random property tuple's, R <=
    n_right), or padded neighbor rows, a [T', n_left, D] intp array (a
    fixed instance's, T' = 1), adjacency[t % T', b] buyer b's neighbors in
    ascending order with gaps and tail filled by an item whose score is
    inf in every market. On a shared graph only the order of each market's
    scores matters: the markets run in rank space, one integer min over
    the arrival's neighbor rows per arrival, ranks from one sort of keys
    built from the values and an unserved arrival's cell -T + t (see
    _assign_shared). Dense graphs of at most _MASK_ITEMS items run in bit
    space, one cand & -cand over the block per arrival (_assign_masks);
    larger ones become padded rows, with column R, which must score inf,
    as the padding item. On padded rows, per arrival, argmin over the
    gathered neighbor scores takes the first minimum (the lowest index), a
    minimum below inf is a purchase, and the taken item's score becomes
    inf (_assign_per_market).
    """
    if isinstance(order, np.ndarray) and order.ndim == 2:
        if adjacency.dtype == bool:
            n_items = adjacency.shape[2]
            if n_items <= _MASK_ITEMS:
                return _assign_masks(adjacency, score, order)
            adjacency = np.where(adjacency, np.arange(n_items), n_items)
        return _assign_per_market(adjacency, score, order)
    return _assign_shared(adjacency, score, order, out)


def _kernel_buffers(n_left: int, n_right: int, n_markets: int) -> list[tuple]:
    """(shape, dtype) of _assign_shared's four arrays for a block of
    n_markets: the sorted rank keys, the cell map, the ids in the narrowest
    unsigned dtype that numbers every cell, and the assignment."""
    cells = n_markets * (n_right + 1)
    return [((n_markets, n_right), np.int64), ((n_markets, n_right + 1), np.intp),
            ((n_right + 1, n_markets), np.min_scalar_type(cells)), ((n_left, n_markets), np.intp)]


def _assign_shared(adjacency, score: np.ndarray, order, out=None) -> np.ndarray:
    """_assign_min_score's T markets on one graph and one arrival order, in
    rank space. With R = n_right, item j of market t has the id t·(R+1) + k,
    k its rank in score[t] (ties by index, _rank), until it is taken; an
    item taken or scoring inf has market t's sentinel id t·(R+1) + R
    instead. ids[j, t] holds them in the narrowest unsigned dtype, with a
    row R of sentinels, so an arrival's cheapest available neighbor in
    every market is one min over its neighbors' contiguous rows. cell_of
    maps each id to its cell j·T + t, a sentinel to -T + t: that cell is the
    arrival's purchase and gets the sentinel, wrapping onto row R for an
    unserved arrival. At the end cell // T is the item, -1 an unserved
    arrival.

    The four arrays are out, views of _kernel_buffers' shapes (a run's
    arena: they need not be zeroed), or are allocated afresh."""
    n_markets, n_right = score.shape
    keys, cell_of, ids, assignment = out or [
        np.empty(shape, dtype) for shape, dtype in _kernel_buffers(len(adjacency), n_right, n_markets)
    ]
    any_inf = _rank(score, keys, cell_of)
    np.multiply(keys, n_markets, out=cell_of[:, :n_right])
    cell_of[:, n_right] = -n_markets
    cell_of += np.arange(n_markets)[:, None]
    flat = ids.reshape(-1)
    # id t·(R+1) + k into cell_of[t, k]'s cell: one arange, scattered
    flat[cell_of] = np.arange(cell_of.size, dtype=ids.dtype).reshape(cell_of.shape)
    sentinel = ids[n_right].copy()
    if any_inf:
        np.copyto(ids[:n_right], sentinel, where=(score == _INF).T)
    assignment.fill(-1)
    for b in order:
        if len(neighbors := adjacency[b]):
            cheapest = np.minimum.reduce(ids.take(neighbors, axis=0), axis=0)
            flat[cell_of.take(cheapest, out=assignment[b], mode="clip")] = sentinel
    return np.floor_divide(assignment, n_markets, out=assignment).T


# +inf's bits as an int64, above every finite double's, and those below the sign
_INF_KEY, _BELOW_SIGN = np.float64(_INF).view(np.int64), np.int64(2**63 - 1)


def _rank(score: np.ndarray, keys: np.ndarray, cell_of: np.ndarray) -> bool:
    """Write each row's stable argsort of the [T, R] scores into `keys` [T,
    R] by one in-place int64 sort there; return whether a score is +inf.
    A key is its score's bits (-0.0 made +0.0; a negative score's bits
    below the sign flipped, in a second pass only when a first key is
    negative), whose int64 order is the scores', with the low k = max(1,
    bit_length(R - 1)) bits replaced by its column, so keys & (2**k - 1) is
    the argsort wherever no two neighboring keys agree above those bits.
    Rows where two do (ties and near-ties, but not inf keys, which keep
    column order and become sentinels anyway) are ranked by np.argsort
    (kind="stable") instead. cell_of's memory holds the neighbors' xor."""
    n_right = score.shape[1]
    low = (1 << max(1, (n_right - 1).bit_length())) - 1
    columns = np.arange(n_right)
    for signed in (False, True):
        np.add(score, 0.0, out=keys.view(float))
        if signed:
            np.bitwise_xor(keys, _BELOW_SIGN, out=keys, where=keys < 0)
        keys &= ~low
        keys |= columns
        keys.sort(axis=1)
        if not (keys[:, :1] < 0).any():
            break
    # pairs[t, c]: the xor of row t's keys c and c + 1, all ones past its end
    flat, pairs = keys.reshape(-1), cell_of.reshape(-1)[: keys.size]
    np.bitwise_xor(flat[1:], flat[:-1], out=pairs[:-1])
    pairs.reshape(keys.shape)[:, -1:] = -1
    if any_inf := (keys[:, -1:] >= _INF_KEY).any():
        pairs[flat >= _INF_KEY] = -1
    keys &= low
    if pairs.size and (near := pairs.view(np.uint64)).min() <= low:
        tied = (near.reshape(keys.shape) <= low).any(axis=1)
        keys[tied] = np.argsort(score[tied], axis=1, kind="stable")
    return bool(any_inf)


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


def _assign_masks(edges: np.ndarray, score: np.ndarray, order: np.ndarray) -> np.ndarray:
    """_assign_min_score's T markets on dense graphs of R <= _MASK_ITEMS
    items, in bit space (_arrival_masks). Per arrival, the lowest set bit
    of the arrival's row mask and the available bits is its purchase: cand
    & -cand, then cleared from the available bits. A bit's float exponent
    gives its rank, and the market's argsort the item."""
    ranked, picks = _arrival_masks(edges, score, order)
    n_markets, n_left = order.shape
    available = np.full(n_markets, -1, dtype=np.int64)
    lowest = np.empty_like(available)
    for cand in picks:
        cand &= available
        np.negative(cand, out=lowest)
        cand &= lowest
        available ^= cand
    # 2**k's float exponent field is k + 1023, 0's is 0: column k + 1, or 0
    columns = picks.astype(float).view(np.int64)
    columns >>= 52
    columns -= 1022
    np.maximum(columns, 0, out=columns)
    markets = np.arange(n_markets)
    columns += markets * ranked.shape[1]
    assignment = np.empty((n_markets, n_left), dtype=np.intp)
    assignment.reshape(-1)[order.T + markets * n_left] = ranked.reshape(-1).take(columns)
    return assignment


def _arrival_masks(edges: np.ndarray, score: np.ndarray, order: np.ndarray):
    """For _assign_masks' T markets, market t = c·T' + g on edges[g]: the
    items by rank [T, R + 1] (column k + 1 market t's rank-k item by one
    stable argsort of its scores, column 0 -1) and the row masks [L, T]
    int64 (row k each market's k-th arrival's). The rank-k item is the bit
    2**k, an item scoring inf 0, and buyer b's mask sums its edges' bits:
    one batched float product [T', L, R] @ [T', R, T / T'], exact because
    each partial sum is a sum of distinct powers of two below 2**53."""
    n_markets, n_left = order.shape
    n_graphs, _, n_items = edges.shape
    n_copies = n_markets // n_graphs
    copy, graph = np.divmod(np.arange(n_markets), n_graphs)
    ranked = np.empty((n_markets, n_items + 1), dtype=np.intp)
    ranked[:, 0] = -1
    ranked[:, 1:] = np.argsort(score[:, :n_items], axis=1, kind="stable")
    # bits[g, j, c]: item j's bit in market c·T' + g
    bits = np.empty((n_graphs, n_items, n_copies))
    bits.reshape(-1)[ranked[:, 1:] * n_copies + (graph * n_items * n_copies + copy)[:, None]] = (
        2.0 ** np.arange(n_items))
    bits.transpose(2, 0, 1)[(score[:, :n_items] == _INF).reshape(n_copies, n_graphs, n_items)] = 0.0
    rows = np.matmul(edges.astype(float), bits)
    picks = rows.reshape(-1).take(order.T * n_copies + (graph * n_left * n_copies + copy))
    return ranked, picks.astype(np.int64)


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
    exist, which one is returned is an implementation detail. The search
    stops once min(n_left, n_right) pairs are matched: no augmenting path
    is left then, so the pairs are those the remaining roots would leave.
    On a graph with an edge in at least one cell of 64, whose rows as bit
    masks take no more memory than their tuples' pointers, the search runs
    on the masks (_mask_path) and finds the same paths.
    """
    n_left, n_right = instance.n_left, instance.n_right
    match_right = [-1] * n_right
    match_left: list[int | None] = [None] * n_left
    if 64 * instance.edge_count >= n_left * n_right:
        rows = np.zeros((n_left, n_right), dtype=bool)
        rows[np.repeat(np.arange(n_left), list(map(len, instance.adjacency))),
             np.fromiter(chain.from_iterable(instance.adjacency), np.intp)] = True
        masks = [int.from_bytes(row, "little") for row in np.packbits(rows, axis=1, bitorder="little")]
        search = partial(_mask_path, masks, match_right)
    else:
        search = partial(_scan_path, instance.adjacency, match_right)
    size = 0
    for root in range(n_left):
        if size == min(n_left, n_right):
            break
        path, taken = search(root)
        for u, v in zip(path, taken):
            match_right[v] = u
            match_left[u] = v
        size += bool(taken)
    return Matching(tuple(match_left))


def _scan_path(adjacency, match_right: list[int], root: int) -> tuple[list, list]:
    """Depth-first search from root for an augmenting path: its left
    vertices and the right vertex each takes, or two empty lists. Each left
    vertex tries its unvisited neighbors in order; the stack is explicit so
    path length is not bounded by the recursion limit: path[d] is the left
    vertex at depth d and cursor[d] the index of the neighbor it is trying."""
    visited = [False] * len(match_right)
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
            return path, [adjacency[u][c] for u, c in zip(path, cursor)]
        path.append(match_right[v])
        cursor.append(0)
    return [], []


def _mask_path(masks: list[int], match_right: list[int], root: int) -> tuple[list, list]:
    """_scan_path on rows held as ints whose set bits are the neighbors.
    Rows are increasing and every neighbor before a cursor is visited, so
    the neighbor a scan reaches is the lowest set bit of the row and the
    unvisited bits: a few integer operations instead of a step past each
    visited neighbor, about half a row a step on a dense graph."""
    unvisited = (1 << len(match_right)) - 1
    path, taken = [root], []
    while path:
        free = masks[path[-1]] & unvisited
        if not free:
            path.pop()
            del taken[-1:]
            continue
        unvisited ^= (low := free & -free)
        taken.append(v := low.bit_length() - 1)
        if match_right[v] == -1:
            return path, taken
        path.append(match_right[v])
    return [], []


def _permutations(n: int) -> np.ndarray:
    """The permutations of range(n), in itertools.permutations' order: for
    each first value f, those of range(n - 1) with the values >= f raised."""
    perms = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    return perms


def _ranking_blocks(instance: BipartiteInstance, sigma: ArrivalOrder):
    """The exact oracles' one enumeration: blocks of all n_right! rankings
    in itertools.permutations' order, each a pair of its ranks [P, n_right]
    (row p ranks the items as the p-th permutation, 0 the cheapest) and
    RANKING's assignments [P, n_left] under sigma, from one kernel call.
    Guarded to n_right <= 8; the guard and sigma's check run at the call."""
    _check_sigma(instance, sigma)
    if instance.n_right > 8:
        raise ValueError("exact enumeration is limited to n_right <= 8")
    ranks = _permutations(instance.n_right)
    # the kernel holds under 6 cells per item: scores, ranks, sorted scores, cell map, ids
    rows = _block_size(instance.n_left + 6 * instance.n_right)
    return ((block, _assign_min_score(instance.adjacency, block.astype(float), sigma.order))
            for block in np.split(ranks, range(rows, len(ranks), rows)))


def exact_ranking_expectation(instance: BipartiteInstance, sigma: ArrivalOrder) -> Fraction:
    """Exact expected RANKING matching size over all n_right! permutations,
    as a rational number. Oracle for the Monte Carlo estimators; guarded to
    n_right <= 8."""
    blocks = _ranking_blocks(instance, sigma)
    served = sum(np.count_nonzero(assignment >= 0) for _, assignment in blocks)
    return Fraction(int(served), math.factorial(instance.n_right))


def exact_kvv_matching_size(n: int) -> Fraction:
    """RANKING's exact expected matching size on kvv_hard_instance(n) under
    the identity order, for any n >= 1, as a chain on the pool: the items
    of i..n-1 still available when buyer i arrives. Every such item was a
    neighbour of every earlier buyer and none was preferred, so the pool is
    a uniform subset of its size s. Buyer i is served when s >= 1 and takes
    a uniform member; item i, which no later buyer can take, is then left
    in the pool, unsold for good, with probability (s - 1) / (n - i)."""
    if n < 1:
        raise ValueError("kvv_hard_instance requires n >= 1")
    pool = {n: Fraction(1)}  # the distribution of s
    size = Fraction(0)
    for i in range(n):
        after = {}
        for s, p in pool.items():
            if s == 0:
                after[0] = after.get(0, 0) + p
                continue
            size += p
            stays = Fraction(s - 1, n - i)
            if stays:
                after[s - 2] = after.get(s - 2, 0) + p * stays
            after[s - 1] = after.get(s - 1, 0) + p * (1 - stays)
        pool = after
    return size
