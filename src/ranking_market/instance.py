"""Bipartite instances, generators, and the line-oriented interchange format.

Left vertices are buyers, right vertices are items; both sides are 0-indexed.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest side size `parse` accepts. An instance costs memory per vertex
# (a neighbour set per left vertex, a flag per right vertex in every
# market run), so a two-number header alone could otherwise ask for
# unbounded memory. A million per side leaves room for long chains.
MAX_SIDE = 1_000_000

# Most potential edges a generator builds: n(n+1)/2 for kvv_hard_instance(n),
# n_left * n_right for random_bipartite. Sizes come from the command line and
# kvv_hard_instance(2000) already takes ~75 MB, so larger fails up front.
MAX_EDGES = 2_000_000


@dataclass(frozen=True)
class BipartiteInstance:
    """A bipartite graph stored as per-left-vertex adjacency lists.

    Adjacency lists are strictly increasing tuples of right-vertex indices,
    so equality of instances is plain structural equality.
    """

    n_left: int
    n_right: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("side sizes must be non-negative")
        if len(self.adjacency) != self.n_left:
            raise ValueError(
                f"adjacency has {len(self.adjacency)} rows, expected {self.n_left}"
            )
        for i, neighbors in enumerate(self.adjacency):
            for a, b in zip(neighbors, neighbors[1:]):
                if a >= b:
                    raise ValueError(f"adjacency of left vertex {i} is not strictly increasing")
            if neighbors and (neighbors[0] < 0 or neighbors[-1] >= self.n_right):
                raise ValueError(f"adjacency of left vertex {i} has an index out of range")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n_left) for j in self.adjacency[i])

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency)


@dataclass(frozen=True)
class ArrivalOrder:
    """Order in which left vertices arrive; position k holds the k-th arrival."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("arrival order is not a permutation of the left vertices")

    def __len__(self) -> int:
        return len(self.order)

    @classmethod
    def identity(cls, n: int) -> "ArrivalOrder":
        return cls(tuple(range(n)))

    @classmethod
    def reversed(cls, n: int) -> "ArrivalOrder":
        return cls(tuple(range(n - 1, -1, -1)))

    @classmethod
    def random(cls, n: int, seed) -> "ArrivalOrder":
        rng = np.random.default_rng(seed)
        return cls(tuple(int(x) for x in rng.permutation(n)))


@dataclass(frozen=True)
class RightPermutation:
    """Priority ranking of right vertices: rank[j] is the rank value of
    vertex j, and a lower rank value means higher priority."""

    rank: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.rank) != list(range(len(self.rank))):
            raise ValueError("rank vector is not a permutation of the right vertices")

    def __len__(self) -> int:
        return len(self.rank)

    @classmethod
    def identity(cls, n: int) -> "RightPermutation":
        return cls(tuple(range(n)))

    @classmethod
    def random(cls, n: int, seed) -> "RightPermutation":
        rng = np.random.default_rng(seed)
        return cls(tuple(int(x) for x in rng.permutation(n)))


def make_instance(
    n_left: int, n_right: int, edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]
) -> BipartiteInstance:
    """Build an instance from an edge list.

    Duplicate edges are silently dropped (the edge set is a set); an
    out-of-range endpoint raises ValueError naming the offending pair.
    """
    neighbor_sets: list[set[int]] = [set() for _ in range(n_left)]
    for i, j in edges:
        if not (0 <= i < n_left) or not (0 <= j < n_right):
            raise ValueError(f"edge ({i}, {j}) is out of range for a {n_left}x{n_right} instance")
        neighbor_sets[i].add(j)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return BipartiteInstance(n_left=n_left, n_right=n_right, adjacency=adjacency)


def kvv_hard_instance(n: int) -> BipartiteInstance:
    """The upper-triangular hard instance for RANKING (the KVV family).

    Left vertex i is adjacent to right vertices i, i+1, ..., n-1, so the
    last-arriving buyer under the identity order has a single neighbor.
    """
    if n < 1:
        raise ValueError("kvv_hard_instance requires n >= 1")
    if n * (n + 1) // 2 > MAX_EDGES:
        raise ValueError(f"kvv_hard_instance({n}) edges exceed MAX_EDGES = {MAX_EDGES}")
    adjacency = tuple(tuple(range(i, n)) for i in range(n))
    return BipartiteInstance(n_left=n, n_right=n, adjacency=adjacency)


def random_bipartite(n_left: int, n_right: int, edge_prob: float, seed) -> BipartiteInstance:
    """Each of the n_left * n_right potential edges is included independently
    with probability edge_prob. Deterministic given the seed."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    if n_left * n_right > MAX_EDGES:
        raise ValueError(f"{n_left}x{n_right} potential edges exceed MAX_EDGES = {MAX_EDGES}")
    rng = np.random.default_rng(seed)
    coins = rng.random((n_left, n_right)) < edge_prob
    adjacency = tuple(tuple(int(j) for j in np.flatnonzero(coins[i])) for i in range(n_left))
    return BipartiteInstance(n_left=n_left, n_right=n_right, adjacency=adjacency)


def serialize(instance: BipartiteInstance) -> str:
    """Render an instance in the interchange format.

    Format: first line ``n_left n_right``; one line ``i j`` per edge
    (0-based); ``#`` starts a comment line; blank lines are ignored.
    """
    lines = [f"{instance.n_left} {instance.n_right}"]
    for i in range(instance.n_left):
        for j in instance.adjacency[i]:
            lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> BipartiteInstance:
    """Parse the interchange format; malformed input, and a header with a side
    larger than MAX_SIDE, raise ValueError with the 1-based line number."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: side sizes must be non-negative")
            if a > MAX_SIDE or b > MAX_SIDE:
                raise ValueError(f"line {lineno}: side sizes must be at most {MAX_SIDE}")
            header = (a, b)
        else:
            if not (0 <= a < header[0]) or not (0 <= b < header[1]):
                raise ValueError(
                    f"line {lineno}: edge ({a}, {b}) out of range for a "
                    f"{header[0]}x{header[1]} instance"
                )
            edges.append((a, b))
    if header is None:
        raise ValueError("line 1: missing header line 'n_left n_right'")
    return make_instance(header[0], header[1], edges)
