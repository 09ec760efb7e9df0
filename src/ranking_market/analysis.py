"""Experiments over the market process: the per-edge utility+revenue
guarantee, its two supporting pathwise properties, competitive-ratio
estimation, and the uniform-price failure report on the triangular hard
instance. Every market goes through the one block kernel: ``counterfactual``
and the ``check_*`` functions run a tuple's full and reduced markets as a
two-row block and reach their verdicts with the sweep's array checks.

Seeding contract: the randomness of trial t (of an estimator, or tuple t
of the property sweep) is one row of doubles, ``trial_rng(seed, t)
.random(K)``, with K set by the instance or by ``max_side``. It depends only
on (master seed, t), so trials are independent of execution order and every
result is bit-identical for any ``jobs`` setting. ``streams._trial_weights``
draws those rows a block of trials at once, equal to the bit.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate, chain
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .instance import (
    MAX_EDGES,
    ArrivalOrder,
    BipartiteInstance,
    kvv_hard_instance,
    random_bipartite,  # unused here; perfbench's tracer wraps it as analysis.random_bipartite
)
from .matchers import (
    _assign_min_score,
    _block_size,
    _check_sigma,
    _kernel_buffers,
    _MASK_ITEMS,
    _tied_rows,
    maximum_matching,
)
from .market import PriceAssignment, PriceScheme, _check_prices, _price_array, _settle_block
from .streams import _jump_shapes, _seed_limbs, _trial_weights

GUARANTEE = 1.0 - 1.0 / math.e

_IDENTITY_TOL = 1e-9

# Trials are accumulated in fixed-size chunks and chunk totals are added in
# chunk order, so parallel and sequential execution produce identical
# floating-point results.
_CHUNK_TRIALS = 2048

# Auxiliary streams (instance generation, arrival orders) live far above any
# realistic trial index so they never collide with trial_rng streams.
_AUX_BASE = 1 << 62


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial random stream: a deterministic function of (seed, trial).
    This is the reference definition; the estimators draw its weights for a
    block of trials at once with _trial_weights, which equals it to the bit."""
    return np.random.default_rng((seed, trial))


def aux_rng(seed: int, tag: int) -> np.random.Generator:
    """Streams for one-off draws (instances, arrival orders) under the same
    master seed, disjoint from every trial stream."""
    return np.random.default_rng((seed, _AUX_BASE + tag))


def _z(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo mean with a normal-approximation confidence half-width."""

    mean: float
    half_width: float
    trials: int
    seed: int
    level: float = 0.999

    @property
    def stderr(self) -> float:
        return self.half_width / _z(self.level)


def _check_run(trials: int, jobs: int, level: float | None = None, instance=None, sigma=None):
    """Every estimator's first step: bad arguments fail before any setup."""
    if level is not None:
        _z(level)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if sigma is not None:
        _check_sigma(instance, sigma)


def _run_chunks(worker, trials: int, jobs: int) -> list:
    """The column-wise totals of worker(t0, t1) over every chunk of
    _CHUNK_TRIALS trials, each chunk added as it arrives and in chunk order,
    ((c0 + c1) + c2) + ..., so the totals are the same floats for every jobs
    setting and only the running totals and the chunk being added are held.
    With W = min(jobs, chunks, CPUs) > 1, chunk c belongs to share c % W:
    this process runs share 0 and one forked child runs each other share,
    sending each chunk's results through a pipe as it finishes. Every child
    is SIGKILLed and reaped before this returns or raises, so none outlives
    the call and RUSAGE_CHILDREN holds their CPU time. Without os.fork the
    chunks run here; the results are the same either way. A fork copies
    only the calling thread: the package starts no threads, and a caller
    that runs threads of its own should keep jobs at 1."""
    chunks = range(0, trials, _CHUNK_TRIALS)
    workers = min(jobs, len(chunks), os.cpu_count() or 1) if hasattr(os, "fork") else 1

    def run(t0: int):
        return worker(t0, min(t0 + _CHUNK_TRIALS, trials))

    children = {}  # share: (pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, workers):
            children[k] = _fork_share(run, chunks[k::workers])
        parts = (
            _receive(children, c % workers) if c % workers else run(t0)
            for c, t0 in enumerate(chunks)
        )
        # column by column; accumulate lets go of each part once it is
        # added, where reduce would hold the last one while the next is made
        for total in accumulate(parts, lambda total, part: [*map(operator.add, total, part)]):
            pass
        return total
    finally:
        for k in list(children):
            _reap(children, k)


def _fork_share(run, share: range) -> tuple:
    """Fork a child that calls run(t0) for each chunk t0 of `share`, in
    order, and writes one pickled (ok, value) a chunk to a pipe: (True, the
    chunk's results) or, last, (False, the exception it raised). The child
    never returns from here."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for t0 in share:
                    ok, payload = _chunk_payload(run, t0)
                    pipe.write(payload)
                    # unflushed, a chunk would wait in the buffer while the
                    # parent waits for it
                    pipe.flush()
                    if not ok:
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _chunk_payload(run, t0: int) -> tuple[bool, bytes]:
    # any exception, an interrupt too, goes to the parent, which raises it
    try:
        return True, pickle.dumps((True, run(t0)))
    except BaseException as exc:
        try:
            return False, pickle.dumps((False, exc))
        except Exception:
            reason = f"a chunk worker raised {type(exc).__name__}: {exc} (not picklable)"
            return False, pickle.dumps((False, RuntimeError(reason)))


def _receive(children: dict, k: int):
    """The next chunk's results from the child of share k, or raise the
    exception it sent. A child that sends nothing readable is reaped, and
    RuntimeError gives its exit status."""
    pid, pipe = children[k]
    try:
        ok, value = pickle.load(pipe)
    except Exception as exc:
        code = _reap(children, k)
        raise RuntimeError(f"chunk worker {pid} exited with status {code} "
                           f"before sending its next chunk: {exc!r}") from None
    if not ok:
        raise value
    return value


def _reap(children: dict, k: int) -> int:
    """SIGKILL the child of share k (once it has exited, that changes
    nothing), reap it, drop it from `children` and return its exit code."""
    import signal  # here, to keep it out of start-up

    pid, pipe = children.pop(k)
    pipe.close()
    with suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# ---------------------------------------------------------------------------
# Counterfactual item removal and the two pathwise properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterfactualResult:
    """What buyer i would pay with item j removed, next to what actually
    happened to (i, j) in the full market.

    counterfactual_price is 1 when the buyer buys nothing in the reduced
    market; counterfactual_weight is the weight of the fallback item under
    the exponential scheme (1 when there is none, None under uniform prices).
    """

    counterfactual_price: float
    counterfactual_weight: float | None
    item_sold: bool
    buyer_utility: float


class PropertyCheck(NamedTuple):
    sold_if_cheaper: bool
    utility_floor: bool


def _require_edge(instance: BipartiteInstance, buyer: int, item: int) -> None:
    if not 0 <= buyer < instance.n_left or item not in instance.adjacency[buyer]:
        raise ValueError(f"({buyer}, {item}) is not an edge of the instance")


def _markets(instance: BipartiteInstance, pa: PriceAssignment, sigma: ArrivalOrder, item: int):
    """The prices [1, n_right + 1] and the assignments [1, n_left] (-1:
    unserved) of the full market and of the market without `item`, run as
    one two-row block on the instance's graph (_removal_scores). The last
    price, inf, stands for "no sale" in _nested_block; the reduced row
    scores `item` inf too, which the kernel never takes: exactly as if the
    item's edges were gone.
    """
    _check_sigma(instance, sigma)
    _check_prices(instance, pa)
    prices = np.array([[*pa.prices, math.inf]])
    full, reduced = _assign_min_score(
        instance.adjacency, _removal_scores(prices, np.array([item])), sigma.order
    )
    return prices, full[None], reduced[None]


def counterfactual(
    instance: BipartiteInstance,
    pa: PriceAssignment,
    sigma: ArrivalOrder,
    buyer: int,
    item: int,
) -> CounterfactualResult:
    """Run the market without `item` (same prices, same arrival order) and
    record the price of the item `buyer` falls back to, alongside the full
    market's outcome for the (buyer, item) edge."""
    _require_edge(instance, buyer, item)
    prices, full, reduced = _markets(instance, pa, sigma, item)
    block = _counterfactual_block(prices, full, reduced, np.array([buyer]), np.array([item]))
    price, sold, utility = (x.item() for x in block)
    fallback = int(reduced[0, buyer])
    weight = pa.weights[fallback] if fallback >= 0 else 1.0
    return CounterfactualResult(
        counterfactual_price=price,
        counterfactual_weight=weight if pa.scheme is PriceScheme.EXPONENTIAL else None,
        item_sold=sold,
        buyer_utility=utility,
    )


def check_counterfactual_properties(
    instance: BipartiteInstance,
    pa: PriceAssignment,
    sigma: ArrivalOrder,
    buyer: int,
    item: int,
) -> PropertyCheck:
    """The two pathwise facts behind the per-edge guarantee:

    sold_if_cheaper: the item always sells when its price is below the
    buyer's counterfactual price. utility_floor: the buyer's utility in the
    full market is at least 1 minus the counterfactual price.
    """
    _require_edge(instance, buyer, item)
    prices, full, reduced = _markets(instance, pa, sigma, item)
    verdicts = _counterfactual_verdicts(prices, full, reduced, np.array([buyer]), np.array([item]))
    return PropertyCheck(*verdicts[:, 0].tolist())


def check_monotone_availability(
    instance: BipartiteInstance,
    pa: PriceAssignment,
    sigma: ArrivalOrder,
    item: int,
) -> bool:
    """Verify that at every arrival the full market's available set contains
    the available set of the market without `item` and exceeds it by at most
    one item."""
    if not 0 <= item < instance.n_right:
        raise ValueError(f"right vertex {item} out of range")
    prices, full, reduced = _markets(instance, pa, sigma, item)
    orders = np.array(sigma.order, dtype=np.intp)[None]
    return bool(_nested_block(full, reduced, orders, np.array([item]), prices.shape[1])[0])


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _row_sum(x: np.ndarray, total):
    """total + x[0] + x[1] + ..., row after row as a trial-by-trial loop
    adds them; total goes into row 0 of x. numpy reduces a C-ordered [B, k]
    over its rows in order but sums one column pairwise ([B, 1] merges into
    one), so a 1-D or one-column x is accumulated instead."""
    x[0] += total
    if x.ndim == 1 or x.shape[1] == 1:
        return np.add.accumulate(x, axis=0)[-1].copy()
    return np.add.reduce(np.ascontiguousarray(x), axis=0)


def _trial_chunk(simulate, block: int, seed: int, t0: int, t1: int):
    """The sums of x and of x * x over trials t0..t1-1, where x =
    simulate(seed, b0, b1, limbs) is a float array [B] or [B, k] for the
    trials b0..b1-1 of a block of up to `block`: estimator markets
    (_market_block) or property tuples (_property_violations), each in its
    run's _Arena. The chunk's seeded start and inc limbs are hashed here in
    one pass, and each block draws its stream from its slice of them.
    _row_sum adds the rows of x, then those of x * x (squared in place), to
    the running totals one after another, so the sums equal those of a
    trial-by-trial loop to the bit, whatever the block size."""
    limbs = _seed_limbs(seed, t0, t1)
    total = total_sq = 0.0
    for b0 in range(t0, t1, block):
        b1 = min(b0 + block, t1)
        x = simulate(seed, b0, b1, limbs[:, b0 - t0 : b1 - t0])
        first = x[:1].copy()
        total = _row_sum(x, total)
        x[:1] = first
        total_sq = _row_sum(np.multiply(x, x, out=x), total_sq)
    return total, total_sq


def _chunk_cells(trials: int) -> int:
    """Cells a chunk holds while its blocks run, whatever their size: its
    trials' seeded limbs (_seed_limbs), 4 a trial of the chunk. Hashing
    them adds about 5 a trial more (the pool and a temporary over half the
    limbs: tracemalloc reads 8.6 in all a trial at 2048 and 9.2 at 400),
    but before the chunk's first block, when no block stage is live; a
    later chunk's hashing goes past the count only where a block's stages
    add less than that, by at most 80 KiB."""
    return 4 * min(trials, _CHUNK_TRIALS)


def _nbytes(specs) -> int:
    """Bytes that _carve lays out for a list of (shape, dtype)."""
    return sum(-(-math.prod(shape) * np.dtype(dtype).itemsize // 8) * 8 for shape, dtype in specs)


def _carve(memory: np.ndarray, specs, offset: int = 0) -> list[np.ndarray]:
    """Views of the flat uint8 `memory` for each (shape, dtype) of specs,
    one after another from `offset`, each on an 8-byte boundary."""
    views = []
    for shape, dtype in specs:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(memory[offset : offset + size].view(dtype).reshape(shape))
        offset += -(-size // 8) * 8
    return views


class _Arena:
    """One run's block memory in one process. layout(rows) gives, for a
    block of `rows`, the lists of (shape, dtype) laid out over one another
    from the start of one buffer (an array is written only once the arrays
    it overlaps are dead) and the list laid out after them; a block gets
    views of each, in that order.
    The first block a process runs, its largest, allocates the buffer, so a
    forked share touches only its own pages; every later block and chunk
    reuses it. The views are built once a block size, so the shorter last
    block gets its own set. glibc hands a large freed array back to the
    system, so one allocated each block is faulted in again."""

    def __init__(self, layout):
        self.layout, self.memory, self.views = layout, None, {}

    def __call__(self, rows: int) -> tuple:
        if rows not in self.views:
            overlays, own = self.layout(rows)
            shared = max(map(_nbytes, overlays))
            if self.memory is None:
                self.memory = np.empty(shared + _nbytes(own), dtype=np.uint8)
            self.views[rows] = (*(_carve(self.memory, specs) for specs in overlays),
                                *_carve(self.memory, own, shared))
        return self.views[rows]


def _market_layout(n_left: int, n_right: int, width: int, rows: int):
    """An estimator block's arena: the stream's buffers under the kernel's
    (dead once the weights are drawn), then the weights and the prices [B,
    R] and the observer's workspace [2, B, width]."""
    kernel = _kernel_buffers(n_left, n_right, rows)
    own = [((rows, n_right), float)] * 2 + [((2, rows, width), float)]
    return [_jump_shapes(n_right, rows), kernel], own


def _market_block(adjacency, order, n_right, scheme, observe, arena, seed, b0, b1, limbs=None):
    """observe(weights, prices, assignments, out) over the markets of trials
    b0..b1-1. The weights W [B, n_right] come from one _trial_weights call
    on the block's slice of its chunk's limbs, if given (row r is
    trial_rng(seed, t).random(n_right) for its trial t, to the bit), the
    prices P [B, n_right] from the one price rule and the
    assignments A [B, n_left] (-1: unserved) from one kernel call on the
    neighbor lists as index arrays, each written into its views of the
    arena (_market_layout; out is the workspace) or, without one, allocated
    afresh."""
    stream, kernel, w, prices, space = arena(b1 - b0) if arena else (None,) * 5
    w = _trial_weights(seed, b0, b1, n_right, arena and (stream, w), limbs)
    prices = _price_array(w, scheme, prices)
    return observe(w, prices, _assign_min_score(adjacency, prices, order, kernel), out=space)


def _estimate(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    scheme: PriceScheme,
    observe,
    width: int,
    trials: int,
    seed: int,
    jobs: int,
    level: float,
    settles: bool = False,
) -> list[EstimateWithCI]:
    """One estimate for each value the observer returns a trial, read from
    the totals of _trial_chunk over trials 0..trials-1, for any jobs. The
    observer's workspace holds `width` values a trial; `settles` says that
    it settles the block's accounting (_settle_block).

    A trial counts its bytes of the run's arena, its ids at 2 bytes (the
    widest a block of 2**18 cells needs, a trial taking over 4(R + 1)
    cells) unless one market's R + 1 need 4, and the most any stage of a
    block adds to them: the stream's halves of its coarse lo words (2 a
    coarse state) and numpy's iterator buffers for its broadcast fine
    products (2 a double, up to 64 KiB each, so a whole operand in a small
    block); the kernel's buffer for the columns it ORs into its keys, its
    near-tie mask and one arrival's gathered ids; the settled utilities,
    revenues and five arrays over the sales. A block also counts, whatever
    its size, the running totals, the first row and the reduction (4 per
    value), 8 KiB of views and other Python objects, and its chunk's seeded
    limbs (_chunk_cells). tracemalloc over a fresh run of three blocks, the
    arena's allocation included, reads within (3/4 of the count, the count]
    at 2**14, 2**16 and 2**18 cells a block."""
    n_left, n_right = instance.n_left, instance.n_right
    rows = max(1, 0xFFFF // (n_right + 1))
    (stream, kernel), own = _market_layout(n_left, n_right, width, rows)
    s, q, _ = stream[0][0] if stream else (0, 0, 0)
    degree = max(map(len, instance.adjacency), default=0)
    added = max(
        2 * s * q + 2 * q,
        n_right + (n_right + 2 * degree) // 8,
        n_left + n_right + 5 * min(n_left, n_right) if settles else 0,
    )
    cells = -(-(max(_nbytes(stream), _nbytes(kernel)) + _nbytes(own)) // (8 * rows)) + added
    block = _block_size(cells, 4 * width + 1024 + _chunk_cells(trials))
    adjacency = tuple(np.array(neighbors, dtype=np.intp) for neighbors in instance.adjacency)
    arena = _Arena(partial(_market_layout, n_left, n_right, width))
    simulate = partial(_market_block, adjacency, sigma.order, n_right, scheme, observe, arena)
    worker = partial(_trial_chunk, simulate, block, seed)
    totals, squares = (np.atleast_1d(x).tolist() for x in _run_chunks(worker, trials, jobs))
    z = _z(level)
    estimates = []
    for total, total_sq in zip(totals, squares):
        var = (total_sq - total * total / trials) / (trials - 1) if trials > 1 else 0.0
        # clamp: var can go epsilon-negative when the summands are all identical
        half_width = z * math.sqrt(max(0.0, var) / trials)
        estimates.append(EstimateWithCI(total / trials, half_width, trials, seed, level))
    return estimates


# Observers: what each estimator reads off a block of B market runs, given
# the weights [B, n_right], the prices [B, n_right] and the assignments
# [B, n_left] (-1 for an unserved buyer). Each returns a float array, [B] or
# [B, k]. Given out, the run's arena's workspace [2, B, width], an observer
# whose arrays are large (the edge values) builds them there; without it,
# every observer allocates afresh. They are bound with partial into the
# chunk worker, with the arena, which a forked child inherits (_run_chunks):
# nothing about a chunk is pickled on its way out, only its results on
# their way back.


def _edge_values(buyers: np.ndarray, items: np.ndarray, w, prices, assignment, out=None):
    """[B, k]: util_i + rev_j for each edge (buyers[k], items[k]), gathered
    into out[0] and out[1] when out, [2, B, k] with C-ordered planes, is
    given."""
    utils, revs = _settle_block(prices, assignment)
    first, second = (None, None) if out is None else out
    # the edges are checked or the instance's own: mode="raise" would gather
    # into a copy of out first. take gives C-ordered [B, k] rows for _row_sum
    values = utils.take(buyers, axis=1, out=first, mode="clip")
    values += revs.take(items, axis=1, out=second, mode="clip")
    return values


def _matching_size(w, prices, assignment, out=None) -> np.ndarray:
    """[B]: the size of each market's matching."""
    return np.count_nonzero(assignment >= 0, axis=1).astype(float)


def _welfare(buyers: np.ndarray, items: np.ndarray, w, prices, assignment, out=None):
    """[B, 3]: |M|, the sum of util + rev over the given edges, and whether
    |M| fell below that sum. The edge values go into the first B·k cells of
    each plane of out, if given."""
    size = _matching_size(w, prices, assignment)
    if out is not None:
        out = out.reshape(2, -1)[:, : size.size * buyers.size].reshape(2, size.size, -1)
    values = _edge_values(buyers, items, w, prices, assignment, out)
    # in edge order: sum(axis=1) would add a C-ordered row pairwise
    edge_sum = reduce(operator.add, values.T, np.zeros(len(size)))
    return np.stack([size, edge_sum, size < edge_sum - _IDENTITY_TOL], axis=1)


def _last_buyer(adjacency, w, exp_prices, assignment, out=None) -> np.ndarray:
    """[B, 5] on the triangular instance under exponential prices: the last
    edge's util + rev under exponential prices, the same under uniform
    prices, the last buyer is served, the last item is the priciest, served
    without it."""
    last = exp_prices.shape[1] - 1
    uni_prices = _price_array(w, PriceScheme.UNIFORM)
    # np.exp keeps the order of the weights, but rounding can merge two
    # distinct weights into one price. That tie goes to the lower index,
    # while the uniform market takes the lower weight: only then can the
    # two markets differ, so only on those rows is the uniform market run.
    tied = _tied_rows(np.sort(exp_prices, axis=1))
    sale = uni_sale = assignment[:, last], (assignment == last).any(axis=1)
    if tied.any():
        uni_assignment = assignment.copy()
        uni_assignment[tied] = _assign_min_score(adjacency, uni_prices[tied], range(last + 1))
        uni_sale = uni_assignment[:, last], (uni_assignment == last).any(axis=1)
    values = [_last_edge(exp_prices, *sale), _last_edge(uni_prices, *uni_sale)]
    served = sale[0] >= 0
    priciest = w.argmax(axis=1) == last
    return np.stack([*values, served, priciest, served & ~priciest], axis=1).astype(float)


def _last_edge(prices, item, sold) -> np.ndarray:
    """[B]: util + rev of the edge (last buyer, last item), the one cell of
    _edge_values that _last_buyer reads, from the last buyer's item and
    whether the last item is sold, with the same float operations."""
    util = np.where(item >= 0, 1.0 - prices[np.arange(len(item)), item], 0.0)
    util += np.where(sold, prices[:, prices.shape[1] - 1], 0.0)
    return util


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """The buyers and the items of a list of edges, as index arrays."""
    buyers, items = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return buyers, items


def edge_guarantee_sweep(
    instance: BipartiteInstance,
    scheme: PriceScheme | str,
    sigma: ArrivalOrder,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
    edges: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], EstimateWithCI]:
    """Per-edge guarantee estimates for every requested edge (default: all
    edges), sharing one market simulation per trial. An edge's estimate
    does not depend on which other edges are swept with it."""
    _check_run(trials, jobs, level, instance, sigma)
    for buyer, item in edges or ():  # the instance's own edges need no check
        _require_edge(instance, buyer, item)
    edges = list(instance.edges) if edges is None else edges
    if not edges:
        raise ValueError("instance has no edges to sweep")
    observe = partial(_edge_values, *_edge_arrays(edges))
    estimates = _estimate(
        instance, sigma, PriceScheme(scheme), observe, len(edges), trials, seed, jobs, level,
        settles=True,
    )
    return dict(zip(edges, estimates))


def estimate_matching_size(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
) -> EstimateWithCI:
    """Monte Carlo estimate of RANKING's expected matching size, run as the
    exponential-price market with fresh weights per trial."""
    _check_run(trials, jobs, level, instance, sigma)
    (size,) = _estimate(
        instance, sigma, PriceScheme.EXPONENTIAL, _matching_size, 1, trials, seed, jobs, level
    )
    return size


def estimate_competitive_ratio(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
) -> tuple[EstimateWithCI, int]:
    """Estimate of RANKING's E[|M|] / |M*|, returned together with the
    offline optimum |M*|."""
    _check_run(trials, jobs, level, instance, sigma)
    optimum = maximum_matching(instance).size
    if optimum == 0:
        raise ValueError("competitive ratio is undefined on an instance with optimum 0")
    sizes = estimate_matching_size(instance, sigma, trials, seed, level=level, jobs=jobs)
    ratio = replace(sizes, mean=sizes.mean / optimum, half_width=sizes.half_width / optimum)
    return ratio, optimum


# ---------------------------------------------------------------------------
# The welfare chain and the uniform-price failure report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WelfareBound:
    """Links of the chain E[|M|] >= sum over M* edges of E[util+rev]
    >= (1 - 1/e) |M*|, estimated from shared trials.

    pointwise_violations counts trials where |M| fell below the per-edge sum
    (never happens: utilities and revenues are non-negative and M* is a
    matching).
    """

    matching_size: EstimateWithCI
    matched_edge_sum: EstimateWithCI
    lower_bound: float
    optimum: int
    pointwise_violations: int


def check_welfare_bound(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
) -> WelfareBound:
    """Estimate E[|M|] under exponential prices next to the per-M*-edge sum
    of util+rev and the (1 - 1/e)|M*| lower bound."""
    _check_run(trials, jobs, level, instance, sigma)
    optimum_pairs = maximum_matching(instance).pairs
    observe = partial(_welfare, *_edge_arrays(optimum_pairs))
    width = 3 + len(optimum_pairs)  # it holds M*'s edge values until it sums them
    size, edge_sum, below = _estimate(
        instance, sigma, PriceScheme.EXPONENTIAL, observe, width, trials, seed, jobs, level,
        settles=True,
    )
    return WelfareBound(
        matching_size=size,
        matched_edge_sum=edge_sum,
        lower_bound=GUARANTEE * len(optimum_pairs),
        optimum=len(optimum_pairs),
        pointwise_violations=round(below.mean * trials),  # exact below 2**51 trials
    )


@dataclass(frozen=True)
class LastBuyerReport:
    """The triangular hard instance's last buyer, whose single edge is the
    stress case for the per-edge guarantee.

    exponential/uniform estimate E[util + rev] for that edge under each price
    scheme. service_probability is how often the last buyer gets an item at
    all: that requires the full price vector to be sorted ascending, an event
    of probability 1/n!, so it is essentially never at realistic n. The
    tractable necessary condition is that the last item is the priciest;
    priciest_last_probability measures that event, whose probability is
    exactly reference_probability = 1/n. service_without_priciest counts
    trials violating the necessity (always 0).
    """

    n: int
    trials: int
    seed: int
    level: float
    exponential: EstimateWithCI
    uniform: EstimateWithCI
    service_probability: EstimateWithCI
    priciest_last_probability: EstimateWithCI
    service_without_priciest: int
    reference_probability: float


def last_buyer_report(
    n: int,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
) -> LastBuyerReport:
    """Measure the last buyer's edge of the triangular instance under both
    price schemes, plus the service and priciest-last-item probabilities.

    Each trial runs one market and does the accounting under both schemes.
    The exponential estimate meets the 1 - 1/e bound; the uniform estimate
    sits near 1/2, which is the whole point of the exponential price curve.
    """
    _check_run(trials, jobs, level)
    if n < 2:
        raise ValueError("the report needs n >= 2")
    instance = kvv_hard_instance(n)
    observe = partial(_last_buyer, instance.adjacency)
    exponential, uniform, served, priciest, bad = _estimate(
        instance, ArrivalOrder.identity(n), PriceScheme.EXPONENTIAL, observe, 5,
        trials, seed, jobs, level,
    )
    return LastBuyerReport(
        n=n,
        trials=trials,
        seed=seed,
        level=level,
        exponential=exponential,
        uniform=uniform,
        service_probability=served,
        priciest_last_probability=priciest,
        service_without_priciest=round(bad.mean * trials),  # exact below 2**51 trials
        reference_probability=1.0 / n,
    )


# ---------------------------------------------------------------------------
# Randomized property sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertySweep:
    trials: int
    seed: int
    sold_if_cheaper_violations: int
    utility_floor_violations: int
    monotone_violations: int

    @property
    def violations(self) -> int:
        return (
            self.sold_if_cheaper_violations
            + self.utility_floor_violations
            + self.monotone_violations
        )

    @property
    def passed(self) -> bool:
        return self.violations == 0


# Most cells of a fixed instance's padded neighbor rows, n_left times the
# largest degree: every kvv_hard_instance and random_bipartite instance fits
# (at most n**2 <= 2 * MAX_EDGES), and so does any file whose degrees are
# not too skewed (a 10**6-vertex chain takes 2 * 10**6).
_MAX_ROW_CELLS = 4 * MAX_EDGES


def _tuple_layout(doubles: int, rows: int):
    """A property block's arena: the stream's buffers and, over the first
    (s·q >= doubles cells a row, dead once the rows are written), the
    block's rows of doubles [B, doubles]."""
    return [_jump_shapes(doubles, rows), [((rows, doubles), float)]], []


def _tuple_cells(n_left: int, n_right: int, width: int, doubles: int, own_rows: bool) -> int:
    """Array cells one tuple adds to a block: its row of `doubles` and jump
    buffers in the run's arena (_tuple_layout), then the most either stage
    adds to them: the stream's halves of words and iterator buffers, as
    _estimate counts them; or the tuple's two markets. On shared padded
    rows (a fixed instance) those are their scores, assignments and
    per-arrival arrays. A random tuple's graph is its own edges [L, R],
    one byte a cell: up to _MASK_ITEMS items the mask kernel adds their
    float copy for its product and its masks, picks and decode, 8 cells a
    vertex and 24 a tuple (tracemalloc over a block of 300 reads 0.85-0.97
    of this at sides 1 to 53); above that, the padded neighbor rows built
    from them."""
    (stream, u), _ = _tuple_layout(doubles, 1)
    s, q, _ = stream[0][0] if stream else (0, 0, 0)
    markets = 8 * (n_left + n_right + width)
    if own_rows:
        edges = -(-n_left * n_right // 8)
        if width <= _MASK_ITEMS:
            markets = 8 * (n_left + n_right) + 24 + n_left * n_right + edges
        else:
            markets += n_left * width + edges
    return max(_nbytes(stream), _nbytes(u)) // 8 + max(2 * s * q + 2 * q, markets)


def _instance_rows(instance: BipartiteInstance):
    """A fixed instance in a block's form: its neighbor rows [1, L, max
    degree], padded with the padding item n_right and shared by every market
    of a block, and its edges in row-major order as buyer and item arrays."""
    adjacency = instance.adjacency
    degrees = np.fromiter(map(len, adjacency), dtype=np.intp, count=instance.n_left)
    buyers = np.repeat(np.arange(instance.n_left), degrees)
    items = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp, count=len(buyers))
    # an edge's place in its buyer's row
    places = np.arange(len(items)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    rows = np.full((1, instance.n_left, degrees.max()), instance.n_right, dtype=np.intp)
    rows[0, buyers, places] = items
    return rows, buyers, items


def _random_tuples(max_side: int, seed: int, t0: int, t1: int, arena=None, limbs=None):
    """Random property tuples t0..t1-1 in block form, padded to the block's
    largest sides L and R: the graphs as bool edges [B, L, R], which the
    kernel takes as they are (_assign_min_score), the arrival orders [B,
    L], the weights [B, R] and the tuples' buyers and items.

    Tuple t is a function of u = trial_rng(seed, t).random(K), m = max_side:
    sides n_left = floor(u0·m) + 1 and n_right = floor(u1·m) + 1, edge
    probability p = 0.2 + 0.7·u2 and the checked edge (floor(u3·n_left),
    floor(u4·n_right)), always an edge; the order is the stable argsort of
    the next m keys, those of padding buyers set to 2 so that they arrive
    last; the next m doubles are the weights, 0 past n_right; the last m**2
    are the coins of an [m, m] frame, an edge where below p inside the
    graph. Every (graph with an edge, edge of it) pair has positive
    probability. The stream writes u into its views of the run's arena
    (_tuple_layout), if given, from the block's slice of its chunk's seeded
    limbs, if given.
    """
    stream, (u,) = arena(t1 - t0) if arena else (None, (None,))
    doubles = 5 + 2 * max_side + max_side * max_side
    u = _trial_weights(seed, t0, t1, doubles, arena and (stream, u), limbs)
    n_left, n_right = (u[:, :2] * max_side).astype(np.intp).T + 1
    buyers = (u[:, 3] * n_left).astype(np.intp)
    items = (u[:, 4] * n_right).astype(np.intp)
    size_l, size_r = int(n_left.max()), int(n_right.max())
    in_l = np.arange(size_l) < n_left[:, None]
    in_r = np.arange(size_r) < n_right[:, None]
    keys = np.where(in_l, u[:, 5 : 5 + size_l], 2.0)
    weights = np.where(in_r, u[:, 5 + max_side : 5 + max_side + size_r], 0.0)
    coins = u[:, 5 + 2 * max_side :].reshape(-1, max_side, max_side)[:, :size_l, :size_r]
    edges = coins < (0.2 + 0.7 * u[:, 2])[:, None, None]
    edges &= in_l[:, :, None] & in_r[:, None, :]
    edges[np.arange(len(u)), buyers, items] = True
    return edges, np.argsort(keys, axis=1, kind="stable"), weights, buyers, items


def _fixed_tuples(rows, edge_buyers, edge_items, n_right: int, seed: int, t0: int, t1: int,
                  arena=None, limbs=None):
    """Tuples t0..t1-1 of a sweep on a fixed instance, in _random_tuples'
    block form. Tuple t is a function of u = trial_rng(seed, t).random(1 +
    L + R): its edge is number floor(u0·E) of the E edges in row-major
    order, its arrival order the stable argsort of the next L doubles and
    its weights the last R; u is drawn into the run's arena as in
    _random_tuples."""
    n_left = rows.shape[1]
    stream, (u,) = arena(t1 - t0) if arena else (None, (None,))
    u = _trial_weights(seed, t0, t1, 1 + n_left + n_right, arena and (stream, u), limbs)
    picks = (u[:, 0] * len(edge_items)).astype(np.intp)
    orders = np.argsort(u[:, 1 : 1 + n_left], axis=1, kind="stable")
    return rows, orders, u[:, 1 + n_left :], edge_buyers[picks], edge_items[picks]


def _removal_scores(prices: np.ndarray, items: np.ndarray) -> np.ndarray:
    """[2B, R]: the block's full markets, then the same markets with each
    tuple's item scored inf, which the kernel never takes: the markets
    without that item."""
    reduced = prices.copy()
    reduced[np.arange(len(items)), items] = math.inf
    return np.concatenate([prices, reduced])


def _counterfactual_block(prices, full, reduced, buyers, items):
    """Per tuple of a block, given its prices [B, R + 1] and its full and
    reduced markets' assignments [B, L]: the counterfactual price (1 when
    the buyer buys nothing in the reduced market), whether the item sells in
    the full market and the buyer's utility there."""
    rows = np.arange(len(items))
    fallback = reduced[rows, buyers]
    bought = full[rows, buyers]
    cf_price = np.where(fallback >= 0, prices[rows, fallback], 1.0)
    item_sold = (full == items[:, None]).any(axis=1)
    utility = np.where(bought >= 0, 1.0 - prices[rows, bought], 0.0)
    return cf_price, item_sold, utility


def _counterfactual_verdicts(prices, full, reduced, buyers, items) -> np.ndarray:
    """[2, B] bool: whether sold_if_cheaper and utility_floor hold for each
    tuple of a block (arguments as for _counterfactual_block)."""
    cf_price, item_sold, utility = _counterfactual_block(prices, full, reduced, buyers, items)
    return np.stack([
        (prices[np.arange(len(items)), items] >= cf_price) | item_sold,
        utility >= 1.0 - cf_price,
    ])


def _nested_block(full, reduced, orders, items, n_items: int) -> np.ndarray:
    """[B] bool: whether, after every arrival of each tuple's order [B, L],
    the full market's available set contains the reduced market's with at
    most one item to spare; n_items is R + 1. The sold sets only grow,
    so the reduced market's (which holds the removed item from the start)
    contains the full market's after every arrival exactly when each item
    the full market sells at arrival k is held by the reduced market by
    arrival k; and it has at most one item to spare exactly when, after
    every arrival, the reduced market has sold no more other items than the
    full market has sold items."""
    rows = np.arange(len(items))[:, None]
    arrivals = np.arange(orders.shape[1])
    full_steps = full[rows, orders]  # [B, L]: the item arrival k buys, or -1
    reduced_steps = reduced[rows, orders]
    grown = np.cumsum((reduced_steps >= 0) & (reduced_steps != items[:, None]), axis=1)
    sizes = (grown <= np.cumsum(full_steps >= 0, axis=1)).all(axis=1)
    # the arrival by which the reduced market holds each item (-1: from the
    # start, L: never); the last column, the padding item, stands for "no
    # sale", which every market holds
    held = np.full((len(items), n_items), len(arrivals))
    held[rows, reduced_steps] = arrivals
    held[rows[:, 0], items] = -1
    held[:, -1] = -1
    return sizes & (held[rows, full_steps] <= arrivals).all(axis=1)


def _property_block(graphs, orders, weights, buyers, items) -> np.ndarray:
    """[3, B] bool: whether sold_if_cheaper, utility_floor and monotone
    availability hold for each of a block of B tuples under exponential
    prices, given the graphs (a random block's edges [B, L, R] or a fixed
    instance's neighbor rows [1, L, D] padded with the item R), the
    arrival orders [B, L], the weights [B, R] and the tuples' buyers and
    items. Both markets of every tuple go through one kernel call, sharing
    the tuple's graph; check_counterfactual_properties and
    check_monotone_availability reach the same verdicts for one tuple."""
    n_tuples, n_right = weights.shape
    prices = np.full((n_tuples, n_right + 1), math.inf)  # the padding item scores inf
    prices[:, :n_right] = _price_array(weights, PriceScheme.EXPONENTIAL)
    assignment = _assign_min_score(
        graphs, _removal_scores(prices, items), np.concatenate([orders, orders])
    )
    full, reduced = assignment[:n_tuples], assignment[n_tuples:]
    return np.vstack([
        _counterfactual_verdicts(prices, full, reduced, buyers, items),
        _nested_block(full, reduced, orders, items, n_right + 1),
    ])


def _property_violations(tuples, arena, seed: int, b0: int, b1: int, limbs=None) -> np.ndarray:
    """[B, 3]: 1.0 where a tuple of b0..b1-1, drawn by tuples(seed, b0, b1,
    arena, limbs), violates sold_if_cheaper, utility_floor or monotone
    availability, else 0.0."""
    return np.logical_not(_property_block(*tuples(seed, b0, b1, arena, limbs)).T).astype(float)


def _property_chunk(tuples, arena, block: int, seed: int, t0: int, t1: int):
    """The totals of _trial_chunk over the violation indicators of tuples
    t0..t1-1 in blocks of up to `block`: each total is a count."""
    return _trial_chunk(partial(_property_violations, tuples, arena), block, seed, t0, t1)


def property_sweep(
    trials: int,
    seed: int,
    *,
    instance: BipartiteInstance | None = None,
    max_side: int = 10,
    jobs: int = 1,
) -> PropertySweep:
    """Check the two counterfactual properties and monotone availability on
    random (instance, weights, arrival order, edge) tuples.

    With a fixed instance, only weights, arrival order, and the edge vary;
    otherwise each trial draws a fresh random instance with sides up to
    max_side. All three are theorems, so any violation is a bug.
    """
    _check_run(trials, jobs)
    if not 1 <= max_side <= math.isqrt(MAX_EDGES):
        raise ValueError(
            f"max_side must lie in [1, {math.isqrt(MAX_EDGES)}] (max_side**2 <= "
            f"MAX_EDGES = {MAX_EDGES}), got {max_side}"
        )
    if instance is not None:
        if instance.edge_count == 0:
            raise ValueError("property sweep needs an instance with at least one edge")
        cells = instance.n_left * max(map(len, instance.adjacency))
        if cells > _MAX_ROW_CELLS:
            raise ValueError(
                f"property sweep pads every buyer's neighbors to the largest degree: "
                f"{cells} cells exceed {_MAX_ROW_CELLS}"
            )
    # Tuple t is one row of doubles from trial_rng(seed, t): a random graph
    # (_random_tuples) or the fixed instance's (_fixed_tuples) arrival order,
    # weights and edge. A block's rows are one _trial_weights call into the
    # run's arena, and its tuples are checked at once (_property_block):
    # hundreds of tiny random graphs, or as few as one tuple of a large
    # instance. A block also counts what _estimate counts for three values
    # whatever its size, its chunk's seeded limbs and a fixed instance's
    # rows and edges.
    fixed = 4 * 3 + 1024 + _chunk_cells(trials)
    if instance is None:
        n_left = n_right = width = max_side
        doubles = 5 + 2 * max_side + max_side * max_side
        tuples = partial(_random_tuples, max_side)
    else:
        rows, edge_buyers, edge_items = _instance_rows(instance)
        n_left, n_right, width = instance.n_left, instance.n_right, rows.shape[2]
        doubles = 1 + n_left + n_right
        tuples = partial(_fixed_tuples, rows, edge_buyers, edge_items, n_right)
        fixed += rows.size + 2 * edge_items.size
    block = _block_size(_tuple_cells(n_left, n_right, width, doubles, instance is None), fixed)
    arena = _Arena(partial(_tuple_layout, doubles))
    worker = partial(_property_chunk, tuples, arena, block, seed)
    totals, _ = _run_chunks(worker, trials, jobs)
    p1, p2, mono = (round(count) for count in totals.tolist())  # exact below 2**53 tuples
    return PropertySweep(
        trials=trials,
        seed=seed,
        sold_if_cheaper_violations=p1,
        utility_floor_violations=p2,
        monotone_violations=mono,
    )
