"""Experiments over the market process: the per-edge utility+revenue
guarantee, its two supporting pathwise properties, competitive-ratio
estimation, and the uniform-price failure report on the triangular hard
instance. Every market goes through the one block kernel: ``counterfactual``
and the ``check_*`` functions run a tuple's full and reduced markets as a
two-row block and reach their verdicts with the sweep's array checks.

Seeding contract: trial t of any estimator draws all of its randomness from
``trial_rng(seed, t)``, a deterministic function of (master seed, trial
index). Trials are therefore independent of execution order, and every
estimator returns bit-identical results for any ``jobs`` setting. No
estimator builds those Generators one by one; each reproduces their draws
to the bit. The Monte Carlo estimators draw a block of trials' weights at
once with ``streams._trial_weights``: row r is
``trial_rng(seed, t0 + r).random(n)``. The property sweep's random tuples,
which draw graphs, orders and edges of varying sizes, are decoded from the
raw PCG64 outputs of a Generator in the state ``trial_rng(seed, t)``
starts in (``streams._random_tuples``: one ``random_raw`` call per tuple,
the draws reproduced for the whole block with array operations). On a
fixed instance, tuple t's draws are made by such a Generator itself
(``streams._trial_generators``).
"""

from __future__ import annotations

import math
import operator
import os
import pickle
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import chain
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
from .matchers import _assign_min_score, _block_size, _check_sigma, maximum_matching
from .market import PriceAssignment, PriceScheme, _check_prices, _price_array, _settle_block
from .streams import _random_tuples, _trial_generators, _trial_weights, _tuple_outputs

GUARANTEE = 1.0 - 1.0 / math.e

_IDENTITY_TOL = 1e-9

# Trials are accumulated in fixed-size blocks and block partials are combined
# in block order, so parallel and sequential execution produce identical
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


def _finish(total: float, total_sq: float, trials: int, seed: int, level: float) -> EstimateWithCI:
    mean = total / trials
    if trials > 1:
        # clamp: total_sq - total^2/trials can go epsilon-negative when the
        # summands are all identical
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
        half_width = _z(level) * math.sqrt(var / trials)
    else:
        half_width = 0.0
    return EstimateWithCI(
        mean=mean, half_width=half_width, trials=trials, seed=seed, level=level
    )


def _check_run(trials: int, jobs: int, level: float | None = None) -> None:
    """Every estimator's first step: bad arguments fail before any setup."""
    if level is not None:
        _z(level)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _run_chunks(worker, trials: int, jobs: int) -> list:
    """worker(t0, t1) for every chunk of _CHUNK_TRIALS trials, in chunk
    order. With W = min(jobs, chunks, CPUs) > 1, share k is every W-th chunk
    from chunk k: this process runs share 0 and one forked child runs each
    other share, sending its results back through a pipe. Every child is
    reaped before this returns or raises (SIGKILLed first on an error or
    interrupt here), so none outlives the call and RUSAGE_CHILDREN holds
    their CPU time. Without os.fork the chunks run here; the results are the
    same either way. A fork copies only the calling thread: the package
    starts no threads, and a caller that runs threads of its own should
    keep jobs at 1."""
    spans = [(t0, min(t0 + _CHUNK_TRIALS, trials)) for t0 in range(0, trials, _CHUNK_TRIALS)]
    workers = min(jobs, len(spans), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(t0, t1) for t0, t1 in spans]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, workers):
            children.append(_fork_share(worker, spans[k::workers]))
        shares = [[worker(t0, t1) for t0, t1 in spans[::workers]]]
        while children:
            shares.append(_receive_share(children))
    finally:
        _kill(children)
    parts = [None] * len(spans)
    for k, share in enumerate(shares):
        parts[k::workers] = share
    return parts


def _fork_share(worker, share: list) -> tuple:
    """Fork a child that runs worker over the spans of `share` and writes one
    pickled (ok, value) to a pipe: (True, its results) or (False, the
    exception it raised). The child never returns from here."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            payload = _share_payload(worker, share)
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _share_payload(worker, share: list) -> bytes:
    # any exception, an interrupt too, goes to the parent, which raises it
    try:
        return pickle.dumps((True, [worker(t0, t1) for t0, t1 in share]))
    except BaseException as exc:
        try:
            return pickle.dumps((False, exc))
        except Exception:
            reason = f"a chunk worker raised {type(exc).__name__}: {exc} (not picklable)"
            return pickle.dumps((False, RuntimeError(reason)))


def _receive_share(children: list) -> list:
    """Read the first child's payload to EOF, reap it, drop it from
    `children` and return its results, or raise the exception it sent.
    A payload that is missing or cannot be read, or a nonzero exit status,
    raises RuntimeError."""
    pid, pipe = children[0]
    with pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    children.pop(0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        raise RuntimeError(f"chunk worker {pid} exited with status {code} "
                           f"after sending {len(payload)} bytes")
    try:
        ok, value = pickle.loads(payload)
    except Exception as exc:
        raise RuntimeError(f"chunk worker {pid} sent an unreadable result: {exc!r}") from None
    if not ok:
        raise value
    return value


def _kill(children: list) -> None:
    """SIGKILL and reap every child in `children`."""
    if not children:
        return
    import signal  # only on this error path, to keep it out of start-up

    for pid, pipe in children:
        pipe.close()
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)
    children.clear()


def _combine(parts: list) -> list:
    """Column-wise totals of the chunk results, added in chunk order, so the
    floating-point totals are the same for every jobs setting."""
    return [reduce(operator.add, column) for column in zip(*parts)]


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


def _trial_chunk(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    scheme: PriceScheme,
    observe,
    block: int,
    seed: int,
    t0: int,
    t1: int,
):
    """Run one market per trial t0..t1-1 and return the sums of
    x = observe(weights, prices, assignments) and of x * x, added in trial
    order.

    Trials run in blocks of up to `block`. A block's weights W [B, n_right]
    come from one _trial_weights call (row r is
    trial_rng(seed, t).random(n_right) for its trial t, to the bit), its
    prices P [B, n_right] from the one price rule and its assignments
    A [B, n_left] (-1: unserved) from one kernel call. x is [B] or [B, k].
    _row_sum adds its rows, then those of x * x (squared in place), to the
    running totals one after another, so the sums equal those of a
    trial-by-trial loop to the bit, whatever the block size.
    """
    adjacency = tuple(np.array(neighbors, dtype=np.intp) for neighbors in instance.adjacency)
    order, n_right = sigma.order, instance.n_right
    total = total_sq = 0.0
    for b0 in range(t0, t1, block):
        w = _trial_weights(seed, b0, min(b0 + block, t1), n_right)
        prices = _price_array(w, scheme)
        x = observe(w, prices, _assign_min_score(adjacency, prices, order))
        first = x[:1].copy()
        total = _row_sum(x, total)
        x[:1] = first
        total_sq = _row_sum(np.multiply(x, x, out=x), total_sq)
    return total, total_sq


def _estimate(
    instance: BipartiteInstance,
    sigma: ArrivalOrder,
    scheme: PriceScheme,
    observe,
    width: int,
    trials: int,
    seed: int,
    jobs: int,
):
    """The totals of _trial_chunk over trials 0..trials-1, for any jobs, for
    an observer of `width` values a trial. A trial holds about 8 cells per
    item (the stream's temporaries), 2 per buyer (assignment and utility)
    and 2 per value (the observer's output and the temporary it is built
    with)."""
    cells = 8 * instance.n_right + 2 * instance.n_left + 2 * width
    worker = partial(_trial_chunk, instance, sigma, scheme, observe, _block_size(cells), seed)
    return _combine(_run_chunks(worker, trials, jobs))


# Observers: what each estimator reads off a block of B market runs, given
# the weights [B, n_right], the prices [B, n_right] and the assignments
# [B, n_left] (-1 for an unserved buyer). Each returns a float array, [B] or
# [B, k]. They are bound with partial into the chunk worker, which a forked
# child inherits (_run_chunks): nothing about a chunk is pickled on its way
# out, only its results on their way back.


def _edge_values(buyers: np.ndarray, items: np.ndarray, w, prices, assignment) -> np.ndarray:
    """[B, k]: util_i + rev_j for each edge (buyers[k], items[k])."""
    utils, revs = _settle_block(prices, assignment)
    # take gives C-ordered [B, k] arrays, whose rows _row_sum adds in order
    values = utils.take(buyers, axis=1)
    values += revs.take(items, axis=1)
    return values


def _matching_size(w, prices, assignment) -> np.ndarray:
    """[B]: the size of each market's matching."""
    return np.count_nonzero(assignment >= 0, axis=1).astype(float)


def _welfare(buyers: np.ndarray, items: np.ndarray, w, prices, assignment) -> np.ndarray:
    """[B, 3]: |M|, the sum of util + rev over the given edges, and whether
    |M| fell below that sum."""
    size = _matching_size(w, prices, assignment)
    values = _edge_values(buyers, items, w, prices, assignment)
    # in edge order: sum(axis=1) would add a C-ordered row pairwise
    edge_sum = reduce(operator.add, values.T, np.zeros(len(size)))
    return np.stack([size, edge_sum, size < edge_sum - _IDENTITY_TOL], axis=1)


def _last_buyer(adjacency, w, exp_prices, assignment) -> np.ndarray:
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
    tied = (np.diff(np.sort(exp_prices, axis=1), axis=1) == 0).any(axis=1)
    uni_assignment = assignment
    if tied.any():
        uni_assignment = assignment.copy()
        uni_assignment[tied] = _assign_min_score(adjacency, uni_prices[tied], range(last + 1))
    edge = np.array([last])  # the last buyer's one edge
    values = [_edge_values(edge, edge, w, exp_prices, assignment)[:, 0],
              _edge_values(edge, edge, w, uni_prices, uni_assignment)[:, 0]]
    served = assignment[:, last] >= 0
    priciest = w.argmax(axis=1) == last
    return np.stack([*values, served, priciest, served & ~priciest], axis=1).astype(float)


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """The buyers and the items of a list of edges, as index arrays."""
    buyers, items = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return buyers, items


def estimate_edge_guarantee(
    instance: BipartiteInstance,
    buyer: int,
    item: int,
    scheme: PriceScheme | str,
    sigma: ArrivalOrder,
    trials: int,
    seed: int,
    *,
    level: float = 0.999,
    jobs: int = 1,
) -> EstimateWithCI:
    """Monte Carlo estimate of E[util_buyer + rev_item] over fresh weight
    draws per trial, with the arrival order held fixed."""
    estimates = edge_guarantee_sweep(
        instance, scheme, sigma, trials, seed, level=level, jobs=jobs, edges=[(buyer, item)]
    )
    return estimates[(buyer, item)]


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
    edges), sharing one market simulation per trial. Identical to calling
    estimate_edge_guarantee per edge with the same seed."""
    _check_run(trials, jobs, level)
    if edges is None:
        edges = list(instance.edges)
    for buyer, item in edges:
        _require_edge(instance, buyer, item)
    if not edges:
        raise ValueError("instance has no edges to sweep")
    observe = partial(_edge_values, *_edge_arrays(edges))
    sum_x, sumsq_x = _estimate(
        instance, sigma, PriceScheme(scheme), observe, len(edges), trials, seed, jobs
    )
    return {
        edge: _finish(float(sum_x[k]), float(sumsq_x[k]), trials, seed, level)
        for k, edge in enumerate(edges)
    }


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
    _check_run(trials, jobs, level)
    total, total_sq = _estimate(
        instance, sigma, PriceScheme.EXPONENTIAL, _matching_size, 1, trials, seed, jobs
    )
    return _finish(float(total), float(total_sq), trials, seed, level)


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
    _check_run(trials, jobs, level)
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
    _check_run(trials, jobs, level)
    optimum_pairs = maximum_matching(instance).pairs
    observe = partial(_welfare, *_edge_arrays(optimum_pairs))
    width = 3 + len(optimum_pairs)  # it holds M*'s edge values until it sums them
    total, total_sq = _estimate(
        instance, sigma, PriceScheme.EXPONENTIAL, observe, width, trials, seed, jobs
    )
    return WelfareBound(
        matching_size=_finish(float(total[0]), float(total_sq[0]), trials, seed, level),
        matched_edge_sum=_finish(float(total[1]), float(total_sq[1]), trials, seed, level),
        lower_bound=GUARANTEE * len(optimum_pairs),
        optimum=len(optimum_pairs),
        pointwise_violations=int(total[2]),
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
    total, total_sq = _estimate(
        instance, ArrivalOrder.identity(n), PriceScheme.EXPONENTIAL, observe, 5,
        trials, seed, jobs,
    )
    served, priciest, bad = (int(c) for c in total[2:])
    # Bernoulli sums: the sum of squares equals the sum
    return LastBuyerReport(
        n=n,
        trials=trials,
        seed=seed,
        level=level,
        exponential=_finish(float(total[0]), float(total_sq[0]), trials, seed, level),
        uniform=_finish(float(total[1]), float(total_sq[1]), trials, seed, level),
        service_probability=_finish(served, served, trials, seed, level),
        priciest_last_probability=_finish(priciest, priciest, trials, seed, level),
        service_without_priciest=bad,
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


def _tuple_cells(n_left: int, n_right: int, width: int, own_rows: bool) -> int:
    """Array cells one tuple adds to a block: the scores, assignments and
    per-arrival arrays of its two markets, plus, when its graph is its own
    (a random tuple), two per cell of its padded neighbor rows, for the rows
    and for the decoding that builds them, or its K raw outputs
    (streams._tuple_outputs) if they are more."""
    cells = 8 * (n_left + n_right + width)
    if not own_rows:
        return cells
    raw = _tuple_outputs(n_left, n_right, max(n_left, n_right))
    return max(cells + 2 * n_left * width, raw)


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


def _fixed_tuples(rows, edge_buyers, edge_items, n_right: int, seed: int, t0: int, t1: int):
    """Tuples t0..t1-1 of a sweep on a fixed instance, in _random_tuples'
    block form. Tuple t draws, from a Generator in trial_rng(seed, t)'s
    starting state, order = permutation(n_left), weights = random(n_right)
    and the index of its edge, integers(n_edges), in row-major order."""
    n_left, n_edges = rows.shape[1], len(edge_items)
    draws = [
        (rng.permutation(n_left), rng.random(n_right), rng.integers(n_edges))
        for rng in _trial_generators(seed, t0, t1)
    ]
    orders, weights, picks = (np.array(column) for column in zip(*draws))
    return rows, orders, weights, edge_buyers[picks], edge_items[picks]


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
        utility >= 1.0 - cf_price - _IDENTITY_TOL,
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


def _property_block(rows, orders, weights, buyers, items) -> np.ndarray:
    """[3, B] bool: whether sold_if_cheaper, utility_floor and monotone
    availability hold for each of a block of B tuples under exponential
    prices, given the neighbor rows [B or 1, L, D] padded with the item R,
    the arrival orders [B, L], the weights [B, R] and the tuples' buyers
    and items. Both markets of every tuple go through one kernel call,
    sharing the tuple's rows; check_counterfactual_properties and
    check_monotone_availability reach the same verdicts for one tuple."""
    n_tuples, n_right = weights.shape
    prices = np.full((n_tuples, n_right + 1), math.inf)  # the padding item scores inf
    prices[:, :n_right] = _price_array(weights, PriceScheme.EXPONENTIAL)
    assignment = _assign_min_score(
        rows, _removal_scores(prices, items), np.concatenate([orders, orders])
    )
    full, reduced = assignment[:n_tuples], assignment[n_tuples:]
    return np.vstack([
        _counterfactual_verdicts(prices, full, reduced, buyers, items),
        _nested_block(full, reduced, orders, items, n_right + 1),
    ])


def _property_chunk(
    instance: BipartiteInstance | None,
    max_side: int,
    seed: int,
    t0: int,
    t1: int,
):
    """The violation counts of tuples t0..t1-1. Tuple t makes exactly the
    draws, in the same order, that one tuple of the reference loop makes
    from trial_rng(seed, t): a random graph with sides up to max_side (or
    the fixed instance), the arrival order, the weights and the edge. A
    random block's tuples are decoded from raw PCG64 outputs
    (_random_tuples); a fixed instance's come from one Generator that
    _trial_generators sets to each tuple's starting state (_fixed_tuples).
    Tuples are checked in blocks (_property_block) that _block_size sizes
    from _tuple_cells: hundreds of tiny random graphs, or as few as one
    tuple of a large instance.
    """
    if instance is None:
        tuples = partial(_random_tuples, max_side)
        cells = _tuple_cells(max_side, max_side, max_side, own_rows=True)
    else:
        rows, edge_buyers, edge_items = _instance_rows(instance)
        tuples = partial(_fixed_tuples, rows, edge_buyers, edge_items, instance.n_right)
        cells = _tuple_cells(instance.n_left, instance.n_right, rows.shape[2], own_rows=False)
    block = _block_size(cells)
    counts = np.zeros(3, dtype=np.int64)
    for b0 in range(t0, t1, block):
        counts += np.count_nonzero(~_property_block(*tuples(seed, b0, min(b0 + block, t1))), axis=1)
    p1, p2, mono = counts.tolist()
    return p1, p2, mono


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
    worker = partial(_property_chunk, instance, max_side, seed)
    p1, p2, mono = _combine(_run_chunks(worker, trials, jobs))
    return PropertySweep(
        trials=trials,
        seed=seed,
        sold_if_cheaper_violations=p1,
        utility_floor_violations=p2,
        monotone_violations=mono,
    )
