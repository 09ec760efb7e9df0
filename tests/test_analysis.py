import hashlib
import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from ranking_market import (
    GUARANTEE,
    ArrivalOrder,
    PriceScheme,
    check_counterfactual_properties,
    check_monotone_availability,
    check_welfare_bound,
    counterfactual,
    edge_guarantee_sweep,
    estimate_competitive_ratio,
    estimate_edge_guarantee,
    estimate_matching_size,
    greedy,
    kvv_hard_instance,
    last_buyer_report,
    make_instance,
    maximum_matching,
    prices_from_weights,
    property_sweep,
    random_bipartite,
    ranking,
    RightPermutation,
    trial_rng,
)
from ranking_market import PriceAssignment, analysis, cli, matchers, run_market
from ranking_market.analysis import _markets, _nested_block
from helpers import (
    availability_nested,
    count_forks,
    no_fork,
    random_instance,
    reference_assignment,
    replay_market,
    without_right_vertex,
)

EXP = PriceScheme.EXPONENTIAL
UNI = PriceScheme.UNIFORM


# ---------------------------------------------------------------------------
# counterfactual and the pathwise properties
# ---------------------------------------------------------------------------


def test_counterfactual_single_edge():
    inst = make_instance(1, 1, [(0, 0)])
    pa = prices_from_weights([0.4], EXP)
    cf = counterfactual(inst, pa, ArrivalOrder.identity(1), 0, 0)
    assert cf.counterfactual_price == 1.0
    assert cf.counterfactual_weight == 1.0
    assert cf.item_sold
    assert cf.buyer_utility == 1.0 - pa.prices[0]


def test_counterfactual_kvv2_fallback():
    inst = kvv_hard_instance(2)
    pa = prices_from_weights([0.1, 0.8], EXP)
    cf = counterfactual(inst, pa, ArrivalOrder.identity(2), 0, 0)
    assert cf.counterfactual_price == pa.prices[1]
    assert cf.counterfactual_weight == 0.8
    assert cf.item_sold  # p_0 < p, so the item must sell
    assert pa.prices[0] < cf.counterfactual_price


def test_counterfactual_requires_edge():
    inst = kvv_hard_instance(2)
    pa = prices_from_weights([0.1, 0.8], EXP)
    with pytest.raises(ValueError):
        counterfactual(inst, pa, ArrivalOrder.identity(2), 1, 0)


def test_counterfactual_weight_absent_under_uniform():
    inst = kvv_hard_instance(2)
    pa = prices_from_weights([0.1, 0.8], UNI)
    cf = counterfactual(inst, pa, ArrivalOrder.identity(2), 0, 0)
    assert cf.counterfactual_weight is None
    assert cf.counterfactual_price == 0.8


def test_properties_on_single_edge():
    inst = make_instance(1, 1, [(0, 0)])
    pa = prices_from_weights([0.7], EXP)
    check = check_counterfactual_properties(inst, pa, ArrivalOrder.identity(1), 0, 0)
    assert check.sold_if_cheaper and check.utility_floor


def test_properties_grid_on_kvv3():
    inst = kvv_hard_instance(3)
    sigma = ArrivalOrder.identity(3)
    grid = [i / 10 for i in range(1, 10)]
    for weights in itertools.product(grid, repeat=3):
        pa = prices_from_weights(weights, EXP)
        for buyer in range(3):
            for item in inst.adjacency[buyer]:
                check = check_counterfactual_properties(inst, pa, sigma, buyer, item)
                assert check.sold_if_cheaper, (weights, buyer, item)
                assert check.utility_floor, (weights, buyer, item)


def test_monotone_availability_hand_case():
    inst = kvv_hard_instance(3)
    pa = prices_from_weights([0.6, 0.2, 0.9], EXP)
    assert check_monotone_availability(inst, pa, ArrivalOrder.identity(3), 1)
    with pytest.raises(ValueError):
        check_monotone_availability(inst, pa, ArrivalOrder.identity(3), 5)


def test_property_sweep_fixed_instance():
    sweep = property_sweep(600, seed=9, instance=kvv_hard_instance(6))
    assert sweep.passed
    assert sweep.trials == 600


def test_property_sweep_random_instances():
    sweep = property_sweep(600, seed=10)
    assert sweep.violations == 0


def test_property_sweep_rejects_edgeless_instance():
    with pytest.raises(ValueError):
        property_sweep(10, seed=1, instance=make_instance(2, 2, []))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_edge_guarantee_single_edge_is_exactly_one():
    inst = make_instance(1, 1, [(0, 0)])
    est = estimate_edge_guarantee(
        inst, 0, 0, EXP, ArrivalOrder.identity(1), trials=2000, seed=3
    )
    assert est.mean == 1.0
    assert est.half_width == 0.0


def test_edge_guarantee_requires_edge():
    inst = kvv_hard_instance(2)
    with pytest.raises(ValueError):
        estimate_edge_guarantee(inst, 1, 0, EXP, ArrivalOrder.identity(2), 100, 1)


def test_sweep_matches_single_edge_estimates():
    inst = kvv_hard_instance(4)
    sigma = ArrivalOrder.identity(4)
    swept = edge_guarantee_sweep(inst, EXP, sigma, trials=3000, seed=5)
    assert set(swept) == set(inst.edges)
    for buyer, item in inst.edges:
        single = estimate_edge_guarantee(inst, buyer, item, EXP, sigma, 3000, 5)
        assert single == swept[(buyer, item)]


def test_guarantee_holds_for_every_arrival_order():
    inst = kvv_hard_instance(6)
    orders = [
        ArrivalOrder.identity(6),
        ArrivalOrder.reversed(6),
        ArrivalOrder.random(6, 77),
    ]
    for sigma in orders:
        for est in edge_guarantee_sweep(inst, EXP, sigma, trials=20_000, seed=6).values():
            assert est.mean >= GUARANTEE - 4 * est.half_width


def test_estimators_are_reproducible_and_jobs_invariant():
    inst = kvv_hard_instance(8)
    sigma = ArrivalOrder.identity(8)
    a = edge_guarantee_sweep(inst, EXP, sigma, trials=5000, seed=13)
    b = edge_guarantee_sweep(inst, EXP, sigma, trials=5000, seed=13)
    c = edge_guarantee_sweep(inst, EXP, sigma, trials=5000, seed=13, jobs=3)
    assert a == b == c
    r1 = estimate_matching_size(inst, sigma, 5000, 21)
    r2 = estimate_matching_size(inst, sigma, 5000, 21, jobs=2)
    assert r1 == r2
    s1 = property_sweep(3000, seed=2, instance=inst)
    s2 = property_sweep(3000, seed=2, instance=inst, jobs=2)
    assert s1 == s2


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    # totals are added row by row, so the blocks trials run in do not show
    inst = random_bipartite(9, 7, 0.5, np.random.default_rng(12))
    sigma = ArrivalOrder.random(9, np.random.default_rng(13))
    runs = [
        partial(edge_guarantee_sweep, inst, EXP, sigma, 2100, 5),
        partial(estimate_edge_guarantee, inst, *inst.edges[3], UNI, sigma, 2100, 8),
        partial(check_welfare_bound, inst, sigma, 2100, 9),
        partial(estimate_matching_size, kvv_hard_instance(20), ArrivalOrder.reversed(20), 2100, 6),
        partial(last_buyer_report, 30, 2100, 7),
    ]
    cells, sizes = [], []
    block_size, trial_weights = analysis._block_size, analysis._trial_weights

    def recording_cells(c):
        cells.append(c)
        return block_size(c)

    def recording_sizes(seed, t0, t1, n):
        sizes.append(t1 - t0)
        return trial_weights(seed, t0, t1, n)

    monkeypatch.setattr(analysis, "_block_size", recording_cells)
    monkeypatch.setattr(analysis, "_trial_weights", recording_sizes)
    expected = [repr(run()) for run in runs]  # at the default budget
    per_trial = cells.copy()
    assert len(per_trial) == len(runs)
    for block in (1, 7, 300, analysis._CHUNK_TRIALS):
        for run, c, want in zip(runs, per_trial, expected):
            # a budget of exactly `block` trials of this estimator's cells
            monkeypatch.setattr(matchers, "_BLOCK_CELLS", block * c)
            sizes.clear()
            assert repr(run()) == want, (block, run)
            assert max(sizes) == block


@pytest.mark.parametrize(
    "shape", [(300,), (1,), (300, 1), (300, 2), (300, 5), (300, 210), (1, 5)],
    ids=lambda shape: "x".join(map(str, shape)),
)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_the_row_sum_adds_the_rows_in_trial_order(shape, layout):
    # values over 17 powers of ten: a pairwise or reordered sum rounds
    # differently from the trial-by-trial loop
    rng = np.random.default_rng(shape[-1])
    x = np.asarray(rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape), order=layout)
    total = rng.random(shape[1:]) * 1e3
    rows = x.reshape(len(x), -1).tolist()
    expected = list(np.atleast_1d(total).tolist())
    for row in rows:
        expected = [s + v for s, v in zip(expected, row)]
    got = analysis._row_sum(x, total)
    assert np.shape(got) == shape[1:]
    assert np.atleast_1d(got).tolist() == expected


@pytest.mark.parametrize("markets", [1, 2, 40])
def test_the_welfare_edge_sum_adds_each_trials_edges_in_order(markets):
    # 20 edges: more than numpy's pairwise sum adds one at a time
    rng = np.random.default_rng(markets)
    prices = rng.random((markets, 30)) * 10.0 ** rng.integers(-8, 1, (markets, 30))
    assignment = np.array([rng.permutation(30)[:25] for _ in range(markets)])
    assignment[rng.random(assignment.shape) < 0.3] = -1
    buyers, items = np.arange(20), rng.permutation(30)[:20]
    got = analysis._welfare(buyers, items, None, prices, assignment)[:, 1]
    for t in range(markets):
        utils = [1.0 - prices[t, j] if j >= 0 else 0.0 for j in assignment[t]]
        revs = [prices[t, j] if j in assignment[t] else 0.0 for j in range(30)]
        expected = 0.0
        for buyer, item in zip(buyers, items):
            expected += utils[buyer] + revs[item]
        assert got[t] == expected, t


# sha256 over the reprs of golden_results(), captured from the estimators at
# these inputs. Any change to a random stream, to a tie-break or to the order
# in which trials and chunks are added changes it.
GOLDEN_DIGEST = "7b70f2a31df1e7b28c95059058ab19d6fad70e204cf7d7ae23d51a24132f3f83"


def golden_results() -> list:
    kvv5 = kvv_hard_instance(5)
    ident = ArrivalOrder.identity(5)
    rand = random_bipartite(6, 5, 0.5, np.random.default_rng(7))
    sigma = ArrivalOrder.random(6, np.random.default_rng(8))
    out = []
    for scheme in (EXP, UNI):
        for jobs in (1, 2):
            out.append(edge_guarantee_sweep(kvv5, scheme, ident, 4500, 3, jobs=jobs))
        out.append(edge_guarantee_sweep(rand, scheme, sigma, 700, 4, level=0.95))
        out.append(estimate_edge_guarantee(rand, *rand.edges[-1], scheme, sigma, 500, 9))
    out.append(check_welfare_bound(kvv5, ident, 1500, 5))
    out.append(check_welfare_bound(rand, sigma, 1500, 6, level=0.9))
    out.append(estimate_matching_size(kvv5, ident, 900, 10))
    out.append(estimate_matching_size(rand, sigma, 900, 11, level=0.99))
    for n in (2, 5, 50):
        out.append(last_buyer_report(n, 1000, 7))
    out.append(last_buyer_report(5, 2100, 7, jobs=2))
    return out


def test_estimator_results_match_the_golden_digest():
    results = golden_results()
    # three chunks, so jobs=2 forks a child for the second and the chunk
    # order of the reduction shows in the digest
    assert results[0] == results[1] and results[4] == results[5]
    assert results[-1] == last_buyer_report(5, 2100, 7)
    text = "\n".join(repr(r) for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def _every_estimator(inst, sigma, trials, **kw):
    """Call each Monte Carlo entry point once with the given keywords."""
    return [
        lambda: edge_guarantee_sweep(inst, EXP, sigma, trials, 1, **kw),
        lambda: estimate_edge_guarantee(inst, 0, 0, UNI, sigma, trials, 1, **kw),
        lambda: estimate_matching_size(inst, sigma, trials, 1, **kw),
        lambda: estimate_competitive_ratio(inst, sigma, trials, 1, **kw),
        lambda: check_welfare_bound(inst, sigma, trials, 1, **kw),
        lambda: last_buyer_report(inst.n_right, trials, 1, **kw),
    ]


def _forbid_work(monkeypatch):
    """Make a trial, a fork or an offline optimum raise AssertionError, which
    pytest.raises(ValueError) does not catch."""
    def no_work(*args):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(analysis.os, "fork", no_fork)
    monkeypatch.setattr(analysis, "trial_rng", no_work)
    monkeypatch.setattr(analysis, "_trial_weights", no_work)
    monkeypatch.setattr(analysis, "_random_tuples", no_work)
    monkeypatch.setattr(analysis, "_trial_generators", no_work)
    monkeypatch.setattr(analysis, "maximum_matching", no_work)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_rejected(monkeypatch, jobs):
    _forbid_work(monkeypatch)
    inst = kvv_hard_instance(3)
    calls = _every_estimator(inst, ArrivalOrder.identity(3), 5000, jobs=jobs)
    calls.append(lambda: property_sweep(5000, 1, jobs=jobs))
    for call in calls:
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            call()


@pytest.mark.parametrize("trials", [0, -2])
def test_trials_below_one_is_rejected(monkeypatch, trials):
    _forbid_work(monkeypatch)
    inst = kvv_hard_instance(3)
    calls = _every_estimator(inst, ArrivalOrder.identity(3), trials)
    calls.append(lambda: property_sweep(trials, 1))
    for call in calls:
        with pytest.raises(ValueError, match="trials must be >= 1"):
            call()


@pytest.mark.parametrize("level", [0.0, 1.0, 5.0, -0.5])
def test_invalid_level_is_rejected_before_any_trial(monkeypatch, level):
    _forbid_work(monkeypatch)
    inst = kvv_hard_instance(3)
    for call in _every_estimator(inst, ArrivalOrder.identity(3), 1, level=level):
        with pytest.raises(ValueError, match="confidence level"):
            call()


@pytest.mark.parametrize("max_side", [0, -3, 2000])
def test_max_side_outside_the_edge_bound_is_rejected(monkeypatch, max_side):
    # 2000**2 potential edges exceed MAX_EDGES, and so would a block padded to them
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="max_side"):
        property_sweep(40, 1, max_side=max_side)


def test_max_side_at_the_edge_bound_is_accepted():
    assert property_sweep(1, 1, max_side=math.isqrt(analysis.MAX_EDGES)).passed


def test_trial_rng_streams():
    assert np.array_equal(trial_rng(5, 9).random(4), trial_rng(5, 9).random(4))
    assert not np.array_equal(trial_rng(5, 9).random(4), trial_rng(5, 10).random(4))


# Seeds with 1, 2, 3, 4 and 5+ entropy words: (seed, t) has more than the
# SeedSequence pool's 4 words from 2**96 on, which runs its extra mixing loop.
STREAM_SEEDS = [0, 23, 2**32 - 1, 2**32, 2**48 - 1, 2**64 + 7, 2**96 + 5, 2**128 + 3, 2**200 + 1]
# Row spans: estimator blocks, an odd span inside a chunk, a span crossing
# t = 2**32 (t gains an entropy word there), one row and none.
STREAM_SPANS = [(0, 128), (128, 256), (2048, 2048 + 333), (2**32 - 300, 2**32 + 300), (9, 10), (5, 5)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 20, 50, 100])
def test_trial_weights_equal_trial_rng_bit_for_bit(n):
    # 12 seeds x 1190 rows x 8 sizes: about 1.1e5 (seed, t) pairs
    seeds = STREAM_SEEDS + [cli._fresh_seed() for _ in range(3)]  # random 48-bit seeds
    for seed in seeds:
        for t0, t1 in STREAM_SPANS:
            batched = analysis._trial_weights(seed, t0, t1, n)
            assert batched.shape == (t1 - t0, n) and batched.dtype == np.float64
            for r, t in enumerate(range(t0, t1)):
                assert np.array_equal(batched[r], trial_rng(seed, t).random(n)), (seed, t, n)


def mixed_draws(rng: np.random.Generator) -> list:
    """A run of draws of every kind, whose length varies with the stream."""
    n = int(rng.integers(1, 9))
    return [n, rng.uniform(0.2, 0.9), rng.random((n, 3)), rng.permutation(n),
            rng.integers(n), rng.random(5), rng.integers(0, 2**40, size=3)]


@pytest.mark.parametrize("seed", [23, 2**64 + 7])  # 1 and 3 entropy words
def test_trial_generators_start_where_trial_rng_starts(seed):
    # a span straddling t = 2**32, where t gains an entropy word
    t0, t1 = 2**32 - 200, 2**32 + 200
    for t, rng in zip(range(t0, t1), analysis._trial_generators(seed, t0, t1), strict=True):
        got, expected = mixed_draws(rng), mixed_draws(np.random.default_rng((seed, t)))
        assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (seed, t)


def test_trial_weights_reject_a_negative_seed_like_trial_rng():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        trial_rng(-1, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        analysis._trial_weights(-1, 0, 128, 3)


def test_ratio_single_edge_exact():
    inst = make_instance(1, 1, [(0, 0)])
    est, optimum = estimate_competitive_ratio(inst, ArrivalOrder.identity(1), trials=500, seed=1)
    assert est.mean == 1.0
    assert est.half_width == 0.0
    assert optimum == 1


def test_ratio_greedy_half_exhibit():
    inst = make_instance(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert greedy(inst, ArrivalOrder.identity(2)).size / maximum_matching(inst).size == 0.5


def test_ratio_rejects_zero_optimum():
    with pytest.raises(ValueError):
        estimate_competitive_ratio(make_instance(2, 2, []), ArrivalOrder.identity(2), 10, 1)


# ---------------------------------------------------------------------------
# the welfare chain
# ---------------------------------------------------------------------------


def test_welfare_bound_single_edge():
    inst = make_instance(1, 1, [(0, 0)])
    wb = check_welfare_bound(inst, ArrivalOrder.identity(1), trials=1000, seed=2)
    assert wb.matching_size.mean == 1.0
    assert wb.lower_bound == GUARANTEE
    assert wb.pointwise_violations == 0


def test_welfare_bound_empty_instance():
    inst = make_instance(2, 2, [])
    wb = check_welfare_bound(inst, ArrivalOrder.identity(2), trials=100, seed=2)
    assert wb.matching_size.mean == 0.0
    assert wb.matched_edge_sum.mean == 0.0
    assert wb.lower_bound == 0.0
    assert wb.optimum == 0


def test_welfare_chain_on_kvv20():
    wb = check_welfare_bound(kvv_hard_instance(20), ArrivalOrder.identity(20),
                             trials=100_000, seed=31)
    assert wb.pointwise_violations == 0
    assert wb.optimum == 20
    # E[|M|] >= sum over M* edges of E[util+rev], exactly, since it holds per trial
    assert wb.matching_size.mean >= wb.matched_edge_sum.mean - 1e-9
    assert wb.matched_edge_sum.mean >= wb.lower_bound - 4 * wb.matched_edge_sum.half_width
    assert wb.matching_size.mean >= wb.lower_bound - 4 * wb.matching_size.half_width


# ---------------------------------------------------------------------------
# the last-buyer report and its enumeration oracle
# ---------------------------------------------------------------------------


def exact_last_buyer_probabilities(n: int) -> tuple[Fraction, Fraction]:
    """Enumerate all price orderings of the triangular instance: returns the
    exact probability that the last buyer is served and that the last item is
    the priciest. Serving requires the full price vector sorted ascending."""
    inst = kvv_hard_instance(n)
    sigma = ArrivalOrder.identity(n)
    served = 0
    priciest = 0
    for perm in itertools.permutations(range(n)):
        rank = [0] * n
        for pos, item in enumerate(perm):
            rank[item] = pos
        m = ranking(inst, RightPermutation(tuple(rank)), sigma)
        got = m.assignment[n - 1] is not None
        top = rank[n - 1] == n - 1
        served += got
        priciest += top
        assert not (got and not top), "service without the last item priciest"
    total = math.factorial(n)
    return Fraction(served, total), Fraction(priciest, total)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_last_buyer_enumeration_oracle(n):
    served, priciest = exact_last_buyer_probabilities(n)
    assert served == Fraction(1, math.factorial(n))
    assert priciest == Fraction(1, n)


def test_last_buyer_report_n2_service_half():
    report = last_buyer_report(2, trials=40_000, seed=17)
    assert abs(report.service_probability.mean - 0.5) <= 4 * report.service_probability.stderr
    assert report.service_without_priciest == 0
    assert report.reference_probability == 0.5


def test_last_buyer_report_matches_enumeration_at_n4():
    report = last_buyer_report(4, trials=60_000, seed=19)
    served, priciest = exact_last_buyer_probabilities(4)
    assert abs(report.service_probability.mean - float(served)) \
        <= 4 * report.service_probability.stderr + 1e-12
    assert abs(report.priciest_last_probability.mean - float(priciest)) \
        <= 4 * report.priciest_last_probability.stderr
    assert report.service_without_priciest == 0


def test_last_buyer_report_uniform_regression():
    # frozen from a bit-reproducible run: the uniform estimate sits at ~1/2,
    # far below the 1 - 1/e bound the exponential scheme meets
    report = last_buyer_report(50, trials=20_000, seed=23)
    assert report.uniform.mean == 0.4978932933765168
    assert report.exponential.mean >= GUARANTEE - 4 * report.exponential.half_width
    assert report.uniform.mean < 0.6


def test_last_buyer_report_rejects_small_n():
    with pytest.raises(ValueError):
        last_buyer_report(1, trials=10, seed=1)


# ---------------------------------------------------------------------------
# cross-checks against independent replays
# ---------------------------------------------------------------------------


def test_edge_guarantee_agrees_with_direct_average():
    # independent accumulation path: rebuild each trial's market by hand
    from ranking_market import run_market

    inst = random_instance(np.random.default_rng(2), max_side=6)
    sigma = ArrivalOrder.random(inst.n_left, np.random.default_rng(3))
    buyer, item = inst.edges[0]
    trials, seed = 400, 29
    est = estimate_edge_guarantee(inst, buyer, item, EXP, sigma, trials, seed)
    total = 0.0
    for t in range(trials):
        w = trial_rng(seed, t).random(inst.n_right)
        out = run_market(inst, prices_from_weights(w, EXP), sigma)
        total += out.utils[buyer] + out.revs[item]
    assert est.mean == pytest.approx(total / trials, abs=1e-12)


# ---------------------------------------------------------------------------
# one kernel call per market: counts, the remark3 tie fallback, the pool
# ---------------------------------------------------------------------------


def count_calls(monkeypatch) -> list[int]:
    """Count the markets analysis runs through the assignment kernel: one
    per row of a block of scores."""
    calls = [0]
    fn = analysis._assign_min_score

    def counting(adjacency, score, order):
        calls[0] += score.shape[0]
        return fn(adjacency, score, order)

    monkeypatch.setattr(analysis, "_assign_min_score", counting)
    return calls


def test_last_buyer_report_simulates_once_per_trial(monkeypatch):
    calls = count_calls(monkeypatch)
    last_buyer_report(6, trials=3000, seed=4)
    assert calls[0] == 3000


def test_property_sweep_simulates_two_markets_per_tuple(monkeypatch):
    calls = count_calls(monkeypatch)
    property_sweep(400, seed=3)
    assert calls[0] == 2 * 400
    calls[0] = 0
    property_sweep(300, seed=3, instance=kvv_hard_instance(5))
    assert calls[0] == 2 * 300


# e^(w-1) rounds these two distinct weights to one price
TIED_WEIGHTS = [np.nextafter(0.1, 1.0), 0.1]


def test_last_buyer_report_tie_fallback_matches_two_simulations(monkeypatch):
    # every third trial draws two weights that the exponential curve merges:
    # the exponential market then gives item 0 to the first buyer (tie to the
    # lower index) and the uniform market gives it item 1 (the lower weight)
    n, trials, seed = 2, 900, 12
    trial_weights = analysis._trial_weights

    def tied_weights(seed, t0, t1, n):
        w = trial_weights(seed, t0, t1, n)
        w[np.arange(t0, t1) % 3 == 0] = TIED_WEIGHTS
        return w

    def draw(t):
        return np.array(TIED_WEIGHTS) if t % 3 == 0 else trial_rng(seed, t).random(n)

    monkeypatch.setattr(analysis, "_trial_weights", tied_weights)
    calls = count_calls(monkeypatch)
    report = last_buyer_report(n, trials=trials, seed=seed)
    assert calls[0] == trials + trials // 3

    inst = kvv_hard_instance(n)
    sigma = ArrivalOrder.identity(n)
    totals = {EXP: 0.0, UNI: 0.0}
    served = 0
    for t in range(trials):
        w = draw(t)
        for scheme in (EXP, UNI):
            out = run_market(inst, prices_from_weights(w, scheme), sigma)
            totals[scheme] += out.utils[n - 1] + out.revs[n - 1]
            if scheme is EXP:
                served += out.matching.assignment[n - 1] is not None
    assert report.uniform.mean == totals[UNI] / trials
    assert report.exponential.mean == pytest.approx(totals[EXP] / trials, rel=1e-12)
    assert report.service_probability.mean == served / trials
    # without the fallback the tied trials would score 1 under uniform prices
    assert report.uniform.mean < report.exponential.mean - 0.2


@pytest.mark.parametrize(
    "jobs, chunks, cpus, expected",
    [(5000, 3, 4, 3), (5000, 6, 4, 4), (2, 6, 4, 2), (5000, 1, 4, None), (5000, 3, 1, None),
     (5000, 3, None, None)],
)
def test_pool_size_is_bounded(monkeypatch, jobs, chunks, cpus, expected):
    # the runner forks one child for each share but the one it runs itself
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
    inst = kvv_hard_instance(3)
    sigma = ArrivalOrder.identity(3)
    trials = 2048 * (chunks - 1) + 5
    est = estimate_matching_size(inst, sigma, trials, 8, jobs=jobs)
    assert len(forks) == (0 if expected is None else expected - 1)
    assert est == estimate_matching_size(inst, sigma, trials, 8)


# ---------------------------------------------------------------------------
# the reduced market and the replayed monotone check against a from-scratch
# oracle
# ---------------------------------------------------------------------------


def as_list(row) -> list[int | None]:
    """A kernel row ([n_left], -1 for an unserved buyer) as an assignment."""
    return [j if j >= 0 else None for j in row.tolist()]


def test_reduced_market_and_monotone_replay_match_the_oracle():
    rng = np.random.default_rng(61)
    for k in range(1200):
        inst = random_instance(rng, max_side=8)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        w = rng.random(inst.n_right)
        if k % 4 == 0:
            w = np.round(w, 1)  # price ties
        pa = prices_from_weights(w, EXP if k % 2 else UNI)
        item = int(rng.integers(inst.n_right))
        prices, full_row, reduced_row = _markets(inst, pa, sigma, item)
        assert prices.tolist() == [[*pa.prices, math.inf]]
        full, reduced = as_list(full_row[0]), as_list(reduced_row[0])
        assert full == reference_assignment(inst, pa.prices, sigma.order)
        assert reduced == reference_assignment(inst, pa.prices, sigma.order, removed=item)
        without = run_market(without_right_vertex(inst, item), pa, sigma)
        assert reduced == list(without.matching.assignment)
        nested = availability_nested(inst.n_right, full, reduced, sigma.order, item)
        assert nested  # a theorem
        assert check_monotone_availability(inst, pa, sigma, item) == nested


def test_monotone_replay_flags_exactly_the_non_nested_pairs():
    # arbitrary assignment pairs, most of them not produced by any market, so
    # the block check has to reject as well as accept
    rng = np.random.default_rng(62)
    outcomes = set()
    for _ in range(3000):
        n_left, n_right = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        item = int(rng.integers(n_right))
        order = tuple(int(b) for b in rng.permutation(n_left))

        def random_assignment(items):
            picks = [int(j) for j in rng.permutation(items)] + [None] * n_left
            return [picks[i] for i in rng.permutation(len(picks))[:n_left]]

        full = random_assignment(n_right)
        reduced = random_assignment([j for j in range(n_right) if j != item] or [item])
        if item in reduced:
            reduced = [None if j == item else j for j in reduced]
        nested = availability_nested(n_right, full, reduced, order, item)
        full_row, reduced_row = (np.array([[-1 if j is None else j for j in a]])
                                 for a in (full, reduced))
        verdict = _nested_block(full_row, reduced_row, np.array([order]), np.array([item]),
                                n_right + 1)
        assert verdict.tolist() == [nested]
        outcomes.add(nested)
    assert outcomes == {True, False}


# instances the estimators never see: empty sides, no edges, empty rows
DEGENERATE = {
    "0x3": make_instance(0, 3, []),
    "3x0": make_instance(3, 0, []),
    "0x0": make_instance(0, 0, []),
    "edgeless-3x3": make_instance(3, 3, []),
    "1x1": make_instance(1, 1, [(0, 0)]),
    "empty-rows": make_instance(4, 3, [(0, 1), (0, 2), (2, 0), (2, 1)]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_shapes_run_as_one_row_blocks(name):
    inst = DEGENERATE[name]
    rng = np.random.default_rng(63)
    for _ in range(10):
        sigma = ArrivalOrder.random(inst.n_left, rng)
        w = rng.random(inst.n_right)
        for scheme in (EXP, UNI):
            pa = prices_from_weights(w, scheme)
            out = run_market(inst, pa, sigma)
            replay_market(inst, pa, sigma, out)
            full = reference_assignment(inst, pa.prices, sigma.order)
            assert list(out.matching.assignment) == full
            for item in range(inst.n_right):
                reduced = reference_assignment(inst, pa.prices, sigma.order, removed=item)
                nested = availability_nested(inst.n_right, full, reduced, sigma.order, item)
                assert check_monotone_availability(inst, pa, sigma, item) == nested
        pi = RightPermutation.random(inst.n_right, rng)
        expected = reference_assignment(inst, pi.rank, sigma.order)
        assert list(ranking(inst, pi, sigma).assignment) == expected
        expected = reference_assignment(inst, range(inst.n_right), sigma.order)
        assert list(greedy(inst, sigma).assignment) == expected


def test_nan_prices_are_rejected_naming_the_item():
    # the kernel ranks nan above every price, so it would sell a nan-priced
    # item rather than treat it as unavailable: a nan price is refused
    sigma = ArrivalOrder.identity(1)
    for prices, message in [((math.nan, math.nan), "item 0 has price nan"),
                            ((0.5, math.nan), "item 1 has price nan")]:
        inst = make_instance(1, 2, [(0, 0), (0, 1)])
        pa = PriceAssignment(weights=(0.5, 0.5), prices=prices, scheme=EXP)
        for call in (partial(run_market, inst, pa, sigma),
                     partial(counterfactual, inst, pa, sigma, 0, 0),
                     partial(check_counterfactual_properties, inst, pa, sigma, 0, 0),
                     partial(check_monotone_availability, inst, pa, sigma, 0)):
            with pytest.raises(ValueError, match=message):
                call()


def test_every_market_entry_point_names_the_expected_sizes():
    inst = kvv_hard_instance(2)
    pa, sigma = prices_from_weights([0.5, 0.25], EXP), ArrivalOrder.identity(2)
    short_pa, long_sigma = prices_from_weights([0.5], EXP), ArrivalOrder.identity(3)
    entry_points = [
        lambda pa, sigma: run_market(inst, pa, sigma),
        lambda pa, sigma: counterfactual(inst, pa, sigma, 0, 0),
        lambda pa, sigma: check_counterfactual_properties(inst, pa, sigma, 0, 0),
        lambda pa, sigma: check_monotone_availability(inst, pa, sigma, 0),
    ]
    for run in entry_points:
        with pytest.raises(ValueError, match="price assignment has 1 entries, expected 2"):
            run(short_pa, sigma)
        with pytest.raises(ValueError, match="arrival order has 3 entries, expected 2"):
            run(pa, long_sigma)
