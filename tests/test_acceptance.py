"""End-to-end acceptance gate.

Each test is one release-blocking check run at its full advertised scale and
tolerance, and prints a single [PASS]/[FAIL] line (run pytest with -s to see
them live). Statistical checks use fixed seeds, so the whole gate is
deterministic.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np

from ranking_market import (
    GUARANTEE,
    ArrivalOrder,
    PriceScheme,
    check_counterfactual_properties,
    check_monotone_availability,
    edge_guarantee_sweep,
    estimate_competitive_ratio,
    estimate_matching_size,
    exact_ranking_expectation,
    greedy,
    kvv_hard_instance,
    last_buyer_report,
    make_instance,
    maximum_matching,
    permutation_from_prices,
    prices_from_weights,
    property_sweep,
    ranking,
    run_market,
    welfare_decomposition,
)
from helpers import brute_force_max_size, random_instance

EXP = PriceScheme.EXPONENTIAL
UNI = PriceScheme.UNIFORM


@contextmanager
def checkpoint(name: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"[PASS] {name} ({elapsed:.1f}s)")


def test_welfare_decomposition_identity():
    with checkpoint("welfare decomposition: util + revenue = matching size, "
                    "1000 random markets", budget_seconds=10):
        rng = np.random.default_rng(101)
        for k in range(1000):
            inst = random_instance(rng, max_side=30)
            sigma = ArrivalOrder.random(inst.n_left, rng)
            scheme = EXP if k % 2 == 0 else UNI
            pa = prices_from_weights(rng.random(inst.n_right), scheme)
            outcome = run_market(inst, pa, sigma)
            utility, revenue, size = welfare_decomposition(outcome)
            assert abs(utility + revenue - size) <= 1e-9
            assert len(outcome.purchased) == size


def test_market_equals_ranking_under_both_schemes():
    # RANKING under the induced permutation equals the exponential market for
    # every draw. The uniform market equals both only while e^(w-1) keeps
    # distinct weights distinct: rounding can merge two weights into one
    # price (pinned in test_market), so each draw here is checked to have
    # none.
    with checkpoint("equivalence: exponential market = RANKING = uniform market, "
                    "1000 random draws without merged prices", budget_seconds=10):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            inst = random_instance(rng, max_side=30)
            sigma = ArrivalOrder.random(inst.n_left, rng)
            w = rng.random(inst.n_right)
            exp_pa = prices_from_weights(w, EXP)
            assert len(set(exp_pa.prices)) == len(set(w.tolist()))
            exp_match = run_market(inst, exp_pa, sigma).matching
            uni_match = run_market(inst, prices_from_weights(w, UNI), sigma).matching
            ranked = ranking(inst, permutation_from_prices(exp_pa), sigma)
            assert exp_match == uni_match == ranked


def test_per_edge_guarantee_all_edges_all_orders():
    assert abs(GUARANTEE - 0.632120558) < 1e-9
    with checkpoint("per-edge guarantee on the triangular n=20 instance: "
                    "210 edges x 1e5 trials x 3 arrival orders", budget_seconds=300):
        inst = kvv_hard_instance(20)
        orders = {
            "identity": ArrivalOrder.identity(20),
            "reversed": ArrivalOrder.reversed(20),
            "random": ArrivalOrder.random(20, 303),
        }
        for label, sigma in orders.items():
            estimates = edge_guarantee_sweep(inst, EXP, sigma, trials=100_000, seed=304)
            assert len(estimates) == 210
            for (i, j), est in estimates.items():
                assert est.mean >= GUARANTEE - 4 * est.half_width, (label, i, j, est)


def test_pathwise_properties_never_fail():
    with checkpoint("pathwise properties: 1e4 random tuples + the full 0.1-step "
                    "weight grid on the n=3 instance, zero violations", budget_seconds=60):
        sweep = property_sweep(10_000, seed=405, max_side=10)
        assert sweep.sold_if_cheaper_violations == 0
        assert sweep.utility_floor_violations == 0
        assert sweep.monotone_violations == 0

        inst = kvv_hard_instance(3)
        sigma = ArrivalOrder.identity(3)
        grid = [i / 10 for i in range(1, 10)]
        for weights in product(grid, repeat=3):
            pa = prices_from_weights(weights, EXP)
            for buyer in range(3):
                for item in inst.adjacency[buyer]:
                    check = check_counterfactual_properties(inst, pa, sigma, buyer, item)
                    assert check.sold_if_cheaper, (weights, buyer, item)
                    assert check.utility_floor, (weights, buyer, item)
                    assert check_monotone_availability(inst, pa, sigma, item), (weights, item)


def test_competitive_ratio_band():
    with checkpoint("competitive ratio: triangular n=100 in [0.62, 0.65], "
                    "single edge exactly 1, greedy exhibit exactly 0.5", budget_seconds=60):
        est, optimum = estimate_competitive_ratio(
            kvv_hard_instance(100), ArrivalOrder.identity(100), trials=10_000, seed=506
        )
        assert 0.62 <= est.mean <= 0.65, est
        assert optimum == 100

        single = make_instance(1, 1, [(0, 0)])
        one, _ = estimate_competitive_ratio(single, ArrivalOrder.identity(1), trials=100, seed=1)
        assert one.mean == 1.0

        exhibit = make_instance(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert greedy(exhibit, ArrivalOrder.identity(2)).size / maximum_matching(exhibit).size == 0.5

        # the band itself is sanity-checked by the exact normalized trend,
        # which decreases toward 1 - 1/e while staying above it
        ratios = [
            exact_ranking_expectation(kvv_hard_instance(n), ArrivalOrder.identity(n)) / n
            for n in range(2, 9)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(float(r) > GUARANTEE for r in ratios)


def test_monte_carlo_agrees_with_exact_oracle():
    with checkpoint("oracle agreement: Monte Carlo vs exact enumeration, "
                    "n = 2..7, 1e5 trials each", budget_seconds=120):
        assert exact_ranking_expectation(
            kvv_hard_instance(2), ArrivalOrder.identity(2)
        ) == Fraction(3, 2)
        for n in range(2, 8):
            inst = kvv_hard_instance(n)
            sigma = ArrivalOrder.identity(n)
            exact = float(exact_ranking_expectation(inst, sigma))
            est = estimate_matching_size(inst, sigma, trials=100_000, seed=600 + n)
            assert abs(est.mean - exact) <= 4 * est.stderr, (n, exact, est)


def test_uniform_prices_break_the_guarantee():
    # Service requires the whole price vector sorted ascending (probability
    # 1/n!, enumeration oracle in test_analysis); the tractable necessary
    # condition is that the last item is priciest, probability exactly 1/n.
    with checkpoint("uniform-price failure on the last buyer's edge (n=50): "
                    "uniform < 0.6, exponential passes, P(priciest last) ~ 1/50",
                    budget_seconds=60):
        report = last_buyer_report(50, trials=100_000, seed=707)
        assert report.uniform.mean < 0.6
        assert report.exponential.mean >= GUARANTEE - 4 * report.exponential.half_width
        priciest = report.priciest_last_probability
        assert abs(priciest.mean - 1 / 50) <= 4 * priciest.stderr
        assert report.service_without_priciest == 0
        assert report.service_probability.mean <= priciest.mean


def test_offline_solver_matches_brute_force():
    with checkpoint("offline solver: augmenting paths = brute force on "
                    "1000 random instances", budget_seconds=30):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            inst = random_instance(rng, max_side=8)
            assert maximum_matching(inst).size == brute_force_max_size(inst)


def _cli(*argv: str) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "ranking_market", *argv],
        capture_output=True,
        check=False,
    )
    assert result.returncode in (0, 1), result.stderr.decode()
    return result.stdout


def test_cli_output_is_byte_identical():
    with checkpoint("CLI reproducibility: byte-identical reruns for every "
                    "subcommand, sequential = parallel"):
        fixed = [
            ("gen", "--kvv", "6"),
            ("gen", "--random", "7", "5", "0.4", "--seed", "909"),
            ("ratio", "--kvv", "10", "--trials", "400", "--seed", "909"),
            ("claim1", "--kvv", "5", "--trials", "400", "--seed", "909",
             "--sigma", "random", "--format", "json"),
            ("remark3", "--n", "6", "--trials", "400", "--seed", "909"),
            ("properties", "--kvv", "6", "--sweep", "200", "--seed", "909"),
            ("oracle-check", "--kvv", "4", "--trials", "400", "--seed", "909"),
            ("run", "--kvv", "6", "--seed", "909", "--scheme", "uniform",
             "--sigma", "reversed", "--format", "json"),
        ]
        for argv in fixed:
            assert _cli(*argv) == _cli(*argv), argv

        # rerunning with the printed (auto-generated) seed reproduces the output
        first = _cli("ratio", "--kvv", "6", "--trials", "300", "--format", "json")
        seed = str(json.loads(first)["config"]["seed"])
        again = _cli("ratio", "--kvv", "6", "--trials", "300", "--format", "json",
                     "--seed", seed)
        assert first == again

        # trial-level parallelism does not change a single byte
        for argv in (
            ("claim1", "--kvv", "6", "--trials", "5000", "--seed", "911"),
            ("ratio", "--kvv", "12", "--trials", "5000", "--seed", "911"),
            ("properties", "--kvv", "5", "--sweep", "4000", "--seed", "911"),
        ):
            assert _cli(*argv, "--jobs", "1") == _cli(*argv, "--jobs", "3"), argv
