import math

import numpy as np
import pytest

from ranking_market import (
    ArrivalOrder,
    PriceScheme,
    kvv_hard_instance,
    make_instance,
    permutation_from_prices,
    prices_from_weights,
    ranking,
    run_market,
    welfare_decomposition,
)
from ranking_market.market import _price_array
from helpers import random_instance, replay_market

EXP = PriceScheme.EXPONENTIAL
UNI = PriceScheme.UNIFORM


def test_exponential_price_endpoints():
    pa = prices_from_weights([0.0, 1.0], EXP)
    assert pa.prices[0] == math.exp(-1.0)
    assert pa.prices[1] == 1.0


def test_uniform_prices_are_weights():
    pa = prices_from_weights([0.5, 0.25], UNI)
    assert pa.prices == (0.5, 0.25)


def test_exp_prices_are_the_estimators_np_exp():
    # math.exp and np.exp differ in the last bit on some weights; a market
    # run must price like the estimators' trials, which use np.exp
    w = np.random.default_rng(0).random(200)
    expected = np.exp(w - 1.0)
    assert any(math.exp(x - 1.0) != y for x, y in zip(w, expected))
    assert np.array(prices_from_weights(w, EXP).prices).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [*range(1, 10), 20, 50, 100])
def test_block_prices_equal_row_by_row_prices(n):
    # the estimators price a [128, n] block at once; SIMD tail handling
    # could round a row differently from the same row priced alone
    w = np.random.default_rng(n).random((128, n))
    for scheme in (EXP, UNI):
        rows = np.array([prices_from_weights(w[t], scheme).prices for t in range(128)])
        assert _price_array(w, scheme).tobytes() == rows.tobytes()


def test_prices_reject_bad_weights():
    with pytest.raises(ValueError):
        prices_from_weights([1.2], EXP)
    with pytest.raises(ValueError):
        prices_from_weights([-0.1], UNI)


def test_prices_increase_with_weights():
    w = np.sort(np.random.default_rng(3).random(50))
    for scheme in (EXP, UNI):
        p = prices_from_weights(w, scheme).prices
        assert all(a < b for a, b in zip(p, p[1:]))
        if scheme is EXP:
            assert all(math.exp(-1.0) <= x <= 1.0 for x in p)


def test_market_kvv2_cheap_first_item():
    inst = kvv_hard_instance(2)
    pa = prices_from_weights([0.1, 0.9], EXP)
    out = run_market(inst, pa, ArrivalOrder.identity(2))
    assert out.matching.assignment == (0, 1)
    assert welfare_decomposition(out)[2] == 2


def test_market_kvv2_cheap_second_item():
    inst = kvv_hard_instance(2)
    pa = prices_from_weights([0.9, 0.1], EXP)
    out = run_market(inst, pa, ArrivalOrder.identity(2))
    assert out.matching.assignment == (1, None)
    assert welfare_decomposition(out)[2] == 1


def test_buyer_purchases_at_zero_utility():
    inst = make_instance(1, 1, [(0, 0)])
    pa = prices_from_weights([1.0], EXP)
    out = run_market(inst, pa, ArrivalOrder.identity(1))
    assert out.matching.assignment == (0,)
    assert out.utils == (0.0,)
    assert out.revs == (1.0,)


def test_market_size_mismatch():
    inst = kvv_hard_instance(2)
    with pytest.raises(ValueError):
        run_market(inst, prices_from_weights([0.5], EXP), ArrivalOrder.identity(2))
    with pytest.raises(ValueError):
        run_market(inst, prices_from_weights([0.5, 0.5], EXP), ArrivalOrder.identity(3))


def test_permutation_from_prices_sorts_ascending():
    pa = prices_from_weights([0.9, 0.4, 0.7], UNI)
    assert permutation_from_prices(pa).rank == (2, 0, 1)


def test_permutation_from_prices_ties_by_index():
    pa = prices_from_weights([0.5, 0.5, 0.5], UNI)
    assert permutation_from_prices(pa).rank == (0, 1, 2)


def test_equivalence_market_equals_ranking():
    rng = np.random.default_rng(44)
    for _ in range(60):
        inst = random_instance(rng, max_side=10)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        w = rng.random(inst.n_right)
        exp_out = run_market(inst, prices_from_weights(w, EXP), sigma)
        uni_out = run_market(inst, prices_from_weights(w, UNI), sigma)
        pi = permutation_from_prices(prices_from_weights(w, EXP))
        ranked = ranking(inst, pi, sigma)
        assert exp_out.matching == uni_out.matching == ranked


def test_equivalence_holds_with_tied_weights():
    inst = make_instance(2, 3, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)])
    pa = prices_from_weights([0.5, 0.5, 0.5], EXP)
    sigma = ArrivalOrder.identity(2)
    out = run_market(inst, pa, sigma)
    assert out.matching == ranking(inst, permutation_from_prices(pa), sigma)
    assert out.matching.assignment == (0, 1)


def test_welfare_decomposition_no_edges():
    inst = make_instance(2, 2, [])
    out = run_market(inst, prices_from_weights([0.3, 0.4], EXP), ArrivalOrder.identity(2))
    assert welfare_decomposition(out) == (0.0, 0.0, 0)


def test_welfare_decomposition_single_edge_floor_price():
    inst = make_instance(1, 1, [(0, 0)])
    out = run_market(inst, prices_from_weights([0.0], EXP), ArrivalOrder.identity(1))
    utility, revenue, size = welfare_decomposition(out)
    assert revenue == math.exp(-1.0)
    assert utility == 1.0 - math.exp(-1.0)
    assert size == 1


def test_welfare_identity_on_random_runs():
    rng = np.random.default_rng(7)
    inst = kvv_hard_instance(20)
    for scheme in (EXP, UNI):
        for _ in range(50):
            pa = prices_from_weights(rng.random(20), scheme)
            sigma = ArrivalOrder.random(20, rng)
            utility, revenue, size = welfare_decomposition(run_market(inst, pa, sigma))
            assert abs(utility + revenue - size) <= 1e-9


def test_market_outcomes_replay_cleanly():
    rng = np.random.default_rng(91)
    for _ in range(50):
        inst = random_instance(rng, max_side=10)
        sigma = ArrivalOrder.random(inst.n_left, rng)
        scheme = EXP if rng.random() < 0.5 else UNI
        pa = prices_from_weights(rng.random(inst.n_right), scheme)
        out = run_market(inst, pa, sigma)
        replay_market(inst, pa, sigma, out)
        if scheme is EXP:
            for j in out.purchased:
                assert math.exp(-1.0) <= out.revs[j] <= 1.0


def test_price_indicator_integral():
    # E[e^(w-1) * 1{w < y}] over uniform w equals e^(y-1) - 1/e
    w = np.random.default_rng(23).random(100_000)
    for y in (0.25, 0.5, 0.75, 1.0):
        x = np.exp(w - 1.0) * (w < y)
        mean = float(x.mean())
        se = float(x.std(ddof=1)) / math.sqrt(len(x))
        expected = math.exp(y - 1.0) - math.exp(-1.0)
        assert abs(mean - expected) <= 4 * se, f"y={y}"


def test_exp_rounding_can_merge_weights_into_a_tie():
    # the weights differ by one ulp, but w - 1 rounds both to the same double,
    # so the exponential prices tie and the tie goes to the lower index, while
    # the uniform market takes the strictly cheaper item 1
    inst = make_instance(1, 2, [(0, 0), (0, 1)])
    w = [np.nextafter(0.1, 1.0), 0.1]
    exp_pa = prices_from_weights(w, EXP)
    assert w[0] != w[1] and exp_pa.prices[0] == exp_pa.prices[1]
    sigma = ArrivalOrder.identity(1)
    assert run_market(inst, exp_pa, sigma).matching.assignment == (0,)
    assert run_market(inst, prices_from_weights(w, UNI), sigma).matching.assignment == (1,)


def test_exp_prices_never_reorder_weights():
    # exp rounding may merge neighbouring weights (above) but never swaps
    # them; last_buyer_report relies on this to reuse one simulation
    w = np.random.default_rng(29).random(50_000)
    w = np.sort(np.concatenate([w, np.nextafter(w, 1.0)]))
    p = np.exp(w - 1.0)
    assert np.all(np.diff(p) >= 0.0)
