"""The posted-price market form of RANKING.

Items carry prices derived from independent uniform weights; buyers arrive
in a given order and purchase the cheapest available neighbor. With the
exponential price curve p = e^(w-1) the process is the economic reading of
RANKING: sorting items by price induces a uniformly random priority
permutation, so the produced matching coincides with RANKING's. Over that
permutation the per-edge utility plus revenue has an exact value on small
instances (exact_edge_guarantee).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .instance import ArrivalOrder, BipartiteInstance, RightPermutation
from .matchers import Matching, _assign_min_score, _check_sigma, _ranking_blocks


class PriceScheme(Enum):
    EXPONENTIAL = "exp"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class PriceAssignment:
    """Per-item weights and the prices they induce under a named scheme.

    Exponential: p = e^(w-1), so p is in [1/e, 1]. Uniform: p = w. Both are
    strictly increasing in w, so they induce the same item ordering.
    """

    weights: tuple[float, ...]
    prices: tuple[float, ...]
    scheme: PriceScheme

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class MarketOutcome:
    """A market run's matching together with its utility/revenue accounting.

    utils[i] is 1 - p_j if buyer i bought item j, else 0; revs[j] is p_j if
    item j sold, else 0; purchased is the set of sold items.
    """

    matching: Matching
    utils: tuple[float, ...]
    revs: tuple[float, ...]
    purchased: frozenset[int]


def prices_from_weights(weights, scheme: PriceScheme) -> PriceAssignment:
    """Price every item from its weight under the given scheme. Weights must
    lie in [0, 1]; w = 1 is allowed for hand-built boundary cases."""
    array = np.asarray(weights, dtype=float)
    ws = tuple(array.tolist())
    for w in ws:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight {w} outside [0, 1]")
    prices = tuple(_price_array(array, scheme).tolist())
    return PriceAssignment(weights=ws, prices=prices, scheme=scheme)


def _price_array(weights: np.ndarray, scheme: PriceScheme, out=None) -> np.ndarray:
    """The package's one price rule, elementwise on an array of any shape,
    so that market runs and estimator blocks price alike to the bit
    (math.exp and np.exp can differ). Exponential prices go into out, an
    array of the weights' shape, if given; uniform prices are the weights."""
    if scheme is PriceScheme.EXPONENTIAL:
        out = np.subtract(weights, 1.0, out=out)
        return np.exp(out, out=out)
    if scheme is PriceScheme.UNIFORM:
        return weights
    raise ValueError(f"unknown price scheme {scheme!r}")


def _check_prices(instance: BipartiteInstance, pa: PriceAssignment) -> None:
    if len(pa) != instance.n_right:
        raise ValueError(f"price assignment has {len(pa)} entries, expected {instance.n_right}")
    _check_not_nan(pa)


def _check_not_nan(pa: PriceAssignment) -> None:
    """A nan price has no place in the price order: refuse it, naming the item."""
    for j, p in enumerate(pa.prices):
        if math.isnan(p):
            raise ValueError(f"item {j} has price nan")


def _settle_block(prices: np.ndarray, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The market's accounting for a block of markets: buyer b's utility is
    1 - p_j for the item j it bought (else 0), item j's revenue is p_j if it
    sold (else 0). Prices [T, n_right] and the kernel's assignments
    [T, n_left] (-1 for an unserved buyer) give utilities [T, n_left] and
    revenues [T, n_right]."""
    utils = np.zeros(assignment.shape)
    revs = np.zeros(prices.shape)
    market, buyer = np.nonzero(assignment >= 0)
    item = assignment[market, buyer]
    paid = prices[market, item]
    utils[market, buyer] = 1.0 - paid
    revs[market, item] = paid
    return utils, revs


def run_market(
    instance: BipartiteInstance, pa: PriceAssignment, sigma: ArrivalOrder
) -> MarketOutcome:
    """Run the sequential market: buyers arrive in sigma order and buy their
    cheapest available neighbor (ties to the lowest item index).

    A buyer purchases whenever any neighbor is available, including at
    utility exactly 0 (possible only at w = 1); this keeps the process
    pointwise identical to RANKING under the induced permutation.
    """
    _check_sigma(instance, sigma)
    _check_prices(instance, pa)
    prices = np.array([pa.prices], dtype=float)  # one market: a one-row block
    assignment = _assign_min_score(instance.adjacency, prices, sigma.order)
    utils, revs = _settle_block(prices, assignment)
    matching = Matching(tuple(j if j >= 0 else None for j in assignment[0].tolist()))
    return MarketOutcome(
        matching=matching,
        utils=tuple(utils[0].tolist()),
        revs=tuple(revs[0].tolist()),
        purchased=frozenset(matching.assignment) - {None},
    )


def permutation_from_prices(pa: PriceAssignment) -> RightPermutation:
    """Priority permutation induced by prices: the cheapest item gets rank 0,
    ties broken by the lowest item index (the same rule run_market uses)."""
    _check_not_nan(pa)
    by_price = sorted(range(len(pa)), key=lambda j: (pa.prices[j], j))
    rank = [0] * len(pa)
    for pos, item in enumerate(by_price):
        rank[item] = pos
    return RightPermutation(tuple(rank))


def welfare_decomposition(outcome: MarketOutcome) -> tuple[float, float, int]:
    """Totals (sum of utilities, total revenue, matching size).

    For every outcome the first two sum to the third: each sold item
    contributes (1 - p) + p = 1.
    """
    return (
        math.fsum(outcome.utils),
        math.fsum(outcome.revs),
        outcome.matching.size,
    )


def _price_moments(n: int, scheme: PriceScheme) -> list[tuple[Fraction, Fraction]]:
    """E[price] of the rank-k item of n, k = 0..n-1 (0 the cheapest), as
    (a, b) for a + b/e. Its weight is the order statistic U_(k+1) ~ Beta(k
    + 1, n - k), so a uniform price, the weight, has mean (k+1)/(n+1). For
    e^(w-1), expand the density's (1-u)^(n-1-k): E[e^U] = n!/(k!(n-1-k)!)
    · sum_m C(n-1-k, m)(-1)^m I(k+m), where I(m) = int_0^1 u^m e^u du = e -
    m·I(m-1), I(0) = e - 1, is alpha_m·e + beta_m; dividing by e, a takes
    the alpha terms and b the beta terms."""
    if scheme is PriceScheme.UNIFORM:
        return [(Fraction(k + 1, n + 1), Fraction(0)) for k in range(n)]
    alpha, beta = [1], [-1]
    for m in range(1, n):
        alpha.append(1 - m * alpha[-1])
        beta.append(-m * beta[-1])
    moments = []
    for k in range(n):
        scale = Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - 1 - k))
        terms = [(-1) ** m * math.comb(n - 1 - k, m) for m in range(n - k)]
        moments.append((scale * sum(c * alpha[k + m] for m, c in enumerate(terms)),
                        scale * sum(c * beta[k + m] for m, c in enumerate(terms))))
    return moments


def exact_edge_guarantee(
    instance: BipartiteInstance, sigma: ArrivalOrder, scheme: PriceScheme | str
) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """Exact E[util_i + rev_j] for every edge (i, j), in the instance's edge
    order, as (A, B) with the value A + B/e, over the market's i.i.d.
    uniform weights: the value edge_guarantee_sweep estimates. The weights'
    order is a uniform ranking, independent of their sorted values, and
    fixes the matching; so one pass over the n_right! rankings (the
    enumeration and n_right <= 8 guard of exact_ranking_expectation)
    counts, for every buyer, the rank of the item it buys and, for every
    item, its rank when it sells, and the rank-k price's exact mean
    (_price_moments) turns the counts into each edge's value."""
    scheme = PriceScheme(scheme)
    blocks = _ranking_blocks(instance, sigma)
    n_left, n_right = instance.n_left, instance.n_right
    # bought[i·(R+1) + k]: rankings in which buyer i buys the rank-k item
    # (k = R: nothing); sold[j·(R+1) + k]: in which item j sells at rank k
    bought = np.zeros(n_left * (n_right + 1), dtype=np.int64)
    sold = np.zeros(n_right * (n_right + 1), dtype=np.int64)
    for ranks, assignment in blocks:
        # rank R in the last column, where an unserved buyer's -1 reads
        padded = np.hstack([ranks, np.full((len(ranks), 1), n_right)])
        rank = padded[np.arange(len(ranks))[:, None], assignment]
        bought += np.bincount((rank + np.arange(n_left) * (n_right + 1)).ravel(),
                              minlength=bought.size)
        served = assignment >= 0
        sold += np.bincount((assignment * (n_right + 1) + rank)[served], minlength=sold.size)
    moments = _price_moments(n_right, scheme)
    a = np.array([a for a, _ in moments], dtype=object)
    b = np.array([b for _, b in moments], dtype=object)
    bought = bought.reshape(n_left, n_right + 1)[:, :n_right]
    sold = sold.reshape(n_right, n_right + 1)[:, :n_right]
    # util_i is 1 - p for the item it buys, rev_j is p when it sells
    util_a, util_b = bought.sum(axis=1) - bought @ a, -(bought @ b)
    rev_a, rev_b = sold @ a, sold @ b
    total = math.factorial(n_right)
    return {(i, j): (Fraction(util_a[i] + rev_a[j], total), Fraction(util_b[i] + rev_b[j], total))
            for i, j in instance.edges}
