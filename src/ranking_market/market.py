"""The posted-price market form of RANKING.

Items carry prices derived from independent uniform weights; buyers arrive
in a given order and purchase the cheapest available neighbor. With the
exponential price curve p = e^(w-1) the process is the economic reading of
RANKING: sorting items by price induces a uniformly random priority
permutation, so the produced matching coincides with RANKING's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .instance import ArrivalOrder, BipartiteInstance, RightPermutation
from .matchers import Matching, _assign_min_score, _check_sigma


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


def _price_array(weights: np.ndarray, scheme: PriceScheme) -> np.ndarray:
    """The package's one price rule, elementwise on an array of any shape,
    so that market runs and estimator blocks price alike to the bit
    (math.exp and np.exp can differ)."""
    if scheme is PriceScheme.EXPONENTIAL:
        return np.exp(weights - 1.0)
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
