"""Random property tuples decoded from one row of doubles each, against the
same rule drawn from scratch.

The sweep prints only violation counts, which stay 0 whatever tuples it
checks, so no output digest can catch a block that draws the wrong tuples.
These checks compare ``_random_tuples`` blocks with blocks built one tuple
at a time by ``helpers.random_tuple`` from ``trial_rng(seed, t).random(K)``:
every size class, seeds of one to three entropy words, a span of t crossing
2**32, and blocks too few to reach the largest sides, whose frames are
trimmed further.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ranking_market import analysis
from ranking_market.instance import MAX_EDGES
from ranking_market.analysis import _random_tuples
from helpers import random_tuple

SEEDS = [0, 2**32 - 1, 2**32 + 5, 2**64 + 7]  # 1, 1, 2 and 3 entropy words
# 5000 tuples a seed, half of them on either side of t = 2**32
SPANS = [(0, 2500), (2**32 - 1250, 2**32 + 1250)]
BLOCK = 128


def reference_block(max_side: int, seed: int, t0: int, t1: int) -> tuple:
    """Tuples t0..t1-1 drawn by helpers.random_tuple, padded as
    _random_tuples pads them."""
    draws = [random_tuple(max_side, seed, t) for t in range(t0, t1)]
    size_l = max(inst.n_left for inst, _, _, _ in draws)
    size_r = max(inst.n_right for inst, _, _, _ in draws)
    rows = np.full((len(draws), size_l, size_r), size_r)
    orders = np.tile(np.arange(size_l), (len(draws), 1))
    padded = np.zeros((len(draws), size_r))
    for r, (inst, order, weights, _) in enumerate(draws):
        for i, j in inst.edges:
            rows[r, i, j] = j
        orders[r, : inst.n_left] = order
        padded[r, : inst.n_right] = weights
    buyers, items = np.array([edge for _, _, _, edge in draws]).T
    return rows, orders, padded, buyers, items


def check_seeded(max_side: int, seed: int, t0: int, t1: int, block: int = BLOCK) -> None:
    """_random_tuples against the reference, block by block."""
    names = ("rows", "orders", "weights", "buyers", "items")
    for b0 in range(t0, t1, block):
        b1 = min(b0 + block, t1)
        got = _random_tuples(max_side, seed, b0, b1)
        expected = reference_block(max_side, seed, b0, b1)
        for name, a, b in zip(names, got, expected, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b), (max_side, seed, b0, name)


@pytest.mark.parametrize("max_side", [1, 2, 3, 10, 37])
def test_decoded_tuples_equal_the_generator_calls(max_side):
    # 4 seeds x 5000 tuples a size
    for seed in SEEDS:
        for t0, t1 in SPANS:
            check_seeded(max_side, seed, t0, t1)


@pytest.mark.parametrize("max_side", [37, 100])
def test_blocks_narrower_than_their_orders_decode_exactly(max_side):
    # four tuples rarely reach the largest sides: the coin frame, the keys
    # and the weights are cut to the block's own
    for seed in SEEDS:
        check_seeded(max_side, seed, 2**32 - 64, 2**32 + 64, block=4)


def test_the_block_size_counts_the_raw_outputs():
    assert analysis._tuple_cells(10, 10, 10, own_rows=True) == 8 * 30 + 2 * 100
    assert analysis._tuple_cells(10, 10, 10, own_rows=False) == 8 * 30
    # two cells per padded cell cover a tuple's K = 5 + 2·m + m² doubles,
    # at every size a sweep accepts
    for m in range(1, math.isqrt(MAX_EDGES) + 1):
        assert analysis._tuple_cells(m, m, m, own_rows=True) >= 5 + 2 * m + m * m
