"""Random property tuples decoded from one row of doubles each, against the
same rule drawn from scratch.

The sweep prints only violation counts, which stay 0 whatever tuples it
checks, so no output digest can catch a block that draws the wrong tuples.
This check compares ``_random_tuples`` blocks with blocks built one tuple at
a time by ``helpers.random_tuple`` from ``trial_rng(seed, t).random(K)``:
every size class, seeds of one to three entropy words and a span of t
crossing 2**32. Blocks too few to reach the largest sides are checked in
``test_property_batch.py``.
"""

from __future__ import annotations

import pytest

from helpers import TUPLE_SEEDS, check_random_tuple_blocks

# 5000 tuples a seed, half of them on either side of t = 2**32
SPANS = [(0, 2500), (2**32 - 1250, 2**32 + 1250)]


@pytest.mark.parametrize("max_side", [1, 2, 3, 10, 37])
def test_decoded_tuples_equal_the_generator_calls(max_side):
    # 4 seeds x 5000 tuples a size
    for seed in TUPLE_SEEDS:
        for t0, t1 in SPANS:
            check_random_tuple_blocks(max_side, seed, t0, t1)
