"""Random property tuples decoded from raw PCG64 outputs, against the
Generator calls they reproduce.

The sweep prints only violation counts, which stay 0 whatever tuples it
checks, so no output digest can catch a decoder that draws the wrong
tuples. These checks compare decoded blocks with blocks built from the
Generator calls themselves: every size class, seeds of one to three
entropy words, a span of t crossing 2**32, rows read past their first K
outputs, and crafted streams on which Lemire's method rejects a draw. Each
mutant reproduces one trap of numpy's Generator; the same checks must
catch it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from ranking_market import analysis, streams
from ranking_market.streams import _decode_tuples, _random_tuples, _tuple_outputs

SEEDS = [0, 2**32 - 1, 2**32 + 5, 2**64 + 7]  # 1, 1, 2 and 3 entropy words
# 5000 tuples a seed, half of them on either side of t = 2**32
SPANS = [(0, 2500), (2**32 - 1250, 2**32 + 1250)]
BLOCK = 128

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def reference_tuple(max_side: int, rng: np.random.Generator):
    """One random tuple drawn with the Generator calls the decoder
    reproduces: the coins, the order, the weights and the edge index."""
    while True:
        n_left = int(rng.integers(1, max_side + 1))
        n_right = int(rng.integers(1, max_side + 1))
        prob = rng.uniform(0.2, 0.9)
        coins = rng.random((n_left, n_right)) < prob
        if coins.any():
            break
    order = rng.permutation(n_left)
    weights = rng.random(n_right)
    edge = np.flatnonzero(coins)[rng.integers(np.count_nonzero(coins))]
    return coins, order, weights, edge


def reference_block(max_side: int, rngs) -> tuple:
    """The tuples drawn from the given Generators, padded as
    _decode_tuples pads them."""
    draws = [reference_tuple(max_side, rng) for rng in rngs]
    size_l = max(len(order) for _, order, _, _ in draws)
    size_r = max(len(weights) for _, _, weights, _ in draws)
    rows = np.full((len(draws), size_l, size_r), size_r)
    orders = np.tile(np.arange(size_l), (len(draws), 1))
    padded = np.zeros((len(draws), size_r))
    buyers, items = [], []
    for t, (coins, order, weights, edge) in enumerate(draws):
        n_left, n_right = coins.shape
        rows[t, :n_left, :n_right] = np.where(coins, np.arange(n_right), size_r)
        orders[t, :n_left] = order
        padded[t, :n_right] = weights
        buyer, item = divmod(int(edge), n_right)
        buyers.append(buyer)
        items.append(item)
    return rows, orders, padded, np.array(buyers), np.array(items)


def assert_same_block(got, expected, where) -> None:
    names = ("rows", "orders", "weights", "buyers", "items")
    for name, a, b in zip(names, got, expected, strict=True):
        assert a.shape == b.shape and np.array_equal(a, b), (where, name)


def check_seeded(max_side: int, seed: int, t0: int, t1: int, block: int = BLOCK) -> None:
    """_random_tuples against trial_rng's Generators, block by block."""
    for b0 in range(t0, t1, block):
        b1 = min(b0 + block, t1)
        got = _random_tuples(max_side, seed, b0, b1)
        rngs = (np.random.default_rng((seed, t)) for t in range(b0, b1))
        assert_same_block(got, reference_block(max_side, rngs), (max_side, seed, b0))


def generator(state: dict) -> np.random.Generator:
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def decode(max_side: int, states: list, outputs: int, extended: list | None = None):
    """_decode_tuples on the first `outputs` raw outputs of Generators in
    the given states, reading later outputs from fresh copies."""
    raw = np.array([generator(s).bit_generator.random_raw(outputs) for s in states])

    def start(row: int) -> np.random.Generator:
        if extended is not None:
            extended.append(row)
        return generator(states[row])

    return _decode_tuples(raw, np.full(len(states), outputs), max_side, start)


def check_states(max_side: int, states: list) -> None:
    outputs = _tuple_outputs(max_side, max_side, max_side)
    expected = reference_block(max_side, [generator(s) for s in states])
    assert_same_block(decode(max_side, states, outputs), expected, (max_side, states))


def random_state(rng: np.random.Generator, state: int | None = None) -> dict:
    """A PCG64 state dict with a random odd increment and the given (else a
    random) 128-bit LCG state."""
    words = [int(w) for w in rng.integers(0, 2**63, size=4)]
    inc = (words[0] << 65 | words[1] << 1 | 1) & _MASK128
    if state is None:
        state = words[2] << 65 | words[3]
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def crafted_state(position: int, output: int, rng: np.random.Generator) -> dict:
    """A PCG64 state whose output `position` (from 0) is `output`. Output k
    is XSL-RR of the LCG state after k + 1 steps; a state whose high word
    has its top 6 bits clear is not rotated, so it outputs high ^ low. Such
    a state is picked at random and stepped back."""
    state = random_state(rng)
    inc = state["state"]["inc"]
    high = int(rng.integers(1 << 58))
    lcg = high << 64 | (high ^ output)
    back = pow(_PCG_MULT, -1, 1 << 128)
    for _ in range(position + 1):
        lcg = (lcg - inc) * back & _MASK128
    state["state"]["state"] = lcg
    assert generator(state).bit_generator.random_raw(position + 1)[-1] == output
    return state


def next_uint32(rng: np.random.Generator) -> int:
    """The Generator's next 32-bit draw, without consuming it."""
    return int(copy.deepcopy(rng).integers(0, 2**32, dtype=np.uint32))


def rejected(u: int, span: int) -> bool:
    """Whether integers(0, span) redraws the 32-bit draw u (Lemire)."""
    return (u * span) % 2**32 < (2**32 - span) % span


def rejecting_states() -> list[tuple[int, list]]:
    """(max_side, states) whose tuples make integers() reject a draw: the
    first side, the second side, a side of a redrawn graph read from a
    stale buffered half, and the edge pick read from a stale buffered half.
    0 is rejected for any span that is not a power of two."""
    rng = np.random.default_rng(4)
    first, second, redrawn, picked = [], [], [], []
    while len(first) < 3:  # the low half of output 0 is 0
        state = crafted_state(0, int(rng.integers(1, 2**32)) << 32, rng)
        assert rejected(next_uint32(generator(state)), 10)
        first.append(state)
    while len(second) < 3:  # its high half is 0
        state = crafted_state(0, int(rng.integers(1, 2**32)), rng)
        g = generator(state)
        g.integers(1, 11)
        assert rejected(next_uint32(g), 10)
        second.append(state)
    while len(redrawn) < 3:
        # max_side 3: the first side is redrawn, so the sides take three
        # halves and the high half of output 1 stays buffered through the
        # edgeless first graph's doubles, to be the redrawn first side
        state = crafted_state(0, int(rng.integers(1, 2**32)) << 32, rng)
        g = generator(state)
        n_left, n_right = g.integers(1, 4), g.integers(1, 4)
        prob = g.uniform(0.2, 0.9)
        if not (g.random((n_left, n_right)) < prob).any():
            redrawn.append(state)
    while len(picked) < 3:
        # max_side 2, a 2 x 2 graph with 3 edges: permutation(2) takes the
        # low half of output 6, and the edge pick, after the weights, its
        # high half
        state = crafted_state(6, int(rng.integers(1, 2**32)), rng)
        g = generator(state)
        if (g.integers(1, 3), g.integers(1, 3)) != (2, 2):
            continue
        prob = g.uniform(0.2, 0.9)
        coins = g.random((2, 2)) < prob
        g.permutation(2)
        g.random(2)
        if np.count_nonzero(coins) == 3:
            assert rejected(next_uint32(g), 3)
            picked.append(state)
    return [(10, first), (10, second), (3, redrawn), (2, picked)]


def test_crafted_rejections_decode_exactly():
    # alone, and among 60 more rows
    for max_side, states in rejecting_states():
        check_states(max_side, states)
        more = [random_state(np.random.default_rng(k)) for k in range(60)]
        check_states(max_side, states + more)


@pytest.mark.parametrize("max_side", [1, 2, 3, 10, 37])
def test_decoded_tuples_equal_the_generator_calls(max_side):
    # 4 seeds x 5000 tuples: 1e5 tuples over the five sizes
    for seed in SEEDS:
        for t0, t1 in SPANS:
            check_seeded(max_side, seed, t0, t1)


@pytest.mark.parametrize("max_side", [37, 100])
def test_blocks_narrower_than_their_orders_decode_exactly(max_side):
    # the shuffle's window of candidates is wider than the block is high
    for seed in SEEDS:
        check_seeded(max_side, seed, 2**32 - 64, 2**32 + 64, block=4)


@pytest.mark.parametrize("max_side", [1, 3, 10, 37])
def test_rows_read_past_their_first_outputs_are_extended(monkeypatch, max_side):
    # 3 outputs up front: every tuple but an edge-first 1 x 1 one reads past them
    monkeypatch.setattr(streams, "_tuple_outputs", lambda left, *rest: np.full_like(left, 3))
    check_seeded(max_side, 23, 2**32 - 300, 2**32 + 300)
    rng = np.random.default_rng(max_side)
    states = [random_state(rng) for _ in range(300)]
    extended = []
    expected = reference_block(max_side, [generator(s) for s in states])
    assert_same_block(decode(max_side, states, 3, extended), expected, max_side)
    assert extended


def test_the_block_size_counts_the_raw_outputs():
    k = _tuple_outputs(10, 10, 10)
    assert k == 2 + 10 * 10 + 10 + 10 + 10 + 8
    assert analysis._tuple_cells(10, 10, 10, own_rows=True) == max(8 * 30 + 2 * 100, k)
    assert analysis._tuple_cells(10, 10, 10, own_rows=False) == 8 * 30


# ---------------------------------------------------------------------------
# mutants: each trap of numpy's Generator, got wrong, must fail the checks
# ---------------------------------------------------------------------------


def fails_the_checks() -> bool:
    """Whether any exactness check above fails, quickest first."""
    checks = [test_crafted_rejections_decode_exactly]
    checks += [lambda m=m: test_decoded_tuples_equal_the_generator_calls(m) for m in (10, 37, 3)]
    for check in checks:
        try:
            check()
        except AssertionError:
            return True
    return False


def stale_buffer(self, rows, width):
    """peek_halves taking the buffered half to be the high half of the
    last output read, which random() breaks."""
    first = 2 * self.pos[rows] - (self.buf[rows] >= 0)
    self.ensure(rows, (first + width + 1) // 2)
    return self.halves[rows[:, None], first[:, None] + np.arange(width)]


def high_half_first(raw):
    return raw.astype(">u8").view(">u4")


def no_rejection(span):
    return np.zeros_like(span)


def shuffle_from_second_to_last(permutations):
    def mutant(out, sizes):
        orders = permutations(out, np.maximum(sizes - 1, 1))
        return np.concatenate([orders, np.full((len(sizes), 1), orders.shape[1])], axis=1)

    return mutant


@pytest.mark.parametrize("name, mutant", [
    ("_Outputs.peek_halves", stale_buffer),
    ("_halves_of", high_half_first),
    ("_rejection_threshold", no_rejection),
    ("_permutations", shuffle_from_second_to_last(streams._permutations)),
], ids=["stale-buffered-half", "high-half-first", "lemire-without-rejection",
        "shuffle-from-L-2"])
def test_each_generator_trap_is_caught(monkeypatch, name, mutant):
    owner, _, attr = name.rpartition(".")
    monkeypatch.setattr(getattr(streams, owner) if owner else streams, attr, mutant)
    assert fails_the_checks()
