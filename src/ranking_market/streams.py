"""Per-trial random streams for a block of trials at once, bit-exact.

Trial t draws from ``np.random.default_rng((seed, t))``
(``analysis.trial_rng``). Building one Generator per trial costs as much as
the rest of a trial, so ``_trial_weights`` computes the doubles of
``random(n)`` for trials t0..t1-1 with numpy arrays over the trials, and
``_trial_generators`` sets one reused Generator to each trial's starting
state (steps 1 and 2) for draws of other kinds. It retraces numpy's three
steps:

1. SeedSequence: the entropy is the 32-bit words of the seed, then those of
   t (least significant first; 0 is one word). They are hashed into a pool
   of four words (hashmix/mix, after O'Neill's randutils ``seed_seq_fe``),
   and ``generate_state(4, uint64)`` hashes the pool into eight words,
   paired little-endian into s0..s3.
2. PCG64 seeding: ``initstate = s0:s1`` and ``inc = (s2:s3 << 1) | 1`` (hi:lo
   as 64-bit halves of a 128-bit number); the state after seeding is
   ``(initstate + inc)·M + inc`` mod 2**128.
3. ``random()``: draw k steps the LCG, ``state_k = M**k·state_0 + C_k·inc``
   with ``C_k = 1 + M + ... + M**(k-1)``, outputs XSL-RR
   ``rotr64(hi ^ lo, hi >> 58)`` and keeps its top 53 bits,
   ``(x >> 11) * 2**-53``.

The property sweep's random tuples (``_random_tuples``) draw integers,
uniforms, doubles and a permutation whose counts vary per tuple. Each
tuple fetches its raw outputs with one ``random_raw`` call, and
``_decode_tuples`` reproduces the Generator's draws from them for the
whole block with array operations:

- ``next_uint32`` returns the low half of a fresh output and buffers the
  high half; the next call returns the buffered half.
- ``random()`` consumes whole outputs and leaves the buffer alone, so a
  half buffered before doubles is returned after them: it is not the high
  half of the output read last.
- ``integers(lo, hi)`` is Lemire's method on ``next_uint32``: with span
  ``hi - lo``, the high word of ``u·span``, redrawing while the low word is
  below ``(2**32 - span) % span``. A span of 1 draws nothing.
- ``permutation(n)`` is Fisher-Yates on ``arange(n)``, for i = n-1 down to 1,
  each j in [0, i] drawn by masked rejection on ``next_uint32``.
- ``uniform(0.2, 0.9)`` is ``0.2 + (0.9 - 0.2)·d`` for the next double d.

References: M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014; D.
Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS, 2019.

128-bit numbers are held as two uint64 limbs (hi, lo); the high half of a
64x64-bit product is assembled from 32-bit halves. All uint arithmetic wraps,
which is the arithmetic both algorithms are defined in.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# for each source word of the pool, the words it is mixed into, in order
_OTHERS = tuple(np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL))

# PCG64's LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_LOW32 = np.uint64(_MASK32)
_ONE, _S11, _S32, _S58, _S63, _S64 = (np.uint64(s) for s in (1, 11, 32, 58, 63, 64))


def _uint32_words(n) -> list[int]:
    """A non-negative int as SeedSequence entropy: its 32-bit words, least
    significant first. Negative values raise the ValueError numpy raises."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _frozen(array: np.ndarray) -> np.ndarray:
    """A cached table is shared by every caller: make it read-only."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=32)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """[calls + 1, 1] uint32: init·mult**k mod 2**32 for k = 0..calls. Hash
    call k xors its value with row k and multiplies it by row k + 1."""
    rows = [init]
    for _ in range(calls):
        rows.append(rows[-1] * mult & _MASK32)
    return _frozen(np.array(rows, dtype=np.uint32)[:, None])


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of constants[:-1]."""
    value = value ^ constants[:-1]
    value *= constants[1:]
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _generate_state(words: list, rows: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for `rows` entropy
    lists of equal length at once, as a [4, rows] uint64 array. words[i] is
    the i-th entropy word: an int shared by every row, or a [rows] uint32
    array."""
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, len(words)))
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    for i, word in enumerate(words[:_POOL]):
        pool[i] = word
    pool = _hashmix(pool, a[: _POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k : k + _POOL]))
        k += _POOL - 1
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(np.asarray(word, dtype=np.uint32), a[k : k + _POOL + 1]))
        k += _POOL
    out = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    out = out.astype(np.uint64)
    return out[0::2] | (out[1::2] << _S32)


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit ints as uint64 arrays: hi, lo, and lo's 32-bit halves."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    return tuple(_frozen(a) for a in (hi, lo, lo & _LOW32, lo >> _S32))


@lru_cache(maxsize=32)
def _lcg_table(n: int):
    """Limbs of M**k and of C_k = 1 + M + ... + M**(k-1) for k = 2..n+1:
    draw k of the seeded generator is k + 1 LCG steps from initstate + inc."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n):
        total = (total * _PCG_MULT + 1) & _MASK128
        power = power * _PCG_MULT & _MASK128
        powers.append(power)
        sums.append(total)
    return _limbs(powers), _limbs(sums)


def _mul128(hi: np.ndarray, lo: np.ndarray, limbs) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo)·c mod 2**128 for per-row values [rows, 1] times per-column
    constants c [n]: [rows, n] limbs."""
    c_hi, c_lo, c_lo0, c_lo1 = limbs
    a0 = lo & _LOW32
    a1 = lo >> _S32
    p01 = a0 * c_lo1
    p10 = a1 * c_lo0
    mid = a0 * c_lo0
    mid >>= _S32
    mid += p01 & _LOW32
    mid += p10 & _LOW32
    out_hi = a1 * c_lo1
    out_hi += p01 >> _S32
    out_hi += p10 >> _S32
    out_hi += mid >> _S32
    out_hi += lo * c_hi
    out_hi += hi * c_lo
    return out_hi, lo * c_lo


def _pcg64_outputs(state: np.ndarray, table) -> np.ndarray:
    """PCG64 seeded with each column of state (generate_state's four words)
    and then n raw outputs, for n the length of table: [rows, n] uint64."""
    s0, s1, s2, s3 = state[:, :, None]
    inc_hi = (s2 << _ONE) | (s3 >> _S63)
    inc_lo = (s3 << _ONE) | _ONE
    # initstate + inc, from which draw k is k + 1 LCG steps
    start_lo = s1 + inc_lo
    start_hi = s0 + inc_hi + (start_lo < inc_lo)
    powers, sums = table
    hi, lo = _mul128(start_hi, start_lo, powers)
    inc_part_hi, inc_part_lo = _mul128(inc_hi, inc_lo, sums)
    lo += inc_part_lo
    hi += inc_part_hi
    hi += lo < inc_part_lo
    lo ^= hi  # XSL-RR
    hi >>= _S58
    x = lo >> hi
    x |= lo << ((_S64 - hi) & _S63)
    return x


def _doubles(raw: np.ndarray) -> np.ndarray:
    """random()'s doubles of raw outputs, their top 53 bits (raw is shifted
    in place)."""
    raw >>= _S11
    return raw * 2.0**-53


def _seed_states(seed: int, t0: int, t1: int) -> np.ndarray:
    """[4, t1 - t0] uint64: column r is SeedSequence((seed, t0 + r))
    .generate_state(4, np.uint64), the words that seed trial t0 + r's PCG64.

    The entropy of (seed, t) is the seed's words followed by t's, so rows
    whose t has a different number of words are hashed apart: the range is
    cut at every multiple of 2**32, below which t's words above the lowest
    are the same for every row.
    """
    seed_words = _uint32_words(seed)
    _uint32_words(t0)  # a negative trial index raises as trial_rng does
    parts = []
    t = t0
    while t < t1:
        high = t >> 32
        end = min(t1, (high + 1) << 32)
        low = np.arange(end - t, dtype=np.uint32) + np.uint32(t & _MASK32)
        words = seed_words + [low] + (_uint32_words(high) if high else [])
        parts.append(_generate_state(words, end - t))
        t = end
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1) if parts else np.empty((4, 0), dtype=np.uint64)


def _trial_weights(seed: int, t0: int, t1: int, n: int) -> np.ndarray:
    """[t1 - t0, n] float64 whose row r is trial_rng(seed, t0 + r).random(n)
    to the bit, computed for all rows at once: numpy's SeedSequence hashing,
    PCG64 seeding and random() as array operations over the rows (the steps
    are in the module docstring; PCG64 is O'Neill 2014's XSL-RR 128/64)."""
    return _doubles(_pcg64_outputs(_seed_states(seed, t0, t1), _lcg_table(n)))


def _trial_generators(seed: int, t0: int, t1: int):
    """Yield, for t = t0..t1-1, a Generator in the state trial_rng(seed, t)
    starts in, for draws that _trial_weights does not batch (integers,
    permutation, ...). See _generators."""
    return _generators(_seed_states(seed, t0, t1))


def _start_state(s0: int, s1: int, s2: int, s3: int) -> dict:
    """The state, for PCG64's ``state`` setter, of a PCG64 seeded with
    generate_state's four words: ``(s0:s1 + inc)·M + inc`` with ``inc =
    (s2:s3 << 1) | 1``."""
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _generators(states: np.ndarray):
    """Yield, for each column of states (_seed_states' words), a Generator
    in the state a PCG64 seeded with them starts in. One Generator is
    reused, so the draws of one column must be made before the next one is
    yielded."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for words in states.T.tolist():
        bit_generator.state = _start_state(*words)
        yield rng


# ---------------------------------------------------------------------------
# Random property-sweep tuples, decoded from raw PCG64 outputs
# ---------------------------------------------------------------------------

# a random tuple's graph has edge probability uniform(0.2, 0.9)
_PROB_LOW, _PROB_HIGH = 0.2, 0.9


def _tuple_outputs(n_left, n_right, max_side: int):
    """The raw outputs fetched up front for a random tuple with these sides:
    one for both sides, one for the edge probability, the coins, two 32-bit
    draws per shuffle step, the weights and the edge pick, and max_side + 8
    to spare for rejections. A row that needs more (a redraw, a long run of
    rejections) is extended."""
    return 2 + n_left * n_right + n_left + n_right + max_side + 8


def _halves_of(raw: np.ndarray) -> np.ndarray:
    """Each output's 32-bit halves, the low half first, the order in which
    next_uint32 hands them out: [2N] uint32."""
    return raw.astype("<u8", copy=False).view("<u4")


def _double_limits(prob: np.ndarray) -> np.ndarray:
    """The raw outputs x with _doubles(x) < prob are those below the
    returned uint64: (x >> 11) < prob·2**53 holds for the integer x >> 11
    exactly when it is below the ceiling (prob < 1)."""
    return np.ceil(prob * 2.0**53).astype(np.uint64) << _S11


def _rejection_threshold(span: np.ndarray) -> np.ndarray:
    """Lemire's rejection threshold for integers(0, span): a 32-bit draw u
    is redrawn while the low word of u·span is below (2**32 - span) % span."""
    return (np.uint64(1 << 32) - span) % span


class _Outputs:
    """The raw PCG64 outputs of a block of Generators, row b's first have[b]
    outputs in raw[b] (past them, unread filler), and each
    row's read state as the Generator keeps it: pos, the next unread
    output, and buf, the index into the row's halves of a buffered 32-bit
    half, or -1. ``start(row)`` returns a Generator in a row's starting
    state, for reads past the outputs held."""

    def __init__(self, raw: np.ndarray, have: np.ndarray, start):
        self.raw = raw
        self.halves = _halves_of(raw)
        self.have = np.array(have, dtype=np.intp)
        self.start = start
        self.pos = np.zeros(len(raw), dtype=np.intp)
        self.buf = np.full(len(raw), -1, dtype=np.intp)

    def ensure(self, rows: np.ndarray, need: np.ndarray) -> None:
        """Hold at least need[k] outputs of row rows[k]."""
        short = need > self.have[rows]
        if not short.any():
            return
        width = self.raw.shape[1]
        if need.max() > width:
            width = max(2 * width, int(need.max()))
            grown = np.empty((len(self.raw), width), dtype=np.uint64)
            grown[:, : self.raw.shape[1]] = self.raw
            self.raw = grown
        for row in rows[short].tolist():
            have = int(self.have[row])
            bit_generator = self.start(row).bit_generator
            bit_generator.advance(have)
            self.raw[row, have:] = bit_generator.random_raw(width - have)
            self.have[row] = width
        self.halves = _halves_of(self.raw)

    def take_outputs(self, rows: np.ndarray, counts) -> np.ndarray:
        """Consume counts whole outputs of each row, as random() does (a
        buffered half stays buffered), and return the flat index into raw
        of each run's first output."""
        first = self.pos[rows]
        self.pos[rows] = end = first + counts
        self.ensure(rows, end)
        return rows * self.raw.shape[1] + first

    def peek_halves(self, rows: np.ndarray, width: int) -> np.ndarray:
        """[len(rows), width] uint32: the next `width` next_uint32 draws of
        each row, not consumed: the buffered half, if any, then the halves
        of the unread outputs."""
        buffered = self.buf[rows] >= 0
        first = 2 * self.pos[rows] - buffered
        self.ensure(rows, (first + width + 1) // 2)
        cols = first[:, None] + np.arange(width)
        cols[:, 0] = np.where(buffered, self.buf[rows], cols[:, 0])
        return self.halves[rows[:, None], cols]

    def take_halves(self, rows: np.ndarray, counts) -> None:
        """Consume counts next_uint32 draws of each row: the buffered half
        first, then fresh outputs, the low half and then the high half,
        which stays buffered when the low half is the last one taken."""
        buf = self.buf[rows]
        pos = self.pos[rows]
        fresh = np.maximum(counts - (buf >= 0), 0)
        self.buf[rows] = np.where(fresh % 2 == 1, 2 * pos + fresh, np.where(counts > 0, -1, buf))
        self.pos[rows] = pos + (fresh + 1) // 2


def _integers(out: _Outputs, rows: np.ndarray, span, count: int) -> np.ndarray:
    """[len(rows), count]: `count` draws of integers(0, span) per row, span
    > 1 a scalar or one per row: Lemire's method on next_uint32, the high
    word of u·span unless the draw is rejected (_rejection_threshold)."""
    span = np.asarray(span, dtype=np.uint64)[..., None]  # [1] or [len(rows), 1]
    threshold = _rejection_threshold(span)
    scaled = out.peek_halves(rows, count) * span
    if not ((scaled & _LOW32) < threshold).any():
        out.take_halves(rows, count)
        return (scaled >> _S32).astype(np.intp)
    span, threshold = (np.broadcast_to(a, (len(rows), 1)) for a in (span, threshold))
    values = np.empty((len(rows), count), dtype=np.intp)
    for k in range(count):  # a rejection: one draw at a time
        todo = np.arange(len(rows))
        while len(todo):
            scaled = out.peek_halves(rows[todo], 1) * span[todo]
            out.take_halves(rows[todo], 1)
            values[todo, k] = (scaled >> _S32)[:, 0]
            todo = todo[((scaled & _LOW32) < threshold[todo])[:, 0]]
    return values


# the most cells of a ragged run that are indexed at once, so that the
# index arrays stay small however large one graph is
_CHUNK = 1 << 14


def _pieces(cells: np.ndarray):
    """Cut a ragged run, row k of cells[k] cells and the rows one after
    another, into pieces of at most _CHUNK cells. Yield, for each piece, its
    first cell's place in the run and each of its cells' row and index
    within that row."""
    ends = np.cumsum(cells)
    starts = ends - cells
    total = int(ends[-1])
    for c0 in range(0, total, _CHUNK):
        c1 = min(c0 + _CHUNK, total)
        k0, k1 = np.searchsorted(ends, (c0, c1 - 1), side="right")
        part = np.minimum(ends[k0 : k1 + 1], c1) - np.maximum(starts[k0 : k1 + 1], c0)
        owner = np.repeat(np.arange(k0, k1 + 1), part)
        yield c0, owner, np.arange(c0, c1) - starts[owner]


def _graphs(out: _Outputs, max_side: int):
    """Each row's graph, redrawn until it has an edge: n_left and n_right =
    integers(1, max_side + 1), p = uniform(0.2, 0.9), coins =
    random((n_left, n_right)) < p, read as the raw outputs below the limit
    of p (_double_limits). Only each graph's own coins are read, as one
    ragged run over the rows, a piece at a time (_pieces). Returns n_left,
    n_right, the edge counts and the edges [B, L, R] bool, each row's graph
    in its top left n_left x n_right corner, padded to the largest graph.
    """
    n_rows = len(out.have)
    n_left = np.ones(n_rows, dtype=np.intp)
    n_right = np.ones(n_rows, dtype=np.intp)
    rounds = []  # each round's rows, their sides and their coins
    todo = np.arange(n_rows)
    while len(todo):
        if max_side > 1:
            left, right = (_integers(out, todo, max_side, 2) + 1).T
        else:  # integers(1, 2) draws nothing
            left = right = np.ones(len(todo), dtype=np.intp)
        at = out.take_outputs(todo, 1)
        u = _doubles(np.take(out.raw, at))
        limit = _double_limits(_PROB_LOW + (_PROB_HIGH - _PROB_LOW) * u)
        cells = left * right
        begin = out.take_outputs(todo, cells)
        run = np.empty(int(cells.sum()), dtype=bool)
        for c0, owner, index in _pieces(cells):
            coins = np.take(out.raw, begin[owner] + index)
            np.less(coins, limit[owner], out=run[c0 : c0 + len(coins)])
        n_left[todo], n_right[todo] = left, right
        rounds.append((todo, left, right, run))
        todo = todo[~np.logical_or.reduceat(run, np.cumsum(cells) - cells)]
    # the frame holds every round's graphs; a redrawn row's next graph
    # overwrites its edgeless one
    size_l = max(int(left.max()) for _, left, _, _ in rounds)
    size_r = max(int(right.max()) for _, _, right, _ in rounds)
    edges = np.empty((n_rows, size_l, size_r), dtype=bool)
    for todo, left, right, run in rounds:
        corner = (np.arange(size_l) < left[:, None])[:, :, None]
        corner = corner & (np.arange(size_r) < right[:, None])[:, None, :]
        drawn = np.zeros_like(corner)
        drawn[corner] = run  # row by row, each row-major
        edges[todo] = drawn
    edges = edges[:, : n_left.max(), : n_right.max()]
    return n_left, n_right, np.count_nonzero(edges, axis=(1, 2)), edges


@lru_cache(maxsize=8)
def _shuffle_masks(n: int) -> np.ndarray:
    """[n] uint32: for the step i < n of a shuffle, the smallest all-ones
    mask >= i."""
    return _frozen(np.array([(1 << i.bit_length()) - 1 for i in range(n)], dtype=np.uint32))


def _permutations(out: _Outputs, sizes: np.ndarray) -> np.ndarray:
    """permutation(n) for each row's size n, padded: [B, max n], positions
    >= n hold their index. Generator.permutation runs Fisher-Yates on
    arange(n): for i = n-1 down to 1 it draws j in [0, i] by masked
    rejection (the first next_uint32 draw whose low bits under the smallest
    all-ones mask >= i are at most i) and swaps positions i and j.

    The draws are read as a window of candidate halves and tried one
    candidate at a time for all rows at once, then the swaps are made one
    step at a time for all rows at once."""
    n_rows, n_max = len(sizes), int(sizes.max())
    if n_max == 1:
        return np.zeros((n_rows, 1), dtype=np.intp)
    rows = np.arange(n_rows)
    masks = _shuffle_masks(n_max)
    width = 2 * n_max + 8
    while True:
        cands = np.ascontiguousarray(out.peek_halves(rows, width).T)  # [W, B]
        # the step each row is at: a row at step 0 takes its next candidate
        # (a masked draw of 0 is at most 0) and then stays at -1, where
        # none is at most i
        i = sizes - 1
        accept = np.zeros((width, n_rows), dtype=bool)
        for k in range(width):
            np.less_equal(cands[k] & masks.take(i), i, out=accept[k])
            i -= accept[k]
            if k >= n_max - 2 and i.max() <= 0:
                break
        else:  # a row ran out of candidates
            width *= 2
            continue
        break
    # the step each candidate was tried for, below 1 past a row's last step
    tried = sizes - 1 - np.cumsum(accept, axis=0) + accept
    taken = tried > 0
    out.take_halves(rows, np.count_nonzero(taken, axis=0))
    # j[i]: the position step i swaps with; i itself for a step not taken
    j = np.tile(np.arange(n_max)[:, None], (1, n_rows))
    k, r = np.nonzero(accept & taken)
    steps = tried[k, r]
    j[steps, r] = cands[k, r] & masks[steps]
    orders = np.tile(np.arange(n_max)[:, None], (1, n_rows))  # [max n, B]
    cells = orders.ravel()
    for step in range(n_max - 1, 0, -1):
        swapped = j[step] * n_rows + rows
        taken = cells[swapped]
        cells[swapped] = orders[step]
        orders[step] = taken
    return np.ascontiguousarray(orders.T)


def _tails(out: _Outputs, n_left, n_right, n_edges):
    """The draws after each row's graph, for the whole block at once: the
    arrival orders [B, L] (_permutations), the weights [B, R] = random(
    n_right), 0 past it, and the edge picks, integers(n_edges)."""
    n_rows, size_r = len(n_left), int(n_right.max())
    orders = _permutations(out, n_left)
    cols = out.take_outputs(np.arange(n_rows), n_right)[:, None] + np.arange(size_r)
    weights = _doubles(np.take(out.raw, cols, mode="clip"))
    weights[np.arange(size_r) >= n_right[:, None]] = 0.0
    pick = np.zeros(n_rows, dtype=np.intp)
    several = np.flatnonzero(n_edges > 1)
    if len(several):
        pick[several] = _integers(out, several, n_edges[several], 1)[:, 0]
    return orders, weights, pick


def _decode_tuples(raw: np.ndarray, have: np.ndarray, max_side: int, start):
    """Decode random property tuples from raw PCG64 outputs, one row per
    tuple: raw[b, :have[b]] holds the first outputs of tuple b's Generator
    and ``start(b)`` returns a Generator in its starting state. Each row makes
    the draws of one tuple, in order: the graph (_graphs), order =
    permutation(n_left), weights = random(n_right) and the edge, the
    integers(n_edges)-th set coin in row-major order (_tails).

    Returns the block padded to its largest graph, L x R: the neighbor rows
    [B, L, R] (buyer b's row holds item r where (b, r) is an edge and the
    padding item R elsewhere), the arrival orders [B, L] (padding buyers
    arrive last), the weights [B, R] (0 past n_right), the buyers and the
    items. The raw outputs are let go before the rows are built, when the
    caller holds no other reference to them.
    """
    out = _Outputs(raw, have, start)
    del raw
    n_left, n_right, n_edges, edges = _graphs(out, max_side)
    orders, weights, pick = _tails(out, n_left, n_right, n_edges)
    del out
    n_rows, size_l, size_r = edges.shape
    # the picked edge: the set cells are in row-major order, row by row
    found = np.flatnonzero(edges)
    picked = found[np.cumsum(n_edges) - n_edges + pick] - np.arange(n_rows) * (size_l * size_r)
    del found
    buyers, items = np.divmod(picked, size_r)
    return np.where(edges, np.arange(size_r), size_r), orders, weights, buyers, items


def _raw_outputs(states: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[B, max count] uint64: row b's first counts[b] entries are the first
    raw outputs of a PCG64 seeded with column b of states, one random_raw
    call each; the rest is unread filler."""
    raw = np.empty((len(counts), counts.max()), dtype=np.uint64)
    for row, rng, count in zip(raw, _generators(states), counts.tolist()):
        row[:count] = rng.bit_generator.random_raw(count)
    return raw


def _random_tuples(max_side: int, seed: int, t0: int, t1: int):
    """Random property tuples t0..t1-1 in _decode_tuples' block form, each
    drawn exactly as trial_rng(seed, t) would draw it, decoded for the whole
    block at once. Each tuple makes one random_raw call on the Generator
    _generators sets to its starting state, of _tuple_outputs for the sides
    its first output gives, computed from the block's seed states (a
    rejected side only misjudges the count). A row that needs more is
    extended from a Generator set to its starting state and advanced past
    those held."""
    states = _seed_states(seed, t0, t1)
    halves = _halves_of(_pcg64_outputs(states, _lcg_table(1))[:, 0]).reshape(-1, 2)
    left, right = (halves * np.uint64(max_side) >> _S32).astype(np.intp).T + 1
    counts = _tuple_outputs(left, right, max_side)
    spare = np.random.Generator(np.random.PCG64(0))

    def start(row: int) -> np.random.Generator:
        spare.bit_generator.state = _start_state(*states[:, row].tolist())
        return spare

    return _decode_tuples(_raw_outputs(states, counts), counts, max_side, start)
