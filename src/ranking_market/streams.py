"""Per-trial random streams for a block of trials at once, bit-exact.

Trial t draws from ``np.random.default_rng((seed, t))``
(``analysis.trial_rng``). Building one Generator per trial costs as much as
the rest of a trial, so ``_trial_weights`` computes the doubles of
``random(n)`` for trials t0..t1-1 with numpy arrays over the trials, and
``_trial_generators`` sets one reused Generator to each trial's starting
state (steps 1 and 2) for draws of other kinds, and for rows of doubles as
long as the property sweep's random tuples take, where one ``random`` call
a trial is faster than the array arithmetic. It retraces numpy's three
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
    permutation, long rows of doubles). See _generators."""
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
