"""Per-trial random streams for a block of trials at once, bit-exact.

Trial t draws from ``np.random.default_rng((seed, t))``
(``analysis.trial_rng``). Building one Generator per trial costs as much as
the rest of a trial, so ``_trial_weights`` returns the doubles of
``random(n)`` for trials t0..t1-1 without doing so. It retraces numpy's
three steps:

1. SeedSequence: the entropy is the 32-bit words of the seed, then those of
   t (least significant first; 0 is one word). They are hashed into a pool
   of four words (hashmix/mix, after O'Neill's randutils ``seed_seq_fe``),
   and ``generate_state(4, uint64)`` hashes the pool into eight words,
   paired little-endian into s0..s3.
2. PCG64 seeding: ``initstate = s0:s1`` and ``inc = (s2:s3 << 1) | 1`` (hi:lo
   as 64-bit halves of a 128-bit number); the state after seeding is
   ``(initstate + inc)·M + inc`` mod 2**128.
3. ``random()``: each draw steps the LCG once, outputs XSL-RR
   ``rotr64(hi ^ lo, hi >> 58)`` and keeps its top 53 bits,
   ``(x >> 11) * 2**-53``. k steps from state x are the jump
   ``M**k·x + C_k·inc`` with ``C_k = 1 + M + ... + M**(k-1)``. A row of n
   is reached in two levels, with k = r·q + c and q about sqrt(n): a coarse
   jump from the start to each of the q states of draws 0..q-1, then a fine
   jump of r·q steps from each of them, one 128-bit product a double.

Step 1 is always array operations over the trials. A row shorter than
``_LONG_ROW`` doubles is then drawn by steps 2 and 3 as array operations
too, into a run's block memory; a longer one by numpy's own ``random`` on
one PCG64 set to the trial's starting state, which costs about the same at
that length and less above it, at the block sizes runs take.

128-bit numbers are held as two uint64 limbs (hi, lo); the high half of a
64x64-bit product is assembled from 32-bit halves. All uint arithmetic wraps,
which is the arithmetic both algorithms are defined in.
"""

from __future__ import annotations

import math
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

# Rows of at least this many doubles are drawn by numpy's own random() (see
# _trial_weights for the measurement)
_LONG_ROW = 201

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


def _limbs(values: list[int], shape: tuple) -> tuple[np.ndarray, ...]:
    """128-bit ints as uint64 arrays of the given shape: hi, lo, and lo's
    32-bit halves."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64).reshape(shape)
    hi = np.array([v >> 64 for v in values], dtype=np.uint64).reshape(shape)
    return tuple(_frozen(a) for a in (hi, lo, lo & _LOW32, lo >> _S32))


def _jump_shapes(n: int, rows: int) -> list[tuple]:
    """(shape, dtype) of the fine jump's uint64 buffers for `rows` rows of n
    doubles: _mul128's three for the powers, [s, q, rows], and three for
    the sums, [s, 1, rows] (_lcg_jumps' s and q); none from _LONG_ROW."""
    if n >= _LONG_ROW:
        return []
    q = math.isqrt(max(n - 1, 0)) + 1
    s = -(-n // q)
    return [((s, q, rows), np.uint64)] * 3 + [((s, 1, rows), np.uint64)] * 3


@lru_cache(maxsize=32)
def _lcg_jumps(n: int):
    """Limbs of (M**k, C_k), C_k = 1 + M + ... + M**(k-1), that reach draw
    k = r·q + c of a row of n, q about sqrt(n): the coarse steps k = c + 2
    for c < q ([q, 1]: draw c of the seeded generator is c + 2 LCG steps
    from initstate + inc) and the fine jumps k = r·q for r < s = ceil(n /
    q) ([s, 1, 1]). Both come by stepping: q + s pairs, not one per draw."""
    q = math.isqrt(max(n - 1, 0)) + 1
    s = -(-n // q)
    powers, sums = [1], [0]
    for _ in range(q + 1):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    jump_powers, jump_sums = [], []
    power, total = 1, 0
    for _ in range(s):
        jump_powers.append(power)
        jump_sums.append(total)
        power, total = power * powers[q] & _MASK128, (total * powers[q] + sums[q]) & _MASK128
    coarse = (_limbs(powers[2:], (q, 1)), _limbs(sums[2:], (q, 1)))
    return coarse, (_limbs(jump_powers, (s, 1, 1)), _limbs(jump_sums, (s, 1, 1)))


def _mul128(hi: np.ndarray, lo: np.ndarray, limbs, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo)·c mod 2**128 for values times constants c that broadcast
    against them: limbs of their broadcast shape, built one partial product
    at a time in three uint64 buffers of that shape (out, if given), two of
    which hold the result. One cross product goes into the middle word
    whole, where it cannot overflow; the other is split in place, so no
    fourth buffer holds its low half."""
    c_hi, c_lo, c_lo0, c_lo1 = limbs
    if out is None:
        shape = np.broadcast(lo, c_lo).shape
        out = [np.empty(shape, dtype=np.uint64) for _ in range(3)]
    mid, out_hi, part = out
    a0 = lo & _LOW32
    a1 = lo >> _S32
    np.multiply(a0, c_lo0, out=mid)
    mid >>= _S32
    mid += np.multiply(a0, c_lo1, out=part)
    np.multiply(a1, c_lo1, out=out_hi)
    np.multiply(a1, c_lo0, out=part)
    mid += part  # + (part & _LOW32), once part's high word is taken back out
    part >>= _S32
    out_hi += part
    part <<= _S32
    mid -= part
    mid >>= _S32
    out_hi += mid
    out_hi += np.multiply(lo, c_hi, out=mid)
    out_hi += np.multiply(hi, c_lo, out=mid)
    return out_hi, np.multiply(lo, c_lo, out=mid)


def _add128(hi, lo, add_hi, add_lo) -> None:
    """(hi, lo) += (add_hi, add_lo) mod 2**128, in place."""
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo


def _trial_weights(seed: int, t0: int, t1: int, n: int, out=None) -> np.ndarray:
    """[t1 - t0, n] float64 whose row r is trial_rng(seed, t0 + r).random(n)
    to the bit: numpy's SeedSequence hashing as array operations over the
    rows, then, for n < _LONG_ROW, PCG64 seeding and random() the same way
    (the steps are in the module docstring; PCG64 is O'Neill 2014's XSL-RR
    128/64), with rows the last axis of every temporary, so that each ufunc
    loops over the block's trials. A longer row is filled by one random()
    call on a PCG64 set to its trial's starting state.

    out, if given, is the fine jump's buffers (_jump_shapes), which hold its
    products and the XSL-RR output, and the weights [t1 - t0, n] to write,
    which may overlay the first buffer (dead by then); without it they are
    allocated afresh, as the coarse limbs always are.

    The jump's work is s·q >= n doubles a row, and its cost a row falls as
    the block grows; the call costs a fixed 3-4 µs a row (most of it
    setting the state) and little more a double. Each writing into a run's
    arena at the block size its count gives, in CPU µs a row on a 2-vCPU VM
    (median of 9 interleaved rounds, each the best of 5 blocks), the jump
    took 2.62 at 173 doubles (blocks of 248) and 2.94 at 200 (217) against
    3.32 and 3.41 for the call (blocks of 431 and 383), 3.54 at 229 (192)
    against 3.46, and 4.84 at 201 (78, a kvv100 property tuple) against
    4.07. So the property sweep's random rows up to max_side 13 (200
    doubles) take the jump, the default max_side of 10 (125) among them,
    and a kvv100 tuple and max_side 14 (229) the call. An estimator's row
    is near the crossover there: at n_right 200 (blocks of 160) the jump
    took 4.53 against 4.09, at 150 (210) 3.36 against 3.96."""
    rows = t1 - t0
    s0, s1, s2, s3 = states = _seed_states(seed, t0, t1)
    buffers, weights = out or (
        [np.empty(shape, dtype) for shape, dtype in _jump_shapes(n, rows)],
        np.empty((rows, n)),
    )
    if n >= _LONG_ROW:
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for row, words in zip(weights, states.T.tolist()):
            bit_generator.state = _start_state(*words)
            rng.random(out=row)
        return weights
    inc_hi = (s2 << _ONE) | (s3 >> _S63)
    inc_lo = (s3 << _ONE) | _ONE
    # initstate + inc, from which draw c is c + 2 LCG steps
    start_lo = s1 + inc_lo
    start_hi = s0 + inc_hi + (start_lo < inc_lo)
    (powers, sums), (jump_powers, jump_sums) = _lcg_jumps(n)
    # coarse: the states of draws 0..q-1, [q, rows]
    hi, lo = _mul128(start_hi, start_lo, powers)
    _add128(hi, lo, *_mul128(inc_hi, inc_lo, sums))
    # fine: draw r·q + c is M**(rq)·state_c + C_rq·inc, [s, q, rows]
    hi, lo = _mul128(hi, lo, jump_powers, buffers[:3])
    _add128(hi, lo, *_mul128(inc_hi, inc_lo, jump_sums, buffers[3:]))
    lo ^= hi  # XSL-RR, into the buffer the products no longer use
    hi >>= _S58
    x = np.right_shift(lo, hi, out=buffers[2])
    np.subtract(_S64, hi, out=hi)
    hi &= _S63
    lo <<= hi
    x |= lo
    x >>= _S11  # random() keeps the top 53 bits
    s, q, _ = x.shape
    # cast, then scaled in place: one multiply casting on the way would
    # take a buffer as large as the weights, up to 64 KiB
    np.copyto(weights, x.reshape(s * q, rows)[:n].T)
    weights *= 2.0**-53
    return weights


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

