"""Deterministic RNG stream derivation shared by the simulation code.

Every stream is `default_rng(SeedSequence(entropy=seed, spawn_key=path))`
for a short integer path, so work items can run in any order or any degree
of parallelism and still see identical randomness:

  (scenario_code, distribution_index, 0)       parameter draws
  (scenario_code, distribution_index, 1 + r)   dataset of replicate r
  (r,)                                         empirical-null replicate r
  (0xA17,)                                     random-pair source (random_pairs)
  (0, 0, 0)                                    discrete-PIT draw of `pitos test`

scenario_code 0 means a directly specified distribution (no scenario).
`pitos sample` writes replicate 0's dataset, (0, 0, 1).  The random-pair
path is also null replicate 2583's path, so under one seed the two share
their uniforms.

`uniform_rows(seed, prefix, first, count, n)` gives the uniforms of a run
of consecutive paths without building one Generator per path: row k is
bitwise `stream(seed, *prefix, first + k).random(n)`.  It runs numpy's
SeedSequence mixing and PCG64 (a 128-bit LCG with XSL-RR output, held in
uint64 halves) across all rows at once, one numpy step per column.  Only
the last key word differs between rows, so the seed and prefix words are
mixed once as Python ints and only the last word's hash is vectorized; a
last key of 2^32 or more would take two words and is refused.  The test
suite checks the contract bitwise against `stream()`, and that
`default_rng` still builds a PCG64.
"""

import operator

import numpy as np

__all__ = ["stream", "uniform_rows"]


def _index(value):
    """value as a Python int if it is a non-negative integer, else None."""
    try:
        value = operator.index(value)
    except TypeError:
        return None
    return value if value >= 0 else None


def _check_key(seed, path):
    """(seed, path) as Python ints; a ValueError names the bad argument."""
    key = [_index(v) for v in (seed, *path)]
    if key[0] is None:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if None in key:
        raise ValueError(f"stream path must be non-negative integers, got {path!r}")
    return key[0], tuple(key[1:])


def stream(seed, *path):
    seed, path = _check_key(seed, path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def uniform_rows(seed, prefix, first, count, n):
    """(count, n) float64 block; row k is stream(seed, *prefix, first + k).random(n)."""
    seed, (*prefix, first) = _check_key(seed, (*prefix, first))
    if _index(count) is None or count > 2**32 - first:
        raise ValueError("count must be a non-negative integer keeping keys below 2**32, "
                         f"got first={first}, count={count!r}")
    out = np.empty((count, n))
    state = _seeded_states(seed, prefix, np.arange(first, first + count, dtype=_U64))
    # three buffers serve as the step's scratch, then as the output's
    x, rot, y = scratch = [np.empty(count, dtype=_U64) for _ in range(3)]
    hi, lo = state[:2]
    for j in range(n):
        _pcg64_step(*state, scratch)
        # XSL-RR output: hi ^ lo rotated right by hi's top 6 bits; then 53 bits
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _ROT_SHIFT, out=rot)
        np.right_shift(x, rot, out=y)
        np.negative(rot, out=rot)
        rot &= _LOW6  # (64 - rot) mod 64: no shift by the full width
        x <<= rot
        x |= y
        x >>= _DROP
        np.multiply(x, 2.0**-53, out=out[:, j])
    return out


# ---------------------------------------------------------------------------
# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64, written out so
# that uniform_rows can run them across rows.  The SeedSequence helpers take
# Python ints or uint64 arrays of uint32 values, masking each step to 32 bits.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64 = np.uint64
_M_HI, _M_LO = _U64(_PCG64_MULT >> 64), _U64(_PCG64_MULT & (2**64 - 1))
_M_LO1, _M_LO0 = _U64((_PCG64_MULT >> 32) & _MASK32), _U64(_PCG64_MULT & _MASK32)
_LOW32 = _U64(_MASK32)
# shift counts and masks of the hot loops, as uint64 scalars (faster than Python ints)
_HALF, _ROT_SHIFT, _DROP, _LOW6 = _U64(32), _U64(58), _U64(11), _U64(63)


def _words(value):
    """A non-negative int as SeedSequence splits it: little-endian uint32s."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, hash_const, mult=_MULT_A):
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _mixed_pool(seed, prefix):
    """SeedSequence's pool after every entropy word but the last key word,
    and the hash constant the last word is mixed with."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # padded because a key follows
    for p in prefix:
        entropy += _words(p)
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, hash_const = _hashmix(entropy[i], hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[dst] = _mix(pool[dst], word)
    return pool, hash_const


def _seeded_states(seed, prefix, last):
    """PCG64 state and increment, as uint64 (hi, lo) arrays, of the
    streams keyed (*prefix, last[k]), before their first draw."""
    pool, hash_const = _mixed_pool(seed, prefix)
    for dst in range(_POOL_SIZE):
        word, hash_const = _hashmix(last, hash_const)
        pool[dst] = _mix(pool[dst], word)
    # generate_state(4, uint64): 8 words cycled from the pool, paired little-endian
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        word, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        words.append(word)
    s_hi, s_lo, q_hi, q_lo = (words[2 * i] | (words[2 * i + 1] << _HALF) for i in range(4))
    # srandom: inc = 2 q + 1; state = (inc + s) * M + inc, all mod 2^128
    inc_hi = (q_hi << _U64(1)) | (q_lo >> _U64(63))
    inc_lo = (q_lo << _U64(1)) | _U64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    _pcg64_step(hi, lo, inc_hi, inc_lo, [np.empty_like(lo) for _ in range(3)])
    return [hi, lo, inc_hi, inc_lo]


def _pcg64_step(hi, lo, inc_hi, inc_lo, scratch):
    """(hi, lo) <- (hi, lo) * _PCG64_MULT + (inc_hi, inc_lo) mod 2^128, in
    place on uint64 halves; scratch is three arrays of their length."""
    a0, a1, t = scratch
    # a1 <- high 64 bits of lo * _M_LO, from the 32-bit halves a1:a0 of lo
    # and b1:b0 of _M_LO: with t = a1 b0 + high(a0 b0), it is
    # a1 b1 + high(t) + high(a0 b1 + low(t)); no partial sum overflows
    np.bitwise_and(lo, _LOW32, out=a0)
    np.right_shift(lo, _HALF, out=a1)
    np.multiply(a0, _M_LO0, out=t)
    t >>= _HALF
    t += a1 * _M_LO0
    a0 *= _M_LO1
    a0 += t & _LOW32
    a0 >>= _HALF
    t >>= _HALF
    a1 *= _M_LO1
    a1 += t
    a1 += a0
    # hi <- hi M_lo + lo M_hi + a1 + inc_hi + carry; lo <- lo M_lo + inc_lo
    hi *= _M_LO
    hi += a1
    np.multiply(lo, _M_HI, out=t)
    hi += t
    hi += inc_hi
    lo *= _M_LO
    lo += inc_lo
    np.less(lo, inc_lo, out=t)
    hi += t
