"""Deterministic Halton points and the index-pair sequence driving the test.

The pair sequence for sample size n has length m = ceil(10 n ln n) + n:
m - n pairs come from the 2-D Halton sequence (bases 2 and 3) warped through
the Beta(0.7, 0.7) inverse CDF and discretized to indices, and the final n
pairs are the diagonal (1,1), ..., (n,n).
"""

import functools
import logging
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .special import beta_cdf, beta_inv_cdf
from .streams import stream

__all__ = ["PairSequence", "generate_pairs", "halton", "pair_count", "random_pairs"]

log = logging.getLogger(__name__)

# Points per pass: uniforms, warp lookup and index write share one pass whose
# temporaries stay in cache.  The u kernel in `core` sub-blocks by it too.
PASS_SIZE = 1 << 16
_TABLE_SIZE = 1 << 16  # digit-reversal table entries: 16 digits in base 2, 10 in base 3

# A Beta-warped point u maps to the index 1 + #{t : F(t/n) < u}; a point this
# close to an edge F(t/n) takes the inverse-CDF path instead (ten times the
# residual bound of beta_inv_cdf, so the two paths agree away from edges).
_EDGE_TOL = 1e-11
_GUIDE_PER_INDEX = 4  # guide-table buckets per index

DEFAULT_WARP = (0.7, 0.7)


def halton(index, base):
    """The `index`-th element of the 1-D Halton sequence with the given base.

    The radical inverse is accumulated as an exact integer fraction and
    rounded once in the final division, so the result is the correctly
    rounded double of the exact rational value.
    """
    i = _positive_int(index, "halton index")
    if int(base) != base or base < 2:
        raise ValueError(f"halton base must be an integer >= 2, got {base!r}")
    num, denom = 0, 1
    while i > 0:
        num = num * base + i % base
        denom *= base
        i //= base
    return num / denom


@functools.lru_cache(maxsize=8)
def _reversal_table(base, digits):
    """rev[v]: the `digits` base-`base` digits of v, least significant first,
    read as an integer; one lookup appends that many digits of the inverse."""
    v = np.arange(base**digits, dtype=np.int64)
    rev = np.zeros_like(v)
    for _ in range(digits):
        rev = rev * base + v % base
        v //= base
    rev.setflags(write=False)
    return rev


def _radical_inverse_fill(out, first_index, base):
    """Fill `out` with radical inverses of first_index..first_index+len-1.

    Digits are reversed in chunks through a lookup table (16 per pass in
    base 2, 10 in base 3), which builds the same integer numerator as one
    digit per pass; it is divided by base**ndigits once, ndigits being the
    digit count of the largest index.  More digits would give the same
    double: trailing zero digits scale the numerator and the divisor alike,
    and both stay exact below 2^53.
    """
    idx = np.arange(first_index, first_index + len(out), dtype=np.int64)
    num, dig, rev = np.zeros_like(idx), np.empty_like(idx), np.empty_like(idx)
    ndigits = _digit_count(first_index + len(out) - 1, base)
    per_pass = 1
    while base ** (per_pass + 1) <= _TABLE_SIZE:
        per_pass += 1
    for done in range(0, ndigits, per_pass):
        digits = min(per_pass, ndigits - done)
        chunk = base**digits
        np.multiply(num, chunk, out=num)
        np.remainder(idx, chunk, out=dig)
        np.take(_reversal_table(base, digits), dig, out=rev)
        np.add(num, rev, out=num)
        np.floor_divide(idx, chunk, out=idx)
    np.divide(num, float(base**ndigits), out=out)


def _digit_count(index, base):
    """Number of base-`base` digits of the positive integer `index`."""
    ndigits = 1
    while base**ndigits <= index:
        ndigits += 1
    return ndigits


def _positive_int(value, what):
    """`value` as an int when it is a whole number >= 1 (not a bool), else a
    ValueError naming `what` and the value."""
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value and value >= 1
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _sample_size(n):
    return _positive_int(n, "sample size")


class PairShapes(NamedTuple):
    """The data-free half of the u kernel for a run of pairs (i, j): 0-based
    indices, the Beta shapes (a, b) of each pair's conditional CDF, and its
    branch (i < j below, i > j above, i = j diag)."""

    i0: np.ndarray
    j0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    below: np.ndarray
    above: np.ndarray
    diag: np.ndarray


def pair_shapes(i, j, n):
    """PairShapes of the 1-based index arrays i, j for sample size n."""
    below = i < j
    above = i > j
    a = np.where(below, j - i, j).astype(float)
    b = np.where(above, i - j, n + 1 - j).astype(float)
    return PairShapes(i - 1, j - 1, a, b, below, above, i == j)


_PLAN_LOCK = threading.Lock()  # threads scoring one sequence build its plan once


def pair_count(n):
    """Sequence length m = ceil(10 n ln n) + n (natural log)."""
    n = _sample_size(n)
    return math.ceil(10.0 * n * math.log(n)) + n


@dataclass(eq=False)
class PairSequence:
    """Ordered index pairs (i_k, j_k), k = 1..m, all within {1, ..., n}.

    The last n entries are always the diagonal (1,1), ..., (n,n).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    warp: tuple = DEFAULT_WARP
    _plan: tuple = field(default=None, repr=False, compare=False)
    # core.Scratch buffers free for planned_p_values calls on this sequence:
    # one per call that ever ran at once, reused by every later call
    _scratch: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.i = np.ascontiguousarray(self.i, dtype=np.int64)
        self.j = np.ascontiguousarray(self.j, dtype=np.int64)
        if self.i.shape != self.j.shape or self.i.ndim != 1:
            raise ValueError("pair index arrays must be 1-D and equally long")
        if len(self.i) and (
            self.i.min() < 1 or self.i.max() > self.n or self.j.min() < 1 or self.j.max() > self.n
        ):
            raise ValueError("pair indices must lie in {1, ..., n}")
        self.i.setflags(write=False)
        self.j.setflags(write=False)

    @property
    def m(self):
        return len(self.i)

    def __len__(self):
        return len(self.i)

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist())

    def dedup(self):
        """(unique_i, unique_j, inverse): the distinct pairs, sorted, and the
        index of each pair among them; plan() is built from it."""
        code = self.i * np.int64(self.n + 1) + self.j
        ucode, inv = np.unique(code, return_inverse=True)
        ui = (ucode // (self.n + 1)).astype(np.int64)
        uj = (ucode % (self.n + 1)).astype(np.int64)
        return ui, uj, inv

    def plan(self):
        """(PairShapes of the distinct pairs, inverse), built once and cached:
        core.planned_p_values evaluates the distinct pairs against a block of
        rows and gathers each row's terms by `inverse`.  The harness scores
        its replicates through it on sequences of at most 2^20 pairs, so
        every replicate scored on one sequence shares the sort and the
        shapes; single verdicts never build it."""
        if self._plan is None:
            with _PLAN_LOCK:
                if self._plan is None:
                    ui, uj, inv = self.dedup()
                    self._plan = (pair_shapes(ui, uj, self.n), inv)
        return self._plan


def _halton_points(out, column, lo):
    """Points lo+1.. of the 2-D Halton sequence: column 0 in base 2, column 1 in base 3."""
    _radical_inverse_fill(out, lo + 1, column + 2)


def _beta_index_map(n, a, b):
    """Index map ceil(n * F^-1(u)) for the Beta(a, b) CDF F, by edge lookup.

    F is monotone, so the index is 1 + #{t in 1..n-1 : F(t/n) < u}.  The
    edges F(t/n) cost n - 1 CDF calls once per sequence; a guide table of
    buckets over [0, 1] gives the count of edges below each point's bucket,
    and a vectorized scan adds the few edges inside the bucket.  Points
    within _EDGE_TOL of an edge, where rounding decides the side, go
    through ceil(n * beta_inv_cdf(u)) itself, so every index is bitwise
    the one the inverse CDF gives.
    """
    edges = np.concatenate(([-np.inf], beta_cdf(np.arange(1, n) / n, a, b), [np.inf]))
    scale = float(_GUIDE_PER_INDEX * n)
    # guide[g] = #{edges whose bucket floor(F * scale) lies below g}
    guide = np.searchsorted(np.floor(edges[1:-1] * scale), np.arange(_GUIDE_PER_INDEX * n + 1))

    below, above = edges[:-1], edges[1:]  # the edges just below and above a count

    def lookup(u, out):
        count = guide[(u * scale).astype(np.intp)]
        upper = above[count]
        pending = np.flatnonzero(upper < u)
        while pending.size:
            step = count[pending] + 1
            count[pending] = step
            nxt = above[step]
            upper[pending] = nxt
            pending = pending[nxt < u[pending]]
        margin = u - below[count]
        np.minimum(margin, np.subtract(upper, u, out=upper), out=margin)
        near = np.flatnonzero(margin < _EDGE_TOL)
        np.add(count, 1, out=out)
        if near.size:
            x = np.asarray(beta_inv_cdf(u[near], a, b), dtype=float)
            out[near] = np.maximum(np.ceil(x * n), 1)

    return lookup


def _assemble(n, index_map, warp_tag, uniforms=_halton_points):
    """Pair sequence from a source of uniforms and an index map.

    `uniforms(out, column, lo)` fills `out` with points lo.. of column i (0)
    or j (1); the default is the 2-D Halton sequence.  `index_map(u, out)`
    writes the index in 1..n of each point.  Column i is filled before
    column j, PASS_SIZE points at a time, so peak memory stays near the
    output arrays.
    """
    m = pair_count(n)
    k = m - n
    if warp_tag != DEFAULT_WARP:
        log.warning(
            "non-default pair sequence: the 1.15 correction was calibrated "
            "for the default Beta(0.7,0.7) warp"
        )
    i = np.empty(m, dtype=np.int64)
    j = np.empty(m, dtype=np.int64)
    for column, idx in enumerate((i, j)):
        for lo in range(0, k, PASS_SIZE):
            u = np.empty(min(PASS_SIZE, k - lo))
            uniforms(u, column, lo)
            index_map(u, idx[lo : lo + len(u)])
    i[k:] = np.arange(1, n + 1, dtype=np.int64)
    j[k:] = i[k:]
    return PairSequence(n=n, i=i, j=j, warp=warp_tag)


# Two sequences: a study alternating between two sample sizes keeps both,
# and a process testing many sizes does not keep every sequence it built.
@functools.lru_cache(maxsize=2)
def _generate_pairs_beta(n, a, b):
    return _assemble(n, _beta_index_map(n, a, b), (a, b))


def generate_pairs(n, warp=DEFAULT_WARP):
    """Pair sequence for sample size n, deterministic in (n, warp).

    `warp` is the (a, b) shape pair of the Beta CDF whose inverse spreads
    the Halton points; the default Beta(0.7, 0.7) is the only supported
    one.  The two most recently used (n, a, b) sequences are memoized; use
    generate_pairs.cache_clear() to force regeneration.  Building a
    non-default sequence logs one warning on the ``pitos.pairs`` logger.
    """
    n = _sample_size(n)
    a, b = warp
    return _generate_pairs_beta(n, float(a), float(b))


generate_pairs.cache_clear = _generate_pairs_beta.cache_clear


def random_pairs(n, seed):
    """Experimental alternative pair source: seeded uniform draws replace the
    Halton points before the same warp and discretization.

    Not a library default; the sequence loses the even coverage and the
    determinism-in-n of the low-discrepancy construction, and it is built as
    a non-default sequence (the dependence correction was calibrated for the
    default), which logs one warning.
    """
    n = _sample_size(n)
    rng = stream(seed, 0xA17)
    return _assemble(
        n,
        _beta_index_map(n, *DEFAULT_WARP),
        ("random-uniform", int(seed)),
        uniforms=lambda out, column, lo: rng.random(out=out),
    )
