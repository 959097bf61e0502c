"""The PITOS test: conditional order-statistic PIT values, per-pair p-values,
Cauchy combination, and the corrected p-value.

Given sorted data x_(1) <= ... <= x_(n) on [0, 1] and a pair sequence, each
pair (i, j) yields u_ij, the conditional CDF of the j-th order statistic
given the i-th evaluated at the data (the marginal CDF when i = j).  Under
the uniform null every u_ij is Uniform(0,1), so p_ij = 2 min(u_ij, 1 - u_ij)
is a valid p-value per pair.  The p_ij are aggregated with the Cauchy
combination and the result is inflated by the 1.15 dependence correction.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .pairs import PASS_SIZE, PairSequence, _sample_size, generate_pairs, pair_shapes

__all__ = [
    "OrderedSample",
    "PairDetail",
    "TestVerdict",
    "conditional_os_cdf",
    "corrected_p_value",
    "pitos_p_value",
    "plan_rows",
    "planned_p_values",
]

# Per-pair p-values are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before the
# Cauchy quantile so ties and boundary data yield finite combination terms.
CLAMP_EPS = 1e-15

# Correction factor applied to the combined p-value; calibrated for the
# default pair sequence.
CORRECTION = 1.15


class OrderedSample:
    """A validated data vector on [0, 1] together with its order statistics.

    Rejects NaN and out-of-range values; ties are kept as-is.
    """

    __slots__ = ("values", "order_statistics", "n")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a non-empty 1-D vector")
        if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError(
                "sample values must lie in [0, 1]; map data through the null "
                "CDF (or a Rosenblatt transform) before testing"
            )
        self.values = arr
        self.order_statistics = np.sort(arr)
        self.n = int(arr.size)

    def __len__(self):
        return self.n


class PairDetail(NamedTuple):
    """Per-pair diagnostics in sequence order."""

    i: np.ndarray
    j: np.ndarray
    u: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one test run.

    For PITOS `statistic` is the combined Cauchy statistic, `p_value` the
    corrected p-value, and `p_uncorrected` the raw Cauchy combination.  For
    the classical tests `statistic` is the raw statistic and `p_value` the
    Monte Carlo p-value from an empirical null built with `b` replicates
    under `seed`.
    """

    test_name: str
    statistic: float
    p_value: float
    n: int
    m: int | None = None
    p_uncorrected: float | None = None
    b: int | None = None
    seed: int | None = None
    detail: PairDetail | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def conditional_os_cdf(n, i, j, x, y):
    """CDF of the j-th order statistic given the i-th at (x, y), sample size n.

    With G the Beta CDF: i = j gives G(y, j, n-j+1); i < j gives
    G((y-x)/(1-x), j-i, n-j+1); i > j gives G(y/x, j, i-j).  Degenerate
    conditioning values (x = 1 with i < j, x = 0 with i > j) force the
    result to 1, since the conditioning event pins the j-th order statistic
    to the boundary.
    """
    n = _sample_size(n)
    if not all(math.isfinite(k) and int(k) == k and 1 <= k <= n for k in (i, j)):
        raise ValueError(f"indices must be integers in 1..{n}, got ({i}, {j})")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("x and y must lie in [0, 1]")
    i, j = int(i), int(j)
    if i == j:
        return float(_sp.betainc(j, n - j + 1, y))
    if i < j:
        if x >= 1.0:
            return 1.0
        ratio = (y - x) / (1.0 - x)
        return float(_sp.betainc(j - i, n - j + 1, min(max(ratio, 0.0), 1.0)))
    if x <= 0.0:
        return 1.0
    return float(_sp.betainc(j, i - j, min(max(y / x, 0.0), 1.0)))


# The combination sums per-pair terms in fixed blocks of 2^20, which fixes the
# summation order; the kernel is elementwise, so it runs in passes of
# PASS_SIZE pairs that keep its temporaries cache resident without changing
# any bit; planned_p_values sums each row as one block (see plan_rows).  The
# kernel allocates none of its temporaries per call: they live in a Scratch
# that its caller keeps (the pair sequence for planned_p_values, one per
# worker for the block loop).  glibc serves an allocation above its mmap
# threshold (128 KB, raised only when a larger mmapped chunk is freed) with
# fresh pages, and trims free heap top beyond twice that threshold, so a
# ~0.5 MB temporary made and freed on every call page-faults on every call.
# Measured with nulls read from files (nothing had freed a 16 MB null-build
# block to raise the threshold): 9.4k-10.1k minor faults per n = 30 study of
# 4 x 400 replicates and 9.1k-10.3k per n = 100 power run of 300; with the
# kept buffers, 2-130 and about 490 (glibc, 2 cores).
_BLOCK = 1 << 20


def _available_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool_thread = threading.local()  # .marked on the threads of a thread_map pool


def thread_map(fn, items, threads):
    """[fn(x) for x in items], on a pool of `threads` threads when there is
    more than one thread and more than one item; results keep item order.
    Called from a thread of another thread_map's pool it runs inline, so
    pools never nest: the outer pool already holds the cores."""
    if threads is None or threads <= 1 or len(items) <= 1 or getattr(_pool_thread, "marked", False):
        return list(map(fn, items))

    def run(item):
        _pool_thread.marked = True  # the pool's threads end with it
        return fn(item)

    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(run, items))


class Scratch:
    """Buffers the u kernel reuses from call to call, owned by its caller.

    get(name, shape, dtype) hands out a C-contiguous view of the named flat
    buffer, which grows when a call needs more than it holds.  The harness's
    planned_p_values calls on one pair sequence share the Scratch objects
    that sequence keeps, and each worker of a verdict's block loop keeps one,
    so the kernel's temporaries are allocated once; see _BLOCK for why that
    matters.  One call at a time: concurrent calls each take their own.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def get(self, name, shape, dtype=float):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _shaped_terms(sorted_x, shapes, terms, u, scratch):
    """Cauchy-combination terms of one pass of pairs against a sorted sample,
    or against each row of an (R, n) block of them, from the pairs'
    PairShapes; `terms` has the pairs' length or shape (R, pairs).

    Per pair, u is one Beta CDF G(ratio, a, b) of a ratio of order statistics:
    the cases of conditional_os_cdf differ only in the shapes, the offset and
    the denominator of the ratio.  A zero denominator (x_(i) = 1 with i < j,
    x_(i) = 0 with i > j) pins the conditional mass, so u = 1.  The term of
    p = 2 min(u, 1 - u) is tan(pi (1 - p - 1/2)); `u`, if not None, gets u.
    The gathers, the denominator and the pinned mask live in the Scratch
    `scratch`; every step writes in place.
    """
    shape = terms.shape
    den = np.take(sorted_x, shapes.i0, axis=-1, out=scratch.get("den", shape), mode="clip")
    ratio = np.take(sorted_x, shapes.j0, axis=-1, out=scratch.get("ratio", shape), mode="clip")
    np.subtract(ratio, den, out=ratio, where=shapes.below)
    # den holds x_(i); make it 1 - x_(i) below, keep x_(i) above, 1 on the diagonal
    np.subtract(1.0, den, out=den, where=shapes.below)
    np.copyto(den, 1.0, where=shapes.diag)
    pinned = np.less_equal(den, 0.0, out=scratch.get("pinned", shape, bool))
    np.copyto(den, 1.0, where=pinned)
    np.divide(ratio, den, out=ratio)
    np.clip(ratio, 0.0, 1.0, out=ratio)
    np.copyto(ratio, 1.0, where=pinned)
    if u is None:
        u = ratio
    _sp.betainc(shapes.a, shapes.b, ratio, out=u)
    np.subtract(1.0, u, out=terms)
    np.minimum(u, terms, out=terms)
    np.multiply(terms, 2.0, out=terms)
    np.subtract(1.0, terms, out=terms)
    np.clip(terms, CLAMP_EPS, 1.0 - CLAMP_EPS, out=terms)
    np.subtract(terms, 0.5, out=terms)
    np.multiply(terms, np.pi, out=terms)
    np.tan(terms, out=terms)
    return terms


def _pair_terms(sorted_x, i_idx, j_idx, n, terms, u=None, scratch=None):
    """Terms of 1-based index pair arrays, in passes of PASS_SIZE pairs:
    each pass builds its pairs' shapes and runs _shaped_terms on `scratch`."""
    if scratch is None:
        scratch = Scratch()
    for lo in range(0, len(terms), PASS_SIZE):
        hi = min(lo + PASS_SIZE, len(terms))
        shapes = pair_shapes(i_idx[lo:hi], j_idx[lo:hi], n)
        _shaped_terms(sorted_x, shapes, terms[lo:hi], None if u is None else u[lo:hi], scratch)
    return terms


def plan_rows(pairs):
    """Rows per planned_p_values call on `pairs`, max(1, PASS_SIZE // U) for
    its U distinct pairs; 0 above one summation block (m > 2^20, n > 11,134),
    where a row's one pairwise sum on the plan is not the block loop's and
    rows go through pitos_p_value."""
    if pairs.m > _BLOCK:
        return 0
    return max(1, PASS_SIZE // len(pairs.plan()[0].a))


def planned_p_values(sorted_rows, pairs):
    """(statistic, p_uncorrected) arrays of an (R, n) block of sorted rows,
    each bitwise the pitos_p_value verdict's of its row when the sequence is
    one summation block (plan_rows, which also gives R, is not 0).

    One _shaped_terms pass evaluates the R x U distinct pairs of the plan
    cached on `pairs` (PairSequence.plan), and each row's terms are gathered
    into sequence order and summed pairwise as one block.  The terms, their
    R x m gather and the kernel's temporaries live in a Scratch borrowed
    from the sequence and handed back, so calls on one sequence reuse the
    same buffers.  Each p is the upper Cauchy tail of its row's statistic,
    taken with math.atan as pitos_p_value takes it, not with a vectorized
    arctan whose bits may differ.
    """
    shapes, inv = pairs.plan()
    rows = len(sorted_rows)
    try:
        scratch = pairs._scratch.pop()  # list.pop is atomic: no two calls share one
    except IndexError:
        scratch = Scratch()
    try:
        terms = _shaped_terms(sorted_rows, shapes, scratch.get("terms", (rows, len(shapes.a))),
                              None, scratch)
        gathered = np.take(terms, inv, axis=1, out=scratch.get("gathered", (rows, pairs.m)),
                           mode="clip")
        statistics = gathered.sum(axis=1) / pairs.m
    finally:
        pairs._scratch.append(scratch)
    return statistics, np.array([_cauchy_tail(s) for s in statistics.tolist()])


def _cauchy_tail(statistic):
    """Upper Cauchy tail, written to avoid the cancellation in 1 - (1/2 + atan/pi)."""
    return 0.5 - math.atan(statistic) / math.pi


def corrected_p_value(p):
    """The corrected p-value min(1, 1.15 p) of an uncorrected Cauchy
    combination; `p` may be a scalar or an array."""
    p_star = np.minimum(1.0, CORRECTION * np.asarray(p, dtype=float))
    return float(p_star) if p_star.ndim == 0 else p_star


def pitos_p_value(sample, pairs=None, *, detail=False):
    """Run the test on a sample against the Uniform(0,1) null.

    Parameters
    ----------
    sample : OrderedSample or array-like
        Data on [0, 1]; array-likes are validated into an OrderedSample.
    pairs : PairSequence, optional
        Defaults to generate_pairs(n).  Must satisfy pairs.n == sample.n.
    detail : bool
        Attach per-pair (i, j, u, p) arrays to the verdict.  Off by default
        since the sequence holds ~10 n ln n entries.

    Returns
    -------
    TestVerdict
        statistic is the mean of the per-pair Cauchy quantiles, p_uncorrected
        the Cauchy combination 1 - F_Cauchy(statistic), and p_value the
        corrected min(1, 1.15 * p_uncorrected) from corrected_p_value.

    Notes
    -----
    Each pair's u, p and Cauchy term come from one kernel pass.  The verdict
    walks fixed blocks of 2^20 pairs, on a pool of one thread per available
    core when there is more than one block (betainc releases the GIL).
    Terms are summed pairwise within a block and the block sums left to
    right, so results are bitwise the same run to run and for any core
    count.  A caller scoring many rows on one sequence of at most 2^20
    pairs has planned_p_values, which gives each row these bits.
    """
    if not isinstance(sample, OrderedSample):
        sample = OrderedSample(sample)
    n = sample.n
    if pairs is None:
        pairs = generate_pairs(n)
    elif not isinstance(pairs, PairSequence):
        raise TypeError("pairs must be a PairSequence")
    if pairs.n != n:
        raise ValueError(f"pair sequence built for n={pairs.n}, sample has n={n}")

    sorted_x = sample.order_statistics
    m = pairs.m
    u_all = np.empty(m) if detail else None
    starts = range(0, m, _BLOCK)
    workers = min(len(starts), _available_cores())  # one block runs inline
    # One terms buffer and one Scratch per worker, reused by every block and
    # pass (see _BLOCK).  Allocated here, on the calling thread: what a pool
    # thread allocates stays in its malloc arena after it exits.
    spare = [(np.empty(min(m, _BLOCK)), Scratch()) for _ in range(workers)]

    def block_sum(lo):
        hi = min(lo + _BLOCK, m)
        terms, scratch = spare.pop()  # never empty: at most `workers` blocks run at once
        u = u_all[lo:hi] if detail else None
        total = _pair_terms(sorted_x, pairs.i[lo:hi], pairs.j[lo:hi], n, terms[: hi - lo], u,
                            scratch).sum()
        spare.append((terms, scratch))
        return float(total)

    total = 0.0
    # left to right in block order, whatever ran them
    for block_total in thread_map(block_sum, starts, workers):
        total += block_total
    statistic = total / m
    p = _cauchy_tail(statistic)

    pair_detail = None
    if detail:
        pair_detail = PairDetail(pairs.i, pairs.j, u_all, 2.0 * np.minimum(u_all, 1.0 - u_all))

    return TestVerdict(
        test_name="PITOS",
        statistic=statistic,
        p_value=corrected_p_value(p),
        n=n,
        m=m,
        p_uncorrected=p,
        detail=pair_detail,
    )
