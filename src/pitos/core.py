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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .pairs import PASS_SIZE, PairSequence, generate_pairs

__all__ = [
    "OrderedSample",
    "PairDetail",
    "TestVerdict",
    "conditional_os_cdf",
    "corrected_p_value",
    "pitos_p_value",
]

# Per-pair p-values are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before the
# Cauchy quantile so ties and boundary data yield finite combination terms.
CLAMP_EPS = 1e-15

# Correction factor applied to the combined p-value; calibrated for the
# default pair sequence.
CORRECTION = 1.15

# Deduplicate repeated pairs only while the sequence is short enough for
# duplicates to matter; past this, pairs are essentially all distinct and
# the dedup sort costs more than it saves.
_DEDUP_LIMIT = 1_000_000


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
    if int(i) != i or int(j) != j or not (1 <= i <= n and 1 <= j <= n):
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
# summation order; u is elementwise, so the kernel runs in passes of
# PASS_SIZE pairs that keep its temporaries cache resident without changing
# any bit.  Small passes also keep what a pool thread's malloc arena retains
# small.
_BLOCK = 1 << 20


def _available_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items, threads):
    """[fn(x) for x in items], on a pool of `threads` threads when there is
    more than one thread and more than one item; results keep item order."""
    if threads is None or threads <= 1 or len(items) <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))


def _conditional_u_block(sorted_x, i_idx, j_idx, n, out):
    """u values for index pair arrays against one sorted sample, into `out`.

    Every pair is one Beta CDF G(ratio, a, b) of a ratio of order statistics:
    the cases of conditional_os_cdf differ only in the shapes, the offset
    and the denominator of the ratio.  A zero denominator (x_(i) = 1 with
    i < j, x_(i) = 0 with i > j) pins the conditional mass, so u = 1.
    """
    for lo in range(0, len(out), PASS_SIZE):
        hi = min(lo + PASS_SIZE, len(out))
        i, j = i_idx[lo:hi], j_idx[lo:hi]
        xi = sorted_x[i - 1]
        below = i < j
        above = i > j
        a = np.where(below, j - i, j).astype(float)
        b = np.where(above, i - j, n + 1 - j).astype(float)
        den = np.where(below, 1.0 - xi, np.where(above, xi, 1.0))
        pinned = den <= 0.0
        den[pinned] = 1.0
        ratio = sorted_x[j - 1]
        np.subtract(ratio, np.where(below, xi, 0.0), out=ratio)
        np.divide(ratio, den, out=ratio)
        np.clip(ratio, 0.0, 1.0, out=ratio)
        ratio[pinned] = 1.0
        _sp.betainc(a, b, ratio, out=out[lo:hi])
    return out


def _combination_terms(u_block, out):
    """Cauchy-quantile terms tan(pi (1 - p - 1/2)), p = 2 min(u, 1 - u), in `out`."""
    np.subtract(1.0, u_block, out=out)
    np.minimum(u_block, out, out=out)
    np.multiply(out, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    np.clip(out, CLAMP_EPS, 1.0 - CLAMP_EPS, out=out)
    np.subtract(out, 0.5, out=out)
    np.multiply(out, np.pi, out=out)
    np.tan(out, out=out)
    return out


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
    The sequence is walked in fixed blocks of 2^20 pairs.  Each block's u
    values are gathered from the u of the distinct pairs when the sequence
    is short enough for repeats to occur (m <= 1e6, always one block), and
    evaluated straight from the kernel otherwise; either way u is the same
    elementwise value.  Sequences of more than one block are evaluated on a
    thread pool with one worker per available core (betainc releases the
    GIL).  The per-pair terms are summed pairwise within a block and the
    block sums left to right in block order, so results are bitwise the same
    run to run and for any core count.
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
    dedup = m <= _DEDUP_LIMIT
    if dedup:
        ui, uj, inv = pairs.dedup()
        u_unique = _conditional_u_block(sorted_x, ui, uj, n, np.empty(len(ui)))
    u_all = np.empty(m) if detail else None
    starts = range(0, m, _BLOCK)
    # one block (every m <= 2^20, so every dedup sequence) runs inline
    workers = min(len(starts), _available_cores())
    # One (u, terms) buffer pair per worker, allocated here: memory a pool
    # thread allocates stays with that thread's malloc arena after it exits.
    size = min(m, _BLOCK)
    spare = [(None if detail else np.empty(size), np.empty(size)) for _ in range(workers)]

    def block_sum(lo):
        hi = min(lo + _BLOCK, m)
        buffers = spare.pop()  # never empty: at most `workers` blocks run at once
        u_buf, terms = buffers
        u = u_all[lo:hi] if detail else u_buf[: hi - lo]
        if dedup:
            np.take(u_unique, inv[lo:hi], out=u)
        else:
            _conditional_u_block(sorted_x, pairs.i[lo:hi], pairs.j[lo:hi], n, u)
        total = float(_combination_terms(u, terms[: hi - lo]).sum())
        spare.append(buffers)
        return total

    total = 0.0
    # left to right in block order, whatever ran them
    for block_total in thread_map(block_sum, starts, workers):
        total += block_total
    statistic = total / m

    # upper Cauchy tail, written to avoid the cancellation in 1 - (1/2 + atan/pi)
    p = 0.5 - math.atan(statistic) / math.pi

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
