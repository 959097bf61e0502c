"""Classical benchmark tests with Monte Carlo p-values from empirical nulls.

Statistics (all reject for large values, data on [0, 1], X_(i) sorted):

  AD    -n - n^-1 sum_i (2i-1) (log X_(i) + log(1 - X_(n-i+1)))
  NB    sum_{k=1,2} (n^-1/2 sum_i pi_k(X_i))^2 with the first two orthonormal
        shifted Legendre polynomials pi_1(x) = sqrt(3)(2x-1),
        pi_2(x) = sqrt(5)(6x^2 - 6x + 1)
  KS    sup_t |F_n(t) - t| = max_i max(i/n - X_(i), X_(i) - (i-1)/n)
  CvM   1/(12n) + sum_i ((2i-1)/(2n) - X_(i))^2
  LRT   sum_i log f1(X_i) for a caller-supplied alternative density f1

p-values use the add-one estimator (1 + #{null >= observed}) / (B + 1)
against B simulated null statistics, which are cached on disk keyed by
(test, n, B, seed); a cache file of another NULL_CACHE_VERSION is rebuilt.
"""

import hashlib
import json
import logging
import math
import os
import secrets
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import OrderedSample, TestVerdict
from .pairs import _sample_size
from .streams import stream, uniform_rows

__all__ = [
    "EmpiricalNull",
    "ad_statistic",
    "build_empirical_null",
    "cvm_statistic",
    "empirical_p_value",
    "ks_statistic",
    "lrt_statistic",
    "nb_statistic",
    "classic_test",
    "CLASSIC_TESTS",
    "VERDICT_NULL_B",
    "resolve_cache_dir",
]

log = logging.getLogger(__name__)

CLASSIC_TESTS = ("ad", "nb", "ks", "cvm")
VERDICT_NULL_B = 100_000  # null draws behind a single verdict's p-value
# Written into every cache file's header; a file with another or no version
# is rebuilt.  Bump it whenever a statistic or the stored layout changes.
NULL_CACHE_VERSION = 1
CACHE_ENV_VAR = "PITOS_CACHE_DIR"
# Row-batched work (a null build, a study's replicates) holds at most this
# many sample values at once.
ROW_BLOCK_VALUES = 1 << 21
# Null builds at or below this n draw their rows with streams.uniform_rows,
# above it with one stream() per replicate; both give the same bits.  Rows
# of a B = 20k build, best of 5 (2 cores, numpy 2.4): uniform_rows was 9.5x
# faster at n = 100, 2.2x at 500, 1.4x at 700, 1.2x at 800 and 0.9x at 900,
# where one-column numpy calls on ~2k-row blocks cost more than the
# Generators they replace.  500 keeps a 2x margin.  (A build of B < ~1000
# rows at n near 500 can lose a few ms.)
UNIFORM_ROWS_MAX_N = 500

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# statistics: public per-sample functions wrap private row-batched kernels


def _ad_batch(sorted_rows):
    n = sorted_rows.shape[1]
    coef = 2.0 * np.arange(1.0, n + 1.0) - 1.0
    with np.errstate(divide="ignore"):
        terms = coef * (np.log(sorted_rows) + np.log(1.0 - sorted_rows[:, ::-1]))
    return -n - terms.sum(axis=1) / n


def _nb_batch(rows):
    n = rows.shape[1]
    t1 = (_SQRT3 * (2.0 * rows - 1.0)).sum(axis=1)
    t2 = (_SQRT5 * (6.0 * rows * rows - 6.0 * rows + 1.0)).sum(axis=1)
    return (t1 * t1 + t2 * t2) / n


def _ks_batch(sorted_rows):
    n = sorted_rows.shape[1]
    i = np.arange(1.0, n + 1.0)
    d_plus = (i / n - sorted_rows).max(axis=1)
    d_minus = (sorted_rows - (i - 1.0) / n).max(axis=1)
    return np.maximum(d_plus, d_minus)


def _cvm_batch(sorted_rows):
    n = sorted_rows.shape[1]
    centers = (2.0 * np.arange(1.0, n + 1.0) - 1.0) / (2.0 * n)
    return 1.0 / (12.0 * n) + ((centers - sorted_rows) ** 2).sum(axis=1)


def ad_statistic(sample):
    """Anderson-Darling statistic; +inf when a value sits exactly at 0 or 1."""
    sample = _as_sample(sample)
    return float(_ad_batch(sample.order_statistics[None, :])[0])


def nb_statistic(sample):
    """Second-order Neyman-Barton smooth statistic."""
    sample = _as_sample(sample)
    return float(_nb_batch(sample.values[None, :])[0])


def ks_statistic(sample):
    """Kolmogorov-Smirnov statistic, the exact sup over the step empirical CDF."""
    sample = _as_sample(sample)
    return float(_ks_batch(sample.order_statistics[None, :])[0])


def cvm_statistic(sample):
    """Cramer-von Mises statistic."""
    sample = _as_sample(sample)
    return float(_cvm_batch(sample.order_statistics[None, :])[0])


def lrt_statistic(sample, alt_log_density):
    """Oracle log-likelihood-ratio statistic sum_i log f1(X_i).

    -inf values from the alternative density are allowed and propagate to a
    -inf statistic.
    """
    sample = _as_sample(sample)
    stat = float(batch_statistics("lrt", sample.values[None], log_density=alt_log_density)[0])
    if math.isnan(stat):
        raise ValueError("alternative log-density produced NaN")
    return stat


def _as_sample(sample):
    return sample if isinstance(sample, OrderedSample) else OrderedSample(sample)


def _lrt_batch(rows, log_density):
    return np.asarray(log_density(rows), dtype=float).sum(axis=1)


# test -> (row-batched kernel, whether the kernel takes sorted rows)
_BATCH = {
    "ad": (_ad_batch, True),
    "nb": (_nb_batch, False),
    "ks": (_ks_batch, True),
    "cvm": (_cvm_batch, True),
    "lrt": (_lrt_batch, False),
}


def batch_statistics(test, rows, sorted_rows=None, log_density=None):
    """Statistics for a (replicates, n) matrix of samples; rows are raw data.
    `log_density` is the lrt alternative's log f1; other tests ignore it."""
    if test not in _BATCH:
        raise ValueError(f"unknown test identifier {test!r}")
    kernel, needs_sort = _BATCH[test]
    if needs_sort:
        rows = np.sort(rows, axis=1) if sorted_rows is None else sorted_rows
    return kernel(rows, log_density) if test == "lrt" else kernel(rows)


def replicate_rows(count, n, draw_block):
    """Yield (lo, draw_block(lo, size)), the (size, n) rows of replicates
    lo..lo+size-1, covering 0..count-1 in blocks of at most
    ROW_BLOCK_VALUES values."""
    step = max(1, ROW_BLOCK_VALUES // n)
    for lo in range(0, count, step):
        yield lo, draw_block(lo, min(step, count - lo))


def stacked(draw, n):
    """A replicate_rows block draw whose row k is draw(lo + k), n values."""

    def draw_block(lo, size):
        rows = np.empty((size, n))
        for k in range(size):
            rows[k] = draw(lo + k)
        return rows

    return draw_block


# ---------------------------------------------------------------------------
# empirical nulls


@dataclass
class EmpiricalNull:
    """Sorted Monte Carlo null statistics for one (test, n) combination."""

    test_name: str
    n: int
    statistics: np.ndarray
    B: int
    seed: int

    def __post_init__(self):
        self.statistics = np.ascontiguousarray(self.statistics, dtype=float)
        if self.statistics.ndim != 1 or self.B != len(self.statistics) or self.B < 1:
            raise ValueError("statistics must be a 1-D array of length B >= 1")
        # comparison, not diff: subtraction of equal infinities would warn
        if not np.all(self.statistics[:-1] <= self.statistics[1:]):
            raise ValueError("null statistics must be sorted nondecreasing")


def resolve_cache_dir(cache_dir=None):
    """Cache directory: explicit argument, else $PITOS_CACHE_DIR, else ~/.cache/pitos."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pitos"


def _cache_path(cache_dir, test, n, B, seed, alternative):
    name = f"{test}_n{n}_B{B}_s{seed}"
    if alternative is not None:
        label = json.dumps([alternative.name, alternative.parameters], sort_keys=True, default=repr)
        name += f"_{hashlib.sha256(label.encode()).hexdigest()[:16]}"
    return Path(cache_dir) / f"{name}.npz"


def build_empirical_null(test, n, B=VERDICT_NULL_B, seed=0, *, alternative=None, cache_dir=None):
    """B null statistics from i.i.d. Uniform(0,1) samples of size n, sorted.

    Deterministic given the seed: replicate r draws its sample from the
    stream derived from (seed, r), so the result is identical no matter how
    replicates are scheduled.  Results are cached on disk keyed by
    (test, n, B, seed).  The lrt null also needs `alternative`, the
    DistributionSpec whose log-density it sums; its file is further keyed
    by the spec's name and full-precision parameters (names keep 6
    significant digits, so two alternatives can print alike).
    """
    n = _sample_size(n)
    if B < 1:
        raise ValueError("B must be >= 1")
    if test not in _BATCH:
        raise ValueError(f"unknown test identifier {test!r}")
    log_density = getattr(alternative, "log_density", None)
    if test == "lrt" and log_density is None:
        name = getattr(alternative, "name", alternative)
        raise ValueError(f"lrt oracle needs an alternative with a log-density, got {name!r}")
    if test != "lrt" and alternative is not None:
        raise ValueError("an alternative is only meaningful for the lrt test")

    cache_dir = resolve_cache_dir(cache_dir)
    path = _cache_path(cache_dir, test, n, B, seed, alternative)
    if path.exists():
        cached = _load_null(path, test, n, B, seed)
        if cached is not None:
            return cached

    stats = np.empty(B)
    # documented stream derivation: one child stream per (seed, replicate_index),
    # the same bits either way; uniform_rows only pays off for short rows
    if n <= UNIFORM_ROWS_MAX_N:
        draw_block = lambda lo, size: uniform_rows(seed, (), lo, size, n)
    else:
        draw_block = stacked(lambda r: stream(seed, r).random(n), n)
    for lo, rows in replicate_rows(B, n, draw_block):
        stats[lo : lo + len(rows)] = batch_statistics(test, rows, log_density=log_density)
    nan_count = int(np.isnan(stats).sum())
    if nan_count:
        raise ValueError(f"{test} null at n={n}: {nan_count}/{B} statistics are NaN")
    stats.sort()
    null = EmpiricalNull(test_name=test, n=n, statistics=stats, B=B, seed=seed)
    _store_null(path, null)
    return null


def _cache_header(test, n, B, seed):
    return {"test": test, "n": n, "B": B, "seed": seed, "version": NULL_CACHE_VERSION}


def _store_null(path, null):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(_cache_header(null.test_name, null.n, null.B, null.seed))
        # a temp file of its own, created exclusively, so concurrent writers
        # of one null never share it; open() keeps the umask-derived mode
        tmp = path.with_name(f"{path.stem}.{secrets.token_hex(8)}.tmp.npz")
        try:
            with open(tmp, "xb") as fh:
                np.savez(fh, header=np.array(header), statistics=null.statistics)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        log.warning("could not write null cache %s: %s", path, exc)


def _load_null(path, test, n, B, seed):
    try:
        with np.load(path, allow_pickle=False) as payload:
            header = json.loads(str(payload["header"]))
            if header != _cache_header(test, n, B, seed):
                return None  # another null, or one from an older format or statistic
            return EmpiricalNull(
                test_name=test, n=n, statistics=payload["statistics"], B=B, seed=seed
            )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # a truncated or empty file is as unreadable as a missing one: rebuild it
        log.warning("ignoring unreadable null cache %s: %s", path, exc)
        return None


def empirical_p_value(null, observed):
    """Upper-tail add-one Monte Carlo p-value (1 + #{null >= obs}) / (B + 1).

    Never exactly 0; ties with null statistics count toward the exceedance
    set.  `observed` may be a scalar or an array; a NaN observation (an
    unscorable sample) gets a NaN p-value.
    """
    stats = null.statistics
    obs = np.asarray(observed, dtype=float)
    exceed = null.B - np.searchsorted(stats, obs, side="left")
    p = np.where(np.isnan(obs), np.nan, (1.0 + exceed) / (null.B + 1.0))
    return float(p) if p.ndim == 0 else p


def classic_test(test, sample, *, null_b=VERDICT_NULL_B, seed=0, cache_dir=None):
    """Statistic plus empirical-null p-value for one of the fixed benchmark tests."""
    if test not in CLASSIC_TESTS:
        raise ValueError(f"unknown test identifier {test!r}")
    sample = _as_sample(sample)
    observed = float(batch_statistics(test, sample.values[None], sample.order_statistics[None])[0])
    null = build_empirical_null(test, sample.n, null_b, seed, cache_dir=cache_dir)
    return TestVerdict(
        test_name=test.upper(),
        statistic=observed,
        p_value=empirical_p_value(null, observed),
        n=sample.n,
        b=null_b,
        seed=seed,
    )
