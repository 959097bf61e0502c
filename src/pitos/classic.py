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
(test, n, B, seed).
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
from .streams import stream

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
    "DEFAULT_NULL_B",
    "resolve_cache_dir",
]

log = logging.getLogger(__name__)

CLASSIC_TESTS = ("ad", "nb", "ks", "cvm")
DEFAULT_NULL_B = 100_000
CACHE_ENV_VAR = "PITOS_CACHE_DIR"

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
    vals = np.asarray(alt_log_density(sample.values), dtype=float)
    if np.any(np.isnan(vals)):
        raise ValueError("alternative log-density produced NaN")
    return float(vals.sum())


def _as_sample(sample):
    return sample if isinstance(sample, OrderedSample) else OrderedSample(sample)


_BATCH = {"ad": _ad_batch, "nb": _nb_batch, "ks": _ks_batch, "cvm": _cvm_batch}
_NEEDS_SORT = {"ad": True, "nb": False, "ks": True, "cvm": True}


def batch_statistics(test, rows, sorted_rows=None):
    """Statistics for a (replicates, n) matrix of samples; rows are raw data."""
    if test not in _BATCH:
        raise ValueError(f"unknown test identifier {test!r}")
    if _NEEDS_SORT[test]:
        if sorted_rows is None:
            sorted_rows = np.sort(rows, axis=1)
        return _BATCH[test](sorted_rows)
    return _BATCH[test](rows)


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


def _cache_path(cache_dir, test, n, B, seed, label):
    name = f"{test}_n{n}_B{B}_s{seed}"
    if label is not None:
        digest = hashlib.sha256(label.encode()).hexdigest()[:16]
        name += f"_{digest}"
    return Path(cache_dir) / f"{name}.npz"


def _replicate_rng(seed, r):
    # documented stream derivation: one child stream per (seed, replicate_index)
    return stream(seed, r)


def build_empirical_null(
    test,
    n,
    B=DEFAULT_NULL_B,
    seed=0,
    *,
    alt_log_density=None,
    label=None,
    cache_dir=None,
):
    """B null statistics from i.i.d. Uniform(0,1) samples of size n, sorted.

    Deterministic given the seed: replicate r draws its sample from the
    stream derived from (seed, r), so the result is identical no matter how
    replicates are scheduled.  Results are cached on disk keyed by
    (test, n, B, seed) plus, for the LRT, a caller-supplied label
    fingerprinting the alternative density.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if test == "lrt":
        if alt_log_density is None:
            raise ValueError("lrt null requires alt_log_density")
    elif test not in _BATCH:
        raise ValueError(f"unknown test identifier {test!r}")
    elif alt_log_density is not None:
        raise ValueError("alt_log_density is only meaningful for the lrt test")

    cache_dir = resolve_cache_dir(cache_dir)
    path = _cache_path(cache_dir, test, n, B, seed, label)
    if path.exists():
        cached = _load_null(path, test, n, B, seed)
        if cached is not None:
            return cached

    chunk = max(1, min(B, (1 << 21) // max(n, 1)))
    stats = np.empty(B)
    for lo in range(0, B, chunk):
        c = min(chunk, B - lo)
        rows = np.empty((c, n))
        for r in range(c):
            rows[r] = _replicate_rng(seed, lo + r).random(n)
        if test == "lrt":
            vals = np.asarray(alt_log_density(rows), dtype=float)
            stats[lo : lo + c] = vals.sum(axis=1)
        else:
            stats[lo : lo + c] = batch_statistics(test, rows)
    stats.sort()
    null = EmpiricalNull(test_name=test, n=n, statistics=stats, B=B, seed=seed)
    _store_null(path, null)
    return null


def _store_null(path, null):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {"test": null.test_name, "n": null.n, "B": null.B, "seed": null.seed}
        )
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
            if header != {"test": test, "n": n, "B": B, "seed": seed}:
                return None
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
    set.  `observed` may be a scalar or an array.
    """
    stats = null.statistics
    obs = np.asarray(observed, dtype=float)
    exceed = null.B - np.searchsorted(stats, obs, side="left")
    p = (1.0 + exceed) / (null.B + 1.0)
    return float(p) if p.ndim == 0 else p


def classic_test(test, sample, *, null_b=DEFAULT_NULL_B, seed=0, cache_dir=None):
    """Statistic plus empirical-null p-value for one of the fixed benchmark tests."""
    if test not in CLASSIC_TESTS:
        raise ValueError(f"unknown test identifier {test!r}")
    sample = _as_sample(sample)
    stat_fn = {"ad": ad_statistic, "nb": nb_statistic, "ks": ks_statistic, "cvm": cvm_statistic}
    observed = stat_fn[test](sample)
    null = build_empirical_null(test, sample.n, null_b, seed, cache_dir=cache_dir)
    return TestVerdict(
        test_name=test.upper(),
        statistic=observed,
        p_value=empirical_p_value(null, observed),
        n=sample.n,
        b=null_b,
        seed=seed,
    )
