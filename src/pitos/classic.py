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
A null read from a file is kept in memory and served again, without
opening the file, while the file's identity (device, inode, size, mtime,
ctime) stays the same.  Every null at one seed and n, of any test, is
computed from the same rows: replicate r's sample is values r*n ...
(r+1)*n - 1 of the stream (seed, NULL_ROWS, n).
"""

import hashlib
import json
import logging
import math
import os
import secrets
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import OrderedSample, TestVerdict
from .pairs import _positive_int, _sample_size
from .streams import NULL_ROWS, _check_key, stream

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
NULL_CACHE_VERSION = 2
CACHE_ENV_VAR = "PITOS_CACHE_DIR"
# Row-batched work (a null build, a study's replicates) holds at most this
# many sample values at once, in one buffer reused block after block: 256 KB
# of doubles, so a block and the AD kernel's block-sized temporaries stay in
# a 2 MB L2.  null-cache op_a_s (four builds at n = 100, B = 20k), medians of
# interleaved `perfbench/run.py --seconds 10` runs on 2 cores: seeds 1-3,
# 2^14 0.100 s, 2^15 0.097, 2^16 0.124, 2^17 0.145, 2^18 0.139; seeds 4-8,
# 2^14 0.108, 2^15 0.108, 2^16 0.138.  Four builds, best of 3, median of 3
# interleaved runs: n = 1000, B = 20k 906 / 886 / 1086 ms at 2^14 / 2^15 /
# 2^16; n = 100, B = 100k 470 / 481 / 528 ms.  The old 2^21-value blocks,
# a fresh array each, read 0.211 s against 0.110 s for this size (10 pairs
# at --seconds 25).  mc-study does not move: its jobs fit one block at any
# of these sizes.
ROW_BLOCK_VALUES = 1 << 15
# Nulls read from cache files stay in memory up to this many bytes of
# statistics (20 verdict nulls of VERDICT_NULL_B); the least recently used
# go first.
NULL_MEMO_BYTES = 1 << 24

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


def replicate_rows(count, n, fill):
    """Yield (lo, rows), the (size, n) rows of replicates lo..lo+size-1 as
    filled in place by fill(rows), covering 0..count-1 in blocks of at most
    ROW_BLOCK_VALUES values.  Every block is a view of one buffer, which the
    next block overwrites: use a block's rows before asking for the next."""
    step = max(1, ROW_BLOCK_VALUES // n)
    buf = np.empty(min(step, count) * n)
    for lo in range(0, count, step):
        rows = buf[: min(step, count - lo) * n].reshape(-1, n)
        fill(rows)
        yield lo, rows


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
    return cache_dir / f"{name}.npz"


def build_empirical_null(test, n, B=VERDICT_NULL_B, seed=0, *, alternative=None, cache_dir=None):
    """B null statistics from i.i.d. Uniform(0,1) samples of size n, sorted.

    Deterministic given the seed: one stream, (seed, NULL_ROWS, n), is drawn
    in order, replicate r taking its values r*n ... (r+1)*n - 1, so the
    result depends neither on the block size nor on the thread count, and
    every test's null at one seed and n sees the same samples.  Results are
    cached on disk keyed by
    (test, n, B, seed).  The lrt null also needs `alternative`, the
    DistributionSpec whose log-density it sums; its file is further keyed
    by the spec's name and full-precision parameters (names keep 6
    significant digits, so two alternatives can print alike).  A null read
    from its file is kept in memory (see _NullMemo).  The returned
    statistics are read-only.
    """
    n = _sample_size(n)
    B = _positive_int(B, "B")
    seed, _ = _check_key(seed, ())
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
    cached = _read_null(path, test, n, B, seed)
    if cached is not None:
        return cached

    stats = np.empty(B)
    needs_sort = _BATCH[test][1]
    rng = stream(seed, NULL_ROWS, n)  # replicate_rows fills its blocks in order
    for lo, rows in replicate_rows(B, n, lambda rows: rng.random(out=rows)):
        if needs_sort:
            rows.sort(axis=1)  # in place: these kernels read only the sorted rows
        stats[lo : lo + len(rows)] = batch_statistics(
            test, rows, sorted_rows=rows if needs_sort else None, log_density=log_density)
    nan_count = int(np.isnan(stats).sum())
    if nan_count:
        raise ValueError(f"{test} null at n={n}: {nan_count}/{B} statistics are NaN")
    stats.sort()
    stats.setflags(write=False)
    null = EmpiricalNull(test_name=test, n=n, statistics=stats, B=B, seed=seed)
    _store_null(path, null)
    return null


class _NullMemo:
    """Nulls read from cache files, keyed by path, each with the identity of
    the file it was read from; least recently used first, at most
    NULL_MEMO_BYTES of statistics.  Builds are not kept: a null just built
    may never be read again.  Lrt nulls resolve on pool threads, so a lock
    guards the entries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # path -> (identity, EmpiricalNull)
        self.nbytes = 0

    def get(self, path, identity):
        """The null read from `path` if the file still has `identity`; a
        stale entry is dropped."""
        with self._lock:
            entry = self._entries.get(path)
            if entry is None:
                return None
            if entry[0] != identity:
                self._drop(path)
                return None
            self._entries.move_to_end(path)
            return entry[1]

    def put(self, path, identity, null):
        # every caller shares the one array, so none may write to it
        null.statistics.setflags(write=False)
        with self._lock:
            if path in self._entries:
                self._drop(path)
            if null.statistics.nbytes > NULL_MEMO_BYTES:
                return
            self._entries[path] = (identity, null)
            self.nbytes += null.statistics.nbytes
            while self.nbytes > NULL_MEMO_BYTES:
                self._drop(next(iter(self._entries)))

    def _drop(self, path):
        _, null = self._entries.pop(path)
        self.nbytes -= null.statistics.nbytes


_NULL_MEMO = _NullMemo()


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


def _read_null(path, test, n, B, seed):
    """The null cached at `path`: from memory while the file keeps the
    identity it had when read, else loaded from the file.  None when there
    is no usable file."""
    try:
        st = os.stat(path)
    except (FileNotFoundError, NotADirectoryError):
        identity = None  # no file: build the null
    else:
        # what a replaced file changes (device, inode) and what a rewrite in
        # place does (size, and mtime and ctime up to the timestamp tick)
        identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    null = _NULL_MEMO.get(path, identity)
    if null is None and identity is not None:
        null = _load_null(path, test, n, B, seed)
        if null is not None:
            _NULL_MEMO.put(path, identity, null)
    return null


def _load_null(path, test, n, B, seed):
    try:
        # our own handle: np.load leaks the one it opens when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as payload:
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
        b=null.B,
        seed=seed,
    )
