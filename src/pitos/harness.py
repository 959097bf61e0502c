"""Monte Carlo engine: power estimation, power-versus-n curves, randomized
scenario studies with rank aggregation, and null p-value calibration curves.

Common random numbers: within one replicate every test sees the identical
simulated dataset, drawn from the stream (scenario_code, distribution_index,
1 + replicate_index) under the run's seed.  Results are therefore bitwise
reproducible for a given configuration regardless of parallelism, and
comparisons between tests are sharpened at no cost.

Desk-scale defaults (2,000 replicates, 20,000 null draws) keep studies in
the minutes range; pass paper-scale counts explicitly to reproduce
full-size experiments.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classic import CLASSIC_TESTS, batch_statistics, build_empirical_null, empirical_p_value
from .core import pitos_p_value
from .distributions import DistributionSpec, draw_scenario_distribution, scenario_code, zoo_lookup
from .pairs import generate_pairs, random_pairs
from .streams import stream

__all__ = [
    "ALL_TESTS",
    "DEFAULT_NULL_B",
    "DEFAULT_REPLICATES",
    "NullPvalueCdf",
    "PowerReport",
    "RankSummary",
    "estimate_power",
    "null_pitos_pvalues",
    "null_pvalue_cdf",
    "power_curve",
    "replicate_dataset",
    "scenario_study",
]

log = logging.getLogger(__name__)

ALL_TESTS = ("pitos",) + CLASSIC_TESTS + ("lrt",)
DEFAULT_REPLICATES = 2_000
DEFAULT_NULL_B = 20_000
FAILURE_BUDGET = 0.001  # replicate-failure fraction tolerated per test


@dataclass
class PowerReport:
    """Rejection-rate estimates for one distribution at one sample size."""

    distribution: dict
    n: int
    alpha: float
    rejection_rate: dict
    replicates: int
    mc_std_err: dict
    seed: int


@dataclass
class RankSummary:
    """Scenario-study aggregate: rank frequencies and average power per test.

    rank_freq[t, r] is the fraction of distributions on which test t held
    rank r+1 (rank 1 = most powerful); exact power ties share their rank
    positions fractionally, so every row sums to 1.
    """

    scenario: str
    tests: tuple
    rank_freq: np.ndarray
    avg_power: dict
    num_distributions: int
    replicates_per_distribution: int
    n: int
    alpha: float
    seed: int
    reports: list = field(default_factory=list, repr=False)


def replicate_dataset(seed, scen_code, dist_index, replicate, dist, n):
    """The dataset one replicate sees; shared by every test (common random numbers)."""
    rng = stream(seed, scen_code, dist_index, 1 + replicate)
    return dist.sample(n, rng)


def _resolve_dist(dist):
    if isinstance(dist, DistributionSpec):
        return dist
    return zoo_lookup(dist)


def _pitos_pairs(n, pair_seed):
    """The default sequence for n, or the random-uniform one under pair_seed."""
    return generate_pairs(n) if pair_seed is None else random_pairs(n, pair_seed)


def _normalize_tests(tests):
    if isinstance(tests, str):
        tests = (tests,)
    tests = tuple(tests)
    for t in tests:
        if t not in ALL_TESTS:
            raise ValueError(f"unknown test identifier {t!r}; choose from {ALL_TESTS}")
    return tests


def _pvalue_matrix(dist, tests, n, replicates, seed, null_b, cache_dir, scen_code,
                   dist_index, pairs):
    """p-values with shape (len(tests), replicates); one dataset per replicate."""
    rows = np.empty((replicates, n))
    for r in range(replicates):
        rows[r] = replicate_dataset(seed, scen_code, dist_index, r, dist, n)
    if np.any(np.isnan(rows)) or rows.min() < 0.0 or rows.max() > 1.0:
        raise ValueError(f"sampler for {dist.name!r} produced values outside [0, 1]")

    sorted_rows = np.sort(rows, axis=1)
    out = np.empty((len(tests), replicates))
    failures = dict.fromkeys(tests, 0)
    for t_idx, test in enumerate(tests):
        if test == "pitos":
            for r in range(replicates):
                try:
                    out[t_idx, r] = pitos_p_value(rows[r], pairs).p_value
                except (ValueError, FloatingPointError):
                    failures[test] += 1
                    out[t_idx, r] = 1.0
        elif test == "lrt":
            if dist.log_density is None:
                raise ValueError(f"lrt oracle needs a log-density; {dist.name!r} has none")
            null = build_empirical_null(
                "lrt", n, null_b, seed,
                alt_log_density=dist.log_density,
                label=dist.name,
                cache_dir=cache_dir,
            )
            stats = np.asarray(dist.log_density(rows), dtype=float).sum(axis=1)
            out[t_idx] = empirical_p_value(null, stats)
        else:
            null = build_empirical_null(test, n, null_b, seed, cache_dir=cache_dir)
            stats = batch_statistics(test, rows, sorted_rows)
            bad = np.isnan(stats)
            if bad.any():
                failures[test] += int(bad.sum())
                stats = np.where(bad, -np.inf, stats)
            out[t_idx] = empirical_p_value(null, stats)

    for test, count in failures.items():
        if count:
            if count > FAILURE_BUDGET * replicates:
                raise RuntimeError(
                    f"{test}: {count}/{replicates} replicates failed on {dist.name!r}"
                )
            log.warning(
                "%s: %d/%d replicates failed on %r; counted as non-rejections",
                test, count, replicates, dist.name,
            )
    return out


def estimate_power(
    dist,
    tests,
    n,
    alpha=0.05,
    replicates=DEFAULT_REPLICATES,
    seed=0,
    *,
    null_b=DEFAULT_NULL_B,
    cache_dir=None,
    scen_code=0,
    dist_index=0,
    pair_seed=None,
    pairs=None,
):
    """Rejection rate of p <= alpha for each test on data from `dist`.

    `dist` is a DistributionSpec or a zoo name; `tests` a test identifier or
    a sequence of them.  All tests share each replicate's dataset.

    `pair_seed` switches the order-statistic test onto the experimental
    random-uniform pair source (seeded); leave None for the default
    low-discrepancy sequence.  `pairs`, a sequence for n that the caller
    already built, is used instead of building one from `pair_seed`;
    power_curve and scenario_study build theirs once before any job runs.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    dist = _resolve_dist(dist)
    tests = _normalize_tests(tests)
    if pairs is None and "pitos" in tests:
        pairs = _pitos_pairs(n, pair_seed)
    elif pairs is not None and pairs.n != n:
        raise ValueError(f"pair sequence built for n={pairs.n}, not n={n}")
    pvals = _pvalue_matrix(
        dist, tests, n, replicates, seed, null_b, cache_dir, scen_code, dist_index, pairs
    )
    rates = {t: float(np.mean(pvals[k] <= alpha)) for k, t in enumerate(tests)}
    return PowerReport(
        distribution={"name": dist.name, **dist.parameters},
        n=int(n),
        alpha=float(alpha),
        rejection_rate=rates,
        replicates=int(replicates),
        mc_std_err={t: float(np.sqrt(r * (1.0 - r) / replicates)) for t, r in rates.items()},
        seed=int(seed),
    )


def power_curve(
    dist,
    tests,
    n_grid,
    alpha=0.05,
    replicates=DEFAULT_REPLICATES,
    seed=0,
    *,
    null_b=DEFAULT_NULL_B,
    cache_dir=None,
    threads=1,
    pair_seed=None,
):
    """estimate_power at each n in the grid; grid point g uses dist_index g."""
    dist = _resolve_dist(dist)
    tests = _normalize_tests(tests)
    # one sequence per distinct n, built before any job runs
    pairs = {int(n): _pitos_pairs(int(n), pair_seed) for n in n_grid} if "pitos" in tests else {}
    jobs = [
        dict(
            dist=dist, tests=tests, n=int(n), alpha=alpha, replicates=replicates,
            seed=seed, null_b=null_b, cache_dir=cache_dir, scen_code=0, dist_index=g,
            pairs=pairs.get(int(n)),
        )
        for g, n in enumerate(n_grid)
    ]
    return _run_jobs(lambda kw: estimate_power(**kw), jobs, threads)


def scenario_study(
    scenario,
    num_distributions,
    replicates_per_distribution,
    n,
    alpha=0.05,
    seed=0,
    *,
    tests=("pitos",) + CLASSIC_TESTS,
    null_b=DEFAULT_NULL_B,
    cache_dir=None,
    threads=1,
    pair_seed=None,
):
    """Draw distributions from a scenario, estimate per-test power on each,
    and aggregate rank frequencies and average power."""
    if num_distributions < 1 or replicates_per_distribution < 1:
        raise ValueError("counts must be >= 1")
    tests = _normalize_tests(tests)
    code = scenario_code(scenario)
    dists = [
        draw_scenario_distribution(scenario, stream(seed, code, d, 0))
        for d in range(num_distributions)
    ]

    pairs = _pitos_pairs(n, pair_seed) if "pitos" in tests else None

    def job(d):
        return estimate_power(
            dists[d], tests, n, alpha, replicates_per_distribution, seed,
            null_b=null_b, cache_dir=cache_dir, scen_code=code, dist_index=d,
            pairs=pairs,
        )

    # warm the shared null caches sequentially before any parallel section
    for test in tests:
        if test in CLASSIC_TESTS:
            build_empirical_null(test, n, null_b, seed, cache_dir=cache_dir)

    reports = _run_jobs(job, list(range(num_distributions)), threads)

    power = np.array(
        [[rep.rejection_rate[t] for t in tests] for rep in reports]
    )  # (dists, tests)
    rank_freq = np.zeros((len(tests), len(tests)))
    for row in power:
        rank_freq += _fractional_ranks(row)
    rank_freq /= num_distributions
    return RankSummary(
        scenario=scenario,
        tests=tests,
        rank_freq=rank_freq,
        avg_power={t: float(power[:, k].mean()) for k, t in enumerate(tests)},
        num_distributions=int(num_distributions),
        replicates_per_distribution=int(replicates_per_distribution),
        n=int(n),
        alpha=float(alpha),
        seed=int(seed),
        reports=reports,
    )


def _fractional_ranks(power_row):
    """Indicator matrix (test, rank position); k-way power ties spread 1/k
    over the k positions they span, so rows always sum to 1."""
    t = len(power_row)
    out = np.zeros((t, t))
    order = np.argsort(-power_row, kind="stable")
    pos = 0
    while pos < t:
        end = pos
        while end + 1 < t and power_row[order[end + 1]] == power_row[order[pos]]:
            end += 1
        weight = 1.0 / (end - pos + 1)
        for member in order[pos : end + 1]:
            out[member, pos : end + 1] = weight
        pos = end + 1
    return out


def _run_jobs(fn, jobs, threads):
    if threads is None or threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, jobs))  # merged in submission order


@dataclass
class NullPvalueCdf:
    """Empirical CDFs of null p-values on a threshold grid.

    `series` maps a label to CDF values aligned with `grid`: "p" for the
    operative p-value of any test, plus "p_star" (corrected) next to the
    uncorrected "p" when the test is pitos.
    """

    test: str
    n: int
    replicates: int
    seed: int
    grid: np.ndarray
    series: dict


def null_pvalue_cdf(
    test,
    n,
    replicates,
    seed,
    grid,
    *,
    null_b=DEFAULT_NULL_B,
    cache_dir=None,
    pair_seed=None,
):
    """Empirical CDF of p-values under the Uniform(0,1) null at each grid point.

    For pitos both the uncorrected combination ("p") and the corrected
    p-value ("p_star") are reported; classical tests report their add-one
    Monte Carlo p-value as "p".
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("grid must be a 1-D array of thresholds in [0, 1]")
    tests = _normalize_tests(test)
    if len(tests) != 1 or tests[0] == "lrt":
        raise ValueError("null_pvalue_cdf takes a single test, not the lrt oracle")
    test = tests[0]
    uniform = zoo_lookup("uniform")

    if test == "pitos":
        p_plain, p_star = null_pitos_pvalues(n, replicates, seed, pair_seed=pair_seed)
        series = {
            "p": _ecdf_at(p_plain, grid),
            "p_star": _ecdf_at(p_star, grid),
        }
    else:
        rows = np.empty((replicates, n))
        for r in range(replicates):
            rows[r] = replicate_dataset(seed, 0, 0, r, uniform, n)
        null = build_empirical_null(test, n, null_b, seed, cache_dir=cache_dir)
        stats = batch_statistics(test, rows)
        series = {"p": _ecdf_at(empirical_p_value(null, stats), grid)}

    return NullPvalueCdf(
        test=test, n=int(n), replicates=int(replicates), seed=int(seed),
        grid=grid, series=series,
    )


def null_pitos_pvalues(n, replicates, seed, *, pair_seed=None):
    """(uncorrected, corrected) p-value arrays over null replicates, using
    the same dataset streams as every other harness operation."""
    uniform = zoo_lookup("uniform")
    pairs = _pitos_pairs(n, pair_seed)
    p_plain = np.empty(replicates)
    p_star = np.empty(replicates)
    for r in range(replicates):
        data = replicate_dataset(seed, 0, 0, r, uniform, n)
        verdict = pitos_p_value(data, pairs)
        p_plain[r] = verdict.p_uncorrected
        p_star[r] = verdict.p_value
    return p_plain, p_star


def _ecdf_at(values, grid):
    values = np.sort(values)
    return np.searchsorted(values, grid, side="right") / len(values)
