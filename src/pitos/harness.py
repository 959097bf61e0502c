"""Monte Carlo engine: power estimation, power-versus-n curves, randomized
scenario studies with rank aggregation, and null p-value calibration curves.

A job is one distribution at one sample size: (seed, scenario_code,
distribution_index).  It draws its replicate datasets from one generator,
the stream (scenario_code, distribution_index, 1) under the run's seed:
replicate r is the job's (r+1)-th dist.sample(n, rng) call, made in order on
the job's own thread.  Common random numbers: within one replicate every
test sees the identical dataset.  The rows depend only on (seed,
scenario_code, distribution_index, r), so results are bitwise reproducible
for a given configuration regardless of block size or parallelism, and
comparisons between tests are sharpened at no cost.

Desk-scale defaults (2,000 replicates, 20,000 null draws) keep studies in
the minutes range; pass paper-scale counts explicitly to reproduce
full-size experiments.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .classic import (CLASSIC_TESTS, batch_statistics, build_empirical_null, empirical_p_value,
                      replicate_rows)
from .core import (_available_cores, corrected_p_value, pitos_p_value, plan_rows,
                   planned_p_values, thread_map)
from .distributions import DistributionSpec, ScenarioSampler, scenario_code, zoo_lookup
from .pairs import _positive_int, _sample_size, generate_pairs, random_pairs
from .streams import stream

__all__ = [
    "ALL_TESTS",
    "DEFAULT_REPLICATES",
    "DEFAULT_TESTS",
    "NullPvalueCdf",
    "PowerReport",
    "RankSummary",
    "STUDY_NULL_B",
    "estimate_power",
    "null_pitos_pvalues",
    "null_pvalue_cdf",
    "power_curve",
    "replicate_dataset",
    "scenario_study",
]

log = logging.getLogger(__name__)

DEFAULT_TESTS = ("pitos",) + CLASSIC_TESTS  # the tests that need no alternative
ALL_TESTS = DEFAULT_TESTS + ("lrt",)
DEFAULT_REPLICATES = 2_000
STUDY_NULL_B = 20_000  # desk-scale null draws behind a study's classical p-values
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


def replicate_dataset(dist, n, rng):
    """The dataset of a job's next replicate: n draws of `dist` from the
    job's generator, shared by every test (common random numbers)."""
    return dist.sample(n, rng)


def _resolve_dist(dist):
    if isinstance(dist, DistributionSpec):
        return dist
    return zoo_lookup(dist)


def _resolve_roster(tests, n, seed, null_b, cache_dir, pair_seed):
    """(pairs, nulls) for the roster at n: pitos's default sequence, or the
    random-uniform one under pair_seed, and each classical test's null."""
    pairs = None
    if "pitos" in tests:
        pairs = generate_pairs(n) if pair_seed is None else random_pairs(n, pair_seed)
    return pairs, {t: build_empirical_null(t, n, null_b, seed, cache_dir=cache_dir)
                   for t in tests if t in CLASSIC_TESTS}


def _normalize_tests(tests):
    if isinstance(tests, str):
        tests = (tests,)
    tests = tuple(tests)
    for k, t in enumerate(tests):
        if t not in ALL_TESTS:
            raise ValueError(f"unknown test identifier {t!r}; choose from {ALL_TESTS}")
        if t in tests[:k]:
            raise ValueError(f"test {t!r} appears twice in the roster")
    return tests


def _pvalue_matrix(dist, tests, n, replicates, seed, scen_code, dist_index, pairs, nulls):
    """p-values with shape (len(tests), replicates); one dataset per replicate.

    The pitos row holds the uncorrected combination p; pass it through
    corrected_p_value before comparing it with a level.  `nulls` maps every
    test but pitos to its empirical null.  Replicate r is the (r+1)-th
    replicate_dataset draw from the job's one stream (scen_code,
    dist_index, 1).  Replicates are drawn, in order, and scored in the row
    blocks of classic.replicate_rows, so two blocks of at most
    ROW_BLOCK_VALUES values are held: the rows and their sorted copy, each
    one buffer reused from block to block.  Within a block, pitos scores
    one unit of consecutive rows per available core, each unit on its own
    thread writing its own columns.  A sequence of one summation block (at
    most 2^20 pairs, n <= 11,134) scores a unit's sorted rows through
    core.planned_p_values, core.plan_rows rows per call, on the plan's
    shapes and the sequence's kept buffers; a longer one runs pitos_p_value
    row by row.  Every statistic is computed per row, so neither the block
    size, the rows per call nor the core count changes a p-value.  A
    replicate any test cannot score is a NaN, counted against
    FAILURE_BUDGET and read as p = 1.
    """
    out = np.empty((len(tests), replicates))
    workers = _available_cores()
    step = plan_rows(pairs) if pairs is not None else 0  # 0: row by row through pitos_p_value
    rng = stream(seed, scen_code, dist_index, 1)  # replicate_rows fills its blocks in order
    sorted_buf = None

    def draw_block(rows):
        for k in range(len(rows)):
            rows[k] = replicate_dataset(dist, n, rng)

    for lo, rows in replicate_rows(replicates, n, draw_block):
        if np.any(np.isnan(rows)) or rows.min() < 0.0 or rows.max() > 1.0:
            raise ValueError(f"sampler for {dist.name!r} produced values outside [0, 1]")
        if sorted_buf is None:
            sorted_buf = np.empty_like(rows)  # the first block is the largest
        sorted_rows = sorted_buf[: len(rows)]
        np.copyto(sorted_rows, rows)
        sorted_rows.sort(axis=1)
        for k, test in enumerate(tests):
            if test == "pitos":
                unit = -(-len(rows) // workers)

                def score(first):
                    end = min(first + unit, len(rows))
                    for r in range(first, end, step or 1):
                        if step:
                            stop = min(r + step, end)
                            out[k, lo + r : lo + stop] = planned_p_values(sorted_rows[r:stop], pairs)[1]
                        else:
                            out[k, lo + r] = pitos_p_value(rows[r], pairs).p_uncorrected

                thread_map(score, range(0, len(rows), unit), workers)
            else:
                stats = batch_statistics(test, rows, sorted_rows, dist.log_density)
                out[k, lo : lo + len(rows)] = empirical_p_value(nulls[test], stats)

    failed = np.isnan(out)
    out[failed] = 1.0
    for test, count in zip(tests, failed.sum(axis=1)):
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


def _power_reports(jobs, tests, alpha, replicates, seed, null_b, cache_dir, pair_seed, threads=1):
    """One PowerReport per job (dist, n, scen_code, dist_index), in job order.

    Each distinct n's pair sequence and classical nulls are resolved once,
    before any job runs; only the lrt oracle's null, which depends on the
    distribution, is built inside a job.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    replicates = _positive_int(replicates, "replicates")
    threads = _positive_int(threads, "threads")
    tests = _normalize_tests(tests)
    resolved = {n: _resolve_roster(tests, n, seed, null_b, cache_dir, pair_seed)
                for n in dict.fromkeys(job[1] for job in jobs)}

    def run(job):
        dist, n, scen_code, dist_index = job
        pairs, nulls = resolved[n]
        if "lrt" in tests:
            nulls = dict(nulls, lrt=build_empirical_null(
                "lrt", n, null_b, seed, alternative=dist, cache_dir=cache_dir))
        pvals = _pvalue_matrix(
            dist, tests, n, replicates, seed, scen_code, dist_index, pairs, nulls
        )
        if "pitos" in tests:
            k = tests.index("pitos")
            pvals[k] = corrected_p_value(pvals[k])
        rates = {t: float(np.mean(pvals[k] <= alpha)) for k, t in enumerate(tests)}
        return PowerReport(
            distribution={"name": dist.name, **dist.parameters},
            n=n,
            alpha=float(alpha),
            rejection_rate=rates,
            replicates=replicates,
            mc_std_err={t: float(np.sqrt(r * (1.0 - r) / replicates)) for t, r in rates.items()},
            seed=int(seed),
        )

    return thread_map(run, jobs, threads)


def estimate_power(
    dist,
    tests,
    n,
    alpha=0.05,
    replicates=DEFAULT_REPLICATES,
    seed=0,
    *,
    null_b=STUDY_NULL_B,
    cache_dir=None,
    pair_seed=None,
):
    """Rejection rate of p <= alpha for each test on data from `dist`.

    `dist` is a DistributionSpec or a zoo name; `tests` a test identifier or
    a sequence of them.  All tests share each replicate's dataset.

    `pair_seed` switches the order-statistic test onto the experimental
    random-uniform pair source (seeded); leave None for the default
    low-discrepancy sequence.
    """
    job = (_resolve_dist(dist), _sample_size(n), 0, 0)
    return _power_reports([job], tests, alpha, replicates, seed, null_b, cache_dir, pair_seed)[0]


def power_curve(
    dist,
    tests,
    n_grid,
    alpha=0.05,
    replicates=DEFAULT_REPLICATES,
    seed=0,
    *,
    null_b=STUDY_NULL_B,
    cache_dir=None,
    threads=1,
    pair_seed=None,
):
    """estimate_power at each n in the grid; grid point g uses dist_index g."""
    dist = _resolve_dist(dist)
    jobs = [(dist, _sample_size(n), 0, g) for g, n in enumerate(n_grid)]
    return _power_reports(jobs, tests, alpha, replicates, seed, null_b, cache_dir, pair_seed, threads)


def scenario_study(
    scenario,
    num_distributions,
    replicates_per_distribution,
    n,
    alpha=0.05,
    seed=0,
    *,
    tests=DEFAULT_TESTS,
    null_b=STUDY_NULL_B,
    cache_dir=None,
    threads=1,
    pair_seed=None,
):
    """Draw distributions from a scenario, estimate per-test power on each,
    and aggregate rank frequencies and average power."""
    num_distributions = _positive_int(num_distributions, "num_distributions")
    replicates_per_distribution = _positive_int(replicates_per_distribution, "replicates")
    n = _sample_size(n)
    tests = _normalize_tests(tests)
    code = scenario_code(scenario)
    dists = ScenarioSampler(scenario, seed).draw_many(num_distributions)
    reports = _power_reports(
        [(dist, n, code, d) for d, dist in enumerate(dists)],
        tests, alpha, replicates_per_distribution, seed, null_b, cache_dir, pair_seed, threads,
    )

    power = np.array([[rep.rejection_rate[t] for t in tests] for rep in reports])  # (dists, tests)
    rank_freq = np.zeros((len(tests), len(tests)))
    for row in power:
        rank_freq += _fractional_ranks(row)
    rank_freq /= num_distributions
    return RankSummary(
        scenario=scenario,
        tests=tests,
        rank_freq=rank_freq,
        avg_power={t: float(power[:, k].mean()) for k, t in enumerate(tests)},
        num_distributions=num_distributions,
        replicates_per_distribution=replicates_per_distribution,
        n=n,
        alpha=float(alpha),
        seed=int(seed),
        reports=reports,
    )


def _fractional_ranks(power_row):
    """Indicator matrix (test, rank position); k-way power ties spread 1/k
    over the k positions they span, so rows always sum to 1."""
    out = np.zeros((len(power_row), len(power_row)))
    # groups of equal power, most powerful first, and the position each starts at
    _, group, size = np.unique(-power_row, return_inverse=True, return_counts=True)
    start = np.cumsum(size) - size
    for test, g in enumerate(group):
        out[test, start[g] : start[g] + size[g]] = 1.0 / size[g]
    return out


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
    null_b=STUDY_NULL_B,
    cache_dir=None,
    pair_seed=None,
):
    """Empirical CDF of p-values under the Uniform(0,1) null at each grid point.

    For pitos both the uncorrected combination ("p") and the corrected
    p-value ("p_star") are reported; classical tests report their add-one
    Monte Carlo p-value as "p".
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all((grid >= 0.0) & (grid <= 1.0)):  # NaN fails both
        raise ValueError("grid must be a 1-D array of thresholds in [0, 1]")
    tests = _normalize_tests(test)
    if len(tests) != 1 or tests[0] == "lrt":
        raise ValueError("null_pvalue_cdf takes a single test, not the lrt oracle")
    test = tests[0]
    p = _null_pvalues(test, n, replicates, seed, null_b, cache_dir, pair_seed)
    series = {"p": _ecdf_at(p, grid)}
    if test == "pitos":
        series["p_star"] = _ecdf_at(corrected_p_value(p), grid)
    return NullPvalueCdf(
        test=test, n=int(n), replicates=int(replicates), seed=int(seed),
        grid=grid, series=series,
    )


def null_pitos_pvalues(n, replicates, seed, *, pair_seed=None):
    """(uncorrected, corrected) p-value arrays over null replicates, using
    the same dataset streams as every other harness operation."""
    p = _null_pvalues("pitos", n, replicates, seed, None, None, pair_seed)
    return p, corrected_p_value(p)


def _null_pvalues(test, n, replicates, seed, null_b, cache_dir, pair_seed):
    """One test's p-values (uncorrected for pitos) on Uniform(0,1) replicates."""
    n = _sample_size(n)
    replicates = _positive_int(replicates, "replicates")
    pairs, nulls = _resolve_roster((test,), n, seed, null_b, cache_dir, pair_seed)
    uniform = zoo_lookup("uniform")
    return _pvalue_matrix(uniform, (test,), n, replicates, seed, 0, 0, pairs, nulls)[0]


def _ecdf_at(values, grid):
    values = np.sort(values)
    return np.searchsorted(values, grid, side="right") / len(values)
