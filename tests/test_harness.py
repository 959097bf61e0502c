"""Harness behavior: null rejection near alpha, the constant-statistic LRT
edge case, determinism across runs and thread counts, common random numbers,
and rank bookkeeping."""

import math

import numpy as np
import pytest

from pitos.harness import (
    NullPvalueCdf,
    estimate_power,
    null_pvalue_cdf,
    power_curve,
    replicate_dataset,
    scenario_study,
)
from pitos.distributions import zoo_lookup


class TestEstimatePower:
    def test_uniform_null_rejects_near_alpha(self, session_cache_dir):
        report = estimate_power(
            "uniform", ("ks", "cvm"), n=30, alpha=0.05, replicates=2000, seed=1,
            null_b=20_000, cache_dir=session_cache_dir,
        )
        for test in ("ks", "cvm"):
            rate = report.rejection_rate[test]
            assert abs(rate - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / 2000)
            assert report.mc_std_err[test] == pytest.approx(
                math.sqrt(rate * (1 - rate) / 2000), abs=1e-12
            )

    def test_lrt_with_flat_alternative_has_zero_power(self, cache_dir):
        # constant statistic: every observed value ties the whole null set
        report = estimate_power(
            "uniform", "lrt", n=20, alpha=0.05, replicates=200, seed=2,
            null_b=500, cache_dir=cache_dir,
        )
        assert report.rejection_rate["lrt"] == 0.0

    def test_lrt_needs_density(self, cache_dir):
        with pytest.raises(ValueError):
            estimate_power(
                "discrete-uniform-99", "lrt", n=10, replicates=10, seed=0,
                null_b=50, cache_dir=cache_dir,
            )

    def test_deterministic_given_config(self, cache_dir):
        kw = dict(n=25, alpha=0.05, replicates=300, seed=7, null_b=1000)
        a = estimate_power("beta(0.6,0.6)", ("pitos", "ad"), **kw, cache_dir=cache_dir)
        b = estimate_power("beta(0.6,0.6)", ("pitos", "ad"), **kw, cache_dir=cache_dir)
        assert a.rejection_rate == b.rejection_rate

    def test_validation(self, cache_dir):
        with pytest.raises(ValueError):
            estimate_power("uniform", "pitos", n=10, alpha=0.0, replicates=10)
        with pytest.raises(ValueError):
            estimate_power("uniform", "watson", n=10, replicates=10, cache_dir=cache_dir)
        with pytest.raises(ValueError):
            estimate_power("uniform", "pitos", n=10, replicates=0)

    def test_report_records_distribution(self, cache_dir):
        report = estimate_power(
            "bump(0.5,0.001,0.08)", "pitos", n=15, replicates=20, seed=0,
            cache_dir=cache_dir,
        )
        assert report.distribution["name"] == "bump(0.5,0.001,0.08)"
        assert report.distribution["mass"] == 0.08

    def test_random_pair_source_experiment(self, cache_dir, caplog):
        kw = dict(n=25, alpha=0.05, replicates=100, seed=6, cache_dir=cache_dir)
        with caplog.at_level("WARNING", logger="pitos.pairs"):
            alt = estimate_power("uniform", "pitos", **kw, pair_seed=11)
        # one warning for the one sequence, not one per replicate
        warned = [r for r in caplog.records if "1.15 correction" in r.message]
        assert len(warned) == 1
        again = estimate_power("uniform", "pitos", **kw, pair_seed=11)
        assert alt.rejection_rate == again.rejection_rate
        assert 0.0 <= alt.rejection_rate["pitos"] <= 0.15  # still near level


class TestCommonRandomNumbers:
    def test_same_dataset_for_every_test(self):
        # the replicate dataset is a pure function of (seed, path, dist, n):
        # re-deriving it during any test evaluation checksums identically
        import zlib

        dist = zoo_lookup("uniform")
        checksums = set()
        for _ in range(3):
            rows = np.vstack([replicate_dataset(11, 0, 0, r, dist, 40) for r in range(5)])
            checksums.add(zlib.crc32(np.ascontiguousarray(rows).tobytes()))
        assert len(checksums) == 1

    def test_joint_run_matches_single_test_runs(self, cache_dir):
        kw = dict(n=20, alpha=0.05, replicates=200, seed=5, null_b=500, cache_dir=cache_dir)
        joint = estimate_power("beta(1.6,1.6)", ("ks", "cvm"), **kw)
        solo_ks = estimate_power("beta(1.6,1.6)", "ks", **kw)
        solo_cvm = estimate_power("beta(1.6,1.6)", "cvm", **kw)
        assert joint.rejection_rate["ks"] == solo_ks.rejection_rate["ks"]
        assert joint.rejection_rate["cvm"] == solo_cvm.rejection_rate["cvm"]


class TestPowerCurve:
    def test_grid_and_thread_independence(self, cache_dir):
        kw = dict(alpha=0.05, replicates=100, seed=3, null_b=300, cache_dir=cache_dir)
        one = power_curve("gap(0.5,0.1)", ("ks",), [10, 20], **kw, threads=1)
        two = power_curve("gap(0.5,0.1)", ("ks",), [10, 20], **kw, threads=2)
        assert [r.n for r in one] == [10, 20]
        for a, b in zip(one, two):
            assert a.rejection_rate == b.rejection_rate


class TestScenarioStudy:
    def test_rank_rows_sum_to_one_and_reports_kept(self, cache_dir):
        summary = scenario_study(
            "random-gap", num_distributions=6, replicates_per_distribution=60,
            n=25, alpha=0.05, seed=9, tests=("pitos", "ks", "cvm"),
            null_b=500, cache_dir=cache_dir,
        )
        np.testing.assert_allclose(summary.rank_freq.sum(axis=1), 1.0, atol=1e-12)
        assert len(summary.reports) == 6
        assert set(summary.avg_power) == {"pitos", "ks", "cvm"}
        for rep in summary.reports:
            assert 0.0 <= min(rep.rejection_rate.values())
            assert max(rep.rejection_rate.values()) <= 1.0

    def test_thread_count_does_not_change_results(self, cache_dir):
        kw = dict(
            num_distributions=4, replicates_per_distribution=40, n=20,
            alpha=0.05, seed=13, tests=("ks",), null_b=300, cache_dir=cache_dir,
        )
        a = scenario_study("outliers", **kw, threads=1)
        b = scenario_study("outliers", **kw, threads=3)
        np.testing.assert_array_equal(a.rank_freq, b.rank_freq)
        assert a.avg_power == b.avg_power

    def test_tied_powers_share_ranks_fractionally(self, cache_dir):
        # a two-way exact tie puts 0.5 in each of the two spanned positions
        from pitos.harness import _fractional_ranks

        row = np.array([0.4, 0.4, 0.1])
        frac = _fractional_ranks(row)
        np.testing.assert_allclose(frac[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(frac[1], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(frac[2], [0.0, 0.0, 1.0])


class TestNullPvalueCdf:
    def test_pitos_series_and_monotone(self, cache_dir):
        grid = [0.01, 0.05, 0.2, 0.5, 1.0]
        out = null_pvalue_cdf("pitos", n=12, replicates=400, seed=4, grid=grid)
        assert isinstance(out, NullPvalueCdf)
        assert set(out.series) == {"p", "p_star"}
        for series in out.series.values():
            assert np.all(np.diff(series) >= 0.0)
            assert series[-1] == 1.0
        # correction only deflates the CDF
        assert np.all(out.series["p_star"] <= out.series["p"] + 1e-12)

    def test_classic_series_near_identity(self, session_cache_dir):
        grid = [0.05, 0.5]
        out = null_pvalue_cdf(
            "ks", n=30, replicates=2000, seed=4, grid=grid,
            null_b=20_000, cache_dir=session_cache_dir,
        )
        np.testing.assert_allclose(out.series["p"], grid, atol=0.03)

    def test_rejects_lrt_and_bad_grid(self):
        with pytest.raises(ValueError):
            null_pvalue_cdf("lrt", n=10, replicates=10, seed=0, grid=[0.5])
        with pytest.raises(ValueError):
            null_pvalue_cdf("pitos", n=10, replicates=10, seed=0, grid=[1.5])
