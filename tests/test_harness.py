"""Harness behavior: null rejection near alpha, the constant-statistic LRT
edge case, determinism across runs and thread counts, each job's one dataset
stream, common random numbers, and rank bookkeeping."""

import hashlib
import math

import numpy as np
import pytest

from pitos import classic, core, harness
from pitos.core import pitos_p_value
from pitos.harness import (
    ALL_TESTS,
    NullPvalueCdf,
    estimate_power,
    null_pitos_pvalues,
    null_pvalue_cdf,
    power_curve,
    replicate_dataset,
    scenario_study,
)
from pitos.distributions import SCENARIOS, DistributionSpec, ScenarioSampler, scenario_code, zoo_lookup
from pitos.pairs import generate_pairs
from pitos.streams import stream


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

    def test_repeated_test_is_refused(self, cache_dir):
        # the repeat of pitos would be reported without its correction
        message = "^test 'pitos' appears twice in the roster$"
        with pytest.raises(ValueError, match=message):
            estimate_power("gap(0.5,0.05)", ("pitos", "ks", "pitos"), 20, replicates=4,
                           null_b=20, cache_dir=cache_dir)
        with pytest.raises(ValueError, match=message):
            scenario_study("outliers", 2, 4, 8, tests=("pitos", "pitos"), null_b=20,
                           cache_dir=cache_dir)
        assert not cache_dir.exists()  # refused before any null is built

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


    def test_lrt_null_is_keyed_by_full_precision_parameters(self, cache_dir, tmp_path):
        # both names print as beta(0.6,0.6); each alternative needs its own null
        kw = dict(n=50, replicates=200, seed=1, null_b=500, cache_dir=cache_dir)
        estimate_power("beta(0.6,0.6)", "lrt", **kw)
        first = set(cache_dir.iterdir())
        estimate_power("beta(0.6000001,0.6)", "lrt", **kw)
        (added,) = set(cache_dir.iterdir()) - first
        assert len(first) == 1
        fresh = classic.build_empirical_null(
            "lrt", 50, 500, 1, alternative=zoo_lookup("beta(0.6000001,0.6)"),
            cache_dir=tmp_path / "fresh",
        )
        assert [p.name for p in (tmp_path / "fresh").iterdir()] == [added.name]
        with np.load(added) as payload:
            np.testing.assert_array_equal(payload["statistics"], fresh.statistics)

    def test_lrt_null_file_name_is_frozen(self, cache_dir):
        # the digest of json.dumps([name, parameters]): a changed key would
        # orphan every lrt null already on disk
        estimate_power("gap(0.5,0.05)", ("lrt", "ks"), 20, replicates=50, seed=1, null_b=300,
                       cache_dir=cache_dir)
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "ks_n20_B300_s1.npz", "lrt_n20_B300_s1_734761759f47b732.npz"]


class TestRowBlocks:
    """Replicates are scored in blocks of ROW_BLOCK_VALUES values; patching
    the block down to 3 rows must not move a single p-value bit."""

    @staticmethod
    def _run(monkeypatch, cache_dir):
        matrices = []
        score = harness._pvalue_matrix

        def record(*args):
            matrices.append(score(*args))
            return matrices[-1]

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_pvalue_matrix", record)
            kw = dict(null_b=200, cache_dir=cache_dir)
            report = estimate_power("beta(0.6,0.6)", ALL_TESTS, 9, replicates=20, seed=8, **kw)
            cdf = null_pvalue_cdf("ks", 9, 20, 8, np.linspace(0.0, 1.0, 101), **kw)
        return report, cdf.series["p"], matrices

    def test_block_size_is_bitwise_neutral(self, monkeypatch, tmp_path):
        whole = self._run(monkeypatch, tmp_path / "whole")
        monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", 3 * 9)
        blocked = self._run(monkeypatch, tmp_path / "blocked")
        assert blocked[0] == whole[0]
        assert blocked[1].tobytes() == whole[1].tobytes()
        assert [m.tobytes() for m in blocked[2]] == [m.tobytes() for m in whole[2]]

    def test_failures_add_up_across_blocks(self, monkeypatch, cache_dir):
        def first_row_fails(test, rows, sorted_rows, log_density):
            stats = classic.batch_statistics(test, rows, sorted_rows, log_density)
            stats[0] = np.nan
            return stats

        monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", 3 * 10)
        monkeypatch.setattr(harness, "batch_statistics", first_row_fails)
        with pytest.raises(RuntimeError, match="ks: 4/12 replicates failed"):
            estimate_power("uniform", "ks", 10, replicates=12, null_b=50, cache_dir=cache_dir)

    def test_nan_lrt_statistics_are_failures_not_rejections(self, cache_dir):
        # ~2% of values sit at exactly 1.0, where the alternative's log-density
        # is NaN; a NaN statistic must count against the budget, not reject
        def sampler(n, rng):
            x = rng.random(n)
            x[rng.random(n) < 0.02] = 1.0
            return x

        edge = DistributionSpec(
            name="edge", parameters={}, sampler=sampler,
            log_density=lambda x: np.where(np.asarray(x) == 1.0, np.nan, 0.0),
        )
        with pytest.raises(RuntimeError, match="^lrt: 129/400 replicates failed on 'edge'$"):
            estimate_power(edge, ("lrt", "ks"), 20, replicates=400, seed=1, null_b=200,
                           cache_dir=cache_dir)


class TestPitosFailures:
    """A pitos replicate the kernel cannot score comes out as a NaN p and
    counts against FAILURE_BUDGET, as any other test's failure does."""

    @staticmethod
    def _first_row_fails(monkeypatch):
        # one core, and blocks that fit one kernel call: one failure per block
        real = harness.planned_p_values

        def first_row_fails(sorted_rows, pairs):
            statistics, p = real(sorted_rows, pairs)
            p[0] = np.nan
            return statistics, p

        monkeypatch.setattr(harness, "_available_cores", lambda: 1)
        monkeypatch.setattr(harness, "planned_p_values", first_row_fails)

    def test_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", 3 * 10)
        self._first_row_fails(monkeypatch)
        with pytest.raises(RuntimeError, match="^pitos: 4/12 replicates failed on 'uniform'$"):
            estimate_power("uniform", "pitos", 10, replicates=12)

    def test_under_budget_is_logged_and_read_as_p_one(self, monkeypatch, caplog):
        clean = null_pitos_pvalues(4, 1000, 6)[0]
        self._first_row_fails(monkeypatch)
        with caplog.at_level("WARNING", logger="pitos.harness"):
            failed = null_pitos_pvalues(4, 1000, 6)[0]
        assert [r.getMessage() for r in caplog.records] == [
            "pitos: 1/1000 replicates failed on 'uniform'; counted as non-rejections"]
        assert failed[0] == 1.0 > clean[0]
        assert failed[1:].tobytes() == clean[1:].tobytes()


class TestReplicateUnits:
    """Within a row block, pitos scores one unit of consecutive rows per
    core; the core count must not move a single p-value bit."""

    @staticmethod
    def _matrices(monkeypatch, cache_dir, cores):
        matrices = []
        score = harness._pvalue_matrix

        def record(*args):
            matrices.append(score(*args))
            return matrices[-1]

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_available_cores", lambda: cores)
            patch.setattr(harness, "_pvalue_matrix", record)
            # 13 replicates: not a multiple of 2 or 3 units
            estimate_power("beta(0.6,0.6)", ALL_TESTS, 9, replicates=13, seed=8, null_b=200,
                           cache_dir=cache_dir)
        return [m.tobytes() for m in matrices]

    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_core_count_is_bitwise_neutral(self, monkeypatch, tmp_path, block_rows):
        if block_rows is not None:  # ragged blocks of 5 + 5 + 3 rows
            monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", block_rows * 9)
        runs = {cores: self._matrices(monkeypatch, tmp_path, cores) for cores in (1, 2, 3)}
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_pitos_row_is_bitwise_the_same_at_any_core_count(self, monkeypatch):
        # n = 30 scores 92 rows per kernel call: units of 250 (92 + 92 + 66),
        # 125 (92 + 33) and 50 rows, each row the block loop's verdict
        uniform, pairs = zoo_lookup("uniform"), generate_pairs(30)
        runs = {}
        for cores in (1, 2, 5):
            monkeypatch.setattr(harness, "_available_cores", lambda cores=cores: cores)
            runs[cores] = null_pitos_pvalues(30, 250, 3)[0].tobytes()
        monkeypatch.setattr(core, "_DEDUP_LIMIT", 0)
        rng = stream(3, 0, 0, 1)
        looped = np.array([pitos_p_value(replicate_dataset(uniform, 30, rng), pairs).p_uncorrected
                           for _ in range(250)])
        assert runs[1] == runs[2] == runs[5] == looped.tobytes()

    def test_pools_never_nest(self, monkeypatch, cache_dir, pool_sizes):
        # units would take a pool of 2 threads; inside a study's job pool they run inline
        monkeypatch.setattr(harness, "_available_cores", lambda: 2)
        kw = dict(alpha=0.05, seed=13, tests=("pitos", "ks"), null_b=300, cache_dir=cache_dir)
        scenario_study("outliers", 3, 10, 20, **kw, threads=2)
        assert pool_sizes == [2]  # the jobs' pool only
        pool_sizes.clear()
        scenario_study("outliers", 3, 10, 20, **kw, threads=1)
        assert pool_sizes == [2, 2, 2]  # one units' pool per job

    @pytest.mark.parametrize("threads", [0, -2, 1.5, True])
    def test_thread_counts_below_one_are_refused(self, cache_dir, threads):
        message = f"^threads must be a positive integer, got {threads}$"
        with pytest.raises(ValueError, match=message):
            power_curve("uniform", "ks", [8], replicates=4, null_b=20, cache_dir=cache_dir,
                        threads=threads)
        with pytest.raises(ValueError, match=message):
            scenario_study("outliers", 2, 4, 8, tests=("ks",), null_b=20, cache_dir=cache_dir,
                           threads=threads)
        assert not cache_dir.exists()  # refused before any null is built


class TestCounts:
    """n, replicates and num_distributions are whole numbers >= 1 and not
    bools, checked before any null is built; 2.5 is not rounded to 2, and
    True does not stand for 1."""

    @staticmethod
    def calls(cache_dir, n=8, replicates=4, num_distributions=2):
        kw = dict(null_b=20, cache_dir=cache_dir)
        return [
            lambda: estimate_power("uniform", "ks", n, replicates=replicates, **kw),
            lambda: power_curve("uniform", "ks", [8, n], replicates=replicates, **kw),
            lambda: scenario_study("outliers", num_distributions, replicates, n,
                                   tests=("ks",), **kw),
            lambda: null_pvalue_cdf("ks", n, replicates, 0, [0.5], **kw),
        ]

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_sample_size(self, cache_dir, n):
        for call in self.calls(cache_dir, n=n):
            with pytest.raises(ValueError, match=f"^sample size must be a positive integer, "
                                                 f"got {n!r}$"):
                call()
        assert not cache_dir.exists()

    @pytest.mark.parametrize("replicates", [2.5, True, 0])
    def test_replicates(self, cache_dir, replicates):
        calls = self.calls(cache_dir, replicates=replicates)
        calls.append(lambda: null_pitos_pvalues(8, replicates, 0))
        for call in calls:
            with pytest.raises(ValueError, match=f"^replicates must be a positive integer, "
                                                 f"got {replicates!r}$"):
                call()
        assert not cache_dir.exists()

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_num_distributions(self, cache_dir, count):
        with pytest.raises(ValueError, match=f"^num_distributions must be a positive integer, "
                                             f"got {count!r}$"):
            self.calls(cache_dir, num_distributions=count)[2]()
        assert not cache_dir.exists()

    def test_whole_floats_are_ints(self, cache_dir):
        report = estimate_power("uniform", "ks", 8.0, replicates=4.0, null_b=20,
                                cache_dir=cache_dir)
        assert (type(report.n), report.n, type(report.replicates)) == (int, 8, int)


def _job_rows(monkeypatch, run):
    """The row blocks `run()` scored with ks, in job order; `run` must keep
    its jobs on one thread and have ks in its roster."""
    seen = []
    score = harness.batch_statistics

    def record(test, rows, sorted_rows, log_density):
        if test == "ks":
            seen.append(rows.copy())
        return score(test, rows, sorted_rows, log_density)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "batch_statistics", record)
        run()
    return seen


def _sequential_draws(dist, n, replicates, seed, scen_code, dist_index):
    rng = stream(seed, scen_code, dist_index, 1)
    return np.vstack([dist.sample(n, rng) for _ in range(replicates)])


class TestJobStream:
    """A job (seed, scenario code, distribution index) draws replicate r as
    the (r+1)-th dist.sample(n, rng) call on the one stream (scen, dist, 1)."""

    @pytest.mark.parametrize("name", [
        "uniform", "beta(0.6,0.6)", "phi-laplace", "discrete-uniform-99",
        "bump(0.3,0.02,0.1)", "gap(0.5,0.05)", "outliers(0.05,0.005)",
    ])
    def test_zoo_law_rows_are_sequential_draws(self, monkeypatch, cache_dir, name):
        # grid point g is the job with distribution index g
        dist = zoo_lookup(name)
        blocks = _job_rows(monkeypatch, lambda: power_curve(
            dist, "ks", [7, 11], replicates=6, seed=4, null_b=50, cache_dir=cache_dir))
        expected = [_sequential_draws(dist, n, 6, 4, 0, g) for g, n in enumerate((7, 11))]
        assert [b.tobytes() for b in blocks] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_rows_are_sequential_draws(self, monkeypatch, cache_dir, scenario):
        blocks = _job_rows(monkeypatch, lambda: scenario_study(
            scenario, 3, 5, 9, seed=2, tests=("ks",), null_b=50, cache_dir=cache_dir))
        dists = ScenarioSampler(scenario, 2).draw_many(3)
        expected = [_sequential_draws(dist, 9, 5, 2, scenario_code(scenario), d)
                    for d, dist in enumerate(dists)]
        assert [b.tobytes() for b in blocks] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("cores, block_rows", [(1, None), (2, None), (5, None), (2, 4)])
    def test_rows_do_not_depend_on_cores_or_block_size(self, monkeypatch, cache_dir, cores,
                                                       block_rows):
        monkeypatch.setattr(harness, "_available_cores", lambda: cores)
        if block_rows is not None:  # blocks of 4 + 4 + 4 + 1 rows
            monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", block_rows * 9)
        dist = zoo_lookup("gap(0.5,0.05)")
        blocks = _job_rows(monkeypatch, lambda: estimate_power(
            dist, ("pitos", "ks"), 9, replicates=13, seed=8, null_b=50, cache_dir=cache_dir))
        assert len(blocks) == (1 if block_rows is None else 4)
        assert np.concatenate(blocks).tobytes() == _sequential_draws(dist, 9, 13, 8, 0, 0).tobytes()


class TestCommonRandomNumbers:
    def test_same_dataset_for_every_test(self, monkeypatch, cache_dir):
        # every test of a roster scores replicate r's dataset, the job's
        # (r+1)-th replicate_dataset draw; pitos sees it sorted
        seen = {}
        score, planned = harness.batch_statistics, harness.planned_p_values

        def record(test, rows, sorted_rows, log_density):
            seen.setdefault(test, []).append(rows.copy())
            return score(test, rows, sorted_rows, log_density)

        def record_pitos(sorted_rows, pairs):
            seen.setdefault("pitos", []).append(sorted_rows.copy())
            return planned(sorted_rows, pairs)

        monkeypatch.setattr(harness, "_available_cores", lambda: 1)
        monkeypatch.setattr(harness, "batch_statistics", record)
        monkeypatch.setattr(harness, "planned_p_values", record_pitos)
        dist = zoo_lookup("beta(0.6,0.6)")
        estimate_power(dist, ("pitos", "ad", "ks", "lrt"), 40, replicates=5, seed=11,
                       null_b=50, cache_dir=cache_dir)
        rng = stream(11, 0, 0, 1)
        expected = np.vstack([replicate_dataset(dist, 40, rng) for _ in range(5)])
        assert sorted(seen) == ["ad", "ks", "lrt", "pitos"]
        for test in ("ad", "ks", "lrt"):
            assert np.concatenate(seen[test]).tobytes() == expected.tobytes()
        assert np.concatenate(seen["pitos"]).tobytes() == np.sort(expected, axis=1).tobytes()

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

    def test_each_classical_null_resolved_once(self, cache_dir, monkeypatch):
        calls = []
        build = harness.build_empirical_null

        def counted(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(harness, "build_empirical_null", counted)
        scenario_study(
            "random-gap", num_distributions=4, replicates_per_distribution=10, n=12,
            seed=3, null_b=100, cache_dir=cache_dir, threads=2,
        )
        assert sorted(calls) == sorted(classic.CLASSIC_TESTS)

    def test_tied_powers_share_ranks_fractionally(self, cache_dir):
        # a two-way exact tie puts 0.5 in each of the two spanned positions
        from pitos.harness import _fractional_ranks

        row = np.array([0.4, 0.4, 0.1])
        frac = _fractional_ranks(row)
        np.testing.assert_allclose(frac[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(frac[1], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(frac[2], [0.0, 0.0, 1.0])
        # a three-way tie below the top test spans positions 2..4
        frac = _fractional_ranks(np.array([0.2, 0.9, 0.2, 0.2]))
        np.testing.assert_allclose(frac[1], [1.0, 0.0, 0.0, 0.0])
        for test in (0, 2, 3):
            np.testing.assert_allclose(frac[test], [0.0, 1 / 3, 1 / 3, 1 / 3])
        # all equal: every test spreads evenly over every position
        np.testing.assert_allclose(_fractional_ranks(np.full(3, 0.5)), np.full((3, 3), 1 / 3))


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

    @pytest.mark.parametrize("test", ["ad", "nb", "ks", "cvm"])
    def test_classical_type_one_error_at_n_1000(self, cache_dir, test):
        # R = B = 2000; the 1/B term covers the null's own quantile error
        alphas, r, b = np.array([0.01, 0.05, 0.1]), 2000, 2000
        out = null_pvalue_cdf(test, 1000, r, 21, alphas, null_b=b, cache_dir=cache_dir)
        bound = 4.0 * np.sqrt(alphas * (1.0 - alphas) * (1.0 / r + 1.0 / b))
        assert np.all(np.abs(out.series["p"] - alphas) <= bound), out.series["p"]

    def test_rejects_lrt_and_bad_grid(self):
        with pytest.raises(ValueError):
            null_pvalue_cdf("lrt", n=10, replicates=10, seed=0, grid=[0.5])
        for grid in ([1.5], [0.05, np.nan], [-np.inf]):
            with pytest.raises(ValueError, match=r"^grid must be a 1-D array of thresholds in "):
                null_pvalue_cdf("pitos", n=10, replicates=10, seed=0, grid=grid)


def _md5(values):
    return hashlib.md5(np.ascontiguousarray(values).tobytes()).hexdigest()


class TestFrozenCalibration:
    """md5s of calibration outputs, re-captured when each job came to draw
    its replicate datasets from one stream; the pitos p-values of a given
    dataset are still those of the implementation in which calibration
    scored its pitos replicates in a loop of its own."""

    @pytest.mark.parametrize("args, pair_seed, expected", [
        ((1, 200, 3), None,
         ("c6d0819775fcaa63701fed728092a353", "7a7ff9f7998bd7a9c66f6f029a2c3499")),
        ((12, 400, 4), None,
         ("df01cf614d8edca481be29e4cea97d47", "c00a9ac35a07072459909ff5aff43262")),
        ((30, 300, 5), None,
         ("4ad384c329e7d88bea77163a0eaef4d5", "37e6af96aaf8216a6f5132e883a323f5")),
        ((25, 200, 6), 7,
         ("06a28cbe6c5060bc4dd60d2ab918445a", "5f507f9f8c95c9d5055d468194758b30")),
    ])
    def test_null_pitos_pvalues(self, args, pair_seed, expected):
        p, p_star = null_pitos_pvalues(*args, pair_seed=pair_seed)
        assert (_md5(p), _md5(p_star)) == expected

    @pytest.mark.parametrize("test, expected", [
        ("pitos", {"p": "c212e8d06b68edb69b42451536387d7b",
                   "p_star": "4363951a301f3200c01bcd2d5048a2f7"}),
        ("ks", {"p": "64c3a619869dfe3e5ae1bf1514828359"}),
    ])
    def test_null_pvalue_cdf(self, cache_dir, test, expected):
        out = null_pvalue_cdf(test, 15, 300, 2, np.linspace(0.0, 1.0, 201),
                              null_b=500, cache_dir=cache_dir)
        assert {k: _md5(v) for k, v in out.series.items()} == expected
