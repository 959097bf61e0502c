"""Benchmark statistics against hand arithmetic, the brute-force KS oracle,
empirical-null machinery, and add-one p-value validity."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from pitos import classic
from pitos.classic import (
    EmpiricalNull,
    ad_statistic,
    batch_statistics,
    build_empirical_null,
    classic_test,
    cvm_statistic,
    empirical_p_value,
    ks_statistic,
    lrt_statistic,
    nb_statistic,
)
from pitos.distributions import DistributionSpec, zoo_lookup
from pitos.streams import stream


def _alternative(name, log_density):
    """An lrt alternative that is only a log-density; the null never samples it."""
    return DistributionSpec(name=name, parameters={}, sampler=None, log_density=log_density)


class TestStatisticsHandValues:
    def test_ad_single_midpoint(self):
        assert ad_statistic([0.5]) == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-12)

    def test_ad_two_points(self):
        expected = -2.0 - 0.5 * (
            1.0 * (math.log(0.25) + math.log(0.25)) + 3.0 * (math.log(0.75) + math.log(0.75))
        )
        assert ad_statistic([0.25, 0.75]) == pytest.approx(expected, abs=1e-12)

    def test_ad_boundary_value_is_infinite(self):
        assert ad_statistic([0.0, 0.5]) == math.inf
        assert ad_statistic([0.5, 1.0]) == math.inf

    def test_nb_hand_values(self):
        # orthonormal shifted Legendre: pi1(0) = -sqrt(3), pi2(0) = sqrt(5)
        assert nb_statistic([0.0]) == pytest.approx(3.0 + 5.0, abs=1e-12)
        # pi1(1/2) = 0, pi2(1/2) = -sqrt(5)/2
        assert nb_statistic([0.5]) == pytest.approx(1.25, abs=1e-12)

    def test_nb_zero_mean_under_exact_symmetry(self):
        # the polynomials integrate to zero against the uniform density
        from scipy.integrate import quad

        assert quad(lambda x: math.sqrt(3.0) * (2 * x - 1), 0, 1)[0] == pytest.approx(0, abs=1e-12)
        assert quad(lambda x: math.sqrt(5.0) * (6 * x * x - 6 * x + 1), 0, 1)[0] == pytest.approx(
            0, abs=1e-12
        )

    def test_ks_hand_values(self):
        assert ks_statistic([0.5]) == pytest.approx(0.5, abs=1e-15)
        assert ks_statistic([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)
        assert ks_statistic([0.1, 0.2, 0.3, 0.4]) == pytest.approx(0.6, abs=1e-15)

    def test_cvm_hand_values(self):
        assert cvm_statistic([0.5]) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert cvm_statistic([0.25, 0.75]) == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert cvm_statistic([0.9]) == pytest.approx(1.0 / 12.0 + 0.16, abs=1e-12)

    def test_lrt_hand_values(self):
        uniform_logpdf = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        assert lrt_statistic([0.3, 0.9, 0.1], uniform_logpdf) == 0.0
        rising = lambda x: np.log(2.0 * np.asarray(x, dtype=float))
        assert lrt_statistic([0.5, 0.5], rising) == pytest.approx(0.0, abs=1e-15)
        assert lrt_statistic([0.25], rising) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_lrt_minus_infinity_allowed(self):
        gap_logpdf = lambda x: np.where(np.asarray(x) > 0.5, 0.0, -np.inf)
        assert lrt_statistic([0.7, 0.2], gap_logpdf) == -math.inf


class TestInvariances:
    @pytest.mark.parametrize("stat", [ad_statistic, nb_statistic, ks_statistic, cvm_statistic])
    def test_permutation_invariant(self, stat):
        rng = np.random.default_rng(31)
        data = rng.random(40)
        reference = stat(data)
        for _ in range(3):
            assert stat(rng.permutation(data)) == pytest.approx(reference, rel=1e-12)

    def test_ks_matches_brute_force_grid(self):
        # exact formula vs a 1e5-point sup scan, 100 random samples
        rng = np.random.default_rng(37)
        grid = np.linspace(0.0, 1.0, 100_001)
        for _ in range(100):
            data = np.sort(rng.random(rng.integers(1, 40)))
            brute = np.abs(np.searchsorted(data, grid, side="right") / len(data) - grid).max()
            assert abs(ks_statistic(data) - brute) <= 1e-5

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(41)
        rows = rng.random((5, 30))
        for test, fn in [("ad", ad_statistic), ("nb", nb_statistic),
                         ("ks", ks_statistic), ("cvm", cvm_statistic)]:
            batch = batch_statistics(test, rows)
            for r in range(5):
                assert batch[r] == pytest.approx(fn(rows[r]), rel=1e-12)


class TestEmpiricalNull:
    def test_deterministic_and_sorted(self, cache_dir):
        a = build_empirical_null("ks", 20, B=500, seed=9, cache_dir=cache_dir)
        b = build_empirical_null("ks", 20, B=500, seed=9, cache_dir=cache_dir / "other")
        np.testing.assert_array_equal(a.statistics, b.statistics)
        assert np.all(np.diff(a.statistics) >= 0)

    def test_cache_roundtrip(self, cache_dir):
        first = build_empirical_null("cvm", 15, B=300, seed=2, cache_dir=cache_dir)
        files = list(cache_dir.glob("*.npz"))
        assert len(files) == 1
        again = build_empirical_null("cvm", 15, B=300, seed=2, cache_dir=cache_dir)
        np.testing.assert_array_equal(first.statistics, again.statistics)

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_corrupt_cache_file_regenerates(self, cache_dir, caplog, damage):
        first = build_empirical_null("ad", 12, B=200, seed=4, cache_dir=cache_dir)
        (path,) = cache_dir.glob("*.npz")
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"")
        again = build_empirical_null("ad", 12, B=200, seed=4, cache_dir=cache_dir)
        assert again.statistics.tobytes() == first.statistics.tobytes()
        assert path.read_bytes() == whole
        assert any("unreadable null cache" in r.message for r in caplog.records)

    def test_cache_without_version_is_rebuilt(self, cache_dir):
        first = build_empirical_null("nb", 14, B=250, seed=3, cache_dir=cache_dir)
        (path,) = cache_dir.glob("*.npz")
        whole = path.read_bytes()
        # a file from before the version key, holding other statistics
        old_header = json.dumps({"test": "nb", "n": 14, "B": 250, "seed": 3})
        np.savez(path, header=np.array(old_header), statistics=np.zeros(250))
        again = build_empirical_null("nb", 14, B=250, seed=3, cache_dir=cache_dir)
        assert again.statistics.tobytes() == first.statistics.tobytes()
        assert path.read_bytes() == whole

    def test_concurrent_writers_of_one_null(self, cache_dir, caplog, monkeypatch):
        # more writers than cores, released together right before the write
        writers = 4
        barrier = threading.Barrier(writers, timeout=30)
        store = classic._store_null

        def store_together(path, null):
            barrier.wait()
            store(path, null)

        monkeypatch.setattr(classic, "_store_null", store_together)
        results = [None] * writers

        def build(w):
            results[w] = build_empirical_null("ks", 40, B=3000, seed=6, cache_dir=cache_dir)

        threads = [threading.Thread(target=build, args=(w,)) for w in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None for r in results)
        for r in results[1:]:
            assert r.statistics.tobytes() == results[0].statistics.tobytes()
        # the final file alone: no temp file left behind, no failed write
        assert [p.name for p in cache_dir.iterdir()] == ["ks_n40_B3000_s6.npz"]
        assert not caplog.records
        monkeypatch.undo()
        again = build_empirical_null("ks", 40, B=3000, seed=6, cache_dir=cache_dir)
        assert again.statistics.tobytes() == results[0].statistics.tobytes()
        assert not caplog.records  # loaded from the file, not rebuilt

    @pytest.mark.parametrize("ragged", [False, True], ids=["one-block", "ragged"])
    @pytest.mark.parametrize("test", ["ad", "nb", "ks", "cvm", "lrt"])
    def test_both_row_paths_match_a_per_stream_reference(self, tmp_path, monkeypatch, test,
                                                         ragged):
        # rows come from uniform_rows up to UNIFORM_ROWS_MAX_N and from one
        # stream() per replicate above it: the same statistics, the same file
        B, seed = 60, 11
        alternative = None
        if test == "lrt":
            alternative = _alternative("rising", lambda x: np.log(2.0 * np.asarray(x, float)))
        log_density = getattr(alternative, "log_density", None)
        calls = []
        monkeypatch.setattr(classic, "stream", lambda *key: calls.append(key) or stream(*key))
        for n in (classic.UNIFORM_ROWS_MAX_N, classic.UNIFORM_ROWS_MAX_N + 1):
            if ragged:
                monkeypatch.setattr(classic, "ROW_BLOCK_VALUES", 7 * n)  # 8 blocks of 7, then 4
            rows = np.array([stream(seed, r).random(n) for r in range(B)])
            expected = np.sort(batch_statistics(test, rows, log_density=log_density))
            calls.clear()
            null = build_empirical_null(test, n, B, seed, alternative=alternative,
                                        cache_dir=tmp_path / "built")
            assert len(calls) == (0 if n <= classic.UNIFORM_ROWS_MAX_N else B)
            assert null.statistics.tobytes() == expected.tobytes()
            built = classic._cache_path(tmp_path / "built", test, n, B, seed, alternative)
            reference = tmp_path / "reference" / built.name
            classic._store_null(reference, EmpiricalNull(test, n, expected, B, seed))
            assert built.read_bytes() == reference.read_bytes()

    def test_lrt_needs_density_and_label_separates_cache(self, cache_dir):
        # the label is composed from the alternative's name and parameters
        flat = _alternative("flat", lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        rising = _alternative("rising", lambda x: np.log(2.0 * np.asarray(x, dtype=float)))
        a = build_empirical_null("lrt", 10, B=50, seed=0, alternative=flat, cache_dir=cache_dir)
        b = build_empirical_null("lrt", 10, B=50, seed=0, alternative=rising, cache_dir=cache_dir)
        assert not np.array_equal(a.statistics, b.statistics)
        assert len(list(cache_dir.iterdir())) == 2

    @pytest.mark.parametrize("alternative", [None, zoo_lookup("discrete-uniform-99")],
                             ids=["none", "discrete"])
    def test_lrt_null_needs_an_alternative_with_a_density(self, cache_dir, alternative):
        # without one there is nothing to sum, and no key to file the null under
        with pytest.raises(ValueError, match="^lrt oracle needs an alternative with a log-density"):
            build_empirical_null("lrt", 10, B=50, seed=0, alternative=alternative,
                                 cache_dir=cache_dir)
        assert not cache_dir.exists()

    def test_alternative_refused_for_a_classical_test(self, cache_dir):
        with pytest.raises(ValueError, match="only meaningful for the lrt test"):
            build_empirical_null("ks", 10, B=50, seed=0, alternative=zoo_lookup("uniform"),
                                 cache_dir=cache_dir)
        assert not cache_dir.exists()

    def test_nan_null_statistics_are_named_and_not_cached(self, cache_dir):
        below_half_is_nan = _alternative("nan", lambda x: np.where(np.asarray(x) < 0.5, np.nan, 0.0))
        with pytest.raises(ValueError, match=r"^lrt null at n=1: 22/50 statistics are NaN$"):
            build_empirical_null("lrt", 1, B=50, seed=0, alternative=below_half_is_nan,
                                 cache_dir=cache_dir)
        assert not cache_dir.exists()

    def test_unknown_test_rejected(self, cache_dir):
        with pytest.raises(ValueError):
            build_empirical_null("watson", 10, B=10, seed=0, cache_dir=cache_dir)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalNull("ks", 5, np.array([0.3, 0.1]), B=2, seed=0)
        with pytest.raises(ValueError):
            EmpiricalNull("ks", 5, np.array([0.1, 0.3]), B=3, seed=0)


class TestEmpiricalPValue:
    def test_observed_beyond_all_nulls(self):
        null = EmpiricalNull("ks", 5, np.sort(np.linspace(0, 1, 99)), B=99, seed=0)
        assert empirical_p_value(null, 2.0) == pytest.approx(0.01, abs=1e-15)

    def test_minus_infinity_gives_one(self):
        null = EmpiricalNull("ks", 5, np.sort(np.linspace(0, 1, 99)), B=99, seed=0)
        assert empirical_p_value(null, -math.inf) == 1.0

    def test_tie_with_median_counts_as_exceedance(self):
        B = 99
        stats = np.sort(np.arange(B, dtype=float))
        null = EmpiricalNull("ks", 5, stats, B=B, seed=0)
        median = stats[B // 2]
        expected = ((B + 1) / 2 + 1) / (B + 1)
        assert empirical_p_value(null, median) == pytest.approx(expected, abs=1e-15)

    def test_vectorized(self):
        null = EmpiricalNull("ks", 5, np.sort(np.linspace(0, 1, 9)), B=9, seed=0)
        out = empirical_p_value(null, np.array([-1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 0.1])

    def test_nan_observation_gets_nan(self):
        # an unscorable sample is no evidence, not the strongest rejection
        null = EmpiricalNull("ks", 5, np.linspace(0.1, 0.9, 99), B=99, seed=0)
        assert math.isnan(empirical_p_value(null, float("nan")))
        out = empirical_p_value(null, np.array([2.0, np.nan, -1.0]))
        assert out[0] == 0.01 and math.isnan(out[1]) and out[2] == 1.0


class TestAddOneValidity:
    def test_null_rejection_rates_at_three_levels(self, session_cache_dir):
        # validity of the add-one estimator: rejection rate alpha within
        # 2 sqrt(alpha(1-alpha)/R) over R fresh null replicates; B large
        # enough that the shared null set's own noise stays subdominant
        rng = np.random.default_rng(43)
        n, B, R = 40, 20_000, 10_000
        rows = rng.random((R, n))
        for test in ("ad", "nb", "ks", "cvm"):
            null = build_empirical_null(test, n, B=B, seed=7, cache_dir=session_cache_dir)
            pvals = empirical_p_value(null, batch_statistics(test, rows))
            for alpha in (0.01, 0.05, 0.10):
                rate = float(np.mean(pvals <= alpha))
                bound = 2.0 * math.sqrt(alpha * (1.0 - alpha) / R)
                assert abs(rate - alpha) <= bound, (test, alpha, rate)


class TestClassicVerdict:
    def test_verdict_fields(self, cache_dir):
        verdict = classic_test("ks", [0.1, 0.9, 0.4], null_b=200, seed=3, cache_dir=cache_dir)
        assert verdict.test_name == "KS"
        assert verdict.n == 3 and verdict.b == 200 and verdict.seed == 3
        assert 0.0 < verdict.p_value <= 1.0

    def test_unknown_method(self, cache_dir):
        with pytest.raises(ValueError):
            classic_test("lrt", [0.5], cache_dir=cache_dir)
