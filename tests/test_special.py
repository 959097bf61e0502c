"""Special-function contracts: trivial identities, the quadrature oracle,
monotonicity, symmetry, the inverse round trip, and log B(a, b)."""

import math

import numpy as np
import pytest

from pitos.special import beta_cdf, beta_inv_cdf, log_beta

from conftest import beta_cdf_quadrature

GRID_SHAPES = [0.5, 0.7, 1.0, 2.0, 5.0, 50.0, 199.0]
GRID_X = [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999]

# Quadrature oracle value for Beta(0.7, 0.7) CDF at 0.25, frozen during the
# oracle's development run.
BETA_07_07_AT_025 = 0.2949081813444005


class TestBetaCdf:
    def test_uniform_case_is_identity(self):
        assert beta_cdf(0.3, 1, 1) == pytest.approx(0.3, abs=1e-15)

    def test_symmetric_median(self):
        assert beta_cdf(0.5, 2, 2) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_quadrature_value(self):
        assert beta_cdf(0.25, 0.7, 0.7) == pytest.approx(BETA_07_07_AT_025, abs=1e-12)

    def test_exact_endpoints(self):
        for a in GRID_SHAPES:
            for b in GRID_SHAPES:
                assert beta_cdf(0.0, a, b) == 0.0
                assert beta_cdf(1.0, a, b) == 1.0

    def test_matches_quadrature_oracle_on_grid(self):
        for a in GRID_SHAPES:
            for b in GRID_SHAPES:
                for x in GRID_X:
                    oracle = beta_cdf_quadrature(x, a, b)
                    assert beta_cdf(x, a, b) == pytest.approx(oracle, abs=1e-12), (a, b, x)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(42)
        for a, b in [(0.7, 0.7), (2.0, 5.0), (199.0, 0.5)]:
            x = np.sort(rng.random(1000))
            values = beta_cdf(x, a, b)
            assert np.all(np.diff(values) >= 0.0)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(7)
        x = rng.random(200)
        for a, b in [(0.7, 0.7), (1.5, 3.0), (50.0, 2.0)]:
            lhs = beta_cdf(x, a, b)
            rhs = 1.0 - beta_cdf(1.0 - x, b, a)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_cdf(-0.1, 1, 1)
        with pytest.raises(ValueError):
            beta_cdf(1.1, 1, 1)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 1, -2)
        with pytest.raises(ValueError):
            beta_cdf(float("nan"), 1, 1)

    def test_large_shapes_no_overflow(self):
        v = beta_cdf(0.5, 1e6, 1e6)
        assert 0.49 < v < 0.51
        assert np.isfinite(log_beta(1e6, 1e6))


class TestBetaInverse:
    def test_symmetric_midpoint(self):
        assert beta_inv_cdf(0.5, 0.7, 0.7) == pytest.approx(0.5, abs=1e-10)

    def test_uniform_case(self):
        assert beta_inv_cdf(0.42, 1, 1) == pytest.approx(0.42, abs=1e-13)

    def test_roundtrip(self):
        u = beta_cdf(0.37, 0.7, 0.7)
        assert beta_inv_cdf(u, 0.7, 0.7) == pytest.approx(0.37, abs=1e-10)

    def test_endpoints(self):
        assert beta_inv_cdf(0.0, 0.7, 0.7) == 0.0
        assert beta_inv_cdf(1.0, 0.7, 0.7) == 1.0

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        u = rng.random(5000)
        for a, b in [(0.7, 0.7), (0.5, 5.0), (50.0, 2.0)]:
            x = beta_inv_cdf(u, a, b)
            resid = np.abs(beta_cdf(x, a, b) - u)
            assert resid.max() <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_inv_cdf(-0.2, 1, 1)
        with pytest.raises(ValueError):
            beta_inv_cdf(1.0001, 1, 1)


class TestParamsAndGamma:
    def test_log_beta_consistency(self):
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-13)
