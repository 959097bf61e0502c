"""Distribution zoo: densities integrate to one, samplers agree with CDFs,
the Gamma parameterization is shape-scale, and the scenario rejection
conditions hold on every draw."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from pitos.classic import lrt_statistic
from pitos.distributions import (
    SCENARIOS,
    ScenarioSampler,
    draw_scenario_distribution,
    make_bump,
    make_outliers,
    scenario_code,
    zoo_lookup,
)

from conftest import ecdf_sup_distance

CONTINUOUS_ZOO = [
    "uniform",
    "beta(1.2,0.8)",
    "beta(0.6,0.6)",
    "beta(1.6,1.6)",
    "phi-laplace",
    "bump(0.5,0.001,0.08)",
    "gap(0.5,0.05)",
]


def _integrates_to_one(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if spec.name == "phi-laplace":
            # the density is unbounded at both endpoints (it overflows float64
            # below x ~ 1e-300), so integrate under the substitution
            # x = ndtr(z), the standard normal CDF: integrand
            # f(ndtr(z)) * phi(z) on a z range whose excluded tails carry
            # < 1e-8 mass
            def g(z):
                x = special.ndtr(z)
                return math.exp(spec.log_density(x) - 0.5 * z * z) / math.sqrt(2.0 * math.pi)

            # x = ndtr(z) rounds to exactly 1.0 beyond z ~ 9, so cover
            # the upper half through the density's symmetry about one half
            return 2.0 * integrate.quad(g, -25.0, 0.0, limit=400)[0]
        # split at density discontinuities and at 0.5 so endpoint
        # singularities always sit at a panel edge
        edges = sorted({0.0, 0.5, 1.0, *spec.breakpoints})
        return sum(
            integrate.quad(lambda x: math.exp(spec.log_density(x)), lo, hi, limit=400)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )


class TestZoo:
    @pytest.mark.parametrize("name", CONTINUOUS_ZOO)
    def test_density_normalized(self, name):
        spec = zoo_lookup(name)
        assert _integrates_to_one(spec) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name", CONTINUOUS_ZOO)
    def test_sampler_matches_cdf(self, name):
        # empirical CDF of 1e5 draws vs spec.cdf via the PIT: KS below 0.01
        spec = zoo_lookup(name)
        rng = np.random.default_rng(61)
        draws = spec.sample(100_000, rng)
        assert ecdf_sup_distance(spec.cdf(draws)) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_uniform_is_flat(self):
        spec = zoo_lookup("uniform")
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(np.exp(spec.log_density(x)), 1.0)
        np.testing.assert_allclose(spec.cdf(x), x)

    def test_phi_laplace_density_value(self):
        spec = zoo_lookup("phi-laplace")
        assert math.exp(spec.log_density(0.5)) == pytest.approx(
            math.sqrt(2.0 * math.pi) / 2.0, rel=1e-12
        )

    def test_discrete_uniform_support_and_probabilities(self):
        spec = zoo_lookup("discrete-uniform-99")
        rng = np.random.default_rng(67)
        draws = spec.sample(200_000, rng)
        support = np.arange(1, 100) / 100.0
        assert set(np.unique(draws)).issubset(set(support))
        # each atom has probability 1/99; 6-sigma band on 200k draws
        counts = np.array([(draws == s).sum() for s in support]) / len(draws)
        sigma = math.sqrt((1 / 99) * (98 / 99) / len(draws))
        assert np.abs(counts - 1.0 / 99.0).max() < 6.0 * sigma
        assert spec.log_density is None and spec.is_discrete

    def test_bump_and_gap_shapes(self):
        bump = zoo_lookup("bump(0.5,0.001,0.08)")
        assert math.exp(bump.log_density(0.5)) == pytest.approx(0.08 / 0.002 + 0.92, rel=1e-12)
        assert math.exp(bump.log_density(0.9)) == pytest.approx(0.92, rel=1e-12)
        gap = zoo_lookup("gap(0.5,0.05)")
        assert gap.log_density(0.5) == -math.inf
        assert math.exp(gap.log_density(0.1)) == pytest.approx(1.0 / 0.9, rel=1e-12)
        rng = np.random.default_rng(71)
        draws = gap.sample(50_000, rng)
        assert not np.any((draws > 0.45) & (draws < 0.55))

    def test_outliers_density_value(self):
        spec = make_outliers(0.05, 0.005)
        assert math.exp(spec.log_density(0.003)) == pytest.approx(10.95, rel=1e-12)

    def test_gap_forced_draw_weights(self):
        # center 0.5, halfwidth 0.1: each side carries weight 0.4/0.8 = 1/2
        gap = zoo_lookup("gap(0.5,0.1)")
        assert gap.cdf(0.4) == pytest.approx(0.5, abs=1e-12)
        rng = np.random.default_rng(73)
        draws = gap.sample(100_000, rng)
        assert np.mean(draws < 0.5) == pytest.approx(0.5, abs=0.01)

    def test_unknown_names_rejected(self):
        for bad in ("triangle", "beta(1.0)", "beta(a,b)", "bump(0.5,0.001)", ""):
            with pytest.raises(ValueError):
                zoo_lookup(bad)

    @pytest.mark.parametrize("name", ["beta(nan,1)", "beta(inf,1)"])
    def test_non_finite_beta_shapes_rejected(self, name):
        with pytest.raises(ValueError, match="^beta shapes must be finite$"):
            zoo_lookup(name)

    @pytest.mark.parametrize("spec, outside, inside", [
        (make_bump(0.5, 0.1, 1.0), 0.2, 0.5),
        (make_outliers(1.0, 0.3), 0.5, 0.2),
    ], ids=["bump", "outliers"])
    def test_full_weight_window(self, spec, outside, inside):
        # no mass outside the window: log-density -inf there, finite inside
        log_density = spec.log_density(np.array([outside, inside]))
        assert log_density[0] == -math.inf and math.isfinite(log_density[1])
        assert lrt_statistic([inside, outside], spec.log_density) == -math.inf
        assert math.isfinite(lrt_statistic([inside], spec.log_density))


class TestGammaParameterization:
    def test_shape_scale_mean(self):
        # Gamma(3, 1/2) has mean 1.5 under the shape-scale density convention
        rng = np.random.default_rng(79)
        draws = rng.gamma(3.0, 0.5, size=1_000_000)
        assert draws.mean() == pytest.approx(1.5, abs=0.01)


class TestScenarios:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_draws_are_valid_specs(self, scenario):
        rng = np.random.default_rng(83)
        for _ in range(20):
            spec = draw_scenario_distribution(scenario, rng)
            draws = spec.sample(500, rng)
            assert draws.min() >= 0.0 and draws.max() <= 1.0
            assert _integrates_to_one(spec) == pytest.approx(1.0, abs=1e-6)

    def test_rejection_conditions_hold(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            spec = draw_scenario_distribution("symmetric-heavy", rng)
            assert min(spec.parameters["a"], spec.parameters["b"]) <= 1.0
            spec = draw_scenario_distribution("symmetric-light", rng)
            assert min(spec.parameters["a"], spec.parameters["b"]) > 1.0
            spec = draw_scenario_distribution("asymmetric-heavy", rng)
            assert min(spec.parameters["a"], spec.parameters["b"]) <= 1.0
            spec = draw_scenario_distribution("asymmetric-light", rng)
            assert min(spec.parameters["a"], spec.parameters["b"]) > 1.0

    def test_parameter_ranges(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            out = draw_scenario_distribution("outliers", rng)
            assert 0.0 <= out.parameters["mix"] <= 0.1
            assert 0.0 < out.parameters["bound"] <= 0.01
            bump = draw_scenario_distribution("random-bump", rng)
            assert 0.001 <= bump.parameters["center"] <= 0.999
            assert bump.parameters["width"] == 0.001
            gap = draw_scenario_distribution("random-gap", rng)
            assert 0.1 <= gap.parameters["center"] <= 0.9
            assert 0.025 <= gap.parameters["halfwidth"] <= 0.1

    def test_nearly_uniform_concentrates_near_flat(self):
        rng = np.random.default_rng(101)
        shapes = [draw_scenario_distribution("nearly-uniform", rng).parameters for _ in range(200)]
        a = np.array([s["a"] for s in shapes])
        b = np.array([s["b"] for s in shapes])
        assert 0.7 < a.mean() < 1.3 and 0.7 < b.mean() < 1.3

    def test_sampler_reproducible_per_index(self):
        s = ScenarioSampler("random-gap", seed=5)
        many = s.draw_many(4)
        assert s.draw(2).parameters == many[2].parameters
        assert scenario_code("random-gap") == SCENARIOS.index("random-gap") + 1

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_printed_names_parse_back(self, scenario):
        for spec in ScenarioSampler(scenario, seed=13).draw_many(20):
            assert zoo_lookup(spec.name).name == spec.name

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            draw_scenario_distribution("weird", np.random.default_rng(0))
        with pytest.raises(ValueError):
            ScenarioSampler("weird", 0)


# md5 of a member's parameters, breakpoints, 500 draws and its log-density and
# cdf on 1001 points of [0, 1], frozen before bump and outliers shared one
# mixture law and nearly-uniform shared the beta-family draw; "scenario#k" is
# draw k of that scenario under seed 4
FROZEN_LAWS = {
    "bump(0.5,0.05,0.3)": "9d5794804c80904948bc3b1f51b88d3c",
    "bump(0.999,0.001,0.1)": "86872a8b48ef4c6c607b44f010010c1b",
    "outliers#0": "f9d7ef775c494426658d0c333443362f",
    "outliers#2": "6aadf40a63285a8154b23f9ed5226f64",
    "nearly-uniform#1": "a30338bde957832697cd46c113c70fdd",
    "random-bump#2": "19e81c93d6cc189fa1b6414c7b22fe06",
}


def _law_digest(spec):
    x = np.linspace(0.0, 1.0, 1001)
    h = hashlib.md5(repr((spec.name, spec.parameters, spec.breakpoints)).encode())
    h.update(spec.sample(500, np.random.default_rng(3)).tobytes())
    h.update(np.asarray(spec.log_density(x), dtype=float).tobytes())
    h.update(np.asarray(spec.cdf(x), dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(FROZEN_LAWS))
def test_frozen_laws(key):
    scenario, _, index = key.partition("#")
    spec = ScenarioSampler(scenario, 4).draw(int(index)) if index else zoo_lookup(key)
    assert _law_digest(spec) == FROZEN_LAWS[key]
