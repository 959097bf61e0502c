"""Distribution zoo and randomized-scenario samplers.

Zoo members (all supported on [0, 1]):

  uniform              flat density
  beta(a,b)            arbitrary positive finite shapes
  phi-laplace          distribution of Phi(Y), Y ~ Laplace(0,1), Phi the
                       standard normal CDF; heavy PIT tails
  discrete-uniform-99  uniform on {0.01, 0.02, ..., 0.99}
  bump(center,width,mass)   mass * U(center-width, center+width) mixed with
                            (1-mass) * U(0,1)
  gap(center,halfwidth)     uniform on [0,1] minus (center-hw, center+hw),
                            the two sides weighted to preserve proportions

Scenario samplers draw a distribution at random from a parametric family,
rejecting until the family's condition holds:

  symmetric-heavy    Beta(mu s, (1-mu) s), mu = 1/2, s ~ Gamma(3, 1/2),
                     until min(mu s, (1-mu) s) <= 1
  symmetric-light    as above with s ~ Gamma(5, 1/2), until min(...) > 1
  asymmetric-heavy   mu ~ Beta(2,2), s ~ Gamma(3, 1/2), until min(...) <= 1
  asymmetric-light   mu ~ Beta(2,2), s ~ Gamma(5, 1/2), until min(...) > 1
  outliers           pi U(0,b) + (1-pi) U(0,1), pi ~ U(0,0.1), b ~ U(0,0.01)
  nearly-uniform     mu ~ Beta(50,50), s ~ Gamma(100, 1/50)
  random-bump        bump(m, 0.001, pi), m ~ U(0.001,0.999), pi ~ U(0,0.1)
  random-gap         gap(m, w), m ~ U(0.1,0.9), w ~ U(0.025,0.1)

Gamma(shape, scale) follows the density x^(a-1) exp(-x/s) / (s^a Gamma(a)),
so its mean is shape * scale.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as _sp

from .special import _validate_shapes, beta_log_pdf
from .streams import stream

__all__ = [
    "DistributionSpec",
    "SCENARIOS",
    "ScenarioSampler",
    "draw_scenario_distribution",
    "make_beta",
    "make_bump",
    "make_gap",
    "make_outliers",
    "scenario_code",
    "zoo_lookup",
]

REJECTION_CAP = 10**6


@dataclass(frozen=True)
class DistributionSpec:
    """Closed description of a sampling distribution on [0, 1].

    sampler(n, rng) returns n draws; log_density and cdf are vectorized and
    may be None where undefined (no density for discrete members).  cdf_left
    is the left limit, distinct from cdf only for discrete members.
    """

    name: str
    parameters: dict
    sampler: Callable = field(repr=False)
    log_density: Callable | None = field(default=None, repr=False)
    cdf: Callable | None = field(default=None, repr=False)
    cdf_left: Callable | None = field(default=None, repr=False)
    is_discrete: bool = False
    breakpoints: tuple = ()  # interior density discontinuities, for quadrature

    def sample(self, n, rng):
        return self.sampler(n, rng)


def make_uniform():
    return DistributionSpec(
        name="uniform",
        parameters={},
        sampler=lambda n, rng: rng.random(n),
        log_density=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        cdf=lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
    )


def make_beta(a, b):
    a, b = map(float, _validate_shapes(a, b))
    return DistributionSpec(
        name=f"beta({a:g},{b:g})",
        parameters={"a": a, "b": b},
        sampler=lambda n, rng: rng.beta(a, b, size=n),
        log_density=lambda x: beta_log_pdf(np.asarray(x, dtype=float), a, b),
        cdf=lambda x: _sp.betainc(a, b, np.clip(np.asarray(x, dtype=float), 0.0, 1.0)),
    )


def make_phi_laplace():
    # density of Phi(Y), Y ~ Laplace(0,1): f_L(z) / phi(z) at z = Phi^{-1}(x)
    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        z = _sp.ndtri(np.clip(x, 1e-300, 1.0 - 1e-16))
        return (-np.abs(z) - math.log(2.0)) + (0.5 * z * z + log_sqrt_2pi)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        z = _sp.ndtri(np.clip(x, 1e-300, 1.0 - 1e-16))
        out = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
        return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out))

    return DistributionSpec(
        name="phi-laplace",
        parameters={},
        sampler=lambda n, rng: _sp.ndtr(rng.laplace(0.0, 1.0, size=n)),
        log_density=log_density,
        cdf=cdf,
    )


_DISCRETE_SUPPORT = np.arange(1, 100) / 100.0


def make_discrete_uniform_99():
    support = _DISCRETE_SUPPORT

    def cdf(x):
        return np.searchsorted(support, np.asarray(x, dtype=float), side="right") / 99.0

    def cdf_left(x):
        return np.searchsorted(support, np.asarray(x, dtype=float), side="left") / 99.0

    return DistributionSpec(
        name="discrete-uniform-99",
        parameters={},
        sampler=lambda n, rng: rng.integers(1, 100, size=n) / 100.0,
        cdf=cdf,
        cdf_left=cdf_left,
        is_discrete=True,
    )


def _window_mixture(lo, hi, span, mass):
    """sampler, log_density and cdf of mass * U(lo, hi) + (1-mass) * U(0, 1).

    `span` is the window length as the caller writes it; it scales the
    draws and the cdf, so it is passed rather than recomputed as hi - lo.
    """
    inside_density = mass / span + (1.0 - mass)
    # a full-weight window has no mass outside it: log1p(-1) would raise
    outside_log_density = -math.inf if mass == 1.0 else math.log1p(-mass)

    def sampler(n, rng):
        base = rng.random(n)
        pick = rng.random(n) < mass
        return np.where(pick, lo + span * base, base)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, math.log(inside_density), outside_log_density)

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return mass * np.clip((x - lo) / span, 0.0, 1.0) + (1.0 - mass) * x

    return {"sampler": sampler, "log_density": log_density, "cdf": cdf}


def make_bump(center, width, mass):
    """Mixture mass * U(center-width, center+width) + (1-mass) * U(0, 1)."""
    center, width, mass = float(center), float(width), float(mass)
    if not (0.0 < width and 0.0 <= center - width and center + width <= 1.0):
        raise ValueError("bump interval must sit inside [0, 1] with positive width")
    if not (0.0 <= mass <= 1.0):
        raise ValueError("bump mass must lie in [0, 1]")
    lo, hi = center - width, center + width
    return DistributionSpec(
        name=f"bump({center:g},{width:g},{mass:g})",
        parameters={"center": center, "width": width, "mass": mass},
        breakpoints=(lo, hi),
        **_window_mixture(lo, hi, 2.0 * width, mass),
    )


def make_gap(center, halfwidth):
    """Uniform off the excluded band (center-hw, center+hw), sides re-weighted."""
    center, halfwidth = float(center), float(halfwidth)
    if not (0.0 < halfwidth < 0.5 and 0.0 <= center - halfwidth and center + halfwidth <= 1.0):
        raise ValueError("gap band must sit inside [0, 1]")
    lo, hi = center - halfwidth, center + halfwidth
    scale = 1.0 - 2.0 * halfwidth  # support length; density 1/scale on it

    def sampler(n, rng):
        base = rng.random(n) * scale
        return np.where(base >= lo, base + 2.0 * halfwidth, base)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        in_gap = (x > lo) & (x < hi)
        return np.where(in_gap, -np.inf, -math.log(scale))

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        folded = np.where(x <= lo, x, np.where(x >= hi, x - 2.0 * halfwidth, lo))
        return folded / scale

    return DistributionSpec(
        name=f"gap({center:g},{halfwidth:g})",
        parameters={"center": center, "halfwidth": halfwidth},
        sampler=sampler,
        log_density=log_density,
        cdf=cdf,
        breakpoints=(lo, hi),
    )


def make_outliers(mix, bound):
    """Mixture mix * U(0, bound) + (1-mix) * U(0, 1)."""
    mix, bound = float(mix), float(bound)
    if not (0.0 <= mix <= 1.0 and 0.0 < bound <= 1.0):
        raise ValueError("need mix in [0, 1] and bound in (0, 1]")
    return DistributionSpec(
        name=f"outliers({mix:g},{bound:g})",
        parameters={"mix": mix, "bound": bound},
        breakpoints=(bound,),
        **_window_mixture(0.0, bound, bound, mix),
    )


_CALL_RE = re.compile(r"^([a-z-]+)\(([^)]*)\)$")


def zoo_lookup(name):
    """Distribution spec by name.

    Accepts: uniform, beta(a,b), phi-laplace, discrete-uniform-99,
    bump(center,width,mass), gap(center,halfwidth), outliers(mix,bound).
    Every name a spec prints parses back to a spec of that name.
    """
    key = name.strip().lower()
    if key == "uniform":
        return make_uniform()
    if key == "phi-laplace":
        return make_phi_laplace()
    if key == "discrete-uniform-99":
        return make_discrete_uniform_99()
    match = _CALL_RE.match(key)
    if match:
        head, raw = match.groups()
        try:
            args = [float(v) for v in raw.split(",")] if raw.strip() else []
        except ValueError:
            raise ValueError(f"could not parse parameters in {name!r}") from None
        makers = {
            "beta": (make_beta, 2),
            "bump": (make_bump, 3),
            "gap": (make_gap, 2),
            "outliers": (make_outliers, 2),
        }
        if head in makers:
            maker, arity = makers[head]
            if len(args) != arity:
                raise ValueError(f"{head} takes {arity} parameters, got {len(args)}")
            return maker(*args)
    raise ValueError(f"unknown distribution {name!r}")


# ---------------------------------------------------------------------------
# randomized scenarios


def _beta_family(mu_draw, gamma_shape, condition, gamma_scale=0.5):
    """draw(rng) of Beta(mu s, (1-mu) s) with mu = mu_draw(rng) and
    s ~ Gamma(gamma_shape, gamma_scale), redrawn (mu first) until
    condition(min(mu s, (1-mu) s)) holds."""

    def draw(rng):
        for _ in range(REJECTION_CAP):
            mu = mu_draw(rng)
            sigma = rng.gamma(gamma_shape, gamma_scale)
            if condition(min(mu * sigma, (1.0 - mu) * sigma)):
                spec = make_beta(mu * sigma, (1.0 - mu) * sigma)
                spec.parameters.update({"mu": mu, "sigma": sigma})
                return spec
        raise RuntimeError(f"rejection sampling exceeded {REJECTION_CAP} iterations")

    return draw


def _draw_outliers(rng):
    mix = rng.uniform(0.0, 0.1)
    bound = rng.uniform(0.0, 0.01)
    while bound == 0.0:  # measure-zero guard; outlier window must be nonempty
        bound = rng.uniform(0.0, 0.01)
    return make_outliers(mix, bound)


# scenario -> draw(rng); call arguments are evaluated left to right, so each
# draw's order is as written.  A scenario's position here is its code, and
# so fixes its streams: append new scenarios, never reorder.
_SCENARIO_DRAWS = {
    "symmetric-heavy": _beta_family(lambda r: 0.5, 3.0, lambda lo: lo <= 1.0),
    "symmetric-light": _beta_family(lambda r: 0.5, 5.0, lambda lo: lo > 1.0),
    "asymmetric-heavy": _beta_family(lambda r: r.beta(2, 2), 3.0, lambda lo: lo <= 1.0),
    "asymmetric-light": _beta_family(lambda r: r.beta(2, 2), 5.0, lambda lo: lo > 1.0),
    "outliers": _draw_outliers,
    "nearly-uniform": _beta_family(lambda r: r.beta(50, 50), 100.0, lambda lo: True, 1.0 / 50.0),
    "random-bump": lambda rng: make_bump(rng.uniform(0.001, 0.999), 0.001, rng.uniform(0.0, 0.1)),
    "random-gap": lambda rng: make_gap(rng.uniform(0.1, 0.9), rng.uniform(0.025, 0.1)),
}
SCENARIOS = tuple(_SCENARIO_DRAWS)


def draw_scenario_distribution(scenario, rng):
    """One distribution drawn from the named scenario's family.

    The returned spec's `parameters` records every realized parameter, so a
    draw can be reconstructed exactly.
    """
    scenario_code(scenario)  # refuses an unknown name
    return _SCENARIO_DRAWS[scenario](rng)


def scenario_code(scenario):
    """Stable small-integer code for stream derivation; 0 is reserved for
    directly specified distributions."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    return SCENARIOS.index(scenario) + 1


@dataclass
class ScenarioSampler:
    """Seeded source of distribution draws from one scenario.

    Draw `index` always comes from the stream (scenario_code, index, 0), so
    the same seed reproduces the same distribution no matter how many are
    requested; the simulation harness uses the identical rule.
    """

    scenario: str
    seed: int

    def __post_init__(self):
        scenario_code(self.scenario)

    def draw(self, index):
        rng = stream(self.seed, scenario_code(self.scenario), index, 0)
        return draw_scenario_distribution(self.scenario, rng)

    def draw_many(self, count):
        return [self.draw(i) for i in range(count)]
