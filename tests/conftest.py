"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own evaluation routes:
the Beta CDF oracle integrates the density with adaptive quadrature
(QUADPACK, algebraic endpoint weights, pure relative error control), and
the radical-inverse oracle works in exact rational arithmetic.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate


def beta_cdf_quadrature(x, a, b):
    """Adaptive-quadrature Beta(a, b) CDF, worst absolute error ~2e-15 on the
    contract grid (validated against 40-digit arithmetic during development)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        left, _ = integrate.quad(
            lambda t: (1.0 - t) ** (b - 1.0), 0.0, x,
            weight="alg", wvar=(a - 1.0, 0.0),
            epsabs=1e-300, epsrel=1e-13, limit=500,
        )
        right, _ = integrate.quad(
            lambda t: t ** (a - 1.0), x, 1.0,
            weight="alg", wvar=(0.0, b - 1.0),
            epsabs=1e-300, epsrel=1e-13, limit=500,
        )
    return left / (left + right)


def beta_inv_cdf_bisection(u, a, b, tol=1e-12):
    """Bracketed bisection on the quadrature CDF; independent inverse oracle."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if beta_cdf_quadrature(mid, a, b) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def radical_inverse_fraction(index, base):
    """Exact radical inverse as a Fraction."""
    value = Fraction(0)
    scale = Fraction(1, base)
    i = index
    while i > 0:
        value += (i % base) * scale
        scale /= base
        i //= base
    return value


def ecdf_sup_distance(values):
    """Sup-norm distance between the empirical CDF of values and the identity."""
    v = np.sort(np.asarray(values, dtype=float))
    k = np.arange(1.0, len(v) + 1.0)
    return max(
        float(np.max(k / len(v) - v)),
        float(np.max(v - (k - 1.0) / len(v))),
    )


def pytest_addoption(parser):
    parser.addoption(
        "--calibration-sweep", action="store_true",
        help="also run the slow null-calibration sweep at n in {10, 300, 1000}",
    )


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "null-cache"


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    """One on-disk null cache shared across the whole run, so repeated
    (test, n, B, seed) builds inside the suite are paid for once."""
    return tmp_path_factory.mktemp("null-cache")


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of every pool core.thread_map starts, in order."""
    from pitos import core

    sizes = []

    class RecordingPool(core.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
    return sizes

