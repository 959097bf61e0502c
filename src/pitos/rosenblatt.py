"""Generalized Rosenblatt transform: maps a random vector with known joint
law to i.i.d. Uniform(0,1) components, discrete parts handled by external
randomization.

Component k of the output is

    u_k * F_k(y_k | y_1..y_{k-1}) + (1 - u_k) * F_k^-(y_k | y_1..y_{k-1})

where F_k is the conditional CDF, F_k^- its left limit, and u_k external
uniform randomness.  When every law is continuous (F = F^-) the u vector is
irrelevant and the transform reduces to the plain conditional PIT.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConditionalLaw",
    "iid_laws",
    "randomized_pit",
    "rosenblatt_transform",
]


@dataclass(frozen=True)
class ConditionalLaw:
    """Conditional CDF pair for one coordinate.

    Both callables take (y_k, y_prefix) where y_prefix is the tuple of
    earlier coordinates; both must return values in [0, 1], nondecreasing in
    y_k, with cdf_left <= cdf pointwise.
    """

    cdf: Callable
    cdf_left: Callable


def rosenblatt_transform(y, laws, u):
    """Transform vector y through the sequence of conditional laws.

    Parameters
    ----------
    y : array-like, length n
        The observed vector (any real support; the laws define it).
    laws : sequence of ConditionalLaw, length n
    u : array-like, length n, values strictly inside (0, 1)
        External randomization; only matters at discontinuity points.

    Returns
    -------
    numpy array of n values in [0, 1].
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.ndim != 1 or len(y) != len(laws) or u.shape != y.shape:
        raise ValueError("y, laws and u must share one length")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u entries must lie strictly inside (0, 1)")
    out = np.empty(len(y))
    for k in range(len(y)):
        prefix = y[:k]
        hi = float(laws[k].cdf(y[k], prefix))
        lo = float(laws[k].cdf_left(y[k], prefix))
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(
                f"law {k} violated its contract: F-={lo}, F={hi} at y={y[k]}"
            )
        out[k] = u[k] * hi + (1.0 - u[k]) * lo
    return out


def iid_laws(spec, n):
    """n identical ConditionalLaws from a distribution spec's CDF pair."""
    if spec.cdf is None:
        raise ValueError(f"distribution {spec.name!r} has no CDF; cannot build laws")
    cdf = spec.cdf
    cdf_left = spec.cdf_left if spec.cdf_left is not None else spec.cdf
    law = ConditionalLaw(
        cdf=lambda yk, _prefix: float(cdf(yk)),
        cdf_left=lambda yk, _prefix: float(cdf_left(yk)),
    )
    return [law] * n


def randomized_pit(values, spec, u=None, rng=None):
    """Vectorized i.i.d. special case of the transform for a whole sample.

    For continuous specs this is just spec.cdf(values) and u is ignored.
    For discrete specs the u vector (or a seeded rng to draw it from) is
    required.
    """
    values = np.asarray(values, dtype=float)
    if spec.cdf is None:
        raise ValueError(f"distribution {spec.name!r} has no CDF")
    hi = np.asarray(spec.cdf(values), dtype=float)
    if not spec.is_discrete or spec.cdf_left is spec.cdf:
        return hi
    lo = np.asarray(spec.cdf_left(values), dtype=float)
    if u is None:
        if rng is None:
            raise ValueError("discrete PIT needs u or an rng to draw it from")
        u = rng.random(values.shape)
    u = np.asarray(u, dtype=float)
    return u * hi + (1.0 - u) * lo
