"""Numerically robust special functions shared by every other module.

Regularized incomplete beta function (the Beta CDF), its inverse, the Beta
log density and log B(a, b).  Everything is vectorized over numpy arrays,
and log B works in log space, so shapes up to 1e6 neither overflow nor
underflow.  That is a statement about these functions only: the test itself
at n = 1e6 would hold a pair sequence of ~1.4e8 int64 index pairs, about
2.2 GB, before any evaluation.
"""

import numpy as np
from scipy import special as _sp

__all__ = ["beta_cdf", "beta_inv_cdf", "beta_log_pdf", "log_beta"]

# Residual tolerance guaranteed by beta_inv_cdf: |beta_cdf(x) - u| <= INV_TOL.
INV_TOL = 1e-12


def _validate_shapes(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("beta shapes must be finite")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("beta shapes must be positive")
    return a, b


def log_beta(a, b):
    """log B(a, b), evaluated in log space so large shapes cannot overflow."""
    a, b = _validate_shapes(a, b)
    out = _sp.gammaln(a) + _sp.gammaln(b) - _sp.gammaln(a + b)
    return float(out) if out.ndim == 0 else out


def beta_cdf(x, a, b):
    """Regularized incomplete beta function: the Beta(a, b) CDF at x.

    Exactly 0 at x=0 and exactly 1 at x=1.  Scalars in give a float back;
    arrays broadcast.

    Raises
    ------
    ValueError
        If x lies outside [0, 1] or either shape is non-positive.
    """
    a, b = _validate_shapes(a, b)
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)) or np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("beta_cdf requires x in [0, 1]")
    out = _sp.betainc(a, b, x)
    return float(out) if out.ndim == 0 else out


def beta_log_pdf(x, a, b):
    """Log density of Beta(a, b), -inf where the density vanishes at the edges."""
    a, b = _validate_shapes(a, b)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_beta(a, b)
    out = np.where((x < 0.0) | (x > 1.0), -np.inf, out)
    return float(out) if out.ndim == 0 else out


def beta_inv_cdf(u, a, b):
    """Inverse of beta_cdf: the x with |beta_cdf(x, a, b) - u| <= 1e-12.

    Seeds from a bracketed solver and polishes with Newton steps on the CDF
    until the residual contract holds.  beta_inv_cdf(0)=0 and beta_inv_cdf(1)=1.
    """
    a, b = _validate_shapes(a, b)
    u = np.asarray(u, dtype=float)
    if np.any(np.isnan(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("beta_inv_cdf requires u in [0, 1]")
    x = _sp.betaincinv(a, b, u)
    # Polish any stragglers; betaincinv is typically already well under 1e-12.
    for _ in range(4):
        resid = _sp.betainc(a, b, x) - u
        bad = np.abs(resid) > INV_TOL
        if not np.any(bad):
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_pdf = beta_log_pdf(x, a, b)
            step = resid * np.exp(-log_pdf)
        step = np.where(np.isfinite(step), step, 0.0)
        x = np.where(bad, np.clip(x - step, 0.0, 1.0), x)
    return float(x) if x.ndim == 0 else x
