"""Curvature-indexed trigonometric functions.

``ck``/``sk``/``tk`` unify cosine/sine/tangent across curvature signs: for a
curvature bound kappa they reduce to the circular functions (kappa > 0), the
linear/constant functions (kappa = 0) and the hyperbolic ones (kappa < 0).
They satisfy ck' = -kappa*sk, sk' = ck and ck^2 + kappa*sk^2 = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PoleError

# Below this value of |kappa|*tau^2 the exact branches lose accuracy to the
# branch seam at kappa = 0; a short Taylor series in kappa*tau^2 is smooth
# across the seam (finite differencing through kappa = 0 relies on this).
_SERIES_CUTOFF = 1e-8

# tk reports a pole when |ck| falls below this fraction of
# |sqrt(kappa)*sk| = |sin(sqrt(kappa)*s)|; both are unitless, so the test
# reads the same at every scale of (kappa, s).
_POLE_TOL = 1e-12


def ck(kappa: float, tau: float) -> float:
    """Generalized cosine: cos, 1, or cosh depending on the sign of kappa."""
    return float(ck_array(kappa, tau))


def sk(kappa: float, tau: float) -> float:
    """Generalized sine: sin(rt*tau)/rt, tau, or sinh(rt*tau)/rt."""
    return float(sk_array(kappa, tau))


def tk(kappa: float, s: float) -> float:
    """Generalized tangent kappa*sk/ck; odd in s, zero for kappa = 0.

    Raises :class:`PoleError` when kappa > 0 and s sits numerically on a pole
    of tan (an odd multiple of pi/(2*sqrt(kappa))).
    """
    return float(tk_array(kappa, s))


def ck_array(kappa: float, tau: np.ndarray) -> np.ndarray:
    """Vectorized ``ck`` for a fixed kappa; cosh overflows to inf."""
    tau = np.asarray(tau, dtype=float)
    u = kappa * tau * tau
    rt = math.sqrt(abs(kappa))
    with np.errstate(over="ignore"):
        exact = np.cos(rt * tau) if kappa > 0 else np.cosh(rt * tau)
    series = 1.0 - u / 2.0 + u * u / 24.0
    return np.where(np.abs(u) < _SERIES_CUTOFF, series, exact)


def sk_array(kappa: float, tau: np.ndarray) -> np.ndarray:
    """Vectorized ``sk`` for a fixed kappa; sinh overflows to +-inf."""
    tau = np.asarray(tau, dtype=float)
    u = kappa * tau * tau
    rt = math.sqrt(abs(kappa))
    if kappa == 0:
        exact = tau
    else:
        with np.errstate(over="ignore"):
            exact = (np.sin(rt * tau) if kappa > 0 else np.sinh(rt * tau)) / rt
    series = tau * (1.0 - u / 6.0 + u * u / 120.0)
    return np.where(np.abs(u) < _SERIES_CUTOFF, series, exact)


def tk_array(kappa: float, s: np.ndarray) -> np.ndarray:
    """Vectorized ``tk`` for a fixed kappa; raises on any pole hit (kappa > 0).

    For kappa < 0, tk = -sqrt(-kappa)*tanh(sqrt(-kappa)*s), bounded and
    finite for every finite s.
    """
    s = np.asarray(s, dtype=float)
    if kappa < 0:
        rt = math.sqrt(-kappa)
        return -rt * np.tanh(rt * s)
    c = ck_array(kappa, s)
    sine = sk_array(kappa, s)
    if np.any(np.abs(c) < _POLE_TOL * np.abs(math.sqrt(kappa) * sine)):
        raise PoleError(f"tk_array(kappa={kappa}): a grid point sits on a pole")
    return kappa * sine / c
