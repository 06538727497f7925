"""Curvature-indexed trigonometric functions.

``ck``/``sk``/``tk`` unify cosine/sine/tangent across curvature signs: for a
curvature bound kappa they reduce to the circular functions (kappa > 0), the
linear/constant functions (kappa = 0) and the hyperbolic ones (kappa < 0).
They satisfy ck' = -kappa*sk, sk' = ck and ck^2 + kappa*sk^2 = 1.  Each sign
has one closed form; near kappa = 0 cos/sin and cosh/sinh of the small
argument sqrt(|kappa|)*tau are accurate to an ulp, so no series is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PoleError

# tk reports a pole when |tan(sqrt(kappa)*s)| exceeds 1/_POLE_TOL, that is
# when |ck| < _POLE_TOL*|sqrt(kappa)*sk|; tan is unitless, so the test reads
# the same at every scale of (kappa, s).
_POLE_TOL = 1e-12


def ck(kappa: float, tau: float) -> float:
    """Generalized cosine: cos(rt*tau), 1, or cosh(rt*tau), rt = sqrt(|kappa|).

    For kappa < 0 it overflows to inf without a warning.
    """
    if kappa == 0:
        return 1.0
    rt = math.sqrt(abs(kappa))
    with np.errstate(over="ignore"):
        return float(np.cos(rt * tau) if kappa > 0 else np.cosh(rt * tau))


def sk(kappa: float, tau: float) -> float:
    """Generalized sine: sin(rt*tau)/rt, tau, or sinh(rt*tau)/rt.

    For kappa < 0 it overflows to +-inf without a warning.
    """
    if kappa == 0:
        return float(tau)
    rt = math.sqrt(abs(kappa))
    with np.errstate(over="ignore"):
        return float((np.sin(rt * tau) if kappa > 0 else np.sinh(rt * tau)) / rt)


def tk(kappa: float, s: float) -> float:
    """Generalized tangent kappa*sk/ck; odd in s, zero for kappa = 0.

    A one-point call of :func:`tk_array`, so the two agree bit for bit.
    Raises :class:`PoleError` when kappa > 0 and s sits numerically on a pole
    of tan (an odd multiple of pi/(2*sqrt(kappa))).
    """
    return float(tk_array(kappa, s))


def tk_array(kappa: float, s: np.ndarray) -> np.ndarray:
    """Vectorized ``tk`` for a fixed kappa, with rt = sqrt(|kappa|).

    kappa > 0: rt*tan(rt*s), raising :class:`PoleError` if any point sits on
    a pole.  kappa = 0: exact zeros.  kappa < 0: -rt*tanh(rt*s), bounded and
    finite for every finite s.  One transcendental ufunc call at most.
    """
    s = np.asarray(s, dtype=float)
    if kappa == 0:
        return np.zeros_like(s)
    rt = math.sqrt(abs(kappa))
    if kappa < 0:
        return -rt * np.tanh(rt * s)
    tan = np.tan(rt * s)
    if np.any(np.abs(tan) > 1.0 / _POLE_TOL):
        raise PoleError(f"tk_array(kappa={kappa}): a grid point sits on a pole")
    return rt * tan
