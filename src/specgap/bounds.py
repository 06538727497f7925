"""Classical closed-form eigenvalue bounds and their comparison to the sharp value.

Covers the Lichnerowicz bound n*kappa (positive curvature only), the
Zhong-Yang bound pi^2/D^2, the conjectured linear interpolation
pi^2/D^2 + (n-1)*kappa, and the one-parameter family
sup_s {4s(1-s)*pi^2/D^2 + (n-1)*s*kappa}.  The sharp value sits above the
whole family, and its slope in kappa at kappa = 0 is (n-1)/2; the linear
interpolation with coefficient n-1 therefore fails, which
``classical_bounds`` flags per parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import InvalidParamsError, ModelParams
from .sturm import first_eigenvalue

# Absolute slack for the violation flag, far below the O(kappa^2) margins at
# any parameters of interest but above solver tolerance.
_LI_SLACK = 1e-10


@dataclass(frozen=True)
class BoundsReport:
    """Sharp eigenvalue next to the classical closed-form lower bounds.

    ``lichnerowicz`` is None for kappa <= 0, where that bound is not stated.
    """

    n: int
    kappa: float
    diameter: float
    sharp_mu: float
    lichnerowicz: float | None
    zhong_yang: float
    li_conjecture: float
    shi_zhang: float
    li_violated: bool


def shi_zhang_bound(n: int, kappa: float, diameter: float) -> float:
    """sup over s in (0,1) of 4s(1-s)*pi^2/D^2 + (n-1)*s*kappa, in closed form.

    The expression is a downward parabola in s; its vertex is clamped to the
    open interval, with the sup realized as a one-sided limit when the vertex
    falls outside.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParamsError(f"dimension n must be an integer >= 2, got {n!r}")
    if not (math.isfinite(kappa) and 0.0 < diameter < math.inf):
        raise InvalidParamsError(f"need finite kappa, positive diameter: {kappa}, {diameter}")
    a = 4.0 * math.pi**2 / diameter**2
    b = (n - 1) * kappa
    vertex = 0.5 + b / (2.0 * a)
    if vertex <= 0.0:
        return 0.0
    if vertex >= 1.0:
        return b
    return a * vertex * (1.0 - vertex) + b * vertex


def classical_bounds(params: ModelParams, tol: float) -> BoundsReport:
    """Evaluate every classical bound and compare it with the sharp value."""
    mu = first_eigenvalue(params, tol).mu
    n, kappa, d = params.n, params.kappa, params.diameter
    zy = math.pi**2 / d**2
    li = zy + (n - 1) * kappa
    return BoundsReport(
        n=n,
        kappa=kappa,
        diameter=d,
        sharp_mu=mu,
        lichnerowicz=n * kappa if kappa > 0 else None,
        zhong_yang=zy,
        li_conjecture=li,
        shi_zhang=shi_zhang_bound(n, kappa, d),
        li_violated=mu < li - _LI_SLACK,
    )


def asymptotic_slope(n: int, h: float, tol: float) -> float:
    """Central-difference slope of the sharp eigenvalue in kappa at kappa = 0.

    Computed at diameter pi, where the eigenvalue is 1 at kappa = 0; the
    even-order error terms cancel, leaving O(h^2) truncation.  The limit is
    (n-1)/2, which rules out any steeper linear-in-kappa lower bound.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParamsError(f"dimension n must be an integer >= 2, got {n!r}")
    if not (0.0 < h <= 0.05):
        raise InvalidParamsError(f"step h must lie in (0, 0.05], got {h}")
    mu_plus = first_eigenvalue(ModelParams(n, +h, math.pi), tol).mu
    mu_minus = first_eigenvalue(ModelParams(n, -h, math.pi), tol).mu
    return (mu_plus - mu_minus) / (2.0 * h)
