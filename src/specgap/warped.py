"""Warped-product model geometry: admissibility, radial flow, sharpness checks.

The model metric on S^(n-1) x [-D/2, D/2] is ds^2 + a*ck^2(s)*gbar.  Its
radial heat/p-Laplacian flow for angularly constant data reduces exactly to
the 1D comparison equation on the full interval, which is what
``radial_flow`` evolves.  ``verify_moc`` then checks the two-point modulus
inequality between such a radial solution and an evolved modulus profile,
and ``fit_decay`` extracts oscillation decay rates for comparison with the
first nonzero Neumann eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import InvalidParamsError, ModelParams
from .moc_pde import Flux, Profile, StepControls, _march
from .specialfn import ck, tk_array

# Admissibility slack on the Ricci comparison (absolute, curvature units).
_RICCI_SLACK = 1e-12


@dataclass(frozen=True)
class RicciReport:
    """Ricci curvature summary of the model metric.

    ``radial`` is the (constant) curvature of the radial direction,
    ``tangential_min`` the minimum over the fiber directions and the radial
    interval.  The metric satisfies the curvature bound exactly when both
    stay above (n-1)*kappa (up to slack).
    """

    radial: float
    tangential_min: float
    admissible: bool


def ricci_bounds(n: int, kappa: float, a: float, half_width: float | None = None) -> RicciReport:
    """Ricci curvatures of the metric ds^2 + a*ck^2(s)*gbar.

    Radial direction: (n-1)*kappa.  Fiber directions:
    (n-1)*kappa + (n-2)*(1/a - kappa)/ck^2(s).  The s-dependence is monotone
    in ck^2, so the extremum sits at s = 0 or at the interval ends; with no
    ``half_width`` the infimum over the natural domain is reported (which is
    -inf for kappa > 0 with a > 1/kappa).
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParamsError(f"dimension n must be an integer >= 2, got {n!r}")
    if not math.isfinite(kappa):
        raise InvalidParamsError(f"curvature bound must be finite, got {kappa}")
    if not (a > 0 and math.isfinite(a)):
        raise InvalidParamsError(f"warp amplitude must be positive and finite, got {a}")
    radial = (n - 1) * kappa
    coef = (n - 2) * (1.0 / a - kappa)
    if half_width is not None:
        if not (half_width > 0 and math.isfinite(half_width)):
            raise InvalidParamsError(f"half_width must be positive and finite, got {half_width}")
        if kappa > 0 and half_width >= math.pi / (2.0 * math.sqrt(kappa)):
            raise InvalidParamsError("half_width reaches the degeneracy of ck for kappa > 0")
        # ck(0) = 1; dividing twice keeps coef/ck^2 finite where ck^2 overflows
        c1 = ck(kappa, half_width)
        tangential_min = radial + min(coef, coef / c1 / c1)
    elif kappa == 0.0:
        tangential_min = radial + coef
    elif kappa < 0.0:
        # ck^2 grows without bound, so a positive coefficient fades to zero
        tangential_min = radial if coef > 0.0 else radial + coef
    else:
        # kappa > 0: ck^2 decays to zero towards the natural endpoints
        tangential_min = radial + coef if coef >= 0.0 else -math.inf
    admissible = tangential_min >= radial - _RICCI_SLACK
    return RicciReport(radial=radial, tangential_min=tangential_min, admissible=admissible)


def default_warp_amplitude(kappa: float) -> float:
    """Amplitude keeping the model admissible with room to spare."""
    if kappa <= 0:
        return 1.0
    return min(1.0, 1.0 / (2.0 * kappa))


@dataclass(frozen=True)
class WarpedMetric:
    """Model metric ds^2 + a*ck^2(s)*gbar on S^(n-1) x [-D/2, D/2]."""

    params: ModelParams
    a: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise InvalidParamsError(f"warp amplitude must be positive and finite, got {self.a}")

    def ricci(self) -> RicciReport:
        return ricci_bounds(
            self.params.n, self.params.kappa, self.a, self.params.half_diameter
        )

    @property
    def admissible(self) -> bool:
        return self.ricci().admissible


@dataclass(frozen=True)
class RadialSolution:
    """Time-indexed radial (angularly constant) solution on [-D/2, D/2]."""

    nodes: np.ndarray
    times: list[float]
    profiles: list[np.ndarray]

    def oscillations(self) -> list[tuple[float, float]]:
        """(t, max - min) pairs; radial extrema realize the two-point oscillation."""
        return [(t, float(np.max(u) - np.min(u))) for t, u in zip(self.times, self.profiles)]


def radial_flow(
    metric: WarpedMetric,
    flux: Flux,
    u0: np.ndarray,
    t_end: float,
    controls: StepControls | None = None,
) -> RadialSolution:
    """Evolve angularly constant data on the model manifold.

    This is the full-interval 1D reduction of the flow (no oddness
    constraint).  The left end carries zero Neumann data, the right end
    ``controls.right_flux`` (zero when omitted).  The cell count must be even
    so a node sits at s = 0.
    """
    controls = controls or StepControls()
    if not metric.admissible:
        raise InvalidParamsError(
            "metric is not admissible: Ricci bound fails for a = %g, kappa = %g"
            % (metric.a, metric.params.kappa)
        )
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim != 1 or len(u0) < 33 or len(u0) % 2 == 0:
        raise InvalidParamsError(
            "u0 must sample an even number >= 32 of cells (odd node count), got %d nodes"
            % len(u0)
        )
    if not np.all(np.isfinite(u0)):
        raise InvalidParamsError("u0 must be finite")
    params = metric.params
    cells = len(u0) - 1
    h = params.diameter / cells
    nodes = -params.half_diameter + np.arange(cells + 1) * h
    nm1_tk = (params.n - 1) * tk_array(params.kappa, nodes)
    raw = _march(u0, h, nm1_tk, flux, params.diameter, t_end, controls, odd_pivot=False)
    return RadialSolution(
        nodes=nodes, times=[t for t, _ in raw], profiles=[u for _, u in raw]
    )


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of the two-point modulus check."""

    violations: int
    worst_margin: float
    antipodal_defect: float
    pairs_checked: int
    times_checked: int


def verify_moc(
    solution: RadialSolution, phi_series: Sequence[Profile], tol: float
) -> ViolationReport:
    """Check |u(x,t) - u(y,t)| <= 2*phi(d(x,y)/2, t) on same-fiber point pairs.

    Pairs along a fixed fiber coordinate realize the distance |s_j - s_i| and
    are the binding case for the model metric (other pairs are only farther
    apart while the right side is nondecreasing).  The modulus profiles must
    be sampled at half the radial spacing so every pair half-distance lands
    exactly on a profile node; ``worst_margin`` is the largest value of
    |u_j - u_i| - 2*phi and a violation is a pair exceeding ``tol``.

    Also reports the worst antipodal defect |(u(s) - u(-s)) - 2*phi(s)|, the
    quantity that vanishes where the modulus bound is attained.

    The radial profiles must be finite.  The check is stacked over the output
    times: the profiles and the doubled moduli are (times, nodes) arrays, and
    one loop over the lags checks every output at once, in O(times*nodes)
    memory.  Each margin is the same floating-point value as on a loop over
    the outputs, so the report is too.
    """
    m_u = len(solution.nodes) - 1
    if not math.isfinite(tol):
        raise InvalidParamsError(f"tol must be finite, got {tol}")
    if not phi_series:
        raise InvalidParamsError("phi_series is empty")
    for prof in phi_series:
        if prof.grid.m != m_u:
            raise InvalidParamsError(
                "modulus profiles must carry the same cell count as the radial grid "
                "(half the spacing over half the interval): %d != %d" % (prof.grid.m, m_u)
            )
        if not prof.is_nondecreasing(1e-12 * prof.osc()):
            raise InvalidParamsError("modulus profiles must be nondecreasing")
    if len(phi_series) != len(solution.times):
        raise InvalidParamsError("solution and modulus series disagree on output count")
    for t_u, prof in zip(solution.times, phi_series):
        if abs(t_u - prof.t) > 1e-9 * max(1.0, abs(t_u)):
            raise InvalidParamsError(
                "mismatched time stamps: %r vs %r" % (t_u, prof.t)
            )

    if len(solution.profiles) != len(phi_series) or any(
        len(u) != m_u + 1 for u in solution.profiles
    ):
        raise InvalidParamsError("the radial solution needs one value per node at each output")
    u = np.array(solution.profiles, dtype=float)
    if not np.isfinite(u).all():
        raise InvalidParamsError("radial profiles must be finite")

    twice_phi = 2.0 * np.array([prof.values for prof in phi_series])
    lag_columns = twice_phi.T[:, :, None]  # 2*phi[lag] at every output, as a column
    worst = -math.inf
    violations = 0
    diff = np.empty((len(u), m_u))
    for lag in range(1, m_u + 1):
        margins = np.subtract(u[:, lag:], u[:, :-lag], out=diff[:, : m_u + 1 - lag])
        np.abs(margins, out=margins)
        margins -= lag_columns[lag]
        worst = max(worst, float(margins.max()))
        violations += int(np.count_nonzero(margins > tol))
    center = m_u // 2
    ant = np.abs((u[:, center + 1 :] - u[:, center - 1 :: -1]) - twice_phi[:, 2 : m_u + 1 : 2])
    return ViolationReport(
        violations=violations,
        worst_margin=worst,
        antipodal_defect=max(0.0, float(ant.max())),
        pairs_checked=len(u) * m_u * (m_u + 1) // 2,
        times_checked=len(phi_series),
    )


def fit_decay(osc_series: Sequence[tuple[float, float]], window: float) -> float:
    """Decay rate from a log-linear fit over the trailing window of samples.

    Returns the negated least-squares slope of log(osc) against t, using the
    last ``window`` fraction of the samples.
    """
    if not (0.0 < window <= 1.0):
        raise InvalidParamsError(f"window must lie in (0, 1], got {window}")
    series = list(osc_series)
    k = int(round(window * len(series)))
    tail = series[len(series) - k :]
    if len(tail) < 4:
        raise InvalidParamsError(
            "need at least 4 samples in the fit window, got %d" % len(tail)
        )
    t = np.array([p[0] for p in tail])
    osc = np.array([p[1] for p in tail])
    if not np.all((osc > 0.0) & np.isfinite(osc) & np.isfinite(t)):
        raise InvalidParamsError(
            "times and oscillations must be finite, oscillations positive, in the fit window"
        )
    y = np.log(osc)
    t_c = t - t.mean()
    denom = float(np.dot(t_c, t_c))
    if denom == 0.0:
        raise InvalidParamsError("fit window has no time spread")
    slope = float(np.dot(t_c, y - y.mean())) / denom
    return -slope
