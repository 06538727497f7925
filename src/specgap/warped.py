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

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import InvalidParamsError, ModelParams
from .moc_pde import Flux, Profile, StepControls, _march, _resolve_epsilon
from .specialfn import ck, tk_array
from .sturm import _bisect_level, first_eigenvalue, integrate_phi

logger = logging.getLogger(__name__)

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
    if not (a > 0 and math.isfinite(a)):
        raise InvalidParamsError(f"warp amplitude must be positive, got {a}")
    radial = (n - 1) * kappa
    coef = (n - 2) * (1.0 / a - kappa)
    if half_width is not None:
        if not (half_width > 0 and math.isfinite(half_width)):
            raise InvalidParamsError(f"half_width must be positive, got {half_width}")
        if kappa > 0 and half_width >= math.pi / (2.0 * math.sqrt(kappa)):
            raise InvalidParamsError("half_width reaches the degeneracy of ck for kappa > 0")
        c0 = ck(kappa, 0.0) ** 2
        c1 = ck(kappa, half_width) ** 2
        tangential_min = radial + min(coef / c0, coef / c1)
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
            raise InvalidParamsError(f"warp amplitude must be positive, got {self.a}")

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

    metric: WarpedMetric
    flux: Flux
    nodes: np.ndarray
    times: list[float]
    profiles: list[np.ndarray]

    @property
    def h(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

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
    constraint); Neumann data at both ends comes from the step controls and
    defaults to zero.  The cell count must be even so a node sits at s = 0.
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
    eps = _resolve_epsilon(flux, float(np.max(u0) - np.min(u0)), params.diameter)
    raw = _march(u0, h, nm1_tk, flux, eps, t_end, controls, odd_pivot=False)
    return RadialSolution(
        metric=metric,
        flux=flux,
        nodes=nodes,
        times=[t for t, _ in raw],
        profiles=[u for _, u in raw],
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
    """
    m_u = len(solution.nodes) - 1
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

    violations = 0
    worst = -math.inf
    defect = 0.0
    pairs = 0
    center = m_u // 2
    for u, prof in zip(solution.profiles, phi_series):
        phi = prof.values
        for lag in range(1, m_u + 1):
            margins = np.abs(u[lag:] - u[:-lag]) - 2.0 * phi[lag]
            worst = max(worst, float(np.max(margins)))
            violations += int(np.sum(margins > tol))
            pairs += len(margins)
        ant = np.abs((u[center + 1 :] - u[center - 1 :: -1]) - 2.0 * phi[2 : m_u + 1 : 2])
        defect = max(defect, float(np.max(ant)))
        curv = np.diff(phi, 2)
        logger.debug(
            "modulus profile at t=%g concave: %s", prof.t, bool(np.all(curv <= 1e-12))
        )
    return ViolationReport(
        violations=violations,
        worst_margin=worst,
        antipodal_defect=defect,
        pairs_checked=pairs,
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
    if np.any(osc <= 0.0):
        raise InvalidParamsError("oscillation must be positive throughout the fit window")
    y = np.log(osc)
    t_c = t - t.mean()
    denom = float(np.dot(t_c, t_c))
    if denom == 0.0:
        raise InvalidParamsError("fit window has no time spread")
    slope = float(np.dot(t_c, y - y.mean())) / denom
    return -slope


def seeded_odd_initial_data(
    params: ModelParams, cells: int, seed: int
) -> tuple[np.ndarray, float]:
    """Deterministic odd initial data with a guaranteed slowest-mode component.

    Sums the sup-normalized shooting eigenfunctions of the odd Neumann modes
    1, 3 and 5 on [0, D/2] with coefficients 1 + c0, c1, c2 (c seeded from
    [-0.3, 0.3]) and reflects the sum oddly onto the full interval.  The decay
    of this generic data is governed by the first nonzero eigenvalue, which
    is returned alongside the samples.
    """
    if cells < 64 or cells % 2 != 0:
        raise InvalidParamsError(f"cells must be even and >= 64, got {cells}")
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    mu = first_eigenvalue(params, 1e-7).mu
    steps = cells // 2
    modes = np.empty((3, steps + 1))
    for j in range(3):
        _, lo, _, _ = _bisect_level(params, 1e-8, steps, None, j)
        phi = integrate_phi(params, lo, steps).phi
        modes[j] = phi / np.max(np.abs(phi))
    rng = np.random.default_rng(seed)
    coeffs = 0.3 * rng.uniform(-1.0, 1.0, size=3)
    right = modes[0] + coeffs @ modes
    u = np.concatenate([-right[:0:-1], right])
    return u / np.max(np.abs(u)), mu
