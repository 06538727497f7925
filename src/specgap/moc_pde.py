"""Explicit evolution of the 1D comparison equation for evolving moduli.

The equation is ``phi_t = alpha(phi')*phi'' - (n-1)*tk*beta(phi')*phi'`` on
[0, D/2], with the pluggable coefficient pair (alpha, beta) covering the heat
equation (alpha = beta = 1) and p-Laplacian flows (alpha = (p-1)*m^(p-2),
beta = m^(p-2) with m the regularized gradient magnitude).

Spatial discretization is centered second/first differences; the left end is
an odd-reflection pivot (phi(0) = 0), the right end a ghost reflection that
enforces the Neumann condition phi'(D/2) = g(t) (g = 0 by default).  Time
stepping is explicit with dt = cfl * h^2 / max(alpha).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    CFLViolationError,
    DegenerateFluxError,
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
)
from .specialfn import tk_array

_HEAT = "heat"
_PLAPLACIAN = "plaplacian"

# Regularization scale used when a p-Laplacian flux carries epsilon = None:
# epsilon = _AUTO_EPS_SCALE * osc(initial data) / diameter.
_AUTO_EPS_SCALE = 1e-8

_MAX_STEPS = 1 << 30

# Largest flux coefficient alpha the explicit stepper (dt ~ h^2/alpha) accepts.
_MAX_ALPHA = 1e8


@dataclass(frozen=True)
class Flux:
    """Coefficient pair selector: heat flow or p-Laplacian flow.

    ``epsilon`` regularizes the p-Laplacian gradient magnitude as
    m = sqrt(q^2 + epsilon^2).  ``epsilon=None`` requests the documented
    default (relative to the evolved data) when used in an evolution; direct
    coefficient evaluation treats ``None`` as the unregularized pair.  A valid
    p = 2 flux is stored as the heat flux (alpha = beta = 1 for every epsilon).
    """

    kind: str
    p: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in (_HEAT, _PLAPLACIAN):
            raise InvalidParamsError(f"unknown flux kind {self.kind!r}")
        if self.kind == _PLAPLACIAN:
            if self.p is None or not (self.p > 1.0 and math.isfinite(self.p)):
                raise InvalidParamsError(f"p-Laplacian flux requires p > 1, got {self.p!r}")
            if self.epsilon is not None and not (self.epsilon >= 0.0):
                raise InvalidParamsError(f"epsilon must be >= 0, got {self.epsilon!r}")
            if self.p == 2.0:
                object.__setattr__(self, "kind", _HEAT)
                object.__setattr__(self, "p", None)
                object.__setattr__(self, "epsilon", None)

    @classmethod
    def heat(cls) -> "Flux":
        return cls(kind=_HEAT)

    @classmethod
    def plaplacian(cls, p: float, epsilon: float | None = None) -> "Flux":
        return cls(kind=_PLAPLACIAN, p=p, epsilon=epsilon)

    @property
    def is_heat(self) -> bool:
        return self.kind == _HEAT


def flux_eval(flux: Flux, q: float) -> tuple[float, float]:
    """Coefficient pair (alpha, beta) at gradient value q."""
    if flux.is_heat:
        return 1.0, 1.0
    p = flux.p
    eps = flux.epsilon if flux.epsilon is not None else 0.0
    m = math.hypot(q, eps)
    if m == 0.0:
        if p > 2.0:
            return 0.0, 0.0
        raise DegenerateFluxError(
            "alpha is unbounded at zero gradient for p < 2 without regularization"
        )
    mp = m ** (p - 2.0)
    return (p - 1.0) * mp, mp


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on [0, half_diameter] with nodes at i*h."""

    half_diameter: float
    m: int

    def __post_init__(self):
        if not (self.half_diameter > 0 and math.isfinite(self.half_diameter)):
            raise InvalidParamsError(f"half_diameter must be positive, got {self.half_diameter}")
        if self.m < 16:
            raise InvalidParamsError(f"grid needs at least 16 cells, got {self.m}")

    @property
    def h(self) -> float:
        return self.half_diameter / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 1) * self.h


@dataclass(frozen=True)
class Profile:
    """A grid function phi(., t) on [0, D/2] with phi(0) = 0."""

    grid: Grid1D
    t: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.m + 1,):
            raise InvalidParamsError(
                f"profile needs {self.grid.m + 1} samples, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParamsError("profile values must be finite")
        if v[0] != 0.0:
            raise InvalidParamsError("profile must vanish at s = 0 (odd-extension pivot)")

    def osc(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def is_nondecreasing(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.diff(self.values) >= -tol))


@dataclass(frozen=True)
class StepControls:
    """Knobs for the explicit stepper.

    ``output_times`` defaults to the single final time.  ``fixed_dt`` forces a
    constant step (validated against the stability bound every step), which
    lets two evolutions on different grids share identical time stamps.
    ``right_flux``/``left_flux`` prescribe time-dependent Neumann data at the
    interval ends (zero when omitted); the left value is only consulted for
    full-interval evolutions, which have no pivot at s = 0.  A flux coefficient
    alpha above 1e8 raises :class:`CFLViolationError` whatever the controls.
    """

    cfl: float = 0.4
    output_times: Sequence[float] | None = None
    fixed_dt: float | None = None
    right_flux: Callable[[float], float] | None = None
    left_flux: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.5):
            raise InvalidParamsError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.fixed_dt is not None and not (self.fixed_dt > 0):
            raise InvalidParamsError(f"fixed_dt must be positive, got {self.fixed_dt}")


def _resolve_epsilon(flux: Flux, osc: float, diameter: float) -> float:
    if flux.is_heat:
        return 0.0
    if flux.epsilon is not None:
        return flux.epsilon
    return _AUTO_EPS_SCALE * osc / diameter


def _march(
    u0: np.ndarray,
    h: float,
    nm1_tk: np.ndarray,
    flux: Flux,
    eps: float,
    t_end: float,
    controls: StepControls,
    odd_pivot: bool,
) -> list[tuple[float, np.ndarray]]:
    """Advance the explicit scheme, returning (snapped time, values) pairs.

    Requested output times are snapped to the nearest completed step rather
    than interpolated, so recorded state is always genuine scheme output.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise InvalidParamsError(f"t_end must be positive, got {t_end}")
    targets = list(controls.output_times) if controls.output_times is not None else [t_end]
    if any(not math.isfinite(x) or x < 0 for x in targets):
        raise InvalidParamsError("output times must be finite and nonnegative")
    if any(b < a for a, b in zip(targets[:-1], targets[1:])):
        raise InvalidParamsError("output times must be nondecreasing")
    if targets and targets[-1] > t_end * (1.0 + 1e-12):
        raise InvalidParamsError("output times may not exceed t_end")

    pending = deque(targets)
    outputs: list[tuple[float, np.ndarray]] = []
    m = len(u0) - 1
    u = u0.astype(float, copy=True)
    while pending and pending[0] <= 0.0:
        pending.popleft()
        outputs.append((0.0, u.copy()))

    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    cfl_h2 = controls.cfl * h * h
    gl = controls.left_flux or (lambda _t: 0.0)
    gr = controls.right_flux or (lambda _t: 0.0)
    plap_exp = 0.5 * (flux.p - 2.0) if not flux.is_heat else 0.0
    eps2 = eps * eps

    ue = np.empty(m + 3)
    t = 0.0
    k = 0
    while pending:
        ue[1:-1] = u
        ue[0] = -u[1] if odd_pivot else u[1] - 2.0 * h * gl(t)
        ue[-1] = u[-2] + 2.0 * h * gr(t)
        q = (ue[2:] - ue[:-2]) * inv2h
        lap = (ue[2:] - 2.0 * u + ue[:-2]) * invh2
        if flux.is_heat:
            max_alpha = 1.0
            du = lap - nm1_tk * q
        else:
            with np.errstate(divide="ignore"):
                mp = (q * q + eps2) ** plap_exp
            alpha = (flux.p - 1.0) * mp
            max_alpha = float(np.max(alpha))
            if not max_alpha <= _MAX_ALPHA:
                raise CFLViolationError(
                    "max flux coefficient %g exceeds the stability bound %g at t = %g"
                    % (max_alpha, _MAX_ALPHA, t)
                )
            du = alpha * lap - nm1_tk * (mp * q)
        if max_alpha == 0.0:
            # fully degenerate flux: the data is stationary
            while pending:
                target = pending.popleft()
                outputs.append((target, u.copy()))
            break
        stable_dt = cfl_h2 / max_alpha
        if controls.fixed_dt is not None:
            dt = controls.fixed_dt
            if dt > stable_dt * (1.0 + 1e-9):
                raise CFLViolationError(
                    "fixed_dt %g exceeds the stability bound %g at t = %g" % (dt, stable_dt, t)
                )
            t_new = (k + 1) * dt
        else:
            dt = stable_dt
            t_new = t + dt
        u_new = u + dt * du
        if odd_pivot:
            u_new[0] = 0.0
        while pending and t_new >= pending[0]:
            target = pending.popleft()
            if abs(t - target) <= abs(t_new - target):
                outputs.append((t, u.copy()))
            else:
                outputs.append((t_new, u_new.copy()))
        u = u_new
        t = t_new
        k += 1
        if k > _MAX_STEPS:
            raise NonConvergenceError("time stepping exceeded %d steps" % _MAX_STEPS)
    return outputs


def evolve(
    flux: Flux,
    params: ModelParams,
    phi0: Profile,
    t_end: float,
    controls: StepControls | None = None,
) -> list[Profile]:
    """Evolve an initial modulus profile on [0, D/2].

    The initial profile must vanish at s = 0 and be nondecreasing; both
    properties propagate to every output (the latter is re-checked on each
    output profile as a discrete stability diagnostic).
    """
    controls = controls or StepControls()
    if abs(phi0.grid.half_diameter - params.half_diameter) > 1e-12 * params.diameter:
        raise InvalidParamsError("profile grid does not span [0, D/2] for these parameters")
    osc0 = phi0.osc()
    if not phi0.is_nondecreasing(1e-12 * osc0):
        raise InvalidParamsError("initial profile must be nondecreasing")

    eps = _resolve_epsilon(flux, osc0, params.diameter)
    nm1_tk = (params.n - 1) * tk_array(params.kappa, phi0.grid.nodes)
    raw = _march(phi0.values, phi0.grid.h, nm1_tk, flux, eps, t_end, controls, odd_pivot=True)
    out = [Profile(grid=phi0.grid, t=t, values=v) for t, v in raw]
    mono_tol = 1e-10 * osc0
    for prof in out:
        if not prof.is_nondecreasing(mono_tol):
            raise NonConvergenceError(
                "evolved profile lost monotonicity at t = %g; the scheme is outside "
                "its stability envelope (refine the grid or lower cfl)" % prof.t
            )
    return out
