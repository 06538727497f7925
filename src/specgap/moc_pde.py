"""Explicit evolution of the 1D comparison equation for evolving moduli.

The equation is ``phi_t = alpha(phi')*phi'' - (n-1)*tk*beta(phi')*phi'`` on
[0, D/2], with the p-Laplacian coefficient pair alpha = (p-1)*m^(p-2),
beta = m^(p-2) (m the regularized gradient magnitude); its p = 2 member is
the heat equation, alpha = beta = 1.

Spatial discretization is centered second/first differences; the left end is
an odd-reflection pivot (phi(0) = 0), the right end a ghost reflection that
enforces the Neumann condition phi'(D/2) = g(t) (g = 0 by default).  Time
stepping is explicit with dt = cfl * h^2 / max(alpha); ``_march`` states the
stepping contract shared by ``evolve`` and the radial flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    CFLViolationError,
    DegenerateFluxError,
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
)
from .specialfn import tk_array

# Regularization scale used when a p > 2 flux carries epsilon = None:
# epsilon = _AUTO_EPS_SCALE * osc(initial data) / diameter.
_AUTO_EPS_SCALE = 1e-8

# Step budget of one evolution: evolve at 4096 cells to t = 0.5 takes about
# 2.1e7 explicit steps.
_MAX_STEPS = 1 << 26

# An adaptive p-Laplacian run projects its step count every this many steps.
_BUDGET_CHECK = 1 << 16

# Explicit heat steps applied by one banded propagator block.
_BLOCK = 64

# Largest flux coefficient alpha the explicit stepper (dt ~ h^2/alpha) accepts.
_MAX_ALPHA = 1e8


@dataclass(frozen=True)
class Flux:
    """The p-Laplacian flux; heat flow is its p = 2 member.

    ``epsilon`` regularizes the gradient magnitude as
    m = sqrt(q^2 + epsilon^2) and must lie in [0, inf).  ``epsilon=None``
    requests the documented default (relative to the evolved data) when a
    p > 2 flux is evolved, and is refused for p < 2 there; direct coefficient
    evaluation treats ``None`` as the unregularized pair.  A p = 2 flux
    stores ``epsilon=None``, since alpha = beta = 1 there for every epsilon.
    """

    p: float = 2.0
    epsilon: float | None = None

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise InvalidParamsError(f"p-Laplacian flux requires p finite and > 1, got {self.p!r}")
        if self.epsilon is not None and not (0.0 <= self.epsilon < math.inf):
            raise InvalidParamsError(f"epsilon must lie in [0, inf), got {self.epsilon!r}")
        if self.p == 2.0:
            object.__setattr__(self, "epsilon", None)

    @classmethod
    def heat(cls) -> "Flux":
        return cls()

    @classmethod
    def plaplacian(cls, p: float, epsilon: float | None = None) -> "Flux":
        return cls(p, epsilon)

    @property
    def is_heat(self) -> bool:
        return self.p == 2.0


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
            raise InvalidParamsError(
                f"half_diameter must be positive and finite, got {self.half_diameter}"
            )
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
    constant step (validated against the stability bound every step); it is
    stored as a Python float.  A run whose dt is known before its first step
    (heat, or ``fixed_dt`` set) stamps step k at k*dt, so two evolutions on
    different grids at one ``fixed_dt`` share identical time stamps; an
    adaptive p-Laplacian run stamps the sum of its steps.
    ``right_flux`` prescribes time-dependent Neumann data at the right end
    (zero when omitted); the left end is the odd pivot on [0, D/2] and carries
    zero Neumann data on a full interval.  A flux coefficient alpha above 1e8
    raises :class:`CFLViolationError` whatever the controls, as does, before
    the first step, a grid whose cell Peclet number h*max|(n-1)*tk|/(2*(p-1))
    exceeds 1; a p < 2 flux without epsilon raises :class:`InvalidParamsError`
    then (exit 2 on every command that marches).
    Output times snap to the nearest step.  An evolution whose state at an
    output is not finite raises :class:`NonConvergenceError`, as does one
    needing more than 2^26 steps: a run with a known dt (heat, or
    ``fixed_dt`` set) before its first step; an adaptive p-Laplacian run once
    its dt has settled (grown under 1 % over the last 2^16 steps) and the
    remaining steps at that dt would pass 2^26, or else once its step count
    passes 2^26.
    """

    cfl: float = 0.4
    output_times: Sequence[float] | None = None
    fixed_dt: float | None = None
    right_flux: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.5):
            raise InvalidParamsError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.fixed_dt is not None and not (0 < self.fixed_dt < math.inf):
            raise InvalidParamsError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")
        if self.fixed_dt is not None:
            object.__setattr__(self, "fixed_dt", float(self.fixed_dt))


def _step_size(controls: StepControls, stable_dt: float, t: float) -> float:
    """The step at time t: ``fixed_dt`` if set, else stable_dt; raises if fixed_dt exceeds it."""
    if controls.fixed_dt is None:
        return stable_dt
    if controls.fixed_dt > stable_dt * (1.0 + 1e-9):
        raise CFLViolationError(
            "fixed_dt %g exceeds the stability bound %g at t = %g"
            % (controls.fixed_dt, stable_dt, t)
        )
    return controls.fixed_dt


def _heat_step_band(ahead: np.ndarray, behind: np.ndarray, odd_pivot: bool) -> np.ndarray:
    """One explicit heat step u -> M u, as the rows (sub, diag, super) of M.

    Row i is the single step's u_i + ahead_i*(u_(i+1) - u_i)
    - behind_i*(u_i - u_(i-1)), so every row of M sums to 1.  The ghost
    reflections are folded into the end rows: u_(m-1) on the right, and u_1
    on the left off the pivot.  On the odd pivot row 0 is the identity row,
    since u_0 stays 0 there.
    """
    band = np.stack((behind, 1.0 - (behind + ahead), ahead), axis=1)
    band[0] = (0.0, 1.0, 0.0) if odd_pivot else (0.0, band[0, 1], ahead[0] + behind[0])
    band[-1] = (ahead[-1] + behind[-1], band[-1, 1], 0.0)
    return band


def _with_register(band: np.ndarray, weight: float, steps: int) -> np.ndarray:
    """``band`` followed by a shift register of ``steps`` Neumann data entries.

    Each step feeds the register's first entry to the last grid row with the
    ghost's ``weight`` and, by rows (0, 0, 1), moves the rest one entry on.
    """
    band = np.concatenate((band, np.tile((0.0, 0.0, 1.0), (steps, 1))))
    band[-steps - 1, 2] = weight
    return band


def _block_increment(band: np.ndarray, steps: int, grid: int | None = None) -> np.ndarray:
    """M^steps - I for a tridiagonal M (steps >= 2) in band storage, its first ``grid`` rows.

    Row i holds the entries of columns i - steps .. i + steps, zero where a
    column falls outside the band; M^steps has half-bandwidth steps, so the
    band holds it exactly.  Rows beyond ``grid`` (default: none) may hold
    ``_with_register``'s shift register.  No register row reaches the grid,
    so the grid block of the power is the grid's own M^steps, and register
    entry j's column holds its response M^(steps-1-j)(weight e_end).  Each
    grid row of M sums to 1 over the grid, so the diagonal is set to minus
    the sum of the other entries there (masked on the last min(steps, grid)
    rows, the only ones reaching beyond it): the rows of the increment then
    sum to 0 to rounding of one sum, not to the rounding of steps products.

    The powers are built diagonal-major.  Diagonal c (column offset c - steps)
    of a power P is one contiguous line of a flat buffer, with a zero pad
    entry at each end and a zero line beyond each outer diagonal.  Row i of
    M P is then, on diagonal c,
    sub_i*P[c + 1][i - 1] + diag_i*P[c][i] + super_i*P[c - 1][i + 1],
    and the three operands of a whole run of diagonals are slices of the flat
    buffer, one line minus one entry apart.  Power j writes only its 2j + 1
    live diagonals, and the zero coefficients at the pads keep the pads zero.
    Each entry is the same three products summed in the same order as in the
    row-major recurrence, so the band is bitwise the same; its first ``grid``
    rows are transposed to rows once, at the end, where the diagonal is set.
    """
    rows = len(band)
    grid = rows if grid is None else grid
    width = 2 * steps + 1
    line = rows + 2  # one padded diagonal
    # the (sub, diag, super) coefficients of each row, zero at the pads
    coefficients = np.zeros((3, line))
    coefficients[:, 1:-1] = band.T
    sub, diag, sup = coefficients
    # the current and the next power, and one product term
    cur = np.zeros((width + 2) * line)
    nxt = np.zeros_like(cur)
    term = np.empty(width * line)
    cur.reshape(width + 2, line)[steps : steps + 3, 1:-1] = band.T
    for j in range(2, steps + 1):
        start, stop = (steps + 1 - j) * line, (steps + 2 + j) * line
        out = nxt[start:stop].reshape(-1, line)
        t = term[: stop - start].reshape(-1, line)
        np.multiply(sub, cur[start + line - 1 : stop + line - 1].reshape(-1, line), out=out)
        out += np.multiply(diag, cur[start:stop].reshape(-1, line), out=t)
        out += np.multiply(sup, cur[start - line + 1 : stop - line + 1].reshape(-1, line), out=t)
        cur, nxt = nxt, cur
    power = np.ascontiguousarray(cur.reshape(width + 2, line)[1:-1, 1 : grid + 1].T)
    power[:, steps] = 0.0
    # row grid - 1 - r has the grid's own columns up to band column steps + r
    tail = min(steps, grid)
    own = np.arange(width) < steps + np.arange(tail, 0, -1)[:, None]
    sums = power[:-tail].sum(axis=1), (power[-tail:] * own).sum(axis=1)
    power[:, steps] = -np.concatenate(sums)
    return power


def _march(
    u0: np.ndarray,
    h: float,
    nm1_tk: np.ndarray,
    flux: Flux,
    diameter: float,
    t_end: float,
    controls: StepControls,
    odd_pivot: bool,
) -> list[tuple[float, np.ndarray]]:
    """Advance the explicit scheme, returning (snapped time, values) pairs.

    One step is u + dt*(alpha*u'' - nm1_tk*beta*u') on the ghost-cell
    stencil, with dt = cfl*h^2/max(alpha) or ``fixed_dt`` checked against
    that bound.  The left ghost is the odd reflection -u[1] on the pivot and
    the plain reflection u[1] otherwise; the right ghost carries the Neumann
    data ``right_flux``.  On the pivot tk = 0, so P = Q there, and u[0] = 0
    gives g[0] = g[1] = u[1]: the pivot's increment is exactly 0, as row 0 of
    the heat band is the identity row, and u[0] stays 0.  A p > 2 flux with
    epsilon = None is regularized by _AUTO_EPS_SCALE * osc(u0) / diameter.
    A p < 2 one raises :class:`InvalidParamsError` before the first step
    (exit 2 on every command that marches): that epsilon puts
    alpha = (p-1)*eps^(p-2) at the Neumann end's zero gradient, so the march
    would take millions of steps.
    Requested output times are snapped to the nearest completed step rather
    than interpolated, so recorded state is always genuine scheme output, and
    every stamp is a Python float; a recorded state that is not finite raises
    :class:`NonConvergenceError`.

    The state is one ghost-extended buffer, updated in place, and every step
    writes into arrays made before the first step.  Only a step that reaches
    an output time allocates: an output may snap to the state before it, so
    it copies that state.  No output shares memory with another or with u0.
    In difference form, with g the cell differences of the ghost-extended
    state, a step adds dt*beta*(P*g[1:] - Q*g[:-1]), P = A - B, Q = A + B,
    A = (p-1)/h^2 and B = nm1_tk/(2h); a dt known up front is folded into P
    and Q.  The increment is exactly 0 on constant data.  On the p-Laplacian
    flux beta = (q^2 + eps^2)^((p-2)/2) takes the centered
    q = (u[i+1] - u[i-1])/(2h) on its physical scale: (2h)^(2-p) overflows
    at p = 250.  eps^2, 1/(2h) and the adaptive dt enter as 0-d float64
    arrays, which spares numpy a Python scalar's dtype resolution on every
    call; the power keeps a Python float exponent, numpy's scalar-power path
    (0.5 is a square root).  max(alpha) = (p-1)*max(beta) is read at
    ``beta.argmax()``, which returns the first NaN, so a NaN or inf
    coefficient still meets the refusal below.

    Before the first step, a grid whose cell Peclet number
    h*max|nm1_tk|/(2*(p-1)) (beta/alpha = 1/(p-1)) exceeds 1 raises
    :class:`CFLViolationError`: the centered drift would make the step
    non-monotone there.

    Step budget: when dt is known before the first step (the heat flux, or
    ``fixed_dt`` set), a run whose step count ceil(t_last/dt) exceeds
    _MAX_STEPS raises :class:`NonConvergenceError` before stepping.  An
    adaptive p-Laplacian run, whose dt follows the data, records dt after its
    first step and then every _BUDGET_CHECK steps.  It raises when dt grew by
    under 1 % since the last record and k + (t_last - t)/dt exceeds
    _MAX_STEPS, and in any case once its step count passes _MAX_STEPS.  The
    test shares the one comparison per step with the step-count limit.

    Clock: a run whose dt is known before the first step stamps step k at
    k*dt, in blocks and single steps alike; only an adaptive p-Laplacian run
    accumulates t + dt.

    On the heat flux alpha = beta = 1, so dt and the step matrix M are fixed:
    M's rows hold the single step's weights (``_heat_step_band``), and the
    right ghost's Neumann data enters with weight 2*h*ahead[-1].  While the
    next output lies beyond step k + _BLOCK, the next _BLOCK steps are one
    banded product.  It adds (M^_BLOCK - I)(u - u[0]) to u in place, which is
    exact on constant data, plus the forcing responses times
    g(k*dt .. (k+_BLOCK-1)*dt).  The band of M^_BLOCK - I is built once
    (``_block_increment``); a run with Neumann data builds it with the right
    pad as a shift register of that data (``_with_register``), so the one
    power holds the forcing responses in its columns beyond the grid.  Each
    block multiplies the band row by row into windows of u - u[0], padded
    with zeros on the left and, on the right, with the block's Neumann data
    (zeros in an unforced run), using ``np.vecdot``: one BLAS dot per row
    applies the increment and the forcing together.  Every time stamp equals
    that of the per-step loop, and the values agree with it to roundoff.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise InvalidParamsError(f"t_end must be positive and finite, got {t_end}")
    if flux.p < 2.0 and flux.epsilon is None:
        raise InvalidParamsError("a p < 2 flux needs an explicit epsilon (flux spec "
                                 "plap:P:EPS): the default one takes millions of steps")
    targets = list(controls.output_times) if controls.output_times is not None else [t_end]
    if any(not math.isfinite(x) or x < 0 for x in targets):
        raise InvalidParamsError("output times must be finite and nonnegative")
    if any(b < a for a, b in zip(targets[:-1], targets[1:])):
        raise InvalidParamsError("output times must be nondecreasing")
    if targets and targets[-1] > t_end * (1.0 + 1e-12):
        raise InvalidParamsError("output times may not exceed t_end")

    pending = deque(targets)
    outputs: list[tuple[float, np.ndarray]] = []
    ue = np.concatenate(([0.0], u0, [0.0]))  # the state between its two ghosts
    u, upper, lower, right, left = ue[1:-1], ue[1:], ue[:-1], ue[2:], ue[:-2]
    while pending and pending[0] <= 0.0:
        pending.popleft()
        outputs.append((0.0, u.copy()))
    if not pending:
        return outputs

    heat = flux.is_heat
    peclet = h * float(np.max(np.abs(nm1_tk))) / (2.0 * (flux.p - 1.0))
    if not peclet <= 1.0:
        raise CFLViolationError(
            "the cell Peclet number is %g, above 1: the drift (n-1)*tk outruns the "
            "diffusion on this grid (refine the grid)" % peclet
        )
    cfl_h2 = float(controls.cfl * h * h)  # so every dt and stamp is a Python float
    gr = controls.right_flux
    # dt is known up front on the heat flux and whenever it is fixed
    dt = _step_size(controls, cfl_h2, 0.0) if heat else controls.fixed_dt
    adaptive = dt is None
    if not adaptive:
        steps_needed = math.ceil(pending[-1] / dt)
        if steps_needed > _MAX_STEPS:
            raise NonConvergenceError(
                "t_end = %g at dt = %g needs %d explicit steps, over the budget of %d"
                % (t_end, dt, steps_needed, _MAX_STEPS)
            )
    # the cell differences g, ghosts included: the forward and backward
    # differences at the nodes, weighted by (ahead, behind) and dt when known
    g = np.empty(len(u0) + 1)
    backward, forward = g[:-1], g[1:]
    lin, term, mp = np.empty((3, len(u0)))  # mp: q, then beta on the p-Laplacian flux
    diffusion, drift = (flux.p - 1.0) / (h * h), nm1_tk / (2.0 * h)
    dt_known = 1.0 if adaptive else dt  # an adaptive dt multiplies each step
    ahead, behind = (diffusion - drift) * dt_known, (diffusion + drift) * dt_known
    if heat:
        band = _heat_step_band(ahead, behind, odd_pivot)
        if gr is not None:
            band = _with_register(band, 2.0 * h * ahead[-1], _BLOCK)
        increment = _block_increment(band, _BLOCK, len(u0))
        # u - u[0] between two pads; a forced block's Neumann data in the right one
        padded = np.zeros(len(u0) + 2 * _BLOCK)
        neumann = padded[-_BLOCK:]
        windows = sliding_window_view(padded, 2 * _BLOCK + 1)
    else:
        eps = flux.epsilon
        if eps is None:
            eps = _AUTO_EPS_SCALE * float(np.max(u0) - np.min(u0)) / diameter
        eps2, inv_2h = np.array(eps * eps), np.array(1.0 / (2.0 * h))
        exponent, pm1 = 0.5 * (flux.p - 2.0), flux.p - 1.0
        step = np.array(0.0)  # the adaptive dt
        argmax = mp.argmax

    subtract, multiply = np.subtract, np.multiply
    two_h = 2.0 * h
    t = 0.0
    k = 0
    # an adaptive run records its dt after the first step, then projects its
    # step count every _BUDGET_CHECK steps
    check_at = 1 if adaptive else _MAX_STEPS + 1
    dt_checked = 0.0  # no dt yet: the first check only records one
    next_t = pending[0]  # the next output time
    # a blown-up state is refused at the next output; numpy's overflow
    # warnings on the way there say nothing more, nor does 0 ** negative
    # (alpha = inf, refused below)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while pending:
            if heat and next_t > (k + _BLOCK) * dt:
                subtract(u, u[0], out=padded[_BLOCK:-_BLOCK])
                if gr is not None:
                    neumann[:] = [gr(s * dt) for s in range(k, k + _BLOCK)]
                u += np.vecdot(increment, windows, out=lin)
                k += _BLOCK
                t = k * dt
                continue
            ue[0] = -u[1] if odd_pivot else u[1]
            ue[-1] = u[-2] + two_h * gr(t) if gr is not None else u[-2]
            subtract(upper, lower, g)
            if not heat:
                subtract(right, left, mp)
                mp *= inv_2h
                multiply(mp, mp, mp)
                mp += eps2
                mp **= exponent
                # argmax returns the first NaN, which the test below refuses
                max_alpha = pm1 * float(mp[argmax()])
                if not max_alpha <= _MAX_ALPHA:
                    raise CFLViolationError(
                        "max flux coefficient %g exceeds the stability bound %g at t = %g"
                        % (max_alpha, _MAX_ALPHA, t)
                    )
                if max_alpha == 0.0:
                    # fully degenerate flux: the data is stationary
                    outputs.extend((float(target), u.copy()) for target in pending)
                    break
                if adaptive:
                    dt = _step_size(controls, cfl_h2 / max_alpha, t)
                    step[()] = dt
                elif dt > cfl_h2 / max_alpha * (1.0 + 1e-9):
                    _step_size(controls, cfl_h2 / max_alpha, t)  # raises
            t_new = t + dt if adaptive else (k + 1) * dt
            multiply(ahead, forward, lin)
            lin -= multiply(behind, backward, term)
            if not heat:
                lin *= mp
                if adaptive:
                    lin *= step
            # an output may snap to the state before the step: keep a copy
            prior = (t, u.copy()) if t_new >= next_t else None
            u += lin
            if prior is not None:
                while pending and t_new >= pending[0]:
                    target = pending.popleft()
                    stamp, values = prior if abs(t - target) <= abs(t_new - target) else (t_new, u)
                    if not np.isfinite(values).all():
                        raise NonConvergenceError(
                            "the explicit scheme blew up: the state at t = %g is not finite "
                            "(refine the grid or lower cfl)" % stamp
                        )
                    outputs.append((stamp, values.copy()))
                next_t = pending[0] if pending else math.inf
            t = t_new
            k += 1
            if k >= check_at and pending:
                if k > _MAX_STEPS:
                    raise NonConvergenceError("time stepping exceeded %d steps" % _MAX_STEPS)
                # dt has settled (grown under 1 %) and the rest cannot fit the budget
                projected = k + (pending[-1] - t) / dt
                if dt < 1.01 * dt_checked and projected > _MAX_STEPS:
                    raise NonConvergenceError(
                        "t_end = %g at dt = %g needs about %d explicit steps, over the budget of %d"
                        % (t_end, dt, projected, _MAX_STEPS)
                    )
                dt_checked = dt
                check_at = min(k + _BUDGET_CHECK, _MAX_STEPS + 1)
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

    nm1_tk = (params.n - 1) * tk_array(params.kappa, phi0.grid.nodes)
    raw = _march(
        phi0.values, phi0.grid.h, nm1_tk, flux, params.diameter, t_end, controls, odd_pivot=True
    )
    out = [Profile(grid=phi0.grid, t=t, values=v) for t, v in raw]
    mono_tol = 1e-10 * osc0
    for prof in out:
        if not prof.is_nondecreasing(mono_tol):
            raise NonConvergenceError(
                "evolved profile lost monotonicity at t = %g; the scheme is outside "
                "its stability envelope (refine the grid or lower cfl)" % prof.t
            )
    return out
