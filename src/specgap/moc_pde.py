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

# Regularization scale used when a p-Laplacian flux carries epsilon = None:
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
    requests the documented default (relative to the evolved data) when used
    in an evolution; direct coefficient evaluation treats ``None`` as the
    unregularized pair.  A p = 2 flux stores ``epsilon=None``, since
    alpha = beta = 1 there for every epsilon.
    """

    p: float = 2.0
    epsilon: float | None = None

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise InvalidParamsError(f"p-Laplacian flux requires p > 1, got {self.p!r}")
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
    lets two evolutions on different grids share identical time stamps; it is
    stored as a Python float.
    ``right_flux`` prescribes time-dependent Neumann data at the right end
    (zero when omitted); the left end is the odd pivot on [0, D/2] and carries
    zero Neumann data on a full interval.  A flux coefficient alpha above 1e8
    raises :class:`CFLViolationError` whatever the controls, as does, before
    the first step, a grid whose cell Peclet number h*max|(n-1)*tk|/(2*(p-1))
    exceeds 1.
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
        if self.fixed_dt is not None and not (self.fixed_dt > 0):
            raise InvalidParamsError(f"fixed_dt must be positive, got {self.fixed_dt}")
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


def _heat_step_band(h: float, nm1_tk: np.ndarray, dt: float, odd_pivot: bool) -> np.ndarray:
    """One explicit heat step u -> M u, as the rows (sub, diag, super) of M.

    The ghost reflections are folded into the end rows.  On the odd pivot
    row 0 is the identity row, since u_0 stays 0 there, so every row of M
    sums to 1.
    """
    a = dt / (h * h)
    b = dt * nm1_tk / (2.0 * h)
    band = np.empty((len(nm1_tk), 3))
    band[:, 0] = a + b
    band[:, 1] = 1.0 - 2.0 * a
    band[:, 2] = a - b
    band[0] = (0.0, 1.0, 0.0) if odd_pivot else (0.0, 1.0 - 2.0 * a, 2.0 * a)
    band[-1] = (2.0 * a, 1.0 - 2.0 * a, 0.0)
    return band


def _block_increment(band: np.ndarray, steps: int) -> np.ndarray:
    """M^steps - I for a tridiagonal M (steps >= 2), in band storage.

    Row i holds the entries of columns i - steps .. i + steps, zero where a
    column falls outside the grid; M^steps has half-bandwidth steps, so the
    band holds it exactly.  Each row of M sums to 1, so the diagonal is set to
    minus the sum of the other entries: the rows of the increment then sum to
    0 to rounding of one sum, not to the rounding of steps products.

    The powers are built diagonal-major.  Diagonal c (column offset c - steps)
    of a power P is one contiguous line of a flat buffer, with a zero pad
    entry at each end and a zero line beyond each outer diagonal.  Row i of
    M P is then, on diagonal c,
    sub_i*P[c + 1][i - 1] + diag_i*P[c][i] + super_i*P[c - 1][i + 1],
    and the three operands of a whole run of diagonals are slices of the flat
    buffer, one line minus one entry apart.  Power j writes only its 2j + 1
    live diagonals, and the zero coefficients at the pads keep the pads zero.
    Each entry is the same three products summed in the same order as in the
    row-major recurrence, so the band is bitwise the same; it is transposed
    to rows once, at the end, where the diagonal is set.
    """
    rows = len(band)
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
    power = np.ascontiguousarray(cur.reshape(width + 2, line)[1:-1, 1:-1].T)
    power[:, steps] = 0.0
    power[:, steps] = -power.sum(axis=1)
    return power


def _forcing_responses(band: np.ndarray, weight: float, increment: np.ndarray) -> None:
    """Write the block's responses to the Neumann data into ``increment``'s pad columns.

    Data g_j at step j < steps enters the last row as weight*g_j, and the
    remaining steps - 1 - j steps carry it on as the column
    M^(steps-1-j) (weight e_end), which reaches the last steps - j rows.  Row
    m - r of the band (m the last row) holds columns m - r - steps ..
    m - r + steps, so its window of the zero-padded state sees entry j of the
    right pad at band column steps + r + 1 + j, for exactly the j <= steps -
    1 - r whose response reaches it.  Response j is written there: a block
    whose right pad holds g(t_k .. t_(k+steps-1)) then adds the forcing in
    the same dot product as the increment.  The columns beyond the grid are
    zero before, so ``increment`` keeps its values on the grid.
    """
    steps = increment.shape[1] // 2
    rows = min(steps, len(band))
    part = band[-rows:]
    x = np.zeros(rows)
    x[-1] = weight
    responses = np.empty((rows, steps))
    for j in range(steps - 1, -1, -1):
        responses[:, j] = x
        y = part[:, 1] * x
        y[1:] += part[1:, 0] * x[:-1]
        y[:-1] += part[:-1, 2] * x[1:]
        x = y
    r, j = np.nonzero(np.add.outer(np.arange(rows), np.arange(steps)) < steps)
    increment[-1 - r, steps + 1 + r + j] = responses[-1 - r, j]


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
    data ``right_flux``.  A p-Laplacian flux with epsilon = None is regularized by
    _AUTO_EPS_SCALE * osc(u0) / diameter.  Requested output times are snapped
    to the nearest completed step rather than interpolated, so recorded state
    is always genuine scheme output, and every stamp is a Python float; a
    recorded state that is not finite raises :class:`NonConvergenceError`.

    A step allocates nothing.  The state alternates between two
    ghost-extended buffers: a step reads the current one and writes into the
    other, and its stencil rows (q, lap), coefficient rows (beta, alpha) and
    update are written into arrays made before the first step.  Every output
    is a copy, so no two outputs share memory with each other or with u0.
    The step's constants (2, eps^2, p - 1 and dt) enter it as 0-d float64
    arrays and its stencil scales as full rows, which spares numpy a Python
    scalar's dtype resolution and a broadcast on every call; the power keeps
    a Python float exponent, numpy's scalar-power path (0.5 is a square root).
    max(alpha) is read at ``alpha.argmax()``, which returns the first NaN, so
    a NaN or inf coefficient still meets the refusal below.

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

    On the heat flux alpha = beta = 1, so dt and the step matrix M are fixed:
    while the next output lies beyond the next _BLOCK steps those steps are
    one banded product.  It adds (M^_BLOCK - I)(u - u[0]) to u in place,
    which is exact on constant data, plus the forcing responses times
    g(t_k .. t_(k+_BLOCK-1)).  The band of M^_BLOCK - I is built once
    (``_block_increment``), with the forcing responses of a run with Neumann
    data written into its columns beyond the grid (``_forcing_responses``).
    Each block multiplies the band row by row into windows of u - u[0],
    padded with zeros on the left and, on the right, with the block's Neumann
    data (zeros in an unforced run), using ``np.vecdot``: one BLAS dot per
    row applies the increment and the forcing together.  Block times
    accumulate exactly as single steps accumulate them, so every time stamp
    equals that of the per-step loop and the values agree with it to
    roundoff.
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
    # (buffer, interior, right, left) views of the two state buffers
    buffers = np.empty((2, len(u0) + 2))
    cur, nxt = [(b, b[1:-1], b[2:], b[:-2]) for b in buffers]
    u = cur[1]
    u[:] = u0
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
    fixed = controls.fixed_dt is not None
    cfl_h2 = float(controls.cfl * h * h)  # so every dt and stamp is a Python float
    gr = controls.right_flux or (lambda _t: 0.0)
    # dt is known up front on the heat flux and whenever it is fixed
    dt = _step_size(controls, cfl_h2, 0.0) if heat else controls.fixed_dt
    if dt is not None:
        steps_needed = math.ceil(pending[-1] / dt)
        if steps_needed > _MAX_STEPS:
            raise NonConvergenceError(
                "t_end = %g at dt = %g needs %d explicit steps, over the budget of %d"
                % (t_end, dt, steps_needed, _MAX_STEPS)
            )
    # the stencil rows (q, lap) = (u', u''), and on the p-Laplacian flux the
    # coefficient rows (mp, alpha) = (beta, alpha) that multiply them
    ql = np.empty((2, len(u0)))
    q, lap = ql
    scale = np.empty_like(ql)
    scale[0], scale[1] = 1.0 / (2.0 * h), 1.0 / (h * h)
    two = np.array(2.0)
    step = np.array(0.0 if dt is None else dt)  # dt, rewritten by adaptive steps
    if heat:
        band = _heat_step_band(h, nm1_tk, dt, odd_pivot)
        increment = _block_increment(band, _BLOCK)
        forced = controls.right_flux is not None
        if forced:
            _forcing_responses(band, dt * (2.0 / h - nm1_tk[-1]), increment)
        # u - u[0] between two pads; a forced block's Neumann data in the right one
        padded = np.zeros(len(u0) + 2 * _BLOCK)
        neumann = padded[-_BLOCK:]
        windows = sliding_window_view(padded, 2 * _BLOCK + 1)
        increments = np.full(_BLOCK + 1, dt)
    else:
        eps = flux.epsilon
        if eps is None:
            eps = _AUTO_EPS_SCALE * float(np.max(u0) - np.min(u0)) / diameter
        eps2 = np.array(eps * eps)
        exponent = 0.5 * (flux.p - 2.0)
        pm1 = np.array(flux.p - 1.0)
        coefficients = np.empty((2, len(u0)))
        mp, alpha = coefficients

    two_h = 2.0 * h
    t = 0.0
    k = 0
    # an adaptive run records its dt after the first step, then projects its
    # step count every _BUDGET_CHECK steps
    check_at = 1 if dt is None else _MAX_STEPS + 1
    dt_checked = 0.0  # no dt yet: the first check only records one
    stepping = False  # heat: stepping singly until the next output is recorded
    # a blown-up state is refused at the next output; numpy's overflow
    # warnings on the way there say nothing more, nor does 0 ** negative
    # (alpha = inf, refused below)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while pending:
            ue, u, right, left = cur
            if heat and not stepping:
                if fixed:
                    times = ((k + np.arange(_BLOCK + 1)) * dt).tolist()
                else:
                    increments[0] = t
                    times = np.add.accumulate(increments).tolist()
                stepping = pending[0] <= times[-1]
                if not stepping:
                    np.subtract(u, u[0], out=padded[_BLOCK:-_BLOCK])
                    if forced:
                        neumann[:] = [gr(s) for s in times[:-1]]
                    u += np.vecdot(increment, windows, out=q)
                    t = times[-1]
                    k += _BLOCK
                    continue
            ue[0] = -u[1] if odd_pivot else u[1]
            ue[-1] = u[-2] + two_h * gr(t)
            np.subtract(right, left, q)
            np.multiply(u, two, lap)
            np.subtract(right, lap, lap)
            lap += left
            ql *= scale
            if not heat:
                np.multiply(q, q, mp)
                mp += eps2
                mp **= exponent
                np.multiply(mp, pm1, alpha)
                # argmax returns the first NaN, which the test below refuses
                max_alpha = float(alpha[alpha.argmax()])
                if not max_alpha <= _MAX_ALPHA:
                    raise CFLViolationError(
                        "max flux coefficient %g exceeds the stability bound %g at t = %g"
                        % (max_alpha, _MAX_ALPHA, t)
                    )
                if max_alpha == 0.0:
                    # fully degenerate flux: the data is stationary
                    outputs.extend((float(target), u.copy()) for target in pending)
                    break
                if not fixed:
                    dt = _step_size(controls, cfl_h2 / max_alpha, t)
                    step[()] = dt
                elif dt > cfl_h2 / max_alpha * (1.0 + 1e-9):
                    _step_size(controls, cfl_h2 / max_alpha, t)  # raises
                ql *= coefficients
            t_new = (k + 1) * dt if fixed else t + dt
            # u_new = u + dt*(lap - nm1_tk*q), written over q
            np.multiply(nm1_tk, q, q)
            np.subtract(lap, q, q)
            q *= step
            u_new = nxt[1]
            np.add(u, q, u_new)
            if odd_pivot:
                u_new[0] = 0.0
            stepping = pending[0] > t_new
            while pending and t_new >= pending[0]:
                target = pending.popleft()
                stamp, values = (t, u) if abs(t - target) <= abs(t_new - target) else (t_new, u_new)
                if not np.isfinite(values).all():
                    raise NonConvergenceError(
                        "the explicit scheme blew up: the state at t = %g is not finite "
                        "(refine the grid or lower cfl)" % stamp
                    )
                outputs.append((stamp, values.copy()))
            cur, nxt = nxt, cur
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
