"""First nonzero Neumann eigenvalue of the weighted 1D problem.

Two independent routes to the same number:

* ``first_eigenvalue`` -- shooting.  One kernel, the sixth-order
  three-point Gauss Magnus step Omega^[6] (Iserles, Munthe-Kaas, Norsett &
  Zanna, Acta Numerica 9, 2000; Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
  2009), integrates ``phi'' - (n-1)*tk*phi' + sigma*phi = 0``,
  ``phi(0) = 0``, ``phi'(0) = 1`` on [0, D/2] and counts sign changes of
  phi'.  A step outside the Magnus disc (h*max|a| > pi, a = (n-1)*tk)
  takes the fourth-order two-point exponent in the same table columns.  By
  Sturm oscillation odd Neumann mode j has exactly j of them, so the
  predicate "at most j changes" holds below mode j and fails above it.  One bracketing loop narrows sigma
  by that predicate alone; its trial points are Illinois (safeguarded
  secant) steps on the endpoint value phi'(D/2), which is smooth in sigma
  and vanishes at the eigenvalue, with the midpoint as fallback.  Mode 0 is
  the eigenvalue: there phi' first vanishes at the endpoint, which is
  exactly the Neumann condition of the weighted form.  The first grid, of
  32 steps, starts from the bracket (0, a curvature-scaled guess); from the
  third grid on, each level starts from a tol/8 bracket around the h^6
  prediction from the two coarser levels.  One outward search, by doubling
  widths, moves any starting bracket that misses, and sigma <= 0, where the
  predicate provably holds, is never shot.  Grids double until the last
  delta is below tol/4 and the one before below 64*tol/4: one doubling
  shrinks an h^6 error at most 64x, so the error left is about a
  sixty-third of the last delta.
* ``sl_fd_oracle`` -- a finite-volume discretization of the weight form
  ``-(w*phi')'/w`` with ``w = ck^(n-1)`` on [-D/2, D/2], Neumann via ghost
  reflection, solved by Sturm-count bisection on the zero-diagonal
  Golub-Kahan tridiagonal of its bidiagonal factor, on the one of its two
  half-size blocks (it is symmetric under s -> -s) that holds the mode.
  Every solve is a rung of one ladder (``_fd_ladder``) of grids about g/8
  (above 64 cells), g, 2g, ...: the first rung above 64 cells starts from
  a rough 64-cell value, and each later one from the h^2-law extrapolation
  of the two values below it.  Newton on the same recurrence polishes that
  guess into a value that decides every bisection midpoint, and two Sturm
  counts at the ends of the final interval, plus one of the other block,
  prove all of those decisions (the count is monotone).  Every bisection
  decision, and so every returned value, is bit for bit that of the plain
  bisection on the summed block counts.  Serves as a cross-check oracle for
  the shooting route and never reads its result.

The two forms agree because ``(ck^(n-1))'/ck^(n-1) = -(n-1)*tk``.
``seeded_odd_initial_data`` builds generic evolution data from the shooting
eigenfunctions of the lowest odd modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import InvalidParamsError, ModelParams, NonConvergenceError, PoleError
from .specialfn import ck, sk, tk_array

# Starting grid for the shooting integrator; refined by doubling until the
# last refinement moves the eigenvalue by less than tol/4 and the one before
# by less than 64*tol/4.  The sixth-order Magnus step's h^6 law shrinks a
# delta at most 64x per doubling, so the error left in the finest level is
# about delta/63 < tol/252.  At 32 steps every step of the benchmark
# lattice lies inside the Magnus disc h*max|a| <= pi (its strongest-drift
# point reaches about 2.6), so none takes the fourth-order fallback.
_INITIAL_STEPS = 32
_MAX_STEPS = 1 << 22

# The sigma bracket is resolved to tol/8 so that the cross-grid Richardson
# comparison at tol/4 measures grid error, not bisection slack.
_SIGMA_REFINE = 8.0

# Upper end of the outward search, on the unit-size problem that
# ``_bisect_level`` solves (diameter in [0.5, 1)): its unhinted guess is
# n*max(kappa, 0) + 4*(pi/m)^2, at most (4n + 16)*pi^2.
_SIGMA_CAP = 1e12

# Values beyond this magnitude are treated as numerical blow-up of the IVP
# (possible for badly under-resolved grids near the Bonnet-Myers ceiling).
_BLOWUP = 1e200


@dataclass(frozen=True)
class PhiTrajectory:
    """Sampled IVP solution (phi, phi') on the uniform grid over [0, D/2]."""

    sigma: float
    grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


class GridLevel(NamedTuple):
    """One shooting grid: its steps, mu, sigma bracket and predicate calls."""

    steps: int
    mu: float
    lo: float
    hi: float
    evaluations: int


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalue with its final sigma bracket and grid.

    ``integrate_phi(params, bracket_lo, steps)`` gives the eigenfunction.
    ``levels`` holds every grid level, coarsest first; the last one is the
    reported one.  ``iterations`` counts the predicate calls of the final
    level and ``evaluations`` those of all levels.
    """

    mu: float
    bracket_lo: float
    bracket_hi: float
    steps: int
    levels: tuple[GridLevel, ...]

    @property
    def iterations(self) -> int:
        return self.levels[-1].evaluations

    @property
    def evaluations(self) -> int:
        return sum(level.evaluations for level in self.levels)


def _shooting_grid(params: ModelParams, steps: int) -> tuple[float, tuple[list[float], ...]]:
    """(step h, the Magnus table) on the uniform grid of [0, D/2].

    Step j of ``_shoot`` reads a = (n-1)*tk at its three Gauss points
    j*h + h*(1/2 -+ sqrt(15)/10) and j*h + h/2, as D = a3 - a1,
    S = a1 + a3 and M = a2.  Its sixth-order exponent Omega = x*I + N has
    x = h*(8*M + 5*S)/36 and, with
    P = h + h^3*(9*D^2 + 2*(4*M + S)*(2*M - S))/1296 and
    E = sqrt(15)*D*h^2*(M*h^2*(4*M + S) - 360)/12960,

        N11 = u1*sigma - x,     u1 = h^3*(80*(S - 2*M) - D^2*M*h^2)/4320,
        N12 = v0 + v1*sigma,    v0 = P + E,  v1 = D*h^4*(D*h - 4*sqrt(15))/2160,
        N21 = sigma*(w1 + w2*sigma),  w1 = E - P,  w2 = -D*h^4*(D*h + 4*sqrt(15))/2160.

    The table holds the sigma-free columns x, u1, v0, v1, w1, w2 and e^x,
    one entry per step; e^x may overflow to inf.  The Magnus series need
    not converge on a step with h*max|a| > pi (Moan & Niesen, Found.
    Comput. Math. 8, 2008), and there Omega's terms cubic in a make coarse
    grids next to a pole of tk report spurious eigenvalues.  Such a step,
    or one where a is not finite, takes the fourth-order two-point Gauss
    exponent instead, in the same columns: a = (n-1)*tk at
    j*h + h*(1/2 -+ sqrt(3)/6) gives x = h*(a1 + a2)/4 and
    k = (sqrt(3)/12)*h^2*(a1 - a2), and u1 = v1 = w2 = 0, v0 = h + k,
    w1 = k - h.
    """
    half = params.half_diameter
    if params.kappa > 0 and half >= math.pi / (2.0 * math.sqrt(params.kappa)):
        raise PoleError(
            "integration interval [0, %g] contains a pole of tk at pi/(2*sqrt(kappa))" % half
        )
    h = half / steps
    hh = h * h
    r15 = math.sqrt(15.0)
    starts = np.arange(steps) * h
    pts = np.empty(3 * steps)
    pts[0::3] = starts + (0.5 - 0.1 * r15) * h
    pts[1::3] = starts + 0.5 * h
    pts[2::3] = starts + (0.5 + 0.1 * r15) * h
    a = (params.n - 1) * tk_array(params.kappa, pts)
    with np.errstate(over="ignore", invalid="ignore"):
        d, s, m = a[2::3] - a[0::3], a[0::3] + a[2::3], a[1::3]
        x = (h / 36.0) * (8.0 * m + 5.0 * s)
        u1 = (h * hh / 4320.0) * (80.0 * (s - 2.0 * m) - d * d * m * hh)
        p = h + (h * hh / 1296.0) * (9.0 * d * d + 2.0 * (4.0 * m + s) * (2.0 * m - s))
        e = (r15 * hh / 12960.0) * d * (m * hh * (4.0 * m + s) - 360.0)
        dh4 = (hh * hh / 2160.0) * d
        v1 = dh4 * (d * h - 4.0 * r15)
        w2 = -dh4 * (d * h + 4.0 * r15)
        v0, w1 = p + e, e - p
        # the Magnus disc; a NaN or inf a lies outside it
        outside = np.flatnonzero(~(h * np.max(np.abs(a).reshape(steps, 3), axis=1) <= math.pi))
        if outside.size:
            offset = math.sqrt(3.0) / 6.0
            pts = np.empty(2 * outside.size)
            pts[0::2] = starts[outside] + (0.5 - offset) * h
            pts[1::2] = starts[outside] + (0.5 + offset) * h
            b = (params.n - 1) * tk_array(params.kappa, pts)
            k = (0.5 * offset * hh) * (b[0::2] - b[1::2])
            x[outside] = (0.25 * h) * (b[0::2] + b[1::2])
            u1[outside] = v1[outside] = w2[outside] = 0.0
            v0[outside] = h + k
            w1[outside] = k - h
        table = (x, u1, v0, v1, w1, w2, np.exp(x))
    return h, tuple(column.tolist() for column in table)


def _shoot(
    sigma: float,
    steps: int,
    table: tuple[list[float], ...],
    mode: int,
    phis: np.ndarray | None = None,
    dphis: np.ndarray | None = None,
) -> tuple[int, float]:
    """Magnus march from (phi, phi') = (0, 1); returns (sign changes of phi', end).

    The system y' = A*y, A = [[0, 1], [-sigma, a]], advances by the
    sixth-order three-point Gauss Magnus step exp(Omega) of Blanes, Casas,
    Oteo & Ros (Phys. Rep. 470, 2009), Omega = x*I + N with
    N = [[N11, N12], [N21, -N11]] formed from ``_shooting_grid``'s columns
    (fourth-order ones on a step outside the Magnus disc).
    N^2 = d^2*I with d^2 = N11^2 + N12*N21, so
    exp(Omega) = e^x*(cosh(d)*I + (sinh(d)/d)*N): one expm1 for d^2 > 0, a
    cos and a sin for d^2 < 0.  The step is exact where a is constant.  A
    step whose exp(Omega) is not a float (expm1 or cos past its range) makes
    phi and phi' NaN from there on.

    Zero and NaN values of phi' count as non-positive; ``end`` is phi' at D/2, NaN if the
    march stopped early.  Without output arrays the march stops once the count
    exceeds ``mode + 1`` or the solution blows up: ``count <= mode`` is decided
    as by a march that stops past ``mode``, and ``end`` is known on both sides
    of the eigenvalue of mode ``mode``.  With output arrays it runs to the end
    and records phi, phi' at nodes 1..steps.
    """
    # same IEEE results as numpy scalars, without a numpy call per operation
    sigma = float(sigma)
    sqrt, cos, sin, expm1 = math.sqrt, math.cos, math.sin, math.expm1
    record = phis is not None
    limit = steps if record else mode + 1
    big = math.inf if record else _BLOWUP
    phi, dphi = 0.0, 1.0
    rising = True
    count = 0
    i = 0
    try:
        for x, u1, v0, v1, w1, w2, ex in zip(*table):
            n11 = u1 * sigma - x
            n12 = v0 + v1 * sigma
            n21 = sigma * (w1 + w2 * sigma)
            d2 = n11 * n11 + n12 * n21
            if d2 < 0.0:
                w = sqrt(-d2)
                c = ex * cos(w)
                s = ex * sin(w) / w
            elif d2 > 0.0:
                d = sqrt(d2)
                em = expm1(d)
                inv = 1.0 / (1.0 + em)  # e^-d
                c = 0.5 * ex * (1.0 + em + inv)
                s = 0.5 * ex * em * (1.0 + inv) / d
            else:
                c = s = ex
            ns = n11 * s
            phi, dphi = (c + ns) * phi + n12 * s * dphi, n21 * s * phi + (c - ns) * dphi
            if record:
                i += 1
                phis[i] = phi
                dphis[i] = dphi
            if (dphi > 0.0) == rising:
                if dphi > big or phi > big or phi < -big:
                    # grew without a further sign change: the count is final on this grid
                    return count, math.nan
            else:
                rising = not rising
                count += 1
                if count > limit:
                    return count, math.nan
    except (OverflowError, ValueError):
        # the NaN march: a NaN phi' is one more sign change if phi' was positive
        if record:
            phis[i + 1 :] = dphis[i + 1 :] = math.nan
        return count + rising, math.nan
    return count, dphi


def integrate_phi(params: ModelParams, sigma: float, steps: int) -> PhiTrajectory:
    """Integrate the shooting IVP with sixth-order Magnus steps.

    Runs the shooting kernel over the whole of [0, D/2] and records (phi,
    phi') at every node; a step outside the Magnus disc is fourth-order
    (``_shooting_grid``), as in ``first_eigenvalue``.  The odd extension of
    the solution covers [-D/2, 0], so integrating the right half suffices.
    """
    if steps < 16:
        raise InvalidParamsError(f"steps must be >= 16, got {steps}")
    if not math.isfinite(sigma):
        raise InvalidParamsError(f"sigma must be finite, got {sigma}")
    h, table = _shooting_grid(params, steps)
    phis = np.zeros(steps + 1)
    dphis = np.ones(steps + 1)
    _shoot(sigma, steps, table, 0, phis, dphis)
    grid = np.arange(steps + 1) * h
    return PhiTrajectory(sigma=sigma, grid=grid, phi=phis, dphi=dphis)


def _bisect_level(
    params: ModelParams,
    tol_sigma: float,
    steps: int,
    hint: tuple[float, float] | None,
    mode: int = 0,
) -> tuple[float, float, float, int]:
    """One bracketing pass at a fixed grid; returns (mu, lo, hi, evaluations).

    The predicate "phi' changes sign at most ``mode`` times" holds below the
    eigenvalue of odd Neumann mode ``mode`` and fails above it.  It alone
    decides each trial point, so lo always passes and hi always fails.  The
    trial point is the Illinois point (Dowell & Jarratt, BIT 11, 1971) of
    f = (-1)^mode * phi'(D/2), smooth in sigma with its root at the
    eigenvalue, whenever both ends' f are finite with f(lo) > 0 >= f(hi); it
    is kept tol_sigma/4 inside each end, and the retained end's f is halved
    when the same end is kept twice.  Otherwise, and after two trials in a
    row that failed to halve the bracket, the trial point is the midpoint, so
    the bracket at least halves in every three trials.

    A ``hint`` (lo, hi) should have lo pass and hi fail; no hint means the
    hint (0, a curvature-scaled guess).  Every sigma <= 0 passes without a
    shot, so lo is clamped to 0 and sigma = 0 costs nothing.  An end that
    fails its test becomes the other end, and one outward search moves the
    bracket until it holds the eigenvalue: each new end lies one step beyond
    the old one, and the step starts at the hint's width and doubles after
    each use.  Unhinted, the search tries guess, 2*guess, 4*guess, ...  Down
    it stops at sigma = 0; up it raises NonConvergenceError at _SIGMA_CAP.

    The level is solved on the diameter m in [0.5, 1) of D = m*2^e: with
    s = 2^e*t the problem (n, kappa, D) is (n, kappa*4^e, m) with every
    sigma scaled by 4^e.  A power of two scales h, the nodes, tk, the Magnus
    table and every trial point exactly, so each decision is the one taken
    in the caller's units, while the guess and the cap see a unit-size
    problem.  A scaled input or result outside the double range raises
    NonConvergenceError.
    """
    m, e = math.frexp(params.diameter)
    try:
        unit = ModelParams(params.n, math.ldexp(params.kappa, 2 * e), m)
        unit_tol = math.ldexp(tol_sigma, 2 * e)
        if hint is not None:
            hint = (math.ldexp(hint[0], 2 * e), math.ldexp(hint[1], 2 * e))
    except (OverflowError, InvalidParamsError):
        raise NonConvergenceError(
            "kappa = %g or sigma tolerance %g, scaled by D^2 = (%g)^2, is outside the double range"
            % (params.kappa, tol_sigma, params.diameter)
        ) from None
    params, tol_sigma = unit, unit_tol
    _, table = _shooting_grid(params, steps)
    sign = -1.0 if mode % 2 else 1.0
    evals = 0

    def shoot(sigma: float) -> tuple[bool, float]:
        if sigma <= 0.0:
            # (ck^(n-1)*phi')' = -sigma*ck^(n-1)*phi >= 0 while phi >= 0, so
            # phi' stays positive: the predicate holds without a march
            return True, math.nan
        nonlocal evals
        evals += 1
        count, end = _shoot(sigma, steps, table, mode)
        return count <= mode, sign * end

    if hint is None:
        scale = math.pi / m
        hint = (0.0, params.n * max(params.kappa, 0.0) + 4.0 * scale * scale)
    lo = max(0.0, hint[0])
    hi = max(lo, hint[1])
    step = max(hi - lo, tol_sigma)
    passes, f_lo = shoot(lo)
    if passes:
        passes, f_hi = shoot(hi)
        while passes:  # the hint lies below the eigenvalue: step up
            if hi >= _SIGMA_CAP:
                raise NonConvergenceError(
                    "phi' kept at most %d sign changes up to sigma = %g; input is ill-posed"
                    % (mode, _SIGMA_CAP)
                )
            lo, f_lo = hi, f_hi
            hi = min(lo + step, _SIGMA_CAP)
            step *= 2.0
            passes, f_hi = shoot(hi)
    else:  # the hint lies above the eigenvalue: step down
        while not passes:
            hi, f_hi = lo, f_lo
            lo = max(hi - step, 0.0)
            step *= 2.0
            passes, f_lo = shoot(lo)
    last = None  # the previous trial's predicate value
    slow = 0  # trials in a row that failed to halve the bracket
    while hi - lo > tol_sigma:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink further
        sigma = mid
        if slow < 2 and 0.0 < f_lo < math.inf and -math.inf < f_hi <= 0.0:
            sigma = lo + f_lo * (hi - lo) / (f_lo - f_hi)
            sigma = min(max(sigma, lo + 0.25 * tol_sigma), hi - 0.25 * tol_sigma)
            if not lo < sigma < hi:
                sigma = mid
        width = hi - lo
        passes, f = shoot(sigma)
        if passes:
            if last is True:  # hi kept twice
                f_hi *= 0.5
            lo, f_lo = sigma, f
        else:
            if last is False:  # lo kept twice
                f_lo *= 0.5
            hi, f_hi = sigma, f
        last = passes
        slow = 0 if sigma == mid or hi - lo <= 0.5 * width else slow + 1
    mu = 0.5 * (lo + hi)
    try:
        back = [math.ldexp(value, -2 * e) for value in (mu, lo, hi)]
    except OverflowError:
        back = [math.inf]
    if not 0.0 < back[0] < math.inf:
        raise NonConvergenceError("mu = %r * 4^%d is outside the double range" % (mu, -e))
    return back[0], back[1], back[2], evals


def first_eigenvalue(params: ModelParams, tol: float) -> EigenResult:
    """Shooting eigenvalue: sup of sigma keeping phi' positive on [0, D/2].

    The sigma bracket is narrowed to tol/8 (``_bisect_level``: Illinois steps
    on phi'(D/2), each decided by the predicate) on successively doubled
    integration grids from ``_INITIAL_STEPS`` = 32.  Level k is accepted once
    |mu_k - mu_(k-1)| < tol/4 and |mu_(k-1) - mu_(k-2)| < 64*tol/4.  Under
    the sixth-order Magnus step's h^6 error law one doubling shrinks a delta
    at most 64x, so the second test rejects a last delta that is small by
    accident, and the error left in mu_k is about |mu_k - mu_(k-1)|/63,
    under tol/252.  Steps outside the Magnus disc take fourth-order
    exponents (``_shooting_grid``); they keep coarse levels near a pole of
    tk close to the eigenvalue.  The reported value is the raw
    finest level, so it carries both a proved bracket and a grid-convergence
    check.  ``levels`` records every level.  The first level starts from the
    hint (0, a curvature-scaled guess), the second from the first bracket
    widened by a margin.  Later levels start from a bracket just under tol/8 wide
    centred on mu_k + (mu_k - mu_(k-1))/64, the next value that the h^6
    error law predicts.  ``_bisect_level`` steps outward from a hint that misses, by
    doubling widths, without shooting sigma <= 0, and the predicate alone
    decides every trial.  A zero of phi' at the endpoint counts as predicate
    failure (the Neumann condition holds exactly at the eigenvalue).  A level
    whose mu has 4 ulps above tol raises NonConvergenceError: a delta below
    tol/4 would there be level-to-level roundoff, not grid convergence.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParamsError(f"tol must be positive and finite, got {tol}")
    tol_sigma = tol / _SIGMA_REFINE
    steps = _INITIAL_STEPS
    hint = None
    levels: list[GridLevel] = []
    while True:
        mu, lo, hi, evals = _bisect_level(params, tol_sigma, steps, hint)
        if 4.0 * math.ulp(mu) > tol:
            raise NonConvergenceError(
                "tol = %g is below the float resolution of mu = %r" % (tol, mu)
            )
        levels.append(GridLevel(steps, mu, lo, hi, evals))
        if (
            len(levels) >= 3
            and abs(mu - levels[-2].mu) < tol / 4
            and abs(levels[-2].mu - levels[-3].mu) < 64 * tol / 4
        ):
            return EigenResult(mu, lo, hi, steps, tuple(levels))
        if len(levels) >= 2:
            # the h^6 error falls 64x per doubling: predict the next level.  Two
            # ulps less than tol_sigma/2 keep the rounded hint within
            # tol_sigma, so a hint that holds the eigenvalue needs no trial.
            guess = mu + (mu - levels[-2].mu) / 64.0
            half = max(0.5 * tol_sigma - 2.0 * math.ulp(guess), 0.0)
            hint = (guess - half, guess + half)
        else:
            margin = max(64.0 * tol, 1e-6 * max(1.0, abs(mu)))
            hint = (lo - margin, hi + margin)
        steps *= 2
        if steps > _MAX_STEPS:
            raise NonConvergenceError(
                "grid refinement exceeded %d steps without eigenvalue convergence" % _MAX_STEPS
            )


def sphere_limit_eigenvalue(n: int, kappa: float) -> float:
    """Analytic eigenvalue n*kappa at the Bonnet-Myers limiting diameter.

    Diameters at (or numerically indistinguishable from) pi/sqrt(kappa) are
    rejected by :class:`ModelParams` because the ODE coefficient has a pole at
    the limiting half-diameter; this closed form covers that boundary case.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParamsError(f"dimension n must be an integer >= 2, got {n!r}")
    if not kappa > 0:
        raise InvalidParamsError("the limiting diameter exists only for kappa > 0")
    return n * kappa


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


def _fd_flux_factor(params: ModelParams, gridpoints: int) -> np.ndarray:
    """Right half c of the palindromic Golub-Kahan off-diagonals of the operator.

    ``gridpoints`` (even) counts cells on [-D/2, D/2] (so doubling it halves
    the spacing exactly, which Richardson pairing and order checks rely on).
    The fluxes use midpoint weights wm, the node masses are w = ck^(n-1),
    halved in the end cells (Neumann closure by ghost reflection).

    The stiffness matrix factors as K = B^T diag(wm)/dx^2 B with B the
    bidiagonal difference matrix, so the symmetrized operator is G^T G with a
    bidiagonal G.  Its nonzero eigenvalues are squared singular values of G,
    and the zero-diagonal Golub-Kahan tridiagonal of G allows a Sturm count
    without subtracting the O(1) shift from O(1/dx^2) diagonal entries -- the
    cancellation that otherwise floors absolute accuracy at eps*||A||.  Its
    off-diagonals |G[i,i]|, |G[i,i+1]| = sqrt(wm/mass)/dx form the palindrome
    c[::-1] + c (tk is odd); c comes from the nodes i*dx, i <= gridpoints/2.
    The matrix splits exactly (Cantoni & Butler, Linear Algebra Appl. 13,
    1976) into an odd block, off-diagonals c[1:], and an even one,
    [sqrt(2)*c[0], *c[1:]], which holds the constant mode's zero.  Only the
    ratios ck(x +- e)/ck(x) = ck(e) -+ tk(x)*sk(e) enter, never w itself,
    which overflows for kappa < 0 and large D.
    """
    dx = params.diameter / gridpoints
    x = np.arange(gridpoints // 2 + 1) * dx
    kappa = params.kappa
    p = params.n - 1
    e = 0.5 * dx
    cke = ck(kappa, e)
    tsk = tk_array(kappa, x) * sk(kappa, e)
    c = np.empty(gridpoints)
    c[0::2] = np.sqrt((cke - tsk[:-1]) ** p) / dx
    c[1::2] = np.sqrt((cke + tsk[1:]) ** p) / dx
    c[-1] *= math.sqrt(2.0)  # half mass in the end cell
    return c


def _sv_count(c2: list[float], x: float) -> int:
    """Eigenvalues of the zero-diagonal tridiagonal (off^2 = c2) below x.

    A zero pivot q_(i-1), of either sign, is replaced by 1e-300; a NaN one
    passes through.
    """
    count = 0
    mx = -x
    q = mx
    if q < 0.0:
        count += 1
    for ck2 in c2:
        q = mx - ck2 / (q or 1e-300)
        if q < 0.0:
            count += 1
    return count


def _newton_singular_value(c2: list[float], x: float) -> float:
    """Newton on det(T - xI) of the zero-diagonal tridiagonal, started at x.

    One pass of the Sturm recurrence q_i = -x - c2_i/q_(i-1) also carries
    q_i' = -1 + c2_i*q_(i-1)'/q_(i-1)^2, and det'/det = sum q_i'/q_i; the pass
    carries 1/q_i, so each entry costs one division.  Returns x once a step
    is at most 1e-7*x (convergence is quadratic, so the error left is of the
    order of that step squared); NaN when 6 steps do not meet that stop, or
    on a zero pivot, so that no unconverged iterate poses as a singular
    value.  From ``_fd_ladder``'s h^2-law guesses, within about 1e-6
    relative, one pass mostly meets that stop.  The result is only a guess:
    two Sturm counts prove any bracket built on it.
    """
    try:
        for _ in range(6):
            mx = -x
            iq = 1.0 / mx
            dq = -1.0
            s = -iq
            for ck2 in c2:
                r = ck2 * iq
                dq = r * dq * iq - 1.0
                iq = 1.0 / (mx - r)
                s += dq * iq
            step = 1.0 / s
            x -= step
            if abs(step) <= 1e-7 * x:
                return x
    except ZeroDivisionError:
        pass
    return math.nan


def _fd_solve(
    params: ModelParams, gridpoints: int, index: int, guess: float | None, rough: bool = False
) -> float:
    """index-th smallest singular value (1-based) of the bidiagonal factor.

    For x > 0 the Golub-Kahan tridiagonal has ``gridpoints`` negative
    eigenvalues and one zero below x, so sigma_k < x exactly when its Sturm
    count, the sum of its two blocks' (``_fd_flux_factor``), reaches
    gridpoints + 1 + k.  Odd k lies in the odd block and even k in the even
    one, and the solve counts that block alone.

    The bisection runs from [0, 2*max c] to a relative width of 1e-14, or
    until lo and hi are adjacent floats.  A midpoint at or below a proved
    "below" point, or at or above a proved "above" one, needs no count; every
    count makes its point a proved one.  Newton polishes ``guess`` into x, and
    while x is set it decides every other midpoint ("above" when above x).
    The count is monotone in x, so counts at the two ends of the final
    interval prove all of those decisions at once.  A failed end is itself
    proved, and the pass repeats with x moved onto it, at most 4 times.
    After that x is cleared, the bracket [x - w, x + w] around its last place
    (w = 4e-14*x, widened 4x up to three times) adds its proved points, and
    one last pass counts every undecided midpoint; without a usable guess
    that pass runs alone.  A count of the other block at the final hi then
    proves every decision, and the value, bit for bit that of the plain
    bisection on the summed counts, or raises NonConvergenceError.  A
    ``rough`` solve, only ever a guess, skips it and stops once lo > 0 and
    hi - lo <= 1e-6*lo.
    """
    c = _fd_flux_factor(params, gridpoints)
    c2 = (c * c).tolist()
    odd, even = c2[1:], [2.0 * c2[0], *c2[1:]]  # g/2 and g/2 + 1 eigenvalues <= 0
    c2, other = (odd, even) if index % 2 else (even, odd)
    want = gridpoints // 2 + index // 2 + 1
    top = 2.0 * float(np.max(c))
    below, above = 0.0, top  # count(below) < want <= count(above) once either moves
    x = math.nan if guess is None else _newton_singular_value(c2, guess)
    if not 0.0 < x < math.inf:
        x = None

    def above_root(point: float) -> bool:
        """Whether count(point) >= want: by a proved point, by x, or by a count."""
        nonlocal below, above
        if point >= above:
            return True
        if point <= below:
            return False
        if x is not None:
            return point > x
        if _sv_count(c2, point) >= want:
            above = point
            return True
        below = point
        return False

    walks = 0
    while True:
        lo, hi = 0.0, top
        while hi - lo > 1e-14 * hi:
            if rough and 0.0 < lo and hi - lo <= 1e-6 * lo:
                break
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # adjacent floats: the bracket cannot shrink further
            if above_root(mid):
                hi = mid
            else:
                lo = mid
        if x is None:
            break
        x = None  # count the ends, which prove every decision taken on x's word
        if above_root(lo):
            x = lo
        elif not above_root(hi):
            x = hi
        else:
            break
        walks += 1
        if walks > 4:
            center, x = x, None
            w = 4e-14 * center
            for _ in range(4):
                if not above_root(center - w) and above_root(center + w):
                    break
                w *= 4.0
    if not rough and _sv_count(other, hi) != gridpoints + 1 + index - want:
        raise NonConvergenceError(f"FD oracle: the other block's count at {hi!r} is wrong")
    return 0.5 * (lo + hi)


def _h2_law(s_c: float, s_g: float, r: float, k: float) -> float:
    """The value on k*g cells from those on c and g = r*c cells.

    The discrete singular value follows the h^2 error law
    s_g = s + C/g^2 + O(g^-4) (Paine, de Hoog & Anderssen, Computing 26,
    1981), so s_(k*g) = s_g - (1 - 1/k^2)*(s_c - s_g)/(r^2 - 1).
    """
    return s_g - (1.0 - 1.0 / (k * k)) * (s_c - s_g) / (r * r - 1.0)


def _fd_ladder(params: ModelParams, gridpoints: int, index: int, rungs: int) -> list[float]:
    """The index-th singular value on gridpoints*2^k cells, for k < ``rungs``.

    The solves climb one ladder: 2*(gridpoints//16) cells when that is above
    64, then the requested (even) grids.  The first rung above 64 cells is
    seeded by a ``rough`` 64-cell value (a ladder that starts at 64 cells
    solves that rung unseeded), and each later rung by ``_h2_law`` through
    the two values below it: at gridpoints = 2048 on the benchmark lattice
    the guess is within 1e-6 relative at 2048 cells and about 1e-9 at 4096.
    A guess saves only Sturm counts, and no value depends on it.  A value
    whose square is not finite and positive raises NonConvergenceError.
    """
    if gridpoints < 64 or gridpoints % 2:
        raise InvalidParamsError(f"gridpoints must be an even cell count >= 64, got {gridpoints}")
    cells = [gridpoints * 2**k for k in range(rungs)]
    if 2 * (gridpoints // 16) > 64:
        cells.insert(0, 2 * (gridpoints // 16))
    values = []
    if cells[0] > 64:
        cells.insert(0, 64)
        values.append(_fd_solve(params, 64, index, None, rough=True))
    for k in range(len(values), len(cells)):
        guess = values[0] if k == 1 else None
        if k > 1:
            r, step = cells[k - 1] / cells[k - 2], cells[k] / cells[k - 1]
            guess = _h2_law(values[k - 2], values[k - 1], r, step)
        value = _fd_solve(params, cells[k], index, guess)
        square = value * value
        if not (square > 0.0 and math.isfinite(square)):
            raise NonConvergenceError("FD oracle value %r is not finite and positive" % square)
        values.append(value)
    return values[-rungs:]


def _fd_singular_value(params: ModelParams, gridpoints: int, index: int) -> float:
    """index-th smallest singular value (1-based) on gridpoints cells: a one-rung ladder."""
    return _fd_ladder(params, gridpoints, index, 1)[0]


def sl_fd_oracle(params: ModelParams, gridpoints: int) -> float:
    """Finite-difference eigenvalue oracle, independent of the shooting route.

    Returns the smallest eigenvalue whose eigenvector is not the constant,
    i.e. the second-smallest eigenvalue of the discrete Neumann operator (the
    smallest is zero on constants by construction, and is excluded here as
    the structural null space of the bidiagonal factorization).
    ``gridpoints`` must be even and at least 64.
    """
    sigma = _fd_singular_value(params, gridpoints, 1)
    return sigma * sigma


def sl_fd_oracle_extrapolated(params: ModelParams, gridpoints: int) -> float:
    """Richardson extrapolation cancelling the second-order error term.

    Under the h^2 law of ``_h2_law`` the squares of the values on gridpoints
    and 2*gridpoints cells, from one two-rung ``_fd_ladder``, combine as
    (4*s_2g^2 - s_g^2)/3.
    """
    coarse, fine = _fd_ladder(params, gridpoints, 1, 2)
    return (4.0 * (fine * fine) - coarse * coarse) / 3.0
