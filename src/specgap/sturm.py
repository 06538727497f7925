"""First nonzero Neumann eigenvalue of the weighted 1D problem.

Two independent routes to the same number:

* ``first_eigenvalue`` -- shooting.  One RK4 kernel integrates
  ``phi'' - (n-1)*tk*phi' + sigma*phi = 0``, ``phi(0) = 0``, ``phi'(0) = 1``
  on [0, D/2] and counts sign changes of phi'.  By Sturm oscillation odd
  Neumann mode j has exactly j of them, so bisecting sigma on "at most j
  changes" finds mode j.  Mode 0 is the eigenvalue: there phi' first vanishes
  at the endpoint, which is exactly the Neumann condition of the weighted form.
* ``sl_fd_oracle`` -- a finite-volume discretization of the weight form
  ``-(w*phi')'/w`` with ``w = ck^(n-1)`` on [-D/2, D/2], Neumann via ghost
  reflection, solved by Sturm-sequence bisection on the symmetric tridiagonal
  matrix.  Serves as a cross-check oracle for the shooting route.

The two forms agree because ``(ck^(n-1))'/ck^(n-1) = -(n-1)*tk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParamsError, ModelParams, NonConvergenceError, PoleError
from .specialfn import ck, sk, tk_array

# Starting grid for the shooting integrator; refined by doubling until two
# successive refinements move the eigenvalue by less than tol/4.
_INITIAL_STEPS = 128
_MAX_STEPS = 1 << 22

# The sigma bracket is resolved to tol/8 so that the cross-grid Richardson
# comparison at tol/4 measures grid error, not bisection slack.
_SIGMA_REFINE = 8.0

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
    first_dphi_zero: float | None


@dataclass(frozen=True)
class EigenResult:
    """Converged eigenvalue with its final bisection bracket and grid.

    ``integrate_phi(params, bracket_lo, steps)`` gives the eigenfunction.
    """

    mu: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    tol: float
    steps: int


def _shooting_grid(params: ModelParams, steps: int) -> tuple[float, float, list[float]]:
    """(n-1, step h, tk at the nodes and half-nodes s = j*h/2) on [0, D/2]."""
    half = params.half_diameter
    if params.kappa > 0 and half >= math.pi / (2.0 * math.sqrt(params.kappa)):
        raise PoleError(
            "integration interval [0, %g] contains a pole of tk at pi/(2*sqrt(kappa))" % half
        )
    pts = np.arange(2 * steps + 1) * (half / (2 * steps))
    return float(params.n - 1), half / steps, tk_array(params.kappa, pts).tolist()


def _shoot(
    nm1: float,
    sigma: float,
    h: float,
    steps: int,
    tks: list[float],
    mode: int,
    phis: np.ndarray | None = None,
    dphis: np.ndarray | None = None,
) -> tuple[int, int]:
    """RK4 march from (phi, phi') = (0, 1); returns (sign changes of phi', first).

    ``first`` is the step in which phi' first stops being positive, -1 if never
    (zero and NaN count as non-positive).  Without output arrays the march
    stops once the count exceeds ``mode`` or the solution blows up; with them
    it runs to the end and records phi, phi' at nodes 1..steps.
    """
    # same IEEE results as numpy scalars, without a numpy call per operation
    sigma, h = float(sigma), float(h)
    record = phis is not None
    limit = steps if record else mode
    big = math.inf if record else _BLOWUP
    phi, dphi = 0.0, 1.0
    rising = True
    count = 0
    first = -1
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(steps):
        t0 = tks[2 * i]
        tm = tks[2 * i + 1]
        t1 = tks[2 * i + 2]
        k1d = nm1 * t0 * dphi - sigma * phi
        p2 = phi + h2 * dphi
        d2 = dphi + h2 * k1d
        k2d = nm1 * tm * d2 - sigma * p2
        p3 = phi + h2 * d2
        d3 = dphi + h2 * k2d
        k3d = nm1 * tm * d3 - sigma * p3
        p4 = phi + h * d3
        d4 = dphi + h * k3d
        k4d = nm1 * t1 * d4 - sigma * p4
        phi += h6 * (dphi + 2.0 * (d2 + d3) + d4)
        dphi += h6 * (k1d + 2.0 * (k2d + k3d) + k4d)
        if record:
            phis[i + 1] = phi
            dphis[i + 1] = dphi
        if (dphi > 0.0) == rising:
            if dphi > big or phi > big or phi < -big:
                # grew without a further sign change: the count is final on this grid
                return count, first
        else:
            rising = not rising
            count += 1
            if first < 0:
                first = i
            if count > limit:
                return count, first
    return count, first


def _hermite_dphi_zero(
    h: float, s0: float, d0: float, dd0: float, d1: float, dd1: float
) -> float:
    """Refine the zero of phi' inside one step via its cubic Hermite model.

    ``d0``/``d1`` are phi' at the step ends, ``dd0``/``dd1`` the corresponding
    phi'' values; the zero is bisected down to 1e-13 in s.
    """
    if d1 == 0.0:
        return s0 + h
    if not math.isfinite(d1):
        return s0
    c0 = d0
    c1 = h * dd0
    c2 = -3.0 * d0 - 2.0 * h * dd0 + 3.0 * d1 - h * dd1
    c3 = 2.0 * d0 + h * dd0 - 2.0 * d1 + h * dd1

    def hermite(th: float) -> float:
        return c0 + th * (c1 + th * (c2 + th * c3))

    lo, hi = 0.0, 1.0
    for _ in range(64):
        if (hi - lo) * h <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if hermite(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return s0 + 0.5 * (lo + hi) * h


def integrate_phi(params: ModelParams, sigma: float, steps: int) -> PhiTrajectory:
    """Integrate the shooting IVP with classical 4th-order steps.

    Runs the shooting kernel over the whole of [0, D/2], recording the
    trajectory, and refines the first zero of phi' (if any) inside the step
    the kernel reports via a cubic Hermite model of phi'.  The odd extension
    of the solution covers [-D/2, 0], so integrating the right half suffices.
    """
    if steps < 16:
        raise InvalidParamsError(f"steps must be >= 16, got {steps}")
    nm1, h, tks = _shooting_grid(params, steps)
    phis = np.zeros(steps + 1)
    dphis = np.ones(steps + 1)
    _, i = _shoot(nm1, sigma, h, steps, tks, 0, phis, dphis)
    first_zero = None
    if i >= 0:
        p0, p1 = phis[i : i + 2].tolist()
        d0, d1 = dphis[i : i + 2].tolist()
        dd0 = nm1 * tks[2 * i] * d0 - sigma * p0
        dd1 = nm1 * tks[2 * i + 2] * d1 - sigma * p1
        first_zero = _hermite_dphi_zero(h, i * h, d0, dd0, d1, dd1)
    grid = np.arange(steps + 1) * h
    return PhiTrajectory(sigma=sigma, grid=grid, phi=phis, dphi=dphis, first_dphi_zero=first_zero)


def _bisect_level(
    params: ModelParams,
    tol_sigma: float,
    steps: int,
    hint: tuple[float, float] | None,
    mode: int = 0,
) -> tuple[float, float, float, int]:
    """One bisection pass at a fixed grid; returns (mu, lo, hi, evaluations).

    The predicate "phi' changes sign at most ``mode`` times" holds below the
    eigenvalue of odd Neumann mode ``mode`` and fails above it.
    """
    nm1, h, tks = _shooting_grid(params, steps)

    def pred(sigma: float) -> bool:
        return _shoot(nm1, sigma, h, steps, tks, mode)[0] <= mode

    evals = 0
    lo = hi = None
    if hint is not None:
        cand_lo, cand_hi = max(0.0, hint[0]), hint[1]
        evals += 2
        if pred(cand_lo) and not pred(cand_hi):
            lo, hi = cand_lo, cand_hi
    if lo is None:
        # sigma = 0 always satisfies the predicate: phi' solves a first-order
        # linear equation with positive initial data, so it never changes sign.
        lo = 0.0
        hi = max(1.0, params.n * max(params.kappa, 0.0) + 4.0 * (math.pi / params.diameter) ** 2)
        while pred(hi):
            evals += 1
            lo = hi
            hi *= 2.0
            if hi > _SIGMA_CAP:
                raise NonConvergenceError(
                    "phi' kept at most %d sign changes up to sigma = %g; input is ill-posed"
                    % (mode, _SIGMA_CAP)
                )
        evals += 1
    while hi - lo > tol_sigma:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink further
        if pred(mid):
            lo = mid
        else:
            hi = mid
        evals += 1
    return 0.5 * (lo + hi), lo, hi, evals


def first_eigenvalue(params: ModelParams, tol: float) -> EigenResult:
    """Shooting eigenvalue: sup of sigma keeping phi' positive on [0, D/2].

    The sigma bisection runs on successively doubled integration grids until
    two successive refinements move the eigenvalue by less than tol/4, so the
    reported value carries both a tight bracket and a grid-convergence check.
    A zero of phi' at the endpoint counts as predicate failure (the Neumann
    condition holds exactly at the eigenvalue).
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParamsError(f"tol must be positive, got {tol}")
    tol_sigma = tol / _SIGMA_REFINE
    steps = _INITIAL_STEPS
    hint = None
    mus: list[float] = []
    while True:
        mu, lo, hi, evals = _bisect_level(params, tol_sigma, steps, hint)
        mus.append(mu)
        deltas = [abs(b - a) for a, b in zip(mus[:-1], mus[1:])]
        if len(deltas) >= 2 and deltas[-1] < tol / 4 and deltas[-2] < tol / 4:
            return EigenResult(
                mu=mu,
                bracket_lo=lo,
                bracket_hi=hi,
                iterations=evals,
                tol=hi - lo,
                steps=steps,
            )
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


def _fd_flux_factor(params: ModelParams, gridpoints: int) -> np.ndarray:
    """Golub-Kahan off-diagonal sequence of the discrete operator.

    ``gridpoints`` counts cells on [-D/2, D/2] (so doubling it halves the
    spacing exactly, which Richardson pairing and order checks rely on).  The
    fluxes use midpoint weights wm, the node masses are w = ck^(n-1), halved
    in the end cells (Neumann closure by ghost reflection).

    The stiffness matrix factors as K = B^T diag(wm)/dx^2 B with B the
    bidiagonal difference matrix, so the symmetrized operator is G^T G with a
    bidiagonal G.  Its nonzero eigenvalues are squared singular values of G,
    and the zero-diagonal Golub-Kahan tridiagonal of G allows a Sturm count
    without subtracting the O(1) shift from O(1/dx^2) diagonal entries -- the
    cancellation that otherwise floors absolute accuracy at eps*||A||.
    Returns the interleaved |G[i,i]|, |G[i,i+1]| = sqrt(wm/mass)/dx.  Only the
    ratios ck(x +- e)/ck(x) = ck(e) -+ tk(x)*sk(e) enter, never w itself,
    which overflows for kappa < 0 and large D.
    """
    d = params.diameter
    dx = d / gridpoints
    x = -0.5 * d + np.arange(gridpoints + 1) * dx
    kappa = params.kappa
    p = params.n - 1
    e = 0.5 * dx
    cke = ck(kappa, e)
    tsk = tk_array(kappa, x) * sk(kappa, e)
    c = np.empty(2 * gridpoints)
    c[0::2] = np.sqrt((cke - tsk[:-1]) ** p) / dx
    c[1::2] = np.sqrt((cke + tsk[1:]) ** p) / dx
    c[[0, -1]] *= math.sqrt(2.0)  # half mass in the end cells
    return c


def _sv_count(c2: list[float], x: float) -> int:
    """Eigenvalues of the zero-diagonal tridiagonal (off^2 = c2) below x."""
    count = 0
    q = -x
    if q < 0.0:
        count += 1
    for ck2 in c2:
        if q == 0.0:
            q = 1e-300
        q = -x - ck2 / q
        if q < 0.0:
            count += 1
    return count


def _fd_singular_value(params: ModelParams, gridpoints: int, index: int) -> float:
    """index-th smallest singular value (1-based) of the bidiagonal factor.

    For x > 0 the Golub-Kahan tridiagonal (one row/column per node and per
    cell) has ``gridpoints`` negative eigenvalues and one zero below x, so
    sigma_k < x exactly when the Sturm count reaches gridpoints + 1 + k.
    """
    c = _fd_flux_factor(params, gridpoints)
    c2 = (c * c).tolist()
    want = gridpoints + 1 + index
    lo = 0.0
    hi = 2.0 * float(np.max(c))
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if _sv_count(c2, mid) >= want:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sl_fd_oracle(params: ModelParams, gridpoints: int) -> float:
    """Finite-difference eigenvalue oracle, independent of the shooting route.

    Returns the smallest eigenvalue whose eigenvector is not the constant,
    i.e. the second-smallest eigenvalue of the discrete Neumann operator (the
    smallest is zero on constants by construction, and is excluded here as
    the structural null space of the bidiagonal factorization).
    """
    if gridpoints < 64:
        raise InvalidParamsError(f"gridpoints must be >= 64, got {gridpoints}")
    sigma = _fd_singular_value(params, gridpoints, 1)
    value = sigma * sigma
    if not (value > 0.0 and math.isfinite(value)):
        raise NonConvergenceError("FD oracle value %r is not finite and positive" % value)
    return value


def sl_fd_oracle_extrapolated(params: ModelParams, gridpoints: int) -> float:
    """Richardson extrapolation cancelling the second-order error term."""
    coarse = sl_fd_oracle(params, gridpoints)
    fine = sl_fd_oracle(params, 2 * gridpoints)
    return (4.0 * fine - coarse) / 3.0
