"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s and in
failure reports); run the whole gate via

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from specgap import (
    Flux,
    Grid1D,
    ModelParams,
    Profile,
    StepControls,
    asymptotic_slope,
    classical_bounds,
    decay_check,
    evolve,
    first_eigenvalue,
    integrate_phi,
    ricci_bounds,
    sl_fd_oracle_extrapolated,
    two_point_check,
)


def check(num: int, desc: str, ok: bool):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_flat_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        for d in (1.0, 2.0, math.pi):
            mu = first_eigenvalue(ModelParams(n, 0.0, d), 1e-9).mu
            exact = (math.pi / d) ** 2
            worst = max(worst, abs(mu - exact) / exact)
    elapsed = time.perf_counter() - start
    check(
        1,
        f"flat-case eigenvalue exact to 1e-8 relative (worst {worst:.2e}) "
        f"in {elapsed:.2f}s < 1s",
        worst <= 1e-8 and elapsed < 1.0,
    )


def test_criterion_02_sphere_limit():
    d = math.pi * (1 - 1e-4)
    mu2 = first_eigenvalue(ModelParams(2, 1.0, d), 1e-4).mu
    mu3 = first_eigenvalue(ModelParams(3, 1.0, d), 1e-4).mu
    check(
        2,
        f"near-limit diameter reaches n*kappa: mu2={mu2:.6f} (target 2), "
        f"mu3={mu3:.6f} (target 3), both within 5e-3",
        abs(mu2 - 2.0) <= 5e-3 and abs(mu3 - 3.0) <= 5e-3,
    )


LATTICE_KAPPAS = (-1.0, -0.25, 0.25, 0.5)


def test_criterion_03_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        for kappa in LATTICE_KAPPAS:
            params = ModelParams(n, kappa, 2.0)
            mu = first_eigenvalue(params, 1e-9).mu
            oracle = sl_fd_oracle_extrapolated(params, 2048)
            worst = max(worst, abs(mu - oracle) / mu)
    elapsed = time.perf_counter() - start
    check(
        3,
        f"shooting vs extrapolated FD oracle on the 12-point lattice: worst "
        f"relative gap {worst:.2e} <= 1e-6 in {elapsed:.1f}s < 30s",
        worst <= 1e-6 and elapsed < 30.0,
    )


def test_criterion_04_asymptotic_slope():
    worst = 0.0
    for n in (2, 3, 4):
        slope = asymptotic_slope(n, 1e-3, 1e-10)
        worst = max(worst, abs(slope - (n - 1) / 2.0))
    check(
        4,
        f"eigenvalue slope in curvature at zero equals (n-1)/2 within 1e-3 "
        f"(worst deviation {worst:.2e}) for n in {{2,3,4}}",
        worst <= 1e-3,
    )


def test_criterion_05_linear_interpolation_refuted():
    ok = True
    worst_margin = math.inf
    for n in (2, 3, 5):
        for kappa in (0.05, 0.1, 0.2):
            mu = first_eigenvalue(ModelParams(n, kappa, math.pi), 1e-9).mu
            conjectured = 1.0 + (n - 1) * kappa
            margin = conjectured - mu
            worst_margin = min(worst_margin, margin - kappa**2 / 10.0)
            ok = ok and (margin > kappa**2 / 10.0)
    check(
        5,
        f"sharp value undershoots pi^2/D^2 + (n-1)*kappa with margin above "
        f"kappa^2/10 (tightest excess {worst_margin:.2e})",
        ok,
    )


def test_criterion_06_bound_chain():
    ok = True
    for n in (2, 3, 5):
        for kappa in LATTICE_KAPPAS + (0.0,):
            rep = classical_bounds(ModelParams(n, kappa, 2.0), 1e-9)
            half_value = rep.zhong_yang + (n - 1) * kappa / 2.0
            ok = ok and rep.sharp_mu >= rep.shi_zhang * (1.0 - 1e-8)
            ok = ok and rep.shi_zhang >= half_value * (1.0 - 1e-8)
    check(6, "bound chain sharp >= one-parameter family >= half-point value "
             "holds with 1e-8 relative slack on the full lattice", ok)


def test_criterion_07_scaling_covariance():
    worst = 0.0
    for n, kappa in ((2, -1.0), (3, -1.0), (5, -1.0), (2, 0.25), (3, 0.25), (5, 0.5)):
        base = first_eigenvalue(ModelParams(n, kappa, 2.0), 1e-9).mu
        for c in (0.5, 2.0, 3.0):
            scaled = first_eigenvalue(ModelParams(n, kappa / c**2, c * 2.0), 1e-9).mu
            worst = max(worst, abs(scaled * c**2 - base) / base)
    check(
        7,
        f"eigenvalue scales by 1/c^2 under (kappa, D) -> (kappa/c^2, c*D), "
        f"worst relative drift {worst:.2e} <= 1e-7",
        worst <= 1e-7,
    )


def _eigenprofile_error(params: ModelParams, sigma: float, cells: int) -> float:
    traj = integrate_phi(params, sigma, cells)
    grid = Grid1D(params.half_diameter, cells)
    phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
    slope_end = traj.dphi[-1]
    controls = StepControls(right_flux=lambda t: slope_end * math.exp(-sigma * t))
    (out,) = evolve(Flux.heat(), params, phi0, t_end=0.5, controls=controls)
    exact = np.exp(-sigma * out.t) * traj.phi
    return float(np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)))


def test_criterion_08_eigenprofile_decay():
    params = ModelParams(3, -1.0, 2.0)
    mu = first_eigenvalue(params, 1e-9).mu
    sigma = 0.9 * mu
    err_512 = _eigenprofile_error(params, sigma, 512)
    err_1024 = _eigenprofile_error(params, sigma, 1024)
    check(
        8,
        f"heat evolution of the shooting profile tracks its exponential decay "
        f"(err@512={err_512:.2e} <= 1e-3) and refines by {err_512 / err_1024:.2f}x >= 3x",
        err_512 <= 1e-3 and err_512 / err_1024 >= 3.0,
    )


def test_criterion_09_decay_rate_recovery():
    rec = decay_check(ModelParams(2, -1.0, math.pi), 128, seed=2025)
    check(
        9,
        f"oscillation decay rate of seeded generic odd data recovers the "
        f"eigenvalue: rate={rec.fitted_rate:.6f} vs mu={rec.mu:.6f}, "
        f"gap {rec.relative_gap:.2e} <= 2%",
        rec.relative_gap <= 0.02,
    )


def _moc_case(n, kappa, diameter, flux, cells, times):
    params = ModelParams(n, kappa, diameter)
    grid = Grid1D(diameter / 2.0, cells)
    phi0 = Profile(grid=grid, t=0.0, values=np.sin(math.pi * grid.nodes / diameter))
    return two_point_check(flux, params, phi0, times)


def test_criterion_10_modulus_preservation():
    # six configurations spanning both flux kinds and kappa in {-1, 0, 0.5};
    # the degenerate flux is exercised at kappa <= 0: with p > 2 its
    # coefficient vanishes at the Neumann ends, and a positive-curvature
    # drift then genuinely breaks the two-point bound at fixed times
    # (pinned by a dedicated regression test in test_warped.py)
    heat = Flux.heat()
    plap = Flux.plaplacian(3.0, 1e-8)
    configs = [
        (3, -1.0, 2.0, heat),
        (3, 0.0, 2.0, heat),
        (3, 0.5, 2.0, heat),
        (3, -1.0, 2.0, plap),
        (3, 0.0, 2.0, plap),
        (2, -1.0, math.pi, plap),
    ]
    times = [0.1, 0.25, 0.4]
    ok = True
    worst = -math.inf
    for n, kappa, diameter, flux in configs:
        rep = _moc_case(n, kappa, diameter, flux, 64, times)
        ok = ok and rep.violations == 0
        worst = max(worst, rep.worst_margin - rep.tol)
    ratios = []
    for flux in (heat, plap):
        d64 = _moc_case(3, -1.0, 2.0, flux, 64, times)
        d128 = _moc_case(3, -1.0, 2.0, flux, 128, times)
        ratios.append(d64.antipodal_defect / d128.antipodal_defect)
    ok = ok and all(r >= 3.0 for r in ratios)
    check(
        10,
        f"two-point modulus bound holds with zero violations on 6 configs "
        f"(worst margin-tol {worst:.2e}) and the equality defect shrinks "
        f"{min(ratios):.2f}x >= 3x under grid doubling",
        ok,
    )


def test_criterion_11_ricci_admissibility_boundary():
    ok = True
    for n in (3, 4, 5):
        for kappa in (0.5, 1.0, 2.0):
            ok = ok and ricci_bounds(n, kappa, 1.0 / kappa).admissible
            ok = ok and not ricci_bounds(n, kappa, 1.0 / kappa + 1e-9).admissible
    check(11, "model metric admissibility flips exactly at amplitude 1/kappa "
              "(+1e-9 rejected) for n in {3,4,5}, kappa in {0.5,1,2}", ok)


def test_criterion_12_p2_heat_consistency():
    params = ModelParams(3, -0.5, 2.0)
    grid = Grid1D(1.0, 64)
    phi0 = Profile(grid=grid, t=0.0, values=np.sin(math.pi * grid.nodes / 2.0))
    ctrl = StepControls(output_times=[0.05, 0.15])
    out_heat = evolve(Flux.heat(), params, phi0, 0.15, ctrl)
    out_p2 = evolve(Flux.plaplacian(2.0, 0.0), params, phi0, 0.15, ctrl)
    ok = all(
        a.t == b.t and np.array_equal(a.values, b.values)
        for a, b in zip(out_heat, out_p2)
    )
    check(12, "p = 2 evolution is bitwise identical to the heat evolution", ok)
