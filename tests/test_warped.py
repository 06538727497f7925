import math

import numpy as np
import pytest

from specgap import (
    Flux,
    Grid1D,
    InvalidParamsError,
    ModelParams,
    Profile,
    RadialSolution,
    StepControls,
    ViolationReport,
    WarpedMetric,
    default_warp_amplitude,
    first_eigenvalue,
    fit_decay,
    integrate_phi,
    radial_flow,
    ricci_bounds,
    seeded_odd_initial_data,
    two_point_check,
    verify_moc,
)
from specgap import warped
from specgap.specialfn import ck

MU_3_M1_2 = 1.682043320038555


def odd_sine_data(diameter: float, cells: int) -> np.ndarray:
    s = -diameter / 2 + np.arange(cells + 1) * (diameter / cells)
    return np.sign(s) * np.sin(math.pi * np.abs(s) / diameter)


def concave_profile(diameter: float, m: int) -> Profile:
    grid = Grid1D(diameter / 2, m)
    return Profile(grid=grid, t=0.0, values=np.sin(math.pi * grid.nodes / diameter))


def reference_verify_moc(solution, phi_series, tol):
    """The two-point check one output time and one lag at a time."""
    m_u = len(solution.nodes) - 1
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
    return ViolationReport(tol=tol, violations=violations, worst_margin=worst,
                           antipodal_defect=defect, pairs_checked=pairs,
                           times_checked=len(phi_series))


def sine_check(n, kappa, diameter, flux, cells, times):
    """The two-point check of the sine modulus, as criterion 10 runs it."""
    return two_point_check(flux, ModelParams(n, kappa, diameter), concave_profile(diameter, cells),
                           times)


def matched_evolutions(n, kappa, diameter, flux, cells, times):
    """The radial solution, modulus evolutions and tol that ``sine_check`` verifies."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(warped, "verify_moc", lambda *check: seen.append(check) or verify_moc(*check))
        sine_check(n, kappa, diameter, flux, cells, times)
    return seen[0]


class TestRicciBounds:
    def test_flat_case(self):
        rep = ricci_bounds(3, 0.0, 5.0)
        assert rep.radial == 0.0
        assert rep.tangential_min == pytest.approx(0.2, rel=1e-14)
        assert rep.admissible

    def test_exact_cancellation_at_a_equals_inverse_kappa(self):
        rep = ricci_bounds(3, 1.0, 1.0)
        assert rep.tangential_min == pytest.approx(2.0, rel=1e-14)
        assert rep.admissible

    def test_too_large_amplitude_fails(self):
        rep = ricci_bounds(4, 1.0, 2.0)
        assert not rep.admissible

    def test_boundary_exactness(self):
        for n in (3, 4, 5):
            for kappa in (0.5, 1.0, 2.0):
                assert ricci_bounds(n, kappa, 1.0 / kappa).admissible
                assert not ricci_bounds(n, kappa, 1.0 / kappa + 1e-9).admissible

    def test_negative_curvature_any_amplitude(self):
        for a in (0.1, 1.0, 100.0):
            rep = ricci_bounds(4, -1.0, a)
            assert rep.admissible
            assert rep.radial == -3.0

    def test_dimension_two_fiber_term_vanishes(self):
        # n = 2 has a one-dimensional fiber: no intrinsic curvature constraint
        rep = ricci_bounds(2, 1.0, 5.0)
        assert rep.tangential_min == rep.radial
        assert rep.admissible

    def test_interval_minimum_matches_dense_scan(self):
        for n, kappa, a, hw in [(4, -1.0, 0.5, 1.2), (3, 0.7, 1.0, 0.8), (5, 0.3, 4.0, 1.0)]:
            rep = ricci_bounds(n, kappa, a, half_width=hw)
            s = np.linspace(-hw, hw, 20001)
            dense = (n - 1) * kappa + (n - 2) * (1.0 / a - kappa) / np.array(
                [ck(kappa, si) ** 2 for si in s]
            )
            assert rep.tangential_min == pytest.approx(float(np.min(dense)), rel=1e-12)

    @pytest.mark.parametrize("half_width", [360.0, 1000.0])
    def test_overflowing_ck_leaves_a_finite_report(self, half_width):
        # ck^2 overflows past cosh(355); the fiber term coef/ck^2 fades to 0
        for n, a in [(3, 1.0), (4, 1e6), (5, 1e-3)]:
            rep = ricci_bounds(n, -1.0, a, half_width=half_width)
            assert rep.tangential_min == rep.radial == -(n - 1)
            assert rep.admissible

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            ricci_bounds(1, 0.0, 1.0)
        with pytest.raises(InvalidParamsError):
            ricci_bounds(3, 0.0, -1.0)
        with pytest.raises(InvalidParamsError):
            ricci_bounds(3, 1.0, 1.0, half_width=math.pi / 2)
        for kappa in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParamsError):
                ricci_bounds(3, kappa, 1.0)
        for value in (math.inf, math.nan):
            with pytest.raises(InvalidParamsError, match="amplitude must be positive and finite"):
                ricci_bounds(3, -1.0, value)
            with pytest.raises(InvalidParamsError, match="half_width must be positive and finite"):
                ricci_bounds(3, -1.0, 1.0, half_width=value)
            with pytest.raises(InvalidParamsError, match="amplitude must be positive and finite"):
                WarpedMetric(ModelParams(3, -1.0, 2.0), value)


class TestWarpedMetric:
    def test_admissibility_flag(self):
        params = ModelParams(3, 1.0, 2.0)
        assert WarpedMetric(params, 1.0).admissible
        assert not WarpedMetric(params, 1.5).admissible

    def test_default_amplitude(self):
        assert default_warp_amplitude(-2.0) == 1.0
        assert default_warp_amplitude(0.0) == 1.0
        assert default_warp_amplitude(2.0) == 0.25
        for kappa in (-1.0, 0.0, 0.5, 3.0):
            assert ricci_bounds(4, kappa, default_warp_amplitude(kappa)).admissible

    def test_radial_flow_rejects_inadmissible_metric(self):
        params = ModelParams(3, 1.0, 2.0)
        with pytest.raises(InvalidParamsError):
            radial_flow(WarpedMetric(params, 1.5), Flux.heat(), odd_sine_data(2.0, 64), 0.1)


    def test_radial_flow_refuses_fast_diffusion_without_eps(self):
        params = ModelParams(3, -1.0, 2.0)
        metric = WarpedMetric(params, default_warp_amplitude(params.kappa))
        with pytest.raises(InvalidParamsError, match="plap:P:EPS"):
            radial_flow(metric, Flux.plaplacian(1.5), odd_sine_data(2.0, 64), 0.01)


class TestRadialFlow:
    def test_constant_data_is_stationary(self):
        params = ModelParams(3, -1.0, 2.0)
        metric = WarpedMetric(params, 1.0)
        u0 = np.full(65, 0.7)
        sol = radial_flow(metric, Flux.heat(), u0, 0.3,
                          StepControls(output_times=[0.1, 0.3]))
        for u in sol.profiles:
            np.testing.assert_array_equal(u, u0)

    def test_eigenprofile_decay_full_interval(self):
        # the first eigenprofile, extended oddly to [-D/2, D/2], has zero
        # Neumann data at both ends and decays as exp(-mu*t)
        params = ModelParams(3, -1.0, 2.0)
        cells = 256
        traj = integrate_phi(params, MU_3_M1_2, cells // 2)
        u0 = np.concatenate([-traj.phi[:0:-1], traj.phi])
        sol = radial_flow(WarpedMetric(params, 1.0), Flux.heat(), u0, 0.5)
        u = sol.profiles[-1]
        exact = math.exp(-MU_3_M1_2 * sol.times[-1]) * u0
        assert np.max(np.abs(u - exact)) / np.max(np.abs(exact)) < 1e-3

    def test_mode_mixture_decays_at_first_eigenvalue(self):
        params = ModelParams(3, -1.0, 2.0)
        cells = 128
        res = first_eigenvalue(params, 1e-7)
        traj = integrate_phi(params, res.bracket_lo, cells // 2)
        base = np.concatenate([-traj.phi[:0:-1], traj.phi])
        base /= np.max(np.abs(base))
        # even Neumann contaminant (second full-interval mode of the flat case)
        s = -params.half_diameter + np.arange(cells + 1) * (params.diameter / cells)
        u0 = base + 0.3 * np.cos(2.0 * math.pi * s / params.diameter)
        t_end = 2 * 3.0 / res.mu
        times = np.linspace(t_end / 40, t_end, 40).tolist()
        sol = radial_flow(WarpedMetric(params, 1.0), Flux.heat(), u0, t_end,
                          StepControls(output_times=times))
        rate = fit_decay(sol.oscillations(), window=0.5)
        assert rate == pytest.approx(res.mu, rel=0.02)

    def test_u0_validation(self):
        params = ModelParams(3, -1.0, 2.0)
        metric = WarpedMetric(params, 1.0)
        with pytest.raises(InvalidParamsError):
            radial_flow(metric, Flux.heat(), np.zeros(64), 0.1)  # even node count
        with pytest.raises(InvalidParamsError):
            radial_flow(metric, Flux.heat(), np.zeros(17), 0.1)  # too coarse


class TestVerifyMoc:
    def test_zero_violations_for_matched_evolution(self):
        times = [0.1, 0.25, 0.4]
        rep = sine_check(3, -1.0, 2.0, Flux.heat(), 64, times)
        assert rep.violations == 0
        assert rep.worst_margin <= rep.tol
        assert rep.antipodal_defect <= rep.tol
        assert rep.times_checked == len(times)

    def test_halved_modulus_is_rejected(self):
        times = [0.1, 0.25]
        sol, phis, tol = matched_evolutions(3, -1.0, 2.0, Flux.heat(), 64, times)
        shrunk = [Profile(grid=p.grid, t=p.t, values=0.5 * p.values) for p in phis]
        rep = verify_moc(sol, shrunk, tol)
        assert rep.violations > 0
        assert rep.worst_margin > tol

    def test_antipodal_defect_shrinks_quadratically(self):
        d64, d128 = (sine_check(3, -1.0, 2.0, Flux.heat(), cells, [0.2, 0.4]).antipodal_defect
                     for cells in (64, 128))
        assert d64 / d128 >= 3.0

    def test_positive_curvature_degenerate_flux_violates(self):
        # with p > 2 the flux coefficient vanishes at the Neumann ends, so the
        # endpoint value stalls while positive-curvature drift pulls the
        # interior down: the two-point bound genuinely fails at fixed h and
        # the checker must report it (margin far above discretization scale)
        rep = sine_check(3, 0.5, 2.0, Flux.plaplacian(3.0, 1e-8), 64, [0.2, 0.4])
        assert rep.violations > 0
        assert rep.worst_margin > 5e-2

    def test_stamp_and_grid_mismatches_rejected(self):
        cells = 64
        sol, phis, _ = matched_evolutions(3, -1.0, 2.0, Flux.heat(), cells, [0.1])
        late = [Profile(grid=p.grid, t=p.t + 0.05, values=p.values) for p in phis]
        with pytest.raises(InvalidParamsError):
            verify_moc(sol, late, 1e-3)
        coarse_grid = Grid1D(1.0, 32)
        coarse = [Profile(grid=coarse_grid, t=p.t, values=p.values[::2]) for p in phis]
        with pytest.raises(InvalidParamsError):
            verify_moc(sol, coarse, 1e-3)
        with pytest.raises(InvalidParamsError):
            verify_moc(sol, [], 1e-3)

    @pytest.mark.parametrize("cells", [64, 256])
    @pytest.mark.parametrize("outputs", [3, 5])
    def test_stacked_check_is_the_per_output_loop(self, cells, outputs):
        # seeded radial data against moduli too small for some of its pairs
        rng = np.random.default_rng(cells + outputs)
        nodes = np.linspace(-1.0, 1.0, cells + 1)
        times = [0.1 * (k + 1) for k in range(outputs)]
        profiles = [np.cumsum(rng.uniform(-0.5, 1.5, cells + 1)) / cells for _ in times]
        grid = Grid1D(1.0, cells)
        phis = []
        for t in times:
            values = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, cells))]) / cells
            phis.append(Profile(grid=grid, t=t, values=values))
        sol = RadialSolution(nodes=nodes, times=times, profiles=profiles)
        for tol in (0.0, 0.5 / cells):
            expected = reference_verify_moc(sol, phis, tol)
            assert 0 < expected.violations < expected.pairs_checked
            assert verify_moc(sol, phis, tol) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_radial_profile_rejected(self, value):
        sol, phis, _ = matched_evolutions(3, -1.0, 2.0, Flux.heat(), 64, [0.1, 0.2])
        sol.profiles[1][5] = value
        with pytest.raises(InvalidParamsError, match="finite"):
            verify_moc(sol, phis, 1e-3)

    def test_radial_profile_of_wrong_length_rejected(self):
        sol, phis, _ = matched_evolutions(3, -1.0, 2.0, Flux.heat(), 64, [0.1, 0.2])
        sol.profiles[1] = sol.profiles[1][:-1]
        with pytest.raises(InvalidParamsError, match="one value per node"):
            verify_moc(sol, phis, 1e-3)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_report_carries_its_tol(self, tol):
        sol, phis, _ = matched_evolutions(3, -1.0, 2.0, Flux.heat(), 64, [0.1])
        assert verify_moc(sol, phis, tol).tol == tol

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN or infinite tol would pass every pair without testing it
        sol, phis, _ = matched_evolutions(3, -1.0, 2.0, Flux.heat(), 64, [0.1])
        with pytest.raises(InvalidParamsError):
            verify_moc(sol, phis, tol)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 50)
        series = [(ti, 3.0 * math.exp(-1.7 * ti)) for ti in t]
        assert fit_decay(series, window=1.0) == pytest.approx(1.7, abs=1e-10)
        assert fit_decay(series, window=0.5) == pytest.approx(1.7, abs=1e-10)

    def test_constant_series(self):
        series = [(0.1 * k, 2.0) for k in range(20)]
        assert fit_decay(series, window=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        good = [(0.1 * k, math.exp(-0.1 * k)) for k in range(20)]
        with pytest.raises(InvalidParamsError):
            fit_decay(good, window=0.0)
        with pytest.raises(InvalidParamsError):
            fit_decay(good, window=1.5)
        with pytest.raises(InvalidParamsError):
            fit_decay(good[:3], window=1.0)
        bad = [(0.1 * k, 1.0 - 0.2 * k) for k in range(10)]
        with pytest.raises(InvalidParamsError):
            fit_decay(bad, window=1.0)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, index, value):
        series = [[0.1 * k, math.exp(-0.1 * k)] for k in range(20)]
        series[-3][index] = value
        with pytest.raises(InvalidParamsError):
            fit_decay([tuple(p) for p in series], window=1.0)


class TestSeededData:
    def test_deterministic_and_odd(self):
        params = ModelParams(2, -1.0, math.pi)
        u_a, mu_a = seeded_odd_initial_data(params, 128, seed=7)
        u_b, mu_b = seeded_odd_initial_data(params, 128, seed=7)
        np.testing.assert_array_equal(u_a, u_b)
        assert mu_a == mu_b
        np.testing.assert_allclose(u_a[::-1], -u_a, atol=1e-15)
        assert np.max(np.abs(u_a)) == pytest.approx(1.0)
        u_c, _ = seeded_odd_initial_data(params, 128, seed=8)
        assert not np.array_equal(u_a, u_c)

    def test_small_diameter_terminates(self):
        # mode 2 sits near 1e8, where adjacent floats are wider than the bisection width
        d = 1.5e-3
        u, mu = seeded_odd_initial_data(ModelParams(3, 0.0, d), 128, seed=0)
        assert mu == pytest.approx(math.pi**2 / d**2, rel=1e-9)
        np.testing.assert_array_equal(u[::-1], -u)
        assert np.max(np.abs(u)) == pytest.approx(1.0)

    def test_validation(self):
        params = ModelParams(2, -1.0, math.pi)
        with pytest.raises(InvalidParamsError):
            seeded_odd_initial_data(params, 127, seed=0)
        with pytest.raises(InvalidParamsError):
            seeded_odd_initial_data(params, 32, seed=0)
        with pytest.raises(InvalidParamsError, match="seed"):
            seeded_odd_initial_data(params, 128, seed=-1)
