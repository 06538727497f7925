import math

import numpy as np
import pytest

from specgap import (
    CFLViolationError,
    DegenerateFluxError,
    Flux,
    Grid1D,
    InvalidParamsError,
    ModelParams,
    Profile,
    StepControls,
    evolve,
    flux_eval,
    integrate_phi,
)

MU_3_M1_2 = 1.682043320038555  # independent closed-form value, see test_sturm


def sine_profile(diameter: float, m: int) -> Profile:
    grid = Grid1D(diameter / 2.0, m)
    return Profile(grid=grid, t=0.0, values=np.sin(grid.nodes))


class TestFluxEval:
    def test_heat_is_identity_pair(self):
        assert flux_eval(Flux.heat(), 17.0) == (1.0, 1.0)
        assert flux_eval(Flux.heat(), 0.0) == (1.0, 1.0)

    def test_plaplacian_values(self):
        assert flux_eval(Flux.plaplacian(3.0, 0.0), 2.0) == (4.0, 2.0)
        assert flux_eval(Flux.plaplacian(3.0, 0.0), 0.0) == (0.0, 0.0)

    def test_plaplacian_with_regularization(self):
        alpha, beta = flux_eval(Flux.plaplacian(3.0, 0.5), 0.0)
        assert beta == pytest.approx(0.5)
        assert alpha == pytest.approx(1.0)

    def test_p2_is_heat_pair_even_at_zero_gradient(self):
        assert flux_eval(Flux.plaplacian(2.0, 0.0), 0.0) == (1.0, 1.0)
        assert flux_eval(Flux.plaplacian(2.0, 0.0), 3.0) == (1.0, 1.0)

    def test_p2_is_canonicalized_to_heat(self):
        assert Flux.plaplacian(2.0, 0.5).is_heat
        assert Flux.plaplacian(2.0) == Flux.heat()
        with pytest.raises(InvalidParamsError):
            Flux.plaplacian(2.0, -1.0)

    def test_degenerate_fast_diffusion(self):
        with pytest.raises(DegenerateFluxError):
            flux_eval(Flux.plaplacian(1.5, 0.0), 0.0)

    def test_flux_validation(self):
        with pytest.raises(InvalidParamsError):
            Flux.plaplacian(1.0)
        with pytest.raises(InvalidParamsError):
            Flux.plaplacian(3.0, -1.0)
        with pytest.raises(InvalidParamsError):
            Flux(kind="advection")


class TestGridProfile:
    def test_grid_spacing(self):
        g = Grid1D(1.5, 48)
        assert g.h * g.m == pytest.approx(1.5, rel=1e-15)
        assert len(g.nodes) == 49

    def test_grid_too_coarse(self):
        with pytest.raises(InvalidParamsError):
            Grid1D(1.0, 8)

    def test_profile_requires_zero_pivot(self):
        g = Grid1D(1.0, 16)
        with pytest.raises(InvalidParamsError):
            Profile(grid=g, t=0.0, values=np.ones(17))
        with pytest.raises(InvalidParamsError):
            Profile(grid=g, t=0.0, values=np.zeros(5))


class TestEvolveHeat:
    def test_separable_sine_decay(self):
        # phi_t = phi'' with phi0 = sin on [0, pi/2]: phi = exp(-t) sin
        params = ModelParams(2, 0.0, math.pi)
        phi0 = sine_profile(math.pi, 256)
        (out,) = evolve(Flux.heat(), params, phi0, t_end=1.0)
        exact = math.exp(-out.t) * phi0.values
        assert np.max(np.abs(out.values - exact)) < 5e-4
        assert abs(out.t - 1.0) < 1e-4

    def test_eigenprofile_decay_with_matching_boundary_data(self):
        # shooting solution at sigma < mu decays in place when the evolution
        # carries the separable solution's own Neumann data
        params = ModelParams(3, -1.0, 2.0)
        sigma = 0.9 * MU_3_M1_2
        traj = integrate_phi(params, sigma, 256)
        grid = Grid1D(1.0, 256)
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        slope_end = traj.dphi[-1]
        controls = StepControls(right_flux=lambda t: slope_end * math.exp(-sigma * t))
        (out,) = evolve(Flux.heat(), params, phi0, t_end=0.5, controls=controls)
        exact = np.exp(-sigma * out.t) * traj.phi
        rel = np.max(np.abs(out.values - exact)) / np.max(np.abs(exact))
        assert rel < 1e-3

    def test_zero_initial_data_is_fixed_point(self):
        params = ModelParams(2, -0.3, 2.0)
        grid = Grid1D(1.0, 32)
        phi0 = Profile(grid=grid, t=0.0, values=np.zeros(33))
        out = evolve(Flux.heat(), params, phi0, t_end=0.2,
                     controls=StepControls(output_times=[0.1, 0.2]))
        for prof in out:
            assert np.all(prof.values == 0.0)

    def test_output_snapping_and_initial_time(self):
        params = ModelParams(2, 0.0, math.pi)
        phi0 = sine_profile(math.pi, 64)
        controls = StepControls(output_times=[0.0, 0.05, 0.1])
        out = evolve(Flux.heat(), params, phi0, t_end=0.1, controls=controls)
        assert out[0].t == 0.0
        assert np.array_equal(out[0].values, phi0.values)
        dt = 0.4 * phi0.grid.h**2
        assert abs(out[1].t - 0.05) <= dt / 2 * (1 + 1e-12)
        assert abs(out[2].t - 0.1) <= dt / 2 * (1 + 1e-12)
        assert out[1].t < out[2].t

    def test_sup_norm_non_expansion(self):
        params = ModelParams(3, 0.25, 3.0)
        phi0 = sine_profile(3.0, 64)
        times = np.linspace(0.05, 0.8, 8).tolist()
        out = evolve(Flux.heat(), params, phi0, t_end=0.8,
                     controls=StepControls(output_times=times))
        sups = [np.max(np.abs(phi0.values))] + [np.max(np.abs(p.values)) for p in out]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(sups[:-1], sups[1:]))

    def test_comparison_principle(self):
        params = ModelParams(2, -1.0, math.pi)
        grid = Grid1D(math.pi / 2, 64)
        lo = Profile(grid=grid, t=0.0, values=0.5 * np.sin(grid.nodes))
        hi = Profile(grid=grid, t=0.0, values=np.sin(grid.nodes))
        times = [0.1, 0.3, 0.6]
        ctrl = StepControls(output_times=times)
        out_lo = evolve(Flux.heat(), params, lo, t_end=0.6, controls=ctrl)
        out_hi = evolve(Flux.heat(), params, hi, t_end=0.6, controls=ctrl)
        for a, b in zip(out_lo, out_hi):
            assert a.t == b.t
            assert np.all(a.values <= b.values + 1e-14)


class TestEvolvePLaplacian:
    def test_p2_unregularized_matches_heat_bitwise(self):
        params = ModelParams(3, -0.5, 2.0)
        phi0 = sine_profile(2.0, 48)
        times = [0.02, 0.07]
        ctrl = StepControls(output_times=times)
        out_heat = evolve(Flux.heat(), params, phi0, t_end=0.07, controls=ctrl)
        out_p2 = evolve(Flux.plaplacian(2.0, 0.0), params, phi0, t_end=0.07, controls=ctrl)
        for a, b in zip(out_heat, out_p2):
            assert a.t == b.t
            assert np.array_equal(a.values, b.values)

    def test_monotonicity_preserved(self):
        params = ModelParams(3, 0.5, 2.0)
        phi0 = sine_profile(2.0, 64)
        out = evolve(Flux.plaplacian(3.0, 1e-8), params, phi0, t_end=0.3,
                     controls=StepControls(output_times=[0.1, 0.3]))
        for prof in out:
            assert prof.is_nondecreasing(1e-10 * phi0.osc())

    def test_ordered_initial_data_stays_ordered(self):
        params = ModelParams(3, 0.0, 2.0)
        grid = Grid1D(1.0, 48)
        lo = Profile(grid=grid, t=0.0, values=0.6 * np.sin(0.5 * math.pi * grid.nodes))
        hi = Profile(grid=grid, t=0.0, values=np.sin(0.5 * math.pi * grid.nodes))
        dt = 0.2 * grid.h**2 / 2.0  # below both stability bounds
        ctrl = StepControls(output_times=[0.05, 0.15], fixed_dt=dt)
        out_lo = evolve(Flux.plaplacian(3.0, 1e-8), params, lo, t_end=0.15, controls=ctrl)
        out_hi = evolve(Flux.plaplacian(3.0, 1e-8), params, hi, t_end=0.15, controls=ctrl)
        for a, b in zip(out_lo, out_hi):
            assert a.t == b.t
            assert np.all(a.values <= b.values + 1e-14)

    def test_degenerate_fast_diffusion_blows_cfl(self):
        params = ModelParams(2, 0.0, 2.0)
        phi0 = sine_profile(2.0, 32)  # zero gradient at the Neumann end
        with pytest.raises(CFLViolationError):
            evolve(Flux.plaplacian(1.5, 0.0), params, phi0, t_end=0.1)

    def test_fully_degenerate_data_is_stationary(self):
        # p > 2 with zero data: alpha vanishes identically, nothing moves
        params = ModelParams(2, 0.0, 2.0)
        grid = Grid1D(1.0, 32)
        phi0 = Profile(grid=grid, t=0.0, values=np.zeros(33))
        (out,) = evolve(Flux.plaplacian(3.0, 0.0), params, phi0, t_end=0.5)
        assert np.all(out.values == 0.0)
        assert out.t == 0.5

    def test_plateau_initial_data_accepted(self):
        # zero gradient on an open subinterval is fine under auto-regularization
        params = ModelParams(3, -0.5, 2.0)
        grid = Grid1D(1.0, 64)
        phi0 = Profile(grid=grid, t=0.0, values=np.minimum(grid.nodes, 0.5))
        (out,) = evolve(Flux.plaplacian(3.0, None), params, phi0, t_end=0.05)
        assert out.is_nondecreasing(1e-10 * phi0.osc())
        assert np.max(out.values) <= 0.5 + 1e-12


class TestEvolveValidation:
    def test_rejects_decreasing_initial_profile(self):
        params = ModelParams(2, 0.0, math.pi)
        grid = Grid1D(math.pi / 2, 32)
        vals = np.sin(2.0 * grid.nodes)  # rises then falls
        with pytest.raises(InvalidParamsError):
            evolve(Flux.heat(), params, Profile(grid=grid, t=0.0, values=vals), 0.1)

    def test_rejects_grid_parameter_mismatch(self):
        params = ModelParams(2, 0.0, 2.0)
        phi0 = sine_profile(math.pi, 32)
        with pytest.raises(InvalidParamsError):
            evolve(Flux.heat(), params, phi0, 0.1)

    def test_rejects_bad_times(self):
        params = ModelParams(2, 0.0, math.pi)
        phi0 = sine_profile(math.pi, 32)
        with pytest.raises(InvalidParamsError):
            evolve(Flux.heat(), params, phi0, -1.0)
        with pytest.raises(InvalidParamsError):
            evolve(Flux.heat(), params, phi0, 0.1,
                   controls=StepControls(output_times=[0.2]))
        with pytest.raises(InvalidParamsError):
            evolve(Flux.heat(), params, phi0, 0.1,
                   controls=StepControls(output_times=[0.08, 0.02]))

    def test_controls_validation(self):
        with pytest.raises(InvalidParamsError):
            StepControls(cfl=0.0)
        with pytest.raises(InvalidParamsError):
            StepControls(cfl=0.7)
        with pytest.raises(InvalidParamsError):
            StepControls(fixed_dt=0.0)
