import dataclasses
import math
import re
from collections import deque

import numpy as np
import pytest

import specgap.moc_pde
from specgap import (
    CFLViolationError,
    DegenerateFluxError,
    Flux,
    Grid1D,
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
    Profile,
    StepControls,
    WarpedMetric,
    evolve,
    flux_eval,
    integrate_phi,
    radial_flow,
)
from specgap.specialfn import tk_array

MU_3_M1_2 = 1.682043320038555  # independent closed-form value, see test_sturm
# the power's exponent (p-2)/2 is 0.5 (a square root), -0.25 and 1.0
FLUXES = [Flux.plaplacian(3.0), Flux.plaplacian(3.0, 1e-3), Flux.plaplacian(1.5, 0.1),
          Flux.plaplacian(4.0, 1e-3)]
FLUX_IDS = ["plap:3", "plap:3:1e-3", "plap:1.5:0.1", "plap:4:1e-3"]


def reference_march(flux, diameter, u0, h, nm1_tk, t_end, controls, odd_pivot, left_flux=None):
    """The explicit scheme one step at a time in difference form, with snapped outputs.

    ``left_flux`` forces the left end of a full interval, which the stepper
    itself reaches only by mirroring the interval.

    With the cell differences g of the ghost-extended state, one step adds
    (P*g[1:] - Q*g[:-1])*mp, where P = A - B, Q = A + B, A = (p-1)/h^2 and
    B = nm1_tk/(2h), and dt multiplies P and Q when it is known up front
    (heat, or a fixed dt) and the product otherwise.  Heat uses mp = 1; the
    p-Laplacian uses mp = (q^2 + eps^2)^((p-2)/2) with the centered
    q = (u[i+1] - u[i-1])/(2h), and eps = 1e-8 * osc(u0) / diameter when the
    flux leaves it unset.  dt = cfl*h^2/max(alpha), alpha = (p-1)*mp, unless
    it is fixed.  Step k is stamped k*dt when dt is known up front and at the
    sum of its steps otherwise.  This is ``textbook_march`` with its
    arithmetic regrouped.
    """
    targets = list(controls.output_times) if controls.output_times is not None else [t_end]
    gl = left_flux or (lambda _t: 0.0)
    gr = controls.right_flux or (lambda _t: 0.0)
    A, B = (flux.p - 1.0) / (h * h), nm1_tk / (2.0 * h)
    P, Q = A - B, A + B
    known_dt = flux.is_heat or controls.fixed_dt is not None
    if known_dt:
        dt = controls.fixed_dt if controls.fixed_dt is not None else controls.cfl * h * h
        P, Q = P * dt, Q * dt
    if not flux.is_heat:
        eps = flux.epsilon
        if eps is None:
            eps = 1e-8 * float(np.max(u0) - np.min(u0)) / diameter
    pending = deque(targets)
    outputs = []
    u = np.array(u0, dtype=float)
    while pending and pending[0] <= 0.0:
        pending.popleft()
        outputs.append((0.0, u.copy()))
    t, k = 0.0, 0
    while pending:
        ue = np.concatenate([[-u[1] if odd_pivot else u[1] - 2.0 * h * gl(t)], u,
                             [u[-2] + 2.0 * h * gr(t)]])
        g = ue[1:] - ue[:-1]
        lin = P * g[1:] - Q * g[:-1]
        if not flux.is_heat:
            q = (ue[2:] - ue[:-2]) * (1.0 / (2.0 * h))
            mp = (q * q + eps * eps) ** (0.5 * (flux.p - 2.0))
            lin = lin * mp
            if not known_dt:
                dt = controls.cfl * h * h / ((flux.p - 1.0) * float(np.max(mp)))
                lin = lin * dt
        t_new = (k + 1) * dt if known_dt else t + dt
        u_new = u + lin
        if odd_pivot:
            u_new[0] = 0.0
        while pending and t_new >= pending[0]:
            target = pending.popleft()
            if abs(t - target) <= abs(t_new - target):
                outputs.append((t, u.copy()))
            else:
                outputs.append((t_new, u_new.copy()))
        u, t, k = u_new, t_new, k + 1
    return outputs


def textbook_march(flux, diameter, u0, h, nm1_tk, t_end, controls, odd_pivot, left_flux=None):
    """The explicit scheme one step at a time in its textbook form, with snapped outputs.

    One step is u + dt*(alpha*lap - nm1_tk*(mp*q)) with the centered
    q = (u[i+1] - u[i-1])/(2h) and lap = (u[i+1] - 2u[i] + u[i-1])/h^2.

    ``left_flux`` forces the left end of a full interval, which the stepper
    itself reaches only by mirroring the interval.

    Heat uses alpha = mp = 1; the p-Laplacian uses mp = (q^2 + eps^2)^((p-2)/2)
    and alpha = (p-1)*mp, with eps = 1e-8 * osc(u0) / diameter when the flux
    leaves it unset.  dt = cfl*h^2/max(alpha) unless it is fixed.
    """
    targets = list(controls.output_times) if controls.output_times is not None else [t_end]
    gl = left_flux or (lambda _t: 0.0)
    gr = controls.right_flux or (lambda _t: 0.0)
    if not flux.is_heat:
        eps = flux.epsilon
        if eps is None:
            eps = 1e-8 * float(np.max(u0) - np.min(u0)) / diameter
    pending = deque(targets)
    outputs = []
    u = np.array(u0, dtype=float)
    while pending and pending[0] <= 0.0:
        pending.popleft()
        outputs.append((0.0, u.copy()))
    t, k = 0.0, 0
    while pending:
        ue = np.concatenate([[-u[1] if odd_pivot else u[1] - 2.0 * h * gl(t)], u,
                             [u[-2] + 2.0 * h * gr(t)]])
        q = (ue[2:] - ue[:-2]) * (1.0 / (2.0 * h))
        lap = (ue[2:] - 2.0 * u + ue[:-2]) * (1.0 / (h * h))
        if flux.is_heat:
            alpha = mp = 1.0
        else:
            mp = (q * q + eps * eps) ** (0.5 * (flux.p - 2.0))
            alpha = (flux.p - 1.0) * mp
        if controls.fixed_dt is not None:
            dt = controls.fixed_dt
            t_new = (k + 1) * dt
        else:
            dt = controls.cfl * h * h / float(np.max(alpha))
            t_new = t + dt
        u_new = u + dt * (alpha * lap - nm1_tk * (mp * q))
        if odd_pivot:
            u_new[0] = 0.0
        while pending and t_new >= pending[0]:
            target = pending.popleft()
            if abs(t - target) <= abs(t_new - target):
                outputs.append((t, u.copy()))
            else:
                outputs.append((t_new, u_new.copy()))
        u, t, k = u_new, t_new, k + 1
    return outputs


def heat_weights(h, nm1_tk, dt):
    """The heat step's weights (ahead, behind) = (A - B, A + B)*dt, as ``_march`` forms them."""
    diffusion, drift = 1.0 / (h * h), nm1_tk / (2.0 * h)
    return (diffusion - drift) * dt, (diffusion + drift) * dt


def reference_block_increment(band, steps):
    """M^steps - I in band storage by the row-major recurrence P -> M P."""
    rows = len(band)
    width = 2 * steps + 1
    padded = np.zeros((rows + 2, width + 2))
    padded[1:-1, steps : steps + 3] = band
    power = np.empty((rows, width))
    term = np.empty((rows, width))
    for _ in range(steps - 1):
        np.multiply(band[:, :1], padded[:-2, 2:], out=power)
        power += np.multiply(band[:, 1:2], padded[1:-1, 1:-1], out=term)
        power += np.multiply(band[:, 2:], padded[2:, :-2], out=term)
        padded[1:-1, 1:-1] = power
    power[:, steps] = 0.0
    power[:, steps] = -power.sum(axis=1)
    return power


def reference_forcing_responses(band, weight, increment):
    """Write the responses to right-end Neumann data into ``increment``'s columns beyond the grid.

    Data g_j at step j < steps enters the last row as weight*g_j, and the
    remaining steps - 1 - j steps carry it on as the column
    M^(steps-1-j) (weight e_end), which reaches the last steps - j rows.  Row
    m - r (m the last row) sees entry j of the right pad at band column
    steps + r + 1 + j, for exactly the j <= steps - 1 - r whose response
    reaches it.
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
            Flux.plaplacian(1.5, math.inf)


class TestGridProfile:
    def test_grid_spacing(self):
        g = Grid1D(1.5, 48)
        assert g.h * g.m == pytest.approx(1.5, rel=1e-15)
        assert len(g.nodes) == 49

    def test_grid_too_coarse(self):
        with pytest.raises(InvalidParamsError):
            Grid1D(1.0, 8)

    @pytest.mark.parametrize("half_diameter", [math.inf, math.nan, 0.0])
    def test_grid_refusal_names_both_conditions(self, half_diameter):
        with pytest.raises(InvalidParamsError, match="half_diameter must be positive and finite"):
            Grid1D(half_diameter, 32)

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


class TestHeatBlockMarch:
    """The banded block march against the per-step reference loop."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    SIGMA = 0.9 * MU_3_M1_2

    @staticmethod
    def output_times(dt):
        # t = 0 twice, a duplicate, two outputs on consecutive steps, and gaps
        # spanning many 64-step blocks
        k = int(0.05 / dt)
        return [0.0, 0.0, 0.01, 0.01, k * dt, (k + 1) * dt, 0.1, 0.25]

    @staticmethod
    def neumann_data(slope, sigma):
        return lambda t: slope * math.exp(-sigma * t)

    def check_against_reference(self, got_times, got_values, u0, h, nm1_tk, controls, pivot,
                                left_flux=None):
        ref = reference_march(Flux.heat(), self.PARAMS.diameter, u0, h, nm1_tk, 0.25,
                              controls, pivot, left_flux)
        assert got_times == [t for t, _ in ref]
        scale = np.max(np.abs(u0))
        for values, (_, ref_values) in zip(got_values, ref):
            assert np.max(np.abs(values - ref_values)) <= 1e-12 * scale

    @pytest.mark.parametrize("cells", [16, 200])
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forced", [False, True])
    def test_evolve_matches_per_step_loop(self, cells, fixed, forced):
        traj = integrate_phi(self.PARAMS, self.SIGMA, cells)
        grid = Grid1D(self.PARAMS.half_diameter, cells)
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        dt = (0.3 if fixed else 0.4) * grid.h**2
        controls = StepControls(
            output_times=self.output_times(dt),
            fixed_dt=dt if fixed else None,
            right_flux=self.neumann_data(traj.dphi[-1], self.SIGMA) if forced else None,
        )
        out = evolve(Flux.heat(), self.PARAMS, phi0, 0.25, controls)
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, grid.nodes)
        self.check_against_reference([p.t for p in out], [p.values for p in out],
                                     phi0.values, grid.h, nm1_tk, controls, True)

    @pytest.mark.parametrize("cells", [64, 200])
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forcing", ["none", "left", "right"])
    def test_radial_flow_matches_per_step_loop(self, cells, fixed, forcing):
        # "left" forces the left end by mirroring the interval: tk is odd, so
        # data g at -D/2 is data -g at D/2 for the reflected profile
        half = integrate_phi(self.PARAMS, self.SIGMA, cells // 2)
        u0 = np.concatenate([-half.phi[:0:-1], half.phi])
        g = self.neumann_data(half.dphi[-1], self.SIGMA)
        h = self.PARAMS.diameter / cells
        dt = (0.3 if fixed else 0.4) * h * h
        controls = StepControls(
            output_times=self.output_times(dt),
            fixed_dt=dt if fixed else None,
            right_flux=g if forcing == "right" else None,
        )
        metric = WarpedMetric(self.PARAMS, 1.0)
        if forcing == "left":
            mirrored = dataclasses.replace(controls, right_flux=lambda t: -g(t))
            sol = radial_flow(metric, Flux.heat(), u0[::-1].copy(), 0.25, mirrored)
            profiles = [u[::-1] for u in sol.profiles]
        else:
            sol = radial_flow(metric, Flux.heat(), u0, 0.25, controls)
            profiles = sol.profiles
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, sol.nodes)
        self.check_against_reference(sol.times, profiles, u0, h, nm1_tk, controls, False,
                                     g if forcing == "left" else None)

    def test_criterion_08_grid_matches_per_step_loop(self):
        # criterion 08's 512 cells and right-end forcing, over about 100 blocks
        traj = integrate_phi(self.PARAMS, self.SIGMA, 512)
        grid = Grid1D(self.PARAMS.half_diameter, 512)
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        controls = StepControls(output_times=[0.004, 0.01],
                                right_flux=self.neumann_data(traj.dphi[-1], self.SIGMA))
        out = evolve(Flux.heat(), self.PARAMS, phi0, 0.01, controls)
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, grid.nodes)
        self.check_against_reference([p.t for p in out], [p.values for p in out],
                                     phi0.values, grid.h, nm1_tk, controls, True)

    # 16 cells give fewer rows than a block has steps, so the responses there
    # reach the first row and the band columns beyond the grid from every row
    @pytest.mark.parametrize("cells", [16, 200, 512])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_zero_neumann_data_is_bitwise_no_data(self, cells, fixed):
        traj = integrate_phi(self.PARAMS, self.SIGMA, cells)
        grid = Grid1D(self.PARAMS.half_diameter, cells)
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        dt = 0.3 * grid.h**2
        controls = StepControls(output_times=self.output_times(dt),
                                fixed_dt=dt if fixed else None)
        zero = dataclasses.replace(controls, right_flux=lambda _t: 0.0)
        free = evolve(Flux.heat(), self.PARAMS, phi0, 0.25, controls)
        forced = evolve(Flux.heat(), self.PARAMS, phi0, 0.25, zero)
        assert [p.t for p in forced] == [p.t for p in free]
        for a, b in zip(forced, free):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_zero_neumann_data_is_bitwise_no_data_on_radial_flow(self, fixed):
        half = integrate_phi(self.PARAMS, self.SIGMA, 32)
        u0 = np.concatenate([-half.phi[:0:-1], half.phi])
        dt = 0.3 * (self.PARAMS.diameter / 64) ** 2
        controls = StepControls(output_times=self.output_times(dt),
                                fixed_dt=dt if fixed else None)
        zero = dataclasses.replace(controls, right_flux=lambda _t: 0.0)
        metric = WarpedMetric(self.PARAMS, 1.0)
        free = radial_flow(metric, Flux.heat(), u0, 0.25, controls)
        forced = radial_flow(metric, Flux.heat(), u0, 0.25, zero)
        assert forced.times == free.times
        for a, b in zip(forced.profiles, free.profiles):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rows", [17, 65, 257, 513])
    @pytest.mark.parametrize("pivot", [True, False])
    def test_block_increment_is_the_row_major_power(self, rows, pivot):
        for kappa in (-1.0, 0.0, 0.5):
            params = ModelParams(3, kappa, 2.0)
            if pivot:
                h = params.half_diameter / (rows - 1)
                nodes = np.arange(rows) * h
            else:
                h = params.diameter / (rows - 1)
                nodes = -params.half_diameter + np.arange(rows) * h
            nm1_tk = (params.n - 1) * tk_array(kappa, nodes)
            band = specgap.moc_pde._heat_step_band(*heat_weights(h, nm1_tk, 0.4 * h * h), pivot)
            for steps in (2, 3, 64):
                assert np.array_equal(specgap.moc_pde._block_increment(band, steps),
                                      reference_block_increment(band, steps))

    # 17 rows are fewer than a block has steps: every row reaches beyond the grid
    @pytest.mark.parametrize("rows", [17, 65, 513])
    @pytest.mark.parametrize("pivot", [True, False])
    def test_neumann_register_gives_the_forcing_responses(self, rows, pivot):
        steps = 64
        beyond = np.add.outer(np.arange(rows), np.arange(2 * steps + 1)) >= rows + steps
        for kappa in (-1.0, 0.0, 0.5):
            params = ModelParams(3, kappa, 2.0)
            if pivot:
                h = params.half_diameter / (rows - 1)
                nodes = np.arange(rows) * h
            else:
                h = params.diameter / (rows - 1)
                nodes = -params.half_diameter + np.arange(rows) * h
            nm1_tk = (params.n - 1) * tk_array(kappa, nodes)
            ahead, behind = heat_weights(h, nm1_tk, 0.4 * h * h)
            weight = 2.0 * h * ahead[-1]
            band = specgap.moc_pde._heat_step_band(ahead, behind, pivot)
            unforced = specgap.moc_pde._block_increment(band, steps)
            forced = specgap.moc_pde._block_increment(
                specgap.moc_pde._with_register(band, weight, steps), steps, rows)
            responses = unforced.copy()
            reference_forcing_responses(band, weight, responses)
            assert forced.shape == unforced.shape
            assert np.array_equal(forced[~beyond], unforced[~beyond])
            assert np.array_equal(forced[beyond], responses[beyond])
            assert np.count_nonzero(responses[beyond]) > 0

    def test_fixed_dt_above_the_bound_raises(self):
        phi0 = sine_profile(2.0, 32)
        controls = StepControls(fixed_dt=0.41 * phi0.grid.h**2)
        with pytest.raises(CFLViolationError):
            evolve(Flux.heat(), ModelParams(2, 0.0, 2.0), phi0, 0.1, controls)


class TestPLaplacianMarch:
    """The p-Laplacian march against the per-step reference loop, bitwise."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    SIGMA = 0.9 * MU_3_M1_2
    T_END = 0.05
    TIMES = [0.0, 0.01, 0.01, 0.03, 0.05]

    def controls(self, flux, u0, h, slope, fixed, forcing):
        g = lambda t: slope * math.exp(-self.SIGMA * t)
        alpha0 = max(flux_eval(flux, float(q))[0] for q in np.gradient(u0, h))
        return StepControls(
            output_times=self.TIMES,
            fixed_dt=0.2 * h * h / alpha0 if fixed else None,
            right_flux=g if forcing == "right" else None,
        )

    @staticmethod
    def assert_bitwise(got_times, got_values, ref):
        assert got_times == [t for t, _ in ref]
        for values, (_, ref_values) in zip(got_values, ref):
            assert np.array_equal(values, ref_values)

    @pytest.mark.parametrize("flux", FLUXES, ids=FLUX_IDS)
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forcing", ["none", "right"])
    def test_evolve_matches_per_step_loop(self, flux, fixed, forcing):
        traj = integrate_phi(self.PARAMS, self.SIGMA, 32)
        grid = Grid1D(self.PARAMS.half_diameter, 32)
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        controls = self.controls(flux, traj.phi, grid.h, traj.dphi[-1], fixed, forcing)
        out = evolve(flux, self.PARAMS, phi0, self.T_END, controls)
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, grid.nodes)
        ref = reference_march(flux, self.PARAMS.diameter, traj.phi, grid.h, nm1_tk,
                              self.T_END, controls, True)
        self.assert_bitwise([p.t for p in out], [p.values for p in out], ref)

    @pytest.mark.parametrize("flux", FLUXES, ids=FLUX_IDS)
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forcing", ["none", "right"])
    def test_radial_flow_matches_per_step_loop(self, flux, fixed, forcing):
        half = integrate_phi(self.PARAMS, self.SIGMA, 32)
        u0 = np.concatenate([-half.phi[:0:-1], half.phi])
        h = self.PARAMS.diameter / 64
        controls = self.controls(flux, u0, h, half.dphi[-1], fixed, forcing)
        sol = radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, u0, self.T_END, controls)
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, sol.nodes)
        ref = reference_march(flux, self.PARAMS.diameter, u0, h, nm1_tk, self.T_END,
                              controls, False)
        self.assert_bitwise(sol.times, sol.profiles, ref)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_128_cells_match_per_step_loop(self, fixed, route):
        # the cell count of the refined benchmark case; about 2000 steps at
        # the fixed dt and 1000 adaptive ones
        flux = Flux.plaplacian(3.0)
        cells = 128
        if route == "evolve":
            t_end = 0.0125
            traj = integrate_phi(self.PARAMS, self.SIGMA, cells)
            u0, slope = traj.phi, traj.dphi[-1]
            grid = Grid1D(self.PARAMS.half_diameter, cells)
            h, nodes = grid.h, grid.nodes
        else:
            t_end = 0.05
            half = integrate_phi(self.PARAMS, self.SIGMA, cells // 2)
            u0, slope = np.concatenate([-half.phi[:0:-1], half.phi]), half.dphi[-1]
            h = self.PARAMS.diameter / cells
            nodes = -self.PARAMS.half_diameter + np.arange(cells + 1) * h
        dt = self.controls(flux, u0, h, slope, fixed, "none").fixed_dt
        controls = StepControls(output_times=[0.0, 0.2 * t_end, 0.2 * t_end, 0.6 * t_end, t_end],
                                fixed_dt=dt)
        if route == "evolve":
            phi0 = Profile(grid=grid, t=0.0, values=u0)
            out = evolve(flux, self.PARAMS, phi0, t_end, controls)
            got_times, got_values = [p.t for p in out], [p.values for p in out]
        else:
            sol = radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, u0, t_end, controls)
            got_times, got_values = sol.times, sol.profiles
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, nodes)
        ref = reference_march(flux, self.PARAMS.diameter, u0, h, nm1_tk, t_end, controls,
                              route == "evolve")
        self.assert_bitwise(got_times, got_values, ref)

    @staticmethod
    def assert_textbook(got, u0, ref, fixed):
        # a fixed dt stamps step k at k*dt; an adaptive dt follows max alpha,
        # which moves with the state's roundoff
        stamps, ref_stamps = [t for t, _ in got], [t for t, _ in ref]
        assert stamps == (ref_stamps if fixed else pytest.approx(ref_stamps, rel=1e-12, abs=0))
        osc = np.max(u0) - np.min(u0)
        for (_, values), (_, ref_values) in zip(got, ref):
            assert np.max(np.abs(values - ref_values)) <= 1e-12 * osc

    @pytest.mark.parametrize("flux", FLUXES, ids=FLUX_IDS)
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forcing", ["none", "right"])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_difference_form_is_the_textbook_step(self, flux, fixed, forcing, route):
        # the step regroups the textbook arithmetic: values to roundoff
        if route == "evolve":
            traj = integrate_phi(self.PARAMS, self.SIGMA, 32)
            u0, slope = traj.phi, traj.dphi[-1]
            h = self.PARAMS.half_diameter / 32
            nodes = np.arange(33) * h
        else:
            half = integrate_phi(self.PARAMS, self.SIGMA, 32)
            u0, slope = np.concatenate([-half.phi[:0:-1], half.phi]), half.dphi[-1]
            h = self.PARAMS.diameter / 64
            nodes = -self.PARAMS.half_diameter + np.arange(65) * h
        controls = self.controls(flux, u0, h, slope, fixed, forcing)
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, nodes)
        got = specgap.moc_pde._march(u0, h, nm1_tk, flux, self.PARAMS.diameter, self.T_END,
                                     controls, route == "evolve")
        ref = textbook_march(flux, self.PARAMS.diameter, u0, h, nm1_tk, self.T_END, controls,
                             route == "evolve")
        self.assert_textbook(got, u0, ref, fixed)

    @pytest.mark.parametrize("cells", [64, 1024])
    def test_p_250_keeps_the_gradient_on_its_physical_scale(self, cells):
        # (2h)^(2-p) overflows a double here, so the step may not fold it
        # into its weights; three adaptive steps on 64 cells, about 600 on 1024
        flux = Flux.plaplacian(250.0)
        grid = Grid1D(self.PARAMS.half_diameter, cells)
        u0 = 0.6 * np.sin(grid.nodes)
        t_end = 1e49
        controls = StepControls(output_times=[t_end / 3, t_end])
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, grid.nodes)
        got = specgap.moc_pde._march(u0, grid.h, nm1_tk, flux, self.PARAMS.diameter, t_end,
                                     controls, True)
        ref = textbook_march(flux, self.PARAMS.diameter, u0, grid.h, nm1_tk, t_end, controls,
                             True)
        assert got[0][0] > 0.0 and not np.array_equal(got[-1][1], u0)
        self.assert_textbook(got, u0, ref, False)


class TestPreStepSnapshot:
    """Outputs that snap back to the state before their step, against the per-step loop."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    SIGMA = 0.9 * MU_3_M1_2
    # (k, f): the target t_k + f*(t_(k+1) - t_k), reached by step k + 1.  f = 0.3
    # snaps back to t_k, the state before that step, and f = 0.7 on to t_(k+1).
    # Steps 6 to 10 each reach an output, step 6 a duplicate before it and one
    # after it; every gap is under one heat block, so heat steps singly.
    OFFSETS = [(5, 0.3), (5, 0.3), (5, 0.7), (6, 0.7), (7, 0.3), (8, 0.3), (9, 0.7), (40, 0.3)]
    LAST = 60

    def step_times(self, flux, u0, h, nm1_tk, controls, pivot, dt0):
        """t_0 .. t_LAST of the per-step loop: targets dt0/8 apart snap to every step."""
        dense = dataclasses.replace(controls, output_times=dt0 / 8.0 * np.arange(16 * self.LAST))
        ref = reference_march(flux, self.PARAMS.diameter, u0, h, nm1_tk, None, dense, pivot)
        times = sorted({t for t, _ in ref})
        assert len(times) > self.LAST
        return times[: self.LAST + 1]

    @pytest.mark.parametrize("flux", [Flux.heat(), Flux.plaplacian(3.0), Flux.plaplacian(1.5, 0.1)],
                             ids=["heat", "plap:3", "plap:1.5:0.1"])
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_snapped_outputs_match_per_step_loop(self, flux, fixed, route):
        if route == "evolve":
            traj = integrate_phi(self.PARAMS, self.SIGMA, 32)
            u0 = traj.phi
            grid = Grid1D(self.PARAMS.half_diameter, 32)
            h, nodes = grid.h, grid.nodes
        else:
            half = integrate_phi(self.PARAMS, self.SIGMA, 32)
            u0 = np.concatenate([-half.phi[:0:-1], half.phi])
            h = self.PARAMS.diameter / 64
            nodes = -self.PARAMS.half_diameter + np.arange(65) * h
        nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, nodes)
        alpha0 = max(flux_eval(flux, float(q))[0] for q in np.gradient(u0, h))
        base = StepControls(fixed_dt=0.2 * h * h / alpha0 if fixed else None)
        dt0 = base.fixed_dt or base.cfl * h * h / alpha0  # about the first step
        t = self.step_times(flux, u0, h, nm1_tk, base, route == "evolve", dt0)
        targets = [t[k] + f * (t[k + 1] - t[k]) for k, f in self.OFFSETS] + [t[self.LAST]]
        controls = dataclasses.replace(base, output_times=targets)
        if route == "evolve":
            out = evolve(flux, self.PARAMS, Profile(grid=grid, t=0.0, values=u0), t[-1], controls)
            got_times, got_values = [p.t for p in out], [p.values for p in out]
        else:
            sol = radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, u0, t[-1], controls)
            got_times, got_values = sol.times, sol.profiles
        ref = reference_march(flux, self.PARAMS.diameter, u0, h, nm1_tk, t[-1], controls,
                              route == "evolve")
        TestPLaplacianMarch.assert_bitwise(got_times, got_values, ref)
        expected = [t[k] if f < 0.5 else t[k + 1] for k, f in self.OFFSETS] + [t[self.LAST]]
        assert got_times == expected


class TestFixedDtRefusedMidRun:
    """A fixed dt that the growing flux outruns after t = 0 is refused at that step."""

    # linear data with the Neumann slope g rising from 1: the end gradient is
    # g(t), so max alpha = 2*g(t) grows past its t = 0 value from the second step
    PARAMS = ModelParams(3, 0.0, 2.0)
    FLUX = Flux.plaplacian(3.0)
    REFUSAL = "fixed_dt 0.000195313 exceeds the stability bound 0.000194932 at t = 0.000195313"

    @staticmethod
    def g(t):
        return 1.0 + 10.0 * t

    def test_evolve(self):
        grid = Grid1D(self.PARAMS.half_diameter, 32)
        phi0 = Profile(grid=grid, t=0.0, values=grid.nodes)
        dt = 0.4 * grid.h**2 / 2.0  # the bound at t = 0, where max alpha = 2
        (first,) = evolve(self.FLUX, self.PARAMS, phi0, dt,
                          StepControls(fixed_dt=dt, right_flux=self.g))
        assert first.t == dt
        with pytest.raises(CFLViolationError, match=re.escape(self.REFUSAL)):
            evolve(self.FLUX, self.PARAMS, phi0, 0.01, StepControls(fixed_dt=dt, right_flux=self.g))

    def test_radial_flow(self):
        s = np.linspace(-self.PARAMS.half_diameter, self.PARAMS.half_diameter, 65)
        dt = 0.4 * (s[1] - s[0]) ** 2 / 2.0
        metric = WarpedMetric(self.PARAMS, 1.0)
        controls = StepControls(fixed_dt=dt, right_flux=self.g)
        assert radial_flow(metric, self.FLUX, s, dt, controls).times == [dt]
        with pytest.raises(CFLViolationError, match=re.escape(self.REFUSAL)):
            radial_flow(metric, self.FLUX, s, 0.01, controls)


class TestStampsAreFloats:
    """Every time stamp is a Python float, whatever numeric types the inputs carry."""

    PARAMS = ModelParams(3, -1.0, np.float64(2.0))  # so h is a numpy float too

    def stamps(self, route, flux, u0, controls, t_end):
        if route == "evolve":
            grid = Grid1D(self.PARAMS.half_diameter, len(u0) - 1)
            phi0 = Profile(grid=grid, t=0.0, values=u0)
            return [p.t for p in evolve(flux, self.PARAMS, phi0, t_end, controls)]
        return radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, u0, t_end, controls).times

    @pytest.mark.parametrize("flux", [Flux.heat(), Flux.plaplacian(3.0)], ids=["heat", "plap:3"])
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_stepped_outputs(self, flux, fixed, route):
        s = np.linspace(0.0 if route == "evolve" else -1.0, 1.0, 65)
        h = s[1] - s[0]
        dt = 0.1 * h * h
        # t = 0, outputs on single steps and, on the heat flux, after blocks
        times = [0, np.float64(5 * dt), 6 * dt, 400 * dt]
        controls = StepControls(cfl=np.float64(0.4), output_times=times,
                                fixed_dt=np.float64(dt) if fixed else None)
        stamps = self.stamps(route, flux, np.sin(0.5 * math.pi * s), controls, times[-1])
        assert len(stamps) == 4 and stamps[-1] > 0.0
        assert all(type(t) is float for t in stamps)

    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_stationary_exit(self, route):
        # p > 2 on zero data: the pending targets are recorded as they are
        controls = StepControls(output_times=[0, np.float64(0.5), 1])
        stamps = self.stamps(route, Flux.plaplacian(3.0, 0.0), np.zeros(33), controls, 1)
        assert stamps == [0.0, 0.5, 1.0]
        assert all(type(t) is float for t in stamps)


class TestHeatClock:
    """A heat run without ``fixed_dt`` stamps step k at exactly k*dt, dt = cfl*h^2."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    SIGMA = 0.9 * MU_3_M1_2

    @pytest.mark.parametrize("forcing", ["none", "right"])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_every_stamp_is_a_step_multiple(self, route, forcing):
        half = integrate_phi(self.PARAMS, self.SIGMA, 32)
        grid = Grid1D(self.PARAMS.half_diameter, 32)
        if route == "evolve":
            u0, h = half.phi, grid.h
        else:
            u0, h = np.concatenate([-half.phi[:0:-1], half.phi]), self.PARAMS.diameter / 64
        dt = 0.4 * h * h
        # outputs after single steps only (the first three), then after blocks,
        # on and between steps, up to about 5000 steps
        times = [3.3 * dt, 5 * dt, 6 * dt, 200.4 * dt, 400 * dt, 0.5, 1.0, 2.0]
        slope = half.dphi[-1]
        controls = StepControls(
            output_times=times,
            right_flux=(lambda t: slope * math.exp(-self.SIGMA * t)) if forcing == "right" else None,
        )
        if route == "evolve":
            phi0 = Profile(grid=grid, t=0.0, values=u0)
            stamps = [p.t for p in evolve(Flux.heat(), self.PARAMS, phi0, times[-1], controls)]
        else:
            metric = WarpedMetric(self.PARAMS, 1.0)
            stamps = radial_flow(metric, Flux.heat(), u0, times[-1], controls).times
        assert len(stamps) == len(times)
        for stamp, target in zip(stamps, times):
            k = round(stamp / dt)
            assert stamp == k * dt
            assert abs(stamp - target) <= 0.5 * dt * (1.0 + 1e-12)


class TestPivotStaysZero:
    """The odd pivot's increment is exactly 0, so every output vanishes there."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    SIGMA = 0.9 * MU_3_M1_2

    @pytest.mark.parametrize("flux", [Flux.heat(), *FLUXES], ids=["heat", *FLUX_IDS])
    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("forcing", ["none", "right"])
    def test_every_output_is_zero_at_the_pivot(self, flux, fixed, forcing):
        traj = integrate_phi(self.PARAMS, self.SIGMA, 32)
        grid = Grid1D(self.PARAMS.half_diameter, 32)
        alpha0 = max(flux_eval(flux, float(q))[0] for q in np.gradient(traj.phi, grid.h))
        dt = 0.2 * grid.h**2 / alpha0
        # outputs on single steps and, on the heat flux, after 64-step blocks
        times = [0.0, 5 * dt, 6 * dt, 200 * dt, 400 * dt]
        slope = traj.dphi[-1]
        controls = StepControls(
            output_times=times,
            fixed_dt=dt if fixed else None,
            right_flux=(lambda t: slope * math.exp(-self.SIGMA * t)) if forcing == "right" else None,
        )
        phi0 = Profile(grid=grid, t=0.0, values=traj.phi)
        out = evolve(flux, self.PARAMS, phi0, times[-1], controls)
        assert len(out) == len(times) and out[-1].t > 0.0
        assert all(p.values[0] == 0.0 for p in out)


class TestOutputsAreCopies:
    """The state is one buffer updated in place; every output is its own array."""

    PARAMS = ModelParams(3, -1.0, 2.0)
    FLUXES = [Flux.heat(), Flux.plaplacian(3.0)]

    @staticmethod
    def check_independent(u0, before, outputs):
        assert np.array_equal(u0, before)
        for i, a in enumerate(outputs):
            assert not np.shares_memory(a, u0)
            assert all(not np.shares_memory(a, b) for b in outputs[i + 1 :])
        saved = [a.copy() for a in outputs]
        for i, a in enumerate(outputs):
            a.fill(np.nan)
            assert all(np.array_equal(b, c) for j, (b, c) in enumerate(zip(outputs, saved))
                       if j != i)
            a[...] = saved[i]

    @staticmethod
    def output_times(dt):
        # t = 0 twice, a duplicate, outputs on consecutive steps, an off-grid
        # duplicate that snaps back to the state before its step, and a gap of
        # several heat blocks
        return [0.0, 0.0, 5 * dt, 5 * dt, 6 * dt, 7 * dt, 7.3 * dt, 7.3 * dt, 300 * dt]

    def run(self, route, flux, u0, controls, t_end):
        if route == "evolve":
            grid = Grid1D(self.PARAMS.half_diameter, len(u0) - 1)
            phi0 = Profile(grid=grid, t=0.0, values=u0)
            return [p.values for p in evolve(flux, self.PARAMS, phi0, t_end, controls)]
        sol = radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, u0, t_end, controls)
        return sol.profiles

    @pytest.mark.parametrize("flux", FLUXES, ids=["heat", "plap:3"])
    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_outputs_own_their_memory(self, flux, route):
        s = np.linspace(0.0 if route == "evolve" else -1.0, 1.0, 33)
        u0 = np.sin(0.5 * math.pi * s)
        before = u0.copy()
        h = s[1] - s[0]
        alpha0 = max(flux_eval(flux, float(q))[0] for q in np.gradient(u0, h))
        dt = 0.2 * h * h / max(1.0, alpha0)
        times = self.output_times(dt)
        controls = StepControls(output_times=times, fixed_dt=dt)
        outputs = self.run(route, flux, u0, controls, times[-1])
        assert len(outputs) == len(times)
        self.check_independent(u0, before, outputs)

    @pytest.mark.parametrize("route", ["evolve", "radial_flow"])
    def test_stationary_outputs_own_their_memory(self, route):
        # p > 2 on zero data: alpha vanishes, and every pending output is the
        # initial state
        u0 = np.zeros(33)
        controls = StepControls(output_times=[0.0, 0.1, 0.1, 0.2])
        outputs = self.run(route, Flux.plaplacian(3.0, 0.0), u0, controls, 0.2)
        assert len(outputs) == 4
        self.check_independent(u0, np.zeros(33), outputs)


class TestBlowUp:
    """A march whose state stops being finite raises instead of returning it."""

    # the drift is far inside the Peclet bound; Neumann data near the largest
    # double overflows the right ghost, and data near it overflows u - u[0]
    # in a heat block on the full interval
    PARAMS = ModelParams(3, -1.0, 2.0)
    SCALE = 1e308

    def test_evolve_raises(self):
        grid = Grid1D(self.PARAMS.half_diameter, 16)
        phi0 = Profile(grid=grid, t=0.0, values=self.SCALE * np.sin(0.5 * math.pi * grid.nodes))
        controls = StepControls(right_flux=lambda _t: self.SCALE / grid.h)
        with pytest.raises(NonConvergenceError, match="not finite"):
            evolve(Flux.heat(), self.PARAMS, phi0, 0.01, controls)

    def test_evolve_of_data_near_the_largest_double_stays_finite(self):
        # the step takes differences of neighbours and never doubles u, and
        # these seven steps stay within single steps, never a heat block
        grid = Grid1D(self.PARAMS.half_diameter, 16)
        phi0 = Profile(grid=grid, t=0.0, values=self.SCALE * np.sin(0.5 * math.pi * grid.nodes))
        (out,) = evolve(Flux.heat(), self.PARAMS, phi0, 0.01)
        assert out.t > 0.0
        assert np.isfinite(out.values).all()

    def test_radial_flow_raises(self):
        u0 = self.SCALE * np.sin(0.5 * math.pi * np.linspace(-1.0, 1.0, 33))
        with pytest.raises(NonConvergenceError, match="t = 3 is not finite"):
            radial_flow(WarpedMetric(self.PARAMS, 1.0), Flux.heat(), u0, 3.0)


class TestPecletRefusal:
    """A grid on which the drift outruns the diffusion is refused up front."""

    PARAMS = ModelParams(3, -4000.0, 2.0)

    def radial_data(self, cells):
        s = np.linspace(-self.PARAMS.half_diameter, self.PARAMS.half_diameter, cells + 1)
        return s, np.sin(0.5 * math.pi * s)

    @pytest.mark.parametrize("flux", [Flux.heat(), Flux.plaplacian(3.0)], ids=["heat", "plap:3"])
    def test_refused_before_any_step(self, flux, monkeypatch):
        calls = []
        step_size = specgap.moc_pde._step_size

        def spy(*args):
            calls.append(args[2])
            return step_size(*args)

        monkeypatch.setattr(specgap.moc_pde, "_step_size", spy)
        g = lambda t: calls.append(t) or 0.0  # called on every step
        controls = StepControls(output_times=[0.0, 0.5], right_flux=g)
        grid = Grid1D(self.PARAMS.half_diameter, 16)
        phi0 = Profile(grid=grid, t=0.0, values=np.sin(0.5 * math.pi * grid.nodes))
        # h = 1/16 and max|(n-1)*tk| = 126.5, over 2*(p-1)
        peclet = "3.95" if flux.is_heat else "1.97"
        with pytest.raises(CFLViolationError, match=f"Peclet number is {peclet}.*refine the grid"):
            evolve(flux, self.PARAMS, phi0, 0.5, controls)
        with pytest.raises(CFLViolationError, match="Peclet"):
            radial_flow(WarpedMetric(self.PARAMS, 1.0), flux, self.radial_data(32)[1], 0.5,
                        controls)
        assert calls == []

    @pytest.mark.parametrize(
        "flux, c, refused, accepted",
        [(Flux.heat(), 1.0, 64, 128), (Flux.plaplacian(3.0), 2.0, 32, 64),
         (Flux.plaplacian(1.5, 0.1), 0.5, 128, 256)],
        ids=["heat", "plap:3", "plap:1.5:0.1"],
    )
    def test_bound_scales_with_p_minus_1(self, flux, c, refused, accepted):
        # beta/alpha = 1/(p-1): the p-Laplacian drift counts 1/(p-1) times
        metric = WarpedMetric(self.PARAMS, 1.0)
        pe = []
        for cells in (refused, accepted):
            s, _ = self.radial_data(cells)
            nm1_tk = (self.PARAMS.n - 1) * tk_array(self.PARAMS.kappa, s)
            pe.append((s[1] - s[0]) * np.max(np.abs(nm1_tk)) / (2.0 * c))
        assert pe[0] > 1.0 >= pe[1]
        with pytest.raises(CFLViolationError, match="Peclet"):
            radial_flow(metric, flux, self.radial_data(refused)[1], 1e-3)
        sol = radial_flow(metric, flux, self.radial_data(accepted)[1], 1e-3)
        assert np.all(np.isfinite(sol.profiles[-1])) and sol.times[-1] > 0.0


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

    def test_adaptive_step_budget_is_projected(self, monkeypatch):
        # dt settles near 7.8e-4 on 16 cells, so t = 50 needs about 64000 steps
        params = ModelParams(3, 0.0, 2.0)
        grid = Grid1D(1.0, 16)
        phi0 = Profile(grid=grid, t=0.0, values=np.sin(0.5 * math.pi * grid.nodes))
        flux = Flux.plaplacian(3.0)
        ctrl = StepControls(output_times=[0.1, 0.5])
        before = evolve(flux, params, phi0, t_end=0.5, controls=ctrl)
        monkeypatch.setattr(specgap.moc_pde, "_MAX_STEPS", 4096)
        monkeypatch.setattr(specgap.moc_pde, "_BUDGET_CHECK", 256)
        # about 640 steps: within the budget, and stepped exactly as before
        after = evolve(flux, params, phi0, t_end=0.5, controls=ctrl)
        for a, b in zip(before, after):
            assert a.t == b.t
            assert np.array_equal(a.values, b.values)
        steps = []
        step_size = specgap.moc_pde._step_size

        def count(*args):
            steps.append(args[2])  # one call per step, at its start time
            return step_size(*args)

        monkeypatch.setattr(specgap.moc_pde, "_step_size", count)
        with pytest.raises(NonConvergenceError, match="t_end = 50 .* budget of 4096"):
            evolve(flux, params, phi0, t_end=50.0)
        # refused by the projection at a check, long before the step count
        assert len(steps) < 4096 and len(steps) % 256 == 1

    def test_degenerate_fast_diffusion_blows_cfl(self):
        params = ModelParams(2, 0.0, 2.0)
        phi0 = sine_profile(2.0, 32)  # zero gradient at the Neumann end
        with pytest.raises(CFLViolationError):
            evolve(Flux.plaplacian(1.5, 0.0), params, phi0, t_end=0.1)

    def test_fast_diffusion_without_eps_is_refused_before_stepping(self, monkeypatch):
        params = ModelParams(2, 0.0, 2.0)
        phi0 = sine_profile(2.0, 32)
        monkeypatch.setattr(specgap.moc_pde, "_step_size", None)  # any step would fail
        with pytest.raises(InvalidParamsError, match="plap:P:EPS"):
            evolve(Flux.plaplacian(1.5), params, phi0, t_end=0.01)

    def test_infinite_alpha_at_an_interior_node_is_refused(self):
        # a flat interior plateau has zero gradient; the forced right end does not
        params = ModelParams(2, 0.0, 2.0)
        grid = Grid1D(1.0, 32)
        s = grid.nodes
        values = np.where(s < 0.3, s, np.where(s <= 0.6, 0.3, s - 0.3))
        phi0 = Profile(grid=grid, t=0.0, values=values)
        controls = StepControls(right_flux=lambda _t: 1.0)
        with pytest.raises(CFLViolationError, match="inf"):
            evolve(Flux.plaplacian(1.5, 0.0), params, phi0, t_end=0.1, controls=controls)

    def test_argmax_reads_the_first_nan(self):
        # _march reads max alpha at argmax, which must not pass over a NaN
        assert np.array([1.0, np.inf, np.nan, 2.0, np.nan]).argmax() == 2

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
        for fixed_dt in (math.inf, math.nan):
            with pytest.raises(InvalidParamsError, match="fixed_dt must be positive and finite"):
                StepControls(fixed_dt=fixed_dt)
