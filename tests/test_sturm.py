import math

import numpy as np
import pytest

from specgap import (
    InvalidParamsError,
    ModelParams,
    NonConvergenceError,
    PoleError,
    first_eigenvalue,
    integrate_phi,
    sl_fd_oracle,
    sl_fd_oracle_extrapolated,
    sphere_limit_eigenvalue,
)
from specgap.specialfn import tk
from specgap.sturm import _bisect_level, _fd_singular_value


def mu_closed_form_n3(kappa: float, diameter: float) -> float:
    """Independent eigenvalue oracle for n = 3.

    For n = 3 the substitution phi = psi/ck reduces the weighted problem to
    psi'' + (mu + kappa)*psi = 0, so mu solves the transcendental equation
    w*cot(w*D/2) = -tk(D/2) with w = sqrt(mu + kappa).  Valid whenever
    mu + kappa > 0, which holds for the parameter sets used here.
    """
    half = diameter / 2.0
    target = -tk(kappa, half)

    def f(w: float) -> float:
        return w * math.cos(w * half) - target * math.sin(w * half)

    # bracket the first root of f on (0, 2*pi/D)
    ws = np.linspace(1e-9, 2 * math.pi / diameter, 4096)
    vals = [f(w) for w in ws]
    lo = hi = None
    for i in range(len(ws) - 1):
        if vals[i] > 0.0 >= vals[i + 1]:
            lo, hi = ws[i], ws[i + 1]
            break
    assert lo is not None, "no bracket for the closed-form root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w * w - kappa


# frozen values computed from mu_closed_form_n3 (cross-checked below)
MU_3_M1_2 = 1.682043320038555
MU_3_05_3 = 1.7844719689154256


def test_closed_form_oracle_reproduces_frozen_values():
    assert mu_closed_form_n3(-1.0, 2.0) == pytest.approx(MU_3_M1_2, abs=1e-12)
    assert mu_closed_form_n3(0.5, 3.0) == pytest.approx(MU_3_05_3, abs=1e-12)


class TestIntegratePhi:
    def test_sine_solution_kappa_zero(self):
        # n = 2, kappa = 0, sigma = 1 on [0, pi/2]: phi = sin(s)
        traj = integrate_phi(ModelParams(2, 0.0, math.pi), 1.0, steps=2048)
        assert traj.phi[0] == 0.0
        assert traj.dphi[0] == 1.0
        assert abs(traj.phi[-1] - 1.0) < 1e-8
        assert abs(traj.dphi[-1]) < 1e-8

    def test_linear_solution_sigma_zero(self):
        # kappa = 0, sigma = 0: phi'' = 0, so phi(s) = s and phi' = 1
        traj = integrate_phi(ModelParams(3, 0.0, math.pi), 0.0, steps=1024)
        assert np.interp(1.0, traj.grid, traj.phi) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(traj.dphi, 1.0, atol=1e-12)
        assert traj.first_dphi_zero is None

    def test_sk_solves_ivp_at_sigma_n_kappa(self):
        # sigma = n*kappa makes sk the exact solution (here sin on [0, 1])
        traj = integrate_phi(ModelParams(3, 1.0, 2.0), 3.0, steps=2048)
        idx = np.searchsorted(traj.grid, 1.0)
        assert traj.grid[idx] == pytest.approx(1.0, abs=1e-12)
        assert abs(traj.phi[idx] - math.sin(1.0)) < 1e-8

    def test_grid_uniform_and_increasing(self):
        traj = integrate_phi(ModelParams(2, -0.5, 3.0), 2.0, steps=64)
        d = np.diff(traj.grid)
        assert np.all(d > 0)
        np.testing.assert_allclose(d, d[0], rtol=1e-12)

    def test_first_dphi_zero_detected_and_refined(self):
        # kappa = 0: phi' = cos(sqrt(sigma) s) vanishes at pi/(2 sqrt(sigma))
        sigma = 9.0
        traj = integrate_phi(ModelParams(2, 0.0, math.pi), sigma, steps=512)
        assert traj.first_dphi_zero == pytest.approx(math.pi / (2 * math.sqrt(sigma)), abs=1e-9)

    def test_steps_validated(self):
        with pytest.raises(InvalidParamsError):
            integrate_phi(ModelParams(2, 0.0, 1.0), 1.0, steps=8)


class TestFirstEigenvalue:
    def test_flat_case_is_exact(self):
        for n in (2, 5):
            res = first_eigenvalue(ModelParams(n, 0.0, math.pi), 1e-9)
            assert res.mu == pytest.approx(1.0, rel=1e-8)
        res = first_eigenvalue(ModelParams(3, 0.0, 2.0), 1e-9)
        assert res.mu == pytest.approx((math.pi / 2.0) ** 2, rel=1e-8)

    def test_sphere_limit(self):
        d = math.pi * (1 - 1e-4)
        assert first_eigenvalue(ModelParams(2, 1.0, d), 1e-4).mu == pytest.approx(2.0, abs=5e-3)
        assert first_eigenvalue(ModelParams(3, 1.0, d), 1e-4).mu == pytest.approx(3.0, abs=5e-3)

    def test_against_closed_form_n3(self):
        res = first_eigenvalue(ModelParams(3, -1.0, 2.0), 1e-9)
        assert res.mu == pytest.approx(MU_3_M1_2, rel=1e-8)
        res = first_eigenvalue(ModelParams(3, 0.5, 3.0), 1e-9)
        assert res.mu == pytest.approx(MU_3_05_3, rel=1e-8)

    def test_against_fd_oracle_20000_points(self):
        res = first_eigenvalue(ModelParams(3, -1.0, 2.0), 1e-9)
        oracle = sl_fd_oracle_extrapolated(ModelParams(3, -1.0, 2.0), 20000)
        assert abs(res.mu - oracle) / oracle < 1e-6

    def test_bracket_and_result_invariants(self):
        res = first_eigenvalue(ModelParams(4, -0.7, 2.5), 1e-9)
        assert res.mu > 0
        assert res.bracket_hi - res.bracket_lo <= 1e-9
        assert res.tol == res.bracket_hi - res.bracket_lo
        assert res.bracket_lo <= res.mu <= res.bracket_hi
        # predicate holds at bracket_lo: the final-grid trajectory has positive phi'
        traj_lo = integrate_phi(ModelParams(4, -0.7, 2.5), res.bracket_lo, res.steps)
        assert traj_lo.sigma == res.bracket_lo
        assert np.all(traj_lo.dphi > 0)
        assert traj_lo.first_dphi_zero is None
        # and fails at bracket_hi: a zero of phi' appears inside [0, D/2]
        traj_hi = integrate_phi(ModelParams(4, -0.7, 2.5), res.bracket_hi, res.steps)
        assert traj_hi.first_dphi_zero is not None
        assert traj_hi.first_dphi_zero <= 1.25 + 1e-12

    def test_numpy_scalar_params(self):
        ref = first_eigenvalue(ModelParams(3, -1.0, 2.0), 1e-9)
        res = first_eigenvalue(ModelParams(3, np.float64(-1.0), np.float64(2.0)), 1e-9)
        assert (res.mu, res.bracket_lo, res.bracket_hi) == (ref.mu, ref.bracket_lo, ref.bracket_hi)

    def test_scaling_law(self):
        base = first_eigenvalue(ModelParams(3, -0.5, 2.0), 1e-9).mu
        for c in (0.5, 2.0, 3.0):
            scaled = first_eigenvalue(ModelParams(3, -0.5 / c**2, c * 2.0), 1e-9).mu
            assert scaled * c**2 == pytest.approx(base, rel=1e-7)

    def test_monotone_in_kappa_and_diameter(self):
        mus = [
            first_eigenvalue(ModelParams(3, k, 2.0), 1e-9).mu
            for k in (-1.0, -0.25, 0.0, 0.25, 0.9 * (math.pi / 2.0) ** 2)
        ]
        assert all(b > a for a, b in zip(mus[:-1], mus[1:]))
        mus_d = [first_eigenvalue(ModelParams(3, -0.5, d), 1e-9).mu for d in (1.0, 2.0, 3.0)]
        assert all(b < a for a, b in zip(mus_d[:-1], mus_d[1:]))

    def test_agreement_lattice_with_oracle(self):
        for n in (2, 3, 5):
            for kappa in (-1.0, 0.25):
                params = ModelParams(n, kappa, 2.0)
                mu = first_eigenvalue(params, 1e-9).mu
                oracle = sl_fd_oracle_extrapolated(params, 2048)
                assert abs(mu - oracle) / mu < 1e-6

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(1, 0.0, 1.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(2, 0.0, -1.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(2, 4.0, 2.0)  # Bonnet-Myers: D > pi/2
        with pytest.raises(InvalidParamsError):
            ModelParams(2, 1.0, math.pi)  # exactly at the ceiling
        with pytest.raises(InvalidParamsError):
            first_eigenvalue(ModelParams(2, 0.0, 1.0), 0.0)


def test_sphere_limit_eigenvalue():
    assert sphere_limit_eigenvalue(2, 1.0) == 2.0
    assert sphere_limit_eigenvalue(5, 0.25) == 1.25
    with pytest.raises(InvalidParamsError):
        sphere_limit_eigenvalue(2, 0.0)
    with pytest.raises(InvalidParamsError):
        sphere_limit_eigenvalue(1, 1.0)


class TestFdOracle:
    def test_flat_neumann_value(self):
        val = sl_fd_oracle(ModelParams(4, 0.0, 2.0), 4096)
        assert val == pytest.approx(math.pi**2 / 4.0, abs=1e-5)

    def test_second_order_convergence(self):
        params = ModelParams(2, -1.0, math.pi)
        v1 = sl_fd_oracle(params, 4096)
        v2 = sl_fd_oracle(params, 8192)
        v3 = sl_fd_oracle(params, 16384)
        d1 = v1 - v2
        d2 = v2 - v3
        assert d1 * d2 > 0
        assert abs(d1) < 4.0 * abs(d2)

    def test_cross_check_with_shooting(self):
        params = ModelParams(3, 0.5, 3.0)
        oracle = sl_fd_oracle_extrapolated(params, 8192)
        mu = first_eigenvalue(params, 1e-9).mu
        assert abs(oracle - mu) / mu < 1e-6
        assert oracle == pytest.approx(MU_3_05_3, rel=1e-7)

    def test_gridpoints_validated(self):
        with pytest.raises(InvalidParamsError):
            sl_fd_oracle(ModelParams(2, 0.0, 1.0), 32)

    def test_large_diameter_weights_do_not_overflow(self):
        # ck^(n-1) overflows at D = 800; the flux factor must not
        try:
            val = sl_fd_oracle(ModelParams(3, -1.0, 800.0), 64)
        except NonConvergenceError:
            pass
        else:
            assert math.isfinite(val) and val > 0.0

    def test_exponentially_small_values(self):
        # reference values computed from the weights w = ck^(n-1) directly
        val = sl_fd_oracle_extrapolated(ModelParams(10, -1.0, 20.0), 256)
        assert val == pytest.approx(8.786645013290315e-36, rel=1e-10)
        val = sl_fd_oracle_extrapolated(ModelParams(3, -100.0, 10.0), 256)
        assert val == pytest.approx(2.973918473714297e-41, rel=1e-10)


class TestShootingModes:
    """Odd Neumann mode j: bisection on "phi' changes sign at most j times"."""

    params = ModelParams(3, -1.0, 2.0)

    def mode(self, j: int, steps: int, tol_sigma: float = 1e-12):
        mu, lo, _, _ = _bisect_level(self.params, tol_sigma, steps, None, j)
        return mu, integrate_phi(self.params, lo, steps)

    def test_mode_zero_is_first_eigenvalue(self):
        res = first_eigenvalue(self.params, 1e-9)
        mu, _ = self.mode(0, res.steps, tol_sigma=1e-9 / 8)
        assert abs(mu - res.mu) <= 1e-9 / 4

    def test_eigenvalues_increase_and_phi_prime_has_j_sign_changes(self):
        mus = []
        for j in range(3):
            mu, traj = self.mode(j, 1024)
            assert np.count_nonzero(np.diff(traj.dphi > 0.0)) == j
            mus.append(mu)
        assert np.all(np.diff(mus) > 0)

    def test_modes_match_fd_oracle(self):
        for j in range(3):
            mu, _ = self.mode(j, 1024)
            coarse = _fd_singular_value(self.params, 512, 2 * j + 1) ** 2
            fine = _fd_singular_value(self.params, 1024, 2 * j + 1) ** 2
            oracle = (4.0 * fine - coarse) / 3.0
            assert abs(mu - oracle) / oracle < 1e-8

    def test_first_mode_matches_shooting_eigenfunction(self):
        res = first_eigenvalue(self.params, 1e-9)
        _, traj = self.mode(0, 256, tol_sigma=1e-9 / 8)
        mode = traj.phi / np.max(np.abs(traj.phi))  # s in [0, 1]
        traj_res = integrate_phi(self.params, res.bracket_lo, res.steps)
        phi = traj_res.phi
        ref = np.interp(np.arange(257) / 256.0, traj_res.grid, phi / np.max(np.abs(phi)))
        np.testing.assert_allclose(mode, ref, atol=5e-5)


def test_pole_guard_in_integrator():
    params = ModelParams.__new__(ModelParams)
    object.__setattr__(params, "n", 2)
    object.__setattr__(params, "kappa", 4.0)
    object.__setattr__(params, "diameter", 2.0)
    with pytest.raises(PoleError):
        integrate_phi(params, 1.0, steps=64)
