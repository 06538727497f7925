import importlib.util
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import specgap.sturm
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
from specgap.sturm import (
    _bisect_level,
    _fd_flux_factor,
    _fd_ladder,
    _fd_singular_value,
    _shoot,
    _shooting_grid,
    _sv_count,
)


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

    def test_sk_solves_ivp_at_sigma_n_kappa(self):
        # sigma = n*kappa makes sk the exact solution (here sin on [0, 1])
        traj = integrate_phi(ModelParams(3, 1.0, 2.0), 3.0, steps=2048)
        idx = np.searchsorted(traj.grid, 1.0)
        assert traj.grid[idx] == pytest.approx(1.0, abs=1e-12)
        assert abs(traj.phi[idx] - math.sin(1.0)) < 1e-8

    def test_kernel_is_exact_at_kappa_zero(self):
        # no drift: each Magnus step is the exact rotation, even on 16 steps
        sigma = (math.pi / 2.0) ** 2
        traj = integrate_phi(ModelParams(3, 0.0, 2.0), sigma, 16)
        w = math.sqrt(sigma)
        np.testing.assert_allclose(traj.phi, np.sin(w * traj.grid) / w, rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.dphi, np.cos(w * traj.grid), rtol=0, atol=1e-13)

    def test_grid_uniform_and_increasing(self):
        traj = integrate_phi(ModelParams(2, -0.5, 3.0), 2.0, steps=64)
        d = np.diff(traj.grid)
        assert np.all(d > 0)
        np.testing.assert_allclose(d, d[0], rtol=1e-12)

    def test_steps_validated(self):
        with pytest.raises(InvalidParamsError):
            integrate_phi(ModelParams(2, 0.0, 1.0), 1.0, steps=8)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidParamsError):
            integrate_phi(ModelParams(3, -1.0, 2.0), sigma, 64)


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
        assert res.bracket_lo <= res.mu <= res.bracket_hi
        # predicate holds at bracket_lo: the final-grid trajectory has positive phi'
        traj_lo = integrate_phi(ModelParams(4, -0.7, 2.5), res.bracket_lo, res.steps)
        assert traj_lo.sigma == res.bracket_lo
        assert np.all(traj_lo.dphi > 0)
        # and fails at bracket_hi: phi' stops being positive inside [0, D/2]
        traj_hi = integrate_phi(ModelParams(4, -0.7, 2.5), res.bracket_hi, res.steps)
        assert not np.all(traj_hi.dphi > 0)

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

    @pytest.mark.parametrize("seed", [1, 2, None])
    def test_accepted_level_is_the_first_that_meets_the_h6_rule(self, seed):
        tol = 1e-9
        for params in spectrum_lattice(seed) if seed else TestIllinoisLevel.NAMED:
            res = first_eigenvalue(params, tol)
            levels = res.levels
            assert [level.steps for level in levels] == [32 << k for k in range(len(levels))]
            assert levels[-1] == (res.steps, res.mu, res.bracket_lo, res.bracket_hi, res.iterations)
            assert res.evaluations == sum(level.evaluations for level in levels)
            assert all(level.lo <= level.mu <= level.hi for level in levels)
            mus = [level.mu for level in levels]
            accepted = [
                k
                for k in range(2, len(mus))
                if abs(mus[k] - mus[k - 1]) < tol / 4
                and abs(mus[k - 1] - mus[k - 2]) < 64 * tol / 4
            ]
            assert accepted == [len(mus) - 1]

    @pytest.mark.parametrize("kappa", [-1.0, 0.0])
    def test_h6_rule_stops_at_128_steps(self, kappa):
        # both deltas are under 1e-10 from 32 steps on: the third level, the
        # first the rule can accept, is the reported one
        assert first_eigenvalue(ModelParams(3, kappa, 2.0), 1e-9).steps == 128

    def test_drift_point_accepts_a_coarse_grid(self):
        # strong drift, (n-1)*tk down to about -55: accepted by 1024 steps
        params = ModelParams(8, -81.45, 0.3007)
        res = first_eigenvalue(params, 1e-9)
        assert res.steps <= 1024
        s_g, s_2g, s_4g = _fd_ladder(params, 2048, 1, 3)
        r_g = (4.0 * s_2g**2 - s_g**2) / 3.0
        r_2g = (4.0 * s_4g**2 - s_2g**2) / 3.0
        assert abs(res.mu - (16.0 * r_2g - r_g) / 15.0) < 1e-9

    def test_near_bonnet_myers_returns_in_bounded_time(self):
        # tk's pole lies just past D/2 and the Magnus step loses order there:
        # the finest grid is 2^16 steps, under a second for each point
        code = (
            "import math\n"
            "from specgap import ModelParams, first_eigenvalue\n"
            "for gap in (1e-10, 1e-6):\n"
            "    print(repr(first_eigenvalue(ModelParams(2, 1.0, math.pi * (1 - gap)), 1e-9).mu))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        mus = [float(line) for line in proc.stdout.split()]
        assert len(mus) == 2
        assert all(abs(mu - 2.0) < 1e-9 for mu in mus)

    def test_seeded_lattice_within_tol_of_a_tight_solve(self):
        rng = np.random.default_rng(0)
        n = rng.integers(2, 11, size=12)
        d = np.exp(rng.uniform(math.log(0.2), math.log(20.0), size=12))
        kd2 = rng.uniform(-50.0, 0.9 * math.pi**2, size=12)
        for params in map(ModelParams, n.tolist(), (kd2 / d**2).tolist(), d.tolist()):
            tight = first_eigenvalue(params, 1e-11).mu
            assert abs(first_eigenvalue(params, 1e-9).mu - tight) < 1e-9

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


class TestScaleFree:
    """Each level is solved at diameter m in [0.5, 1), D = m*2^e, and scaled back."""

    @pytest.mark.parametrize("j", [5, 200])
    def test_power_of_four_rescaling_is_exact(self, j):
        # (kappa*4^j, D/2^j) at tol*4^j normalizes to the same unit problem
        for params in spectrum_lattice(1):
            base = first_eigenvalue(params, 1e-9)
            scaled = ModelParams(params.n, math.ldexp(params.kappa, 2 * j),
                                 math.ldexp(params.diameter, -j))
            res = first_eigenvalue(scaled, math.ldexp(1e-9, 2 * j))
            assert res.steps == base.steps
            assert (res.mu, res.bracket_lo, res.bracket_hi) == tuple(
                math.ldexp(v, 2 * j) for v in (base.mu, base.bracket_lo, base.bracket_hi)
            )

    def test_tiny_diameter_has_no_absolute_cap(self):
        # a sigma cap in the caller's units refused mu = pi^2/D^2 ~ 9.87e12
        res = first_eigenvalue(ModelParams(3, 0.0, 1e-6), 1.0)
        assert abs(res.mu - math.pi**2 / 1e-12) < 1.0

    def test_margin_triple_is_solved_as_given(self):
        # kappa*D^2 sits 1e-10 under pi^2: the scaled Bonnet-Myers check is exact
        res = first_eigenvalue(ModelParams(3, 0.37, 5.164746507244647), 1e-9)
        assert res.mu == 1.110000000056711

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strong_negative_curvature_has_no_false_pole(self):
        # kappa*sk overflows while ck is finite: the quotient form saw a pole
        try:
            first_eigenvalue(ModelParams(21, -767198.46, 2.0523), 1e-9)
        except NonConvergenceError:
            pass

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    @pytest.mark.parametrize("diameter", [1e-300, 1e-160, 1e160, 1e200])
    def test_out_of_range_is_a_typed_error(self, kappa, diameter):
        with pytest.raises(NonConvergenceError, match="outside the double range"):
            first_eigenvalue(ModelParams(3, kappa, diameter), 1e-9)

    def test_tol_below_the_float_resolution_of_mu_raises(self):
        # mu ~ 9.87e6 has ulp 1.86e-9: the levels cannot meet tol/4 = 2.5e-10
        code = (
            "from specgap import ModelParams, NonConvergenceError, first_eigenvalue\n"
            "try:\n"
            "    first_eigenvalue(ModelParams(2, 0.0, 1e-3), 1e-9)\n"
            "except NonConvergenceError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        assert "float resolution" in proc.stdout


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

    @pytest.mark.parametrize("oracle", [sl_fd_oracle, sl_fd_oracle_extrapolated])
    @pytest.mark.parametrize("gridpoints", [65, 2049])
    def test_odd_gridpoints_are_refused(self, oracle, gridpoints):
        # an odd cell count has no center node, so the matrix has no halves
        with pytest.raises(InvalidParamsError, match="even"):
            oracle(ModelParams(3, 0.0, 2.0), gridpoints)

    def test_seed_rung_is_even(self, monkeypatch):
        # 1000 cells are seeded from 124 (1000 // 8 = 125 is odd), and those
        # from a rough 64-cell value
        lengths = set()

        def spy(c2, x):
            lengths.add(len(c2))
            return _sv_count(c2, x)

        monkeypatch.setattr(specgap.sturm, "_sv_count", spy)
        params = ModelParams(3, -1.0, 2.0)
        value = _fd_singular_value(params, 1000, 1)
        assert lengths == {63, 123, 124, 999, 1000}
        assert value == reference_singular_value(params, 1000, 1)

    @pytest.mark.parametrize("j", [20, 100, 200])
    def test_pole_test_is_scale_free(self, j):
        # (kappa*4^j, D/2^j) is the base problem with every sigma scaled by 4^j;
        # a pole test against kappa*sk saw poles there from j ~ 100 on
        base = sl_fd_oracle(ModelParams(3, 0.5, 3.0), 64)
        scaled = sl_fd_oracle(ModelParams(3, math.ldexp(0.5, 2 * j), math.ldexp(3.0, -j)), 64)
        assert math.ldexp(scaled, -2 * j) == pytest.approx(base, rel=1e-12)

    def test_large_diameter_weights_do_not_overflow(self):
        # ck^(n-1) overflows at D = 800; the flux factor must not
        try:
            val = sl_fd_oracle(ModelParams(3, -1.0, 800.0), 64)
        except NonConvergenceError:
            pass
        else:
            assert math.isfinite(val) and val > 0.0

    def test_large_diameter_extrapolation_needs_no_coarser_grid(self):
        # on 8 cells at D = 800, cosh(50) - sinh(50) rounds to 0: a seed solve
        # there has zero fluxes and its bisection never ends
        code = (
            "from specgap import ModelParams, NonConvergenceError, sl_fd_oracle_extrapolated\n"
            "try:\n"
            "    sl_fd_oracle_extrapolated(ModelParams(3, -1.0, 800.0), 64)\n"
            "except NonConvergenceError:\n"
            "    print('refused')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20)
        assert proc.stdout == "refused\n"

    def test_value_below_the_smallest_subnormal_is_refused(self):
        # at D = 2000 the singular value underflows: the bisection reaches
        # lo = 0 and a hi whose midpoint rounds back to lo, and must stop there
        code = (
            "from specgap import ModelParams, NonConvergenceError, sl_fd_oracle\n"
            "for cells in (64, 256):\n"
            "    try:\n"
            "        sl_fd_oracle(ModelParams(3, -1.0, 2000.0), cells)\n"
            "    except NonConvergenceError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10)
        assert proc.stdout.count("not finite and positive") == 2

    def test_exponentially_small_values(self):
        # reference values computed from the weights w = ck^(n-1) directly
        val = sl_fd_oracle_extrapolated(ModelParams(10, -1.0, 20.0), 256)
        assert val == pytest.approx(8.786645013290315e-36, rel=1e-10)
        val = sl_fd_oracle_extrapolated(ModelParams(3, -100.0, 10.0), 256)
        assert val == pytest.approx(2.973918473714297e-41, rel=1e-10)


def fd_blocks(c: np.ndarray) -> tuple[list[float], list[float]]:
    """Squared off-diagonals of the odd and even blocks of the palindrome c[::-1] + c.

    Antisymmetric vectors vanish at the center row, which leaves c[1:];
    symmetric ones see 2*c[0] into the center row and c[0] out of it, which
    the even block symmetrizes into sqrt(2)*c[0].
    """
    c2 = (c * c).tolist()
    return c2[1:], [2.0 * c2[0], *c2[1:]]


def plain_bisection(c: np.ndarray, blocks: list[list[float]], want: int) -> float:
    """Bisection from [0, 2*max c], counting every block at every midpoint."""
    lo = 0.0
    hi = 2.0 * float(np.max(c))
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if sum(_sv_count(c2, mid) for c2 in blocks) >= want:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_singular_value(params: ModelParams, gridpoints: int, index: int) -> float:
    """The oracle's plain bisection on the summed counts of its two blocks."""
    c = _fd_flux_factor(params, gridpoints)
    return plain_bisection(c, list(fd_blocks(c)), gridpoints + 1 + index)


def full_matrix_singular_value(params: ModelParams, gridpoints: int, index: int) -> float:
    """Plain bisection on the full palindromic Golub-Kahan tridiagonal."""
    c = _fd_flux_factor(params, gridpoints)
    full = np.concatenate([c[::-1], c])
    return plain_bisection(c, [(full * full).tolist()], gridpoints + 1 + index)


def spectrum_lattice(seed: int) -> list[ModelParams]:
    """The benchmark's seeded (n, kappa, D) lattice, from benchmarks/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.spectrum_lattice(np.random.default_rng(seed))


def walk(counts: list[tuple[float, bool]]) -> int:
    """Length of the leading run of counts on the same side of the root as the first."""
    side = counts[0][1]
    return next((i for i, (_, above) in enumerate(counts) if above != side), len(counts))


def undecided(counts: list[tuple[float, bool]]) -> bool:
    """Whether every count falls strictly inside the bracket the counts before it prove."""
    below, above = 0.0, math.inf
    for x, is_above in counts:
        if not below < x < above:
            return False
        if is_above:
            above = x
        else:
            below = x
    return True


class TestFdBracket:
    """The Newton-located bracket changes no bisection decision."""

    FIXED = [
        ModelParams(2, 0.0, 1000.0),
        ModelParams(10, -1.0, 20.0),
        ModelParams(3, -100.0, 10.0),
        ModelParams(2, 0.0, 1e-3),
    ]
    PARAMS = ModelParams(3, -1.0, 2.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_spectrum_lattice_bitwise(self, seed):
        for params in spectrum_lattice(seed):
            coarse = reference_singular_value(params, 2048, 1)
            fine = reference_singular_value(params, 4096, 1)
            assert _fd_singular_value(params, 2048, 1) == coarse
            assert _fd_singular_value(params, 4096, 1) == fine
            expected = (4.0 * (fine * fine) - coarse * coarse) / 3.0
            assert sl_fd_oracle_extrapolated(params, 2048) == expected

    @pytest.mark.parametrize(
        "params", FIXED, ids=lambda p: "%g,%g,%g" % (p.n, p.kappa, p.diameter)
    )
    @pytest.mark.parametrize("gridpoints", [64, 256, 2048, 4096])
    def test_fixed_points_and_modes_bitwise(self, params, gridpoints):
        for index in range(1, 6):
            reference = reference_singular_value(params, gridpoints, index)
            assert _fd_singular_value(params, gridpoints, index) == reference
            if index == 1:
                assert sl_fd_oracle(params, gridpoints) == reference * reference

    def fine_counts(
        self, monkeypatch, gridpoints: int, index: int = 1
    ) -> list[tuple[float, bool]]:
        """(x, sigma_index < x) for each Sturm count on the finest grid's block of that mode.

        Odd modes live in the odd block (gridpoints - 1 entries, gridpoints/2
        negative eigenvalues), even ones in the even block (gridpoints
        entries, one more eigenvalue at or below zero).
        """
        points = []
        length = gridpoints - index % 2
        want = gridpoints // 2 + index // 2 + 1

        def spy(c2, x):
            count = _sv_count(c2, x)
            if len(c2) == length:
                points.append((x, count >= want))
            return count

        monkeypatch.setattr(specgap.sturm, "_sv_count", spy)
        return points

    @pytest.mark.parametrize("guess", ["far", "nan", "inf", "one_width"])
    def test_bad_guess_keeps_the_value(self, monkeypatch, guess):
        newton = specgap.sturm._newton_singular_value

        def fake(c2, x):
            x = newton(c2, x)
            return {"far": 3.0 * x, "nan": math.nan, "inf": math.inf,
                    "one_width": x * (1.0 + 8e-14)}[guess]

        monkeypatch.setattr(specgap.sturm, "_newton_singular_value", fake)
        points = self.fine_counts(monkeypatch, 2048)
        assert _fd_singular_value(self.PARAMS, 2048, 1) == reference_singular_value(
            self.PARAMS, 2048, 1
        )
        if guess == "one_width":
            # the optimistic pass and its four walks, about one final interval
            # (1e-14 relative) each, all end above the root; a bracket around
            # the walk's end is then proved, and no count repeats a decision
            assert walk(points) == 5
            assert undecided(points)
            assert len(points) < 16
        else:
            # no bracket is proved: the plain bisection counts every midpoint
            assert len(points) > 40

    @pytest.mark.parametrize(
        "params",
        [PARAMS, ModelParams(10, -1.0, 20.0), ModelParams(2, 0.0, 1e-3)],
        ids=lambda p: "%g,%g,%g" % (p.n, p.kappa, p.diameter),
    )
    def test_wrong_newton_values_keep_the_value(self, monkeypatch, params):
        # Newton's value off by up to 4e-14 (the walk), 1.3e-13 and 4e-13 (a
        # widened bracket), 1e-9 and a factor of 3 (the counted pass), or not
        # finite and positive (no walk); the lambda reads factor at each call
        factors = [1.0 + k * 1e-14 for k in (-40, -13, -4, -1, 0, 1, 4, 13, 40)]
        factors += [1.0 - 1e-9, 1.0 + 1e-9, 3.0, math.nan, math.inf, -1.0]
        newton = specgap.sturm._newton_singular_value
        factor = 1.0
        monkeypatch.setattr(
            specgap.sturm, "_newton_singular_value", lambda c2, x: factor * newton(c2, x)
        )
        for gridpoints in (256, 2048):
            for index in (1, 2, 3):
                points = self.fine_counts(monkeypatch, gridpoints, index)
                reference = reference_singular_value(params, gridpoints, index)
                points.clear()
                assert specgap.sturm._fd_solve(params, gridpoints, index, None) == reference
                plain = len(points)  # without a guess every midpoint is counted
                for factor in factors:
                    points.clear()
                    assert _fd_singular_value(params, gridpoints, index) == reference
                    assert len(points) <= plain + 14, factor

    def test_only_the_guess_floor_stops_early(self, monkeypatch):
        points = self.fine_counts(monkeypatch, 64)
        _fd_singular_value(self.PARAMS, 512, 1)
        guess_counts = len(points)
        points.clear()
        _fd_singular_value(self.PARAMS, 64, 1)
        # 1e-6 relative is about 20 halvings past lo > 0; 1e-14 is about 47
        assert guess_counts < 30 < len(points)

    def test_unconverged_newton_is_nan(self, monkeypatch):
        # the rough 64-cell guess for index 4 on (10, -1, 20) is 4.353, where
        # the 256-cell sigma_4 is 4.252: six Newton steps on the even block
        # (which holds it) do not meet the stop
        params = ModelParams(10, -1.0, 20.0)
        rough = specgap.sturm._fd_solve(params, 64, 4, None, rough=True)
        _, even = fd_blocks(_fd_flux_factor(params, 256))
        assert math.isnan(specgap.sturm._newton_singular_value(even, rough))
        # so the solve takes the counted pass alone, as without a guess
        points = self.fine_counts(monkeypatch, 256, 4)
        reference = specgap.sturm._fd_solve(params, 256, 4, None)
        plain = len(points)
        points.clear()
        assert _fd_singular_value(params, 256, 4) == reference
        assert len(points) == plain

    @pytest.mark.parametrize("gridpoints", [2048, 64, 256])
    def test_fine_solve_is_seeded_by_the_coarse_one(self, monkeypatch, gridpoints):
        # every ladder stays at or above 64 cells; on g cells the odd block
        # holds g - 1 entries and the even block, counted once, g
        expected = {
            2048: {63, 255, 256, 2047, 2048, 4095, 4096},  # 64 (rough) -> 256 -> 2048 -> 4096
            64: {63, 64, 127, 128},  # 64 -> 128: no 8-cell seed
            256: {63, 255, 256, 511, 512},  # 64 (rough) -> 256 -> 512: no 32-cell seed
        }[gridpoints]
        for params in (self.PARAMS, *self.FIXED[:2]):
            lengths = set()

            def spy(c2, x):
                lengths.add(len(c2))
                return _sv_count(c2, x)

            monkeypatch.setattr(specgap.sturm, "_sv_count", spy)
            sl_fd_oracle_extrapolated(params, gridpoints)
            assert lengths == expected

    @pytest.mark.parametrize("seed", [1, 2])
    def test_2048_cell_solve_starts_from_the_h2_law(self, monkeypatch, seed):
        # the 64- and 256-cell values predict the 2048-cell one; the 256-cell
        # value alone is 3e-6 to 2e-4 off on this lattice
        newton = specgap.sturm._newton_singular_value
        guesses = []

        def spy(c2, x):
            if len(c2) == 2047:
                guesses.append(x)
            return newton(c2, x)

        monkeypatch.setattr(specgap.sturm, "_newton_singular_value", spy)
        for params in spectrum_lattice(seed):
            guesses.clear()
            sl_fd_oracle_extrapolated(params, 2048)
            (guess,) = guesses
            value = reference_singular_value(params, 2048, 1)
            assert abs(guess - value) <= 2e-6 * value

    @pytest.mark.parametrize("seed", [1, 2])
    def test_standalone_4096_cell_solve_starts_from_the_h2_law(self, monkeypatch, seed):
        # the 64- and 512-cell values predict the 4096-cell one; the 512-cell
        # value alone is up to 4.2e-5 off on this lattice
        newton = specgap.sturm._newton_singular_value
        guesses = []

        def spy(c2, x):
            if len(c2) == 4095:
                guesses.append(x)
            return newton(c2, x)

        monkeypatch.setattr(specgap.sturm, "_newton_singular_value", spy)
        for params in spectrum_lattice(seed):
            guesses.clear()
            sl_fd_oracle(params, 4096)
            (guess,) = guesses
            value = reference_singular_value(params, 4096, 1)
            assert abs(guess - value) <= 1e-6 * value

    def test_widened_bracket_at_40000_cells(self, monkeypatch):
        points = self.fine_counts(monkeypatch, 40000)
        got = _fd_singular_value(self.PARAMS, 40000, 1)
        assert got == reference_singular_value(self.PARAMS, 40000, 1)
        # Newton's value is about 1.6e-13 low: both ends of the optimistic
        # pass, the four walks and the upper end of the first bracket around
        # the walk's end fall below the root; the 4x wider bracket proves it
        first = walk(points)
        assert first >= 6 and points[first][1]
        assert points[first][0] - points[first - 1][0] > 8e-14 * got
        assert undecided(points)
        assert len(points) < 16

    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_wrong_other_block_count_raises(self, monkeypatch, index, offset):
        # the other block of an odd mode is the even one (2048 entries on
        # 2048 cells), and that of an even mode the odd one (2047); it is
        # counted only for the proof
        other = 2048 if index % 2 else 2047
        monkeypatch.setattr(
            specgap.sturm,
            "_sv_count",
            lambda c2, x: _sv_count(c2, x) + (offset if len(c2) == other else 0),
        )
        with pytest.raises(NonConvergenceError, match="other block"):
            specgap.sturm._fd_solve(self.PARAMS, 2048, index, None)

    @pytest.mark.parametrize(
        "params", FIXED, ids=lambda p: "%g,%g,%g" % (p.n, p.kappa, p.diameter)
    )
    @pytest.mark.parametrize("gridpoints", [256, 2048])
    def test_blocks_agree_with_the_full_matrix(self, params, gridpoints):
        # summed block counts and the count of the full palindromic matrix
        # round differently, by at most 3 final intervals
        for index in range(1, 6):
            full = full_matrix_singular_value(params, gridpoints, index)
            got = _fd_singular_value(params, gridpoints, index)
            assert abs(got - full) <= 3e-14 * full, index

    @pytest.mark.parametrize(
        "call, value",
        [
            # values of the full-matrix oracle on the nodes -D/2 + i*dx
            (lambda: sl_fd_oracle_extrapolated(ModelParams(3, -1.0, 2.0), 2048),
             1.682043320038573),
            (lambda: sl_fd_oracle(ModelParams(3, 0.5, 3.0), 256), 1.7844845420618511),
            (lambda: _fd_singular_value(ModelParams(10, -1.0, 20.0), 256, 3),
             3.745383718089407),
            (lambda: _fd_singular_value(ModelParams(2, 0.0, 1000.0), 2048, 2),
             0.0062831828430224175),
            (lambda: sl_fd_oracle_extrapolated(ModelParams(3, -100.0, 10.0), 256),
             2.9739184737145115e-41),
            # a lattice point (seed 0) whose value moved by 1.7e-14
            (lambda: sl_fd_oracle_extrapolated(ModelParams(4, 0.0, 0.5002181249573271), 2048),
             39.443995218517735),
        ],
    )
    def test_values_before_the_split(self, call, value):
        assert abs(call() - value) <= 3e-14 * value


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


def reference_step(sigma, x, u1, v0, v1, w1, w2, ex):
    """The Magnus step exp(Omega) of one table row, as (p11, p12, p21, p22)."""
    n11 = u1 * sigma - x
    n12 = v0 + v1 * sigma
    n21 = sigma * (w1 + w2 * sigma)
    d2 = n11 * n11 + n12 * n21
    if d2 < 0.0:
        w = math.sqrt(-d2)
        c = ex * math.cos(w)
        s = ex * math.sin(w) / w
    elif d2 > 0.0:
        d = math.sqrt(d2)
        em = math.expm1(d)
        inv = 1.0 / (1.0 + em)
        c = 0.5 * ex * (1.0 + em + inv)
        s = 0.5 * ex * em * (1.0 + inv) / d
    else:
        c = s = ex
    return c + n11 * s, n12 * s, n21 * s, c - n11 * s


def reference_count(params: ModelParams, sigma: float, steps: int, mode: int) -> int:
    """Sign changes of phi' from the early-exit march that stops past ``mode``."""
    _, table = _shooting_grid(params, steps)
    sigma = float(sigma)  # numpy scalar arithmetic is far slower
    phi, dphi = 0.0, 1.0
    rising = True
    count = 0
    for i in range(steps):
        p11, p12, p21, p22 = reference_step(sigma, *(column[i] for column in table))
        phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
        if (dphi > 0.0) == rising:
            if abs(dphi) > 1e200 or abs(phi) > 1e200:
                return count
        else:
            rising = not rising
            count += 1
            if count > mode:
                return count
    return count


def reference_level(params, tol_sigma, steps, hint, mode=0):
    """The plain bisection level: (mu, lo, hi, evaluations)."""

    def pred(sigma):
        return reference_count(params, sigma, steps, mode) <= mode

    evals = 0
    lo = hi = None
    if hint is not None:
        cand_lo, cand_hi = max(0.0, hint[0]), hint[1]
        evals += 2
        if pred(cand_lo) and not pred(cand_hi):
            lo, hi = cand_lo, cand_hi
    if lo is None:
        lo = 0.0
        hi = max(1.0, params.n * max(params.kappa, 0.0) + 4.0 * (math.pi / params.diameter) ** 2)
        while pred(hi):
            evals += 1
            lo, hi = hi, 2.0 * hi
        evals += 1
    while hi - lo > tol_sigma:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
        evals += 1
    return 0.5 * (lo + hi), lo, hi, evals


def reference_eigenvalue(params: ModelParams, tol: float):
    """first_eigenvalue's grid doubling over reference_level: (lo, hi, steps).

    Each level bisects to tol/1024, so its mu reads the grid eigenvalue
    rather than a point up to tol/16 off it.
    """
    steps, hint, mus = 32, None, []
    while True:
        mu, lo, hi, _ = reference_level(params, tol / 1024.0, steps, hint)
        mus.append(mu)
        deltas = [abs(b - a) for a, b in zip(mus[:-1], mus[1:])]
        if len(deltas) >= 2 and deltas[-1] < tol / 4 and deltas[-2] < 64 * tol / 4:
            return lo, hi, steps
        margin = max(64.0 * tol, 1e-6 * max(1.0, abs(mu)))
        hint = (lo - margin, hi + margin)
        steps *= 2


class TestIllinoisLevel:
    """The bracketing loop keeps bisection's grids and brackets in fewer calls."""

    NAMED = [ModelParams(3, -1.0, 2.0), ModelParams(3, 0.5, 3.0), ModelParams(4, -0.7, 2.5)]

    @pytest.mark.parametrize("seed", [1, 2, None])
    def test_same_grids_and_brackets_as_bisection(self, seed):
        for params in spectrum_lattice(seed) if seed else self.NAMED:
            res = first_eigenvalue(params, 1e-9)
            lo, hi, steps = reference_eigenvalue(params, 1e-9)
            assert res.steps == steps
            assert max(res.bracket_lo, lo) <= min(res.bracket_hi, hi)
            assert res.bracket_hi - res.bracket_lo <= 1e-9 / 8
            assert res.iterations <= 8

    @pytest.mark.parametrize("seed", [1, 2, None])
    def test_predicted_hint_leaves_few_final_trials(self, seed):
        points = spectrum_lattice(seed) if seed else self.NAMED
        iterations = [first_eigenvalue(params, 1e-9).iterations for params in points]
        assert max(iterations) <= 4
        # a hint that holds the eigenvalue is narrow enough to need no trial
        assert sum(iterations) <= 2.5 * len(iterations)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_wrong_hints_step_outward(self, mode):
        steps, tol_sigma = 256, 1e-9 / 8
        for params in self.NAMED:
            mu = _bisect_level(params, 1e-6, steps, None, mode)[0]
            w = tol_sigma
            hints = [
                (mu - 1e-6 - w, mu - 1e-6),  # wholly below
                (0.5 * mu, 0.5 * mu + w),
                (mu + 1e-6, mu + 1e-6 + w),  # wholly above
                (100.0 * mu, 100.0 * mu + w),
            ]
            for hint in hints:
                _, lo, hi, evals = _bisect_level(params, tol_sigma, steps, hint, mode)
                assert reference_count(params, lo, steps, mode) <= mode
                assert reference_count(params, hi, steps, mode) > mode
                assert 0.0 < hi - lo <= tol_sigma
                assert evals < 64

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_sigma_at_or_below_zero_is_never_shot(self, monkeypatch, mode):
        steps, tol_sigma = 256, 1e-9 / 8
        shoot = specgap.sturm._shoot
        sigmas = []

        def spy(*args):
            sigmas.append(args[0])
            return shoot(*args)

        monkeypatch.setattr(specgap.sturm, "_shoot", spy)
        for params in self.NAMED:
            mu = _bisect_level(params, 1e-6, steps, None, mode)[0]
            # hints whose lower end clamps to sigma = 0, and no hint
            for hint in [(-1.0, 0.5 * mu), (0.0, 2.0 * mu), None]:
                sigmas.clear()
                _, lo, hi, evals = _bisect_level(params, tol_sigma, steps, hint, mode)
                assert min(sigmas) > 0.0
                assert evals == len(sigmas)
                assert reference_count(params, lo, steps, mode) <= mode
                assert reference_count(params, hi, steps, mode) > mode
                assert 0.0 < hi - lo <= tol_sigma

    def test_sigma_cap_raises_ill_posed(self, monkeypatch):
        # the mode-2 eigenvalue here is about 61, above the lowered cap
        monkeypatch.setattr(specgap.sturm, "_SIGMA_CAP", 30.0)
        params = ModelParams(3, -1.0, 2.0)
        for hint in [None, (10.0, 11.0)]:
            with pytest.raises(NonConvergenceError, match="ill-posed"):
                _bisect_level(params, 1e-9 / 8, 256, hint, 2)

    @pytest.mark.parametrize("diameter", [1e-300, 1e-200, 1e-160])
    def test_tiny_diameter_raises_ill_posed(self, diameter):
        # mu = pi^2/D^2 overflows below D ~ 2.3e-154: the unit-size level is
        # solved, and scaling its mu back leaves the double range
        with pytest.raises(NonConvergenceError, match="is outside the double range"):
            first_eigenvalue(ModelParams(3, 0.0, diameter), 1e-9)

    def test_unhinted_level_needs_a_third_of_the_bisection_trials(self):
        # plain bisection spends 36-53 trials here; Illinois halving is worth
        # about a fifth of what remains
        points = [*spectrum_lattice(1), *spectrum_lattice(2), *self.NAMED]
        evals = [
            _bisect_level(params, 1e-9 / 8, 128, None, mode)[3]
            for params in points
            for mode in range(3)
        ]
        assert max(evals) <= 18
        assert sum(evals) <= 12 * len(evals)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_count_decides_the_predicate_as_the_early_exit_march(self, mode):
        rng = np.random.default_rng(mode)
        for params in [*self.NAMED, ModelParams(10, -1.0, 20.0), ModelParams(2, 0.0, 1000.0)]:
            steps = 256
            mu_mode = _bisect_level(params, 1e-6, steps, None, mode)[0]
            _, table = _shooting_grid(params, steps)
            sigmas = [0.0, mu_mode, *(mu_mode * rng.uniform(0.0, 3.0, size=24))]
            for sigma in sigmas:
                count, end = _shoot(sigma, steps, table, mode)
                assert (count <= mode) == (reference_count(params, sigma, steps, mode) <= mode)
                if count <= mode + 1 and math.isfinite(end):
                    assert end == integrate_phi(params, sigma, steps).dphi[-1]

    @pytest.mark.parametrize("end", ["nan", "inf", "constant", "wrong_sign", "skewed"])
    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("hinted", [False, True])
    def test_bad_end_values_keep_a_valid_bracket(self, monkeypatch, end, mode, hinted):
        params = ModelParams(3, -1.0, 2.0)
        steps, tol_sigma = 256, 1e-9 / 8
        mu, _, _, _ = reference_level(params, 1e-6, steps, None, mode)
        hint = (mu - 1e-4, mu + 1e-4) if hinted else None
        _, plain_lo, plain_hi, plain = reference_level(params, tol_sigma, steps, hint, mode)
        shoot = specgap.sturm._shoot

        def fake(*args):
            count, value = shoot(*args)
            passes = count <= args[3]
            return count, {
                "nan": math.nan,
                "inf": math.inf,
                "constant": 1.0,
                "wrong_sign": -value,
                # secant points pile up at lo: only the safeguard halves the bracket
                "skewed": value * (1e-200 if passes else 1e200),
            }[end]

        monkeypatch.setattr(specgap.sturm, "_shoot", fake)
        _, lo, hi, evals = _bisect_level(params, tol_sigma, steps, hint, mode)
        assert 0.0 < hi - lo <= tol_sigma
        assert reference_count(params, lo, steps, mode) <= mode
        assert reference_count(params, hi, steps, mode) > mode
        if end == "skewed":
            # two clamped trials and one midpoint at worst per halving
            assert evals <= 3 * plain
        else:
            # no usable end value: every trial is the midpoint, as in bisection
            assert (lo, hi, evals) == (plain_lo, plain_hi, plain)

    def test_evaluations_count_every_predicate_call(self, monkeypatch):
        calls = []
        shoot = specgap.sturm._shoot
        level = specgap.sturm._bisect_level
        levels = []

        def count_calls(*args):
            calls.append(args[0])
            return shoot(*args)

        def record_level(*args):
            out = level(*args)
            levels.append(out[3])
            return out

        monkeypatch.setattr(specgap.sturm, "_shoot", count_calls)
        monkeypatch.setattr(specgap.sturm, "_bisect_level", record_level)
        res = first_eigenvalue(ModelParams(3, -1.0, 2.0), 1e-9)
        assert len(levels) >= 3
        assert res.evaluations == len(calls) == sum(levels)
        assert res.iterations == levels[-1]


def reference_shoot(sigma, steps, table, mode, phis=None, dphis=None):
    """Reference Magnus kernel: indexes the table per step and forms the step matrix first."""
    sigma = float(sigma)
    record = phis is not None
    limit = steps if record else mode + 1
    big = math.inf if record else 1e200
    phi, dphi = 0.0, 1.0
    rising = True
    count = 0
    for i in range(steps):
        p11, p12, p21, p22 = reference_step(sigma, *(column[i] for column in table))
        phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
        if record:
            phis[i + 1] = phi
            dphis[i + 1] = dphi
        if (dphi > 0.0) == rising:
            if dphi > big or phi > big or phi < -big:
                return count, math.nan
        else:
            rising = not rising
            count += 1
            if count > limit:
                return count, math.nan
    return count, dphi


def reference_sv_count(c2, x):
    """Reference Sturm count: tests each pivot for zero before dividing."""
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


def reference_exponent(params: ModelParams, steps: int, sigma: float) -> list[np.ndarray]:
    """Omega of every step from its commutator form, as 2x2 numpy matrices.

    Sixth order (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009, three
    Gauss points) where h*max|a| <= pi at those points, fourth order (two
    Gauss points) elsewhere.
    """
    h = params.half_diameter / steps

    def a(t):
        return (params.n - 1) * tk(params.kappa, t)

    def mat(t):
        return np.array([[0.0, 1.0], [-sigma, a(t)]])

    def comm(p, q):
        return p @ q - q @ p

    omegas = []
    for j in range(steps):
        r = math.sqrt(15.0) / 10.0
        nodes = [j * h + (0.5 - r) * h, j * h + 0.5 * h, j * h + (0.5 + r) * h]
        if h * max(abs(a(t)) for t in nodes) <= math.pi:
            a1, a2, a3 = map(mat, nodes)
            b1 = h * a2
            b2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
            b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
            c1 = comm(b1, b2)
            c2 = -comm(b1, 2.0 * b3 + c1) / 60.0
            omegas.append(b1 + b3 / 12.0 + comm(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0)
        else:
            r = math.sqrt(3.0) / 6.0
            a1, a2 = mat(j * h + (0.5 - r) * h), mat(j * h + (0.5 + r) * h)
            omegas.append(0.5 * h * (a1 + a2) + (r / 2.0) * h * h * comm(a2, a1))
    return omegas


class TestSixthOrderKernel:
    """Omega^[6] from a 32-step start, with fourth-order steps outside the Magnus disc."""

    NEAR_POLE = ModelParams(80, 1.0, math.pi * (1.0 - 1e-10))

    @pytest.mark.parametrize(
        "params, steps",
        [(ModelParams(3, -1.0, 2.0), 32), (ModelParams(8, -81.45, 0.3007), 32),
         (ModelParams(9, 12.01, 0.8362), 64), (NEAR_POLE, 32), (ModelParams(2, 1.0, 3.14), 64)],
        ids=lambda v: "%g,%g,%g" % (v.n, v.kappa, v.diameter) if isinstance(v, ModelParams) else v,
    )
    def test_table_is_the_magnus_exponent(self, params, steps):
        # Omega is quadratic in sigma: three sigmas pin every column
        _, table = _shooting_grid(params, steps)
        for sigma in (0.5, 7.0, 300.0):
            for row, omega in zip(zip(*table), reference_exponent(params, steps, sigma)):
                x, u1, v0, v1, w1, w2, ex = row
                n11 = u1 * sigma - x
                got = np.array([[x + n11, v0 + v1 * sigma], [sigma * (w1 + w2 * sigma), x - n11]])
                scale = np.max(np.abs(omega))
                np.testing.assert_allclose(got, omega, rtol=0, atol=1e-14 * scale)
                assert ex == pytest.approx(math.exp(x), rel=1e-15)

    def test_near_pole_grid_mixes_both_orders(self):
        # a = 79*tan(s) on h = pi/64: from step 13 of 32 on, h*max|a| > pi
        _, table = _shooting_grid(self.NEAR_POLE, 32)
        fallback = [u1 == v1 == w2 == 0.0 for u1, v1, w2 in zip(table[1], table[3], table[5])]
        assert fallback == [False] * 13 + [True] * 19

    def test_drift_free_level_is_exact_on_32_steps(self):
        # at kappa = 0 every commutator column is 0 and each step is a rotation
        mu = _bisect_level(ModelParams(3, 0.0, 2.0), 1e-13, 32, None)[0]
        assert abs(mu - math.pi**2 / 4.0) < 1e-12

    def test_level_error_falls_as_h6(self):
        params = ModelParams(9, 12.01, 0.836)
        fine = _bisect_level(params, 1e-14, 4096, None)[0]
        errors = [abs(_bisect_level(params, 1e-14, m, None)[0] - fine) for m in (32, 64, 128)]
        # 64x per doubling is the h^6 law; the fourth-order step gave 16x
        assert errors[0] > 40.0 * errors[1] > 1600.0 * errors[2]

    def test_fallback_keeps_coarse_levels_near_the_pole(self):
        # pure Omega^[6] read 0.119, 0.476, 1.90, ... here at 32, 64, 128 steps
        start = time.perf_counter()
        res = first_eigenvalue(self.NEAR_POLE, 1e-9)
        assert time.perf_counter() - start < 1.0
        assert all(abs(level.mu - 80.0) < 1e-5 * 80.0 for level in res.levels)
        assert abs(res.mu - 80.0) < 1e-9


class TestScalarKernels:
    """The shooting and Sturm-count loops keep every IEEE operation of the reference loops."""

    POINTS = [
        ModelParams(3, -1.0, 2.0),
        ModelParams(8, -81.45, 0.3007),
        ModelParams(10, -1.0, 20.0),
        ModelParams(9, 12.01, 0.8362),
    ]

    @pytest.mark.parametrize(
        "params", POINTS, ids=lambda p: "%g,%g,%g" % (p.n, p.kappa, p.diameter)
    )
    @pytest.mark.parametrize("steps", [128, 1024])
    def test_shoot_is_the_reference_kernel(self, params, steps):
        mu = sl_fd_oracle(params, 256)
        h, table = _shooting_grid(params, steps)
        traj = integrate_phi(params, mu, steps)
        phis, dphis = np.zeros(steps + 1), np.ones(steps + 1)
        reference_shoot(mu, steps, table, 0, phis, dphis)
        assert np.array_equal(traj.phi, phis)
        assert np.array_equal(traj.dphi, dphis)
        rng = np.random.default_rng(steps)
        sigmas = [0.0, mu, *(mu * rng.uniform(0.0, 3.0, size=24)), 1e4 / h**2]
        for mode in range(3):
            for sigma in sigmas:
                count, end = _shoot(sigma, steps, table, mode)
                ref_count, ref_end = reference_shoot(sigma, steps, table, mode)
                assert count == ref_count
                assert end == ref_end or (math.isnan(end) and math.isnan(ref_end))

    @pytest.mark.parametrize("steps", [128, 1024])
    def test_blowup_stops_the_march(self, steps):
        # next to the Bonnet-Myers pole the drift (n-1)*tk drives phi' past
        # the double range without a sign change
        params = ModelParams(80, 1.0, math.pi * (1.0 - 1e-10))
        _, table = _shooting_grid(params, steps)
        assert not np.max(integrate_phi(params, 1e-3, steps).dphi) < 1e200
        count, end = _shoot(1e-3, steps, table, 2)
        assert count == 0 and math.isnan(end)  # stopped by the blow-up test
        assert reference_shoot(1e-3, steps, table, 2)[0] == 0

    @pytest.mark.parametrize(
        "params",
        # expm1: e^d of the first step is past expm1's range (x is about
        # -3711).  cos: at kappa = 0 the drift columns are 0 and h is about
        # 2e154, so k^2 - h^2 overflows to -inf, d^2 = -inf and cos(inf)
        # raises
        [ModelParams(20, -1.0, 1e5), ModelParams(3, 0.0, 5e156)],
        ids=["expm1", "cos"],
    )
    def test_unrepresentable_step_marches_on_in_nan(self, params):
        _, table = _shooting_grid(params, 128)
        for mode in range(3):
            count, end = _shoot(1.0, 128, table, mode)
            assert count == 1 and math.isnan(end)  # a NaN phi' is not positive
        traj = integrate_phi(params, 1.0, 128)
        assert (traj.phi[0], traj.dphi[0]) == (0.0, 1.0)
        assert np.all(np.isnan(traj.phi[1:])) and np.all(np.isnan(traj.dphi[1:]))

    @pytest.mark.parametrize(
        "c2, x",
        [
            ([1.0, 1.0], 1.0),  # q_1 = -1 - 1/(-1) is exactly 0.0
            ([0.0, 1.0, 2.0], 0.0),  # q_0 = -0.0 and q_1 = -0.0 - 0.0/1e-300 = -0.0
            ([1.0, math.nan, 1.0], 0.5),
            ([1.0, 4.0, 9.0], -2.0),
            ([1.0, 4.0, 9.0], -0.0),
        ],
    )
    def test_sv_count_edge_pivots(self, c2, x):
        assert _sv_count(c2, x) == reference_sv_count(c2, x)

    def test_sv_count_next_to_a_root(self):
        params = spectrum_lattice(1)[3]
        c2, _ = fd_blocks(_fd_flux_factor(params, 4096))
        assert len(c2) == 4095
        root = _fd_singular_value(params, 4096, 1)
        rng = np.random.default_rng(0)
        counts = set()
        for x in root * (1.0 + 1e-13 * rng.uniform(-1.0, 1.0, size=200)):
            count = _sv_count(c2, x)
            assert count == reference_sv_count(c2, x)
            counts.add(count)
        assert len(counts) == 2  # the draws straddle the root

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fine_oracle_solve_takes_one_newton_guess_and_few_counts(self, monkeypatch, seed):
        newton, count = specgap.sturm._newton_singular_value, specgap.sturm._sv_count
        guesses, counts, proofs = [], [], []

        def newton_spy(c2, x):
            out = newton(c2, x)
            if len(c2) == 4095:
                guesses.append(abs(x - out) / out)
            return out

        def count_spy(c2, x):
            if len(c2) == 4095:  # the odd block, which holds sigma_1
                counts[-1] += 1
            elif len(c2) == 4096:
                proofs[-1] += 1
            return count(c2, x)

        monkeypatch.setattr(specgap.sturm, "_newton_singular_value", newton_spy)
        monkeypatch.setattr(specgap.sturm, "_sv_count", count_spy)
        for params in spectrum_lattice(seed):
            counts.append(0)
            proofs.append(0)
            sl_fd_oracle_extrapolated(params, 2048)
        # the h^2 seed; the coarse value that seeded this solve before was 2e-6 off
        assert len(guesses) == len(counts) == 9
        assert max(guesses) < 1e-8
        assert sum(counts) <= 32
        assert max(counts) <= 5
        assert proofs == [1] * 9  # one count of the even block proves the solve
