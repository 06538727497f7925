import math

import numpy as np
import pytest

from specgap import (
    InvalidParamsError,
    ModelParams,
    asymptotic_slope,
    classical_bounds,
    shi_zhang_bound,
)


def shi_zhang_dense_sup(n: int, kappa: float, diameter: float) -> float:
    """Brute-force sup over a dense interior grid, independent of the closed form."""
    s = np.linspace(1e-7, 1.0 - 1e-7, 200001)
    return float(np.max(4.0 * s * (1.0 - s) * math.pi**2 / diameter**2 + (n - 1) * s * kappa))


class TestShiZhang:
    def test_closed_form_matches_dense_sup(self):
        for n, kappa, d in [
            (2, -1.0, 2.0),
            (3, 0.25, 2.0),
            (5, 0.5, 2.0),
            (3, -30.0, 2.0),   # vertex clamped to the left: sup -> 0
            (3, 50.0, math.pi / 8),  # vertex clamped to the right: sup -> (n-1)*kappa
        ]:
            closed = shi_zhang_bound(n, kappa, d)
            dense = shi_zhang_dense_sup(n, kappa, d)
            # the sup over the open interval may only be attained as a
            # one-sided limit, which the dense grid approaches from inside
            assert closed >= dense - 1e-12
            assert closed == pytest.approx(dense, abs=1e-5)

    def test_dominates_half_point_value(self):
        for n in (2, 3, 5):
            for kappa in (-2.0, -0.5, 0.0, 0.5, 2.0):
                d = 2.0
                half_value = math.pi**2 / d**2 + (n - 1) * kappa / 2.0
                assert shi_zhang_bound(n, kappa, d) >= half_value - 1e-14

    @pytest.mark.parametrize(
        "n, kappa, diameter",
        [(3, 0.0, 0.0), (3, 0.0, -1.0), (3, 0.0, math.nan), (3, 0.0, math.inf),
         (3, math.nan, 2.0), (3, math.inf, 2.0), (1, 0.0, 2.0), (2.5, 0.0, 2.0)],
    )
    def test_invalid_inputs_rejected(self, n, kappa, diameter):
        with pytest.raises(InvalidParamsError):
            shi_zhang_bound(n, kappa, diameter)


class TestClassicalBounds:
    def test_flat_case_everything_coincides(self):
        rep = classical_bounds(ModelParams(3, 0.0, math.pi), 1e-9)
        assert rep.zhong_yang == pytest.approx(1.0)
        assert rep.li_conjecture == pytest.approx(1.0)
        assert rep.shi_zhang == pytest.approx(1.0)
        assert rep.sharp_mu == pytest.approx(1.0, rel=1e-8)
        assert rep.lichnerowicz is None
        assert not rep.li_violated

    def test_sphere_limit_reaches_lichnerowicz(self):
        rep = classical_bounds(ModelParams(2, 1.0, math.pi * (1 - 1e-4)), 1e-4)
        assert rep.lichnerowicz == pytest.approx(2.0)
        assert rep.sharp_mu == pytest.approx(2.0, abs=5e-3)

    def test_linear_interpolation_bound_fails(self):
        rep = classical_bounds(ModelParams(2, 0.1, math.pi), 1e-9)
        assert rep.li_violated
        assert rep.li_conjecture - rep.sharp_mu > 0.1**2 / 10.0

    def test_lichnerowicz_absent_for_nonpositive_curvature(self):
        assert classical_bounds(ModelParams(2, -0.5, 2.0), 1e-7).lichnerowicz is None
        assert classical_bounds(ModelParams(2, 0.0, 2.0), 1e-7).lichnerowicz is None
        rep = classical_bounds(ModelParams(4, 0.25, 2.0), 1e-7)
        assert rep.lichnerowicz == pytest.approx(1.0)

    def test_bound_chain_on_lattice(self):
        for n in (2, 3, 5):
            for kappa in (-1.0, 0.0, 0.5):
                rep = classical_bounds(ModelParams(n, kappa, 2.0), 1e-9)
                half_value = rep.zhong_yang + (n - 1) * kappa / 2.0
                assert rep.sharp_mu >= rep.shi_zhang * (1.0 - 1e-8)
                assert rep.shi_zhang >= half_value * (1.0 - 1e-8)

    def test_continuity_at_zero_curvature(self):
        for kappa in (1e-6, -1e-6):
            rep = classical_bounds(ModelParams(3, kappa, 2.0), 1e-9)
            assert abs(rep.sharp_mu - math.pi**2 / 4.0) <= 1e-5

    def test_report_scales_covariantly(self):
        base = classical_bounds(ModelParams(3, 0.3, 2.0), 1e-9)
        for c in (0.5, 2.0):
            scaled = classical_bounds(ModelParams(3, 0.3 / c**2, c * 2.0), 1e-9)
            assert scaled.sharp_mu * c**2 == pytest.approx(base.sharp_mu, rel=1e-7)
            assert scaled.zhong_yang * c**2 == pytest.approx(base.zhong_yang, rel=1e-12)
            assert scaled.li_conjecture * c**2 == pytest.approx(base.li_conjecture, rel=1e-12)
            assert scaled.shi_zhang * c**2 == pytest.approx(base.shi_zhang, rel=1e-12)
            assert scaled.lichnerowicz * c**2 == pytest.approx(base.lichnerowicz, rel=1e-12)
            assert scaled.li_violated == base.li_violated


class TestAsymptoticSlope:
    def test_half_n_minus_one(self):
        assert asymptotic_slope(2, 1e-3, 1e-10) == pytest.approx(0.5, abs=1e-3)
        assert asymptotic_slope(3, 1e-3, 1e-10) == pytest.approx(1.0, abs=1e-3)

    def test_second_order_in_h(self):
        s_coarse = asymptotic_slope(2, 1e-2, 1e-10)
        s_mid = asymptotic_slope(2, 1e-3, 1e-10)
        s_fine = asymptotic_slope(2, 1e-4, 1e-10)
        assert abs(s_coarse - s_mid) >= abs(s_mid - s_fine)

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            asymptotic_slope(1, 1e-3, 1e-9)
        with pytest.raises(InvalidParamsError):
            asymptotic_slope(2, 0.1, 1e-9)
        with pytest.raises(InvalidParamsError):
            asymptotic_slope(2, 0.0, 1e-9)
