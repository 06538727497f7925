import math
import warnings

import numpy as np
import pytest

from specgap import PoleError, ck, sk, tk
from specgap.specialfn import tk_array

# kappa/tau lattices for identity checks; tk poles (kappa > 0 only) are at
# |s| = (2m+1)*pi/(2*sqrt(kappa)), avoided below where tk is evaluated.
KAPPAS = np.linspace(-4.0, 4.0, 33)
TAUS = np.linspace(-3.0, 3.0, 25)


def test_ck_branch_values():
    assert ck(0.0, 7.3) == 1.0
    assert abs(ck(1.0, math.pi / 2)) < 1e-12
    assert ck(-1.0, 0.0) == 1.0


def test_sk_branch_values():
    assert sk(0.0, 2.5) == 2.5
    assert abs(sk(1.0, math.pi / 2) - 1.0) < 1e-12
    assert abs(sk(4.0, math.pi / 4) - 0.5) < 1e-12


def test_tk_branch_values():
    assert tk(0.0, 1.0) == 0.0
    assert abs(tk(1.0, math.pi / 4) - 1.0) < 1e-12
    assert tk(-1.0, 0.0) == 0.0


def test_tk_closed_forms():
    assert tk(2.0, 0.3) == pytest.approx(math.sqrt(2) * math.tan(math.sqrt(2) * 0.3), rel=1e-14)
    assert tk(-2.0, 0.3) == pytest.approx(-math.sqrt(2) * math.tanh(math.sqrt(2) * 0.3), rel=1e-14)


def test_pythagorean_identity_on_lattice():
    # tolerance is relative to the cancelling terms: for kappa = -4, tau = 3
    # they reach ~4e4, so a fixed absolute 1e-12 would demand ~1e-17 relative
    for kappa in KAPPAS:
        for tau in TAUS:
            c = ck(kappa, tau)
            s = sk(kappa, tau)
            scale = max(1.0, c * c, abs(kappa) * s * s)
            assert abs(c * c + kappa * s * s - 1.0) <= 1e-12 * scale


def test_derivative_identities_by_central_differences():
    h = 1e-5
    for kappa in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for tau in np.linspace(-2.0, 2.0, 9):
            dsk = (sk(kappa, tau + h) - sk(kappa, tau - h)) / (2 * h)
            dck = (ck(kappa, tau + h) - ck(kappa, tau - h)) / (2 * h)
            assert dsk == pytest.approx(ck(kappa, tau), abs=1e-8)
            assert dck == pytest.approx(-kappa * sk(kappa, tau), abs=1e-8)


def test_continuity_across_kappa_zero():
    for tau in TAUS:
        for kappa in (1e-8, -1e-8):
            assert abs(ck(kappa, tau) - ck(0.0, tau)) <= 1e-7
            assert abs(sk(kappa, tau) - sk(0.0, tau)) <= 1e-7


def test_parity():
    for kappa in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for tau in (0.1, 0.7, 1.3, 2.9):
            assert abs(sk(kappa, -tau) + sk(kappa, tau)) < 1e-14 * max(1.0, abs(sk(kappa, tau)))
            assert abs(ck(kappa, -tau) - ck(kappa, tau)) < 1e-14 * max(1.0, abs(ck(kappa, tau)))
            if kappa <= 0 or math.sqrt(kappa) * tau < 1.5:
                assert abs(tk(kappa, -tau) + tk(kappa, tau)) < 1e-12 * max(1.0, abs(tk(kappa, tau)))


def test_small_kappa_series_matches_exact_branch():
    # at |kappa|*tau^2 ~ 1e-8 the closed forms match the two-term series in
    # kappa to an ulp: no series branch is needed next to kappa = 0
    tau = 1.0
    for kappa in (9.9e-9, 1.01e-8, -9.9e-9, -1.01e-8):
        assert ck(kappa, tau) == pytest.approx(1.0 - kappa / 2.0, abs=1e-15)
        assert sk(kappa, tau) == pytest.approx(1.0 - kappa / 6.0, abs=1e-15)


def test_tk_pole_detection():
    with pytest.raises(PoleError):
        tk(1.0, math.pi / 2)
    with pytest.raises(PoleError):
        tk(4.0, math.pi / 4)


def test_array_versions_match_scalars():
    # the scalar tk is a one-point call of tk_array: equal bit for bit
    taus = np.linspace(-2.5, 2.5, 41)
    for kappa in (-1.5, 0.0, 0.3):
        np.testing.assert_array_equal(tk_array(kappa, taus), [tk(kappa, t) for t in taus])


@pytest.mark.parametrize("kappa", [-1.0, -4.0, -0.25])
def test_tk_finite_past_cosh_overflow(kappa):
    # tk = -rt*tanh(rt*s) is bounded; cosh and sinh overflow at rt*|s| ~ 710
    rt = math.sqrt(-kappa)
    s = np.array([-800.0, -1.0, 0.0, 1.0, 700.0, 800.0]) / rt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = tk_array(kappa, s)
        scalars = [tk(kappa, x) for x in (-800.0 / rt, 800.0 / rt)]
        assert ck(kappa, 800.0 / rt) == math.inf
        assert sk(kappa, -800.0 / rt) == -math.inf
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, -rt * np.tanh(rt * s), rtol=1e-15)
    assert scalars == [rt, -rt]


def test_tk_array_pole_detection():
    with pytest.raises(PoleError):
        tk_array(1.0, np.linspace(0.0, math.pi / 2, 9))


@pytest.mark.parametrize("j", [0, 100, 200])
def test_tk_array_pole_test_is_scale_free(j):
    # (kappa*4^j, s/2^j): tk scales by 2^j exactly, and the pole stays a pole
    s = np.linspace(0.0, 1.5, 7)
    scaled = tk_array(math.ldexp(1.0, 2 * j), np.ldexp(s, -j))
    np.testing.assert_array_equal(np.ldexp(scaled, -j), tk_array(1.0, s))
    with pytest.raises(PoleError):
        tk_array(math.ldexp(1.0, 2 * j), np.array([math.ldexp(math.pi / 2, -j)]))


@pytest.mark.parametrize("kappa", [0.3, 2.0, 4.0**100])
def test_tk_array_is_the_tan_closed_form(kappa):
    # one tan call, bit for bit
    rt = math.sqrt(kappa)
    s = np.linspace(-1.5, 1.5, 97) / rt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(tk_array(kappa, s), rt * np.tan(rt * s))


def test_tk_array_flat_is_exact_zeros():
    s = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = tk_array(0.0, s)
    assert values.shape == s.shape and values.dtype == float
    assert not np.any(values)


@pytest.mark.parametrize("kappa", [1.0, 4.0**100])
def test_tk_array_pole_threshold(kappa):
    # |tan| passes 1e12 between 1e-13 and 1e-11 relative below the pole
    pole = math.pi / (2.0 * math.sqrt(kappa))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleError):
            tk_array(kappa, np.array([0.0, pole * (1.0 - 1e-13)]))
        near = tk_array(kappa, np.array([pole * (1.0 - 1e-11)]))
    assert np.all(np.isfinite(near)) and near[0] > 0
