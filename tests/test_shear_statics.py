"""Mohr circle, pond stresses, load decomposition, failure criteria."""

import math
import sys

import numpy as np
import pytest

from logstrain.shear_statics import (cauchy_quadrics, failure_criteria,
                                     mohr_circle, pond_stress_components,
                                     traction_on_line)


def in_plane_normal(phi):
    return np.array([math.cos(phi), math.sin(phi), 0.0])


# ---------------------------------------------------------------------------
# Mohr circle

def test_mohr_principal_stresses():
    q, alpha = 1.0, 2.0
    mohr = mohr_circle(q, alpha)
    assert mohr.sigma1 == pytest.approx(-0.5, abs=1e-15)
    assert mohr.sigma2 == pytest.approx(2.0, abs=1e-15)
    assert mohr.sigma_m == pytest.approx(0.75, abs=1e-15)
    assert mohr.radius == pytest.approx(1.25, abs=1e-15)
    assert mohr.s == pytest.approx(0.75, abs=1e-15)
    assert mohr.psi == pytest.approx(math.atan(0.5), abs=1e-15)
    assert mohr.theta == pytest.approx(math.pi / 4.0, abs=1e-16)


def test_mohr_center_is_q_times_shear_amount():
    for alpha in (1.2, 2.0, 5.0, 10.0):
        for q in (0.5, 1.0, 3.0):
            mohr = mohr_circle(q, alpha)
            assert mohr.sigma_m == pytest.approx(q * mohr.s, rel=1e-14, abs=0)
            assert mohr.sigma_m \
                == pytest.approx(0.5 * (mohr.sigma1 + mohr.sigma2),
                                 rel=1e-14, abs=0)


def test_mohr_limit_alpha_to_one():
    mohr = mohr_circle(1.0, 1.0 + 1e-9)
    assert abs(mohr.sigma_m) < 1e-8
    assert mohr.psi == pytest.approx(math.pi / 4.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.01, 2.0, 1e3, 1e6, 1e8,
                                   1e154, 1e300])
def test_mohr_psi_against_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = mpmath.acot(mpmath.mpf(alpha))
        psi = mohr_circle(1.0, alpha).psi
        assert abs(mpmath.mpf(psi) - ref) <= 2 * math.ulp(float(ref))


def test_mohr_psi_matches_the_acos_form(rng):
    # arccos((alpha**2 - 1)/(alpha**2 + 1))/2 loses about eps * alpha**2
    # relative to rounding near arccos(1), so it is a reference only for
    # moderate alpha
    for alpha in np.exp(rng.uniform(math.log(1.01), math.log(10.0), 200)):
        psi_acos = 0.5 * math.acos((alpha ** 2 - 1.0) / (alpha ** 2 + 1.0))
        assert mohr_circle(1.0, alpha).psi == pytest.approx(psi_acos,
                                                            rel=1e-13, abs=0)


def test_mohr_psi_range():
    for alpha in (1.01, 2.0, 100.0):
        psi = mohr_circle(1.0, alpha).psi
        assert 0.0 < psi < math.pi / 4.0


def test_mohr_rejects_alpha_leq_one():
    with pytest.raises(ValueError):
        mohr_circle(1.0, 1.0)
    with pytest.raises(ValueError):
        mohr_circle(1.0, 0.5)


# ---------------------------------------------------------------------------
# stresses on the plane of no distortion

def test_pond_components():
    xi, eta, xieta = pond_stress_components(3.0, 2.0)
    assert xi == 0.0
    assert eta == pytest.approx(4.5, abs=1e-15)
    assert xieta == pytest.approx(3.0, abs=1e-15)


def test_pond_shear_stress_independent_of_alpha():
    for alpha in (1.5, 2.0, 7.0):
        assert pond_stress_components(2.5, alpha)[2] == 2.5


def test_pond_eta_vanishes_at_alpha_one():
    assert pond_stress_components(1.0, 1.0 + 1e-12)[1] \
        == pytest.approx(0.0, abs=1e-11)


def test_pond_components_match_tensor_rotation():
    # rotating diag(sigma1, sigma2) by psi must reproduce the components
    for alpha in (1.3, 2.0, 4.0):
        q = 1.7
        mohr = mohr_circle(q, alpha)
        c, s = math.cos(mohr.psi), math.sin(mohr.psi)
        rot = np.array([[c, -s], [s, c]])
        sigma = rot.T @ np.diag([mohr.sigma1, mohr.sigma2]) @ rot
        xi, eta, xieta = pond_stress_components(q, alpha)
        assert sigma[0, 0] == pytest.approx(xi, abs=1e-12)
        assert sigma[1, 1] == pytest.approx(eta, abs=1e-12)
        assert sigma[0, 1] == pytest.approx(xieta, abs=1e-12)


# ---------------------------------------------------------------------------
# traction decomposition

def test_resultant_load_constant(rng):
    q, alpha = 2.0, 3.0
    for _ in range(1000):
        n = in_plane_normal(rng.uniform(0.0, 2.0 * math.pi))
        dec = traction_on_line(q, alpha, n)
        assert dec.r2 == pytest.approx(q ** 2, rel=1e-12, abs=0)
        assert dec.t2 == pytest.approx(dec.r2 - dec.n2, abs=1e-12)
        assert dec.t2 >= -1e-12


def test_pond_normal_maximizes_tangential_load():
    q, alpha = 1.0, 2.0
    pond = in_plane_normal(math.atan2(1.0, alpha))  # n1 = alpha * n2
    dec = traction_on_line(q, alpha, pond)
    assert dec.n2 == pytest.approx(0.0, abs=1e-14)
    assert dec.t2 == pytest.approx(q ** 2, rel=1e-13, abs=0)
    # grid search: nothing beats the pond normals (there are two)
    best_phi, best_t2 = None, -1.0
    for phi in np.linspace(0.0, math.pi, 2001):
        t2 = traction_on_line(q, alpha, in_plane_normal(phi)).t2
        assert t2 <= q ** 2 + 1e-12
        if t2 > best_t2:
            best_phi, best_t2 = phi, t2
    pond_phi = math.atan2(1.0, alpha)
    assert min(abs(best_phi - pond_phi),
               abs(best_phi - (math.pi - pond_phi))) < 2e-3


def test_axis_normal_is_pure_normal_load():
    q, alpha = 1.3, 2.0
    dec = traction_on_line(q, alpha, np.array([1.0, 0.0, 0.0]))
    assert dec.n2 == pytest.approx(q ** 2, rel=1e-13, abs=0)
    assert dec.t2 == pytest.approx(0.0, abs=1e-13)


def test_max_tangential_stress_plane_differs_from_pond():
    # the 45-degree plane maximizes tangential *stress*; for alpha > 1 it
    # is not the plane of maximum tangential *load*
    alpha, q = 2.0, 1.0
    sigma = (-q / alpha, q * alpha, 0.0)
    best_phi, best_t2 = None, -1.0
    for phi in np.linspace(0.0, math.pi / 2.0, 2001):
        _, _, t2 = cauchy_quadrics(sigma, in_plane_normal(phi))
        if t2 > best_t2:
            best_phi, best_t2 = phi, t2
    assert abs(best_phi - math.pi / 4.0) < 2e-3
    pond_phi = math.atan2(1.0, alpha)
    assert abs(best_phi - pond_phi) > 0.1


@pytest.mark.parametrize("q", [1.0, 2.5])
def test_traction_against_mpmath(q):
    # the load on the cut of normal (0.6, 0.8, 0), from alpha**2
    # underflowing (1e-160) to overflowing (1e155) and across the range:
    # R**2 = Q**2, N**2 = (Q r (alpha n2**2 - n1**2 / alpha))**2
    mpmath = pytest.importorskip("mpmath")
    n = in_plane_normal(math.atan2(0.8, 0.6))
    alphas = sorted({1e-160, 1e155, *np.geomspace(1e-300, 1e300, 61)})
    with mpmath.workdps(50):
        n1, n2, qq = mpmath.mpf(n[0]), mpmath.mpf(n[1]), mpmath.mpf(q)
        for alpha in alphas:
            a = mpmath.mpf(alpha)
            r = 1 / mpmath.sqrt((a * n2) ** 2 + (n1 / a) ** 2)
            ref_n2 = (qq * r * (a * n2 ** 2 - n1 ** 2 / a)) ** 2
            dec = traction_on_line(q, alpha, n)
            eps = sys.float_info.epsilon
            assert abs(dec.r2 - qq ** 2) <= 4 * eps * q ** 2, alpha
            assert abs(dec.n2 - ref_n2) <= 8 * eps * q ** 2, alpha
            assert abs(dec.t2 - (qq ** 2 - ref_n2)) <= 8 * eps * q ** 2, alpha


def test_traction_rejects_bad_normals():
    with pytest.raises(ValueError):
        traction_on_line(1.0, 2.0, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        traction_on_line(1.0, 2.0, np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# failure criteria

def test_failure_at_alpha_one():
    crit = failure_criteria(1.0, 1.0)
    assert crit.tresca == pytest.approx(2.0, abs=1e-15)
    assert crit.mises == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert crit.becker == 1.0


def test_failure_at_alpha_two():
    q = 1.0
    crit = failure_criteria(q, 2.0)
    assert crit.tresca == pytest.approx(2.5, abs=1e-15)
    assert crit.mises == pytest.approx(math.sqrt(5.25), abs=1e-15)
    assert crit.becker == 1.0


def test_failure_ordering_strict():
    for alpha in (0.5, 1.0, 2.0, 10.0):
        crit = failure_criteria(2.0, alpha)
        assert crit.becker < crit.mises < crit.tresca


def test_failure_q_scale():
    crit = failure_criteria(3.0, 2.0, q_scale=1.0 / 3.0)
    assert crit.becker == pytest.approx(1.0, abs=1e-15)


def test_failure_rejects_nonpositive():
    with pytest.raises(ValueError):
        failure_criteria(-1.0, 2.0)
    with pytest.raises(ValueError):
        failure_criteria(1.0, 0.0)


# ---------------------------------------------------------------------------
# stress quadrics

def test_quadrics_principal_plane():
    r2, n, t2 = cauchy_quadrics((2.0, -1.0, 0.5), np.array([1.0, 0.0, 0.0]))
    assert r2 == pytest.approx(4.0, abs=1e-15)
    assert n == pytest.approx(2.0, abs=1e-15)
    assert t2 == pytest.approx(0.0, abs=1e-15)


def test_quadrics_hydrostatic_has_no_shear(rng):
    p = 1.8
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        _, n, t2 = cauchy_quadrics((p, p, p), v)
        assert n == pytest.approx(p, rel=1e-13, abs=0)
        assert t2 == pytest.approx(0.0, abs=1e-13)


def test_quadrics_shear_diagonal():
    n = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    r2, nn, t2 = cauchy_quadrics((1.0, -1.0, 0.0), n)
    assert t2 == pytest.approx(1.0, rel=1e-14, abs=0)
    assert nn == pytest.approx(0.0, abs=1e-15)
    assert r2 == pytest.approx(1.0, rel=1e-14, abs=0)


def test_quadrics_consistency_random(rng):
    for _ in range(500):
        s = rng.uniform(-3.0, 3.0, 3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        r2, n, t2 = cauchy_quadrics(s, v)
        assert t2 == pytest.approx(r2 - n ** 2, abs=1e-12 * max(1.0, r2))


def test_quadrics_rejects_non_unit():
    with pytest.raises(ValueError):
        cauchy_quadrics((1.0, 2.0, 3.0), np.array([1.0, 1.0, 0.0]))


def test_quadrics_reject_a_principal_that_is_not_a_triple():
    with pytest.raises(ValueError,
                       match="^principal must be a triple of stresses$"):
        cauchy_quadrics((1.0, 2.0), np.array([1.0, 0.0, 0.0]))


# alphas from just above 1, where alpha**2 - 1 cancels, to beyond
# 1.34e154, where alpha**2 overflows
_RATIOS = [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.1, 2.0, 3.7, 1e3, 1e100,
           1.34e154, 1e155, 1e300]


@pytest.mark.parametrize("q", [1.0, 2.5])
@pytest.mark.parametrize("alpha", _RATIOS)
def test_pond_sigma_eta_against_mpmath(q, alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        ref = mpmath.mpf(q) * (a * a - 1) / a
        eta = pond_stress_components(q, alpha)[1]
        assert abs(eta - ref) <= 2 * sys.float_info.epsilon * ref


@pytest.mark.parametrize("alpha", _RATIOS + [1.0, 1.0 - 1e-12, 0.5,
                                             1e-100, 1e-155, 1e-300])
def test_failure_mises_against_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        ref = 2.5 * mpmath.sqrt(a * a + 1 + 1 / (a * a))
        mises = failure_criteria(2.5, alpha).mises
        assert abs(mises - ref) <= 2 * sys.float_info.epsilon * ref
