"""The logarithmic law, its relatives, energies and closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstrain import constitutive as laws
from logstrain import verify
from logstrain.constitutive import (LawId, becker_biot, becker_cauchy,
                                    becker_energy_nu0, becker_inverse,
                                    becker_kirchhoff, becker_pk1, becker_pk2,
                                    hencky_cauchy, hencky_energy,
                                    hencky_kirchhoff, hooke_biot,
                                    incompressible_uniaxial_hyper,
                                    incompressible_uniaxial_limit,
                                    linearized_inverse, linearized_law,
                                    simple_shear_sigma12, uniaxial_response)
from logstrain.errors import (LambdaNotZero, LogstrainError,
                              NotPositiveDefinite)
from logstrain.kinematics import simple_glide_F
from logstrain.moduli import Moduli
from logstrain.stresses import StressState, stress_convert
from logstrain.tensors import dev3, fro_norm, inner, mat_pow, tr
from logstrain.verify import random_rotation, random_spd

from conftest import LAPACK, patch_everywhere, rel_err

M = Moduli.from_g_lam(1.0, 0.5)
M0 = Moduli.from_g_lam(1.3, 0.0)


# ---------------------------------------------------------------------------
# the law and its inverse

def test_biot_of_pure_shear():
    alpha = 2.0
    t = becker_biot(np.diag([alpha, 1.0 / alpha, 1.0]), M)
    s = 2.0 * M.g * math.log(alpha)
    np.testing.assert_allclose(t, np.diag([s, -s, 0.0]), atol=1e-14)


def test_biot_of_dilation():
    lam = 1.7
    t = becker_biot(lam * np.eye(3), M)
    np.testing.assert_allclose(t, 3.0 * M.k * math.log(lam) * np.eye(3),
                               atol=1e-13)


def test_biot_of_identity_is_zero():
    np.testing.assert_allclose(becker_biot(np.eye(3), M), np.zeros((3, 3)),
                               atol=1e-15)


def test_spherical_part_stays_on_the_diagonal(rng):
    # lam sum_j ln s_j I is added after the frame product, so lam moves no
    # shear entry: at lam = 25 the shear entries of the principal product
    # with lam inside moved by up to 4.3e-15
    u = np.array([random_spd(rng) for _ in range(200)])
    off = ~np.eye(3, dtype=bool)
    for law in ("becker", "hencky-kirchhoff", "hencky-cauchy"):
        shear = TENSOR_MAPS[law](u, Moduli.from_g_lam(1.3, 0.0))[:, off]
        for lam in (0.5, 25.0):
            t = TENSOR_MAPS[law](u, Moduli.from_g_lam(1.3, lam))
            assert np.array_equal(t[:, off], shear), (law, lam)


def test_biot_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        becker_biot(np.diag([1.0, -0.5, 1.0]), M)


def test_inverse_closed_forms():
    np.testing.assert_allclose(becker_inverse(np.zeros((3, 3)), M),
                               np.eye(3), atol=1e-15)
    s = 0.8
    u = becker_inverse(np.diag([s, -s, 0.0]), M)
    np.testing.assert_allclose(
        u, np.diag([math.exp(s / (2 * M.g)), math.exp(-s / (2 * M.g)), 1.0]),
        atol=1e-14)
    a = -1.1
    u = becker_inverse(a * np.eye(3), M)
    np.testing.assert_allclose(u, math.exp(a / (3 * M.k)) * np.eye(3),
                               atol=1e-14)


# ---------------------------------------------------------------------------
# axioms as module-level invariants

def test_superposition_coaxial(rng):
    for _ in range(1000):
        q = random_rotation(rng)
        lam1 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        lam2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        u1 = q.T @ np.diag(lam1) @ q
        u2 = q.T @ np.diag(lam2) @ q
        lhs = becker_biot(u1 @ u2, M)
        rhs = becker_biot(u1, M) + becker_biot(u2, M)
        assert fro_norm(lhs - rhs) \
            <= 1e-10 * max(1.0, fro_norm(lhs), fro_norm(rhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lam1=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3,
                     max_size=3),
       lam2=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3,
                     max_size=3),
       angle=st.floats(min_value=0.0, max_value=math.pi))
def test_superposition_property(lam1, lam2, angle):
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    u1 = q.T @ np.diag(lam1) @ q
    u2 = q.T @ np.diag(lam2) @ q
    lhs = becker_biot(u1 @ u2, M)
    rhs = becker_biot(u1, M) + becker_biot(u2, M)
    assert fro_norm(lhs - rhs) \
        <= 1e-10 * max(1.0, fro_norm(lhs), fro_norm(rhs))


def test_inversion_symmetry(rng):
    for _ in range(300):
        u = random_spd(rng)
        lhs = becker_biot(mat_pow(u, -1), M)
        rhs = -becker_biot(u, M)
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(rhs))


def test_power_law(rng):
    for r in (-2.0, -0.5, 0.5, 2.0, math.pi):
        for _ in range(60):
            u = random_spd(rng, 0.1, 10.0)
            lhs = becker_biot(mat_pow(u, r), M)
            rhs = r * becker_biot(u, M)
            assert fro_norm(lhs - rhs) <= 1e-10 * max(1.0, fro_norm(rhs))


def test_isotropy(rng):
    for _ in range(300):
        u = random_spd(rng)
        q = random_rotation(rng)
        lhs = becker_biot(q.T @ u @ q, M)
        rhs = q.T @ becker_biot(u, M) @ q
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(rhs))


def test_inverse_round_trip(rng):
    for _ in range(1000):
        u = random_spd(rng)
        back = becker_inverse(becker_biot(u, M), M)
        assert fro_norm(back - u) <= 1e-10 * max(1.0, fro_norm(u))


@pytest.mark.parametrize("lam", [0.0, 0.5, 25.0])
def test_inverse_round_trip_bound(lam):
    # the bound in becker_inverse's docstring, over principal stretches
    # log-uniform in [0.05, 20]
    m = Moduli.from_g_lam(1.0, lam)
    u, = verify._draw(np.random.default_rng([20260810, 1]), 4000,
                      [verify._SPD])
    back = becker_inverse(becker_biot(u, m), m)
    err = np.linalg.norm(back - u, axis=(-2, -1)) \
        / np.linalg.norm(u, axis=(-2, -1))
    assert err.max() < 5e-14


@pytest.mark.parametrize("lam", [1e307, 5e307, 1.7e308])
def test_inverse_keeps_the_spherical_part_where_9k_overflows(lam):
    # at lam >= 1e307 the stress of diag(1.1, 1, 1) is spherical in floats,
    # lam ln(1.1) I, so the inverse gives back the dilation 1.1**(1/3) I;
    # from lam = 2e307 on 9 K overflows, and dividing by it gave I
    m = Moduli.from_g_lam(1.0, lam)
    back = becker_inverse(becker_biot(np.diag([1.1, 1.0, 1.0]), m), m)
    assert np.allclose(back, 1.1 ** (1.0 / 3.0) * np.eye(3), rtol=1e-15,
                       atol=1e-15)
    t = becker_biot(np.diag([1.1, 1.0, 1.0]), m)
    assert np.array_equal(becker_inverse(np.stack([t, t]), m)[1], back)


def test_inverses_keep_a_part_whose_modulus_product_overflows():
    # 2 G overflows at G = 1e308 (K = 6.7e305, nu = -0.97), and dividing by
    # it dropped the deviator: becker_inverse gave 1.01681 I; 9 K
    # overflows at lam = 5e307, and linearized_inverse gave 0
    mpmath = pytest.importorskip("mpmath")
    m = Moduli.from_g_lam(1e308, -6.6e307)
    loads = [2e305, -2e305, 1e305]
    with mpmath.workdps(40):
        g, k = mpmath.mpf(m.g), mpmath.mpf(m.k)
        trace = sum(map(mpmath.mpf, loads))
        expected = [float(mpmath.exp((x - trace / 3) / (2 * g)
                                     + trace / (9 * k))) for x in loads]
        k_huge = mpmath.mpf(Moduli.from_g_lam(1.0, 5e307).k)
        spherical = float(mpmath.mpf(3e307) / (9 * k_huge))
    back = becker_inverse(np.diag(loads), m)
    np.testing.assert_allclose(back, np.diag(expected), rtol=1e-15, atol=0)
    assert np.allclose(expected, [1.01765, 1.01562, 1.01715], rtol=1e-5)
    back = linearized_inverse(1e307 * np.eye(3), Moduli.from_g_lam(1.0, 5e307))
    np.testing.assert_allclose(back, spherical * np.eye(3), rtol=1e-15)
    assert spherical == pytest.approx(1.0 / 15.0, rel=1e-15, abs=0.0)
    # a finite product keeps the one-division bits
    sigma = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.1], [-0.2, 0.1, 0.25]])
    assert np.array_equal(linearized_inverse(sigma, M),
                          dev3(sigma) / (2.0 * M.g)
                          + tr(sigma) / (9.0 * M.k) * np.eye(3))


def test_forward_laws_keep_a_stress_whose_2g_overflows():
    # 2 G overflows at G = 1e308 (lam = -6.6e307, K = 6.7e305), while
    # 2 G e does not: the laws form 2 (G e), with the bits of (2 G) e
    # wherever 2 G is finite
    m = Moduli.from_g_lam(1e308, -6.6e307)
    u = np.diag([1.01, 1.0, 1.0])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g, lam = mpmath.mpf(m.g), mpmath.mpf(m.lam)
        for fn, strain in ((becker_biot, mpmath.log(mpmath.mpf(1.01))),
                           (hooke_biot, mpmath.mpf(1.01) - 1)):
            expected = [float(2 * g * strain + lam * strain),
                        float(lam * strain)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t = fn(u, m)
            np.testing.assert_allclose(np.diag(t), [expected[0]]
                                       + [expected[1]] * 2, rtol=1e-15)
    u = np.array([[1.2, 0.1, 0.0], [0.1, 0.9, 0.05], [0.0, 0.05, 1.1]])
    for g in (1.0, 3.7e-5, 8.9e307):
        for lam in (0.0, 0.5, -g / 2):
            m = Moduli.from_g_lam(g, lam)
            e = 0.5 * (u + u.T) - np.eye(3)
            assert np.array_equal(hooke_biot(u, m), (2.0 * g) * e
                                  + (lam * np.trace(e) * np.eye(3)
                                     if lam else 0.0))
            assert np.array_equal(linearized_law(e, m), hooke_biot(u, m))


def test_linearized_maps_raise_for_a_result_that_is_not_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(LogstrainError) as err:
            linearized_law(np.diag([1e10, 0.0, 0.0]),
                           Moduli.from_g_lam(1e300, 0.0))
        assert str(err.value) == ("law 'linearized': stress is not finite "
                                  "at G = 1e+300, lam = 0")
        with pytest.raises(LogstrainError) as err:
            linearized_inverse(np.diag([1e308, 1e308, 0.0]),
                               Moduli.from_g_lam(1.0, 0.5))
        assert str(err.value) == ("law 'linearized': strain is not "
                                  "finite at G = 1, lam = 0.5")


def test_coaxiality_of_stress_and_stretch(rng):
    for _ in range(100):
        u = random_spd(rng)
        t = becker_biot(u, M)
        comm = u @ t - t @ u
        assert fro_norm(comm) <= 1e-10 * fro_norm(u) * max(1.0, fro_norm(t))


def test_plane_unimodular_stretch_gives_plane_tracefree_stress(rng):
    # in-plane stretch block with unit determinant -> stress confined to
    # the same plane with zero trace (the general form of the shear axiom)
    for _ in range(100):
        a = rng.uniform(0.3, 3.0)
        c = rng.uniform(-0.8, 0.8)
        block = np.array([[a, c], [c, (1.0 + c * c) / a]])
        assert np.linalg.det(block) == pytest.approx(1.0, abs=1e-12)
        u = np.eye(3)
        u[:2, :2] = block
        t = becker_biot(u, M)
        assert abs(t[0, 2]) < 1e-12 and abs(t[1, 2]) < 1e-12
        assert abs(t[2, 2]) < 1e-12
        assert abs(np.trace(t)) < 1e-11


def test_glide_biot_stress_is_pure_shear(rng):
    # the stretch of a glide is a rotated pure shear, so its Biot stress
    # has eigenvalues (s, 0, -s) with s = 2 G ln(lam1)
    from logstrain.kinematics import polar_decompose
    from logstrain.tensors import eig_sym
    for gamma in (0.4, 1.0, 2.7):
        u = polar_decompose(simple_glide_F(gamma)).u
        t = becker_biot(u, M)
        lam1 = 0.5 * (math.sqrt(gamma ** 2 + 4.0) + gamma)
        s = 2.0 * M.g * math.log(lam1)
        np.testing.assert_allclose(eig_sym(t).eigenvalues, [s, 0.0, -s],
                                   atol=1e-12)


def test_inverse_superposition(rng):
    # U(T1 + T2) = U(T1) U(T2) for coaxial stresses
    for _ in range(200):
        q = random_rotation(rng)
        d1 = rng.uniform(-2.0, 2.0, 3)
        d2 = rng.uniform(-2.0, 2.0, 3)
        t1 = q.T @ np.diag(d1) @ q
        t2 = q.T @ np.diag(d2) @ q
        lhs = becker_inverse(t1 + t2, M)
        rhs = becker_inverse(t1, M) @ becker_inverse(t2, M)
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(lhs))


def test_pk2_from_metric_tensor(rng):
    # S2 can be built from C = U^2 alone:
    # (G log C + lam/2 tr(log C) I) C^(-1/2)
    from logstrain.tensors import mat_log, mat_pow, sym_part
    for _ in range(50):
        u = random_spd(rng, 0.3, 3.0)
        c = u @ u
        w = mat_log(c)
        ref = sym_part((M.g * w + 0.5 * M.lam * np.trace(w) * np.eye(3))
                       @ mat_pow(c, -0.5))
        assert fro_norm(becker_pk2(u, M) - ref) \
            <= 1e-11 * max(1.0, fro_norm(ref))


@pytest.mark.parametrize("g", [1.0, 1e250, 1e300])
def test_other_becker_measures_keep_the_plain_bits(rng, g):
    # where the plain formulas are finite, PK2 has the bits of the plain
    # solve and Cauchy those of kirchhoff / det(V), also where the Biot
    # stress exceeds 2**960, so that the PK2 solve takes a scaled stress
    from logstrain.tensors import _det, _solve, sym_part
    m = Moduli.from_g_lam(g, 0.5 * g)
    for _ in range(50):
        u = sym_part(random_spd(rng))
        t = becker_biot(u, m)
        assert np.array_equal(becker_pk2(u, m), sym_part(_solve(u, t)))
        tau = becker_kirchhoff(u, m)
        assert np.array_equal(tau, sym_part(u @ t))
        assert np.array_equal(becker_cauchy(u, m), tau / float(_det(u)))


def test_hencky_kirchhoff_tension_compression_symmetric(rng):
    for _ in range(100):
        v = random_spd(rng)
        lhs = hencky_kirchhoff(mat_pow(v, -1), M)
        rhs = -hencky_kirchhoff(v, M)
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(rhs))


def test_incompressible_limit_from_stiff_bulk():
    # with K >> G the compressible uniaxial response approaches
    # Q = 3 G ln(lambda) and the lateral stretch approaches 1/sqrt(lambda)
    stiff = Moduli.from_g_k(1.0, 1e12)
    lam = 1.9
    q = 3.0 * stiff.g * math.log(lam)
    lam_ax, lam_lat = uniaxial_response(q, stiff)
    assert lam_ax == pytest.approx(lam, rel=1e-10, abs=0.0)
    assert lam_lat == pytest.approx(1.0 / math.sqrt(lam), rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# relatives in other measures

def test_hencky_closed_forms():
    np.testing.assert_allclose(hencky_kirchhoff(np.eye(3), M),
                               np.zeros((3, 3)), atol=1e-15)
    lam = 2.2
    for fn in (hencky_kirchhoff, hencky_cauchy):
        np.testing.assert_allclose(fn(lam * np.eye(3), M),
                                   3.0 * M.k * math.log(lam) * np.eye(3),
                                   atol=1e-13)
        alpha = 1.6
        s = 2.0 * M.g * math.log(alpha)
        np.testing.assert_allclose(fn(np.diag([alpha, 1 / alpha, 1.0]), M),
                                   np.diag([s, -s, 0.0]), atol=1e-14)


def test_all_measures_vanish_at_identity():
    for fn in (becker_cauchy, becker_pk2):
        np.testing.assert_allclose(fn(np.eye(3), M), np.zeros((3, 3)),
                                   atol=1e-14)
    np.testing.assert_allclose(becker_pk1(np.eye(3), M), np.zeros((3, 3)),
                               atol=1e-14)


def test_glide_pk1_closed_form():
    gamma = 1.0
    lam1 = 0.5 * (math.sqrt(gamma ** 2 + 4.0) + gamma)
    s1 = becker_pk1(simple_glide_F(gamma), M)
    off = 2.0 * M.g * math.log(lam1)
    expected = np.array([[0.0, off, 0.0], [off, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(s1, expected, atol=1e-13)


def test_glide_cauchy_closed_form():
    # independent of lam
    for m in (M, M0, Moduli.from_g_lam(1.0, 7.0)):
        gamma = 1.4
        lam1 = 0.5 * (math.sqrt(gamma ** 2 + 4.0) + gamma)
        f = simple_glide_F(gamma)
        state = StressState(becker_pk1(f, m), "pk1", f)
        sigma = stress_convert(state, "cauchy").tensor
        c = 2.0 * m.g * math.log(lam1)
        expected = c * np.array([[gamma, 1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(sigma, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# energies

def test_energy_closed_forms():
    assert becker_energy_nu0(np.eye(3), M0) == pytest.approx(0.0, abs=1e-13)
    assert becker_energy_nu0(np.diag([math.e, 1.0, 1.0]), M0) \
        == pytest.approx(2.0 * M0.g, rel=1e-13, abs=0.0)


def test_energy_finite_at_collapse():
    # W stays finite as the stretch shrinks to zero: limit 6 G
    vals = [becker_energy_nu0(t * np.eye(3), M0)
            for t in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert abs(vals[-1] - 6.0 * M0.g) < 1e-5


def test_energy_positive_definite(rng):
    for _ in range(200):
        u = random_spd(rng)
        w = becker_energy_nu0(u, M0)
        if fro_norm(u - np.eye(3)) > 1e-6:
            assert w > 0.0
    assert becker_energy_nu0(np.eye(3), M0) == pytest.approx(0.0, abs=1e-13)


def test_energy_requires_lam_zero():
    with pytest.raises(LambdaNotZero):
        becker_energy_nu0(np.eye(3), M)


def test_energy_gradient_coaxial(rng):
    # directional derivative along coaxial directions matches <T, H>
    h = 1e-5
    for _ in range(50):
        q = random_rotation(rng)
        lam = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 3))
        u = q.T @ np.diag(lam) @ q
        d = rng.uniform(-1.0, 1.0, 3)
        direction = q.T @ np.diag(d) @ q
        num = (becker_energy_nu0(u + h * direction, M0)
               - becker_energy_nu0(u - h * direction, M0)) / (2.0 * h)
        ana = inner(becker_biot(u, M0), direction)
        assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana))


def test_hencky_energy_closed_forms():
    assert hencky_energy(np.eye(3), M) == pytest.approx(0.0, abs=1e-14)
    lam = 1.9
    assert hencky_energy(lam * np.eye(3), M) \
        == pytest.approx(4.5 * M.k * math.log(lam) ** 2, rel=1e-13, abs=0.0)
    alpha = 2.4
    assert hencky_energy(np.diag([alpha, 1 / alpha, 1.0]), M) \
        == pytest.approx(2.0 * M.g * math.log(alpha) ** 2, rel=1e-13, abs=0.0)


def test_stress_blowup_at_collapse():
    norms = [fro_norm(becker_biot(t * np.eye(3), M))
             for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(b > a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# uniaxial and incompressible closed forms

def test_uniaxial_response():
    assert uniaxial_response(0.0, M) == (1.0, 1.0)
    q = M.e
    lam_ax, lam_lat = uniaxial_response(q, M)
    assert lam_ax == pytest.approx(math.e, rel=1e-15, abs=0.0)
    assert lam_lat == pytest.approx(math.exp(-M.nu), rel=1e-15, abs=0.0)
    # nu = 0: no lateral contraction
    assert uniaxial_response(3.7, M0)[1] == 1.0


def test_uniaxial_round_trip():
    q = 0.9
    lam_ax, lam_lat = uniaxial_response(q, M)
    t = becker_biot(np.diag([lam_lat, lam_ax, lam_lat]), M)
    np.testing.assert_allclose(t, np.diag([0.0, q, 0.0]), atol=1e-11)


def test_incompressible_closed_forms():
    assert incompressible_uniaxial_limit(1.0, M) == 0.0
    assert incompressible_uniaxial_hyper(1.0, M) == 0.0
    assert incompressible_uniaxial_limit(math.e, M) \
        == pytest.approx(3.0 * M.g, rel=1e-15, abs=0.0)
    assert incompressible_uniaxial_hyper(math.e, M) \
        == pytest.approx(M.g * (2.0 + math.e ** -1.5), rel=1e-15, abs=0.0)


def test_incompressible_slopes_agree_at_identity():
    # both laws leave the unstressed state with slope 3 G
    h = 1e-7
    for fn in (incompressible_uniaxial_limit, incompressible_uniaxial_hyper):
        slope = (fn(1.0 + h, M) - fn(1.0 - h, M)) / (2.0 * h)
        assert slope == pytest.approx(3.0 * M.g, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# linearized law

def test_linearized_closed_forms():
    np.testing.assert_allclose(linearized_law(np.zeros((3, 3)), M),
                               np.zeros((3, 3)))
    gamma = 0.4
    eps = np.array([[0.0, gamma / 2, 0.0], [gamma / 2, 0.0, 0.0],
                    [0.0, 0.0, 0.0]])
    expected = np.array([[0.0, M.g * gamma, 0.0], [M.g * gamma, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(linearized_law(eps, M), expected, atol=1e-15)
    a = 0.3
    np.testing.assert_allclose(linearized_law(a * np.eye(3), M),
                               (2.0 * M.g + 3.0 * M.lam) * a * np.eye(3),
                               atol=1e-15)


def test_linearized_inverse(rng):
    for _ in range(100):
        eps = rng.uniform(-1.0, 1.0, (3, 3))
        eps = 0.5 * (eps + eps.T)
        back = linearized_inverse(linearized_law(eps, M), M)
        assert rel_err(back, eps) < 1e-13


def test_linearization_second_order():
    eps = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        resid = fro_norm(becker_biot(np.eye(3) + h * eps, M)
                         - linearized_law(h * eps, M))
        ratios.append(resid / h ** 2)
    assert max(ratios) / min(ratios) < 4.0


def test_pk2_expansion_second_order():
    eps = np.array([[0.6, 0.2, 0.0], [0.2, -0.4, 0.3], [0.0, 0.3, 0.1]])
    eps /= fro_norm(eps)
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        u = np.eye(3) + h * eps
        e = 0.5 * (u @ u - np.eye(3))
        ref = M.lam * np.trace(e) * np.eye(3) + 2.0 * M.g * e
        ratios.append(fro_norm(becker_pk2(u, M) - ref) / h ** 2)
    assert max(ratios) / min(ratios) < 4.0


# ---------------------------------------------------------------------------
# comparison laws

def test_law_id_validation():
    with pytest.raises(ValueError):
        LawId("mooney-rivlin")
    with pytest.raises(ValueError):
        LawId("ogden")  # missing coefficients
    with pytest.raises(ValueError):
        LawId("ogden", mu=(1.0, 2.0), alpha=(1.5,))
    ogden = LawId("ogden", mu=(1.0,), alpha=(2.0,))
    assert ogden.mu == (1.0,)


def test_a_law_given_by_a_tag_lawid_normalizes(rng):
    # a tag that is not a row key as written goes through LawId, which
    # normalizes it or raises
    u = random_spd(rng)
    assert np.array_equal(laws.stretch_stress("Becker", u, M),
                          becker_biot(u, M))
    assert laws.simple_shear_sigma12("NEO-HOOKE", 2.0, M) == 2.0 * M.g
    with pytest.raises(ValueError, match="unknown law 'mooney-rivlin'"):
        laws.stretch_stress("mooney-rivlin", u, M)
    with pytest.raises(ValueError, match="ogden needs nonempty"):
        laws.simple_shear_sigma12("ogden", 1.0)
    with pytest.raises(ValueError, match="has no deformation-gradient form"):
        laws.pk1_for_law("neo-hooke", np.eye(3), M)


def test_energy_takes_a_lam_within_its_rule_as_zero():
    u = np.diag([1.5, 0.8, 1.1])
    near = Moduli.from_g_lam(2.0, 1e-14)  # 1e-14 <= 1e-14 * max(1, 2)
    assert becker_energy_nu0(u, near) == becker_energy_nu0(
        u, Moduli.from_g_lam(2.0, 0.0))
    with pytest.raises(LambdaNotZero):
        becker_energy_nu0(u, Moduli.from_g_lam(2.0, 2.1e-14))


def test_hooke_biot_tensor():
    np.testing.assert_allclose(hooke_biot(np.eye(3), M), np.zeros((3, 3)))
    u = np.diag([1.2, 0.9, 1.0])
    e = u - np.eye(3)
    np.testing.assert_allclose(
        hooke_biot(u, M), 2 * M.g * e + M.lam * np.trace(e) * np.eye(3))


def _tension(law, m, lam):
    """The uniaxial Biot stress of a law's row at stretch lam, as the CLI
    tension figure reads it."""
    return laws._LAWS[getattr(law, "tag", law)].uniaxial(lam, m.e, m.g, law)


def test_hooke_uniaxial_reduces_to_linear():
    # with nu = 0 the uniaxial response is 2 G (lambda - 1)
    lam = 1.37
    assert _tension("hooke-biot", M0, lam) \
        == pytest.approx(2.0 * M0.g * (lam - 1.0), rel=1e-14, abs=0.0)
    # general moduli: E (lambda - 1), checked by zero lateral stress
    nu_lin = M.lam / (2.0 * (M.lam + M.g))
    lam_lat = 1.0 - nu_lin * (lam - 1.0)
    t = hooke_biot(np.diag([lam_lat, lam, lam_lat]), M)
    assert abs(t[0, 0]) < 1e-14 and abs(t[2, 2]) < 1e-14
    assert _tension("hooke-biot", M, lam) \
        == pytest.approx(t[1, 1], rel=1e-13, abs=0.0)


def test_neo_hooke_uniaxial():
    lam = 1.8
    assert _tension("neo-hooke", M, lam) \
        == pytest.approx(M.g * (lam - lam ** -2), rel=1e-15, abs=0.0)
    # small-strain slope is 3 G, the incompressible Young's modulus
    h = 1e-7
    slope = (_tension("neo-hooke", M, 1 + h)
             - _tension("neo-hooke", M, 1 - h)) / (2 * h)
    assert slope == pytest.approx(3.0 * M.g, rel=1e-6, abs=0.0)


def test_becker_uniaxial_mode_is_exact_compressible():
    lam = 2.1
    assert _tension("becker", M, lam) \
        == pytest.approx(M.e * math.log(lam), rel=1e-14, abs=0.0)
    # written in E, so E = 3 G (nu -> 1/2) is the incompressible limit
    m_inc = Moduli.from_g_nu(M.g, 0.5 - 1e-12)
    assert _tension("becker", m_inc, lam) \
        == pytest.approx(incompressible_uniaxial_limit(lam, M), rel=1e-11,
                         abs=0.0)


def _mp_glide_sigma12(mpmath, law, gamma, m):
    """sigma_12 of a tensor law in the simple glide gamma, at 50 digits.

    The glide has ``V = (F F.T + I) / r`` in its 1-2 block, r = sqrt(gamma**2
    + 4), and tr V - 3 = r - 2.  Becker's law gives ``2 G asinh(gamma / 2)``
    and the Hencky laws ``4 G asinh(gamma / 2) / r``, whatever lam; the
    finite-Hooke laws give ``sigma = 2 G (V - I) + lam tr(V - I) I`` (Cauchy)
    and that stress times V (Biot).
    """
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        r = mpmath.sqrt(g * g + 4)
        if law == "becker":
            return float(2 * m.g * mpmath.asinh(g / 2))
        if law.startswith("hencky"):
            return float(4 * m.g * mpmath.asinh(g / 2) / r)
        if law == "hooke-cauchy":
            return float(2 * m.g * g / r)
        return float(2 * m.g * (g - g / r) + m.lam * (r - 2) * g / r)


def test_simple_shear_closed_forms():
    # gamma from 1e-300 to 1e3 and lam in {0, 0.5, 25}: the worst relative
    # error measured 1.4e-15 (hooke-cauchy at lam = 25, where the spherical
    # part cancels in c_1 - c_3)
    mpmath = pytest.importorskip("mpmath")
    gammas = (np.geomspace(1e-300, 1e3, 607).tolist()
              + np.linspace(0.1, 10.0, 100).tolist())
    for lam in (0.0, 0.5, 25.0):
        m = Moduli.from_g_lam(1.3, lam)
        for law in TENSOR_MAPS:
            for gamma in gammas:
                assert simple_shear_sigma12(law, gamma, m) == pytest.approx(
                    _mp_glide_sigma12(mpmath, law, gamma, m), rel=2e-15,
                    abs=0.0), \
                    (law, lam, gamma)
    gamma = 1.2
    assert simple_shear_sigma12("neo-hooke", gamma, M) \
        == pytest.approx(M.g * gamma, rel=1e-15, abs=0.0)
    for tag in ("becker", "hencky-kirchhoff", "neo-hooke", "hooke-biot"):
        assert simple_shear_sigma12(tag, 0.0, M) == 0.0


def test_glide_above_1e3_against_mpmath():
    # the stretches come from the hypot helper: becker and the Hencky rows
    # measured 2.2e-16; the finite-Hooke rows form s - 1 from h = gamma / 2
    # without cancellation (with expm1(+-asinh(h)) they lost about eps *
    # asinh(h), 5.4e-14 at gamma = 1e300)
    mpmath = pytest.importorskip("mpmath")
    gammas = np.geomspace(1e3, 1e300, 300)
    for lam in (0.0, 0.5, 25.0):
        m = Moduli.from_g_lam(1.3, lam)
        for law in TENSOR_MAPS:
            rel = 2e-15 if law.startswith("hooke") else 1e-15
            got = simple_shear_sigma12(law, gammas, m)
            for gamma, value in zip(gammas.tolist(), got.tolist()):
                assert value == pytest.approx(
                    _mp_glide_sigma12(mpmath, law, gamma, m), rel=rel,
                    abs=0.0), (law, lam, gamma)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_glide_and_stretch_must_be_finite(value):
    ogden = LawId("ogden", mu=(M.g,), alpha=(2.0,))
    for law in laws.LAW_TAGS:
        law = ogden if law == "ogden" else law
        with pytest.raises(ValueError, match="finite"):
            simple_shear_sigma12(law, value, M)
    for fn in (incompressible_uniaxial_limit, incompressible_uniaxial_hyper):
        with pytest.raises(ValueError, match="finite"):
            fn(value, M)


@pytest.mark.parametrize("law", [t for t in laws.LAW_TAGS if t != "ogden"])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
def test_glide_without_moduli_raises(law, gamma):
    with pytest.raises(ValueError, match="moduli required"):
        simple_shear_sigma12(law, gamma)


_OGDEN = LawId("ogden", mu=(0.5, 0.1, 0.3), alpha=(2.5, -2.0, 1.3))


def test_glide_array_gives_the_scalar_bits(rng):
    # every law, including ogden, on gammas from 0 to 1e3: an element gets
    # the same bits alone, in the array and in a strided view of it
    gammas = np.exp(rng.uniform(math.log(1e-12), math.log(1e3), 203))
    gammas[::17] = 0.0
    strided = np.stack([gammas, -gammas], axis=-1)[:, 0]
    for lam in (0.0, 0.5, 25.0):
        m = Moduli.from_g_lam(1.3, lam)
        for law in [*laws.LAW_TAGS[:-1], _OGDEN]:
            alone = [simple_shear_sigma12(law, x, m) for x in gammas.tolist()]
            assert all(type(v) is float for v in alone)
            alone = np.array(alone)
            for array in (gammas, strided, gammas[:7], gammas[:1]):
                got = simple_shear_sigma12(law, array, m)
                assert got.shape == array.shape
                assert got.tobytes() == alone[:len(array)].tobytes(), \
                    (law, lam)
            grid = simple_shear_sigma12(law, gammas[:200].reshape(10, 20), m)
            assert grid.tobytes() == alone[:200].tobytes()


def test_glide_makes_no_linalg_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factorization was called")

    for name in LAPACK:  # the tensors boundary
        patch_everywhere(monkeypatch, f"_{name}", refuse)
    for name in ("svd", "eigh", "eig", "det", "inv", "solve", "qr"):
        monkeypatch.setattr(laws.np.linalg, name, refuse)
    for law in [*laws.LAW_TAGS[:-1], _OGDEN]:
        simple_shear_sigma12(law, np.linspace(0.0, 3.5, 9), M)
        simple_shear_sigma12(law, 0.7, M)


@pytest.mark.parametrize("value", [-1.0, -1e-300, math.inf, -math.inf,
                                   math.nan])
def test_glide_names_the_bad_element(value):
    gammas = [0.0, 0.5, value, 1.0, value]
    for law in [*laws.LAW_TAGS[:-1], _OGDEN]:
        with pytest.raises(ValueError,
                           match=r"finite and nonnegative, got .* at index 2$"):
            simple_shear_sigma12(law, gammas, M)
        with pytest.raises(ValueError, match=r"at index \(1, 0\)$"):
            simple_shear_sigma12(law, [[0.5, 1.0], [value, 0.0]], M)
        with pytest.raises(ValueError) as info:
            simple_shear_sigma12(law, value, M)
        assert "index" not in str(info.value)


def test_glide_domain_without_warnings():
    mpmath = pytest.importorskip("mpmath")
    m = Moduli.from_g_lam(1.3, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # r = hypot(gamma, 2): a naive sqrt(gamma**2 + 4) overflows here.
        # The finite-Hooke rows form s - 1 from h = gamma / 2 without
        # cancellation, so they hold 2e-15 up to gamma = 1e300 (see
        # test_glide_above_1e3_against_mpmath)
        for gamma in (1e200, 1e307):
            assert simple_shear_sigma12("hooke-cauchy", gamma, m) \
                == pytest.approx(2.0 * m.g, rel=1e-13, abs=0.0)
        assert (simple_shear_sigma12("hooke-cauchy", [1e200, 1e307], m)
                == pytest.approx(2.0 * m.g, rel=1e-13, abs=0.0))
        # the smallest stretch 1/l1 = 1e-150 is no longer floored
        for law in ("becker", "hencky-kirchhoff"):
            assert simple_shear_sigma12(law, 1e150, m) == pytest.approx(
                _mp_glide_sigma12(mpmath, law, 1e150, m), rel=1e-13, abs=0.0)
        # a Biot row scales t by s / r <= 1 before the product, so its
        # sigma_12 is finite wherever it is representable
        for law in ("becker", "hooke-biot"):
            assert simple_shear_sigma12(law, 1e307, m) == pytest.approx(
                _mp_glide_sigma12(mpmath, law, 1e307, m), rel=1e-13, abs=0)
        for law in ("hooke-biot", "neo-hooke"):
            with pytest.raises(LogstrainError, match="not finite"):
                simple_shear_sigma12(law, 1e308, Moduli.from_g_lam(2.0, 0.5))
        with pytest.raises(LogstrainError, match=r"not finite at G = 1.3, "
                                                 r"lam = 0.5 at index 1$"):
            simple_shear_sigma12("hooke-biot", [1.0, 1e308], m)
        big = LawId("ogden", mu=(1.0,), alpha=(3.0,))
        with pytest.raises(LogstrainError, match=r"'ogden': stress is not "
                                                 r"finite at index 0$"):
            simple_shear_sigma12(big, [1e300])


def test_ogden_consistency_with_neo_hooke():
    # one-term ogden with alpha = 2, mu = G reproduces neo-hooke
    ogden = LawId("ogden", mu=(M.g,), alpha=(2.0,))
    for lam in (0.7, 1.0, 1.9, 3.0):
        assert _tension(ogden, M, lam) \
            == pytest.approx(_tension("neo-hooke", M, lam), rel=1e-13,
                             abs=0.0)
    for gamma in (0.0, 0.8, 2.2):
        assert simple_shear_sigma12(ogden, gamma, M) \
            == pytest.approx(simple_shear_sigma12("neo-hooke", gamma, M),
                             rel=1e-13, abs=1e-13)


def test_scalar_models_have_no_stretch_form():
    with pytest.raises(ValueError):
        laws.stretch_stress("neo-hooke", np.eye(3), M)


# ---------------------------------------------------------------------------
# the law table

def test_law_tags_cover_every_mode():
    assert set(laws.LAW_TAGS) == {"becker", "hencky-kirchhoff",
                                  "hencky-cauchy", "hooke-biot",
                                  "hooke-cauchy", "neo-hooke", "ogden"}
    ogden = LawId("ogden", mu=(M.g,), alpha=(2.0,))
    for tag in laws.LAW_TAGS:
        law = ogden if tag == "ogden" else tag
        assert simple_shear_sigma12(law, 0.9, M) > 0.0
        if tag != "hooke-cauchy":
            assert _tension(law, M, 1.5) > 0.0


def test_hooke_laws_are_the_linear_law_of_the_stretch(rng):
    for _ in range(20):
        u = random_spd(rng)
        shifted = linearized_law(u - np.eye(3), M)
        assert np.array_equal(hooke_biot(u, M), shifted)
        assert np.array_equal(laws.hooke_cauchy(u, M), shifted)
        assert np.array_equal(hencky_cauchy(u, M), hencky_kirchhoff(u, M))


@pytest.mark.parametrize("law", [hooke_biot, laws.hooke_cauchy,
                                 linearized_law])
def test_linear_laws_at_lam_zero_ignore_an_overflowing_trace(law):
    # tr(e) overflows, but at lam = 0 no entry of 2 G e does
    u = np.diag([8e307, 8e307, 8e307])
    e = u if law is linearized_law else u - np.eye(3)
    t = law(u, Moduli.from_g_lam(1.0, 0.0))
    assert t.tobytes() == (2.0 * e).tobytes()


def test_pk1_matches_each_laws_own_measure(rng):
    from logstrain.kinematics import polar_decompose
    own = {"becker": ("biot", "u", becker_biot),
           "hencky-kirchhoff": ("kirchhoff", "v", hencky_kirchhoff),
           "hencky-cauchy": ("cauchy", "v", hencky_cauchy),
           "hooke-biot": ("biot", "u", hooke_biot),
           "hooke-cauchy": ("cauchy", "v", laws.hooke_cauchy)}
    for _ in range(10):
        f = random_rotation(rng) @ random_spd(rng, 0.3, 3.0)
        pf = polar_decompose(f)
        for tag, (measure, side, fn) in own.items():
            state = StressState(fn(getattr(pf, side), M), measure, f)
            expected = stress_convert(state, "pk1").tensor
            assert rel_err(laws.pk1_for_law(tag, f, M), expected) < 1e-12
    with pytest.raises(ValueError):
        laws.pk1_for_law("neo-hooke", np.eye(3), M)



# ---------------------------------------------------------------------------
# the principal form of PK1

TENSOR_MAPS = {"becker": becker_biot, "hencky-kirchhoff": hencky_kirchhoff,
               "hencky-cauchy": hencky_cauchy, "hooke-biot": hooke_biot,
               "hooke-cauchy": laws.hooke_cauchy}


def _mp_pk1(mpmath, f, law, m):
    """PK1 of a tensor law at f from a 50-digit eigendecomposition of
    F.T F: with F = W diag(s) V.T, P = F V diag(t_i / s_i) V.T for a Biot
    law and P = F V diag(c t_i / s_i**2) V.T for a left-stretch law, c = J
    for a Cauchy law and 1 for a Kirchhoff law."""
    with mpmath.workdps(50):
        fm = mpmath.matrix(f.tolist())
        c2, v = mpmath.eigsy(fm.T * fm)
        s = [mpmath.sqrt(c2[i]) for i in range(3)]
        e = ([mpmath.log(x) for x in s] if not law.startswith("hooke")
             else [x - 1 for x in s])
        t = [2 * m.g * x + m.lam * sum(e) for x in e]
        measure = laws._LAWS[law].measure
        if measure == "biot":
            d = [t[i] / s[i] for i in range(3)]
        else:
            j = s[0] * s[1] * s[2] if measure == "cauchy" else 1
            d = [j * t[i] / s[i] ** 2 for i in range(3)]
        p = fm * v * mpmath.diag(d) * v.T
        return np.array([[float(p[i, k]) for k in range(3)]
                         for i in range(3)])


def test_pk1_against_mpmath_over_eight_decades(rng):
    # 40 gradients with singular values log-uniform in [1e-4, 1e4].  The
    # worst error relative to the largest entry measured 1.6e-10
    # (hencky-kirchhoff, at a gradient of condition 1.5e7; becker 5.5e-11),
    # against 2.5e-10 (becker 6.4e-11) for PK1 through the polar factors
    # and eigh of U or V
    mpmath = pytest.importorskip("mpmath")
    fs = []
    while len(fs) < 40:
        s = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 3))
        f = random_rotation(rng) @ np.diag(s) @ random_rotation(rng)
        if np.linalg.det(f) > 1e-9:
            fs.append(f)
    fs = np.array(fs)
    for law in TENSOR_MAPS:
        p = laws.pk1_for_law(law, fs, M)
        worst = max(float(np.abs(p[k] - ref).max() / np.abs(ref).max())
                    for k, ref in enumerate(_mp_pk1(mpmath, f, law, M)
                                            for f in fs))
        assert worst <= 1e-9, law


def test_cauchy_from_left_stretch_pk1_against_mpmath(rng):
    # The Cauchy stress recovered from PK1 with stress_convert, for the
    # laws in the left stretch, on 80 gradients with stretches in
    # [0.05, 20].  Worst error relative to max(1, |sigma|) measured 1.0e-14;
    # the form P = W diag(t_i / s_i) V.T, not used for these laws, gives
    # 8.8e-14 on the same gradients (4.4e-14 for hooke-cauchy)
    mpmath = pytest.importorskip("mpmath")
    fs = []
    while len(fs) < 80:
        s = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        fs.append(random_rotation(rng) @ np.diag(s) @ random_rotation(rng))
    fs = np.array(fs)
    for law in ("hencky-kirchhoff", "hencky-cauchy", "hooke-cauchy"):
        p = laws.pk1_for_law(law, fs, M)
        worst = 0.0
        for f, pk1 in zip(fs, p):
            sigma = stress_convert(StressState(pk1, "pk1", f), "cauchy")
            with mpmath.workdps(50):
                fm = mpmath.matrix(f.tolist())
                b, w = mpmath.eigsy(fm * fm.T)  # V**2 = F F.T
                s = [mpmath.sqrt(b[i]) for i in range(3)]
                e = ([mpmath.log(x) for x in s] if law.startswith("hencky")
                     else [x - 1 for x in s])
                scale = 1 if law.endswith("cauchy") else s[0] * s[1] * s[2]
                t = [(2 * M.g * x + M.lam * sum(e)) / scale for x in e]
                ref = w * mpmath.diag(t) * w.T
                ref = np.array([[float(ref[i, k]) for k in range(3)]
                                for i in range(3)])
            worst = max(worst, rel_err(sigma.tensor, ref))
        assert worst <= 3e-14, (law, worst)


HUGE = Moduli.from_g_lam(1.0, 1e307)


@pytest.mark.parametrize("law", sorted(TENSOR_MAPS))
def test_overflowing_stress_raises_and_names_the_member(law):
    # 2 G ln 1e3 + 1e307 * 3 ln 1e3 overflows; so does 1e307 * 2997
    f = np.array([np.eye(3)] * 4)
    f[2] = 1e3 * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        for fn in (lambda a: laws.pk1_for_law(law, a, HUGE),
                   lambda a: laws.stretch_stress(law, a, HUGE),
                   lambda a: TENSOR_MAPS[law](a, HUGE)):
            with pytest.raises(LogstrainError) as err:
                fn(f)
            assert str(err.value) == (f"law {law!r}: stress is not finite "
                                      f"at G = 1, lam = 1e+307 at index 2")
            with pytest.raises(LogstrainError, match="not finite at G = 1, "
                                                     "lam = 1e\\+307$"):
                fn(f[2])
            assert np.array_equal(fn(f[:2]), np.zeros((2, 3, 3)))


@pytest.mark.parametrize("u", [np.eye(2), np.ones((4, 3, 2))],
                         ids=["2x2", "stack-3x2"])
def test_biot_rejects_a_stretch_that_is_not_3x3(u):
    with pytest.raises(ValueError) as err:
        becker_biot(u, M)
    assert str(err.value) == f"u must be 3x3, got shape {u.shape}"
