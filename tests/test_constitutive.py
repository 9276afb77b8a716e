"""The logarithmic law, its relatives, energies and closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstrain import constitutive as laws
from logstrain.constitutive import (LawId, becker_biot, becker_cauchy,
                                    becker_energy_nu0, becker_inverse,
                                    becker_pk1, becker_pk2, comparison_law,
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
from logstrain.tensors import fro_norm, inner, mat_pow
from logstrain.verify import random_rotation, random_spd

from conftest import rel_err

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
    assert lam_ax == pytest.approx(lam, rel=1e-10)
    assert lam_lat == pytest.approx(1.0 / math.sqrt(lam), rel=1e-10)


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
        == pytest.approx(2.0 * M0.g, rel=1e-13)


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
        == pytest.approx(4.5 * M.k * math.log(lam) ** 2, rel=1e-13)
    alpha = 2.4
    assert hencky_energy(np.diag([alpha, 1 / alpha, 1.0]), M) \
        == pytest.approx(2.0 * M.g * math.log(alpha) ** 2, rel=1e-13)


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
    assert lam_ax == pytest.approx(math.e, rel=1e-15)
    assert lam_lat == pytest.approx(math.exp(-M.nu), rel=1e-15)
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
        == pytest.approx(3.0 * M.g, rel=1e-15)
    assert incompressible_uniaxial_hyper(math.e, M) \
        == pytest.approx(M.g * (2.0 + math.e ** -1.5), rel=1e-15)


def test_incompressible_slopes_agree_at_identity():
    # both laws leave the unstressed state with slope 3 G
    h = 1e-7
    for fn in (incompressible_uniaxial_limit, incompressible_uniaxial_hyper):
        slope = (fn(1.0 + h, M) - fn(1.0 - h, M)) / (2.0 * h)
        assert slope == pytest.approx(3.0 * M.g, rel=1e-6)


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


def test_hooke_biot_tensor():
    np.testing.assert_allclose(hooke_biot(np.eye(3), M), np.zeros((3, 3)))
    u = np.diag([1.2, 0.9, 1.0])
    e = u - np.eye(3)
    np.testing.assert_allclose(
        hooke_biot(u, M), 2 * M.g * e + M.lam * np.trace(e) * np.eye(3))


def test_hooke_uniaxial_reduces_to_linear():
    # with nu = 0 the uniaxial response is 2 G (lambda - 1)
    lam = 1.37
    assert comparison_law("hooke-biot", M0, lam=lam) \
        == pytest.approx(2.0 * M0.g * (lam - 1.0), rel=1e-14)
    # general moduli: E (lambda - 1), checked by zero lateral stress
    nu_lin = M.lam / (2.0 * (M.lam + M.g))
    lam_lat = 1.0 - nu_lin * (lam - 1.0)
    t = hooke_biot(np.diag([lam_lat, lam, lam_lat]), M)
    assert abs(t[0, 0]) < 1e-14 and abs(t[2, 2]) < 1e-14
    assert comparison_law("hooke-biot", M, lam=lam) \
        == pytest.approx(t[1, 1], rel=1e-13)


def test_neo_hooke_uniaxial():
    lam = 1.8
    assert comparison_law("neo-hooke", M, lam=lam) \
        == pytest.approx(M.g * (lam - lam ** -2), rel=1e-15)
    # small-strain slope is 3 G, the incompressible Young's modulus
    h = 1e-7
    slope = (comparison_law("neo-hooke", M, lam=1 + h)
             - comparison_law("neo-hooke", M, lam=1 - h)) / (2 * h)
    assert slope == pytest.approx(3.0 * M.g, rel=1e-6)


def test_becker_uniaxial_mode_is_exact_compressible():
    lam = 2.1
    assert comparison_law("becker", M, lam=lam) \
        == pytest.approx(M.e * math.log(lam), rel=1e-14)
    # written in E, so E = 3 G (nu -> 1/2) is the incompressible limit
    m_inc = Moduli.from_g_nu(M.g, 0.5 - 1e-12)
    assert comparison_law("becker", m_inc, lam=lam) \
        == pytest.approx(incompressible_uniaxial_limit(lam, M), rel=1e-11)


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
    # gamma from 0.1 to 10 and lam in {0, 0.5, 25}: the worst relative
    # error measured 2.5e-15 (through the polar factors, eigh of U or V and
    # a conversion to Cauchy: 1.0e-14, becker at lam = 25).  Below gamma =
    # 0.1 the singular vectors of the glide, and so sigma_12, lose about
    # eps / gamma
    mpmath = pytest.importorskip("mpmath")
    gammas = np.linspace(0.1, 10.0, 100).tolist()
    for lam in (0.0, 0.5, 25.0):
        m = Moduli.from_g_lam(1.3, lam)
        for law in TENSOR_MAPS:
            for gamma in gammas:
                assert simple_shear_sigma12(law, gamma, m) == pytest.approx(
                    _mp_glide_sigma12(mpmath, law, gamma, m), rel=1e-14), \
                    (law, lam, gamma)
    gamma = 1.2
    assert simple_shear_sigma12("neo-hooke", gamma, M) \
        == pytest.approx(M.g * gamma, rel=1e-15)
    for tag in ("becker", "hencky-kirchhoff", "neo-hooke", "hooke-biot"):
        assert simple_shear_sigma12(tag, 0.0, M) == 0.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_glide_and_stretch_must_be_finite(value):
    ogden = LawId("ogden", mu=(M.g,), alpha=(2.0,))
    for law in laws.LAW_TAGS:
        law = ogden if law == "ogden" else law
        with pytest.raises(ValueError, match="finite"):
            simple_shear_sigma12(law, value, M)
        with pytest.raises(ValueError, match="finite"):
            comparison_law(law, M, gamma=value)
        with pytest.raises(ValueError, match="finite"):
            comparison_law(law, M, lam=value)


def test_ogden_consistency_with_neo_hooke():
    # one-term ogden with alpha = 2, mu = G reproduces neo-hooke
    ogden = LawId("ogden", mu=(M.g,), alpha=(2.0,))
    for lam in (0.7, 1.0, 1.9, 3.0):
        assert comparison_law(ogden, M, lam=lam) \
            == pytest.approx(comparison_law("neo-hooke", M, lam=lam),
                             rel=1e-13)
    for gamma in (0.0, 0.8, 2.2):
        assert simple_shear_sigma12(ogden, gamma, M) \
            == pytest.approx(simple_shear_sigma12("neo-hooke", gamma, M),
                             rel=1e-13, abs=1e-13)


def test_comparison_law_mode_validation():
    with pytest.raises(ValueError):
        comparison_law("becker", M)
    with pytest.raises(ValueError):
        comparison_law("becker", M, lam=2.0, gamma=1.0)
    with pytest.raises(ValueError):
        comparison_law("hooke-cauchy", M, lam=2.0)
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
            assert comparison_law(law, M, lam=1.5) > 0.0


def test_hooke_laws_are_the_linear_law_of_the_stretch(rng):
    for _ in range(20):
        u = random_spd(rng)
        shifted = linearized_law(u - np.eye(3), M)
        assert np.array_equal(hooke_biot(u, M), shifted)
        assert np.array_equal(laws.hooke_cauchy(u, M), shifted)
        assert np.array_equal(hencky_cauchy(u, M), hencky_kirchhoff(u, M))


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
