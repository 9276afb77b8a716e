"""Polar decomposition, shear deformations, planes of no distortion."""

import math

import numpy as np
import pytest

from logstrain.errors import NonInvertible, NoSuchPlane
from logstrain.kinematics import (glide_contractile_angle,
                                  glide_principal_stretches,
                                  max_tangential_strain_direction,
                                  planes_of_no_distortion, polar_decompose,
                                  pure_shear_F, shear_ellipsoid_radius,
                                  simple_glide_F)
from logstrain.tensors import eig_sym, fro_norm
from logstrain.verify import random_rotation

from conftest import rel_err


def random_F(rng, det_lo=0.1, det_hi=10.0):
    """Random deformation gradient with determinant in [det_lo, det_hi]."""
    while True:
        m = rng.standard_normal((3, 3))
        d = np.linalg.det(m)
        if abs(d) > 1e-3:
            break
    if d < 0.0:
        m[:, 0] = -m[:, 0]
        d = -d
    target = math.exp(rng.uniform(math.log(det_lo), math.log(det_hi)))
    return m * (target / d) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# polar decomposition

def test_polar_of_spd_is_trivial():
    f = np.diag([2.0, 0.5, 1.0])
    pf = polar_decompose(f)
    assert rel_err(pf.r, np.eye(3)) < 1e-13
    assert rel_err(pf.u, f) < 1e-13
    assert rel_err(pf.v, f) < 1e-13


def test_polar_of_rotation_is_rotation():
    q = random_rotation(np.random.default_rng(5))
    pf = polar_decompose(q)
    assert rel_err(pf.r, q) < 1e-13
    assert rel_err(pf.u, np.eye(3)) < 1e-13
    assert rel_err(pf.v, np.eye(3)) < 1e-13


def test_polar_of_glide_closed_form():
    gamma = 0.8
    root = math.sqrt(gamma ** 2 + 4.0)
    u_expected = np.array([[2.0, gamma, 0.0],
                           [gamma, gamma ** 2 + 2.0, 0.0],
                           [0.0, 0.0, root]]) / root
    r_expected = np.array([[2.0, gamma, 0.0],
                           [-gamma, 2.0, 0.0],
                           [0.0, 0.0, root]]) / root
    pf = polar_decompose(simple_glide_F(gamma))
    assert rel_err(pf.u, u_expected) < 1e-13
    assert rel_err(pf.r, r_expected) < 1e-13


def test_polar_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        f = random_F(rng)
        pf = polar_decompose(f)
        scale = fro_norm(f)
        assert fro_norm(pf.r.T @ pf.r - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(pf.r) - 1.0) <= 1e-12
        assert fro_norm(pf.r @ pf.u - f) <= 1e-12 * scale
        assert fro_norm(pf.v @ pf.r - f) <= 1e-12 * scale
        assert eig_sym(pf.u).eigenvalues[2] > 0.0
        assert eig_sym(pf.v).eigenvalues[2] > 0.0


def test_polar_strongly_anisotropic():
    # stretch ratio 1e6: the factors stay accurate to roundoff
    rng = np.random.default_rng(7)
    for _ in range(200):
        q, p = random_rotation(rng), random_rotation(rng)
        f = q @ np.diag([1.0, 1e3, 1e6]) @ p.T
        pf = polar_decompose(f)
        scale = fro_norm(f)
        assert fro_norm(pf.r @ pf.u - f) <= 1e-13 * scale
        assert fro_norm(pf.v @ pf.r - f) <= 1e-13 * scale
        assert fro_norm(pf.r.T @ pf.r - np.eye(3)) <= 1e-13
        assert abs(np.linalg.det(pf.r) - 1.0) <= 1e-13


def test_polar_rejects_noninvertible():
    with pytest.raises(NonInvertible):
        polar_decompose(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(NonInvertible):
        polar_decompose(np.diag([-1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# canonical deformations

def test_pure_shear_matrix():
    np.testing.assert_allclose(pure_shear_F(2.0),
                               np.diag([2.0, 0.5, 1.0]))
    np.testing.assert_allclose(pure_shear_F(1.0), np.eye(3))
    assert np.linalg.det(pure_shear_F(3.7)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        pure_shear_F(-1.0)


def test_simple_glide_matrix():
    expected = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(simple_glide_F(1.0), expected)


def test_glide_principal_stretches():
    l1, l2, l3 = glide_principal_stretches(1.5)
    assert l1 == pytest.approx(2.0, abs=1e-15)
    assert l2 == 1.0
    assert l3 == pytest.approx(0.5, abs=1e-15)
    assert glide_principal_stretches(0.0) == (1.0, 1.0, 1.0)


def test_glide_stretches_match_spectrum(rng):
    for gamma in (0.3, 1.0, 2.5, 7.0):
        f = simple_glide_F(gamma)
        sv = np.sqrt(eig_sym(f.T @ f).eigenvalues)
        expected = glide_principal_stretches(gamma)
        assert rel_err(sv, expected) < 1e-12
        assert expected[0] * expected[2] == pytest.approx(1.0, abs=1e-15)


def test_glide_contractile_angle():
    # gamma = 3/2 gives l1 = 2, cot(theta) = 2
    assert 1.0 / math.tan(glide_contractile_angle(1.5)) \
        == pytest.approx(2.0, abs=1e-14)
    # gamma -> 0: theta -> pi/4
    assert glide_contractile_angle(1e-12) == pytest.approx(math.pi / 4.0,
                                                           abs=1e-9)
    # gamma = 1: cot(theta) is the golden ratio
    assert 1.0 / math.tan(glide_contractile_angle(1.0)) \
        == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)


def test_glide_contractile_eigenvector_orientation():
    # the contractile principal direction itself has cot(angle to e1) = -l1
    gamma = 1.3
    c = simple_glide_F(gamma).T @ simple_glide_F(gamma)
    spec = eig_sym(c)
    v2 = spec.frame[:, 2]  # eigenvector of the smallest stretch
    l1 = glide_principal_stretches(gamma)[0]
    cot = v2[0] / v2[1]
    assert abs(abs(cot) - l1) < 1e-12


# ---------------------------------------------------------------------------
# planes of no distortion

def test_pond_normals_pure_shear():
    alpha = 2.0
    pair = planes_of_no_distortion(pure_shear_F(alpha))
    assert pair.shear_ratio == pytest.approx(alpha, abs=1e-12)
    finals = sorted(tuple(np.round(n * math.sqrt(1 + alpha ** 2), 10))
                    for n in pair.final_normals)
    expected = sorted([(1.0, -alpha, 0.0), (1.0, alpha, 0.0)])
    np.testing.assert_allclose(finals, expected, atol=1e-9)
    initials = sorted(tuple(np.round(n * math.sqrt(1 + alpha ** -2), 10))
                      for n in pair.initial_normals)
    expected0 = sorted([(1.0, -1.0 / alpha, 0.0), (1.0, 1.0 / alpha, 0.0)])
    np.testing.assert_allclose(initials, expected0, atol=1e-9)


def test_pond_initial_planes_are_undistorted(rng):
    alpha = 3.0
    f = pure_shear_F(alpha)
    pair = planes_of_no_distortion(f)
    for n in pair.initial_normals:
        # random unit vectors in the plane orthogonal to n
        basis = [v / np.linalg.norm(v) for v in (np.cross(n, [0, 0, 1.0]),)]
        b1 = basis[0]
        b2 = np.cross(n, b1)
        for _ in range(100):
            t = rng.uniform(0.0, 2.0 * math.pi)
            x = math.cos(t) * b1 + math.sin(t) * b2
            assert abs(np.linalg.norm(f @ x) - 1.0) <= 1e-10


def test_pond_intersection_circle(rng):
    # points of the strain ellipsoid on the final planes sit at distance 1
    alpha = 2.5
    f = pure_shear_F(alpha)
    pair = planes_of_no_distortion(f)
    for n in pair.initial_normals:
        b1 = np.cross(n, [0.0, 0.0, 1.0])
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(n, b1)
        for _ in range(100):
            t = rng.uniform(0.0, 2.0 * math.pi)
            x = math.cos(t) * b1 + math.sin(t) * b2
            y = f @ x  # on the ellipsoid image of the unit sphere
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-10


def test_pond_cofactor_identity_for_initial_normals():
    alpha = 2.0
    f = pure_shear_F(alpha)
    cof = np.linalg.det(f) * np.linalg.inv(f).T
    pair = planes_of_no_distortion(f)
    for n in pair.initial_normals:
        assert abs(np.linalg.norm(cof @ n) - 1.0) <= 1e-10


def test_pond_axis_permuted():
    # unit singular value on e2; the formulas apply in the e1-e3 plane
    f = np.diag([2.0, 1.0, 0.5])
    pair = planes_of_no_distortion(f)
    assert pair.shear_ratio == pytest.approx(2.0, abs=1e-12)
    for n in pair.initial_normals:
        assert abs(n[1]) < 1e-12
        b1 = np.cross(n, [0.0, 1.0, 0.0])
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(n, b1)
        for t in np.linspace(0.0, math.pi, 17):
            x = math.cos(t) * b1 + math.sin(t) * b2
            assert abs(np.linalg.norm(f @ x) - 1.0) <= 1e-10


def test_pond_rejects_uniform_scaling():
    with pytest.raises(NoSuchPlane):
        planes_of_no_distortion(2.0 * np.eye(3))


def test_pond_rejects_identity_like():
    with pytest.raises(NoSuchPlane):
        planes_of_no_distortion(np.eye(3))


# ---------------------------------------------------------------------------
# maximum tangential strain

def test_max_tangential_direction_closed_form():
    x = max_tangential_strain_direction(2.0)
    np.testing.assert_allclose(
        x, [1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0), 0.0], atol=1e-12)


def test_max_tangential_direction_limit():
    x = max_tangential_strain_direction(1.0 + 1e-9)
    np.testing.assert_allclose(x, [1.0 / math.sqrt(2.0)] * 2 + [0.0],
                               atol=1e-6)


def test_max_tangential_direction_is_global_max():
    # oracle: maximize the angle between x and F x over the unit circle
    alpha = 2.0
    f = pure_shear_F(alpha)

    def angle(t):
        x = np.array([math.cos(t), math.sin(t), 0.0])
        y = f @ x
        return math.acos(
            min(1.0, max(-1.0, float(x @ y) / np.linalg.norm(y))))

    ts = np.linspace(0.0, math.pi, 200_001)
    best = max(ts, key=angle)
    x_best = np.array([math.cos(best), math.sin(best), 0.0])
    x_formula = max_tangential_strain_direction(alpha)
    # same direction up to sign, within grid resolution
    assert min(np.linalg.norm(x_best - x_formula),
               np.linalg.norm(x_best + x_formula)) < 1e-4


# ---------------------------------------------------------------------------
# shear ellipse radius

def test_ellipse_radius_axes():
    assert shear_ellipsoid_radius(np.array([0.0, 1.0, 0.0]), 2.0) \
        == pytest.approx(0.5, abs=1e-15)
    assert shear_ellipsoid_radius(np.array([1.0, 0.0, 0.0]), 2.0) \
        == pytest.approx(2.0, abs=1e-15)


def test_ellipse_radius_at_pond_normal_is_one():
    alpha = 3.0
    n = np.array([alpha, 1.0, 0.0]) / math.sqrt(alpha ** 2 + 1.0)
    assert shear_ellipsoid_radius(n, alpha) == pytest.approx(1.0,
                                                             abs=1e-14)


def test_ellipse_radius_rejects_bad_normals():
    with pytest.raises(ValueError):
        shear_ellipsoid_radius(np.array([1.0, 1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        shear_ellipsoid_radius(np.array([0.0, 0.0, 1.0]), 2.0)
