"""Spectral kernel and tensor operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstrain.errors import LogstrainError, NotPositiveDefinite
from logstrain.tensors import (cofactor, dev3, eig_sym, fro_norm, inner,
                               mat_exp, mat_log, mat_pow, mat_sqrt, tr)
from logstrain.verify import random_rotation, random_spd

from conftest import rel_err

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# eigendecomposition

def test_eig_identity():
    s = eig_sym(np.eye(3))
    np.testing.assert_allclose(s.eigenvalues, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(s.frame.T @ s.frame, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(s.reconstruct(), np.eye(3), atol=1e-12)


def test_eig_diagonal_sorted():
    s = eig_sym(np.diag([2.0, 0.5, 1.0]))
    np.testing.assert_allclose(s.eigenvalues, [2.0, 1.0, 0.5])


def test_eig_glide_metric():
    # right Cauchy-Green tensor of a unit glide; the 2x2 block has
    # characteristic polynomial mu^2 - 3 mu + 1, roots (3 +- sqrt 5)/2
    c = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    s = eig_sym(c)
    expected = [(3.0 + math.sqrt(5.0)) / 2.0, 1.0,
                (3.0 - math.sqrt(5.0)) / 2.0]
    np.testing.assert_allclose(s.eigenvalues, expected, rtol=1e-14)
    assert rel_err(s.reconstruct(), c) < 1e-14


def test_eig_invariants_random(rng):
    for _ in range(500):
        a = random_spd(rng)
        s = eig_sym(a)
        assert fro_norm(s.frame.T @ s.frame - np.eye(3)) <= 1e-12
        assert fro_norm(s.reconstruct() - a) <= 1e-12 * fro_norm(a)
        assert s.eigenvalues[0] >= s.eigenvalues[1] >= s.eigenvalues[2]


def test_eig_repeated_eigenvalues():
    # a double eigenvalue must not degrade the frame orthonormality
    q = random_rotation(np.random.default_rng(7))
    a = q.T @ np.diag([3.0, 3.0, 1.0]) @ q
    s = eig_sym(a)
    assert fro_norm(s.frame.T @ s.frame - np.eye(3)) <= 1e-12
    assert rel_err(s.reconstruct(), a) < 1e-13


def test_eig_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        eig_sym(bad)


def test_eig_deterministic():
    a = random_spd(np.random.default_rng(3))
    s1, s2 = eig_sym(a), eig_sym(a)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.frame, s2.frame)


# ---------------------------------------------------------------------------
# matrix functions

def test_log_of_pure_shear_metric():
    a = np.diag([2.0, 0.5, 1.0])
    np.testing.assert_allclose(
        mat_log(a), np.diag([math.log(2.0), -math.log(2.0), 0.0]),
        atol=1e-15)


def test_log_identity_is_zero():
    np.testing.assert_allclose(mat_log(np.eye(3)), np.zeros((3, 3)),
                               atol=1e-15)


def test_pow_half_is_sqrt():
    a = np.diag([4.0, 1.0, 1.0])
    np.testing.assert_allclose(mat_pow(a, 0.5), np.diag([2.0, 1.0, 1.0]),
                               atol=1e-15)
    np.testing.assert_allclose(mat_sqrt(a), np.diag([2.0, 1.0, 1.0]),
                               atol=1e-15)


def test_log_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        mat_log(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NotPositiveDefinite):
        mat_sqrt(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(NotPositiveDefinite):
        mat_pow(np.diag([1.0, 0.0, 1.0]), 0.3)


def test_negative_integer_power_of_singular_matrix():
    with pytest.raises(NotPositiveDefinite):
        mat_pow(np.diag([1.0, 0.0, 1.0]), -1)


def test_exp_overflow_names_the_eigenvalue():
    with pytest.raises(LogstrainError, match="eigenvalue 5000"):
        mat_exp(np.diag([5000.0, -2500.0, -2500.0]))


def test_exp_log_round_trip(rng):
    for _ in range(500):
        a = random_spd(rng)
        assert fro_norm(mat_exp(mat_log(a)) - a) <= 1e-12 * fro_norm(a)


def test_log_power_law(rng):
    # base spectra in [0.1, 10] keep a**r inside the kernel's accuracy
    # domain (eigenvalue ratio <= 1e6) for every r in [-3, 3]
    for _ in range(200):
        a = random_spd(rng, 0.1, 10.0)
        r = rng.uniform(-3.0, 3.0)
        lhs = mat_log(mat_pow(a, r))
        rhs = r * mat_log(a)
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(rhs))


def test_log_isotropy(rng):
    for _ in range(200):
        a = random_spd(rng)
        q = random_rotation(rng)
        lhs = mat_log(q.T @ a @ q)
        rhs = q.T @ mat_log(a) @ q
        assert fro_norm(lhs - rhs) <= 1e-12 * max(1.0, fro_norm(rhs))


def test_det_exp_is_exp_trace(rng):
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, (3, 3))
        x = 0.5 * (x + x.T)
        lhs = np.linalg.det(mat_exp(x))
        rhs = math.exp(tr(x))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_coaxial_log_additivity(rng):
    for _ in range(200):
        q = random_rotation(rng)
        lam1 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        lam2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        a = q.T @ np.diag(lam1) @ q
        b = q.T @ np.diag(lam2) @ q
        lhs = mat_log(a @ b)
        rhs = mat_log(a) + mat_log(b)
        assert fro_norm(lhs - rhs) <= 1e-11 * max(1.0, fro_norm(rhs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lams=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3,
                     max_size=3),
       angle=st.floats(min_value=0.0, max_value=math.pi),
       ax=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3,
                   max_size=3))
def test_round_trip_property(lams, angle, ax):
    axis = np.asarray(ax)
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([1.0, 0.0, 0.0])
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    q = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    a = q @ np.diag(lams) @ q.T
    assert rel_err(mat_exp(mat_log(a)), a) < 1e-12


# ---------------------------------------------------------------------------
# operators

def test_dev3_of_identity_vanishes():
    np.testing.assert_allclose(dev3(np.eye(3)), np.zeros((3, 3)))


def test_dev3_trace_free(rng):
    a = rng.standard_normal((3, 3))
    assert abs(tr(dev3(a))) <= 1e-14 * max(1.0, fro_norm(a))


def test_inner_is_trace_pairing(rng):
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert abs(inner(a, b) - np.trace(b.T @ a)) < 1e-13
    # <I, log U - I> at U = I
    assert inner(np.eye(3), mat_log(np.eye(3)) - np.eye(3)) == -3.0


def test_cofactor_of_pure_shear():
    alpha = 2.0
    f = np.diag([alpha, 1.0 / alpha, 1.0])
    np.testing.assert_allclose(cofactor(f),
                               np.diag([1.0 / alpha, alpha, 1.0]),
                               atol=1e-15)


def test_cofactor_matches_det_inverse_transpose(rng):
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        expected = np.linalg.det(m) * np.linalg.inv(m).T
        assert rel_err(cofactor(m), expected) < 1e-12


def test_cofactor_defined_for_singular():
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    np.testing.assert_allclose(cofactor(m), np.zeros((3, 3)))
