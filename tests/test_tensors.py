"""Spectral kernel and tensor operators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstrain.errors import LogstrainError, NotPositiveDefinite
from logstrain.kinematics import polar_decompose
from logstrain.tensors import (_fro_norms, cofactor, dev3, eig_sym, fro_norm,
                               inner, mat_exp, mat_fn, mat_log, mat_pow,
                               mat_sqrt, tr)
from logstrain.verify import random_rotation, random_spd

from conftest import rel_err, rotation_from_normals, spd_from_draws

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# eigendecomposition

def test_reconstruct_has_the_bits_of_the_diagonal_product(rng):
    # the frame product (frame * v) @ frame.T adds only exact zeros to
    # frame @ diag(v) @ frame.T, so both give the same bits
    for _ in range(200):
        s = eig_sym(random_spd(rng))
        old = s.frame @ np.diag(s.eigenvalues) @ s.frame.T
        assert np.array_equal(s.reconstruct(), old)


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


def _rotated(rng, eigenvalues):
    q = random_rotation(rng)
    a = q.T @ np.diag(eigenvalues) @ q
    return 0.5 * (a + a.T)


def test_eig_within_stated_bound_of_exact(rng):
    # the eig_sym docstring: every eigenvalue within 16 eps max|eigenvalue|
    # of the exact eigenvalue of the stored (symmetric) input
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for k in range(120):
            cond = 10.0 ** rng.uniform(0.0, 12.0)
            spectrum = ([1.0, math.sqrt(cond), cond],
                        [1.0, 1.0 + 1e-12, cond],
                        [1.0, cond, cond * (1.0 + 1e-13)])[k % 3]
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            signs = rng.choice([-1.0, 1.0], 3)
            a = _rotated(rng, scale * signs * np.array(spectrum))
            exact = sorted(mpmath.eigsy(mpmath.matrix(a.tolist()))[0],
                           reverse=True)
            got = eig_sym(a).eigenvalues
            bound = 16.0 * eps * float(np.abs(got).max())
            for g, e in zip(got.tolist(), exact):
                assert abs(float(mpmath.mpf(g) - e)) <= bound


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
    # min |eigenvalue| equal to the floor 1e-12 * max(1, max|eigenvalue|)
    at_floor = np.diag([1.0, -1.0, 1e-12])
    with pytest.raises(NotPositiveDefinite) as err:
        mat_pow(at_floor, -1)
    assert str(err.value) == ("mat_pow: min |eigenvalue| 1e-12 <= "
                              "tolerance 1e-12")
    with pytest.raises(NotPositiveDefinite, match="at index 1$"):
        mat_pow(np.array([np.eye(3), at_floor]), -1)
    assert np.isfinite(mat_pow(np.diag([1.0, -1.0, 2e-12]), -1)).all()


def test_exp_overflow_names_the_eigenvalue(rng):
    with pytest.raises(LogstrainError, match="eigenvalue 5000"):
        mat_exp(np.diag([5000.0, -2500.0, -2500.0]))
    big = np.diag([800.0, 0.0, 0.0])
    stack = np.array([random_spd(rng) for _ in range(5)])
    stack[3] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LogstrainError) as err:
            mat_exp(big)
        assert str(err.value) == "mat_exp: overflow at eigenvalue 800"
        with pytest.raises(LogstrainError) as err:
            mat_exp(stack)
        assert str(err.value) == ("mat_exp: overflow at eigenvalue 800 "
                                  "at index 3")
        # finite values whose sum overflows are no overflow
        assert np.isfinite(mat_exp(np.diag([709.0, 709.0, 709.0]))).all()


def test_exp_near_the_largest_double_stays_finite(rng):
    # function values above half the largest double: the symmetric part
    # halves before it adds, so that a + a.T cannot overflow
    d = np.array([709.78, 709.78, 709.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            q = random_rotation(rng)
            out = mat_exp(q @ np.diag(d) @ q.T)
            assert np.isfinite(out).all()
            scaled = q @ np.diag(np.exp(d - 709.0)) @ q.T
            assert rel_err(out / math.exp(709.0), scaled) < 1e-12


def test_pd_floor_follows_the_spectrum():
    # the floor scales with max|eigenvalue|, which stays finite where the
    # Frobenius norm of a large spectrum would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = mat_log(np.diag([1e300, 1e300, 1e290]))
        assert np.all(np.isfinite(out))
        with pytest.raises(NotPositiveDefinite, match="tolerance 1e\\+288"):
            mat_log(np.diag([1e300, 1e300, 1.0]))


def test_pow_overflow_names_the_eigenvalue():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(LogstrainError, match="mat_pow: overflow at "
                                                 "eigenvalue 0.01"):
            mat_pow(np.diag([0.01, 1.0, 1.0]), -400)


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_pow_rejects_nonfinite_exponent(r):
    with pytest.raises(ValueError) as err:
        mat_pow(np.eye(3), r)
    assert str(err.value) == f"mat_pow: exponent must be finite, got {r}"


def test_mat_fn_applies_f_once_to_the_spectrum(rng):
    stack = np.array([random_spd(rng) for _ in range(4)]).reshape(2, 2, 3, 3)
    shapes = []
    out = mat_fn(stack, lambda x: shapes.append(x.shape) or np.exp(x))
    assert shapes == [(2, 2, 3)]
    assert np.array_equal(out, mat_exp(stack))


@pytest.mark.parametrize("fn", [
    mat_log, mat_exp, mat_sqrt, lambda a: mat_pow(a, 2),
    lambda a: mat_pow(a, -1), lambda a: mat_pow(a, 0.5),
    lambda a: mat_pow(a, math.pi)])
def test_matrix_function_gives_the_same_bits_alone_and_in_a_stack(fn):
    rng = np.random.default_rng(99)
    a = np.array([random_spd(rng) for _ in range(2000)])
    # diagonal members: exact frames, with zeros whose sign must survive
    a[1::3] = np.exp(rng.uniform(-3.0, 3.0, (667, 3)))[:, :, None] * np.eye(3)
    stacked = fn(a)
    for k, x in enumerate(a):
        alone = fn(x)
        assert np.array_equal(stacked[k], alone), k
        assert np.array_equal(np.signbit(stacked[k]), np.signbit(alone)), k


def test_one_sample_draws_equal_their_raw_construction():
    # random_spd and random_rotation read the stream as a (1, 3) uniform
    # array and a (1, 3, 3) normal array: the numbers of one sample
    for seed in range(200):
        rng, raw = np.random.default_rng(seed), np.random.default_rng(seed)
        spd = random_spd(rng, 0.1, 10.0)
        spectrum = raw.uniform(math.log(0.1), math.log(10.0), 3)
        expected = spd_from_draws(spectrum, raw.standard_normal((3, 3)))
        assert np.array_equal(spd, expected)
        assert np.array_equal(random_rotation(rng),
                              rotation_from_normals(raw.standard_normal(
                                  (3, 3))))
        assert rng.uniform() == raw.uniform()  # the streams stay in step


def test_exp_log_round_trip(rng):
    for _ in range(500):
        a = random_spd(rng)
        assert fro_norm(mat_exp(mat_log(a)) - a) <= 1e-12 * fro_norm(a)


def test_log_power_law(rng):
    # a**r with base spectra in [0.1, 10] and r in [-3, 3] reaches cond
    # ~1e6, so storing a**r in float64 already moves its smallest
    # eigenvalue by ~eps * cond ~1e-10 relative with any eigensolver; the
    # logarithm turns that into an absolute error well below the tolerance
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
# oracles and properties

def test_matrix_functions_match_scipy(rng):
    sl = pytest.importorskip("scipy.linalg")
    for k in range(40):
        if k % 2:
            lo = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            a = _rotated(rng, [lo, lo * (1.0 + 1e-12),
                               rng.uniform(0.05, 20.0)])
        else:
            a = random_spd(rng)
        x = _rotated(rng, rng.uniform(-3.0, 3.0, 3))
        assert rel_err(mat_log(a), sl.logm(a)) < 1e-13
        # scipy's Pade expm is itself off by up to ~5e-14 on these inputs
        assert rel_err(mat_exp(x), sl.expm(x)) < 1e-12
        assert rel_err(mat_sqrt(a), sl.sqrtm(a)) < 1e-13
        assert rel_err(mat_pow(a, 0.5),
                       sl.fractional_matrix_power(a, 0.5)) < 1e-13
        f = random_rotation(rng) @ a
        pf = polar_decompose(f)
        r, u = sl.polar(f)
        _, v = sl.polar(f, side="left")
        assert rel_err(pf.r, r) < 1e-13
        assert rel_err(pf.u, u) < 1e-13
        assert rel_err(pf.v, v) < 1e-13


_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-300.0, max_value=300.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entries=st.lists(_ENTRY, min_size=6, max_size=6),
       fn=st.sampled_from(["eig_sym", "mat_log", "mat_exp", "mat_sqrt",
                           "mat_pow"]),
       r=st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 2.0, math.pi]))
def test_kernel_finite_or_logstrain_error(entries, fn, r):
    a00, a01, a02, a11, a12, a22 = entries
    a = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])
    call = {"eig_sym": lambda: eig_sym(a).reconstruct(),
            "mat_log": lambda: mat_log(a), "mat_exp": lambda: mat_exp(a),
            "mat_sqrt": lambda: mat_sqrt(a),
            "mat_pow": lambda: mat_pow(a, r)}[fn]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = call()
        except LogstrainError:
            return
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# operators

def test_dev3_of_identity_vanishes():
    np.testing.assert_allclose(dev3(np.eye(3)), np.zeros((3, 3)))


def test_dev3_trace_free(rng):
    a = rng.standard_normal((3, 3))
    assert abs(tr(dev3(a))) <= 1e-14 * max(1.0, fro_norm(a))


def test_fro_norm_has_numpy_bits_inside_the_normal_range(rng):
    # largest |entry| in [1e-150, 1e150]: one dot product, as numpy's norm
    scale = np.exp(rng.uniform(-340.0, 340.0, (400, 1, 1)))
    a = rng.standard_normal((400, 3, 3)) * scale
    a[::7, 0, 1] = -0.0
    a[::11, 2] = 5e-324  # subnormal entries beside a normal largest one
    norms = _fro_norms(a)
    for k, x in enumerate(a):
        for view in (x, x.T):  # contiguous and transposed memory
            assert fro_norm(view) == float(np.linalg.norm(view))
        assert norms[k] == fro_norm(x)


@pytest.mark.parametrize("v", [1e150 * 1.0001, 1e200, 1e300, 1e307, 1e-151,
                               1e-200, 1e-300, 5e-324])
def test_fro_norm_scales_outside_the_normal_range(v):
    # the squares would overflow or fall subnormal: divided by a power of
    # two first, the norm is right to a few ulp, and quiet
    a = np.full((3, 3), v)
    a[0, 1] = a[2, 0] = -v
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = fro_norm(a)
        norms = _fro_norms(np.stack([np.eye(3), a, -a, np.zeros((3, 3))]))
        alone = _fro_norms(a)
    assert norm == pytest.approx(3.0 * v, rel=4e-16, abs=0.0)
    assert norms.tolist() == [fro_norm(np.eye(3)), norm, norm, 0.0]
    assert alone.shape == () and alone == norm


def test_stack_norms_equal_fro_norm_across_the_exponent_range(rng):
    # members in and out of the unscaled range, zero members among them,
    # mixed in one stack: each gets the bits of fro_norm
    a = rng.standard_normal((600, 3, 3)) * np.exp(
        rng.uniform(-700.0, 700.0, (600, 1, 1)))
    a[::5] = 0.0
    a[1::7, 1] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _fro_norms(a)
        assert norms.tolist() == [fro_norm(x) for x in a]


def test_fro_norm_above_the_largest_float_is_inf_quietly():
    a = np.full((3, 3), 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fro_norm(a) == math.inf
        assert _fro_norms(a[None]).tolist() == [math.inf]
    assert math.isnan(fro_norm(np.full((3, 3), math.nan)))
    assert fro_norm(np.zeros((3, 3))) == 0.0


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


def test_cofactor_equals_the_signed_minors_bit_for_bit(rng):
    # entries spanning 1e-20 to 1e20: the cross products of rows give the
    # bits of the nine minors written out
    for _ in range(2000):
        m = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-20, 20, (3, 3))
        minors = np.array([
            [m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
             m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2],
             m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]],
            [m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2],
             m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
             m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]],
            [m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
             m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2],
             m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]]])
        assert cofactor(m).tobytes() == minors.tobytes()


def test_cofactor_defined_for_singular():
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    np.testing.assert_allclose(cofactor(m), np.zeros((3, 3)))
