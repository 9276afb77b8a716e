"""The (..., 3, 3) kernel: a stack gives the bits of its members alone."""

import math

import numpy as np
import pytest

from logstrain import constitutive as laws
from logstrain import verify
from logstrain.constitutive import (becker_biot, becker_energy_nu0,
                                    becker_inverse, pk1_for_law)
from logstrain.errors import (LogstrainError, NonInvertible,
                              NotPositiveDefinite)
from logstrain.kinematics import polar_decompose
from logstrain.moduli import Moduli
from logstrain.stresses import StressState
from logstrain.tensors import (_fro_norms, _inners, cofactor, dev3, eig_sym,
                               fro_norm, inner, mat_exp, mat_log, mat_pow,
                               mat_sqrt, tr)
from logstrain.verify import (LoadPath, converged_path_work, diagonal_path,
                              dilation_shear_cycle, path_work,
                              random_rotation, random_spd)

M = Moduli.from_g_lam(1.0, 0.5)
TENSOR_LAWS = [t for t in laws.LAW_TAGS if laws._LAWS[t].tensor is not None]


def _stretches(rng, k):
    lam = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
    if k % 3 == 1:  # two stretches tied to 1e-12 relative
        lam[1] = lam[0] * (1.0 + 1e-12)
    if k % 3 == 2:  # an exact double stretch
        lam[2] = lam[0]
    return lam


def _gradients(rng, n=90):
    fs = [random_rotation(rng) @ random_rotation(rng).T
          @ np.diag(_stretches(rng, k)) @ random_rotation(rng)
          for k in range(n)]
    fs += [np.eye(3), np.diag([2.0, 1.0, 1.0]),
           np.array([[1.0, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    return np.array(fs)


def _spd(rng, n=90):
    out = []
    for k in range(n):
        q = random_rotation(rng)
        out.append(q.T @ np.diag(_stretches(rng, k)) @ q)
    return np.array(out + [np.eye(3), np.diag([2.0, 1.0, 1.0])])


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("law", TENSOR_LAWS)
def test_pk1_stack_equals_each_member(rng, law):
    fs = _gradients(rng)
    stacked = pk1_for_law(law, fs, M)
    single = np.array([pk1_for_law(law, f, M) for f in fs])
    assert _same_bits(stacked, single)


def test_pk1_takes_one_svd_and_no_eigh(rng, monkeypatch):
    calls = {"svd": 0, "eigh": 0}

    def counting(name):
        original = getattr(laws.np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    fs = _gradients(rng, 12)
    for name in calls:
        monkeypatch.setattr(laws.np.linalg, name, counting(name))
    for law in TENSOR_LAWS:
        # every stress at a deformation: PK1 of a stack, the CLI's stress
        # state and the simple glide
        for stress in (lambda: laws.pk1_for_law(law, fs, M),
                       lambda: laws._stress_state(law, fs[1], M),
                       lambda: laws.simple_shear_sigma12(law, 0.7, M)):
            for name in calls:
                calls[name] = 0
            stress()
            assert calls == {"svd": 1, "eigh": 0}, law


def test_pk1_keeps_leading_shape(rng):
    fs = _gradients(rng, 9)[:12].reshape(3, 4, 3, 3)
    stacked = pk1_for_law("hencky-cauchy", fs, M)
    single = pk1_for_law("hencky-cauchy", fs.reshape(-1, 3, 3), M)
    assert _same_bits(stacked, single.reshape(3, 4, 3, 3))


def test_polar_stack_equals_each_member(rng):
    fs = _gradients(rng)
    stacked = polar_decompose(fs)
    for name in ("r", "u", "v"):
        single = np.array([getattr(polar_decompose(f), name) for f in fs])
        assert _same_bits(getattr(stacked, name), single)


@pytest.mark.parametrize("fn", [
    mat_log, mat_sqrt, dev3, lambda a: mat_exp(a - np.eye(3)),
    lambda a: mat_pow(a, math.pi), lambda a: mat_pow(a, -2),
    lambda a: mat_pow(a, 3)] + [
    # the tensor laws: the principal form on one spectrum
    lambda a, law=law: laws.stretch_stress(law, a, M)
    for law in TENSOR_LAWS])
def test_matrix_function_stack_equals_each_member(rng, fn):
    a = _spd(rng)
    assert _same_bits(fn(a), np.array([fn(x) for x in a]))


def test_spectrum_stays_descending_on_stacks(rng):
    # the frame reversal must give the same spectrum as eig_sym per member
    a = _spd(rng)
    logs = mat_log(a)
    for x, w in zip(a, logs):
        s = eig_sym(x)
        back = s.frame @ np.diag(np.log(s.eigenvalues)) @ s.frame.T
        assert np.allclose(w, 0.5 * (back + back.T), atol=1e-14)


def test_bad_member_raises_the_scalar_class_and_names_it(rng):
    a = _spd(rng, 6)
    bad = a.copy()
    bad[2] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite, match="at index 2$"):
        mat_log(bad)
    with pytest.raises(NotPositiveDefinite, match=r"at index \(0, 2\)$"):
        mat_log(bad[:6].reshape(2, 3, 3, 3))
    bad = a.copy()
    bad[4, 0, 0] = math.nan
    with pytest.raises(ValueError, match="a has non-finite entries at "
                                         "index 4"):
        mat_exp(bad)
    bad = a.copy()
    bad[3] = np.diag([5000.0, 1.0, 1.0])
    with pytest.raises(LogstrainError, match="mat_exp: overflow at "
                                             "eigenvalue 5000 at index 3"):
        mat_exp(bad)
    fs = _gradients(rng, 6)
    fs[5] = np.diag([1.0, 0.0, 1.0])
    fs[3] = np.diag([1e7, 1e7, 1e-12])  # det 100, below the log floor
    for law in TENSOR_LAWS:
        # the determinant is checked on the whole stack first
        with pytest.raises(NonInvertible, match="at index 5$"):
            pk1_for_law(law, fs, M)
        if law.startswith("hooke"):  # no logarithm, no floor
            assert np.isfinite(pk1_for_law(law, fs[:5], M)).all()
            continue
        with pytest.raises(NotPositiveDefinite) as err:
            pk1_for_law(law, fs[:5], M)
        assert str(err.value) == ("mat_log: min eigenvalue 1e-12 <= "
                                  "tolerance 1e-05 at index 3")
    fs[5, 1, 1] = math.inf
    with pytest.raises(ValueError, match="at index 5$"):
        polar_decompose(fs)


def test_scalar_messages_name_no_index():
    with pytest.raises(NotPositiveDefinite) as err:
        mat_log(np.diag([1.0, -1.0, 1.0]))
    assert str(err.value) == ("mat_log: min eigenvalue -1 <= tolerance "
                              "1e-12")
    with pytest.raises(NonInvertible) as err:
        polar_decompose(np.diag([1.0, 0.0, 1.0]))
    assert str(err.value) == "det F = 0 <= 1e-12"
    for law in ("becker", "hencky-cauchy"):
        with pytest.raises(NonInvertible) as err:
            pk1_for_law(law, np.diag([1.0, 0.0, 1.0]), M)
        assert str(err.value) == "det F = 0 <= 1e-12"
        with pytest.raises(NotPositiveDefinite) as err:
            pk1_for_law(law, np.diag([1e7, 1e7, 1e-12]), M)
        assert str(err.value) == ("mat_log: min eigenvalue 1e-12 <= "
                                  "tolerance 1e-05")


def test_scalar_only_functions_reject_stacks():
    stack = np.array([np.eye(3)] * 2)
    for fn in (cofactor, eig_sym):
        with pytest.raises(ValueError, match="must be 3x3"):
            fn(stack)
    with pytest.raises(ValueError, match="must be 3x3"):
        StressState(stack, "biot", stack)
    for fn in (fro_norm, tr, lambda a: inner(a, np.eye(3)),
               lambda a: inner(np.eye(3), a)):
        for n in (2, 3):
            with pytest.raises(ValueError, match=rf"shape \({n}, 3, "):
                fn(np.array([np.eye(3)] * n))


def test_stacked_norm_and_inner_equal_the_one_matrix_ones(rng):
    a = rng.standard_normal((500, 3, 3)) * np.exp(
        rng.uniform(-30.0, 30.0, (500, 1, 1)))
    a[-1] = 0.0
    b = rng.standard_normal((500, 3, 3))
    norms, inners = _fro_norms(a), _inners(a, b)
    assert norms.shape == inners.shape == (500,)
    assert all(norms[k] == fro_norm(x) for k, x in enumerate(a))
    assert all(inners[k] == inner(x, y) for k, (x, y) in enumerate(zip(a, b)))
    assert _fro_norms(a.reshape(10, 50, 3, 3)).shape == (10, 50)


def test_inverse_and_energy_stacks_equal_each_member(rng):
    u = _spd(rng)
    t = becker_biot(u, M)
    back = becker_inverse(t, M)
    assert _same_bits(back, np.array([becker_inverse(x, M) for x in t]))
    m0 = Moduli.from_g_lam(1.0, 0.0)
    energies = becker_energy_nu0(u, m0)
    single = [becker_energy_nu0(x, m0) for x in u]
    assert all(type(w) is float for w in single)
    assert _same_bits(energies, np.array(single))
    assert becker_energy_nu0(u.reshape(2, -1, 3, 3), m0).shape \
        == (2, len(u) // 2)


def _rotation_one_at_a_time(rng):
    # the per-sample draw that verify's stacked draws must reproduce
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _spd_one_at_a_time(rng, lo=0.05, hi=20.0):
    lam = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    q = _rotation_one_at_a_time(rng)
    return q.T @ np.diag(lam) @ q


def test_stacked_draws_equal_one_sample_draws():
    for seed in range(50):
        # the isotropy layout: an SPD matrix, then a rotation
        u, q = verify._draw(np.random.default_rng([seed, 4]), 16,
                            [verify._SPD, ()])
        rng = np.random.default_rng([seed, 4])
        for k in range(16):
            assert _same_bits(u[k], _spd_one_at_a_time(rng))
            assert _same_bits(q[k], _rotation_one_at_a_time(rng))
        rng, ref = (np.random.default_rng([seed, 5]) for _ in range(2))
        for _ in range(4):
            assert _same_bits(random_spd(rng, 0.1, 10.0),
                              _spd_one_at_a_time(ref, 0.1, 10.0))
            assert _same_bits(random_rotation(rng),
                              _rotation_one_at_a_time(ref))


def _counting(f_of_t):
    calls = []

    def f(t):
        calls.append(t)
        return f_of_t(t)

    return f, calls


@pytest.mark.parametrize("closed", [True, False])
def test_each_grid_point_is_sampled_once(closed):
    path = (dilation_shear_cycle() if closed
            else diagonal_path([(1.0, 1.0, 1.0), (1.6, 0.8, 1.2)]))
    f, calls = _counting(path)
    work, n, converged = converged_path_work(f, "becker", M, closed=closed)
    assert converged
    assert len(calls) == n + 1
    assert sorted(calls) == np.linspace(0.0, 1.0, n + 1).tolist()


def test_converged_work_equals_fresh_quadrature():
    # reusing the coarse grid changes no bit of the trapezoid values
    f = dilation_shear_cycle()
    work, n, _ = converged_path_work(f, "becker", M, closed=True)
    w = [path_work(LoadPath(np.array([f(t) for t in
                                      np.linspace(0.0, 1.0, k + 1)]),
                            closed=True), "becker", M)
         for k in (n // 4, n // 2, n)]
    prev = (4.0 * w[1] - w[0]) / 3.0
    extrap = (4.0 * w[2] - w[1]) / 3.0
    assert abs(extrap - prev) < 1e-8
    assert work == extrap


def test_midpoint_failure_names_the_fine_grid_index():
    def f(t):
        return np.eye(3) * (math.nan if t == 0.75 else 1.0 + t)

    # grids of 2 and then 4 steps: t = 0.75 is the new point at index 3
    with pytest.raises(ValueError, match="gradient 3 on the path is not "
                                         "finite"):
        converged_path_work(f, "becker", M, n0=2)
