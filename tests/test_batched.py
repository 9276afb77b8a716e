"""The (..., 3, 3) kernel: a stack gives the bits of its members alone."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from logstrain import constitutive as laws
from logstrain import tensors, verify
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
from logstrain.verify import (converged_path_work, diagonal_path,
                              dilation_shear_cycle, random_rotation)

from conftest import (count_lapack, patch_everywhere, rotation_from_normals,
                      spd_from_draws)

M = Moduli.from_g_lam(1.0, 0.5)
TENSOR_LAWS = [t for t in laws.LAW_TAGS if laws._LAWS[t].strain is not None]


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
    fs = _gradients(rng, 12)
    calls = count_lapack(monkeypatch, ("svd", "eigh"))
    for law in TENSOR_LAWS:
        # every stress at a deformation: PK1 of a stack and the CLI's stress
        # state take one SVD; the simple glide, whose principal stretches
        # are known in closed form, takes none
        for stress, svds, matrices in (
                (lambda: laws.pk1_for_law(law, fs, M), 1, len(fs)),
                (lambda: laws._stress_state(law, fs[1], M), 1, 1),
                (lambda: laws.simple_shear_sigma12(law, 0.7, M), 0, 0)):
            calls.clear()
            stress()
            assert calls == Counter(svd=svds), law
            assert calls.matrices == Counter(svd=matrices), law


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
    a = np.concatenate([_spd(rng), _signed_zeros_and_subnormals(rng)])
    assert _same_bits(fn(a), np.array([fn(x) for x in a]))


def _signed_zeros_and_subnormals(rng):
    # SPD matrices with -0.0 or subnormal entries off the diagonal, on
    # tied, permuted and random spectra
    out = []
    for off in (-0.0, 5e-324, -5e-324, -2.5e-310):
        for d in ([2.0, 2.0, 0.5], [0.7, 3.0, 1.5], [1.5, 1.5, 1.5],
                  _stretches(rng, 0)):
            a = np.diag(d)
            a[0, 1] = a[1, 0] = off
            a[1, 2] = a[2, 1] = -off
            out.append(a)
            out.append(a[[2, 0, 1]][:, [2, 0, 1]])
    return np.array(out)


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


def _powers_of_the_batch(law, pairs):
    # one request whose members are the powers a**r of the pairs, answered
    # by the batch with the law's stress at each; a pair whose exponent is
    # a tuple is one _Power of several exponents
    read = verify._answers(laws._LAWS[law], M, [[
        verify._Power(a, r if isinstance(r, tuple) else (r,))
        for a, r in pairs]])
    return read(0)


def _powers_alone(law, pairs):
    # the same stresses from public calls, one mat_pow call per exponent
    out = []
    for a, r in pairs:
        if isinstance(r, tuple):
            p = np.empty_like(a)
            for k, x in enumerate(r):
                p[k::len(r)] = mat_pow(a[k::len(r)], x)
        else:
            p = mat_pow(a, r)
        out.append(laws.stretch_stress(law, p, M))
    return out


def test_many_powers_from_one_spectrum_equal_each_call(rng):
    # the exponents of check_axioms, on strided slices and as one _Power;
    # a matrix alone, and a stack of two leading axes
    u = _spd(rng)
    powers = (-2.0, -0.5, 0.5, 2.0, math.pi)
    pairs = [(u[k::5], r) for k, r in enumerate(powers)]
    pairs += [(u, powers), (u, -1), (u[0], 3),
              (u[:90].reshape(9, 10, 3, 3), 0.5)]
    for law in ("becker", "hooke-biot"):
        got = _powers_of_the_batch(law, pairs)
        want = _powers_alone(law, pairs)
        assert len(got) == len(want) == len(pairs)
        assert all(_same_bits(a, b) for a, b in zip(got, want))


def _first_error(call):
    with pytest.raises(LogstrainError) as err:
        call()
    return err.value


def test_many_powers_raise_the_first_failing_calls_error():
    good, singular = np.eye(3)[None] * 2.0, np.diag([1.0, 1.0, 0.0])
    pairs = [(good, 0.5), (np.stack([good[0], singular]), -1),
             (singular, 0.5)]
    alone = _first_error(lambda: _powers_alone("becker", pairs))
    batched = _first_error(lambda: _powers_of_the_batch("becker", pairs))
    assert type(alone) is type(batched) is NotPositiveDefinite
    assert str(batched) == str(alone)
    assert str(alone).endswith("at index 1")


def test_many_powers_raise_an_overflow_as_the_calls_do():
    # the first failing call decides, an overflow before a later floor, and
    # within one call the floor before an overflow
    good, huge = np.eye(3)[None] * 2.0, np.diag([1e200, 1.0, 1.0])
    singular = np.diag([1.0, 1.0, 0.0])
    for pairs in ([(good, 0.5), (np.stack([good[0], huge]), 2.0),
                   (singular, 0.5)],
                  [(good, -1), (np.stack([huge, -huge]), 1.5)],
                  [(huge, 3), (good, 2.0)]):
        alone = _first_error(lambda: _powers_alone("becker", pairs))
        batched = _first_error(lambda: _powers_of_the_batch("becker", pairs))
        assert type(batched) is type(alone)
        assert str(batched) == str(alone)


def _count_factorizations(monkeypatch):
    # eigh, det (an LU factorization), qr, which verify._draw calls once on
    # the stack of its normals, svd and inv, at the tensors boundary
    return count_lapack(monkeypatch, ("eigh", "det", "qr", "svd", "inv"))


@pytest.mark.parametrize("block, eigh, matrices", [
    (lambda: verify.check_axioms("becker", M, samples=64, seed=1), 3,
     Counter(eigh=705 + 128 + 64, qr=7 * 64)),
    (lambda: verify.check_axioms("hooke-biot", M, samples=64, seed=1), 1,
     Counter(eigh=128, qr=6 * 64)),
    (lambda: verify.hill_convexity_probe(Moduli.from_g_lam(1.0, 0.0),
                                         samples=64, seed=1), 3,
     Counter(eigh=192 + 384, qr=4 * 64))],
    ids=["becker-axioms", "hooke-biot-axioms", "hill-probes"])
def test_each_block_is_one_batch(monkeypatch, block, eigh, matrices):
    # one QR for every rotation, and no det: the draws read the sign of
    # det Q from a triple product; the becker axioms take one spectrum of
    # their 705 stretches (the power bases among them), one of the 128
    # powers and one of the 64 stresses becker_inverse inverts; hooke-biot
    # one of its power bases; the log-domain probe one of its 3 x 64
    # matrices for mat_exp and one of their exponentials for its energies,
    # the SPD probe one of its 3 x 64 matrices for its energies
    calls = _count_factorizations(monkeypatch)
    block()
    assert calls == Counter(eigh=eigh, qr=1)
    assert calls.matrices == matrices


# per configuration of the benchmark's check-suite workload, one suite at
# samples 64, seed 1: its eigh calls, the matrices of its one qr call and
# of its eigh calls, and its det calls and their matrices.  A becker suite
# decomposes, besides the axiom block, the monotonicity pairs (2, and 128
# at lam = 0) and the ladder stretches (6) in its first round; then at
# lam = 0 the probes (192 for mat_exp, then 192 for the energies of each
# probe) and the open path's two ends, one call each.  The Baker-Ericksen
# reports judge the diagonals of their diagonal stretches and the
# ordered-force report its drawn principal stretches: they factorize
# nothing, and the ordered-force stream draws no rotation.  The draws
# take no det; only becker's path work does, one call per path on its 97
# nodes: the path check's, whose dets the PK1 stresses test again without
# factorizing (the closed cycle, and at lam = 0 the open path).  No suite
# takes an svd or an inv: the nodes of both paths are positive diagonal,
# whose PK1 stresses are read off their diagonals.
_SUITE_BUDGETS = {
    ("becker", 0.0): (8, 832, 841 + 128 + 64 + 576 + 2, 2, 2 * 97),
    ("becker", 0.5): (3, 448, 713 + 128 + 64, 1, 97),
    ("becker", 25.0): (3, 448, 713 + 128 + 64, 1, 97),
    ("hencky-kirchhoff", 0.5): (3, 448, 705 + 128 + 64, 0, 0),
    ("hooke-biot", 0.5): (1, 384, 128, 0, 0),
}


@pytest.mark.parametrize("law, lam", list(_SUITE_BUDGETS))
def test_suite_is_one_batch(monkeypatch, law, lam):
    eigh, qr_matrices, eigh_matrices, det, det_matrices = \
        _SUITE_BUDGETS[law, lam]
    calls = _count_factorizations(monkeypatch)
    verify.suite(law, Moduli.from_g_lam(1.0, lam), samples=64, seed=1)
    assert calls == Counter(eigh=eigh, qr=1, det=det)
    assert calls.matrices == Counter(eigh=eigh_matrices, qr=qr_matrices,
                                     det=det_matrices)


@pytest.mark.parametrize("samples", [1, 5, 64])
def test_ordered_forces_judge_the_drawn_stretches(monkeypatch, samples):
    # ordered_force_random judges the principal stretches its stream
    # [seed, 201] draws, bit for bit and in the order drawn: one (samples,
    # 3) log-uniform array, with no rotation and no eigendecomposition
    seen, force_order = [], verify._force_order

    def capture(lam, m):
        seen.append(lam)
        return force_order(lam, m)

    monkeypatch.setattr(verify, "_force_order", capture)
    verify.suite("becker", M, samples=samples, seed=7)
    rng = np.random.default_rng([7, 201])
    drawn = np.exp(rng.uniform(math.log(0.05), math.log(20.0), (samples, 3)))
    assert len(seen) == 1 and _same_bits(seen[0], drawn)


def test_a_clean_batch_makes_no_member_call(monkeypatch):
    # where the batch's masks pass, no member's own call is made: nothing
    # is evaluated twice
    def refuse(*args):
        raise AssertionError("a member call on a clean batch")

    for name in ("mat_pow", "_tensor_law"):
        monkeypatch.setattr(verify, name, refuse)
    for law in TENSOR_LAWS:
        assert all(r.as_expected for r in verify.check_axioms(
            law, M, samples=16, seed=2))
    u = _spd(np.random.default_rng(3))
    assert verify.m_condition_check(u, u[::-1], M)[0] > 0.0


def test_each_probe_makes_its_own_public_calls(monkeypatch):
    # the convexity probes have no evaluator of their own: the log-domain
    # probe makes one mat_exp call on its stack (x1, x2, midpoint) and one
    # energy call on the exponentials, the SPD probe one energy call on
    # its stack (u1, u2, midpoint)
    calls = []

    def counting(f):
        def call(a, *args):
            calls.append((f.__name__, np.shape(a)))
            return f(a, *args)
        return call

    for f in (mat_exp, becker_energy_nu0):
        monkeypatch.setattr(verify, f.__name__, counting(f))
    verify.hill_convexity_probe(Moduli.from_g_lam(1.0, 0.0), samples=16)
    assert calls == [("mat_exp", (48, 3, 3)),
                     ("becker_energy_nu0", (48, 3, 3)),
                     ("becker_energy_nu0", (48, 3, 3))]


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


class _CountingRng:
    """A generator that counts the calls ``verify._draw`` makes of it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)

    def standard_normal(self, *args):
        self.calls += 1
        return self.rng.standard_normal(*args)


def test_stacked_draws_equal_matrices_built_alone():
    # each stacked matrix has the bits of the same matrix built alone from
    # the same raw draws: per group one (samples, 3) uniform array per
    # spectrum, then one (samples, 3, 3) normal array
    logs = verify._SPD[0][:2]
    for seed in range(50):
        # the isotropy layout: an SPD group, then a rotation group
        u, q = verify._draw(np.random.default_rng([seed, 4]), 16,
                            [verify._SPD, ()])
        rng = np.random.default_rng([seed, 4])
        spectra = rng.uniform(*logs, (16, 3))
        z_u = rng.standard_normal((16, 3, 3))
        z_q = rng.standard_normal((16, 3, 3))
        for k in range(16):
            assert _same_bits(u[k], spd_from_draws(spectra[k], z_u[k]))
            assert _same_bits(q[k], rotation_from_normals(z_q[k]))
        # the superposition layout: two spectra on one rotation
        u1, u2 = verify._draw(np.random.default_rng([seed, 3]), 16,
                              [verify._SPD * 2])
        rng = np.random.default_rng([seed, 3])
        s1, s2 = rng.uniform(*logs, (16, 3)), rng.uniform(*logs, (16, 3))
        z = rng.standard_normal((16, 3, 3))
        for k in range(16):
            assert _same_bits(u1[k], spd_from_draws(s1[k], z[k]))
            assert _same_bits(u2[k], spd_from_draws(s2[k], z[k]))


@pytest.mark.parametrize("groups, calls", [
    ([verify._SPD, ()], 3), ([verify._SPD * 2], 3),
    ([verify._SYM_LOG, verify._SYM_LOG], 4)])
def test_draw_calls_do_not_grow_with_samples(groups, calls):
    for samples in (1, 7, 1000):
        rng = _CountingRng(0)
        stacks = verify._draw(rng, samples, groups)
        assert rng.calls == calls
        assert all(x.shape == (samples, 3, 3) for x in stacks)


# sha256 of format_reports(suite(law, G, lam, samples=64, seed=9)), one per
# configuration of the benchmark's check-suite workload.  The draws were
# laid out in bulk once, deliberately; a change to these digests changes
# what the suite reports and must be a deliberate one too.  The four
# log-law digests were re-pinned once more when becker_inverse moved onto
# the spectrum of the deviator: only their inverse_round_trip line changed.
# The three becker digests were re-pinned when the path work moved onto the
# nested Chebyshev rule, and again when that rule went to 6 panels of
# degree 16: each time only their closed_cycle_work and
# open_path_energy_match lines changed (their steps, and the last digits
# of the work).
_SUITE_DIGESTS = {
    ("becker", 0.0): "f0aa3103e8cdc7123d558d1deacc789f"
                     "b245f393d74c11921e6e946fa350ea47",
    ("becker", 0.5): "554db4e16903cab8ba37156e29546314"
                     "ad6bc4d4aae67b29a213a22ccc8c8eb7",
    ("becker", 25.0): "a13a83b33a0c27ba1664b630d6a2801f"
                      "443aec71af5afb14c83aadb9a160f85c",
    ("hencky-kirchhoff", 0.5): "e042e9c1ef60a3cf611dac1aa90e32b9"
                               "4f78f3187c23c25f3c50b4260bba9881",
    ("hooke-biot", 0.5): "f5f7ee28df7382e4fd5e6a80793be239"
                         "c41ef13aeac71bcbb21499b17c52af27",
}


@pytest.mark.parametrize("law, lam", list(_SUITE_DIGESTS))
def test_seeded_suite_reports_are_pinned(law, lam):
    text = "\n".join(verify.format_reports(verify.suite(
        law, Moduli.from_g_lam(1.0, lam), samples=64, seed=9)))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == _SUITE_DIGESTS[law, lam]


# the same configurations at samples 1 and 5, seed 10: a batch of one
# sample, and one in which power_law's five exponents each take one matrix
_SMALL_SUITE_DIGESTS = {
    ("becker", 0.0, 1): "b8946edfdf101c41d9e22793c77f2674"
                        "885d07197709e52e12e4a55fd666274a",
    ("becker", 0.5, 1): "f3104eb25b4c2b94a826a05b8bab9a36"
                        "cc9e87a323068a88530b012e71e87cf3",
    ("becker", 25.0, 1): "fd32c217252ec6c3d2b283d9d3cb8f41"
                         "fb6d82dbf6d5392131e40c01c0102d7f",
    ("hencky-kirchhoff", 0.5, 1): "b9e76396145816b7f15335186db3eb7c"
                                  "dbd33d979eedcd4d914d03157856ef33",
    ("hooke-biot", 0.5, 1): "e4eef5e62aecc2a344fcfad759532b4e"
                            "0a9df1fd5be7dd9a1f37b73f0ef1eb76",
    ("becker", 0.0, 5): "32d8b5de2c9dbef0fdc1502c0001d5ab"
                        "a2db9a21037d3b674b96c42ecaf21c78",
    ("becker", 0.5, 5): "cd333139e63a8936248d0468c35c42ce"
                        "bde6cd53a415d646b422360fbf519906",
    ("becker", 25.0, 5): "7318c5a4adfdd6d7522f4b97d6ba4f58"
                         "1d7fb090c3ba41405b468e559b4377c3",
    ("hencky-kirchhoff", 0.5, 5): "d20ea599d547e80d2d76ae8cd9c31ada"
                                  "7f08012c60970efd52fc5c9b725e0e8b",
    ("hooke-biot", 0.5, 5): "4b202451211d4a746e57b435ddcd6b99"
                            "756741f479972a9acb76d1d5113f8357",
}


@pytest.mark.parametrize("law, lam, samples", list(_SMALL_SUITE_DIGESTS))
def test_small_seeded_suite_reports_are_pinned(law, lam, samples):
    text = "\n".join(verify.format_reports(verify.suite(
        law, Moduli.from_g_lam(1.0, lam), samples=samples, seed=10)))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == _SMALL_SUITE_DIGESTS[law, lam, samples]


def _answers_alone(row, m, requests):
    # each member of a request answered by its own public calls, one member
    # at a time: one mat_pow call per exponent slice, one stretch_stress
    # call per stretch
    def answer(x):
        if isinstance(x, verify._Power):
            n, a = len(x.exponents), np.empty_like(x.a)
            for k, r in enumerate(x.exponents[:len(x.a)]):
                a[k::n] = mat_pow(x.a[k::n], r)
            x = a
        return laws.stretch_stress(row.tag, x, m)

    return lambda k: [answer(x) for x in requests[k]]


def _one_at_a_time(f):
    # f called on each matrix of a stack alone
    def each(a, *args):
        return np.array([f(x, *args) for x in a]) if a.ndim > 2 \
            else f(a, *args)

    return each


@pytest.mark.parametrize("law, lam", list(_SUITE_DIGESTS))
@pytest.mark.parametrize("samples", [1, 2, 5, 16])
def test_batched_suite_equals_each_check_alone(monkeypatch, law, lam,
                                               samples):
    # every report byte for byte as when each member of each check's
    # request is answered by its own public calls, and each probe's
    # exponentials and energies by one call per matrix
    m = Moduli.from_g_lam(1.0, lam)
    batched = verify.format_reports(verify.suite(law, m, samples=samples,
                                                 seed=4))
    monkeypatch.setattr(verify, "_answers", _answers_alone)
    monkeypatch.setattr(verify, "mat_exp", _one_at_a_time(mat_exp))
    monkeypatch.setattr(verify, "becker_energy_nu0",
                        _one_at_a_time(becker_energy_nu0))
    alone = verify.format_reports(verify.suite(law, m, samples=samples,
                                               seed=4))
    assert alone == batched


def _counting(f_of_t):
    calls = []

    def f(t):
        calls.append(t)
        return f_of_t(t)

    return f, calls


# seven segments: the corners at t = k/7 lie off the panel grid of t = k/6,
# so the rule refines a per-node callable that traces them to its finest
# degree without converging (their diagonal path takes 7 panels instead)
_OFF_GRID = [(1.0, 1.0, 1.0), (1.5, 1.0, 1.0), (1.5, 1.3, 1.0),
             (1.8, 1.3, 1.2), (1.2, 1.6, 1.2), (1.0, 1.2, 1.4),
             (0.8, 1.0, 1.1), (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("closed", [True, False])
def test_each_grid_point_is_sampled_once(closed):
    path = diagonal_path(_OFF_GRID if closed
                         else [(1.0, 1.0, 1.0), (1.6, 0.8, 1.2)])
    f, calls = _counting(path)
    work, n, converged = converged_path_work(f, "becker", M, closed=closed)
    assert converged != closed
    assert n == (verify.PANELS * verify.MAX_DEGREE if closed else 96)
    assert len(calls) == n + 1
    assert sorted(calls) == verify._rule(n // verify.PANELS)[0].tolist()


def test_dilation_cycle_converges_on_the_first_grid():
    f, calls = _counting(dilation_shear_cycle())
    converged_path_work(f, "becker", M, closed=True)
    assert len(calls) == 97


def test_converged_work_equals_fresh_quadrature():
    # the kept nodes are the even nodes of a fresh rule of twice the
    # degree, bit for bit, so refinement changes no bit of the work
    degree = 4
    while degree < verify.MAX_DEGREE:
        assert np.array_equal(verify._rule(2 * degree)[0][::2],
                              verify._rule(degree)[0])
        degree *= 2
    path = diagonal_path(_OFF_GRID)
    # a per-node callable on 6 panels, and the diagonal path itself on 7,
    # refined to the finest rule by tol = 0, which no estimate meets
    for f, panels in ((lambda t: path(t), 6), (path, 7)):
        work, n, _ = converged_path_work(f, "becker", M, closed=True, tol=0.0)
        assert n == panels * verify.MAX_DEGREE
        g = np.array([path(t) for t in
                      verify._rule(verify.MAX_DEGREE, panels)[0]])
        works, _ = verify._panel_works(g, pk1_for_law("becker", g, M),
                                       verify.MAX_DEGREE, panels)
        assert work == float(np.sum(works))


def test_refinement_node_failure_names_the_fine_grid_index():
    # index 167 is the odd node 7 of panel 5 in the rule of degree 32, the
    # first refinement: a node that the first rule does not sample
    bad = verify._rule(32)[0][167]

    def f(t):
        return np.eye(3) * (math.nan if t == bad else 1.0 + t)

    with pytest.raises(ValueError, match="gradient 167 on the path is not "
                                          "finite"):
        converged_path_work(f, "becker", M, tol=0.0)


# corner lists of diagonal paths: the dilation cycle, the off-grid cycle,
# an open path, and one with signed zeros, negative, huge, subnormal and
# infinite entries
_DIAGONAL_CORNERS = [
    [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0)],
    _OFF_GRID,
    [(1.0, 1.0, 1.0), (1.6, 0.8, 1.2)],
    [(-0.0, 0.0, 1e308), (0.0, -0.0, 1e308), (-2.5, 5e-324, math.inf)],
]


@pytest.mark.parametrize("corners", _DIAGONAL_CORNERS)
def test_diagonal_path_array_equals_each_call(corners):
    path = diagonal_path(corners)
    segs = len(corners) - 1
    t = np.concatenate([verify._rule(verify.MAX_DEGREE)[0], [0.0, 1.0],
                        np.arange(segs + 1) / segs])
    with np.errstate(over="raise", invalid="raise"):
        alone = np.array([path(x) for x in t.tolist()])
    # the array pass runs quietly, as the calls on Python floats do
    stack = path._at_nodes(t)
    assert stack.shape == (len(t), 3, 3)
    # bit for bit, the sign bits of zeros and the NaN of 0 * inf included
    assert np.array_equal(stack.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("corners", _DIAGONAL_CORNERS)
def test_diagonal_path_call_clamps_t(corners):
    # t outside [0, 1] gives the end points; inside, (1 - w) a + w b of
    # segment i, with the last segment at t = 1; bit for bit, signed
    # zeros and the NaN of 0 * inf included
    path = diagonal_path(corners)
    segs = len(corners) - 1
    pts = np.array(corners, dtype=float)

    def expected(t):
        x = min(max(t, 0.0), 1.0) * segs
        i = min(int(x), segs - 1)
        w = x - i
        with np.errstate(invalid="ignore"):
            return np.diag((1.0 - w) * pts[i] + w * pts[i + 1])

    for t in (-1e300, -2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0 - 2**-53, 1.0,
              1.5, 1e300, math.inf, -math.inf):
        for got in (path(t), path(np.float64(t))):
            assert np.array_equal(got.view(np.uint64),
                                  expected(t).view(np.uint64)), t
    with pytest.raises(ValueError):
        path(math.nan)


# a closed diagonal path of six segments, which takes the 6 panels of a
# per-node callable
_SIX_SEGMENTS = [(1.0, 1.0, 1.0), (1.5, 1.0, 1.0), (1.5, 1.3, 1.0),
                 (1.8, 1.3, 1.2), (1.2, 1.6, 1.2), (0.8, 1.0, 1.1),
                 (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("corners, closed", [
    (_DIAGONAL_CORNERS[0], True), (_SIX_SEGMENTS, True),
    (_DIAGONAL_CORNERS[2], False)])
def test_diagonal_paths_are_sampled_as_one_array(corners, closed,
                                                 monkeypatch):
    # the six-segment cycle is run with tol = 0, which no estimate meets,
    # so that every doubling samples the array
    tol = 0.0 if corners is _SIX_SEGMENTS else None
    path = diagonal_path(corners)
    calls = []
    call = type(path).__call__
    monkeypatch.setattr(type(path), "__call__",
                        lambda self, t: calls.append(t) or call(self, t))
    direct = converged_path_work(path, "becker", M, closed=closed, tol=tol)
    assert calls == []
    wrapped = converged_path_work(lambda t: path(t), "becker", M,
                                  closed=closed, tol=tol)
    assert direct == wrapped
    assert len(calls) == direct[1] + 1
    assert direct[1] == (verify.PANELS * verify.MAX_DEGREE
                         if tol == 0.0 else 96)


def test_a_per_node_sampler_receives_python_floats():
    f, calls = _counting(diagonal_path(_OFF_GRID))
    converged_path_work(f, "becker", M, closed=True)
    assert len(calls) == 1537
    assert {type(t) for t in calls} == {float}


def test_the_path_check_factorizes_each_node_once(monkeypatch):
    # the matrices of every det the run takes, through each module's
    # binding: only the path check's, whose dets the PK1 stresses test
    # against DET_TOL without factorizing again
    checked = []
    det = tensors._det

    def counted(a):
        checked.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
        return det(a)

    patch_everywhere(monkeypatch, "_det", counted)
    path = diagonal_path(_OFF_GRID)
    _, n, _ = converged_path_work(lambda t: path(t), "becker", M,
                                  closed=True)
    assert n + 1 == sum(checked) == 1537
    assert checked == [97, 96, 192, 384, 768]


def test_refinement_det_failure_is_caught_on_the_new_nodes():
    # a reflection at one odd node of the first doubling
    bad = verify._rule(32)[0][167]

    def f(t):
        return np.diag([1.0 + t, 1.0, -1.0 if t == bad else 1.0])

    with pytest.raises(ValueError, match="every F on the path must have "
                                         "det > 0"):
        converged_path_work(f, "becker", M, tol=0.0)


def test_refinement_det_below_the_floor_names_the_fine_grid_index():
    # det F = 1.85e-13 <= DET_TOL at node 167 alone, an odd node of the
    # first doubling: the message names it as the finiteness and det > 0
    # checks do, by its index in the doubled rule, not in the new nodes
    bad = verify._rule(32)[0][167]

    def f(t):
        return np.diag([1.0 + t, 1.0, 1e-13 if t == bad else 1.0])

    with pytest.raises(NonInvertible, match=r"det F = 1\.85225e-13 <= 1e-12 "
                                            r"at index 167$"):
        converged_path_work(f, "becker", M, tol=0.0)


def _turning(t, path=diagonal_path(_OFF_GRID)):
    # the off-grid cycle under a turn about e3, so that the frames of F
    # differ, traced by a per-node callable: its kinks fall inside panels
    c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ path(t)


def _first_two_rules(monkeypatch, path, law, m, closed=False):
    # the (g, pk1) the rule receives on the first rule and on the first
    # doubling, at tol = 0, which no estimate meets
    seen, panel_works = [], verify._panel_works

    def capture(g, pk1, n, panels=verify.PANELS):
        seen.append((g.copy(), pk1.copy()))
        return panel_works(g, pk1, n, panels)

    monkeypatch.setattr(verify, "_panel_works", capture)
    converged_path_work(path, law, m, closed=closed, tol=0.0)
    return seen[:2]


@pytest.mark.parametrize("law", TENSOR_LAWS)
def test_path_work_stresses_are_the_public_calls(monkeypatch, law):
    # pk1 is pk1_for_law of g, bit for bit, for every tensor law
    seen = _first_two_rules(monkeypatch, _turning, law, M)
    assert [len(g) for g, _ in seen] == [97, 193]
    for g, pk1 in seen:
        assert np.array_equal(pk1.view(np.uint64),
                              pk1_for_law(law, g, M).view(np.uint64))


# (work, n, converged) of converged_path_work at tol = 0, which no estimate
# meets, so every doubling up to n = 1536 runs: the work in hex, per tensor
# law, on the turning off-grid cycle and on the dilation cycle
_TOL0_WORKS = {
    "becker": (("-0x1.a35f25d358680p-8", 1536, False),
               ("-0x1.45647e7756e60p-4", 1536, False)),
    "hencky-kirchhoff": (("0x1.88a1b7f800000p-28", 1536, False),
                         ("0x1.8000000000000p-52", 1536, False)),
    "hencky-cauchy": (("-0x1.7c28aab7920a2p-5", 1536, False),
                      ("-0x1.1f19eaec1c2f4p-1", 1536, False)),
    "hooke-biot": (("0x1.029e2c4000000p-30", 1536, False),
                   ("0x0.0p+0", 1536, False)),
    "hooke-cauchy": (("-0x1.9a6af12c104c9p-5", 1536, False),
                     ("-0x1.4000000000000p-1", 1536, False)),
}


@pytest.mark.parametrize("law", TENSOR_LAWS)
def test_every_doubling_keeps_the_bits_of_the_work(law):
    got = []
    for path in (_turning, dilation_shear_cycle()):
        work, n, converged = converged_path_work(path, law, M, closed=True,
                                                 tol=0.0)
        got.append((work.hex(), n, converged))
    assert tuple(got) == _TOL0_WORKS[law]


# diagonal paths whose nodes are all positive diagonal: the dilation
# cycle, the off-grid cycle and an open path to the ends of EIG_RANGE
_POSITIVE_DIAGONAL = {
    "dilation": (dilation_shear_cycle(), True),
    "off-grid": (diagonal_path(_OFF_GRID), True),
    "open": (diagonal_path([(1.0, 1.0, 1.0), (0.05, 20.0, 1.3)]), False),
}


def _svd_route(patch):
    # every PK1 stress through the SVD, as for an F that is not positive
    # diagonal
    patch.setattr(laws, "_positive_diagonal", lambda f: None)


@pytest.mark.parametrize("lam", [0.0, 0.5, 25.0])
@pytest.mark.parametrize("law", TENSOR_LAWS)
@pytest.mark.parametrize("name", list(_POSITIVE_DIAGONAL))
def test_positive_diagonal_pk1_has_the_bits_of_the_svd(monkeypatch, name,
                                                        law, lam):
    # the PK1 stresses of a positive diagonal path, read off the diagonals,
    # are pk1_for_law of its nodes, and have the bits the SVD gives them,
    # signed zeros included: each member alone, which takes the SVD, and
    # the whole stack sent through the SVD
    path, closed = _POSITIVE_DIAGONAL[name]
    m = Moduli.from_g_lam(1.0, lam)
    seen = _first_two_rules(monkeypatch, path, law, m, closed)
    assert len(seen[1][0]) == 2 * len(seen[0][0]) - 1
    for g, pk1 in seen:
        bits = pk1.view(np.uint64)
        assert np.array_equal(bits, pk1_for_law(law, g, m).view(np.uint64))
        alone = np.array([pk1_for_law(law, f, m) for f in g])
        assert np.array_equal(bits, alone.view(np.uint64))
    _svd_route(monkeypatch)
    for g, pk1 in seen:
        assert np.array_equal(pk1.view(np.uint64),
                              pk1_for_law(law, g, m).view(np.uint64))


@pytest.mark.parametrize("law", TENSOR_LAWS)
def test_positive_diagonal_paths_take_no_svd_and_no_inv(monkeypatch, law):
    # a positive diagonal path factorizes nothing for its stresses; a
    # turning path takes one svd per rule on the nodes it samples, and a
    # law in the left stretch one inv; so does a diagonal path through
    # negative pairs, whose SVD is not a permutation of its diagonal
    calls = count_lapack(monkeypatch, ("svd", "inv"))
    for path, closed in _POSITIVE_DIAGONAL.values():
        converged_path_work(path, law, M, closed=closed, tol=0.0)
        assert calls == Counter(), law
    inv = 0 if laws._LAWS[law].measure == "biot" else 1
    rules = 1 + int(math.log2(verify.MAX_DEGREE // 16))
    for path, closed in ((_turning, True), (diagonal_path(
            [(-1.0, -1.0, 1.0), (-2.0, -0.5, 1.5)]), False)):
        calls.clear()
        _, n, _ = converged_path_work(path, law, M, closed=closed, tol=0.0)
        assert calls == Counter(svd=rules, inv=inv * rules)
        assert calls.matrices == Counter(svd=n + 1, inv=inv * (n + 1))


def _outcome(fn):
    # the bits of a stress, or the class and message of its error
    try:
        stress = fn()
    except LogstrainError as exc:
        return type(exc), str(exc)
    return stress.view(np.uint64).tolist()


def _errors(law, end):
    # the outcomes of a diagonal path, of the same path sampled node by
    # node, of its last node alone and inside a stack
    path = diagonal_path([(1.0, 1.0, 1.0), end])
    return [_outcome(fn) for fn in (
        lambda: converged_path_work(path, law, M),
        lambda: converged_path_work(lambda t: path(t), law, M),
        lambda: pk1_for_law(law, np.diag(end), M),
        lambda: pk1_for_law(law, np.stack([np.eye(3), np.diag(end)]), M))]


@pytest.mark.parametrize("end, tags, error", [
    # below the log floor at the last node alone: 1e-13 <= 1e-12 * 1e7
    ((1e-13, 1e7, 1e7), ("becker", "hencky-kirchhoff", "hencky-cauchy"),
     NotPositiveDefinite),
    # det F = 1e-13 <= DET_TOL at the last node, which is below the floor
    # too: the det test comes first
    ((1e-13, 1.0, 1.0), TENSOR_LAWS, NonInvertible)])
def test_positive_diagonal_errors_are_the_svds(monkeypatch, end, tags,
                                               error):
    # the path, sampled as an array or node by node, names the same node
    # by the same error as the SVD route does, and so does its last node
    # alone and inside a stack
    for law in tags:
        diagonal = _errors(law, end)
        with monkeypatch.context() as patch:
            _svd_route(patch)
            assert _errors(law, end) == diagonal, law
        assert diagonal[0] == diagonal[1], law
        assert diagonal[0][0] is diagonal[2][0] is error
        assert diagonal[0][1].endswith(" at index 96")
        assert diagonal[3][1] == diagonal[2][1] + " at index 1"


@pytest.mark.parametrize("law", TENSOR_LAWS)
def test_positive_diagonal_lane_has_the_bits_of_an_unscaled_svd(rng, law):
    # where the entries of F lie between 1e-3 and 1e125, LAPACK does not
    # scale F and returns its diagonal as the singular values: a stack of
    # positive diagonal F has the bits, or raises the error, of the same F
    # inside a stack that takes the SVD
    m = Moduli.from_g_lam(1.0, 0.5)
    d = 10.0 ** rng.uniform(-2.0, 124.0, (200, 1)) * np.exp(
        rng.uniform(-2.0, 2.0, (200, 3)))
    d[::4, 1] = d[::4, 2]  # ties
    turned = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for x in d:
        f = np.diag(x)[None]
        assert (_outcome(lambda: pk1_for_law(law, f, m))
                == _outcome(lambda: pk1_for_law(
                    law, np.concatenate([f, turned[None]]), m)[:1])), x


def test_positive_diagonal_stretches_are_the_exact_diagonal():
    # beyond that range LAPACK scales F, and its least singular value of
    # diag(1, 10**298.75, 1e-158) is 1.00001e-158; a stack of such F reads
    # the exact 1e-158 below the log floor, and one matrix takes the SVD
    f = np.diag([1.0, 10.0 ** 298.75, 1e-158])
    assert tensors._svd(f)[1][2] != 1e-158
    with pytest.raises(NotPositiveDefinite,
                       match=r"^mat_log: min eigenvalue 1e-158 <= .* at "
                             r"index 0$"):
        pk1_for_law("becker", f[None], M)
    with pytest.raises(NotPositiveDefinite,
                       match=r"^mat_log: min eigenvalue 1\.00001e-158 <= "):
        pk1_for_law("becker", f, M)
