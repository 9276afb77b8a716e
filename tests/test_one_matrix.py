"""The one-matrix path of a finite-element caller: the number of checks and
factorizations per public call, and the edges of the one-matrix fast paths
(finiteness by one sum, the det floor and the order test on Python floats),
and sha256 pins of the bytes of one-matrix results.
"""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

import logstrain
from logstrain import constitutive as laws
from logstrain import tensors
from logstrain.constitutive import becker_biot, becker_inverse, pk1_for_law
from logstrain.errors import LogstrainError, NonInvertible
from logstrain.kinematics import _jacobian
from logstrain.moduli import Moduli
from logstrain.stresses import MEASURES, StressState, stress_convert
from logstrain.tensors import mat_log
from logstrain.verify import random_rotation, random_spd

from conftest import count_lapack, counting, patch_everywhere

M = Moduli.from_g_lam(1.0, 0.5)
M0 = Moduli.from_g_lam(1.0, 0.0)


@pytest.fixture
def calls(monkeypatch):
    """A FactorizationCount of ``_as_mats`` calls (key ``"validate"``)
    and of the factorizations of the tensors boundary (``_svd`` under
    ``"svd"``, and so on) and their matrices, filled while the test
    runs."""
    count = count_lapack(monkeypatch)
    patch_everywhere(monkeypatch, "_as_mats",
                     counting(count, "validate", tensors._as_mats))
    return count


def _point(rng, calls):
    """A deformation F = R U and its stretch U, drawn before counting."""
    u = random_spd(rng)
    f = random_rotation(rng) @ u
    calls.clear()
    return f, u


@pytest.mark.parametrize("law", ["becker", "hencky-kirchhoff",
                                 "hencky-cauchy", "hooke-biot",
                                 "hooke-cauchy"])
def test_pk1_call_budget(law, rng, calls):
    f, _ = _point(rng, calls)
    pk1_for_law(law, f, M)
    left = laws._LAWS[law].stretch == "v"  # P = tau @ inv(F).T
    assert calls == Counter(validate=1, svd=1, det=1, inv=int(left))
    assert calls.matrices == Counter(svd=1, det=1, inv=int(left))


def test_becker_biot_call_budget(rng, calls):
    _, u = _point(rng, calls)
    becker_biot(u, M)
    assert calls == Counter(validate=1, eigh=1)
    assert calls.matrices == Counter(eigh=1)


def test_becker_inverse_call_budget(rng, calls):
    _, u = _point(rng, calls)
    t = becker_biot(u, M)
    calls.clear()
    becker_inverse(t, M)
    assert calls == Counter(validate=1, eigh=1)
    assert calls.matrices == Counter(eigh=1)


@pytest.mark.parametrize("source, target",
                         itertools.permutations(MEASURES, 2))
def test_stress_convert_call_budget(source, target, rng, calls):
    f, u = _point(rng, calls)
    state = StressState(becker_biot(u, M), source, f)
    calls.clear()
    stress_convert(state, target)
    assert calls["validate"] == 0
    assert calls["det"] == calls.matrices["det"] == 1
    # R of F = R U
    assert calls["svd"] == calls.matrices["svd"] \
        == int("biot" in (source, target))


@pytest.mark.parametrize("law", ["becker", "hencky-kirchhoff",
                                 "hencky-cauchy", "hooke-biot"])
def test_material_point_call_budget(law, rng, calls):
    # one operation of the finite-element caller, as the benchmark runs it
    # for each law it cycles through
    f, u = _point(rng, calls)
    p = pk1_for_law(law, f, M)
    stress_convert(StressState(p, "pk1", f), "cauchy")
    becker_inverse(becker_biot(u, M), M)
    inv = int(laws._LAWS[law].stretch == "v")  # P = tau @ inv(F).T
    assert calls == Counter(validate=5, svd=1, det=2, eigh=2, inv=inv)
    assert calls.matrices == Counter(svd=1, det=2, eigh=2, inv=inv)


def test_finite_entries_whose_sum_overflows_are_accepted():
    u = np.diag([1e308, 1e308, 1e300])  # above the positivity floor
    t = becker_biot(u, M)
    logs = np.log(np.diag(u))
    np.testing.assert_allclose(np.diag(t), 2.0 * logs + M.lam * logs.sum(),
                               rtol=1e-14)
    assert becker_biot(np.stack([np.eye(3), u]), M)[1].tobytes() \
        == t.tobytes()
    assert tensors.as_mat3(u).tobytes() == u.tobytes()
    # a stress whose entries are finite but whose sum is not
    big = np.diag([8e307, 8e307, 1.0])
    assert np.isfinite(laws.hooke_biot(big, Moduli.from_g_lam(1.0, 0.0))
                       ).all()


_BAD = [("nan", [math.nan]), ("inf", [math.inf]), ("-inf", [-math.inf]),
        ("inf and -inf", [math.inf, -math.inf])]


@pytest.mark.parametrize("label, values", _BAD, ids=[b[0] for b in _BAD])
def test_non_finite_entries_are_rejected(label, values):
    u = np.eye(3)
    u.flat[:len(values)] = values
    for fn, name in ((lambda a: becker_biot(a, M), "u"),
                     (lambda a: becker_inverse(a, M), "t"),
                     (lambda a: pk1_for_law("becker", a, M), "f"),
                     (mat_log, "a"), (tensors.as_mat3, "matrix")):
        with pytest.raises(ValueError) as one:
            fn(u)
        assert str(one.value) == f"{name} has non-finite entries"
        with pytest.raises(ValueError) as stack:
            fn(np.stack([np.eye(3), np.eye(3), u]))
        assert str(stack.value) == f"{name} has non-finite entries at index 2"
    with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
        StressState(u, "cauchy", np.eye(3))


def test_stress_that_is_not_finite_names_the_law():
    u = np.diag([1e308, 1e308, 1.0])  # 2 G (U - I) overflows
    with pytest.raises(LogstrainError) as one:
        laws.hooke_biot(u, M)
    assert str(one.value) == ("law 'hooke-biot': stress is not finite "
                              "at G = 1, lam = 0.5")
    with pytest.raises(LogstrainError) as stack:
        laws.hooke_biot(np.stack([np.eye(3), u]), M)
    assert str(stack.value) == str(one.value) + " at index 1"


@pytest.mark.parametrize("f", [np.diag([1.0, 1.0, -1.0]),
                               np.diag([1e-7, 1e-3, 1e-3]),
                               np.zeros((3, 3))])
def test_one_matrix_det_message_is_the_stack_message(f):
    with pytest.raises(NonInvertible) as one:
        _jacobian(f)
    with pytest.raises(NonInvertible) as stack:
        _jacobian(np.stack([np.eye(3), f]))
    assert str(stack.value) == str(one.value) + " at index 1"
    with pytest.raises(NonInvertible) as public:
        logstrain.polar_decompose(f)
    assert str(public.value) == str(one.value)


def _tied():
    # exact ties of the Rayleigh quotients: diagonal and permuted stretches
    yield np.diag([2.0, 2.0, 0.5])
    yield np.diag([0.5, 3.0, 3.0])
    yield np.diag([1.5, 1.5, 1.5])
    p = np.eye(3)[[2, 0, 1]]
    yield p @ np.diag([0.7, 0.7, 4.0]) @ p.T
    # off-diagonal -0.0 and subnormal entries, whose signs and tiny
    # products the one-matrix sums must keep
    for off in (-0.0, 5e-324, -5e-324):
        for u in (np.diag([2.0, 2.0, 0.5]), np.diag([1.5, 1.5, 1.5])):
            u[0, 1] = u[1, 0] = u[1, 2] = u[2, 1] = off
            yield u


def test_tied_spectrum_gives_the_same_bits_alone_and_in_a_stack(rng):
    others = [random_spd(rng) for _ in range(3)]
    for u in _tied():
        t = becker_biot(u, M)
        for fn, x in ((lambda a: becker_biot(a, M), u),
                      (lambda a: becker_inverse(a, M), t), (mat_log, u)):
            alone = fn(x)
            stack = fn(np.stack([others[0], x, others[1], x, others[2]]))
            assert stack[1].tobytes() == alone.tobytes()
            assert stack[3].tobytes() == alone.tobytes()
        back = becker_inverse(t, M)
        assert np.abs(back - u).max() <= 1e-14 * np.abs(u).max()


# sha256 of the bytes of each one-matrix result, over _pin_points(), in
# order; recorded before the one-matrix lane moved its three-number sums to
# Python floats, which must keep every bit
_PK1_DIGESTS = {
    "becker":
        "a3622f2d6fb17ecabc94ad4aef8628de7240158953e415fd631361fe75cd2df7",
    "hencky-kirchhoff":
        "fcce5a29502e5c6c0d578b73a9d9917275d439349b1d7ae22f3a7c51a29620cf",
    "hencky-cauchy":
        "d8cd204d1132add696d9ae56a768b61fc18643dc87a829dbf9a1f77df637817d",
    "hooke-biot":
        "e55c9c1c47f72cbe9c830c1dfa15618428d5649c31917ce347a3862cbcc663a2",
    "hooke-cauchy":
        "aee120c3329609c668b0b47e6aa744cec3b2da868cecb89cac91105ac139fd75",
}
_CAUCHY_DIGESTS = {
    "becker":
        "857d4088fa17ed3aec268896aa4147fc744f9451e700aac218160c13832f76a5",
    "hencky-kirchhoff":
        "01dbebdb89df136f771824de9a9ea245c942c6c00d947c0c083b97f2da8d396d",
    "hencky-cauchy":
        "a494a7186f04047a056bf8984643bbe9c2bda3fec40577d84e21685d11712b25",
    "hooke-biot":
        "d155ecd84911778ea7f81592e7e65d65d4592e70b0c99785c766a19a6a8249e1",
    "hooke-cauchy":
        "41bd04358eff0b5c91aaa07cc8a76f5740f99ba73d0a79a96b9c963ac4f28d6f",
}
_ROUND_TRIP_DIGEST = (
    "c4b38680fc2439da05094b639f70c543353e28751868ea05d8b76a534f7fa16a")


def _pin_points(n=200):
    """n seeded (F, U) pairs: F = R1 R2.T diag(s) R3 and U = Q diag(s) Q.T,
    with two stretches tied to 1e-12 relative or exactly equal in one
    point of three each; then the identity, exact doubles, and permuted
    diagonals with exact ties and -0.0 off the diagonal."""
    rng = np.random.default_rng(7)
    points = []
    for k in range(n - 4):
        s = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        if k % 3 == 1:
            s[1] = s[0] * (1.0 + 1e-12)
        if k % 3 == 2:
            s[2] = s[0]
        f = (random_rotation(rng) @ random_rotation(rng).T @ np.diag(s)
             @ random_rotation(rng))
        q = random_rotation(rng)
        points.append((f, q @ np.diag(s) @ q.T))
    p = np.eye(3)[[2, 0, 1]]
    tied = p @ np.diag([0.7, 0.7, 4.0]) @ p.T
    signed = np.diag([2.0, 0.5, 2.0])
    signed[0, 2] = signed[2, 0] = -0.0
    for a in (np.eye(3), np.diag([2.0, 1.0, 1.0]), tied, signed):
        points.append((a, a))
    return points


def _digest(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("law", sorted(_PK1_DIGESTS))
def test_one_matrix_results_keep_their_pinned_bits(law):
    points = _pin_points()
    pk1 = [pk1_for_law(law, f, M) for f, _ in points]
    cauchy = [stress_convert(StressState(p, "pk1", f), "cauchy").tensor
              for p, (f, _) in zip(pk1, points)]
    assert _digest(pk1) == _PK1_DIGESTS[law]
    assert _digest(cauchy) == _CAUCHY_DIGESTS[law]
    if law == "becker":
        back = [becker_inverse(becker_biot(u, M), M) for _, u in points]
        assert _digest(back) == _ROUND_TRIP_DIGEST


# sha256 over _pin_points() of each tensor row's one-matrix stretch_stress,
# at lam = 0.5 and at lam = 0 (where the spherical part is left out), and of
# becker_inverse alone, at stresses that are no law's output: U, the
# nonsymmetric F (symmetrized on entry) and U - 3 I (a negative mean, which
# turns the -0.0 off the diagonal of the signed point into +0.0).  The three
# logarithmic rows evaluate one map, so their digests agree, as do the two
# finite-Hooke rows'.  Recorded before the one-matrix lane moved its
# principal-value steps to Python floats, which must keep every bit
_STRETCH_DIGESTS = {
    "becker":
        "0efce41be17d2b33950b94f31d6c5362ebc7b6f845d3410698a103d313827d94",
    "hencky-kirchhoff":
        "0efce41be17d2b33950b94f31d6c5362ebc7b6f845d3410698a103d313827d94",
    "hencky-cauchy":
        "0efce41be17d2b33950b94f31d6c5362ebc7b6f845d3410698a103d313827d94",
    "hooke-biot":
        "91e73f0a0359df599b824257098ff04757e46113732e3e58bf775fa6437bc66b",
    "hooke-cauchy":
        "91e73f0a0359df599b824257098ff04757e46113732e3e58bf775fa6437bc66b",
}
_INVERSE_DIGEST = (
    "e1c95022340c8c397fe545b1e5d94b50216c5388177e56637f8cc91faa10f602")


@pytest.mark.parametrize("law", sorted(_STRETCH_DIGESTS))
def test_one_matrix_stretch_stresses_keep_their_pinned_bits(law):
    points = _pin_points()
    stresses = [laws.stretch_stress(law, u, m) for m in (M, M0)
                for _, u in points]
    assert _digest(stresses) == _STRETCH_DIGESTS[law]


def test_one_matrix_inverse_keeps_its_pinned_bits():
    back = [becker_inverse(t, M) for f, u in _pin_points()
            for t in (u, f, u - 3.0 * np.eye(3))]
    assert _digest(back) == _INVERSE_DIGEST


@pytest.mark.parametrize("lam", [0.5, 0.0, -0.6])
def test_one_matrix_lane_gives_the_stack_bits(lam, rng):
    # the lane's Python floats against the stack's numpy arithmetic, on
    # ties, -0.0 and subnormal entries; and _lame of the finite-Hooke maps,
    # where lam tr(e) of either sign adds +0.0 or -0.0 off the diagonal
    m = Moduli.from_g_lam(1.0, lam)
    other = random_spd(rng)
    for u in _tied():
        for law in laws.LAW_TAGS:
            if laws._LAWS[law].strain is None:
                continue
            alone = laws.stretch_stress(law, u, m)
            stack = laws.stretch_stress(law, np.stack([other, u]), m)[1]
            assert stack.tobytes() == alone.tobytes(), law
        for e in (u, u - 3.0 * np.eye(3), -0.0 * u):
            alone = laws._lame(e, m)
            assert laws._lame(np.stack([other, e]), m)[1].tobytes() \
                == alone.tobytes()


def test_one_matrix_inverse_factorizes_the_stacks_deviator(monkeypatch):
    # t - mean I as the stack forms it, the sign of each zero off the
    # diagonal included: -0.0 stays for a positive mean and turns +0.0
    # for a negative one
    factorized = []

    def spy(a):
        factorized.append(a.copy())
        return tensors._spectrum_floats(a)

    monkeypatch.setattr(laws, "_spectrum_floats", spy)
    for u in _tied():
        for t in (u, -u, u - 3.0 * np.eye(3)):
            factorized.clear()
            becker_inverse(t, M)
            s = tensors.sym_part(t[None])
            trace = s.diagonal(0, -2, -1).sum(axis=-1, keepdims=True)
            deviator = s - (trace / 3.0)[..., None] * np.eye(3)
            assert factorized[0].tobytes() == deviator[0].tobytes()
