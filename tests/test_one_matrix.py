"""The one-matrix path of a finite-element caller: the number of checks and
factorizations per public call, and the edges of the one-matrix fast paths
(finiteness by one sum, the det floor and the order test on Python floats).
"""

import itertools
import math
import sys
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

M = Moduli.from_g_lam(1.0, 0.5)
_FACTORIZATIONS = ("svd", "eigh", "det", "inv")


@pytest.fixture
def calls(monkeypatch):
    """A Counter of ``_as_mats`` calls (key ``"validate"``) and of the
    ``np.linalg`` factorizations, filled while the test runs."""
    count = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # _as_mats is imported by name into the modules that use it
    validate = counted("validate", tensors._as_mats)
    for name, mod in list(sys.modules.items()):
        if name.startswith("logstrain") and hasattr(mod, "_as_mats"):
            monkeypatch.setattr(mod, "_as_mats", validate)
    for name in _FACTORIZATIONS:
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
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


def test_becker_biot_call_budget(rng, calls):
    _, u = _point(rng, calls)
    becker_biot(u, M)
    assert calls == Counter(validate=1, eigh=1)


def test_becker_inverse_call_budget(rng, calls):
    _, u = _point(rng, calls)
    t = becker_biot(u, M)
    calls.clear()
    becker_inverse(t, M)
    assert calls == Counter(validate=1, eigh=1)


@pytest.mark.parametrize("source, target",
                         itertools.permutations(MEASURES, 2))
def test_stress_convert_call_budget(source, target, rng, calls):
    f, u = _point(rng, calls)
    state = StressState(becker_biot(u, M), source, f)
    calls.clear()
    stress_convert(state, target)
    assert calls["validate"] == 0
    assert calls["det"] == 1
    assert calls["svd"] == int("biot" in (source, target))  # R of F = R U


def test_material_point_call_budget(rng, calls):
    # one operation of the finite-element caller, as the benchmark runs it
    f, u = _point(rng, calls)
    p = pk1_for_law("becker", f, M)
    stress_convert(StressState(p, "pk1", f), "cauchy")
    becker_inverse(becker_biot(u, M), M)
    assert calls == Counter(validate=5, svd=1, det=2, eigh=2)


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
