"""The LAPACK boundary of ``tensors``: the bits of ``np.linalg``, its
failure contract, its fallback, and that no other module calls around it."""

import ast
import inspect
import math
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import logstrain
from logstrain import tensors, verify
from logstrain.cli import main
from logstrain import constitutive as laws
from logstrain.constitutive import becker_biot, pk1_for_law
from logstrain.errors import LogstrainError
from logstrain.moduli import Moduli
from logstrain.verify import random_rotation, random_spd

from conftest import LAPACK, counting, patch_everywhere

M = Moduli.from_g_lam(1.0, 0.5)
TENSOR_LAWS = [t for t in laws.LAW_TAGS if laws._LAWS[t].strain is not None]


def _material_points(rng, n):
    """n deformations F = R1 diag(s) R2 and stretches U = Q diag(s) Q.T,
    principal stretches log-uniform over the material-point range [0.05,
    20], two of them tied to 1e-12 relative in one point of three."""
    fs, us = [], []
    for k in range(n):
        s = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        if k % 3 == 1:
            s[1] = s[0] * (1.0 + 1e-12)
        fs.append(random_rotation(rng) @ np.diag(s) @ random_rotation(rng))
        q = random_rotation(rng)
        us.append(q @ np.diag(s) @ q.T)
    return np.array(fs), np.array(us)


def _tied():
    """Diagonal matrices, exact ties, and a permuted tie."""
    p = np.eye(3)[[2, 0, 1]]
    return np.array([np.eye(3), np.diag([2.0, 2.0, 0.5]),
                     np.diag([1.5, 1.5, 1.5]), np.diag([0.5, 3.0, 3.0]),
                     np.diag([3.0, 1.0, 0.25]), p @ np.diag([0.7, 0.7, 4.0])
                     @ p.T])


def _cases():
    """(label, general matrices, symmetric matrices) stacks to factorize."""
    rng = np.random.default_rng(22)
    fs, us = _material_points(rng, 24)
    tied = _tied()
    yield "material-point", fs, us
    yield "ties and diagonals", tied, tied
    for scale in (1e300, 1e-300):
        yield f"entries near {scale:g}", fs[:6] * scale, us[:6] * scale
    yield "empty", np.zeros((0, 3, 3)), np.zeros((0, 3, 3))


def _outputs(out):
    return out if isinstance(out, tuple) else (out,)


def _same_bits(got, want):
    got, want = _outputs(got), _outputs(want)
    return len(got) == len(want) and all(
        np.asarray(g).dtype == np.asarray(w).dtype
        and np.shape(g) == np.shape(w)
        and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want))


def _args(name, general, symmetric):
    if name == "eigh":
        return (symmetric,)
    if name == "solve":
        return general, symmetric
    return (general,)


def _check_bits(routines):
    """Each routine of ``routines`` (name: callable) against its
    np.linalg function, byte for byte, on every case, for each matrix
    alone and for the stack."""
    for label, general, symmetric in _cases():
        for name, routine in routines.items():
            reference = getattr(np.linalg, name)
            args = _args(name, general, symmetric)
            with np.errstate(over="ignore"):  # det at 1e300 is inf
                assert _same_bits(routine(*args), reference(*args)), \
                    (name, label)
                for k in range(len(general)):
                    one = [a[k] for a in args]
                    assert _same_bits(routine(*one), reference(*one)), \
                        (name, label, k)


def test_the_boundary_has_the_bits_of_np_linalg():
    _check_bits({name: getattr(tensors, f"_{name}") for name in LAPACK})


def _spying(real, log):
    """A stand-in for the gufunc module ``real``: each of its gufuncs
    appends ``(name, dtypes of its array arguments, dtypes of its
    outputs)`` to ``log`` and returns what the real one does."""
    def dtypes(arrays):
        return tuple(a.dtype.str for a in _outputs(arrays)
                     if isinstance(a, np.ndarray))

    def spy(name, gufunc):
        def call(*args, **kwargs):
            out = gufunc(*args, **kwargs)
            log.append((name, dtypes(args), dtypes(out)))
            return out
        return call

    return SimpleNamespace(**{name: spy(name, g) for name, g
                              in vars(real).items()
                              if isinstance(g, np.ufunc)})


def test_the_boundary_calls_the_gufuncs_np_linalg_calls(monkeypatch):
    # bound at import, an unchecked routine is the gufunc itself and a
    # checked one calls it; bound to a spying module, each routine calls
    # the gufuncs that its np.linalg function calls, in the same order,
    # with the same argument and output dtypes (so the same loop), for one
    # matrix and for a stack
    real = tensors._umath_linalg
    assert tensors._det is real.det
    assert tensors._QR == (real.qr_r_raw, real.qr_reduced) \
        == tensors._qr_pair(real)
    linalg = sys.modules[inspect.unwrap(np.linalg.det).__module__]
    ours, theirs = [], []
    monkeypatch.setattr(tensors, "_umath_linalg", _spying(real, ours))
    monkeypatch.setattr(linalg, "_umath_linalg", _spying(real, theirs))
    spy = tensors._umath_linalg
    monkeypatch.setattr(tensors, "_QR", tensors._qr_pair(spy))
    _, general, symmetric = next(_cases())
    routines = {name: tensors._routine(name) for name in LAPACK}
    routines["qr"] = tensors._qr
    for name, routine in routines.items():
        for args in (_args(name, general, symmetric),
                     _args(name, general[0], symmetric[0])):
            ours.clear()
            theirs.clear()
            routine(*args)
            getattr(np.linalg, name)(*args)
            assert ours and ours == theirs, name


def test_a_numpy_without_the_gufuncs_falls_back_with_the_same_bits(
        monkeypatch):
    real = tensors._umath_linalg
    monkeypatch.setattr(tensors, "_umath_linalg", SimpleNamespace())
    routines = {name: tensors._routine(name) for name in LAPACK}
    assert routines["det"] is np.linalg.det
    _check_bits(routines)
    # a gufunc module that lacks either gufunc of the QR pair (one that
    # names the raw step otherwise, say) binds no pair, and _qr calls
    # np.linalg.qr
    halves = [SimpleNamespace(qr_reduced=real.qr_reduced),
              SimpleNamespace(qr_r_raw_m=real.qr_r_raw,
                              qr_r_raw_n=real.qr_r_raw,
                              qr_reduced=real.qr_reduced),
              SimpleNamespace(qr_r_raw=real.qr_r_raw), SimpleNamespace()]
    assert [tensors._qr_pair(m) for m in (*halves, None)] == [None] * 5
    monkeypatch.setattr(tensors, "_QR", tensors._qr_pair(halves[0]))
    calls = Counter()
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", counting(calls, "qr", qr))
    for _, general, _ in _cases():
        for a in (general, *general):
            q, r = qr(a)
            before = calls["qr"]
            assert _same_bits(tensors._qr(a),
                              (q, np.diagonal(r, axis1=-2, axis2=-1)))
            assert calls["qr"] == before + 1
    # np.linalg's own error is the boundary's failure too
    with pytest.raises(LogstrainError, match="^inv: LAPACK failed: "):
        routines["inv"](np.zeros((3, 3)))


def test_every_array_reaching_the_boundary_is_float64(monkeypatch):
    # the gufuncs are bound without a loop signature, so numpy runs their
    # float64 loop because every caller passes float64 arrays: one suite,
    # one path work (rotating, so that it takes the SVD) and one
    # material-point operation per law
    seen = []

    def recording(name, fn):
        def wrapper(*args):
            seen.extend((name, type(a), getattr(a, "dtype", None))
                        for a in args)
            return fn(*args)
        return wrapper

    for name in (*LAPACK, "qr"):
        patch_everywhere(monkeypatch, f"_{name}",
                         recording(name, getattr(tensors, f"_{name}")))
    verify.suite("becker", M, samples=16, seed=1)

    def turning(t):
        c, s = math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)
        return (np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                @ np.diag([1.0 + t * (1.0 - t), 1.0, 1.0]))

    verify.converged_path_work(turning, "hencky-kirchhoff", M, closed=True)
    rng = np.random.default_rng(8)
    for law in ("becker", "hencky-kirchhoff", "hencky-cauchy",
                "hooke-biot"):
        u = random_spd(rng)
        f = random_rotation(rng) @ u
        p = pk1_for_law(law, f, M)
        logstrain.stress_convert(logstrain.StressState(p, "pk1", f),
                                 "cauchy")
        laws.becker_inverse(becker_biot(u, M), M)
    assert {name for name, *_ in seen} == {*LAPACK, "qr"}
    assert {(kind, dtype) for _, kind, dtype in seen} == {
        (np.ndarray, np.dtype(np.float64))}


def test_qr_has_the_bits_of_np_linalg():
    # Q and the diagonals of R, byte for byte, on the general matrices of
    # every case, for each matrix alone and for the stack
    for label, general, _ in _cases():
        for a in (general, *general):
            q, r = np.linalg.qr(a)
            want = q, np.diagonal(r, axis1=-2, axis2=-1)
            assert _same_bits(tensors._qr(a), want), label
    # 448 matrices, the rotations of a becker suite at 64 samples
    normals = np.random.default_rng(0).standard_normal((448, 3, 3))
    q, r = np.linalg.qr(normals)
    got_q, got_d = tensors._qr(normals)
    assert _same_bits((got_q, got_d), (q, np.diagonal(r, 0, -2, -1)))


def test_a_singular_matrix_is_a_lapack_failure():
    singular = np.zeros((3, 3))
    stack = np.stack([np.eye(3), singular])
    # a warnings filter of "error" turns the gufunc's invalid flag into
    # an error; without it the NaN result names the failed member
    with pytest.raises(LogstrainError, match="^inv: LAPACK failed: "):
        tensors._inv(singular)
    with pytest.raises(LogstrainError, match="^solve: LAPACK failed: "):
        tensors._solve(stack, stack)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(LogstrainError) as one:
            tensors._inv(singular)
        assert str(one.value) == "inv: LAPACK failed, result is NaN"
        with pytest.raises(LogstrainError) as member:
            tensors._inv(stack)
        assert str(member.value) == ("inv: LAPACK failed, result is NaN "
                                     "at index 1")
        with pytest.raises(LogstrainError, match="NaN at index 1$"):
            tensors._solve(stack, stack)
    with np.errstate(invalid="raise"):
        with pytest.raises(LogstrainError, match="^inv: LAPACK failed: "):
            tensors._inv(singular)


def _nan_gufunc(real):
    """A stand-in for the gufunc ``real`` that returns outputs of its
    shapes filled with NaN, as numpy's gufuncs do where LAPACK fails."""
    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        return (tuple(np.full_like(o, math.nan) for o in out)
                if isinstance(out, tuple) else np.full_like(out, math.nan))
    return fake


def _fail(monkeypatch, *names):
    """The checked routines ``names`` of the boundary (all four when none
    is given), in every module, bound to gufuncs that fail."""
    names = names or ("eigh", "svd", "inv", "solve")
    real = tensors._umath_linalg
    fake = SimpleNamespace(**{
        gufunc: (_nan_gufunc if name in names else lambda g: g)(
            getattr(real, gufunc))
        for name, (gufunc, *_) in tensors._ROUTINES.items()})
    monkeypatch.setattr(tensors, "_umath_linalg", fake)
    for name in LAPACK:
        patch_everywhere(monkeypatch, f"_{name}", tensors._routine(name))


@pytest.fixture
def failing_lapack(monkeypatch):
    _fail(monkeypatch)


def test_a_failed_factorization_is_a_logstrain_error(failing_lapack):
    rng = np.random.default_rng(5)
    fs, us = _material_points(rng, 3)
    for law in TENSOR_LAWS:
        for f in (fs[0], fs):
            with pytest.raises(LogstrainError, match="^svd: LAPACK failed, "
                                                     "result is NaN"):
                pk1_for_law(law, f, M)
    with pytest.raises(LogstrainError, match="^eigh: LAPACK failed, result "
                                             "is NaN$"):
        becker_biot(us[0], M)
    with pytest.raises(LogstrainError, match="NaN at index 0$"):
        becker_biot(us, M)
    with pytest.raises(LogstrainError, match="^eigh: "):
        logstrain.eig_sym(us[1])
    with pytest.raises(LogstrainError, match="^svd: "):
        logstrain.polar_decompose(fs[2])


def test_a_failed_inverse_or_solve_is_a_logstrain_error(monkeypatch):
    rng = np.random.default_rng(6)
    fs, us = _material_points(rng, 2)
    _fail(monkeypatch, "inv", "solve")
    for law in TENSOR_LAWS:  # only a law in the left stretch inverts F
        if laws._LAWS[law].stretch == "v":
            with pytest.raises(LogstrainError, match="^inv: .* at index 0$"):
                pk1_for_law(law, fs, M)
        else:
            assert np.isfinite(pk1_for_law(law, fs, M)).all()
    state = logstrain.StressState(becker_biot(us[0], M), "biot", fs[0])
    with pytest.raises(LogstrainError, match="^inv: "):
        logstrain.stress_convert(state, "pk2")
    with pytest.raises(LogstrainError, match="^solve: "):
        laws.becker_pk2(us[0], M)


def test_cli_stress_exits_two_on_a_failed_factorization(failing_lapack,
                                                        capsys):
    for measure in ("biot", "cauchy"):
        code = main(["stress", "--F", "diag(2,0.5,1)", "--G", "1",
                     "--lam", "0.5", "--measure", measure])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: svd: LAPACK failed")
        assert "Traceback" not in err


def _linalg_calls(tree):
    """The ``np.linalg.<name>`` attributes (or ``numpy.linalg``) and ``from
    numpy.linalg import <name>`` imports of a module, for the routines of
    the boundary, qr among them: each as ``(name, function)``, the
    function that names it, or None at module level."""
    names = (*LAPACK, "qr")

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            yield node.attr, function
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                if alias.name in names:
                    yield alias.name, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_only_tensors_names_the_np_linalg_factorizations():
    package = Path(logstrain.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        calls = _linalg_calls(ast.parse(path.read_text()))
        if calls:
            found[path.name] = calls
    assert set(found) == {"tensors.py"}, found
    # the fallbacks of the boundary's table, each named once, and that of
    # its QR
    assert sorted(name for name, _ in found["tensors.py"]) == sorted(
        (*LAPACK, "qr"))
    assert ("qr", "_qr") in found["tensors.py"]
