"""The error contract of the package: a finite result or a ValueError /
LogstrainError, never a traceback of another type or a numpy warning."""

import argparse
import ast
import builtins
import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logstrain
from logstrain import cli, errors
from logstrain.cli import main
from logstrain.constitutive import (_LAWS, LAW_TAGS, becker_biot,
                                    becker_cauchy, becker_energy_nu0,
                                    becker_kirchhoff, becker_pk2,
                                    hencky_cauchy, hencky_energy,
                                    hencky_kirchhoff, hooke_biot,
                                    hooke_cauchy,
                                    incompressible_uniaxial_hyper,
                                    incompressible_uniaxial_limit,
                                    linearized_inverse, linearized_law,
                                    pk1_for_law, stretch_stress,
                                    uniaxial_response)
from logstrain.decomposition import (StressTriple, becker_tables,
                                     decompose_stress_additive,
                                     decompose_stretch_multiplicative)
from logstrain.errors import LogstrainError
from logstrain.kinematics import (glide_contractile_angle,
                                  glide_principal_stretches,
                                  max_tangential_strain_direction,
                                  pure_shear_F, shear_ellipsoid_radius,
                                  simple_glide_F)
from logstrain.moduli import Moduli
from logstrain.shear_statics import (cauchy_quadrics, failure_criteria,
                                     mohr_circle, pond_stress_components,
                                     traction_on_line)
from logstrain.stresses import MEASURES, StressState, stress_convert
from logstrain.verify import (CheckReport, LoadPath, baker_ericksen_check,
                              check_axioms, converged_path_work, diagonal_path,
                              format_reports, linearization_order_check,
                              m_condition_check, ordered_force_check,
                              pk2_expansion_check, suite)

_N_PLANE = np.array([0.6, 0.8, 0.0])
_N_SPACE = np.array([1.0, 2.0, 2.0]) / 3.0

# every scalar entry of shear_statics, decomposition and kinematics, and
# the uniaxial closed forms, called with three numbers x, y, z and moduli m
_ENTRIES = {
    "mohr_circle": lambda x, y, z, m: mohr_circle(x, y),
    "pond_stress_components": lambda x, y, z, m: pond_stress_components(x, y),
    "traction_on_line": lambda x, y, z, m: traction_on_line(x, y, _N_PLANE),
    "failure_criteria": lambda x, y, z, m: failure_criteria(x, y, z),
    "cauchy_quadrics": lambda x, y, z, m: cauchy_quadrics((x, y, z),
                                                          _N_SPACE),
    "decompose_stress_additive":
        lambda x, y, z, m: decompose_stress_additive(StressTriple(x, y, z)),
    "decompose_stretch_multiplicative":
        lambda x, y, z, m: decompose_stretch_multiplicative(x, y, z),
    "becker_tables": lambda x, y, z, m: becker_tables(StressTriple(x, y, z),
                                                      m),
    "pure_shear_F": lambda x, y, z, m: pure_shear_F(x),
    "simple_glide_F": lambda x, y, z, m: simple_glide_F(x),
    "glide_principal_stretches":
        lambda x, y, z, m: glide_principal_stretches(x),
    "glide_contractile_angle": lambda x, y, z, m: glide_contractile_angle(x),
    "max_tangential_strain_direction":
        lambda x, y, z, m: max_tangential_strain_direction(x),
    "shear_ellipsoid_radius":
        lambda x, y, z, m: shear_ellipsoid_radius(_N_PLANE, x),
    "uniaxial_response": lambda x, y, z, m: uniaxial_response(x, m),
    "incompressible_uniaxial_limit":
        lambda x, y, z, m: incompressible_uniaxial_limit(x, m),
    "incompressible_uniaxial_hyper":
        lambda x, y, z, m: incompressible_uniaxial_hyper(x, m),
}

# any float, NaN and the infinities included, and signed powers of ten
# across the whole exponent range
_REAL = st.one_of(
    st.floats(),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-320.0, max_value=308.0)))

_MODULI = (Moduli.from_g_lam(1.0, 0.5), Moduli.from_g_lam(1e-300, 0.0),
           Moduli.from_g_lam(1e300, 1e300), Moduli.from_g_lam(5e307, 0.0))

_WORDING = re.compile(r"must be finite( and (positive|nonnegative|greater "
                      r"than 1))?, got ")


def _numbers(x):
    """Every number of a result: a number, an array, or tuples and
    dataclasses of them."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _numbers(item)]
    return np.ravel(x).tolist()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(_ENTRIES)), x=_REAL, y=_REAL, z=_REAL,
       m=st.sampled_from(_MODULI))
def test_scalar_entries_finite_or_error(entry, x, y, z, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = _ENTRIES[entry](x, y, z, m)
        except ValueError as exc:
            # one helper checks every scalar argument, in one wording
            assert _WORDING.search(str(exc)), str(exc)
            return
        except LogstrainError:
            return
    assert all(map(math.isfinite, _numbers(out))), (entry, out)


def test_package_raises_only_the_types_the_cli_reports():
    # cli.main turns ValueError and the LogstrainError family into exit 2;
    # any other type raised by the package would end in a traceback
    allowed = (ValueError, LogstrainError)
    bad = []
    for path in sorted(Path(logstrain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what was caught
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) \
                else getattr(exc, "id", None)
            cls = getattr(errors, name or "", None) \
                or getattr(builtins, name or "", None)
            if not (isinstance(cls, type) and issubclass(cls, allowed)):
                bad.append(f"{path.name}:{node.lineno}: raise {name}")
    assert not bad


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
def test_scalar_check_names_the_first_bad_element(value):
    with pytest.raises(ValueError, match=r"^stretch ratios must be finite "
                                         r"and positive, got .* at index 1$"):
        decompose_stretch_multiplicative(2.0, value, value)
    with pytest.raises(ValueError,
                       match=r"^loads must be finite, got nan at index 2$"):
        decompose_stress_additive(StressTriple(1.0, 2.0, math.nan))


# ---------------------------------------------------------------------------
# the law layer: the tensor maps, stress_convert, pk1_for_law and the CLI
# commands built on them

_TENSOR_MAPS = {"becker_biot": becker_biot,
                "becker_kirchhoff": becker_kirchhoff,
                "becker_cauchy": becker_cauchy, "becker_pk2": becker_pk2,
                "hencky_kirchhoff": hencky_kirchhoff,
                "hencky_cauchy": hencky_cauchy, "hooke_biot": hooke_biot,
                "hooke_cauchy": hooke_cauchy,
                "linearized_law": linearized_law,
                "linearized_inverse": linearized_inverse}
_TENSOR_TAGS = tuple(tag for tag in LAW_TAGS
                     if _LAWS[tag].strain is not None)
_FRAME = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])

# a 3x3 matrix: nine arbitrary numbers, or a symmetric positive definite
# matrix with eigenvalues 10**e across the whole exponent range
_MATRIX = st.one_of(
    st.lists(_REAL, min_size=9, max_size=9).map(
        lambda v: np.array(v).reshape(3, 3)),
    st.lists(st.floats(min_value=-320.0, max_value=308.0), min_size=3,
             max_size=3).map(
        lambda e: (_FRAME * 10.0 ** np.array(e)) @ _FRAME.T))


def _quietly(call):
    """call() with every warning an error: its result, or None when it
    raised ValueError or a LogstrainError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (ValueError, LogstrainError):
            return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_TENSOR_MAPS)), a=_MATRIX,
       m=st.sampled_from(_MODULI))
def test_tensor_maps_finite_or_error(name, a, m):
    out = _quietly(lambda: _TENSOR_MAPS[name](a, m))
    assert out is None or np.isfinite(out).all(), (name, a, out)


def test_becker_measures_that_overflow_raise_and_finite_ones_return():
    # lam = 0 unless given: Kirchhoff stress 20 * 2 G ln 20 overflows; the
    # Cauchy stress diag(2 G ln 20, 0, 0) does not; 1e-11 I at G = 1e300
    # has Cauchy and PK2 stresses near -5e323; det(1e150 I) overflows
    # while its Cauchy stress is (2 G + 3 lam) ln(1e150) / 1e300 I
    u, m = np.diag([20.0, 1.0, 1.0]), Moduli.from_g_lam(1e307, 0.0)
    tiny, big = 1e-11 * np.eye(3), Moduli.from_g_lam(1e300, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LogstrainError, match=r"^law 'becker': Kirchhoff "
                           r"stress is not finite at G = 1e\+307, lam = 0$"):
            becker_kirchhoff(u, m)
        sigma = becker_cauchy(u, m)
        with pytest.raises(LogstrainError, match=r"^law 'becker': Cauchy "
                                                 r"stress is not finite"):
            becker_cauchy(tiny, big)
        with pytest.raises(LogstrainError, match=r"^law 'becker': PK2 "
                                                 r"stress is not finite"):
            becker_pk2(tiny, big)
        huge = becker_cauchy(1e150 * np.eye(3), Moduli.from_g_lam(1.0, 0.5))
    want = np.diag([2e307 * math.log(20.0), 0.0, 0.0])
    np.testing.assert_allclose(sigma, want, rtol=1e-15, atol=0.0)
    want = 3.5 * math.log(1e150) * 1e-300 * np.eye(3)
    np.testing.assert_allclose(huge, want, rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(energy=st.sampled_from([becker_energy_nu0, hencky_energy]),
       a=st.one_of(_MATRIX, st.lists(
           st.floats(min_value=-3.0, max_value=3.0), min_size=3,
           max_size=3).map(lambda e: (_FRAME * 10.0 ** np.array(e))
                           @ _FRAME.T)),
       m=st.sampled_from(_MODULI))
def test_energies_finite_or_error(energy, a, m):
    # at G = 5e307 an energy of a moderate stretch, eigenvalues 10**e for
    # e in [-3, 3], already overflows
    out = _quietly(lambda: energy(a, m))
    assert out is None or math.isfinite(out), (energy, a, out)


def test_energies_that_overflow_raise():
    m = Moduli.from_g_lam(5e307, 0.0)
    u = np.diag([20.0, 1.0, 1.0])
    for energy in (becker_energy_nu0, hencky_energy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LogstrainError, match="not finite"):
                energy(u, m)
    with pytest.raises(LogstrainError, match=r"becker_energy_nu0: energy is "
                       r"not finite at G = 5e\+307 at index 1$"):
        becker_energy_nu0(np.stack([np.eye(3), u]), m)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(law=st.sampled_from(_TENSOR_TAGS), f=_MATRIX,
       m=st.sampled_from(_MODULI))
def test_pk1_for_law_finite_or_error(law, f, m):
    out = _quietly(lambda: pk1_for_law(law, f, m))
    assert out is None or np.isfinite(out).all(), (law, f, out)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(t=_MATRIX, f=_MATRIX, measure=st.sampled_from(MEASURES),
       target=st.sampled_from(MEASURES))
def test_stress_convert_finite_or_error(t, f, measure, target):
    out = _quietly(lambda: stress_convert(StressState(t, measure, f),
                                          target).tensor)
    assert out is None or np.isfinite(out).all(), (t, f, out)


# ---------------------------------------------------------------------------
# the public single checks of verify

# each called with two matrices a and b and moduli m: the ladders take a as
# their strain direction
_SINGLE_CHECKS = {
    "baker_ericksen_check": lambda a, b, m: baker_ericksen_check(a, m),
    "ordered_force_check": lambda a, b, m: ordered_force_check(a, m),
    "m_condition_check": lambda a, b, m: m_condition_check(a, b, m),
    "linearization_order_check":
        lambda a, b, m: linearization_order_check(m, a),
    "pk2_expansion_check": lambda a, b, m: pk2_expansion_check(m, a),
}


# a moderate SPD stretch, eigenvalues 10**e for e in [-1.5, 1.5], at which
# products of stresses overflow only for moduli near the largest float
_MODERATE = st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=3,
                     max_size=3).map(
    lambda e: (_FRAME * 10.0 ** np.array(e)) @ _FRAME.T)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_SINGLE_CHECKS)),
       a=st.one_of(_MATRIX, _MODERATE), b=st.one_of(_MATRIX, _MODERATE),
       m=st.sampled_from(_MODULI + (Moduli.from_g_lam(1.0, 1e307),)))
def test_single_checks_report_or_raise_quietly(name, a, b, m):
    # a report is one strict JSON line with a finite tolerance; the
    # monotonicity product is a finite number
    _assert_report_or_value(
        name, _quietly(lambda: _SINGLE_CHECKS[name](a, b, m)), a, b, m)


def _assert_report_or_value(name, out, *args):
    """What a single check may give: a report of one strict JSON line with
    a finite tolerance, a finite number, or None for an error."""
    if isinstance(out, CheckReport):
        line, = format_reports([out])
        json.loads(line, parse_constant=_strict)
        assert math.isfinite(out.tolerance), (name, *args)
    else:
        assert out is None or math.isfinite(out), (name, *args, out)


# moduli at the overflow edge, G or lam from 1e306 up (G up to 5e307, as
# Young's modulus 3 G overflows above 6e307), each with moderate stretches:
# there the stresses are finite, and their products and differences may not
# be.  A random draw seldom pairs the two, so every pair is run
_EDGE_MODULI = (*(Moduli.from_g_lam(g, 0.0) for g in (1e306, 1e307, 5e307)),
                *(Moduli.from_g_lam(1.0, lam) for lam in (1e306, 1e307,
                                                           1.7e308)),
                Moduli.from_g_lam(1e307, 1e307))
_EDGE_STRETCHES = [
    frame @ np.diag(10.0 ** np.array(e)) @ frame.T
    for frame in (np.eye(3), _FRAME)
    for e in ((1.3, 0.0, 0.0), (0.3, -0.6, 0.0), (1.5, -1.5, 0.0),
              (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), (-1.0, 0.5, 1.2))]


@pytest.mark.parametrize("name", sorted(_TENSOR_MAPS) + sorted(_SINGLE_CHECKS))
def test_moderate_stretches_at_the_overflow_edge_run_quietly(name):
    for m in _EDGE_MODULI:
        for k, a in enumerate(_EDGE_STRETCHES):
            if name in _TENSOR_MAPS:
                out = _quietly(lambda: _TENSOR_MAPS[name](a, m))
                assert out is None or np.isfinite(out).all(), (name, a, m)
            else:
                b = _EDGE_STRETCHES[k - 1]
                _assert_report_or_value(name, _quietly(
                    lambda: _SINGLE_CHECKS[name](a, b, m)), a, b, m)


@pytest.mark.parametrize("law", _TENSOR_TAGS)
def test_axiom_block_runs_quietly_where_residuals_overflow(law):
    # at lam = 1e307 the finite-Hooke sums of stresses overflow: the
    # residual is infinite and fails its check, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = check_axioms(law, Moduli.from_g_lam(1.0, 1e307),
                               samples=4)
    for line in format_reports(reports):
        json.loads(line, parse_constant=_strict)


def test_single_checks_keep_the_sign_of_an_overflowed_product():
    # (sigma_0 - sigma_1)(20 - 1) overflows at lam = 1e307, and
    # T_0 - T_2 = 2 G (ln 2 - ln 0.25) at G = 5e307; each is +inf, so the
    # ordering holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        be = baker_ericksen_check(np.diag([20.0, 1.0, 1.0]),
                                  Moduli.from_g_lam(1.0, 1e307))
        of = ordered_force_check(np.diag([2.0, 0.25, 1.0]),
                                 Moduli.from_g_lam(5e307, 0.0))
    assert be.passed and of.passed
    assert be.witness["violations"] == of.witness["violations"] == []


# ---------------------------------------------------------------------------
# stresses at every stretch scale: the principal closed forms at a positive
# diagonal F = D 2**k, and moduli and stretches drawn near the overflow edge
# together

_U = 2.0 ** -53
_TINY, _BIG = 2.2250738585072014e-308, 1.7976931348623157e308
# D's entries in e**[-1.4, 1.4]; k from -11, where det F nears the 1e-12
# floor, to 1021, where an entry nears the largest float
_SCALED_DIAGONAL = st.builds(
    lambda x, k: np.ldexp(np.exp(np.array(x)), k),
    st.lists(st.floats(-1.4, 1.4), min_size=3, max_size=3),
    st.integers(-11, 1021))
# each measure's degree in F at a fixed Kirchhoff stress tau: at a
# principal stretch d of a diagonal F, a measure is tau d**n, but the
# Cauchy stress is tau / J
_DEGREE = {"kirchhoff": 0, "biot": -1, "pk1": -1, "pk2": -2, "cauchy": -3}


def _normal(x):
    return x == 0 or _TINY <= abs(x) <= _BIG


def _exact(x, d, j, measure, target):
    """The principal value, as a Fraction, in ``target`` of the principal
    value x in ``measure`` at the principal stretch d of a diagonal F of
    determinant j."""
    tau = x * j if measure == "cauchy" else x / d ** _DEGREE[measure]
    return tau / j if target == "cauchy" else tau * d ** _DEGREE[target]


def _assert_diagonal(out, exact, bounds, context):
    """out, a diagonal matrix or None for an error, against the exact
    principal values (Fractions, or 50-digit mpmath numbers): None only
    where one of them is not a normal float, and each normal one within
    its absolute bound."""
    if out is None:
        assert not all(map(_normal, exact)), context
        return
    assert np.count_nonzero(out - np.diag(np.diag(out))) == 0, context
    for got, want, bound in zip(np.diag(out).tolist(), exact, bounds):
        assert not _normal(want) or abs(type(want)(got) - want) <= bound, (
            context, got, float(want))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(d=_SCALED_DIAGONAL, t=st.lists(st.builds(
    lambda sign, x: sign * 10.0 ** x, st.sampled_from([-1.0, 1.0]),
    st.floats(-3.0, 3.0)), min_size=3, max_size=3))
def test_diagonal_conversions_are_their_principal_closed_forms(d, t):
    # within 8 u where neither measure is the Cauchy stress and 2 (1 +
    # |ln J|) u where one is, as stress_convert states
    fd = [Fraction(x) for x in d.tolist()]
    j = fd[0] * fd[1] * fd[2]
    ln_j = abs(math.fsum(math.log(x) for x in d.tolist()))
    for measure, target in itertools.product(MEASURES, MEASURES):
        exact = [_exact(Fraction(x), di, j, measure, target)
                 for x, di in zip(t, fd)]
        rel = (2.0 * (1.0 + ln_j) * _U if "cauchy" in (measure, target)
               else 8.0 * _U)
        out = _quietly(lambda: stress_convert(
            StressState(np.diag(t), measure, np.diag(d)), target).tensor)
        _assert_diagonal(out, exact, [Fraction(rel) * abs(x) for x in exact],
                         (measure, target, d.tolist()))


_DIAGONAL_MODULI = (Moduli.from_g_lam(1.0, 0.5), Moduli.from_g_lam(1.0, 0.0),
                    Moduli.from_g_lam(3.0, -1.5),
                    Moduli.from_g_lam(1e-300, 1e-300),
                    Moduli.from_g_lam(1e300, 2e300))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(law=st.sampled_from(_TENSOR_TAGS), d=_SCALED_DIAGONAL,
       m=st.sampled_from(_DIAGONAL_MODULI))
def test_diagonal_pk1_is_its_principal_closed_form(law, d, m):
    # P_i = t_i c_i, c_i = 1, 1 / d_i or J / d_i by the law's measure,
    # within pk1_for_law's stated bound, alone and inside a stack
    mpmath = pytest.importorskip("mpmath")
    measure = _LAWS[law].measure
    with mpmath.workdps(50):
        dm = [mpmath.mpf(x) for x in d.tolist()]
        e = [x - 1 if law.startswith("hooke") else mpmath.log(x)
             for x in dm]
        j = dm[0] * dm[1] * dm[2]
        c = [1 if measure == "biot" else (1 if measure == "kirchhoff"
                                          else j) / x for x in dm]
        exact = [(2 * m.g * ei + m.lam * sum(e)) * ci
                 for ei, ci in zip(e, c)]
        bounds = [4 * _U * (2 * abs(m.g * ei)
                            + abs(m.lam) * sum(abs(x) for x in e)) * abs(ci)
                  + (2 * (1 + abs(mpmath.log(j))) * _U * abs(pi)
                     if measure == "cauchy" else 0)
                  for ei, ci, pi in zip(e, c, exact)]
        for f in (np.diag(d), np.diag(d)[None]):
            out = _quietly(lambda: pk1_for_law(law, f, m))
            _assert_diagonal(None if out is None else out.reshape(3, 3),
                             exact, bounds, (law, d.tolist(), m, f.ndim))


@pytest.mark.parametrize("c", [1e110, 1e150])
def test_large_stretch_scales_give_the_principal_stresses(c):
    # det(diag(1, 2, 3) c) overflows: the Biot stress T still converts to
    # every measure within 1e-15 of its closed form, the Cauchy-measure
    # PK1 stresses are finite, and the principal Cauchy stresses of the
    # Baker-Ericksen check are T_i / (d_j d_k), ordered, not 0.0
    m = Moduli.from_g_lam(1.0, 0.5)
    d = np.array([1.0, 2.0, 3.0]) * c
    t = becker_biot(np.diag(d), m)
    fd = [Fraction(x) for x in d.tolist()]
    j = fd[0] * fd[1] * fd[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in MEASURES:
            out = stress_convert(StressState(t, "biot", np.diag(d)), target)
            exact = [_exact(Fraction(x), di, j, "biot", target)
                     for x, di in zip(np.diag(t).tolist(), fd)]
            _assert_diagonal(out.tensor, exact,
                             [abs(x) * Fraction(1e-15) for x in exact],
                             target)
        assert np.array_equal(becker_cauchy(np.diag(d), m),
                              stress_convert(StressState(t, "biot",
                                                         np.diag(d)),
                                             "cauchy").tensor)
        report = baker_ericksen_check(np.diag(d), m)
    assert report.passed, report.witness
    want = [Fraction(x) / (j / di) for x, di in zip(np.diag(t).tolist(), fd)]
    got = report.witness["stresses"].tolist()[::-1]  # descending stretches
    for x, y in zip(got, want):
        assert abs(Fraction(x) - y) <= abs(y) * Fraction(1e-15)


@pytest.mark.parametrize("law, c", [("hooke-cauchy", 1e100),
                                    ("hencky-cauchy", 1e110)])
def test_cauchy_measure_pk1_beyond_an_overflowing_j_t(law, c):
    # J t overflows, and P = J t_i / d_i, about 3e301 and 5.3e223, does
    # not: alone and inside a stack, on the SVD and on the diagonal lane
    mpmath = pytest.importorskip("mpmath")
    m = Moduli.from_g_lam(1.0, 0.5)
    f = np.diag([1.0, 2.0, 3.0]) * c
    with mpmath.workdps(50):
        d = [mpmath.mpf(x) for x in np.diag(f).tolist()]
        e = [x - 1 if law == "hooke-cauchy" else mpmath.log(x) for x in d]
        want = [(2 * ei + 0.5 * sum(e)) * d[0] * d[1] * d[2] / di
                for ei, di in zip(e, d)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            turned = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0]])
            for a in (f, f[None], np.stack([f, turned])):
                p = pk1_for_law(law, a, m).reshape(-1, 3, 3)[0]
                _assert_diagonal(p, want, [1e-15 * abs(x) for x in want],
                                 a.shape)


# moduli and a stretch drawn together near the overflow edge: G s = 10**x
# for x from 100 to 308.2, split at c in [0, min(x, 154)] between the
# stretch scale s = 10**c and the modulus that carries the rest, G (at
# most 5e307, as Young's modulus 3 G overflows above 6e307, with lam = r G)
# or lam (at most 1.7e308, with G = 1); the stretch has eigenvalues
# s 10**e, e in [-1.5, 1.5], on the frame I or _FRAME.  So the stresses,
# their products or J = det V lie near the largest float or beyond it,
# where a draw of moduli and stretches apart seldom pairs the two
@st.composite
def _near_the_edge(draw):
    x = draw(st.floats(100.0, 308.2))
    c = draw(st.floats(0.0, min(x, 154.0)))
    if draw(st.booleans()):
        g = min(10.0 ** (x - c), 5e307)
        m = Moduli.from_g_lam(g, draw(st.sampled_from([0.0, 0.5, -0.6])) * g)
    else:
        m = Moduli.from_g_lam(1.0, min(10.0 ** (x - c), 1.7e308))
    e = draw(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
    frame = draw(st.sampled_from([np.eye(3), _FRAME]))
    return m, (frame * 10.0 ** (c + np.array(e))) @ frame.T


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_TENSOR_MAPS) + list(_TENSOR_TAGS)),
       pair=_near_the_edge())
def test_law_maps_near_the_overflow_edge_finite_or_error(name, pair):
    # the tensor maps by name, pk1_for_law by law tag
    m, a = pair
    out = _quietly(lambda: _TENSOR_MAPS[name](a, m) if name in _TENSOR_MAPS
                   else pk1_for_law(name, a, m))
    assert out is None or np.isfinite(out).all(), (name, a, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_SINGLE_CHECKS)), pair=_near_the_edge(),
       b=_MODERATE)
def test_single_checks_near_the_overflow_edge_report_or_raise_quietly(
        name, pair, b):
    m, a = pair
    _assert_report_or_value(
        name, _quietly(lambda: _SINGLE_CHECKS[name](a, b, m)), a, b, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=st.sampled_from(_TENSOR_TAGS), pair=_near_the_edge(),
       target=st.sampled_from(MEASURES))
def test_stress_convert_near_the_overflow_edge_scales_with_f(law, pair,
                                                             target):
    # a law's stress t at F = V near the edge converts as t / 2**a at
    # F / 2**e, their largest entries brought into [1, 2), times
    # 2**(a + e (n_target - n_measure)), n each measure's _DEGREE: to 11
    # digits, or with an error only where that is not finite
    m, f = pair
    measure = _LAWS[law].measure
    t = _quietly(lambda: stretch_stress(law, f, m))
    if t is None:
        return
    a, e = (math.frexp(float(np.abs(x).max()))[1] - 1 for x in (t, f))
    with np.errstate(over="ignore"):
        want = np.ldexp(stress_convert(StressState(
            np.ldexp(t, -a), measure, np.ldexp(f, -e)), target).tensor,
            a + e * (_DEGREE[target] - _DEGREE[measure]))
    out = _quietly(lambda: stress_convert(StressState(t, measure, f),
                                          target).tensor)
    if out is None:
        assert not np.isfinite(want).all(), (law, f, m, target)
    else:
        assert np.abs(out - want).max() <= 1e-11 * np.abs(want).max(), (
            law, f, m, target, out, want)


# ---------------------------------------------------------------------------
# the path layer: LoadPath and converged_path_work

# a corner of a diagonal path: three arbitrary numbers, or three positive
# stretches, moderate or powers of ten across the whole exponent range
_STRETCH = st.one_of(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=-320.0, max_value=308.0).map(lambda e: 10.0 ** e))
_CORNER = st.one_of(st.tuples(_REAL, _REAL, _REAL),
                    st.tuples(_STRETCH, _STRETCH, _STRETCH))


def _outcome(call):
    """call() with every warning an error: ``("ok", result)`` or
    ``(type, message)`` of the ValueError or LogstrainError it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", call()
        except (ValueError, LogstrainError) as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("corners", [
    [(1.0, 1.0, 1.0), (1e154, 1e154, 1e154), (1.0, 1.0, 1.0)],
    [(1.0, 1.0, 1.0), (1e200, 1e200, 1.0)]])
@pytest.mark.parametrize("law", ["becker", "hooke-biot", "hencky-cauchy"])
def test_paths_whose_det_overflows_run_quietly(corners, law):
    # det F overflows to +inf at the far corner, which is still > 0; the
    # law may then reject the path (a stretch below the floor of ln, a
    # stress or a work that overflows), but with an error, not a warning
    closed = corners[0] == corners[-1]
    path = diagonal_path(corners)
    g = np.array([path(t) for t in np.linspace(0.0, 1.0, 7).tolist()])
    assert _outcome(lambda: LoadPath(g, closed=closed))[0] == "ok"
    status, out = _outcome(lambda: converged_path_work(
        path, law, Moduli.from_g_lam(1.0, 0.5), closed=closed))
    assert status != "ok" or math.isfinite(out[0]), out


def test_a_closed_path_whose_gap_overflows_is_rejected_quietly():
    # the end points differ by more than the largest float
    g = np.array([np.diag([1e308, 1e308, 1.0]), np.eye(3),
                  np.diag([-1e308, -1e308, 1.0])])
    assert _outcome(lambda: LoadPath(g, closed=True)) == (
        ValueError, "closed path endpoints differ by inf")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(corners=st.lists(_CORNER, min_size=2, max_size=3),
       law=st.sampled_from(_TENSOR_TAGS), m=st.sampled_from(_MODULI),
       closed=st.booleans())
def test_path_work_finite_or_error(corners, law, m, closed):
    # a closed path returns to its first corner; every corner lies on the
    # panel grid of t = k / 6
    path = diagonal_path(corners + corners[:1] if closed else corners)
    direct = _outcome(lambda: converged_path_work(path, law, m,
                                                  closed=closed))
    # the same path sampled one node at a time raises alike
    assert _outcome(lambda: converged_path_work(
        lambda t: path(t), law, m, closed=closed)) == direct
    if direct[0] == "ok":
        work, n, converged = direct[1]
        assert math.isfinite(work), (corners, law, m, direct)


def _text(values):
    return " ".join(repr(float(v)) for v in np.ravel(values))


def _moduli(m):
    return ["--G", repr(m.g), "--lam", repr(m.lam)]


def _plot(figure):
    return lambda a, law, measure, m, data: [
        "plot-data", "--figure", figure, "--min", repr(float(a[0, 0])),
        "--max", repr(float(a[0, 1])), "--points", "5", *_moduli(m)]


def _fit(mode):
    # data: a CSV file of the rows of a, written by the test
    return lambda a, law, measure, m, data: [
        "fit", data, "--mode", mode, "--out", "-", "--points", "5",
        "--laws", "hencky", "neo-hooke"]


_COMMANDS = {
    "stress": lambda a, law, measure, m, data: [
        "stress", "--F", _text(a), "--law", law, "--measure", measure,
        *_moduli(m)],
    # t11 t22 t33 t12 t13 t23 from the upper triangle
    "invert": lambda a, law, measure, m, data: [
        "invert", "--T", _text(a[np.triu_indices(3)][[0, 3, 5, 1, 2, 4]]),
        *_moduli(m)],
    "decompose": lambda a, law, measure, m, data: [
        "decompose", "--loads", *_text(a[0]).split(), *_moduli(m)],
    # shear-statics takes no moduli
    "shear-statics": lambda a, law, measure, m, data: [
        "shear-statics", "--Q", repr(float(a[0, 0])),
        "--alpha", repr(float(a[0, 1])), "--q-scale", repr(float(a[0, 2]))],
    "plot-data simple-shear": _plot("simple-shear"),
    "plot-data tension": _plot("tension"),
    # 2 to 4 samples and a seed from the sign bits of a
    "check": lambda a, law, measure, m, data: [
        "check", "--law", law,
        "--samples", str(2 + int(np.signbit(a[0, :2]).sum())),
        "--seed", str(int(np.signbit(a).sum())), *_moduli(m)],
    "fit uniaxial-incompressible": _fit("uniaxial-incompressible"),
    "fit uniaxial-hyper": _fit("uniaxial-hyper"),
}


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=900, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_COMMANDS)), a=_MATRIX,
       m=st.sampled_from(_MODULI), law=st.sampled_from(_TENSOR_TAGS),
       measure=st.sampled_from(MEASURES))
def test_cli_law_commands_exit_zero_with_finite_output_or_two(
        tmp_path_factory, command, a, m, law, measure):
    data = tmp_path_factory.getbasetemp() / "fit-data.csv"
    data.write_text("lambda,t\n" + "".join(
        f"{x!r},{y!r}\n" for x, y in a[:, :2].tolist()))
    argv = _COMMANDS[command](a, law, measure, m, str(data))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    elif command == "check":
        # one strict JSON report per line, exit 1 when a check failed,
        # and on stderr only the "# " notes on the reports
        assert code in (0, 1), argv
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_strict)
        assert all(line.startswith("# ")
                   for line in err.getvalue().splitlines()), argv
    else:
        assert (code, err.getvalue()) == (0, ""), argv
        assert not re.search(r"\b(inf|nan)\b", out.getvalue()), argv


def test_tensor_rows_are_the_cli_laws_and_what_the_maps_accept():
    # a row with a strain is a tensor law: the CLI's --law choices, and
    # exactly the tags stretch_stress and pk1_for_law accept
    assert _TENSOR_TAGS == cli._CLI_LAWS
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("stress", "check"):
        law = next(a for a in sub.choices[command]._actions
                   if a.dest == "law")
        assert tuple(law.choices) == _TENSOR_TAGS
    m = Moduli.from_g_lam(1.0, 0.5)
    accepted = []
    for tag in LAW_TAGS:
        try:
            stretch_stress(tag, np.eye(3), m)
        except ValueError:
            with pytest.raises(ValueError):
                pk1_for_law(tag, np.eye(3), m)
            continue
        pk1_for_law(tag, np.eye(3), m)
        accepted.append(tag)
    assert tuple(accepted) == _TENSOR_TAGS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(law=st.sampled_from(_TENSOR_TAGS),
       m=st.sampled_from(_MODULI + (Moduli.from_g_lam(1.0, 1.7e308),
                                    Moduli.from_g_lam(8e307, 0.0))),
       samples=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_suite_returns_strict_json_reports(law, m, samples, seed):
    # at lam = 1.7e308, and at G = 8e307 with lam = 0, the stresses
    # overflow: every check that raises while it is evaluated, the path
    # work and the closed forms included, decides nothing and comes out
    # not as expected, whichever way it was expected to go, with the error
    # as its witness, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = suite(law, m, samples=samples, seed=seed)
    lines = format_reports(reports)
    assert len(lines) == len(reports) > 0
    for line, report in zip(lines, reports):
        json.loads(line, parse_constant=_strict)
        assert report.passed or report.witness, report.name
        if report.witness and "error" in report.witness:
            assert not report.as_expected, report.name
