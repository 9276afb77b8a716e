"""The error contract of the package: a finite result or a ValueError /
LogstrainError, never a traceback of another type or a numpy warning."""

import ast
import builtins
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logstrain
from logstrain import errors
from logstrain.constitutive import (incompressible_uniaxial_hyper,
                                    incompressible_uniaxial_limit,
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
           Moduli.from_g_lam(1e300, 1e300))

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
