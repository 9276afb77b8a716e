"""Stress measures and conversions between them.

A :class:`StressState` is a 3x3 stress tensor tagged with its measure and
the deformation gradient it refers to.  The measures form two families,
the material ones (biot, pk1, pk2) and the spatial ones (kirchhoff,
cauchy).  Within the material family a conversion goes through PK1 by
left factors only,

    pk1 = R @ biot = F @ pk2,    biot = R.T @ pk1,    pk2 = inv(F) @ pk1,

within the spatial family through the Kirchhoff stress tau = J cauchy,
and between the families by

    tau = pk1 @ F.T,    pk1 = tau @ inv(F).T,

with F = R @ U the polar decomposition.  So ``J = det F`` enters only a
conversion from or to the Cauchy stress, and inv(F) only a conversion to
PK2 or from a spatial stress to a material one.  The Biot conversions read
only the rotation ``R = W Vt`` of one SVD ``F = W diag(s) Vt``, not U.  No
symmetrization is applied inside the conversions, so round trips are
exact up to roundoff; for an isotropic law the Biot, Cauchy, Kirchhoff
and PK2 tensors all come out symmetric, while PK1 is general.

Accuracy at an ill-conditioned F: biot to pk1 and back, and pk1 or biot
to pk2, are one or two products by the float factors R and inv(F).  At
kappa(F) = 1e6 (``F = Q1 diag(1e3, 1, 1e-3) Q2``, ``T = diag(1, 2, 3)``)
each is within a few ulps of the 40-digit product of those factors (the
tests check 1e-14; routed through tau, biot to pk1 and back were off by
1.3e-10).  From pk2, the product ``F @ pk2`` cancels, and its error grows
as kappa(F) u: 2.1e-11 measured at kappa(F) = 1e6.  The factors carry
the conditioning of F themselves: at kappa(F) = 1e6, R was within 1.6e-13
of the exact polar factor of the float F in 20 draws.

Where J or a converted stress is not finite, the conversion is taken once
more of the stress and of F each divided by the power of two that brings
its largest entry into [1, 2), and the result is multiplied back by one
power of two, fixed by each measure's degree in F at a fixed Kirchhoff
stress (kirchhoff 0, biot and pk1 -1, pk2 -2, cauchy -3).  Those steps
are exact but for subnormal entries, so that a J or a product on the way
that overflows does not lose a stress that is a normal float (the tests
check this at every scale of a positive diagonal F);
``constitutive.becker_cauchy`` takes this rescue where its own
Kirchhoff stress or J overflows.
``constitutive.pk1_for_law`` does not route through here: it builds PK1
from one SVD of F, and for a law in the left stretch it keeps this
module's ``kirchhoff @ inv(F).T`` form.

The determinant, the SVD and the inverse of F are the LAPACK boundary's
(``tensors._det``, ``_svd``, ``_inv``): one gufunc call each, with
``np.linalg``'s bits, or that ``np.linalg`` function where numpy has no
such gufunc.  A LAPACK failure of the SVD or the inverse raises
:class:`LogstrainError` naming the routine; the determinant is unchecked
and read only against the ``det F`` floor of ``kinematics._jacobian``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LogstrainError
from .kinematics import _jacobian
from .tensors import _det, _first_nonfinite, _inv, _svd, as_mat3

__all__ = ["MEASURES", "StressState", "stress_convert"]

MEASURES = ("biot", "cauchy", "kirchhoff", "pk1", "pk2")


def _check_measure(measure):
    m = str(measure).lower()
    if m not in MEASURES:
        raise ValueError(f"unknown stress measure {measure!r}; "
                         f"expected one of {MEASURES}")
    return m


@dataclass(frozen=True)
class StressState:
    """A stress tensor, its measure, and the deformation it refers to.

    Made, it holds a finite float64 (3, 3) copy of each matrix, checked
    as :func:`tensors.as_mat3` checks it (``ValueError`` otherwise), and
    the measure in lower case, one of :data:`MEASURES`."""

    tensor: np.ndarray
    measure: str
    deformation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensor", as_mat3(self.tensor, "tensor"))
        object.__setattr__(self, "measure", _check_measure(self.measure))
        object.__setattr__(
            self, "deformation", as_mat3(self.deformation, "deformation"))


def _checked_state(tensor, measure, deformation):
    """A :class:`StressState` of fields that are already checked, built
    without running ``__post_init__`` again."""
    state = object.__new__(StressState)
    object.__setattr__(state, "tensor", tensor)
    object.__setattr__(state, "measure", measure)
    object.__setattr__(state, "deformation", deformation)
    return state


def _rotation(f):
    """The rotation R of F = R @ U, ``W @ Vt`` from one SVD of f."""
    w, _, vt = _svd(f)
    return w @ vt


# the spatial measures; the material ones are biot, pk1 and pk2
_SPATIAL = ("kirchhoff", "cauchy")


def _route(t, measure, target, f, j):
    """t in ``measure`` at f, with ``J = j``, in ``target``: within the
    material family through ``P = R T = F S`` by left factors only, within
    the spatial family through ``tau = J sigma``, and between the families
    by ``tau = P @ F.T`` or ``P = tau @ inv(F).T``."""
    f_inv = None
    if measure in _SPATIAL:
        tau = j * t if measure == "cauchy" else t
        if target in _SPATIAL:
            return tau / j if target == "cauchy" else tau
        f_inv = _inv(f)
        p = tau @ f_inv.T
    else:
        p = t if measure == "pk1" else (
            f if measure == "pk2" else _rotation(f)) @ t
        if target in _SPATIAL:
            tau = p @ f.T
            return tau / j if target == "cauchy" else tau
    if target == "pk1":
        return p
    if target == "pk2":
        return (_inv(f) if f_inv is None else f_inv) @ p
    return _rotation(f).T @ p


# each measure's degree in F at a fixed Kirchhoff stress
_DEGREE = {"kirchhoff": 0, "biot": -1, "pk1": -1, "pk2": -2, "cauchy": -3}


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _convert(t, measure, target, f):
    """Stress tensor t in ``measure`` at deformation f, in ``target``.

    t and f are the (3, 3) fields of one :class:`StressState`; conversions
    take the routes of :func:`_route`, and ``J = det F`` enters only at a
    Cauchy end.  Where J or the result is not finite, the conversion is
    taken of ``t / 2**a`` and ``f / 2**e``, each largest entry brought
    into [1, 2), and its result multiplied by ``2**(a + e (d_target -
    d_measure))`` with :data:`_DEGREE`'s d: exact steps but where an entry
    is subnormal.  Runs without numpy's overflow, invalid-value and
    divide warnings: a result that is still not finite, also where
    ``det(f / 2**e)`` underflows to 0.0, raises :class:`LogstrainError`
    naming ``target``.
    """
    j = _jacobian(f)
    out = _route(t, measure, target, f, j)
    if not math.isfinite(j) or _first_nonfinite(out) is not None:
        a, e = np.frexp([np.abs(t).max(), np.abs(f).max()])[1] - 1
        t, f = np.ldexp(t, -a), np.ldexp(f, -e)
        j = _det(f)
        out = np.ldexp(_route(t, measure, target, f, j),
                       a + e * (_DEGREE[target] - _DEGREE[measure]))
        if _first_nonfinite(out) is not None:
            raise LogstrainError(f"stress_convert: {target} stress is not "
                                 f"finite")
    return out


def stress_convert(state, target):
    """Convert a stress state to another measure at the same deformation.

    Round trips reproduce the original tensor up to roundoff.  The result
    holds its own copies of the tensor and the deformation; the state's
    fields were checked when it was made, so they are not checked again.

    Accuracy: for a diagonal stress at a positive diagonal F = diag(d),
    each entry of the result is within 8 u (u = 2**-53) of its exact
    value, ``t_i`` times powers of d_i and J, where neither measure is
    the Cauchy stress, and within ``2 (1 + |ln J|) u`` where one is, the
    error of numpy's determinant, ``sign * exp(log |det|)``.  Where that
    exact value is a normal float, it is returned.  The tests check this
    for F = D 2**k, D's entries in e**[-1.4, 1.4], k from -11 to 1021.

    Raises
    ------
    NonInvertible
        If the attached deformation gradient has determinant at most 1e-12.
    LogstrainError
        If the converted stress is not finite (the message names the
        target measure).
    """
    target = _check_measure(target)
    f = state.deformation
    tensor = (state.tensor.copy() if target == state.measure
              else _convert(state.tensor, state.measure, target, f))
    return _checked_state(tensor, target, f.copy())
