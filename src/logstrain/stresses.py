"""Stress measures and conversions between them.

A :class:`StressState` is a 3x3 stress tensor tagged with its measure and
the deformation gradient it refers to.  Conversions route through the
Cauchy stress using

    kirchhoff = det(F) * cauchy
    pk1       = det(F) * cauchy @ inv(F).T
    pk2       = det(F) * inv(F) @ cauchy @ inv(F).T
    biot      = R.T @ pk1

with F = R @ U the polar decomposition.  The Biot conversions read only
the rotation ``R = W Vt`` of one SVD ``F = W diag(s) Vt``, not U: the
Cauchy stress of a Biot stress T is ``R @ T @ F.T / det(F)``.  No
symmetrization is applied inside the conversions, so round trips are
exact up to roundoff; for an isotropic law the Biot, Cauchy, Kirchhoff
and PK2 tensors all come out symmetric, while PK1 is general.
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

from dataclasses import dataclass

import numpy as np

from .errors import LogstrainError
from .kinematics import _jacobian
from .tensors import _first_nonfinite, _inv, _svd, as_mat3

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
    """A stress tensor, its measure, and the deformation it refers to."""

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


def _to_cauchy(t, measure, f, j):
    if measure == "cauchy":
        return t
    if measure == "kirchhoff":
        return t / j
    ft = f.T
    if measure == "pk1":
        return (t @ ft) / j
    if measure == "pk2":
        return (f @ t @ ft) / j
    # biot: PK1 = R @ T
    return (_rotation(f) @ t @ ft) / j


def _from_cauchy(sigma, measure, f, j):
    if measure == "cauchy":
        return sigma
    if measure == "kirchhoff":
        return j * sigma
    f_inv = _inv(f)
    f_inv_t = f_inv.T
    if measure == "pk2":
        return j * f_inv @ sigma @ f_inv_t
    pk1 = j * sigma @ f_inv_t
    if measure == "pk1":
        return pk1
    return _rotation(f).T @ pk1


@np.errstate(over="ignore", invalid="ignore")
def _convert(t, measure, target, f):
    """Stress tensor t in ``measure`` at deformation f, in ``target``.

    t and f are the (3, 3) fields of one :class:`StressState`; conversions
    route through the Cauchy stress with one determinant, a numpy scalar.
    Runs without numpy's overflow and invalid-value warnings: a result that
    is not finite raises :class:`LogstrainError` naming ``target``.
    """
    j = _jacobian(f)
    out = _from_cauchy(_to_cauchy(t, measure, f, j), target, f, j)
    if _first_nonfinite(out) is not None:
        raise LogstrainError(f"stress_convert: {target} stress is not "
                             f"finite")
    return out


def stress_convert(state, target):
    """Convert a stress state to another measure at the same deformation.

    Round trips reproduce the original tensor up to roundoff.  The result
    holds its own copies of the tensor and the deformation; the state's
    fields were checked when it was made, so they are not checked again.

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
