"""Exact-contract 3x3 symmetric linear algebra.

Symmetric eigendecomposition (LAPACK frame, Rayleigh-quotient eigenvalues),
matrix functions (log, exp, sqrt, real powers) evaluated spectrally, and the
small tensor operators (deviator, trace, inner product, Frobenius norm,
cofactor) that the rest of the package is built on.

All tensors are plain ``numpy.ndarray`` objects of shape (3, 3) and dtype
float64.  Symmetric arguments are symmetrized on entry, so callers may pass
matrices that are symmetric only up to roundoff (e.g. products ``F.T @ F``).
Everything here is a pure function of its arguments and safe for concurrent
use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LogstrainError, NotPositiveDefinite

__all__ = [
    "Spectral3",
    "eig_sym",
    "mat_fn",
    "mat_log",
    "mat_exp",
    "mat_sqrt",
    "mat_pow",
    "dev3",
    "tr",
    "inner",
    "fro_norm",
    "cofactor",
    "sym_part",
    "as_mat3",
    "identity",
]

# Positivity threshold for the spectral kernel: the min eigenvalue must
# exceed PD_REL_TOL * max(1, max|eigenvalue|).
PD_REL_TOL = 1e-12


def identity():
    return np.eye(3)


def as_mat3(a, name="matrix"):
    """Coerce to a finite float64 (3, 3) array (copies the input)."""
    m = np.array(a, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def sym_part(a):
    """Symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class Spectral3:
    """Spectral decomposition of a symmetric 3x3 matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (3,)
        Sorted in descending order.
    frame : ndarray, shape (3, 3)
        Orthogonal matrix whose columns are the corresponding eigenvectors,
        so that ``frame @ diag(eigenvalues) @ frame.T`` reconstructs the
        input.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray

    def reconstruct(self):
        return self.frame @ np.diag(self.eigenvalues) @ self.frame.T


def _spectrum(m):
    """Spectral decomposition of a checked, symmetric 3x3 matrix ``m``.

    The frame comes from LAPACK (``np.linalg.eigh``); each eigenvalue is
    recomputed as the Rayleigh quotient ``v_i . m v_i`` of its frame
    column, which is more accurate than LAPACK's own eigenvalue for the
    small end of the spectrum, where the logarithm needs accuracy.
    """
    _, frame = np.linalg.eigh(m)
    vals = ((m @ frame) * frame).sum(axis=0)
    order = np.argsort(-vals, kind="stable")
    return Spectral3(eigenvalues=vals[order], frame=frame[:, order])


def eig_sym(a):
    """Eigendecomposition of a symmetric 3x3 matrix.

    Parameters
    ----------
    a : array_like, shape (3, 3)
        Symmetric matrix (symmetrized internally; ``(a + a.T) / 2`` is
        decomposed).

    Returns
    -------
    Spectral3
        Eigenvalues in descending order with an orthonormal eigenvector
        frame.  Each eigenvalue is within ``16 * eps * max|eigenvalue|`` of
        the exact eigenvalue of the symmetrized input (``eps`` the float64
        machine epsilon).  Deterministic for a fixed input; within exactly
        repeated eigenvalues the eigenvector order is LAPACK's.

    Raises
    ------
    ValueError
        If ``a`` is not 3x3 or contains non-finite entries.
    """
    return _spectrum(sym_part(as_mat3(a, "a")))


def _mat_fn(a, f, name, floor_on):
    # body of mat_fn; floor_on names the spectral quantity that must exceed
    # the floor: "eigenvalue" (positive definite), "|eigenvalue|"
    # (invertible) or None (no check)
    spec = _spectrum(sym_part(as_mat3(a, "a")))
    if floor_on is not None:
        ev = spec.eigenvalues
        least = ev[2] if floor_on == "eigenvalue" else np.abs(ev).min()
        floor = PD_REL_TOL * max(1.0, abs(ev[0]), abs(ev[2]))
        if least <= floor:
            raise NotPositiveDefinite(
                f"{name}: min {floor_on} {least:.6g} <= "
                f"tolerance {floor:.6g}")
    vals = np.empty(3)
    for i, x in enumerate(spec.eigenvalues.tolist()):
        try:
            vals[i] = f(x)
        except OverflowError:
            raise LogstrainError(
                f"{name}: overflow at eigenvalue {x:.6g}") from None
    return sym_part(spec.frame @ np.diag(vals) @ spec.frame.T)


def mat_fn(a, f, require_pd=False, name="mat_fn"):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    ``mat_fn(a, f) = frame @ diag(f(eigenvalue_i)) @ frame.T``, with ``f``
    called on Python floats.

    With ``require_pd=True`` the minimum eigenvalue must exceed
    ``PD_REL_TOL * max(1, max|eigenvalue|)``; otherwise
    :class:`NotPositiveDefinite` is raised rather than silently clamping.
    A scalar function that overflows raises :class:`LogstrainError` naming
    the eigenvalue.
    """
    return _mat_fn(a, f, name, "eigenvalue" if require_pd else None)


def mat_log(a):
    """Principal matrix logarithm of a symmetric positive definite matrix."""
    return mat_fn(a, math.log, require_pd=True, name="mat_log")


def mat_exp(a):
    """Matrix exponential of a symmetric matrix."""
    return mat_fn(a, math.exp, name="mat_exp")


def mat_sqrt(a):
    """Principal square root of a symmetric positive definite matrix."""
    return mat_fn(a, math.sqrt, require_pd=True, name="mat_sqrt")


def mat_pow(a, r):
    """Real matrix power ``a**r`` of a symmetric matrix.

    Non-integer exponents require ``a`` positive definite.  Integer
    exponents are evaluated spectrally as well; negative integer powers
    require every ``|eigenvalue|`` to exceed the floor of :func:`mat_fn`.
    A power that overflows raises :class:`LogstrainError`.
    """
    r = float(r)
    if r != int(r):
        return mat_fn(a, lambda x: x ** r, require_pd=True, name="mat_pow")
    return _mat_fn(a, lambda x: x ** r, "mat_pow",
                   "|eigenvalue|" if r < 0 else None)


def dev3(a):
    """Deviatoric (trace-free) part: a - tr(a)/3 * I."""
    a = np.asarray(a, dtype=float)
    return a - (np.trace(a) / 3.0) * np.eye(3)


def tr(a):
    """Trace."""
    return float(np.trace(a))


def inner(a, b):
    """Canonical inner product tr(b.T @ a)."""
    return float(np.tensordot(a, b))


def fro_norm(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def cofactor(m):
    """Cofactor matrix, entrywise signed 2x2 minors.

    Defined for every 3x3 matrix; for invertible ``m`` it equals
    ``det(m) * inv(m).T``.
    """
    m = as_mat3(m, "m")
    c = np.empty((3, 3))
    c[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    c[0, 1] = m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]
    c[0, 2] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    c[1, 0] = m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]
    c[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    c[1, 2] = m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]
    c[2, 0] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    c[2, 1] = m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]
    c[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return c
