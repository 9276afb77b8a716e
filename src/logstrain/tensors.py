"""Exact-contract 3x3 symmetric linear algebra.

Symmetric eigendecomposition via cyclic Jacobi rotations, matrix functions
(log, exp, sqrt, real powers) evaluated spectrally, and the small tensor
operators (deviator, trace, inner product, Frobenius norm, cofactor) that the
rest of the package is built on.

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

# Convergence and positivity thresholds for the spectral kernel.
JACOBI_OFF_TOL = 1e-14   # off-diagonal Frobenius norm, relative to ||a||
JACOBI_MAX_SWEEPS = 64
PD_REL_TOL = 1e-12       # min eigenvalue must exceed PD_REL_TOL * max(1, ||a||)


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


def _jacobi_t(theta):
    # tangent of the rotation angle; asymptotic form avoids overflow
    if abs(theta) > 1.0e150:
        return 0.5 / theta
    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
    return -t if theta < 0.0 else t


def _jacobi3(a00, a01, a02, a11, a12, a22):
    """Cyclic Jacobi diagonalization of a symmetric 3x3 matrix.

    Sweeps the pairs (0,1), (0,2), (1,2) until the off-diagonal Frobenius
    norm drops below ``JACOBI_OFF_TOL * ||a||`` (hard cap of
    ``JACOBI_MAX_SWEEPS`` sweeps).  Runs on scalars: the rotations keep the
    accumulated frame orthogonal to machine precision without any
    re-normalization, which is what makes repeated eigenvalues harmless.
    """
    d0, d1, d2 = a00, a11, a22
    v00, v01, v02 = 1.0, 0.0, 0.0
    v10, v11, v12 = 0.0, 1.0, 0.0
    v20, v21, v22 = 0.0, 0.0, 1.0
    norm = math.sqrt(a00 * a00 + a11 * a11 + a22 * a22
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12))
    thresh = JACOBI_OFF_TOL * norm
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * (a01 * a01 + a02 * a02 + a12 * a12))
        if off <= thresh:
            break
        if a01 != 0.0:
            theta = 0.5 * (d1 - d0) / a01
            t = _jacobi_t(theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * a01
            d0 -= h
            d1 += h
            a01 = 0.0
            g, h = a02, a12
            a02 = g - s * (h + g * tau)
            a12 = h + s * (g - h * tau)
            g, h = v00, v01
            v00 = g - s * (h + g * tau)
            v01 = h + s * (g - h * tau)
            g, h = v10, v11
            v10 = g - s * (h + g * tau)
            v11 = h + s * (g - h * tau)
            g, h = v20, v21
            v20 = g - s * (h + g * tau)
            v21 = h + s * (g - h * tau)
        if a02 != 0.0:
            theta = 0.5 * (d2 - d0) / a02
            t = _jacobi_t(theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * a02
            d0 -= h
            d2 += h
            a02 = 0.0
            g, h = a01, a12
            a01 = g - s * (h + g * tau)
            a12 = h + s * (g - h * tau)
            g, h = v00, v02
            v00 = g - s * (h + g * tau)
            v02 = h + s * (g - h * tau)
            g, h = v10, v12
            v10 = g - s * (h + g * tau)
            v12 = h + s * (g - h * tau)
            g, h = v20, v22
            v20 = g - s * (h + g * tau)
            v22 = h + s * (g - h * tau)
        if a12 != 0.0:
            theta = 0.5 * (d2 - d1) / a12
            t = _jacobi_t(theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            h = t * a12
            d1 -= h
            d2 += h
            a12 = 0.0
            g, h = a01, a02
            a01 = g - s * (h + g * tau)
            a02 = h + s * (g - h * tau)
            g, h = v01, v02
            v01 = g - s * (h + g * tau)
            v02 = h + s * (g - h * tau)
            g, h = v11, v12
            v11 = g - s * (h + g * tau)
            v12 = h + s * (g - h * tau)
            g, h = v21, v22
            v21 = g - s * (h + g * tau)
            v22 = h + s * (g - h * tau)
    return ((d0, d1, d2),
            (v00, v01, v02, v10, v11, v12, v20, v21, v22))


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
        frame.  Deterministic for a fixed input; within exactly repeated
        eigenvalues the eigenvector order is the Jacobi output order.

    Raises
    ------
    ValueError
        If ``a`` is not 3x3 or contains non-finite entries.
    """
    m = sym_part(as_mat3(a, "a"))
    (d, v) = _jacobi3(float(m[0, 0]), float(m[0, 1]), float(m[0, 2]),
                      float(m[1, 1]), float(m[1, 2]), float(m[2, 2]))
    vals = np.array(d)
    frame = np.array(v).reshape(3, 3)
    order = np.argsort(-vals, kind="stable")
    return Spectral3(eigenvalues=vals[order], frame=frame[:, order])


def _pd_floor(norm):
    return PD_REL_TOL * max(1.0, norm)


def mat_fn(a, f, require_pd=False, name="mat_fn"):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    ``mat_fn(a, f) = frame @ diag(f(eigenvalue_i)) @ frame.T``.

    With ``require_pd=True`` the minimum eigenvalue must exceed
    ``PD_REL_TOL * max(1, ||a||)``; otherwise :class:`NotPositiveDefinite`
    is raised rather than silently clamping.  A scalar function that
    overflows raises :class:`LogstrainError` naming the eigenvalue.
    """
    m = sym_part(as_mat3(a, "a"))
    spec = eig_sym(m)
    if require_pd:
        floor = _pd_floor(fro_norm(m))
        if spec.eigenvalues[2] <= floor:
            raise NotPositiveDefinite(
                f"{name}: min eigenvalue {spec.eigenvalues[2]:.6g} <= "
                f"tolerance {floor:.6g}")
    vals = np.empty(3)
    for i, x in enumerate(spec.eigenvalues):
        try:
            vals[i] = f(x)
        except OverflowError:
            raise LogstrainError(
                f"{name}: overflow at eigenvalue {x:.6g}") from None
    return sym_part(spec.frame @ np.diag(vals) @ spec.frame.T)


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
    require the matrix to be invertible.
    """
    r = float(r)
    integral = r == int(r)
    if integral and r >= 0:
        return mat_fn(a, lambda x: x ** r, name="mat_pow")
    if integral:
        m = sym_part(as_mat3(a, "a"))
        spec = eig_sym(m)
        floor = _pd_floor(fro_norm(m))
        if min(abs(x) for x in spec.eigenvalues) <= floor:
            raise NotPositiveDefinite(
                "mat_pow: negative power of a (near-)singular matrix")
        vals = spec.eigenvalues ** r
        return sym_part(spec.frame @ np.diag(vals) @ spec.frame.T)
    return mat_fn(a, lambda x: x ** r, require_pd=True, name="mat_pow")


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
