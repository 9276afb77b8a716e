"""Deformation-gradient kinematics.

Polar decomposition, the canonical volume-preserving shear deformations
(diagonal pure shear and simple glide), planes of no distortion and the
directions of maximum tangential strain.

Orientation convention: ``pure_shear_F`` puts the tensile axis on e1,
``F = diag(alpha, 1/alpha, 1)`` with alpha > 1.  The statics module
(:mod:`logstrain.shear_statics`) works in the opposite orientation with the
contractile axis on e1; :func:`shear_ellipsoid_radius` belongs to that
statics picture and uses its convention verbatim.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonInvertible, NoSuchPlane
from .tensors import (_as_mats, _as_real, _at, _closed_form, _det, _first,
                      _from_spectrum, _svd, as_mat3, cofactor, fro_norm)

__all__ = [
    "PolarFactors",
    "PondPair",
    "polar_decompose",
    "pure_shear_F",
    "simple_glide_F",
    "glide_principal_stretches",
    "glide_contractile_angle",
    "planes_of_no_distortion",
    "max_tangential_strain_direction",
    "shear_ellipsoid_radius",
]

DET_TOL = 1e-12
UNIT_SV_TOL = 1e-9  # how close the middle singular value must be to 1


@dataclass(frozen=True)
class PolarFactors:
    """Factors of F = R @ U = V @ R with R a rotation and U, V SPD."""

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _jacobian(f, det=None):
    """``det f`` of each matrix of a checked (..., 3, 3) stack, or
    :class:`NonInvertible` naming the first with ``det f <= DET_TOL``.
    A caller that has already taken the dets, with ``_det`` on the same
    matrices, passes them as ``det``; they are tested without factorizing
    again."""
    if det is None:
        det = _det(f)
    if f.ndim == 2:  # one matrix: the same test on a Python float
        i = 0 if float(det) <= DET_TOL else None
    else:
        i = _first(det <= DET_TOL)
    if i is not None:
        raise NonInvertible(f"det F = {det.flat[i]:.6g} <= {DET_TOL:.6g}"
                            f"{_at(i, f.shape[:-2])}")
    return det


def polar_decompose(f):
    """Polar decomposition of a deformation gradient, or of each one in a
    (..., 3, 3) stack (the factors then have the stack's shape).

    From the singular value decomposition ``F = W diag(s) Vt``:
    ``R = W Vt``, ``U = sym(Vt.T diag(s) Vt)`` and ``V = sym(W diag(s) W.T)``.
    The SVD is backward stable, so the factors need no polishing: the
    relative reconstruction error ``|R U - F| / |F|`` and the loss of
    orthogonality of R stay below 1e-13 up to stretch ratios of at least
    1e6 (see the tests).  A matrix gives the same bits alone and inside a
    stack.

    Raises
    ------
    NonInvertible
        If ``det f <= 1e-12`` (for a stack, the message names the index of
        the first such member).
    LogstrainError
        If LAPACK's SVD fails (``svd: LAPACK failed ...``; see
        :mod:`logstrain.tensors`).
    """
    f = _as_mats(f, "f")
    _jacobian(f)
    w, s, vt = _svd(f)
    u = _from_spectrum(vt.swapaxes(-1, -2), s)
    v = _from_spectrum(w, s)
    return PolarFactors(r=w @ vt, u=u, v=v)


@_closed_form
def pure_shear_F(alpha):
    """Pure shear deformation diag(alpha, 1/alpha, 1), tensile axis on e1."""
    alpha = _as_real(alpha, "alpha", "positive")
    return np.diag([alpha, 1.0 / alpha, 1.0])


def simple_glide_F(gamma):
    """Simple glide [[1, gamma, 0], [0, 1, 0], [0, 0, 1]]."""
    f = np.eye(3)
    f[0, 1] = _as_real(gamma, "gamma", "nonnegative")
    return f


def glide_principal_stretches(gamma):
    """Principal stretches of a simple glide, sorted descending.

    Returns ``(l1, 1, 1/l1)`` with ``l1 = (gamma + sqrt(gamma**2 + 4)) / 2``,
    so the product of all three is 1: a glide is a rotated pure shear with
    ratio ``l1``.  Evaluated as ``gamma/2 + hypot(gamma/2, 1)``, which
    cannot overflow, so both stretches are finite for every finite gamma;
    the tests check them against mpmath to within 2 ulp at gamma = 1e-300,
    1e-6, 1, 1e3, 1e154 and 1e300.
    """
    l1, l3 = _glide_stretches(_as_real(gamma, "gamma", "nonnegative"))
    return (float(l1), 1.0, float(l3))


def _glide_stretches(gamma):
    """``(l1, 1/l1)`` of checked glide amounts gamma, a number or an array:
    ``l1 = gamma/2 + hypot(gamma/2, 1)``."""
    half = 0.5 * gamma
    l1 = half + np.hypot(half, 1.0)
    return l1, 1.0 / l1


def glide_contractile_angle(gamma):
    """Angle between the glide direction e1 and the contractile axis.

    The contractile principal axis of a simple glide makes an angle theta
    with e1 whose cotangent is the large principal stretch ``l1``; measured
    with orientation, the eigenvector itself has cotangent ``-l1`` (see the
    tests).  Returns ``theta = arccot(l1)`` in radians, in (0, pi/4].
    """
    l1 = glide_principal_stretches(gamma)[0]
    return math.atan(1.0 / l1)


@dataclass(frozen=True)
class PondPair:
    """The two planes on which a pure shear acts as a pure rotation.

    ``initial_normals[i]`` is the unit normal of the undeformed plane and
    ``final_normals[i]`` the unit normal of its image.  For the canonical
    ``F = diag(alpha, 1/alpha, 1)`` the initial normals are proportional to
    ``(1, -1/alpha, 0)`` and ``(1, 1/alpha, 0)``, the final normals to
    ``(1, -alpha, 0)`` and ``(1, alpha, 0)``.
    """

    initial_normals: tuple
    final_normals: tuple
    shear_ratio: float


def _canonical_sign(n):
    for x in n:
        if abs(x) > 1e-12:
            return n if x > 0.0 else -n
    return n


def planes_of_no_distortion(f):
    """Planes of no distortion of a volume-preserving shear.

    Works for any deformation gradient whose middle singular value equals 1
    (within 1e-9), in particular for ``pure_shear_F`` along any permutation
    of the coordinate axes: the unit singular direction is detected from
    the SVD of f, so no axis bookkeeping is needed on the caller's side.
    The singular values and directions are read from that SVD, whose
    errors are of order ``eps |f|``: at shear ratios up to 1e6 the middle
    value stays within the tolerance (see the tests), where the roots of
    the spectrum of ``f.T @ f``, whose condition number is the square of
    f's, lose it by 1e5.  Nothing is squared on the way to the normals, so
    they stay finite where the square of the shear ratio overflows (tested
    up to 1e300).

    Raises
    ------
    NonInvertible
        If ``det f <= 1e-12``, as :func:`polar_decompose` does: a singular
        f or a reflection.
    NoSuchPlane
        If the middle singular value differs from 1 beyond tolerance (the
        cone case) or if all singular values are 1.
    """
    f = as_mat3(f, "f")
    _jacobian(f)
    # the singular values (descending) and right singular vectors (the
    # rows of Vt) from one SVD, not the roots of the spectrum of F^T F,
    # whose condition number is the square of F's
    _, sv, vt = _svd(f)
    s1, s2, s3 = sv.tolist()
    if abs(s2 - 1.0) > UNIT_SV_TOL:
        raise NoSuchPlane(
            f"middle singular value {s2:.12g} differs from 1 beyond "
            f"{UNIT_SV_TOL:.1g}; no plane of no distortion exists")
    if s1 - 1.0 <= UNIT_SV_TOL:
        raise NoSuchPlane(
            "all singular values equal 1; the deformation is an isometry "
            "and every plane is undistorted")
    u1, u2, u3 = vt
    # ||F x|| = ||x|| restricted to span{u2, u1 + k u3}, k^2 = (s1^2 - 1)
    # / (1 - s3^2) in factors that square nothing, so k is finite for
    # every finite s1; fro_norm scales a normal that would overflow a
    # sum of squares
    k = (math.sqrt(s1 - 1.0) * math.sqrt(s1 + 1.0)
         / math.sqrt((1.0 - s3) * (1.0 + s3)))
    initial, final = [], []
    cof = cofactor(f)
    for sign in (+1.0, -1.0):
        w = u1 + sign * k * u3
        n0 = np.cross(w, u2)
        n0 = _canonical_sign(n0 / fro_norm(n0))
        n1 = cof @ n0
        n1 = _canonical_sign(n1 / fro_norm(n1))
        initial.append(n0)
        final.append(n1)
    return PondPair(initial_normals=tuple(initial),
                    final_normals=tuple(final),
                    shear_ratio=s1)


def max_tangential_strain_direction(alpha):
    """Unit direction maximizing the angle between x and F x in pure shear.

    For ``F = pure_shear_F(alpha)`` with alpha > 1 the maximum of
    ``arccos(<x, Fx> / ||Fx||)`` over unit vectors orthogonal to e3 is
    attained at ``(1, alpha, 0) / sqrt(1 + alpha**2)``, which lies in an
    initial plane of no distortion (``||F x|| = 1``).  The norm is taken as
    ``hypot(1, alpha)``, which cannot overflow: ``||F x||`` is 1 within
    4e-16 up to alpha = 1e300 (see the tests).
    """
    alpha = _as_real(alpha, "alpha", "greater than 1")
    return np.array([1.0, alpha, 0.0]) / math.hypot(1.0, alpha)


@_closed_form
def shear_ellipsoid_radius(n, alpha):
    """Radius of the shear ellipse section cut by a line with normal n.

    Uses the statics orientation (contractile axis on e1):
    ``1/r**2 = alpha**2 * n2**2 + n1**2 / alpha**2``, taken as
    ``r = 1 / hypot(alpha n2, n1 / alpha)`` so that no square of alpha is
    formed: r is finite and nonzero wherever it is representable.  The
    normal must be a unit vector in the e1-e2 plane.
    """
    alpha = _as_real(alpha, "alpha", "positive")
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("n must be a 3-vector")
    if not abs(np.linalg.norm(n) - 1.0) <= 1e-9:
        raise ValueError("n must be a unit vector")
    if abs(n[2]) > 1e-9:
        raise ValueError("n must lie in the e1-e2 plane")
    return 1.0 / math.hypot(alpha * n[1], n[0] / alpha)
