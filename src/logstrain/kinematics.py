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
from .tensors import as_mat3, cofactor, eig_sym, sym_part

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


def polar_decompose(f, det_tol=DET_TOL):
    """Polar decomposition of a deformation gradient.

    From the singular value decomposition ``F = W diag(s) Vt``:
    ``R = W Vt``, ``U = sym(Vt.T diag(s) Vt)`` and ``V = sym(W diag(s) W.T)``.
    The SVD is backward stable, so the factors need no polishing: the
    relative reconstruction error ``|R U - F| / |F|`` and the loss of
    orthogonality of R stay below 1e-13 up to stretch ratios of at least
    1e6 (see the tests).

    Raises
    ------
    NonInvertible
        If ``det f <= det_tol``.
    """
    f = as_mat3(f, "f")
    det = float(np.linalg.det(f))
    if det <= det_tol:
        raise NonInvertible(f"det F = {det:.6g} <= {det_tol:.6g}")
    w, s, vt = np.linalg.svd(f)
    r = w @ vt
    u = sym_part((vt.T * s) @ vt)
    v = sym_part((w * s) @ w.T)
    return PolarFactors(r=r, u=u, v=v)


def pure_shear_F(alpha):
    """Pure shear deformation diag(alpha, 1/alpha, 1), tensile axis on e1."""
    alpha = float(alpha)
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise ValueError(f"alpha must be positive, got {alpha}")
    return np.diag([alpha, 1.0 / alpha, 1.0])


def simple_glide_F(gamma):
    """Simple glide [[1, gamma, 0], [0, 1, 0], [0, 0, 1]]."""
    gamma = float(gamma)
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    f = np.eye(3)
    f[0, 1] = gamma
    return f


def glide_principal_stretches(gamma):
    """Principal stretches of a simple glide, sorted descending.

    Returns ``(l1, 1, 1/l1)`` with ``l1 = (gamma + sqrt(gamma**2 + 4)) / 2``,
    so the product of all three is exactly 1: a glide is a rotated pure
    shear with ratio ``l1``.
    """
    gamma = float(gamma)
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    l1 = 0.5 * (gamma + math.sqrt(gamma * gamma + 4.0))
    return (l1, 1.0, 1.0 / l1)


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


def planes_of_no_distortion(f, unit_sv_tol=UNIT_SV_TOL):
    """Planes of no distortion of a volume-preserving shear.

    Works for any deformation gradient whose middle singular value equals 1
    (within ``unit_sv_tol``), in particular for ``pure_shear_F`` along any
    permutation of the coordinate axes: the unit singular direction is
    detected from the spectrum, so no axis bookkeeping is needed on the
    caller's side.

    Raises
    ------
    NoSuchPlane
        If the middle singular value differs from 1 beyond tolerance (the
        cone case) or if all singular values are 1.
    """
    f = as_mat3(f, "f")
    spec = eig_sym(f.T @ f)
    if spec.eigenvalues[2] <= 0.0:
        raise NonInvertible("f is singular")
    sv = np.sqrt(spec.eigenvalues)  # descending
    if abs(sv[1] - 1.0) > unit_sv_tol:
        raise NoSuchPlane(
            f"middle singular value {sv[1]:.12g} differs from 1 beyond "
            f"{unit_sv_tol:.1g}; no plane of no distortion exists")
    if sv[0] - 1.0 <= unit_sv_tol:
        raise NoSuchPlane(
            "all singular values equal 1; the deformation is an isometry "
            "and every plane is undistorted")
    u1, u2, u3 = spec.frame[:, 0], spec.frame[:, 1], spec.frame[:, 2]
    alpha = float(sv[0])
    # ||F x|| = ||x|| restricted to span{u2, u1 + k u3}
    k = math.sqrt((sv[0] ** 2 - 1.0) / (1.0 - sv[2] ** 2))
    initial, final = [], []
    cof = cofactor(f)
    for sign in (+1.0, -1.0):
        w = u1 + sign * k * u3
        n0 = np.cross(w, u2)
        n0 = _canonical_sign(n0 / np.linalg.norm(n0))
        n1 = cof @ n0
        n1 = _canonical_sign(n1 / np.linalg.norm(n1))
        initial.append(n0)
        final.append(n1)
    return PondPair(initial_normals=tuple(initial),
                    final_normals=tuple(final),
                    shear_ratio=alpha)


def max_tangential_strain_direction(alpha):
    """Unit direction maximizing the angle between x and F x in pure shear.

    For ``F = pure_shear_F(alpha)`` with alpha > 1 the maximum of
    ``arccos(<x, Fx> / ||Fx||)`` over unit vectors orthogonal to e3 is
    attained at ``(sqrt(1 - alpha**2/(1+alpha**2)), alpha/sqrt(1+alpha**2),
    0)``, which lies in an initial plane of no distortion (``||F x|| = 1``).
    """
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    a2 = alpha * alpha
    x = np.array([math.sqrt(1.0 - a2 / (1.0 + a2)),
                  alpha / math.sqrt(1.0 + a2),
                  0.0])
    stretched = pure_shear_F(alpha) @ x
    if abs(np.linalg.norm(stretched) - 1.0) > 1e-12:
        raise RuntimeError("direction left the plane of no distortion")
    return x


def shear_ellipsoid_radius(n, alpha):
    """Radius of the shear ellipse section cut by a line with normal n.

    Uses the statics orientation (contractile axis on e1):
    ``1/r**2 = alpha**2 * n2**2 + n1**2 / alpha**2``.  The normal must be a
    unit vector in the e1-e2 plane.
    """
    alpha = float(alpha)
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("n must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("n must be a unit vector")
    if abs(n[2]) > 1e-9:
        raise ValueError("n must lie in the e1-e2 plane")
    inv_r2 = alpha ** 2 * n[1] ** 2 + n[0] ** 2 / alpha ** 2
    return 1.0 / math.sqrt(inv_r2)
