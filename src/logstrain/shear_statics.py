"""Statics of finite pure shear.

Orientation: throughout this module the contractile axis lies on e1, so a
pure shear held by loads of magnitude Q has principal Cauchy stresses
``sigma_1 = -Q/alpha`` and ``sigma_2 = Q*alpha`` (the kinematics module uses
the opposite orientation with the tensile axis on e1; the two pictures are
related by swapping the first two axes).

The circle of (normal, shear) stress pairs over plane orientations, the
stress components in the plane of no distortion, the r-scaled resultant /
normal / tangential load magnitudes on lines cutting the shear ellipse, and
the three scalar failure criteria are computed from the closed forms.
Angles are in radians.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import shear_ellipsoid_radius

__all__ = [
    "MohrState",
    "TractionDecomposition",
    "FailureTriple",
    "mohr_circle",
    "pond_stress_components",
    "traction_on_line",
    "failure_criteria",
    "cauchy_quadrics",
]


@dataclass(frozen=True)
class MohrState:
    """Mohr circle of a finite pure shear loading.

    ``sigma_m`` is the circle center ``(sigma1 + sigma2)/2 = Q*s`` with
    ``s = (alpha - 1/alpha)/2`` the amount of shear; ``radius`` is
    ``(sigma2 - sigma1)/2``.  ``psi`` is the inclination of the normal of
    the plane of no distortion (``arccot(alpha)``), ``theta = pi/4`` points
    to the plane of maximum shear stress; the two do not coincide for
    alpha > 1.
    """

    sigma1: float
    sigma2: float
    sigma_m: float
    radius: float
    psi: float
    theta: float
    s: float


@dataclass(frozen=True)
class TractionDecomposition:
    """Squared r-scaled load magnitudes on a line cutting the shear ellipse.

    ``t2 = r2 - n2`` up to roundoff, and the resultant ``r2`` equals Q**2
    for every admissible normal.
    """

    r2: float
    n2: float
    t2: float


@dataclass(frozen=True)
class FailureTriple:
    """Equivalent stresses of the three failure criteria.

    For Q > 0 and alpha > 0 the strict ordering
    ``becker < mises < tresca`` holds: the tangential load in the plane of
    no distortion is the most conservative of the three.
    """

    tresca: float
    mises: float
    becker: float


def _check_alpha_gt1(alpha):
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return alpha


def mohr_circle(q, alpha):
    """Mohr circle data for loading Q at shear ratio alpha > 1.

    The pond-normal inclination is computed from both closed forms,
    ``arccos((alpha**2 - 1)/(alpha**2 + 1))/2`` and ``arccot(alpha)``,
    which must agree to 1e-12.
    """
    alpha = _check_alpha_gt1(alpha)
    q = float(q)
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    sigma1 = -q / alpha
    sigma2 = q * alpha
    s = 0.5 * (alpha - 1.0 / alpha)
    psi_acos = 0.5 * math.acos((alpha ** 2 - 1.0) / (alpha ** 2 + 1.0))
    psi_acot = math.atan(1.0 / alpha)
    if abs(psi_acos - psi_acot) > 1e-12:
        raise RuntimeError("inconsistent pond-normal inclination formulas")
    return MohrState(sigma1=sigma1, sigma2=sigma2,
                     sigma_m=0.5 * (sigma1 + sigma2),
                     radius=0.5 * (sigma2 - sigma1),
                     psi=psi_acot, theta=0.25 * math.pi, s=s)


def pond_stress_components(q, alpha):
    """Stress components in the frame aligned with the plane of no distortion.

    Returns ``(sigma_xi, sigma_eta, sigma_xieta)``: the normal stress on the
    plane of no distortion vanishes exactly, and the shear stress there
    equals the loading Q independently of alpha.
    """
    alpha = _check_alpha_gt1(alpha)
    q = float(q)
    return 0.0, q * (alpha ** 2 - 1.0) / alpha, q


def traction_on_line(q, alpha, n):
    """Resultant, normal and tangential load on a line cutting the ellipse.

    ``n`` is the unit normal of the line, in the e1-e2 plane (e1 contractile).
    The magnitudes are scaled by the ellipse radius r of the cut, which is
    what makes them loads rather than stresses: ``r2`` comes out equal to
    Q**2 for every n, and ``t2`` is maximal (with ``n2 = 0``) exactly at the
    pond normals ``n1**2 = alpha**2 n2**2``.
    """
    r2 = shear_ellipsoid_radius(n, alpha) ** 2
    alpha, q = float(alpha), float(q)
    n1, n2 = np.asarray(n, dtype=float)[:2]
    traction = np.array([-q / alpha * n1, q * alpha * n2])
    big_r2 = r2 * float(traction @ traction)
    big_n2 = r2 * float(traction @ np.array([n1, n2])) ** 2
    return TractionDecomposition(r2=big_r2, n2=big_n2, t2=big_r2 - big_n2)


def failure_criteria(q, alpha, q_scale=1.0):
    """The three equivalent stresses for loading Q at shear ratio alpha.

    ``q_scale`` rescales the loading before evaluation (kept at 1 by
    default; a historical convention uses Q/3).
    """
    q = float(q) * float(q_scale)
    alpha = float(alpha)
    if not (q > 0.0 and alpha > 0.0):
        raise ValueError(f"q and alpha must be positive, got {q}, {alpha}")
    return FailureTriple(
        tresca=q * (alpha + 1.0 / alpha),
        mises=q * math.sqrt(alpha ** 2 + 1.0 + alpha ** -2),
        becker=q)


def cauchy_quadrics(principal, n):
    """Resultant, normal and tangential stress on a plane with normal n.

    For principal Cauchy stresses (s1, s2, s3):

        R^2 = sum s_i**2 n_i**2
        N   = sum s_i n_i**2
        T^2 = R^2 - N^2
            = sum_{i<j} (s_i - s_j)**2 n_i**2 n_j**2

    Both T^2 forms are evaluated and must agree to 1e-12 (relative to the
    stress scale); the expanded, manifestly nonnegative form is returned.
    """
    s = np.asarray(principal, dtype=float)
    if s.shape != (3,):
        raise ValueError("principal must be a triple of stresses")
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("n must be a unit 3-vector")
    n2 = n * n
    big_r2 = float((s * s) @ n2)
    big_n = float(s @ n2)
    t2_diff = big_r2 - big_n ** 2
    t2_expanded = ((s[0] - s[1]) ** 2 * n2[0] * n2[1]
                   + (s[0] - s[2]) ** 2 * n2[0] * n2[2]
                   + (s[1] - s[2]) ** 2 * n2[1] * n2[2])
    scale = max(1.0, big_r2)
    if abs(t2_diff - t2_expanded) > 1e-12 * scale:
        raise RuntimeError("inconsistent tangential-stress forms")
    return big_r2, big_n, t2_expanded
