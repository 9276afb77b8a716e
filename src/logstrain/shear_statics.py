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
from .tensors import _as_real, _closed_form

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


@_closed_form
def mohr_circle(q, alpha):
    """Mohr circle data for loading Q at shear ratio alpha > 1.

    The pond-normal inclination is ``arccot(alpha)``, taken as
    ``atan(1/alpha)``, which has no cancellation: the tests find it within
    2 ulp of mpmath at alphas from 1 + 1e-9 to 1e300.
    """
    alpha = _as_real(alpha, "alpha", "greater than 1")
    q = _as_real(q, "q")
    sigma1 = -q / alpha
    sigma2 = q * alpha
    s = 0.5 * (alpha - 1.0 / alpha)
    return MohrState(sigma1=sigma1, sigma2=sigma2,
                     sigma_m=0.5 * (sigma1 + sigma2),
                     radius=0.5 * (sigma2 - sigma1),
                     psi=math.atan(1.0 / alpha), theta=0.25 * math.pi, s=s)


@_closed_form
def pond_stress_components(q, alpha):
    """Stress components in the frame aligned with the plane of no distortion.

    Returns ``(sigma_xi, sigma_eta, sigma_xieta)``: the normal stress on the
    plane of no distortion vanishes exactly, and the shear stress there
    equals the loading Q independently of alpha.  ``sigma_eta = Q (alpha**2
    - 1) / alpha`` is taken as ``Q (alpha - 1) ((alpha + 1) / alpha)``,
    which is finite wherever sigma_eta is representable and has no
    cancellation near alpha = 1 (``alpha - 1`` is exact there).
    """
    alpha = _as_real(alpha, "alpha", "greater than 1")
    q = _as_real(q, "q")
    return 0.0, q * (alpha - 1.0) * ((alpha + 1.0) / alpha), q


@_closed_form
def traction_on_line(q, alpha, n):
    """Resultant, normal and tangential load on a line cutting the ellipse.

    ``n`` is the unit normal of the line, in the e1-e2 plane (e1 contractile).
    The magnitudes are scaled by the ellipse radius r of the cut, which is
    what makes them loads rather than stresses: ``r2`` comes out equal to
    Q**2 for every n, and ``t2`` is maximal (with ``n2 = 0``) exactly at the
    pond normals ``n1**2 = alpha**2 n2**2``.  The load is formed as ``q``
    times the unit vector ``r (-n1 / alpha, alpha n2)`` before it is
    squared, so no square of r, alpha or the traction is formed.
    """
    q = _as_real(q, "q")
    r = shear_ellipsoid_radius(n, alpha)
    alpha = float(alpha)
    n1, n2 = np.asarray(n, dtype=float)[:2]
    load = q * (r * np.array([-n1 / alpha, alpha * n2]))
    big_r2 = float(load @ load)
    big_n2 = float(load @ np.array([n1, n2])) ** 2
    return TractionDecomposition(r2=big_r2, n2=big_n2, t2=big_r2 - big_n2)


@_closed_form
def failure_criteria(q, alpha, q_scale=1.0):
    """The three equivalent stresses for loading Q at shear ratio alpha.

    ``q_scale`` rescales the loading before evaluation (kept at 1 by
    default; a historical convention uses Q/3).  The distortional value
    ``Q sqrt(alpha**2 + 1 + alpha**-2)``, symmetric under alpha -> 1/alpha,
    is taken as ``Q b sqrt(1 + b**-2 + b**-4)`` with ``b = max(alpha,
    1/alpha)``, which is finite wherever the value is representable.
    """
    q = _as_real(float(q) * float(q_scale), "q * q_scale", "positive")
    alpha = _as_real(alpha, "alpha", "positive")
    b = max(alpha, 1.0 / alpha)
    return FailureTriple(
        tresca=q * (alpha + 1.0 / alpha),
        mises=q * b * math.sqrt(1.0 + b ** -2 + b ** -4),
        becker=q)


@_closed_form
def cauchy_quadrics(principal, n):
    """Resultant, normal and tangential stress on a plane with normal n.

    For principal Cauchy stresses (s1, s2, s3):

        R^2 = sum s_i**2 n_i**2
        N   = sum s_i n_i**2
        T^2 = R^2 - N^2
            = sum_{i<j} (s_i - s_j)**2 n_i**2 n_j**2

    T^2 is returned in the expanded, manifestly nonnegative form, which
    does not cancel as ``R^2 - N^2`` does.
    """
    if np.shape(principal) != (3,):
        raise ValueError("principal must be a triple of stresses")
    s = _as_real(principal, "principal")
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= 1e-9:
        raise ValueError("n must be a unit 3-vector")
    n2 = n * n
    t2 = ((s[0] - s[1]) ** 2 * n2[0] * n2[1]
          + (s[0] - s[2]) ** 2 * n2[0] * n2[2]
          + (s[1] - s[2]) ** 2 * n2[1] * n2[2])
    return float((s * s) @ n2), float(s @ n2), t2
