"""Additive stress and multiplicative stretch decompositions.

A diagonal Biot stress diag(P, Q, R) splits additively into a spherical
part and two pure shears along fixed axes; the matching stretch splits
multiplicatively into a dilation and two volume-preserving shears.  Both
recompose exactly, and under the logarithmic law the stretch recovered by
inverting the parts one by one equals the stretch recovered from the total
load, whichever way the load is decomposed.

Interfaces are diagonal-only: the decompositions live on principal axes,
so general tensors are rotated to principal axes by the caller first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .moduli import Moduli
from .tensors import _as_real, _closed_form, _over

__all__ = [
    "StressTriple",
    "StretchDecomposition",
    "BeckerTables",
    "decompose_stress_additive",
    "decompose_stretch_multiplicative",
    "becker_tables",
]

# Shear basis for the additive split: diag(P,Q,R) =
#   A * diag(-1, 1, 0) + B * diag(0, 1, -1) + C * diag(1, 1, 1)
SHEAR_AXES_1 = (0, 1)  # (tensile, contractile) axes of the first shear
SHEAR_AXES_2 = (1, 2)


@dataclass(frozen=True)
class StressTriple:
    """Principal loads along the x, y, z axes."""

    p: float
    q: float
    r: float

    def as_array(self):
        return np.array([self.p, self.q, self.r], dtype=float)


@dataclass(frozen=True)
class StretchDecomposition:
    """Dilation and two unimodular shears whose product is diag(p, q, r).

    ``shear1_diag`` and ``shear2_diag`` are the diagonals of the two shear
    factors (each has determinant 1); ``shear1_axes`` / ``shear2_axes`` name
    the (tensile-ish, contractile-ish) axis pair each one acts on.
    """

    dilation_ratio: float
    shear1_ratio: float
    shear1_axes: tuple
    shear1_diag: np.ndarray
    shear2_ratio: float
    shear2_axes: tuple
    shear2_diag: np.ndarray

    def recompose(self):
        return self.dilation_ratio * self.shear1_diag * self.shear2_diag


@_closed_form
def decompose_stress_additive(t: StressTriple):
    """Coefficients (A, B, C) of the fixed-axes additive split.

    ``A*diag(-1,1,0) + B*diag(0,1,-1) + C*I = diag(P,Q,R)`` with

        A = (-2P + Q + R) / 3,  B = (P + Q - 2R) / 3,  C = (P + Q + R) / 3.
    """
    p, q, r = _as_real([t.p, t.q, t.r], "loads").tolist()
    a = (-2.0 * p + q + r) / 3.0
    b = (p + q - 2.0 * r) / 3.0
    c = (p + q + r) / 3.0
    return a, b, c


@_closed_form
def decompose_stretch_multiplicative(p, q, r):
    """Split diag(p, q, r) into a dilation and two unimodular shears.

    ``diag(p,q,r) = h*I @ diag(p^2/(qr), qr/p^2, 1)^(1/3)
    @ diag(1, pq/r^2, r^2/(pq))^(1/3)`` with ``h = (pqr)^(1/3)``.
    """
    p, q, r = _as_real([p, q, r], "stretch ratios", "positive").tolist()
    h = (p * q * r) ** (1.0 / 3.0)
    s1 = (p * p / (q * r)) ** (1.0 / 3.0)
    s2 = (q * p / (r * r)) ** (1.0 / 3.0)
    shear1 = np.array([s1, 1.0 / s1, 1.0])
    shear2 = np.array([1.0, s2, 1.0 / s2])
    return StretchDecomposition(
        dilation_ratio=h,
        shear1_ratio=s1, shear1_axes=SHEAR_AXES_1, shear1_diag=shear1,
        shear2_ratio=s2, shear2_axes=SHEAR_AXES_2, shear2_diag=shear2)


@dataclass(frozen=True)
class BeckerTables:
    """Per-force strain factors for loads diag(P, Q, R) and their product.

    ``dilations[i] = exp(load_i / (9K))`` and ``shear_ratios[i] =
    exp(load_i / (6G))``.  ``rows[i]`` holds the three diagonal factors
    (dilation, shear, shear) the i-th load contributes along fixed axes;
    multiplying all nine factors gives ``recomposed``.
    """

    loads: StressTriple
    dilations: tuple
    shear_ratios: tuple
    rows: tuple
    recomposed: np.ndarray


@_closed_form
def becker_tables(t: StressTriple, m: Moduli):
    """Tabulate the per-force dilation and shear factors of the log law.

    Each axial load F contributes a dilation ``exp(F/9K)`` and two fixed-axes
    shears built from ``exp(F/6G)``; a uniaxial load Q therefore stretches
    its own axis by ``exp(Q/9K) * exp(Q/3G)``.  The recomposed product is
    Becker's inverse law at ``diag(P, Q, R)``.  Where 6 G or 9 K
    overflows, a load is divided by the factor and by the modulus in turn,
    so that its strain is not lost.
    """
    m.require_physical()
    loads = _as_real([t.p, t.q, t.r], "loads").tolist()
    p, q, r = (math.exp(_over(x, 6.0, m.g)) for x in loads)
    h1, h2, h3 = (math.exp(_over(x, 9.0, m.k)) for x in loads)
    rows = (
        (np.full(3, h1), np.array([p * p, 1.0 / (p * p), 1.0]),
         np.array([1.0, p, 1.0 / p])),
        (np.full(3, h2), np.array([1.0 / q, q, 1.0]),
         np.array([1.0, q, 1.0 / q])),
        (np.full(3, h3), np.array([1.0 / r, r, 1.0]),
         np.array([1.0, 1.0 / (r * r), r * r])),
    )
    recomposed = np.ones(3)
    for row in rows:
        for factor in row:
            recomposed = recomposed * factor
    return BeckerTables(loads=t, dilations=(h1, h2, h3),
                        shear_ratios=(p, q, r), rows=rows,
                        recomposed=recomposed)
