"""Constitutive laws built on the logarithmic stretch tensor.

The central law relates the Biot stress to the right stretch tensor through
the principal matrix logarithm,

    biot(U) = 2 G log(U) + lam tr(log U) I
            = 2 G dev3(log U) + K tr(log U) I,

here called Becker's law.  Its closed-form inverse, the two Hencky laws
(the same logarithmic form read as a Cauchy or Kirchhoff stress in the left
stretch), finite-Hooke comparison laws, the associated energies, and the
uniaxial and incompressible closed forms all live here.

Every law dispatch reads one table, ``_LAWS``, with one row per entry of
:data:`LAW_TAGS`: the law's tensor map, the stretch it takes, the stress
measure it returns, and its uniaxial and simple-glide closed forms.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LambdaNotZero
from .kinematics import (glide_principal_stretches, polar_decompose,
                         simple_glide_F)
from .moduli import Moduli
from .stresses import StressState, stress_convert
from .tensors import (as_mat3, dev3, inner, mat_exp, mat_log, sym_part,
                      tr)

__all__ = [
    "LawId",
    "LAW_TAGS",
    "becker_biot",
    "becker_inverse",
    "becker_kirchhoff",
    "becker_cauchy",
    "becker_pk2",
    "becker_pk1",
    "hencky_kirchhoff",
    "hencky_cauchy",
    "hooke_biot",
    "hooke_cauchy",
    "becker_energy_nu0",
    "hencky_energy",
    "uniaxial_response",
    "uniaxial_biot_load",
    "hooke_uniaxial_load",
    "incompressible_uniaxial_limit",
    "incompressible_uniaxial_hyper",
    "linearized_law",
    "linearized_inverse",
    "stretch_stress",
    "comparison_law",
    "simple_shear_sigma12",
    "pk1_for_law",
]

@dataclass(frozen=True)
class LawId:
    """Identifier of a constitutive law, with Ogden coefficients if needed.

    ``tag`` is one of :data:`LAW_TAGS`.  For ``"ogden"`` the coefficient
    lists ``mu`` (moduli) and ``alpha`` (exponents) must be nonempty and of
    equal length.
    """

    tag: str
    mu: tuple = field(default=())
    alpha: tuple = field(default=())

    def __post_init__(self):
        t = str(self.tag).lower()
        if t not in LAW_TAGS:
            raise ValueError(f"unknown law {self.tag!r}; expected one of "
                             f"{LAW_TAGS}")
        object.__setattr__(self, "tag", t)
        object.__setattr__(self, "mu", tuple(float(x) for x in self.mu))
        object.__setattr__(self, "alpha",
                           tuple(float(x) for x in self.alpha))
        if t == "ogden":
            if not self.mu or len(self.mu) != len(self.alpha):
                raise ValueError("ogden needs nonempty coefficient lists "
                                 "mu and alpha of equal length")


# ---------------------------------------------------------------------------
# the logarithmic law and its relatives

def becker_biot(u, m: Moduli):
    """Biot stress of the logarithmic law at right stretch u (SPD)."""
    w = mat_log(u)
    return 2.0 * m.g * w + m.lam * tr(w) * np.eye(3)


def becker_inverse(t, m: Moduli):
    """Right stretch that produces Biot stress t under the logarithmic law.

    ``exp(dev3(t) / (2 G) + tr(t) / (9 K) * I)``; exact inverse of
    :func:`becker_biot`.
    """
    t = sym_part(as_mat3(t, "t"))
    return mat_exp(dev3(t) / (2.0 * m.g) + tr(t) / (9.0 * m.k) * np.eye(3))


def hencky_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of the logarithmic law in the left stretch v."""
    w = mat_log(v)
    return 2.0 * m.g * dev3(w) + m.k * tr(w) * np.eye(3)


def hencky_cauchy(v, m: Moduli):
    """Cauchy stress of the logarithmic law in the left stretch v.

    Same formula as :func:`hencky_kirchhoff`; the two are independent laws
    that differ in which stress measure the result is read as.
    """
    return hencky_kirchhoff(v, m)


def becker_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of Becker's law: V @ hencky_kirchhoff(V)."""
    v = sym_part(as_mat3(v, "v"))
    w = mat_log(v)
    return sym_part(2.0 * m.g * v @ w + m.lam * tr(w) * v)


def becker_cauchy(v, m: Moduli):
    """Cauchy stress of Becker's law, kirchhoff / det(V)."""
    v = sym_part(as_mat3(v, "v"))
    return becker_kirchhoff(v, m) / float(np.linalg.det(v))


def becker_pk2(u, m: Moduli):
    """Second Piola-Kirchhoff stress of Becker's law, inv(U) @ biot(U)."""
    u = sym_part(as_mat3(u, "u"))
    t = becker_biot(u, m)
    return sym_part(np.linalg.solve(u, t))


def becker_pk1(f, m: Moduli):
    """First Piola-Kirchhoff stress of Becker's law: R @ biot(U)."""
    return pk1_for_law("becker", f, m)


# ---------------------------------------------------------------------------
# finite-Hooke comparison laws

def hooke_biot(u, m: Moduli):
    """Finite Hooke law on the Biot pair: 2 G (U - I) + lam tr(U - I) I."""
    return _lame(sym_part(as_mat3(u, "u")) - np.eye(3), m)


def hooke_cauchy(v, m: Moduli):
    """Finite Hooke law on the Cauchy pair: 2 G (V - I) + lam tr(V - I) I."""
    return _lame(sym_part(as_mat3(v, "v")) - np.eye(3), m)


# ---------------------------------------------------------------------------
# energies

def becker_energy_nu0(u, m: Moduli):
    """Strain energy of Becker's law for lam = 0 (the only hyperelastic case).

    ``2 G (<U, log U - I> + 3) = 2 G sum_i lambda_i (ln lambda_i - 1) + 6 G``.
    Nonnegative, zero only at U = I, and finite even as U -> 0.
    """
    if abs(m.lam) > 1e-14 * max(1.0, abs(m.g)):
        raise LambdaNotZero(
            f"energy defined only for lambda = 0, got {m.lam}")
    u = sym_part(as_mat3(u, "u"))
    w = mat_log(u)
    return 2.0 * m.g * (inner(u, w - np.eye(3)) + 3.0)


def hencky_energy(v, m: Moduli):
    """Quadratic logarithmic energy G ||dev3 log V||^2 + K/2 tr(log V)^2."""
    w = mat_log(v)
    d = dev3(w)
    return m.g * inner(d, d) + 0.5 * m.k * tr(w) ** 2


# ---------------------------------------------------------------------------
# uniaxial and incompressible closed forms

def uniaxial_response(q, m: Moduli):
    """Stretches under a uniaxial Biot load q for Becker's law.

    Returns ``(lambda_axial, lambda_lateral) = (exp(q/E), exp(-nu q/E))``.
    For nu = 0 there is no lateral contraction.
    """
    q = float(q)
    return math.exp(q / m.e), math.exp(-m.nu * q / m.e)


def _positive(lam):
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"stretch must be positive, got {lam}")
    return lam


def uniaxial_biot_load(lam_axial, m: Moduli):
    """Uniaxial Biot load producing axial stretch lam_axial: E ln(lambda)."""
    return _LAWS["becker"].uniaxial(_positive(lam_axial), m.e, m.g, None)


def hooke_uniaxial_load(lam_axial, m: Moduli):
    """Uniaxial Biot load of the finite Hooke law: E (lambda - 1).

    Obtained from :func:`hooke_biot` with the lateral stretch chosen so the
    lateral stress vanishes (lambda_lat = 1 - nu (lambda - 1)).
    """
    return _LAWS["hooke-biot"].uniaxial(float(lam_axial), m.e, m.g, None)


def incompressible_uniaxial_limit(lam_stretch, m: Moduli):
    """Uniaxial load in the incompressible limit K -> inf: 3 G ln(lambda)."""
    return _LAWS["becker"].uniaxial(_positive(lam_stretch), 3.0 * m.g, m.g,
                                    None)


def incompressible_uniaxial_hyper(lam_stretch, m: Moduli):
    """Uniaxial load from the lam = 0 energy under det F = 1.

    ``G ln(lambda) (2 + lambda**(-3/2))``; agrees with
    :func:`incompressible_uniaxial_limit` to first order at lambda = 1
    (both have slope 3 G).
    """
    return _LAWS["becker"].hyper(_positive(lam_stretch), m.g)


# ---------------------------------------------------------------------------
# linearized (infinitesimal) law

def linearized_law(eps, m: Moduli):
    """Infinitesimal isotropic law 2 G eps + lam tr(eps) I."""
    return _lame(sym_part(as_mat3(eps, "eps")), m)


def _lame(e, m):
    # the isotropic linear law, shared by the finite-Hooke laws
    return 2.0 * m.g * e + m.lam * tr(e) * np.eye(3)


def linearized_inverse(sigma, m: Moduli):
    """Inverse of the infinitesimal law: dev3(s)/(2G) + tr(s)/(9K) I."""
    sigma = sym_part(as_mat3(sigma, "sigma"))
    return dev3(sigma) / (2.0 * m.g) + tr(sigma) / (9.0 * m.k) * np.eye(3)


# ---------------------------------------------------------------------------
# the law table: every law dispatch of the package reads it

def _hencky_uniaxial(lam, e, g, law):
    return 3.0 * g * math.log(lam) / lam


def _ogden_uniaxial(lam, e, g, law):
    return sum(mu * (lam ** (a - 1.0) - lam ** (-1.0 - a / 2.0))
               for mu, a in zip(law.mu, law.alpha))


def _ogden_glide(gamma, m, law):
    l1 = glide_principal_stretches(gamma)[0]
    num = sum(mu * (l1 ** a - l1 ** -a) for mu, a in zip(law.mu, law.alpha))
    return num / (l1 + 1.0 / l1)


class _Law(NamedTuple):
    """One row of the law table.

    ``tensor(stretch, m)`` gives the stress in ``measure`` from the right
    (``stretch == "u"``) or left (``"v"``) stretch; the incompressible
    scalar models have none.  ``uniaxial(lam, e, g, law)`` is the Biot
    stress under uniaxial stretch lam and zero lateral stress.  The
    compressible forms are written in Young's modulus e, so that e = 3 G
    gives the incompressible curve named ``column``; the incompressible
    models use G alone.  ``hyper(lam, g)`` is the constrained-energy
    incompressible form.  ``glide(gamma, m, law)`` is the simple-shear
    sigma_12 in closed form; without one the glide runs through the tensor
    pipeline.
    """

    tag: str
    tensor: object = None
    stretch: str = None
    measure: str = None
    uniaxial: object = None
    glide: object = None
    column: str = None
    hyper: object = None


# The tensor maps are looked up by name at call time, so that wrappers put
# on the module's functions (such as the perfbench span tracer) see them.
_LAWS = {row.tag: row for row in (
    _Law("becker", lambda u, m: becker_biot(u, m), "u", "biot",
         uniaxial=lambda lam, e, g, law: e * math.log(lam), column="becker",
         hyper=lambda lam, g: g * math.log(lam) * (2.0 + lam ** -1.5)),
    _Law("hencky-kirchhoff", lambda v, m: hencky_kirchhoff(v, m), "v",
         "kirchhoff", uniaxial=_hencky_uniaxial, column="hencky"),
    _Law("hencky-cauchy", lambda v, m: hencky_cauchy(v, m), "v", "cauchy",
         uniaxial=_hencky_uniaxial),
    _Law("neo-hooke",
         uniaxial=lambda lam, e, g, law: g * (lam - lam ** -2.0),
         glide=lambda gamma, m, law: m.g * gamma, column="neo-hooke"),
    _Law("hooke-biot", lambda u, m: hooke_biot(u, m), "u", "biot",
         uniaxial=lambda lam, e, g, law: e * (lam - 1.0), column="hooke"),
    _Law("hooke-cauchy", lambda v, m: hooke_cauchy(v, m), "v", "cauchy"),
    _Law("ogden", uniaxial=_ogden_uniaxial, glide=_ogden_glide),
)}

LAW_TAGS = tuple(_LAWS)


def _resolve(law):
    """(table row, law) for a law tag or a :class:`LawId`."""
    if isinstance(law, LawId):
        return _LAWS[law.tag], law
    row = _LAWS.get(law) if isinstance(law, str) else None
    if row is None or row.tag == "ogden":
        # LawId normalizes the tag, or raises: unknown tag, or ogden
        # without its coefficients
        law = LawId(tag=law)
        row = _LAWS[law.tag]
    return row, law


def _incompressible_columns():
    """(name, form(lam, g)) of the incompressible comparison curves."""
    for row in _LAWS.values():
        if row.column:
            yield row.column, (lambda lam, g, form=row.uniaxial:
                               form(lam, 3.0 * g, g, None))
        if row.hyper:
            yield row.column + "-hyper", row.hyper


def _stress_state(law, f, m: Moduli):
    """The law's stress state at deformation f, in the law's own measure,
    together with the polar factors of f."""
    row, law = _resolve(law)
    if row.tensor is None:
        raise ValueError(f"law {row.tag!r} has no deformation-gradient form")
    pf = polar_decompose(f)
    t = row.tensor(pf.u if row.stretch == "u" else pf.v, m)
    return StressState(t, row.measure, f), pf


def stretch_stress(law, stretch, m: Moduli):
    """Stress tensor predicted by a tensor law from its stretch argument.

    The stretch is the right stretch U for the Biot-measure laws and the
    left stretch V for the Cauchy/Kirchhoff-measure laws; the returned
    tensor is in the law's own measure.  Not defined for the incompressible
    scalar models (neo-hooke, ogden).
    """
    row, law = _resolve(law)
    if row.tensor is None:
        raise ValueError(f"law {row.tag!r} has no tensor stretch-stress form")
    return row.tensor(stretch, m)


def comparison_law(law, m: Moduli = None, *, stretch=None, lam=None,
                   gamma=None):
    """Evaluate a law in one of three modes for side-by-side comparison.

    Exactly one of the keyword arguments selects the mode:

    ``stretch``
        Tensor mode, forwards to :func:`stretch_stress`.
    ``lam``
        Uniaxial Biot stress under zero lateral stress.  Exact closed forms
        for becker (``E ln lambda``) and hooke-biot (``E (lambda - 1)``);
        the standard incompressible forms for neo-hooke, ogden and the
        logarithmic Kirchhoff/Cauchy laws.
    ``gamma``
        Simple-shear stress sigma_12 at glide amount gamma.
    """
    row, law = _resolve(law)
    picked = [x is not None for x in (stretch, lam, gamma)]
    if sum(picked) != 1:
        raise ValueError("give exactly one of stretch=, lam=, gamma=")
    if row.tag != "ogden" and m is None:
        raise ValueError("moduli required")
    if stretch is not None:
        return stretch_stress(law, stretch, m)
    if gamma is not None:
        return simple_shear_sigma12(law, gamma, m)
    lam = _positive(lam)
    if row.uniaxial is None:
        raise ValueError(f"no uniaxial closed form for {row.tag!r}")
    e, g = (None, None) if m is None else (m.e, m.g)
    return row.uniaxial(lam, e, g, law)


def simple_shear_sigma12(law, gamma, m: Moduli = None):
    """Cauchy shear stress sigma_12 in a simple glide of amount gamma.

    Tensor laws are evaluated through the full kinematic pipeline (glide F,
    polar factors, conversion to Cauchy); neo-hooke and ogden use their
    incompressible closed forms.  For Becker's law the result equals
    ``2 G ln((sqrt(gamma**2 + 4) + gamma) / 2)`` independently of lam.
    """
    row, law = _resolve(law)
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if row.glide is not None:
        return row.glide(gamma, m, law)
    if gamma == 0.0:
        return 0.0
    state, _ = _stress_state(law, simple_glide_F(gamma), m)
    return float(stress_convert(state, "cauchy").tensor[0, 1])


def pk1_for_law(law, f, m: Moduli):
    """First Piola-Kirchhoff stress of a tensor law at deformation f.

    Used as the work-conjugate stress in path integrals: builds the law's
    stress in its own measure from the polar factors of f and converts
    (a Biot stress T directly as ``R @ T``).
    """
    state, pf = _stress_state(law, f, m)
    if state.measure == "biot":
        return pf.r @ state.tensor
    return stress_convert(state, "pk1").tensor
