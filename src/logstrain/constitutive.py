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
:data:`LAW_TAGS`: the law's tensor map, its principal strain, the stretch
it takes, the stress measure it returns, the axioms it is known to break,
and its uniaxial and simple-glide closed forms.  The principal response is
the law as the paper states it, principal stresses from principal
stretches.  The logarithmic tensor maps build it on the spectrum of the
stretch; every stress at a deformation F (:func:`pk1_for_law`, the CLI's
``stress`` and the simple glide) reads it on one SVD of F.  Every tensor
law returns a finite stress or raises :class:`LogstrainError`.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LambdaNotZero, LogstrainError
from .kinematics import (_jacobian, glide_principal_stretches,
                         simple_glide_F)
from .moduli import Moduli
from .stresses import StressState
from .tensors import (_DIAG, _as_mats, _at, _first, _inners, _require_floor,
                      _spectrum, _trace, as_mat3, dev3, inner, mat_exp,
                      mat_log, sym_part, tr)

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
    """Biot stress of the logarithmic law at right stretch u (SPD), or at
    each stretch of a (..., 3, 3) stack.

    ``2 G frame @ diag(ln s_i) @ frame.T + lam sum_j ln s_j I`` on the
    spectrum of U: the principal forces ``T_i = 2 G ln s_i + lam sum_j ln
    s_j``, with the spherical part added to the diagonal after the frame
    product, so that its roundoff stays off the shear entries.
    """
    return _tensor_law("becker", u, m)


def becker_inverse(t, m: Moduli):
    """Right stretch that produces Biot stress t under the logarithmic law.

    ``exp(dev3(t) / (2 G) + tr(t) / (9 K) * I)``; exact inverse of
    :func:`becker_biot`.  ``t`` has shape (3, 3) or (..., 3, 3).
    """
    t = sym_part(_as_mats(t, "t"))
    return mat_exp(dev3(t) / (2.0 * m.g)
                   + _trace(t) / (9.0 * m.k) * np.eye(3))


def hencky_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of the logarithmic law in the left stretch v (or a
    (..., 3, 3) stack of them): ``2 G dev3(log V) + K tr(log V) I``, with
    the principal values of :func:`becker_biot` on the spectrum of V."""
    return _tensor_law("hencky-kirchhoff", v, m)


def hencky_cauchy(v, m: Moduli):
    """Cauchy stress of the logarithmic law in the left stretch v.

    Same formula as :func:`hencky_kirchhoff`; the two are independent laws
    that differ in which stress measure the result is read as.
    """
    return _tensor_law("hencky-cauchy", v, m)


def becker_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of Becker's law: V @ becker_biot(V), which is
    V @ hencky_kirchhoff(V)."""
    v = sym_part(as_mat3(v, "v"))
    return sym_part(v @ becker_biot(v, m))


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
    """Finite Hooke law on the Biot pair: 2 G (U - I) + lam tr(U - I) I.

    u has shape (3, 3) or (..., 3, 3).
    """
    return _tensor_law("hooke-biot", u, m)


def hooke_cauchy(v, m: Moduli):
    """Finite Hooke law on the Cauchy pair: 2 G (V - I) + lam tr(V - I) I.

    v has shape (3, 3) or (..., 3, 3).
    """
    return _tensor_law("hooke-cauchy", v, m)


# ---------------------------------------------------------------------------
# energies

def becker_energy_nu0(u, m: Moduli):
    """Strain energy of Becker's law for lam = 0 (the only hyperelastic case).

    ``2 G (<U, log U - I> + 3) = 2 G sum_i lambda_i (ln lambda_i - 1) + 6 G``.
    Nonnegative, zero only at U = I, and finite even as U -> 0.  For one
    matrix returns a float; for a (..., 3, 3) stack, an array of shape (...).
    """
    if abs(m.lam) > 1e-14 * max(1.0, abs(m.g)):
        raise LambdaNotZero(
            f"energy defined only for lambda = 0, got {m.lam}")
    u = sym_part(_as_mats(u, "u"))
    w = mat_log(u)
    energy = 2.0 * m.g * (_inners(u, w - np.eye(3)) + 3.0)
    return energy if u.ndim > 2 else float(energy)


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
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"stretch must be positive and finite, got {lam}")
    return lam


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
    # the isotropic linear law, shared by the finite-Hooke laws; e has
    # shape (3, 3) or (..., 3, 3)
    return 2.0 * m.g * e + m.lam * _trace(e) * np.eye(3)


def _lame_principal(e, m):
    # the same law on principal values e, shape (..., 3)
    return 2.0 * m.g * e + m.lam * e.sum(axis=-1, keepdims=True)


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
    scalar models have none.  ``strain(s)`` is the principal strain of
    that stretch at its principal stretches ``s``, shape (..., 3): ``ln s``
    or ``s - 1``.  Every tensor law is the isotropic linear law of its
    strain, so :meth:`principal` gives its principal response, the
    principal stresses in ``measure`` in the order of ``s``.  ``violates``
    names the checks of ``verify.check_axioms`` that the law is known to
    fail.  ``uniaxial(lam, e, g, law)`` is the Biot
    stress under uniaxial stretch lam and zero lateral stress.  The
    compressible forms are written in Young's modulus e, so that e = 3 G
    gives the incompressible curve named ``column``; the incompressible
    models use G alone.  ``hyper(lam, g)`` is the constrained-energy
    incompressible form.  ``glide(gamma, m, law)`` is the simple-shear
    sigma_12 in closed form; without one the glide is read on the SVD of
    the glide gradient.
    """

    tag: str
    tensor: object = None
    strain: object = None
    stretch: str = None
    measure: str = None
    violates: frozenset = frozenset()
    uniaxial: object = None
    glide: object = None
    column: str = None
    hyper: object = None

    def principal(self, s, m):
        """Principal stresses ``2 G e_i + lam sum_j e_j`` of the strain
        ``e = strain(s)`` at principal stretches s, shape (..., 3)."""
        return _lame_principal(self.strain(s), m)


def _log_strain(s):
    _require_floor(s, "mat_log", "eigenvalue", s.shape[:-1])
    return np.log(s)


def _linear_strain(s):
    return s - 1.0


# The checks the finite-Hooke laws fail: the strain s - 1 does not add
# under products of coaxial stretches, scale under powers or change sign
# under inversion, and its trace is nonzero in a pure shear.
_HOOKE_VIOLATES = frozenset({"superposition", "power_law",
                             "inversion_symmetry", "shear_to_shear"})

# The tensor maps are looked up by name at call time, so that wrappers put
# on the module's functions (such as the perfbench span tracer) see them.
_LAWS = {row.tag: row for row in (
    _Law("becker", lambda u, m: becker_biot(u, m), _log_strain, "u",
         "biot", uniaxial=lambda lam, e, g, law: e * np.log(lam),
         column="becker",
         hyper=lambda lam, g: g * np.log(lam) * (2.0 + lam ** -1.5)),
    _Law("hencky-kirchhoff", lambda v, m: hencky_kirchhoff(v, m),
         _log_strain, "v", "kirchhoff", uniaxial=_hencky_uniaxial,
         column="hencky"),
    _Law("hencky-cauchy", lambda v, m: hencky_cauchy(v, m), _log_strain,
         "v", "cauchy", uniaxial=_hencky_uniaxial),
    _Law("neo-hooke",
         uniaxial=lambda lam, e, g, law: g * (lam - lam ** -2.0),
         glide=lambda gamma, m, law: m.g * gamma, column="neo-hooke"),
    _Law("hooke-biot", lambda u, m: hooke_biot(u, m), _linear_strain, "u",
         "biot", _HOOKE_VIOLATES,
         uniaxial=lambda lam, e, g, law: e * (lam - 1.0), column="hooke"),
    _Law("hooke-cauchy", lambda v, m: hooke_cauchy(v, m), _linear_strain,
         "v", "cauchy", _HOOKE_VIOLATES),
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


def _tensor_row(law):
    """The table row of a tensor law (ValueError for the scalar models)."""
    row, _ = _resolve(law)
    if row.tensor is None:
        raise ValueError(f"law {row.tag!r} has no deformation-gradient form")
    return row


def _finite(tag, t, m):
    """t, a (..., 3, 3) stress of law ``tag``, if it is finite; else
    :class:`LogstrainError` naming the law and the first bad member.  The
    stress dispatches run with numpy's overflow and invalid-value warnings
    off, so an overflow on the way raises here, quietly."""
    finite = np.isfinite(t)
    if finite.all():
        return t
    i = _first(~finite.all(axis=(-2, -1)))
    raise LogstrainError(
        f"law {tag!r}: stress is not finite at G = {m.g:.6g}, "
        f"lam = {m.lam:.6g}{_at(i, t.shape[:-2])}")


def _lame_on_frame(frame, e, m):
    """The isotropic linear law of the strain whose principal values e,
    shape (..., 3), lie on the columns of frame: ``2 G frame @ diag(e) @
    frame.T + lam sum_j e_j I``.  The spherical part is added to the
    diagonal after the frame product, so that its roundoff stays there."""
    t = sym_part((frame * (2.0 * m.g * e)[..., None, :])
                 @ frame.swapaxes(-1, -2))
    t[..., _DIAG, _DIAG] += m.lam * e.sum(axis=-1, keepdims=True)
    return t


@np.errstate(over="ignore", invalid="ignore")
def _tensor_law(tag, a, m):
    # tensor map of a row at its stretch a: the linear law of the strain,
    # on the spectrum of a for a logarithmic strain, of a - I directly for
    # the finite-Hooke rows
    row = _LAWS[tag]
    a = sym_part(_as_mats(a, row.stretch))
    if row.strain is _linear_strain:
        return _finite(tag, _lame(a - np.eye(3), m), m)
    vals, frame = _spectrum(a)
    return _finite(tag, _lame_on_frame(frame, row.strain(vals), m), m)


def _svd_principal(row, f):
    """``(J, W, s, Vt, e)`` at checked deformations f, (3, 3) or (..., 3,
    3): ``det F``, one SVD ``F = W diag(s) Vt`` and the row's principal
    strains at s.  Every stress at a deformation starts here."""
    j = _jacobian(f)
    w, s, vt = np.linalg.svd(f)
    return j, w, s, vt, row.strain(s)


def _principal_cauchy(row, s, t, j):
    """Principal Cauchy stresses from the row's principal stresses t at
    principal stretches s, (..., 3), and ``J = det F``, (...): ``t s / J``
    (Biot), ``t / J`` (Kirchhoff) or t (Cauchy)."""
    if row.measure == "biot":
        return s / j[..., None] * t
    if row.measure == "kirchhoff":
        return t / j[..., None]
    return t


@np.errstate(over="ignore", invalid="ignore")
def _stress_state(law, f, m: Moduli):
    """The law's stress state at one deformation f, in the law's own
    measure, from one SVD ``F = W diag(s) V.T``: ``V diag(t) V.T`` for a
    Biot law, ``W diag(t) W.T`` for a law in the left stretch."""
    row = _tensor_row(law)
    f = as_mat3(f, "f")
    _, w, _, vt, e = _svd_principal(row, f)
    frame = vt.swapaxes(-1, -2) if row.stretch == "u" else w
    return StressState(_finite(row.tag, _lame_on_frame(frame, e, m), m),
                       row.measure, f)


def stretch_stress(law, stretch, m: Moduli):
    """Stress tensor predicted by a tensor law from its stretch argument.

    The stretch is the right stretch U for the Biot-measure laws and the
    left stretch V for the Cauchy/Kirchhoff-measure laws; the returned
    tensor is in the law's own measure.  Not defined for the incompressible
    scalar models (neo-hooke, ogden).
    """
    return _tensor_row(law).tensor(stretch, m)


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

    A stretch ``lam`` or glide ``gamma`` that is not finite raises
    ``ValueError`` for every law.
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


@np.errstate(over="ignore", invalid="ignore")
def simple_shear_sigma12(law, gamma, m: Moduli = None):
    """Cauchy shear stress sigma_12 in a simple glide of amount gamma.

    A tensor law is read on one SVD ``F = W diag(s) V.T`` of the glide
    gradient: sigma_12 of ``W diag(c) W.T``, with the principal Cauchy
    stresses ``c = t s / J``, ``t / J`` or ``t`` of the law's principal
    stresses ``t`` in the Biot, Kirchhoff or Cauchy measure.  neo-hooke and
    ogden use their incompressible closed forms.  For Becker's law the
    result equals ``2 G asinh(gamma / 2) = 2 G ln((sqrt(gamma**2 + 4) +
    gamma) / 2)`` independently of lam.  A negative or non-finite gamma
    raises ``ValueError`` for every law.
    """
    row, law = _resolve(law)
    gamma = float(gamma)
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    if row.glide is not None:
        return row.glide(gamma, m, law)
    if gamma == 0.0:
        return 0.0
    j, w, s, vt, e = _svd_principal(row, simple_glide_F(gamma))
    c = _principal_cauchy(row, s, _lame_principal(e, m), j)
    sigma = (w * c) @ w.T
    return float(_finite(row.tag, sigma, m)[0, 1])


@np.errstate(over="ignore", invalid="ignore")
def pk1_for_law(law, f, m: Moduli):
    """First Piola-Kirchhoff stress of a tensor law at deformation f.

    ``f`` is one deformation gradient, shape (3, 3), or a stack of them,
    shape (..., 3, 3); the result has the same shape, and a matrix gives
    the same bits alone and inside a stack.  Used as the work-conjugate
    stress in path integrals.

    One SVD ``F = W diag(s) V.T`` and the row's principal stresses ``t_i``
    at ``s_i`` give P, with no eigendecomposition: ``P = W diag(t_i) V.T``
    (that is ``R @ T``) for a Biot law; for a law in the left stretch, the
    Kirchhoff stress ``tau = W diag(t_i) W.T`` (``t_i`` times ``J = det F``
    for a Cauchy law) and ``P = tau @ inv(F).T``.  The shorter
    ``W diag(t_i / s_i) V.T`` is more accurate for P itself, but the
    Cauchy stress ``P @ F.T / J`` recovered from it loses about 0.7 digits.

    Errors: :class:`NonInvertible` for ``det F <= 1e-12``,
    :class:`NotPositiveDefinite` (the :func:`mat_log` text) for stretches
    below the positivity floor of a logarithmic law, and
    :class:`LogstrainError` for a stress that is not finite; for a stack
    they name the first bad member.
    """
    row = _tensor_row(law)
    f = _as_mats(f, "f")
    j, w, s, vt, e = _svd_principal(row, f)
    t = _lame_principal(e, m)
    if row.measure == "biot":
        return _finite(row.tag, (w * t[..., None, :]) @ vt, m)
    if row.measure == "cauchy":
        t = t * j[..., None]
    tau = (w * t[..., None, :]) @ w.swapaxes(-1, -2)
    return _finite(row.tag, tau @ np.linalg.inv(f).swapaxes(-1, -2), m)
