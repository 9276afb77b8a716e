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
:data:`LAW_TAGS`: the law's principal strain, the stretch it takes, the
stress measure it returns, the axioms it is known to break, and its
uniaxial and simple-glide closed forms.  A row is data: a row with a strain
is a tensor law, and every tensor map is one function evaluated on its
row.  The principal response is the law as the paper states it, principal
stresses from principal stretches.  The logarithmic tensor maps build it
on the spectrum of the stretch; a stress at a deformation F
(:func:`pk1_for_law`, the CLI's ``stress``) reads it on one SVD of F, and
the simple glide on the glide's closed-form principal stretches.  Every
tensor law returns a finite stress or raises :class:`LogstrainError`.

One matrix takes the one-matrix lane, with the bits it gets inside a
stack: a logarithmic tensor map, :func:`becker_inverse` and
:func:`pk1_for_law` call numpy, besides checking and symmetrizing their
input, only to factorize through the ``tensors`` boundary, to take
``np.log`` or ``np.exp`` of the spectrum and to multiply the frames (with
the product's ``sym_part``).  Every principal-value step in between (the
floor test, ``2 G e_i`` and the spherical part, ``J t_i``, the trace and
the exponents of the inverse) runs on Python floats, one spectrum
travelling as a list of three of them, each sum from 0.0 and left to right
as numpy adds it.  The finite-Hooke maps factorize nothing: they read
``2 G e + lam tr(e) I`` of the matrix with the stack's numpy arithmetic.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LambdaNotZero, LogstrainError
from .kinematics import _glide_stretches, _jacobian
from .moduli import Moduli
from .stresses import _checked_state
from .tensors import (_EYE, _as_mats, _as_real, _at, _closed_form, _det,
                      _finite_values, _first, _first_nonfinite,
                      _from_spectrum, _inners, _inv, _over, _pow2_scale,
                      _require_floor, _solve, _spectrum, _spectrum_floats,
                      _svd, _trace, as_mat3, dev3, inner, mat_log, sym_part,
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
    "incompressible_uniaxial_limit",
    "incompressible_uniaxial_hyper",
    "linearized_law",
    "linearized_inverse",
    "stretch_stress",
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
    return _tensor_law(_LAWS["becker"], u, m)


@np.errstate(over="ignore", invalid="ignore")
def becker_inverse(t, m: Moduli):
    """Right stretch that produces Biot stress t under the logarithmic law.

    ``U = exp(dev3(t) / (2 G)) exp(tr(t) / (9 K))``, the exact inverse of
    :func:`becker_biot`, on the spectrum of the deviator: with one
    eigendecomposition ``dev3(t) = frame diag(d) frame.T``, ``U = frame
    diag(exp(d_i / (2 G) + tr(t) / (9 K))) frame.T``.  The spectrum of t
    itself would give the same frame, but where the spherical part
    dominates (large lam) its eigenvalues carry that part's roundoff into
    the deviatoric ones.  ``t`` has shape (3, 3) or (..., 3, 3), and a
    matrix gives the same bits alone and inside a stack.

    Accuracy: the round trip ``|becker_inverse(becker_biot(U)) - U| / |U|``
    (Frobenius norms) stays below 5e-14 at G = 1, lam in {0, 0.5, 25}, for
    principal stretches log-uniform in [0.05, 20]: the worst of 200k random
    stretches was 2.3e-14, at lam = 25, and the tests check 4000 at each
    lam.  Most of that is inherited from the rounding of the stress itself,
    which at large lam is relative to its spherical part.

    One matrix takes the one-matrix lane, with the bits it gets inside a
    stack: numpy only factorizes the deviator, takes the exponential and
    multiplies the frames.  The trace (summed in numpy's order), the
    deviator's diagonal (written in place, with the sign that ``- mean *
    0.0`` gives each zero off the diagonal) and the exponents ``d_i / (2 G)
    + tr(t) / (9 K)`` are Python floats.  Where 2 G or 9 K overflows (G
    above about 9e307, K above about 2e307), the deviator or tr(t) is
    divided by the factor and by the modulus in turn, so that neither part
    is lost.

    Raises ``ValueError`` for a t that is not 3x3 or not finite, and
    :class:`LogstrainError` for a trace of t that overflows (``becker_inverse:
    trace of t is not finite``) and for a stretch that overflows
    (``mat_exp: overflow at eigenvalue ...``, naming the exponent).
    """
    t = sym_part(_as_mats(t, "t"))
    stack = t.shape[:-2]
    if stack:
        trace = _sum3(t.diagonal(0, -2, -1))
        if not np.isfinite(trace).all():
            raise LogstrainError("becker_inverse: trace of t is not finite"
                                 + _at(_first(~np.isfinite(trace)), stack))
        d, frame = _spectrum(t - (trace / 3.0)[..., None] * _EYE)
        x = _over(d, 2.0, m.g) + _over(trace, 9.0, m.k)
    else:  # one matrix: the principal steps on Python floats
        (t00, t01, t02), (_, t11, t12), (_, _, t22) = t.tolist()
        trace = 0.0 + t00 + t11 + t22  # _sum3 of the diagonal
        if not math.isfinite(trace):
            raise LogstrainError("becker_inverse: trace of t is not finite")
        # t - mean I in place, with its bits: off the diagonal that
        # subtracts mean * 0.0, which for a mean of negative sign (-0.0
        # included) turns -0.0 into +0.0 (t is symmetric, so its upper
        # entries hold every zero)
        mean = trace / 3.0
        t[0, 0] = t00 - mean
        t[1, 1] = t11 - mean
        t[2, 2] = t22 - mean
        if math.copysign(1.0, mean) < 0.0 and 0.0 in (t01, t02, t12):
            t += 0.0
        (d0, d1, d2), frame = _spectrum_floats(t)
        spherical = _over(trace, 9.0, m.k)
        x = np.array([_over(d0, 2.0, m.g) + spherical,
                      _over(d1, 2.0, m.g) + spherical,
                      _over(d2, 2.0, m.g) + spherical])
    return _from_spectrum(frame, _finite_values(np.exp, x, "mat_exp", stack))


def hencky_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of the logarithmic law in the left stretch v (or a
    (..., 3, 3) stack of them): ``2 G dev3(log V) + K tr(log V) I``, with
    the principal values of :func:`becker_biot` on the spectrum of V."""
    return _tensor_law(_LAWS["hencky-kirchhoff"], v, m)


def hencky_cauchy(v, m: Moduli):
    """Cauchy stress of the logarithmic law in the left stretch v.

    Same formula as :func:`hencky_kirchhoff`; the two are independent laws
    that differ in which stress measure the result is read as.
    """
    return _tensor_law(_LAWS["hencky-cauchy"], v, m)


@np.errstate(over="ignore", invalid="ignore")
def becker_kirchhoff(v, m: Moduli):
    """Kirchhoff stress of Becker's law: V @ becker_biot(V), which is
    V @ hencky_kirchhoff(V).  A stress that overflows raises
    :class:`LogstrainError`, quietly."""
    v = sym_part(as_mat3(v, "v"))
    return _finite("becker", sym_part(v @ becker_biot(v, m)), m,
                   "Kirchhoff stress")


@np.errstate(over="ignore", invalid="ignore")
def becker_cauchy(v, m: Moduli):
    """Cauchy stress of Becker's law, kirchhoff / det(V).

    Where the Kirchhoff stress or det V overflows, both are taken of V / s
    instead, for the power of two s that brings the largest |V_ij| below
    2, and the quotient is divided by s twice before it is divided by
    det(V / s): exact steps, so that a Cauchy stress that is finite comes
    out finite (``1e150 I`` at G = 1, lam = 0.5 gives about 1.2e-297 I).
    Elsewhere the result has the bits of kirchhoff / det(V).  A stress
    that overflows raises :class:`LogstrainError`, quietly.
    """
    v = sym_part(as_mat3(v, "v"))
    t = becker_biot(v, m)
    s, tau, j = 1.0, sym_part(v @ t), float(_det(v))
    if not (math.isfinite(j) and np.isfinite(tau).all()):
        s = _pow2_scale(float(np.abs(v).max()))
        tau, j = sym_part((v / s) @ t), float(_det(v / s))
    return _finite("becker", tau / s / s / j, m, "Cauchy stress")


def becker_pk2(u, m: Moduli):
    """Second Piola-Kirchhoff stress of Becker's law, inv(U) @ biot(U).
    A stress that overflows raises :class:`LogstrainError`, quietly."""
    u = sym_part(as_mat3(u, "u"))
    return _pk2_of_biot(u, becker_biot(u, m), m)


def _pk2_of_biot(u, t, m):
    """The PK2 stress inv(U) @ T of the becker law's Biot stress t at the
    symmetric stretch u, or :class:`LogstrainError` where it overflows.

    The solve takes t / s, for the least power of two s that brings the
    largest |t_ij| below 2**961, and its solution is multiplied by s.
    Where every |t_ij| < 2**960, s is 1; elsewhere both steps are exact
    unless an entry is subnormal, so the result keeps the bits of the
    plain solve.  No step inside LAPACK overflows, since the floor of the
    law's stretch keeps |inv(U)| below 1e12: an overflow is the stress's,
    not a failed solve.
    """
    s = _pow2_scale(float(np.abs(t).max()) * 2.0 ** -960)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("becker", sym_part(_solve(u, t / s) * s), m,
                       "PK2 stress")


def becker_pk1(f, m: Moduli):
    """First Piola-Kirchhoff stress of Becker's law: R @ biot(U)."""
    return pk1_for_law("becker", f, m)


# ---------------------------------------------------------------------------
# finite-Hooke comparison laws

def hooke_biot(u, m: Moduli):
    """Finite Hooke law on the Biot pair: 2 G (U - I) + lam tr(U - I) I.

    u has shape (3, 3) or (..., 3, 3).
    """
    return _tensor_law(_LAWS["hooke-biot"], u, m)


def hooke_cauchy(v, m: Moduli):
    """Finite Hooke law on the Cauchy pair: 2 G (V - I) + lam tr(V - I) I.

    v has shape (3, 3) or (..., 3, 3).
    """
    return _tensor_law(_LAWS["hooke-cauchy"], v, m)


# ---------------------------------------------------------------------------
# energies

def _lam_is_zero(m):
    # the one rule for "lam = 0", relative to G: the lam = 0 energy and
    # every check that needs it read this
    return abs(m.lam) <= 1e-14 * max(1.0, abs(m.g))


def becker_energy_nu0(u, m: Moduli):
    """Strain energy of Becker's law for lam = 0 (the only hyperelastic case).

    ``2 G (<U, log U - I> + 3) = 2 G sum_i lambda_i (ln lambda_i - 1) + 6 G``.
    Nonnegative, zero only at U = I, and finite even as U -> 0.  For one
    matrix returns a float; for a (..., 3, 3) stack, an array of shape (...).
    lam counts as zero within ``1e-14 max(1, |G|)``; any other lam raises
    :class:`LambdaNotZero`.  An energy that overflows (a G near the
    largest float) raises :class:`LogstrainError`, naming the first such
    member of a stack.
    """
    if not _lam_is_zero(m):
        raise LambdaNotZero(
            f"energy defined only for lambda = 0, got {m.lam}")
    u = _as_mats(u, "u")
    log_u = mat_log(u)  # of sym_part(u), the stretch the energy takes
    u = sym_part(u)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = 2.0 * m.g * (_inners(u, log_u - _EYE) + 3.0)
    bad = _first(~np.isfinite(energy))
    if bad is not None:
        raise LogstrainError(f"becker_energy_nu0: energy is not finite at "
                             f"G = {m.g:.6g}{_at(bad, u.shape[:-2])}")
    return energy if u.ndim > 2 else float(energy)


@_closed_form
def hencky_energy(v, m: Moduli):
    """Quadratic logarithmic energy G ||dev3 log V||^2 + K/2 tr(log V)^2.

    An energy that overflows raises :class:`LogstrainError`."""
    w = mat_log(v)
    d = dev3(w)
    return m.g * inner(d, d) + 0.5 * m.k * tr(w) ** 2


# ---------------------------------------------------------------------------
# uniaxial and incompressible closed forms

@_closed_form
def uniaxial_response(q, m: Moduli):
    """Stretches under a uniaxial Biot load q for Becker's law.

    Returns ``(lambda_axial, lambda_lateral) = (exp(q/E), exp(-nu q/E))``.
    For nu = 0 there is no lateral contraction.
    """
    q = _as_real(q, "q")
    return math.exp(q / m.e), math.exp(-m.nu * q / m.e)


@_closed_form
def incompressible_uniaxial_limit(lam_stretch, m: Moduli):
    """Uniaxial load in the incompressible limit K -> inf: 3 G ln(lambda)."""
    return _LAWS["becker"].uniaxial(
        _as_real(lam_stretch, "stretch", "positive"), 3.0 * m.g, m.g, None)


@_closed_form
def incompressible_uniaxial_hyper(lam_stretch, m: Moduli):
    """Uniaxial load from the lam = 0 energy under det F = 1.

    ``G ln(lambda) (2 + lambda**(-3/2))``; agrees with
    :func:`incompressible_uniaxial_limit` to first order at lambda = 1
    (both have slope 3 G).
    """
    return _LAWS["becker"].hyper(
        _as_real(lam_stretch, "stretch", "positive"), m.g)


# ---------------------------------------------------------------------------
# linearized (infinitesimal) law

@np.errstate(over="ignore", invalid="ignore")
def linearized_law(eps, m: Moduli):
    """Infinitesimal isotropic law 2 G eps + lam tr(eps) I.

    A stress that is not finite raises :class:`LogstrainError`."""
    return _finite("linearized", _lame(sym_part(as_mat3(eps, "eps")), m), m)


def _lame(e, m):
    # the isotropic linear law, shared by the finite-Hooke laws; e has
    # shape (3, 3) or (..., 3, 3).  At lam = 0 the spherical term is left
    # out, so that an overflowing trace cannot spoil a finite stress.  2 G e
    # is formed as 2 (G e): finite wherever 2 G e is, also where 2 G is not
    t = 2.0 * (m.g * e)
    if m.lam != 0.0:
        t = t + m.lam * _trace(e) * _EYE
    return t


def _lame_principal(e, m):
    # the same law on principal values e, shape (..., 3), its spherical
    # term left out at lam = 0 as in _lame; one spectrum, a list of three
    # Python floats, gives one, with the bits of the stack's arithmetic
    if isinstance(e, list):
        g, (e0, e1, e2) = m.g, e
        t0, t1, t2 = 2.0 * (g * e0), 2.0 * (g * e1), 2.0 * (g * e2)
        if m.lam == 0.0:
            return [t0, t1, t2]
        s = m.lam * (0.0 + e0 + e1 + e2)  # _sum3(e)
        return [t0 + s, t1 + s, t2 + s]
    t = 2.0 * (m.g * e)
    return t + m.lam * _sum3(e) if m.lam != 0.0 else t


def _sum3(v):
    """The sum over the last axis of a stack v, shape (..., 3), as shape
    (..., 1), in numpy's order: from 0.0, left to right, the order of
    ``v.sum(axis=-1, keepdims=True)`` and of the one-matrix lane on Python
    floats, spelled out as three additions of columns, which numpy runs in
    about a quarter of the reduction's time."""
    return 0.0 + v[..., 0:1] + v[..., 1:2] + v[..., 2:3]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def linearized_inverse(sigma, m: Moduli):
    """Inverse of the infinitesimal law: dev3(s)/(2G) + tr(s)/(9K) I.

    Where 2 G or 9 K overflows, its part is divided by the factor and by
    the modulus in turn, so that it is not lost.  A strain that is not
    finite raises :class:`LogstrainError`."""
    sigma = sym_part(as_mat3(sigma, "sigma"))
    return _finite("linearized", _over(dev3(sigma), 2.0, m.g)
                   + _over(tr(sigma), 9.0, m.k) * _EYE, m, "strain")


# ---------------------------------------------------------------------------
# the law table: every law dispatch of the package reads it

def _hencky_uniaxial(lam, e, g, law):
    return 3.0 * g * np.log(lam) / lam


def _ogden_uniaxial(lam, e, g, law):
    return sum(mu * (lam ** (a - 1.0) - lam ** (-1.0 - a / 2.0))
               for mu, a in zip(law.mu, law.alpha))


def _ogden_glide(gamma, m, law):
    # principal stretches (e^a, 1, e^-a) with a = asinh(gamma / 2)
    a = np.arcsinh(0.5 * gamma)
    return sum(mu * np.sinh(al * a)
               for mu, al in zip(law.mu, law.alpha)) / np.cosh(a)


class _Law(NamedTuple):
    """One row of the law table.

    A tensor law gives the stress in ``measure`` from the right (``stretch
    == "u"``) or left (``"v"``) stretch.  ``strain`` is the principal strain
    of that stretch, ``ln s`` or ``s - 1``, as a :class:`_Strain`: a
    function of the principal stretches ``s``, shape (..., 3), and of the
    amount of a simple glide; the incompressible scalar models have none,
    and a row with a strain is a tensor law.  Every tensor law is the
    isotropic linear law of its strain, so
    :meth:`principal` gives its principal response, the principal stresses
    in ``measure`` in the order of ``s``.  ``violates``
    names the checks of ``verify.check_axioms`` that the law is known to
    fail.  ``uniaxial(lam, e, g, law)`` is the Biot
    stress under uniaxial stretch lam and zero lateral stress.  The
    compressible forms are written in Young's modulus e, so that e = 3 G
    gives the incompressible curve named ``column``; the incompressible
    models use G alone.  ``hyper(lam, g)`` is the constrained-energy
    incompressible form.  ``glide(gamma, m, law)`` is the simple-shear
    sigma_12 of a scalar model, in closed form on an array of gamma; a
    tensor row's glide is read from its strain at the glide's principal
    log-stretches (see :func:`simple_shear_sigma12`).
    """

    tag: str
    strain: object = None
    stretch: str = None
    measure: str = None
    violates: frozenset = frozenset()
    uniaxial: object = None
    glide: object = None
    column: str = None
    hyper: object = None

    @np.errstate(over="ignore", invalid="ignore")
    def principal(self, s, m):
        """Principal stresses ``2 G e_i + lam sum_j e_j`` of the row's
        strain e at principal stretches s, shape (..., 3).  A stress that
        is not finite raises :class:`LogstrainError`, naming the first
        such spectrum of a stack."""
        e = self.strain.of_stretch(s.tolist() if s.ndim == 1 else s)
        t = np.asarray(_lame_principal(e, m))
        return _finite(self.tag, t[..., None], m)[..., 0]  # as 3x1 columns


class _Strain(NamedTuple):
    """A principal strain, ``of_stretch(s)`` at principal stretches s, shape
    (..., 3), and ``of_glide(gamma)`` at the stretches ``(l, 1, 1/l)`` of
    simple glides of 1-d amounts gamma, shape (len(gamma), 3).  One
    spectrum, the one-matrix lane's list of three Python floats, gives
    such a list."""

    of_stretch: object
    of_glide: object


def _ln_above_floor(s):
    if isinstance(s, list):  # one spectrum
        _require_floor(s, "mat_log", "eigenvalue", ())
        return np.log(s).tolist()
    _require_floor(s, "mat_log", "eigenvalue", s.shape[:-1])
    return np.log(s)


def _minus_one(s):
    if isinstance(s, list):  # one spectrum
        s0, s1, s2 = s
        return [s0 - 1.0, s1 - 1.0, s2 - 1.0]
    return s - 1.0


def _glide_log_strain(gamma):
    # (a, 0, -a) with a = ln l = asinh(gamma / 2)
    a = np.arcsinh(0.5 * gamma)
    return np.stack((a, np.zeros_like(a), -a), axis=-1)


def _glide_linear_strain(gamma):
    # s - 1 without cancellation: with h = gamma / 2 and l = h + hypot(h,
    # 1), l - 1 = h + h (h / (hypot(h, 1) + 1)) and 1/l - 1 = -(l - 1) / l
    h = 0.5 * gamma
    root = np.hypot(h, 1.0)
    d = h + h * (h / (root + 1.0))
    return np.stack((d, np.zeros_like(d), -d / (h + root)), axis=-1)


_log_strain = _Strain(_ln_above_floor, _glide_log_strain)
_linear_strain = _Strain(_minus_one, _glide_linear_strain)


# The checks the finite-Hooke laws fail: the strain s - 1 does not add
# under products of coaxial stretches, scale under powers or change sign
# under inversion, and its trace is nonzero in a pure shear.
_HOOKE_VIOLATES = frozenset({"superposition", "power_law",
                             "inversion_symmetry", "shear_to_shear"})

_LAWS = {row.tag: row for row in (
    _Law("becker", _log_strain, "u", "biot",
         uniaxial=lambda lam, e, g, law: e * np.log(lam), column="becker",
         hyper=lambda lam, g: g * np.log(lam) * (2.0 + lam ** -1.5)),
    _Law("hencky-kirchhoff", _log_strain, "v", "kirchhoff",
         uniaxial=_hencky_uniaxial, column="hencky"),
    _Law("hencky-cauchy", _log_strain, "v", "cauchy",
         uniaxial=_hencky_uniaxial),
    _Law("neo-hooke",
         uniaxial=lambda lam, e, g, law: g * (lam - lam ** -2.0),
         glide=lambda gamma, m, law: m.g * gamma, column="neo-hooke"),
    _Law("hooke-biot", _linear_strain, "u", "biot", _HOOKE_VIOLATES,
         uniaxial=lambda lam, e, g, law: e * (lam - 1.0), column="hooke"),
    _Law("hooke-cauchy", _linear_strain, "v", "cauchy", _HOOKE_VIOLATES),
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
    if row.strain is None:
        raise ValueError(f"law {row.tag!r} has no deformation-gradient form")
    return row


def _finite(tag, t, m, quantity="stress"):
    """t, a (..., 3, 3) stress (or other ``quantity``) of law ``tag``, if
    it is finite; else :class:`LogstrainError` naming the law, its moduli
    (if given) and the first bad member.  The stress dispatches run with
    numpy's overflow and invalid-value warnings off, so an overflow on the
    way raises here, quietly."""
    i = _first_nonfinite(t)
    if i is None:
        return t
    moduli = "" if m is None else f" at G = {m.g:.6g}, lam = {m.lam:.6g}"
    raise LogstrainError(f"law {tag!r}: {quantity} is not finite{moduli}"
                         f"{_at(i, t.shape[:-2])}")


def _lame_on_frame(frame, e, m):
    """The isotropic linear law of the strain whose principal values e,
    shape (..., 3), lie on the columns of frame: ``2 G frame @ diag(e) @
    frame.T + lam sum_j e_j I``.  The spherical part is added to the
    diagonal after the frame product, so that its roundoff stays there,
    and left out at lam = 0, as in :func:`_lame`.  One spectrum, the list
    of three Python floats of the one-matrix lane, forms ``2 G e_i`` and
    the spherical part on those floats; numpy multiplies the frames, and
    the part is added to the three diagonal entries in turn."""
    if isinstance(e, list):
        g, (e0, e1, e2) = m.g, e
        t = _from_spectrum(frame, np.array([2.0 * (g * e0), 2.0 * (g * e1),
                                            2.0 * (g * e2)]))
        if m.lam != 0.0:
            s = m.lam * (0.0 + e0 + e1 + e2)  # _sum3(e)
            t[0, 0] += s
            t[1, 1] += s
            t[2, 2] += s
        return t
    t = _from_spectrum(frame, 2.0 * (m.g * e))
    if m.lam != 0.0:
        # the diagonal as a basic-slice view: _from_spectrum returns a new
        # contiguous array, so the reshape cannot copy
        t.reshape(t.shape[:-2] + (9,))[..., ::4] += m.lam * _sum3(e)
    return t


@np.errstate(over="ignore", invalid="ignore")
def _tensor_law(row, a, m):
    # tensor map of a row at its stretch a: the linear law of the strain,
    # on the spectrum of a for a logarithmic strain, of a - I directly for
    # the finite-Hooke rows
    a = sym_part(_as_mats(a, row.stretch))
    if row.strain is _linear_strain:
        return _finite(row.tag, _lame(a - _EYE, m), m)
    vals, frame = _spectrum(a) if a.ndim > 2 else _spectrum_floats(a)
    return _finite(row.tag,
                   _lame_on_frame(frame, row.strain.of_stretch(vals), m), m)


def _svd_principal(row, f, det=None):
    """``(J, W, s, Vt, e)`` at checked deformations f, (3, 3) or (..., 3,
    3): ``det F`` (the given ``det``, if the caller has taken it; see
    :func:`kinematics._jacobian`), one SVD ``F = W diag(s) Vt`` and the
    row's principal strains at s.  Every stress at a deformation starts
    here; one matrix hands its strain the lane's list of three Python
    floats."""
    j = _jacobian(f, det)
    w, s, vt = _svd(f)
    return j, w, s, vt, row.strain.of_stretch(s.tolist() if f.ndim == 2 else s)


@np.errstate(over="ignore", invalid="ignore")
def _stress_state(law, f, m: Moduli):
    """The law's stress state at one deformation f, in the law's own
    measure, from one SVD ``F = W diag(s) V.T``: ``V diag(t) V.T`` for a
    Biot law, ``W diag(t) W.T`` for a law in the left stretch."""
    row = _tensor_row(law)
    f = as_mat3(f, "f")
    _, w, _, vt, e = _svd_principal(row, f)
    frame = vt.swapaxes(-1, -2) if row.stretch == "u" else w
    return _checked_state(_finite(row.tag, _lame_on_frame(frame, e, m), m),
                          row.measure, f)


def stretch_stress(law, stretch, m: Moduli):
    """Stress tensor predicted by a tensor law from its stretch argument.

    The stretch is the right stretch U for the Biot-measure laws and the
    left stretch V for the Cauchy/Kirchhoff-measure laws; the returned
    tensor is in the law's own measure.  Not defined for the incompressible
    scalar models (neo-hooke, ogden).
    """
    return _tensor_law(_tensor_row(law), stretch, m)


def _require_moduli(row, m):
    # ogden carries its own coefficients; every other law reads G and lam
    if row.tag != "ogden" and m is None:
        raise ValueError("moduli required")


@np.errstate(over="ignore", invalid="ignore")
def simple_shear_sigma12(law, gamma, m: Moduli = None):
    """Cauchy shear stress sigma_12 in a simple glide of amount gamma.

    ``gamma`` is a number (the result is a float) or an array of them (the
    result has its shape); an element gets the same bits alone and inside
    an array.  The glide is a rotated pure shear with principal stretches
    ``s = (l, 1, 1/l)``, ``l = gamma/2 + hypot(gamma/2, 1)`` (the helper
    of :func:`kinematics.glide_principal_stretches`), and ``J = 1``.  A
    tensor law reads its principal strain at those stretches from its
    row: ``(a, 0, -a)``, ``a = asinh(gamma / 2)``, for a logarithmic
    strain, and for ``s - 1`` the excesses ``l - 1 = h + h (h / (hypot(h,
    1) + 1))``, ``h = gamma / 2``, and ``1/l - 1 = -(l - 1) / l``, which
    cancel nothing at any gamma.  It gives
    ``sigma_12 = (c_1 - c_3) / r``, ``r = sqrt(gamma**2 + 4)`` taken as
    ``hypot(gamma, 2)``, of its principal Cauchy stresses c: ``t s`` for a
    Biot law, formed as ``t (s / r)`` so that it cannot overflow where
    sigma_12 is representable, and its principal stresses t otherwise.  No
    matrix is factorized.  neo-hooke and ogden use their incompressible
    closed forms.  For Becker's law the result is ``2 G asinh(gamma / 2)``
    whatever lam, and for the Hencky laws ``4 G asinh(gamma / 2) /
    sqrt(gamma**2 + 4)``.

    Accuracy: against 50-digit references at lam in {0, 0.5, 25}, every
    tensor law is within 2e-15 relative over gamma in [1e-300, 1e300], and
    becker and the Hencky laws within 1e-15 from 1e3 to 1e300 (the tests
    check both).  Against 700-digit references on 241 gammas log-spaced
    over that range, becker and the Hencky laws measured at most 2.0e-16
    and the finite-Hooke laws 3.7e-16, except hooke-cauchy at lam = 25,
    1.2e-15, where the spherical part cancels in ``c_1 - c_3``.

    Errors: ``ValueError`` for a negative or non-finite gamma (naming the
    first bad element of an array), and for missing moduli for every law
    but ogden; :class:`LogstrainError` for a stress that overflows.
    """
    row, law = _resolve(law)
    _require_moduli(row, m)
    shape = np.shape(gamma)
    # one contiguous 1-d array, so that an element alone and inside an
    # array goes through the same numpy loops
    g = np.reshape(_as_real(gamma, "gamma", "nonnegative"), -1)
    if row.glide is not None:
        sigma = row.glide(g, m, law)
    else:
        t = _lame_principal(row.strain.of_glide(g), m)
        r = np.hypot(g, 2.0)
        if row.measure == "biot":  # c = t s, scaled by s / r <= 1 first
            l1, l3 = _glide_stretches(g)
            sigma = t[..., 0] * (l1 / r) - t[..., 2] * (l3 / r)
        else:
            sigma = (t[..., 0] - t[..., 2]) / r
    sigma = _finite(row.tag, sigma.reshape(shape + (1, 1)), m)[..., 0, 0]
    return sigma if shape else float(sigma)


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
    :class:`LogstrainError` for a stress that is not finite, or for a
    LAPACK failure of the SVD or the inverse (naming ``svd`` or ``inv``);
    for a stack they name the first bad member.
    """
    return _pk1(_tensor_row(law), _as_mats(f, "f"), m)


@np.errstate(over="ignore", invalid="ignore")
def _pk1(row, f, m, det=None):
    """:func:`pk1_for_law` of the tensor-law ``row`` at deformations f
    that are already a finite float array, with their ``det F`` if the
    caller has taken it (see :func:`kinematics._jacobian`).  The path
    work calls it on the nodes its path check has checked."""
    j, w, s, vt, e = _svd_principal(row, f, det)
    t = _lame_principal(e, m)
    if f.ndim > 2:
        t = (t * j[..., None] if row.measure == "cauchy" else t)[..., None, :]
    else:  # one matrix: J t_i on Python floats
        if row.measure == "cauchy":
            j = float(j)
            t = [t[0] * j, t[1] * j, t[2] * j]
        t = np.array(t)
    if row.measure == "biot":
        return _finite(row.tag, (w * t) @ vt, m)
    tau = (w * t) @ w.swapaxes(-1, -2)
    return _finite(row.tag, tau @ _inv(f).swapaxes(-1, -2), m)
