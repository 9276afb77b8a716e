"""Elastic constants, kept mutually consistent.

The five isotropic constants (shear modulus G, second Lame constant lambda,
bulk modulus K, Young's modulus E, Poisson's ratio nu) are stored together
and constructed from exactly one of the pairs (G, lambda), (G, K), (E, nu)
or (G, nu).  Mixed over-specification is rejected instead of reconciled.

Admissibility comes in two levels: every instance must satisfy G != 0 and
3*lambda + 2*G != 0 (i.e. K != 0), which is what the nonlinear laws need to
be invertible; the ``physical`` flag additionally enforces G > 0 and K > 0.
"""

import math
from dataclasses import dataclass

from .errors import InvalidModuli

__all__ = ["Moduli"]

_PAIRS = [("g", "lam"), ("g", "k"), ("e", "nu"), ("g", "nu")]


@dataclass(frozen=True)
class Moduli:
    """Consistent set of isotropic elastic constants.

    Use :meth:`make` (or the pair-specific constructors) instead of the
    raw dataclass constructor; they derive the remaining constants and
    check admissibility.  Stresses and moduli share one unit, ``unit``
    (default MPa); stretches are dimensionless.
    """

    g: float
    lam: float
    k: float
    e: float
    nu: float
    unit: str = "MPa"

    @staticmethod
    def make(g=None, lam=None, k=None, e=None, nu=None,
             physical=False, unit="MPa"):
        """Build from exactly one supported pair of constants.

        Parameters
        ----------
        g, lam, k, e, nu : float, optional
            Exactly two must be given, forming one of the pairs
            (g, lam), (g, k), (e, nu), (g, nu).
        physical : bool
            Additionally require G > 0 and K > 0.
        """
        given = {n: v for n, v in
                 [("g", g), ("lam", lam), ("k", k), ("e", e), ("nu", nu)]
                 if v is not None}
        if len(given) != 2 or tuple(sorted(given)) not in \
                {tuple(sorted(p)) for p in _PAIRS}:
            raise InvalidModuli(
                "moduli must be given as exactly one of the pairs "
                "(G, lambda), (G, K), (E, nu), (G, nu); "
                f"got {sorted(given) or 'nothing'}")
        for name, v in given.items():
            if not math.isfinite(float(v)):
                raise InvalidModuli(f"{name} = {v} is not finite")
        if "g" in given and "lam" in given:
            g_, lam_ = float(given["g"]), float(given["lam"])
        elif "g" in given and "k" in given:
            g_ = float(given["g"])
            lam_ = float(given["k"]) - 2.0 * g_ / 3.0
        elif "e" in given and "nu" in given:
            e_, nu_ = float(given["e"]), float(given["nu"])
            if nu_ == 0.5 or nu_ == -1.0:
                raise InvalidModuli(f"nu = {nu_} has no finite (G, lambda)")
            g_ = e_ / (2.0 * (1.0 + nu_))
            lam_ = e_ * nu_ / ((1.0 + nu_) * (1.0 - 2.0 * nu_))
        else:  # (g, nu)
            g_, nu_ = float(given["g"]), float(given["nu"])
            if nu_ == 0.5:
                raise InvalidModuli("nu = 0.5 has no finite lambda")
            lam_ = 2.0 * g_ * nu_ / (1.0 - 2.0 * nu_)
        k_ = lam_ + 2.0 * g_ / 3.0
        if g_ == 0.0 or k_ == 0.0:
            raise InvalidModuli(
                f"inadmissible moduli: G = {g_}, 3*lambda + 2*G = {3.0 * k_}"
                " (both must be nonzero)")
        if 3.0 * k_ + g_ == 0.0:
            raise InvalidModuli(
                f"inadmissible moduli: 3*K + G = 0 (G = {g_}, K = {k_}); "
                "Young's modulus undefined")
        e_ = 9.0 * k_ * g_ / (3.0 * k_ + g_)
        nu_ = (3.0 * k_ - 2.0 * g_) / (2.0 * (3.0 * k_ + g_))
        m = Moduli(g=g_, lam=lam_, k=k_, e=e_, nu=nu_, unit=unit)
        if physical:
            m.require_physical()
        return m

    @staticmethod
    def from_g_lam(g, lam, **kw):
        return Moduli.make(g=g, lam=lam, **kw)

    @staticmethod
    def from_g_k(g, k, **kw):
        return Moduli.make(g=g, k=k, **kw)

    @staticmethod
    def from_e_nu(e, nu, **kw):
        return Moduli.make(e=e, nu=nu, **kw)

    @staticmethod
    def from_g_nu(g, nu, **kw):
        return Moduli.make(g=g, nu=nu, **kw)

    @property
    def is_physical(self):
        return self.g > 0.0 and self.k > 0.0

    def require_physical(self):
        if not self.is_physical:
            raise InvalidModuli(
                f"moduli not physical: G = {self.g}, K = {self.k} "
                "(both must be positive)")
        return self
