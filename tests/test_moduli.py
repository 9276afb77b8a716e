"""Elastic-constant construction and consistency."""

import math
import sys
from fractions import Fraction

import pytest

from logstrain.constitutive import uniaxial_response
from logstrain.errors import InvalidModuli
from logstrain.moduli import Moduli


def test_pairs_agree():
    base = Moduli.from_g_lam(1.0, 0.5)
    for other in (Moduli.from_g_k(base.g, base.k),
                  Moduli.from_e_nu(base.e, base.nu),
                  Moduli.from_g_nu(base.g, base.nu)):
        assert other.g == pytest.approx(base.g, rel=1e-14, abs=0)
        assert other.lam == pytest.approx(base.lam, rel=1e-14, abs=0)
        assert other.k == pytest.approx(base.k, rel=1e-14, abs=0)
        assert other.e == pytest.approx(base.e, rel=1e-14, abs=0)
        assert other.nu == pytest.approx(base.nu, rel=1e-14, abs=0)


def test_conversion_formulas():
    m = Moduli.from_g_k(2.0, 5.0)
    assert m.k == pytest.approx(m.lam + 2.0 * m.g / 3.0, rel=1e-15, abs=0)
    assert m.e == pytest.approx(9.0 * m.k * m.g / (3.0 * m.k + m.g),
                                rel=1e-15, abs=0)
    assert m.nu == pytest.approx(
        (3.0 * m.k - 2.0 * m.g) / (2.0 * (3.0 * m.k + m.g)),
        rel=1e-15, abs=0)
    # 1/9K + 1/3G = 1/E and 1/9K - 1/6G = -nu/E
    assert 1.0 / (9.0 * m.k) + 1.0 / (3.0 * m.g) \
        == pytest.approx(1.0 / m.e, rel=1e-14, abs=0)
    assert 1.0 / (9.0 * m.k) - 1.0 / (6.0 * m.g) \
        == pytest.approx(-m.nu / m.e, rel=1e-14, abs=0)


def test_nu_zero_means_lam_zero():
    m = Moduli.from_g_nu(3.0, 0.0)
    assert m.lam == 0.0
    assert m.e == pytest.approx(2.0 * m.g, rel=1e-15)


def test_rejects_overspecification():
    with pytest.raises(InvalidModuli):
        Moduli.make(g=1.0, lam=0.5, k=2.0)
    with pytest.raises(InvalidModuli):
        Moduli.make(g=1.0)
    with pytest.raises(InvalidModuli):
        Moduli.make()
    with pytest.raises(InvalidModuli):
        Moduli.make(lam=0.5, nu=0.3)  # not a supported pair
    with pytest.raises(InvalidModuli):
        Moduli.make(e=1.0, k=1.0)  # not a supported pair


def test_rejects_inadmissible():
    with pytest.raises(InvalidModuli):
        Moduli.from_g_lam(0.0, 1.0)
    with pytest.raises(InvalidModuli):
        Moduli.from_g_lam(1.0, -2.0 / 3.0)  # 3 lam + 2 G = 0
    with pytest.raises(InvalidModuli):
        Moduli.from_e_nu(1.0, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidModuli):
            Moduli.from_g_lam(bad, 1.0)
        with pytest.raises(InvalidModuli):
            Moduli.from_g_lam(1.0, bad)
        with pytest.raises(InvalidModuli):
            Moduli.from_g_k(1.0, bad)
        with pytest.raises(InvalidModuli):
            Moduli.from_e_nu(bad, 0.3)
        with pytest.raises(InvalidModuli):
            Moduli.from_g_nu(1.0, bad)


@pytest.mark.parametrize("make, args", [
    (Moduli.from_g_lam, (1e-320, 0.0)), (Moduli.from_g_lam, (5e-324, 5e-324)),
    (Moduli.from_g_k, (1e-320, -1e-315)), (Moduli.from_e_nu, (1e-320, 0.3)),
    (Moduli.from_g_nu, (-2.5e-310, 0.3))])
def test_rejects_moduli_that_are_all_subnormal(make, args):
    # E and nu cannot be formed from two subnormal numbers (the power of
    # two that would scale them up overflowed)
    with pytest.raises(InvalidModuli, match="least normal float"):
        make(*args)


def test_a_subnormal_g_beside_a_normal_k_is_kept():
    m = Moduli.from_g_lam(1e-320, 1.0)
    assert (m.g, m.lam, m.k, m.nu) == (1e-320, 1.0, 1.0, 0.5)
    assert m.e == 3e-320


def test_physical_flag():
    Moduli.from_g_lam(1.0, 0.5, physical=True)
    m = Moduli.from_g_lam(1.0, -0.5)  # K = 1/6 > 0, still physical
    assert m.is_physical
    bad = Moduli.from_g_lam(-1.0, 2.0)
    assert not bad.is_physical
    with pytest.raises(InvalidModuli):
        Moduli.from_g_lam(-1.0, 2.0, physical=True)
    with pytest.raises(InvalidModuli):
        bad.require_physical()


def test_nonphysical_but_admissible_allowed():
    # monotonicity counterexamples need lam far above G
    m = Moduli.from_g_lam(1.0, 25.0)
    assert m.is_physical  # K > 0 here; large lam alone is fine
    m2 = Moduli.from_g_lam(-2.0, 3.0)
    assert m2.g == -2.0 and not m2.is_physical


def test_rejects_undefined_youngs_modulus():
    with pytest.raises(InvalidModuli):
        Moduli.from_g_lam(-1.0, 1.0)  # 3K + G = 0


def test_unit_label():
    assert Moduli.from_g_lam(1.0, 0.0).unit == "MPa"
    assert Moduli.from_g_lam(1.0, 0.0, unit="kPa").unit == "kPa"


def _exact_e_nu(g, lam):
    # E = G (3 lam + 2 G) / (lam + G), nu = lam / (2 (lam + G)), in rationals
    g, lam = Fraction(g), Fraction(lam)
    return float(g * (3 * lam + 2 * g) / (lam + g)), \
        float(lam / (2 * (lam + g)))


@pytest.mark.parametrize("g, lam", [(1e300, 1e300), (1.0, 5e307),
                                    (1.0, 1e308), (1e-200, 1e-200),
                                    (2.0, 0.5), (3.0, -1.5)])
def test_derived_constants_are_right_where_9kg_overflows(g, lam):
    m = Moduli.from_g_lam(g, lam)
    e, nu = _exact_e_nu(g, lam)
    assert m.e == pytest.approx(e, rel=4e-16, abs=0)
    assert m.nu == pytest.approx(nu, rel=4e-16, abs=0)


def test_uniaxial_response_at_huge_moduli():
    # E = 2.5e300 and nu = 1/4, so q = 1e300 stretches by exp(0.4)
    m = Moduli.from_g_lam(1e300, 1e300)
    stretch, lateral = uniaxial_response(1e300, m)
    assert stretch == pytest.approx(math.exp(0.4), rel=1e-15, abs=0)
    assert lateral == pytest.approx(math.exp(-0.1), rel=1e-15, abs=0)


def test_k_is_formed_without_2g():
    # K = lam + 2G/3 with 2G/3 formed as G/1.5: the bits of 2G/3, and no
    # 2G to overflow where K is representable
    for g in (1.0, 0.1, 3.3, -7.25e-5, 1e300, 8e307):
        assert Moduli.from_g_lam(g, 0.0).k == 2.0 * g / 3.0
        assert Moduli.from_g_k(g, 1.0).lam == 1.0 - 2.0 * g / 3.0
    m = Moduli.from_g_lam(1e308, -6.6e307)
    exact = Fraction(1e308) * 2 / 3 + Fraction(-6.6e307)
    assert m.k == pytest.approx(float(exact), rel=1e-13, abs=0)
    assert Moduli.from_g_k(1e308, m.k).lam == pytest.approx(-6.6e307,
                                                            rel=1e-15)


@pytest.mark.parametrize("make, name", [
    (lambda: Moduli.from_g_lam(1.7e308, 1.7e308), "k = inf"),
    (lambda: Moduli.from_g_lam(1e300, -1e300 * (1.0 - 1e-10)), "e = -inf"),
    (lambda: Moduli.from_e_nu(1e308, 0.4999999999), "lam = inf"),
])
def test_rejects_a_derived_constant_that_is_not_finite(make, name):
    with pytest.raises(InvalidModuli, match=f"give {name}, which is not "
                                            "finite"):
        make()


def test_given_constants_are_stored_as_given():
    m = Moduli.from_g_k(1.0, 1e-10)
    assert (m.g, m.k) == (1.0, 1e-10)
    m = Moduli.from_e_nu(1.0, 0.3)
    assert (m.e, m.nu) == (1.0, 0.3)
    m = Moduli.from_g_nu(2.0, 0.3)
    assert (m.g, m.nu) == (2.0, 0.3)
    m = Moduli.from_g_lam(1e-300, 4e307)
    assert (m.g, m.lam) == (1e-300, 4e307)


def _exact_moduli(g, k):
    """(g, lam, k, e, nu) in 50-digit arithmetic from exact G and K."""
    import mpmath
    with mpmath.workdps(50):
        return (g, k - 2 * g / 3, k, 9 * k * g / (3 * k + g),
                (3 * k - 2 * g) / (2 * (3 * k + g)))


def _g_k_of(pair, values):
    import mpmath
    a, b = (mpmath.mpf(v) for v in values)
    with mpmath.workdps(50):
        if pair == "g_lam":
            return a, b + 2 * a / 3
        if pair == "g_k":
            return a, b
        if pair == "e_nu":
            return a / (2 * (1 + b)), a / (3 * (1 - 2 * b))
        return a, 2 * a * (1 + b) / (3 * (1 - 2 * b))  # g_nu


@pytest.mark.parametrize("pair, values", [
    ("g_lam", (1e-300, 4e307)),  # G s underflowed: E was 0
    ("g_k", (1.0, 1e-10)),       # K was rebuilt from lambda
    ("g_k", (1.0, 1e-13)),
    ("g_k", (1e300, 1e-300)),    # rejected: 3 lambda + 2 G came out 0
    ("e_nu", (1.0, 0.3)),        # E was rebuilt as 0.9999999999999999
    ("g_nu", (2.0, 0.3)),
    ("g_lam", (1.0, 0.5)),
], ids=lambda v: str(v))
def test_every_constant_against_mpmath(pair, values):
    pytest.importorskip("mpmath")
    m = getattr(Moduli, f"from_{pair}")(*values)
    ref = _exact_moduli(*_g_k_of(pair, values))
    for name, want in zip(("g", "lam", "k", "e", "nu"), ref):
        got = getattr(m, name)
        assert abs(got - want) <= 2 * sys.float_info.epsilon * abs(want), \
            (name, got, float(want))
