"""Elastic-constant construction and consistency."""

import math

import pytest

from logstrain.errors import InvalidModuli
from logstrain.moduli import Moduli


def test_pairs_agree():
    base = Moduli.from_g_lam(1.0, 0.5)
    for other in (Moduli.from_g_k(base.g, base.k),
                  Moduli.from_e_nu(base.e, base.nu),
                  Moduli.from_g_nu(base.g, base.nu)):
        assert other.g == pytest.approx(base.g, rel=1e-14)
        assert other.lam == pytest.approx(base.lam, rel=1e-14)
        assert other.k == pytest.approx(base.k, rel=1e-14)
        assert other.e == pytest.approx(base.e, rel=1e-14)
        assert other.nu == pytest.approx(base.nu, rel=1e-14)


def test_conversion_formulas():
    m = Moduli.from_g_k(2.0, 5.0)
    assert m.k == pytest.approx(m.lam + 2.0 * m.g / 3.0, rel=1e-15)
    assert m.e == pytest.approx(9.0 * m.k * m.g / (3.0 * m.k + m.g),
                                rel=1e-15)
    assert m.nu == pytest.approx(
        (3.0 * m.k - 2.0 * m.g) / (2.0 * (3.0 * m.k + m.g)), rel=1e-15)
    # 1/9K + 1/3G = 1/E and 1/9K - 1/6G = -nu/E
    assert 1.0 / (9.0 * m.k) + 1.0 / (3.0 * m.g) \
        == pytest.approx(1.0 / m.e, rel=1e-14)
    assert 1.0 / (9.0 * m.k) - 1.0 / (6.0 * m.g) \
        == pytest.approx(-m.nu / m.e, rel=1e-14)


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
