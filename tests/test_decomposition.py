"""Additive stress and multiplicative stretch decompositions."""

import math

import numpy as np
import pytest

from logstrain.constitutive import becker_inverse
from logstrain.decomposition import (StressTriple, becker_tables,
                                     decompose_stress_additive,
                                     decompose_stretch_multiplicative)
from logstrain.errors import InvalidModuli
from logstrain.moduli import Moduli

M = Moduli.from_g_lam(1.0, 0.5)

BASIS = (np.diag([-1.0, 1.0, 0.0]), np.diag([0.0, 1.0, -1.0]), np.eye(3))


def recompose_additive(a, b, c):
    return a * BASIS[0] + b * BASIS[1] + c * BASIS[2]


# ---------------------------------------------------------------------------
# additive stress split

def test_uniaxial_split_into_equal_thirds():
    a, b, c = decompose_stress_additive(StressTriple(0.0, 3.0, 0.0))
    assert (a, b, c) == (1.0, 1.0, 1.0)


def test_spherical_split():
    a, b, c = decompose_stress_additive(StressTriple(2.0, 2.0, 2.0))
    assert (a, b, c) == (0.0, 0.0, 2.0)


def test_split_of_123():
    a, b, c = decompose_stress_additive(StressTriple(1.0, 2.0, 3.0))
    assert (a, b, c) == (1.0, -1.0, 2.0)
    np.testing.assert_allclose(recompose_additive(a, b, c),
                               np.diag([1.0, 2.0, 3.0]))


def test_additive_recomposition_exact(rng):
    for _ in range(300):
        p, q, r = rng.uniform(-5.0, 5.0, 3)
        a, b, c = decompose_stress_additive(StressTriple(p, q, r))
        rec = np.diag(recompose_additive(a, b, c))
        np.testing.assert_allclose(rec, [p, q, r], atol=1e-12)


# ---------------------------------------------------------------------------
# multiplicative stretch split

def test_uniform_stretch_is_pure_dilation():
    dec = decompose_stretch_multiplicative(1.4, 1.4, 1.4)
    assert dec.dilation_ratio == pytest.approx(1.4, rel=1e-15, abs=0)
    np.testing.assert_allclose(dec.shear1_diag, np.ones(3), atol=1e-15)
    np.testing.assert_allclose(dec.shear2_diag, np.ones(3), atol=1e-15)


def test_pure_shear_has_unit_dilation():
    alpha = 2.0
    dec = decompose_stretch_multiplicative(alpha, 1.0 / alpha, 1.0)
    assert dec.dilation_ratio == pytest.approx(1.0, rel=1e-15, abs=0)
    np.testing.assert_allclose(dec.recompose(), [alpha, 1.0 / alpha, 1.0],
                               atol=1e-13)


def test_shear_factors_unimodular(rng):
    for _ in range(300):
        p, q, r = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
        dec = decompose_stretch_multiplicative(p, q, r)
        assert np.prod(dec.shear1_diag) == pytest.approx(1.0, abs=1e-13)
        assert np.prod(dec.shear2_diag) == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(dec.recompose(), [p, q, r],
                                   rtol=1e-12, atol=1e-12)


def test_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        decompose_stretch_multiplicative(1.0, -2.0, 1.0)


# ---------------------------------------------------------------------------
# per-force tables

def test_tables_uniaxial_axial_stretch():
    q = 0.9
    tab = becker_tables(StressTriple(0.0, q, 0.0), M)
    axial = tab.recomposed[1]
    expected = math.exp(q / (9.0 * M.k)) * math.exp(q / (3.0 * M.g))
    assert axial == pytest.approx(expected, rel=1e-13, abs=0)


def test_tables_zero_load_is_identity():
    tab = becker_tables(StressTriple(0.0, 0.0, 0.0), M)
    np.testing.assert_allclose(tab.recomposed, np.ones(3), atol=1e-15)
    assert tab.dilations == (1.0, 1.0, 1.0)
    assert tab.shear_ratios == (1.0, 1.0, 1.0)


def test_tables_match_inverse_law(rng):
    for _ in range(100):
        p, q, r = rng.uniform(-2.0, 2.0, 3)
        tab = becker_tables(StressTriple(p, q, r), M)
        u = becker_inverse(np.diag([p, q, r]), M)
        np.testing.assert_allclose(tab.recomposed, np.diag(u), rtol=1e-10)


def test_tables_row_products_are_per_force_stretches():
    p_load = 1.1
    tab = becker_tables(StressTriple(p_load, 0.0, 0.0), M)
    row = tab.rows[0]
    product = row[0] * row[1] * row[2]
    p = math.exp(p_load / (6.0 * M.g))
    h = math.exp(p_load / (9.0 * M.k))
    np.testing.assert_allclose(product, [h * p * p, h / p, h / p],
                               rtol=1e-13)


def test_tables_total_product_form(rng):
    # product over all nine factors is (h p^2/(qr), h q^2/(pr), h r^2/(pq))
    # with h = h1 h2 h3
    loads = rng.uniform(-1.5, 1.5, 3)
    tab = becker_tables(StressTriple(*loads), M)
    h = np.prod(tab.dilations)
    p, q, r = tab.shear_ratios
    expected = h * np.array([p * p / (q * r), q * q / (p * r),
                             r * r / (p * q)])
    np.testing.assert_allclose(tab.recomposed, expected, rtol=1e-12)


def test_tables_keep_loads_whose_modulus_product_overflows():
    # 6 G overflows at G = 1e308 (K = 6.7e305, nu = -0.97), and dividing by
    # it gave shear ratios (1, 1, 1)
    mpmath = pytest.importorskip("mpmath")
    m = Moduli.from_g_lam(1e308, -6.6e307)
    loads = (3e306, -1e306, 5e305)
    tab = becker_tables(StressTriple(*loads), m)
    with mpmath.workdps(40):
        g, k = mpmath.mpf(m.g), mpmath.mpf(m.k)
        shears = [float(mpmath.exp(mpmath.mpf(x) / (6 * g))) for x in loads]
        dilations = [float(mpmath.exp(mpmath.mpf(x) / (9 * k)))
                     for x in loads]
    np.testing.assert_allclose(tab.shear_ratios, shears, rtol=1e-15)
    np.testing.assert_allclose(tab.dilations, dilations, rtol=1e-15)
    assert np.allclose(shears, [1.00501, 0.99833, 1.00083], rtol=1e-5)
    # a finite product keeps the one-division bits
    tab = becker_tables(StressTriple(1.1, -0.4, 0.7), M)
    assert tab.shear_ratios == tuple(math.exp(x / (6.0 * M.g))
                                     for x in (1.1, -0.4, 0.7))
    assert tab.dilations == tuple(math.exp(x / (9.0 * M.k))
                                  for x in (1.1, -0.4, 0.7))


def test_tables_require_physical_moduli():
    with pytest.raises(InvalidModuli):
        becker_tables(StressTriple(1.0, 0.0, 0.0),
                      Moduli.from_g_lam(-2.0, 3.0))


# ---------------------------------------------------------------------------
# decomposition-path independence of the recovered stretch

def test_inverse_law_path_independence(rng):
    # inverting the total load equals the product of the inverted parts
    for _ in range(100):
        p, q, r = rng.uniform(-2.0, 2.0, 3)
        a, b, c = decompose_stress_additive(StressTriple(p, q, r))
        direct = becker_inverse(np.diag([p, q, r]), M)
        parts = (becker_inverse(a * BASIS[0], M)
                 @ becker_inverse(b * BASIS[1], M)
                 @ becker_inverse(c * BASIS[2], M))
        assert np.linalg.norm(direct - parts) \
            <= 1e-10 * max(1.0, np.linalg.norm(direct))


def test_inverse_law_two_decompositions_agree():
    # a uniaxial load split symmetrically or into shears coaxial with
    # another load's split recovers the same stretch
    p = 1.3
    sym_parts = [p / 3.0 * np.diag([1.0, -1.0, 0.0]),
                 p / 3.0 * np.diag([1.0, 0.0, -1.0]),
                 p / 3.0 * np.eye(3)]
    coax_parts = [-2.0 * p / 3.0 * np.diag([-1.0, 1.0, 0.0]),
                  p / 3.0 * np.diag([0.0, 1.0, -1.0]),
                  p / 3.0 * np.eye(3)]
    u_sym = np.eye(3)
    for part in sym_parts:
        u_sym = u_sym @ becker_inverse(part, M)
    u_coax = np.eye(3)
    for part in coax_parts:
        u_coax = u_coax @ becker_inverse(part, M)
    np.testing.assert_allclose(u_sym, u_coax, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(u_sym,
                               becker_inverse(np.diag([p, 0.0, 0.0]), M),
                               rtol=1e-12, atol=1e-12)
