"""Verification suite: axioms, inequalities, path work, ladders."""

import json
import math

import numpy as np
import pytest

from logstrain.constitutive import becker_energy_nu0
from logstrain.moduli import Moduli
from logstrain.verify import (LoadPath, baker_ericksen_check, check_axioms,
                              converged_path_work, diagonal_path,
                              dilation_shear_cycle, format_reports,
                              hill_convexity_probe,
                              linearization_order_check, m_condition_check,
                              m_condition_paper_pair_value, ordered_force_check,
                              path_work, pk2_expansion_check,
                              principal_cauchy_stresses, random_spd, suite)

M = Moduli.from_g_lam(1.0, 0.5)
M0 = Moduli.from_g_lam(1.0, 0.0)


# ---------------------------------------------------------------------------
# axiom block

def test_axioms_pass_for_log_law():
    reports = check_axioms("becker", M, samples=300, seed=1)
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} >= {
        "stress_free_reference", "shear_to_shear", "sphere_to_dilation",
        "superposition", "isotropy", "power_law", "inversion_symmetry",
        "inverse_round_trip"}


def test_axioms_fail_for_finite_hooke():
    reports = check_axioms("hooke-biot", M, samples=300, seed=1)
    by_name = {r.name: r for r in reports}
    sup = by_name["superposition"]
    assert not sup.passed and not sup.expected
    assert sup.witness is not None and "u1" in sup.witness
    # the recorded witness re-evaluates standalone
    from logstrain.constitutive import hooke_biot
    u1 = np.array(sup.witness["u1"])
    u2 = np.array(sup.witness["u2"])
    lhs = hooke_biot(u1 @ u2, M)
    rhs = hooke_biot(u1, M) + hooke_biot(u2, M)
    assert np.linalg.norm(lhs - rhs) > 1e-6
    for name in ("power_law", "inversion_symmetry", "shear_to_shear"):
        assert not by_name[name].passed
        assert by_name[name].witness is not None
    for name in ("stress_free_reference", "sphere_to_dilation", "isotropy"):
        assert by_name[name].passed


def test_explicit_hooke_superposition_counterexample():
    # u1 = u2 = diag(2, 1, 1): T(u1 u2) != 2 T(u1) for the finite Hooke law
    from logstrain.constitutive import hooke_biot
    u = np.diag([2.0, 1.0, 1.0])
    lhs = hooke_biot(u @ u, M)
    rhs = 2.0 * hooke_biot(u, M)
    assert np.linalg.norm(lhs - rhs) > 0.5


def test_axiom_reports_deterministic():
    a = format_reports(check_axioms("becker", M, samples=100, seed=7))
    b = format_reports(check_axioms("becker", M, samples=100, seed=7))
    assert a == b
    c = format_reports(check_axioms("becker", M, samples=100, seed=8))
    assert a != c


# ---------------------------------------------------------------------------
# monotonicity

def test_m_condition_closed_form():
    for lam in (0.0, 0.5, 19.0, 25.0):
        m = Moduli.from_g_lam(1.0, lam)
        value = m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3), m)
        closed = 0.25 * math.log(2.0) * (20.0 * m.g - m.lam)
        assert value == pytest.approx(closed, abs=1e-12 * max(1.0,
                                                              abs(closed)))
        assert m_condition_paper_pair_value(m) \
            == pytest.approx(closed, rel=1e-15)


def test_m_condition_sign_flip():
    m25 = Moduli.from_g_lam(1.0, 25.0)
    assert m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3), m25) < 0.0
    m19 = Moduli.from_g_lam(1.0, 19.0)
    assert m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3), m19) > 0.0


def test_m_condition_positive_for_lam_zero(rng):
    for _ in range(300):
        u1, u2 = random_spd(rng), random_spd(rng)
        if np.linalg.norm(u1 - u2) < 1e-9:
            continue
        assert m_condition_check(u1, u2, M0) > 0.0


def test_m_condition_rejects_equal_arguments():
    u = np.diag([2.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        m_condition_check(u, u, M)


# ---------------------------------------------------------------------------
# Baker-Ericksen and ordered forces

def test_baker_ericksen_paper_counterexample():
    g = 2.3
    m = Moduli.from_g_lam(g, 0.7)
    lam = (1.0 / math.e, math.e ** -2, math.e ** 3)
    sigma = principal_cauchy_stresses(lam, m)
    assert sigma[0] == pytest.approx(-2.0 * g / math.e, abs=1e-12)
    assert sigma[1] == pytest.approx(-4.0 * g / math.e ** 2, abs=1e-12)
    report = baker_ericksen_check(np.diag(lam), m)
    assert not report.passed
    assert report.witness["violations"]


def test_baker_ericksen_vacuous_for_uniform():
    report = baker_ericksen_check(1.7 * np.eye(3), M)
    assert report.passed
    assert not report.witness["violations"]


def test_baker_ericksen_small_strain_passes():
    v = np.eye(3) + 1e-4 * np.diag([1.0, 2.0, 3.0])
    assert baker_ericksen_check(v, M).passed


def test_ordered_force_paper_stretches():
    lam = np.diag([1.0 / math.e, math.e ** -2, math.e ** 3])
    for m in (M, M0, Moduli.from_g_lam(1.0, 25.0)):
        assert ordered_force_check(lam, m).passed


def test_ordered_force_uniform_is_trivial():
    report = ordered_force_check(2.0 * np.eye(3), M)
    assert report.passed and not report.witness["violations"]


def test_ordered_force_random_sweep(rng):
    for _ in range(1000):
        assert ordered_force_check(random_spd(rng), M).passed


def test_ordered_force_requires_positive_shear_modulus():
    with pytest.raises(ValueError):
        ordered_force_check(np.eye(3), Moduli.from_g_lam(-1.0, 2.0))


# ---------------------------------------------------------------------------
# convexity probes

def test_hill_probe_finds_log_domain_violation():
    log_report, spd_report = hill_convexity_probe(M0, samples=500, seed=3)
    assert not log_report.passed          # violation found, as expected
    assert not log_report.expected
    w = log_report.witness
    assert w is not None
    # re-evaluate the witness standalone
    from logstrain.tensors import mat_exp
    x1, x2 = np.array(w["x1"]), np.array(w["x2"])
    mid = becker_energy_nu0(mat_exp(0.5 * (x1 + x2)), M0)
    avg = 0.5 * (becker_energy_nu0(mat_exp(x1), M0)
                 + becker_energy_nu0(mat_exp(x2), M0))
    assert mid > avg
    assert spd_report.passed              # convexity in the stretch itself


def test_no_check_runs_on_zero_samples():
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            check_axioms("becker", M, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            hill_convexity_probe(M0, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            suite("becker", M0, samples=samples)


def test_hill_probe_requires_lam_zero():
    with pytest.raises(ValueError):
        hill_convexity_probe(M, samples=10, seed=0)


def test_explicit_log_domain_violation():
    # coaxial pair in the concave region of x -> exp(x)(x - 1)
    x1 = np.diag([-4.0, 0.0, 0.0])
    x2 = np.diag([-2.0, 0.0, 0.0])
    from logstrain.tensors import mat_exp
    mid = becker_energy_nu0(mat_exp(0.5 * (x1 + x2)), M0)
    avg = 0.5 * (becker_energy_nu0(mat_exp(x1), M0)
                 + becker_energy_nu0(mat_exp(x2), M0))
    assert mid > avg


# ---------------------------------------------------------------------------
# path work

def test_constant_path_has_zero_work():
    f = np.diag([1.3, 0.9, 1.1])
    path = LoadPath(np.array([f] * 11), closed=True)
    assert path_work(path, "becker", M) == pytest.approx(0.0, abs=1e-14)


def test_closed_cycle_vanishes_for_lam_zero():
    work, _, converged = converged_path_work(
        dilation_shear_cycle(), "becker", M0, closed=True)
    assert converged
    assert abs(work) < 1e-6 * M0.g


def test_closed_cycle_nonzero_for_lam_equal_g():
    m = Moduli.from_g_lam(1.0, 1.0)
    work, _, converged = converged_path_work(
        dilation_shear_cycle(), "becker", m, closed=True)
    assert converged
    assert abs(work) > 1e-2 * m.g
    assert work == pytest.approx(m.lam * (4.0 - 6.0 * math.log(2.0)),
                                 abs=1e-8)


def test_open_path_matches_energy_difference():
    path = diagonal_path([(1.0, 1.0, 1.0), (1.6, 0.8, 1.2)])
    work, _, converged = converged_path_work(path, "becker", M0)
    delta = becker_energy_nu0(path(1.0), M0) - becker_energy_nu0(path(0.0),
                                                                 M0)
    assert converged
    assert abs(work - delta) < 1e-6 * M0.g


def test_rotating_closed_cycle_vanishes_for_lam_zero():
    # stretch and rotation both vary; energy is still a potential
    def f_of_t(t):
        ang = 2.0 * math.pi * t
        c, s = math.cos(ang), math.sin(ang)
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        stretch = np.diag([1.0 + 0.5 * math.sin(math.pi * t) ** 2,
                           1.0, 1.0 / (1.0 + 0.3 * math.sin(math.pi * t) ** 2)])
        return q @ stretch

    work, _, converged = converged_path_work(f_of_t, "becker", M0,
                                             closed=True)
    assert converged
    assert abs(work) < 1e-6 * M0.g


def test_path_validation():
    with pytest.raises(ValueError):
        path_work(LoadPath(np.array([np.eye(3)] * 2)), "becker", M)
    with pytest.raises(ValueError):
        LoadPath(np.array([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3)]))
    with pytest.raises(ValueError):
        LoadPath(np.array([np.eye(3), 2 * np.eye(3), 1.5 * np.eye(3)]),
                 closed=True)


# ---------------------------------------------------------------------------
# remainder ladders

def test_linearization_ladder_bounded(rng):
    eps = rng.standard_normal((3, 3))
    eps = 0.5 * (eps + eps.T)
    eps /= np.linalg.norm(eps)
    assert linearization_order_check(M, eps).passed
    assert linearization_order_check(M, np.diag([1.0, 0.0, 0.0])).passed


def test_ladder_zero_strain_trivially_passes():
    assert linearization_order_check(M, np.zeros((3, 3))).passed
    assert pk2_expansion_check(M, np.zeros((3, 3))).passed


def test_pk2_ladder_bounded(rng):
    eps = rng.standard_normal((3, 3))
    eps = 0.5 * (eps + eps.T)
    eps /= np.linalg.norm(eps)
    assert pk2_expansion_check(M, eps).passed


# ---------------------------------------------------------------------------
# the full suite

def test_suite_becker_all_as_expected():
    reports = suite("becker", M, samples=120, seed=2)
    for r in reports:
        assert r.passed == r.expected, r.name
    names = {r.name for r in reports}
    assert "m_condition_closed_form" in names
    assert "baker_ericksen_counterexample" in names
    assert "closed_cycle_work" in names


def test_suite_flags_monotonicity_loss_for_large_lam():
    m = Moduli.from_g_lam(1.0, 25.0)
    reports = suite("becker", m, samples=60, seed=2)
    by_name = {r.name: r for r in reports}
    pair = by_name["m_condition_paper_pair"]
    assert not pair.passed and not pair.expected  # violation, as predicted
    cycle = by_name["closed_cycle_work"]
    assert not cycle.passed and not cycle.expected


def test_suite_lam_zero_runs_hyperelastic_checks():
    reports = suite("becker", M0, samples=60, seed=2)
    names = {r.name for r in reports}
    assert {"hill_log_domain", "energy_convexity_spd", "closed_cycle_work",
            "open_path_energy_match", "m_condition_random"} <= names
    for r in reports:
        assert r.passed == r.expected, r.name


def test_failed_reports_carry_witnesses():
    reports = suite("hooke-biot", M, samples=60, seed=0)
    for r in reports:
        if not r.passed:
            assert r.witness is not None


def test_format_reports_json_lines():
    reports = suite("becker", M, samples=30, seed=0)
    lines = format_reports(reports)
    assert len(lines) == len(reports)
    for line in lines:
        obj = json.loads(line)
        assert {"name", "passed", "expected", "tolerance",
                "witness"} <= set(obj)


def test_suite_deterministic_bit_for_bit():
    a = format_reports(suite("becker", M, samples=50, seed=11))
    b = format_reports(suite("becker", M, samples=50, seed=11))
    assert a == b
