"""Verification suite: axioms, inequalities, path work, ladders."""

import json
import math
import warnings

import numpy as np
import pytest

from logstrain import verify
from logstrain.constitutive import (_LAWS, becker_energy_nu0,
                                    becker_inverse, stretch_stress)
from logstrain.moduli import Moduli
from logstrain.tensors import fro_norm, mat_pow
from logstrain.verify import (LoadPath, baker_ericksen_check, check_axioms,
                              converged_path_work, diagonal_path,
                              dilation_shear_cycle, format_reports,
                              hill_convexity_probe,
                              linearization_order_check, m_condition_check,
                              m_condition_paper_pair_value, ordered_force_check,
                              path_work, pk2_expansion_check,
                              principal_cauchy_stresses, random_rotation,
                              random_spd, suite)

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


@pytest.mark.parametrize("law", [tag for tag, row in _LAWS.items()
                                 if row.tensor is not None])
def test_expected_outcomes_come_from_the_law_table(law):
    row = _LAWS[law]
    reports = check_axioms(law, M, samples=50, seed=2)
    names = {r.name for r in reports}
    assert row.violates <= names
    assert ("inverse_round_trip" in names) == (
        law in ("becker", "hencky-kirchhoff", "hencky-cauchy"))
    for r in reports:
        assert r.expected == (r.name not in row.violates), r.name
        assert r.as_expected, r.name


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


def test_nonfinite_residual_fails_the_check():
    # lam = 1e307: the stresses overflow, so residuals come out NaN or inf
    with np.errstate(all="ignore"):
        reports = check_axioms("becker", Moduli.from_g_lam(1.0, 1e307),
                               samples=8)
    by_name = {r.name: r for r in reports}
    for name in ("sphere_to_dilation", "superposition", "isotropy",
                 "power_law", "inversion_symmetry"):
        assert not by_name[name].passed and by_name[name].expected, name
        assert by_name[name].witness is not None, name


def _reference_axioms(law, m, samples, seed):
    """check_axioms one matrix at a time: draw, evaluate, and keep the
    first sample with the largest residual."""
    t = lambda u: stretch_stress(law, u, m)
    rel = lambda err, *scales: err / max((1.0, *scales))
    misfit = lambda a, b: rel(fro_norm(a - b), fro_norm(a), fro_norm(b))
    logs = (math.log(0.05), math.log(20.0))

    def shear_to_shear(rng, i):
        alpha = math.exp(rng.uniform(*logs))
        s = t(np.diag([alpha, 1.0 / alpha, 1.0]))
        off = fro_norm(s - np.diag(np.diag(s)))
        return (rel(abs(s[2, 2]) + abs(s[0, 0] + s[1, 1]) + off,
                    fro_norm(s)), {"alpha": alpha, "stress": s})

    def sphere_to_dilation(rng, i):
        lam = math.exp(rng.uniform(*logs))
        s = t(lam * np.eye(3))
        return (rel(fro_norm(s - s[0, 0] * np.eye(3)), fro_norm(s)),
                {"lam": lam, "stress": s})

    def superposition(rng, i):
        l1, l2 = (np.exp(rng.uniform(*logs, 3)) for _ in range(2))
        q = random_rotation(rng)
        u1, u2 = q.T @ np.diag(l1) @ q, q.T @ np.diag(l2) @ q
        lhs, rhs = t(u1 @ u2), t(u1) + t(u2)
        return misfit(lhs, rhs), {"u1": u1, "u2": u2,
                                  "stress_of_product": lhs,
                                  "sum_of_stresses": rhs}

    def isotropy(rng, i):
        u, q = random_spd(rng), random_rotation(rng)
        return misfit(t(q.T @ u @ q), q.T @ t(u) @ q), {"u": u, "q": q}

    def power_law(rng, i):
        u, r = random_spd(rng, 0.1, 10.0), (-2.0, -0.5, 0.5, 2.0,
                                            math.pi)[i % 5]
        return misfit(t(mat_pow(u, r)), r * t(u)), {"u": u, "r": r}

    def inversion_symmetry(rng, i):
        u = random_spd(rng)
        return misfit(t(mat_pow(u, -1)), -t(u)), {"u": u}

    def inverse_round_trip(rng, i):
        u = random_spd(rng)
        back = becker_inverse(t(u), m)
        return rel(fro_norm(back - u), fro_norm(u)), {"u": u,
                                                      "round_trip": back}

    rng = np.random.default_rng([seed, 0])
    worst, witness = fro_norm(t(np.eye(3))), {"stress_at_identity":
                                              t(np.eye(3))}
    for _ in range(samples):
        u = random_spd(rng)
        if fro_norm(u - np.eye(3)) > 1e-6 and fro_norm(t(u)) == 0.0:
            worst, witness = math.inf, {"nonidentity_with_zero_stress": u}
            break
    reports = [verify.CheckReport("stress_free_reference",
                                  worst <= verify.AXIOM_TOL,
                                  verify.AXIOM_TOL, witness)]
    checks = [shear_to_shear, sphere_to_dilation, superposition, isotropy,
              power_law, inversion_symmetry]
    if law != "hooke-biot":
        checks.append(inverse_round_trip)
    for k, check in enumerate(checks, start=1):
        name = check.__name__
        rng = np.random.default_rng([seed, k])
        worst, witness = 0.0, None
        for i in range(samples):
            err, w = check(rng, i)
            if err > worst:
                worst, witness = err, w
        expected = name not in _LAWS[law].violates
        reports.append(verify.CheckReport(name, worst <= verify.AXIOM_TOL,
                                          verify.AXIOM_TOL, witness,
                                          expected))
    return reports


@pytest.mark.parametrize("law, lam, seed", [
    ("becker", 0.0, 3), ("becker", 0.5, 4), ("becker", 25.0, 5),
    ("hencky-kirchhoff", 0.5, 6), ("hooke-biot", 0.5, 7)])
def test_suite_axioms_equal_the_one_matrix_reference(law, lam, seed):
    m = Moduli.from_g_lam(1.0, lam)
    ref = format_reports(_reference_axioms(law, m, 16, seed))
    assert format_reports(suite(law, m, samples=16, seed=seed))[:len(ref)] \
        == ref


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


def test_path_rejects_nonfinite_gradients_up_front():
    g = np.array([np.eye(3)] * 5)
    g[3, 1, 2] = math.nan
    g[4, 0, 0] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="gradient 3 on the path is "
                                             "not finite"):
            LoadPath(g)


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


def test_open_path_report_records_the_quadrature(monkeypatch):
    by_name = {r.name: r for r in suite("becker", M0, samples=20, seed=2)}
    w = by_name["open_path_energy_match"].witness
    assert by_name["open_path_energy_match"].passed
    assert w["quadrature_converged"] is True and w["steps"] >= 384

    def unconverged(f_of_t, law, m, closed=False):
        delta = (becker_energy_nu0(f_of_t(1.0), m)
                 - becker_energy_nu0(f_of_t(0.0), m))
        return (0.0 if closed else delta), 6144, False

    monkeypatch.setattr(verify, "converged_path_work", unconverged)
    by_name = {r.name: r for r in suite("becker", M0, samples=20, seed=2)}
    report = by_name["open_path_energy_match"]
    assert not report.passed and report.expected
    assert report.witness["work"] == report.witness["energy_difference"]
    assert report.witness["steps"] == 6144
    assert report.witness["quadrature_converged"] is False


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_unconverged_closed_cycle_is_not_as_expected(monkeypatch, lam):
    m = Moduli.from_g_lam(1.0, lam)

    def unconverged(f_of_t, law, m, closed=False):
        predicted = m.lam * (4.0 - 6.0 * math.log(2.0))
        return predicted, 6144, False

    monkeypatch.setattr(verify, "converged_path_work", unconverged)
    by_name = {r.name: r for r in suite("becker", m, samples=20, seed=2)}
    report = by_name["closed_cycle_work"]
    assert report.expected == (lam == 0.0)
    assert not report.as_expected
    assert report.witness["quadrature_converged"] is False


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
