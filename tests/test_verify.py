"""Verification suite: axioms, inequalities, path work, ladders."""

import ast
import importlib.util
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from logstrain import verify
from logstrain.constitutive import (_LAWS, becker_energy_nu0,
                                    becker_inverse, becker_pk2,
                                    linearized_law, pk1_for_law,
                                    stretch_stress)
from logstrain.errors import LogstrainError, NotPositiveDefinite
from logstrain.moduli import Moduli
from logstrain.tensors import fro_norm, mat_pow
from logstrain.verify import (CheckReport, LoadPath, baker_ericksen_check,
                              check_axioms, converged_path_work, diagonal_path,
                              dilation_shear_cycle, format_reports,
                              hill_convexity_probe,
                              linearization_order_check, m_condition_check,
                              m_condition_paper_pair_value, ordered_force_check,
                              path_work, pk2_expansion_check,
                              principal_cauchy_stresses, random_spd, suite)

from conftest import rotation_from_normals, spd_from_draws

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


def test_undecided_expected_violations_are_not_as_expected():
    # lam = 1.7e308: every finite-Hooke stress overflows, so the checks the
    # law is known to violate decide nothing; they are not reproduced
    # violations
    m = Moduli.from_g_lam(1.0, 1.7e308)
    by_name = {r.name: r for r in check_axioms("hooke-biot", m, samples=4)}
    assert _LAWS["hooke-biot"].violates == {
        "superposition", "power_law", "inversion_symmetry", "shear_to_shear"}
    for name in _LAWS["hooke-biot"].violates:
        report = by_name[name]
        assert "not finite" in report.witness["error"]
        assert report.passed and not report.expected
        assert not report.as_expected, name


@pytest.mark.parametrize("law", [tag for tag, row in _LAWS.items()
                                 if row.strain is not None])
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


_AXIOMS_AT_HUGE_LAM = ("sphere_to_dilation", "superposition", "isotropy",
                       "power_law", "inversion_symmetry")


def test_nonfinite_residual_fails_the_check():
    # lam = 5e307: the stresses overflow, so each check either gets a NaN
    # or infinite residual or catches the law's error; either fails it
    with np.errstate(all="ignore"):
        reports = check_axioms("becker", Moduli.from_g_lam(1.0, 5e307),
                               samples=8)
    by_name = {r.name: r for r in reports}
    for name in _AXIOMS_AT_HUGE_LAM:
        assert not by_name[name].passed and by_name[name].expected, name
        assert by_name[name].witness is not None, name


def test_axioms_hold_where_only_the_squares_overflow():
    # lam = 1e307: the stresses are finite, and the residual norms, scaled
    # by powers of two, do not overflow in their squares
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = check_axioms("becker", Moduli.from_g_lam(1.0, 1e307),
                               samples=8)
    by_name = {r.name: r for r in reports}
    assert all(by_name[name].passed for name in _AXIOMS_AT_HUGE_LAM)


def _reference_axioms(law, m, samples, seed):
    """check_axioms one matrix at a time: each check draws its raw numbers
    in the bulk layout of ``verify._draw`` (per group, one (samples, 3)
    uniform array per spectrum, then one (samples, 3, 3) normal array),
    builds each sample alone, evaluates it alone and keeps the first sample
    with the largest residual."""
    t = lambda u: stretch_stress(law, u, m)
    rel = lambda err, *scales: err / max((1.0, *scales))
    misfit = lambda a, b: rel(fro_norm(a - b), fro_norm(a), fro_norm(b))
    logs = (math.log(0.05), math.log(20.0))

    def spds(rng, lo=0.05, hi=20.0):
        spectra = rng.uniform(math.log(lo), math.log(hi), (samples, 3))
        z = rng.standard_normal((samples, 3, 3))
        return [spd_from_draws(s, x) for s, x in zip(spectra, z)]

    def shear_to_shear(rng):
        for alpha in np.exp(rng.uniform(*logs, samples)).tolist():
            s = t(np.diag([alpha, 1.0 / alpha, 1.0]))
            off = fro_norm(s - np.diag(np.diag(s)))
            yield (rel(abs(s[2, 2]) + abs(s[0, 0] + s[1, 1]) + off,
                       fro_norm(s)), {"alpha": alpha, "stress": s})

    def sphere_to_dilation(rng):
        for lam in np.exp(rng.uniform(*logs, samples)).tolist():
            s = t(lam * np.eye(3))
            yield (rel(fro_norm(s - s[0, 0] * np.eye(3)), fro_norm(s)),
                   {"lam": lam, "stress": s})

    def superposition(rng):
        l1, l2 = (rng.uniform(*logs, (samples, 3)) for _ in range(2))
        z = rng.standard_normal((samples, 3, 3))
        for a, b, x in zip(l1, l2, z):
            u1, u2 = spd_from_draws(a, x), spd_from_draws(b, x)
            lhs, rhs = t(u1 @ u2), t(u1) + t(u2)
            yield misfit(lhs, rhs), {"u1": u1, "u2": u2,
                                     "stress_of_product": lhs,
                                     "sum_of_stresses": rhs}

    def isotropy(rng):
        us = spds(rng)
        qs = [rotation_from_normals(x)
              for x in rng.standard_normal((samples, 3, 3))]
        for u, q in zip(us, qs):
            yield misfit(t(q.T @ u @ q), q.T @ t(u) @ q), {"u": u, "q": q}

    def power_law(rng):
        for i, u in enumerate(spds(rng, 0.1, 10.0)):
            r = (-2.0, -0.5, 0.5, 2.0, math.pi)[i % 5]
            yield misfit(t(mat_pow(u, r)), r * t(u)), {"u": u, "r": r}

    def inversion_symmetry(rng):
        for u in spds(rng):
            yield misfit(t(mat_pow(u, -1)), -t(u)), {"u": u}

    def inverse_round_trip(rng):
        for u in spds(rng):
            back = becker_inverse(t(u), m)
            yield rel(fro_norm(back - u), fro_norm(u)), {"u": u,
                                                         "round_trip": back}

    worst, witness = fro_norm(t(np.eye(3))), {"stress_at_identity":
                                              t(np.eye(3))}
    for u in spds(np.random.default_rng([seed, 0])):
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
        worst, witness = 0.0, None
        for err, w in check(np.random.default_rng([seed, k])):
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
    # the axiom block is one batch over all its checks; each check's
    # slice must still give the reports of one matrix at a time, also
    # when power_law has fewer samples than exponents
    m = Moduli.from_g_lam(1.0, lam)
    for samples in (1, 2, 5, 16):
        ref = format_reports(_reference_axioms(law, m, samples, seed))
        assert format_reports(suite(law, m, samples=samples,
                                    seed=seed))[:len(ref)] == ref, samples


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
            == pytest.approx(closed, rel=1e-15, abs=0)


def test_m_condition_pair_value_stays_finite_at_huge_g():
    # 4 ln 2 (1.25 G - lam / 16): the bits of ln(2)/4 (20 G - lam) wherever
    # that is finite, and finite itself up to G = 5.18e307
    pair = np.diag([2.0, 0.25, 1.0]), np.eye(3)
    for g, lam in ((1.0, 0.0), (2.3, 0.7), (1.0, 25.0), (3e-5, -1e-6),
                   (1e300, 1e301), (7e306, -2e306)):
        m = Moduli.from_g_lam(g, lam)
        assert m_condition_paper_pair_value(m) == \
            0.25 * math.log(2.0) * (20.0 * g - lam)
    mpmath = pytest.importorskip("mpmath")
    m = Moduli.from_g_lam(5e307, 0.0)
    with mpmath.workdps(40):
        exact = float(mpmath.log(2) * 5 * mpmath.mpf(m.g))
    assert m_condition_paper_pair_value(m) == pytest.approx(exact, rel=2e-16,
                                                            abs=0)
    assert m_condition_check(*pair, m) == pytest.approx(exact, rel=1e-12,
                                                        abs=0)
    # at G = 5.2e307 the value itself overflows
    m = Moduli.from_g_lam(5.2e307, 0.0)
    with pytest.raises(LogstrainError, match="result is not finite"):
        m_condition_paper_pair_value(m)
    with pytest.raises(LogstrainError, match="^m_condition_check: product "
                                             "is not finite at G = 5.2e"):
        m_condition_check(*pair, m)


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


_U1 = np.array([np.diag([2.0, 1.0, 0.5]), np.diag([1.5, 1.2, 0.8])])
_U2 = np.array([np.eye(3), np.diag([0.9, 1.1, 1.3])])


def _with(stack, k, member):
    out = stack.copy()
    out[k] = member
    return out


@pytest.mark.parametrize("u1, u2, m, error, message", [
    # each message names the member of u1 or of u2 by its own index
    (_with(_U1, 1, np.diag([1.0, math.nan, 1.0])), _U2, M, ValueError,
     "u has non-finite entries at index 1"),
    (_U1, _with(_U2, 1, np.diag([1.0, -1.0, 2.0])), M, NotPositiveDefinite,
     "mat_log: min eigenvalue -1 <= tolerance 2e-12 at index 1"),
    (_with(_U1, 1, np.diag([1e5, 1.0, 1.0])), _U2,
     Moduli.from_g_lam(1e307, 0.5), LogstrainError,
     "law 'becker': stress is not finite at G = 1e+307, lam = 0.5 "
     "at index 1"),
    (_U1, _with(_U2, 1, np.diag([1e5, 1.0, 1.0])),
     Moduli.from_g_lam(1e307, 0.5), LogstrainError,
     "law 'becker': stress is not finite at G = 1e+307, lam = 0.5 "
     "at index 1"),
    # u1's stresses are evaluated before u2's, whatever fails in u2
    (_with(_U1, 0, np.diag([1.0, -1.0, 2.0])),
     _with(_U2, 1, np.diag([1.0, 1.0, math.inf])), M, NotPositiveDefinite,
     "mat_log: min eigenvalue -1 <= tolerance 2e-12 at index 0"),
])
def test_m_condition_errors_name_their_own_member(u1, u2, m, error,
                                                  message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            m_condition_check(u1, u2, m)
    assert type(err.value) is error
    assert str(err.value) == message


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


@pytest.mark.parametrize("least", [-1.0, 1e-13, 0.0])
def test_stretch_checks_share_the_kernel_positivity_floor(least):
    # one rule: an eigenvalue at or below the floor of mat_log raises
    # NotPositiveDefinite, however far below it lies
    v = np.diag([2.0, 1.0, least])
    with pytest.raises(NotPositiveDefinite, match="^mat_log: min eigenvalue"):
        baker_ericksen_check(v, M)
    with pytest.raises(NotPositiveDefinite, match="^mat_log: min eigenvalue"):
        ordered_force_check(v, M)


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


@pytest.mark.parametrize("stretches", [
    [1.0, 2.0], [1.0, 2.0, 0.5, 1.0], np.ones((3, 2)), 2.0,
    [1.0, math.nan, 1.0]], ids=["2", "4", "3x2", "scalar", "nan"])
def test_principal_stresses_refuse_stretches_that_are_not_finite_triples(
        stretches):
    with pytest.raises(ValueError, match="^stretches must"):
        principal_cauchy_stresses(stretches, M)


def test_principal_stresses_of_a_stack_are_those_of_each_row():
    lam = np.array([[2.0, 1.0, 1.0], [1.5, 0.5, 1.2], [0.3, 4.0, 0.9]])
    got = principal_cauchy_stresses(lam, M)
    assert got.shape == (3, 3)
    assert np.array_equal(got, [principal_cauchy_stresses(x, M)
                                for x in lam])


def test_principal_stresses_that_overflow_raise():
    # the forces 2 G ln lam_k overflow at G = 5e307 for lam = e^3; at
    # G = 1e307 and (1, 1e-3, 1e-3) the forces are finite but the Cauchy
    # stress lam_k / J T_k is not
    with pytest.raises(LogstrainError, match="stress is not finite at "
                                             "G = 5e\\+307"):
        principal_cauchy_stresses([math.e ** 3, math.e ** -1, math.e ** -2],
                                  Moduli.from_g_lam(5e307, 0.0))
    with pytest.raises(LogstrainError, match="stress is not finite at "
                                             "G = 1e\\+307"):
        principal_cauchy_stresses([1.0, 1e-3, 1e-3],
                                  Moduli.from_g_lam(1e307, 0.0))
    m = Moduli.from_g_lam(8e307, 0.0)
    with pytest.raises(LogstrainError, match="stress is not finite at "
                                             "G = 8e\\+307"):
        ordered_force_check(np.diag([20.0, 1.0, 0.05]), m)
    # inside the suite both reports decide nothing
    by_name = {r.name: r for r in suite("becker", m, samples=8, seed=0)}
    for name in ("baker_ericksen_counterexample", "ordered_force_random"):
        assert "not finite" in by_name[name].witness["error"]
        assert not by_name[name].as_expected, name


def test_reduced_forces_stay_finite_where_2g_overflows():
    # 2 (G d) as the laws form it: at G = 1e308 the product 2 G is inf, but
    # 2 G (ln lam_i - ln lam_j)(lam_i - lam_j) is finite
    m = Moduli.from_g_lam(1e308, -6.6e307)
    lam = np.array([1.01, 1.0, 0.99])
    _, _, reduced, _, violated = verify._force_order(lam, m)
    i, j = np.array(verify._PAIRS).T
    logs = np.log(lam)
    want = 2.0 * (m.g * (logs[i] - logs[j])) * (lam[i] - lam[j])
    assert np.isfinite(reduced).all()
    assert np.array_equal(reduced, want)
    assert not violated.any()
    assert ordered_force_check(np.diag(lam), m).passed


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


@pytest.mark.parametrize("g", [1e-200, 1e-150, 1e-100, 1.0, 1e6])
def test_log_domain_margin_scales_with_g(g):
    # the margin tol * max(G, |w1|, |w2|) scales with the energies, which
    # are of order G; a floor of 1 hid every violation at tiny G
    log_report, spd_report = hill_convexity_probe(
        Moduli.from_g_lam(g, 0.0), samples=64, seed=0)
    assert log_report.as_expected and spd_report.as_expected
    assert log_report.witness["excess"] > 1e-10 * g


@pytest.mark.parametrize("g", [1.0, 1e-12, 1e-20])
def test_a_concave_energy_fails_the_spd_probe_at_every_g(g, monkeypatch):
    # the excess is taken relative to max(G, |w1|, |w2|), which scales with
    # the energies; a floor of 1 passed this concave energy from G = 1e-12
    monkeypatch.setattr(verify, "becker_energy_nu0", lambda u, m:
                        -m.g * np.sum(u * u, axis=(-2, -1)))
    _, spd_report = hill_convexity_probe(Moduli.from_g_lam(g, 0.0),
                                         samples=64, seed=0)
    assert not spd_report.passed and not spd_report.as_expected
    assert spd_report.witness["excess"] > 1e-10


@pytest.mark.parametrize("samples, seed, overflowing", [(16, 3, 2),
                                                        (64, 0, 1)])
def test_every_chord_is_judged_where_its_end_energies_sum_past_the_max(
        samples, seed, overflowing):
    # at G = 3e306 these draws hold SPD pairs whose finite end energies
    # sum past the largest float; the chord's midpoint is formed from
    # halves, so those pairs are judged too, without a warning
    m = Moduli.from_g_lam(3e306, 0.0)
    _, (u1, u2) = verify._draws(samples, seed, verify._HILL_STREAMS)
    w1, w2 = becker_energy_nu0(u1, m), becker_energy_nu0(u2, m)
    assert np.isfinite(w1).all() and np.isfinite(w2).all()
    with np.errstate(over="ignore"):
        assert np.isinf(w1 + w2).sum() == overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = hill_convexity_probe(m, samples=samples, seed=seed)
    assert [(r.undecided, r.as_expected) for r in reports] \
        == [(False, True)] * 2


def test_each_probe_is_undecided_only_by_its_own_energies():
    # at G = 5e306 some SPD energies overflow and no log-domain one does:
    # each probe makes its own energy call, so only the SPD probe decides
    # nothing, its message naming a member of its (u1, u2, midpoint) stack
    log_report, spd_report = hill_convexity_probe(
        Moduli.from_g_lam(5e306, 0.0), samples=64, seed=0)
    assert not log_report.undecided and log_report.as_expected
    assert spd_report.undecided and not spd_report.as_expected
    assert spd_report.witness["error"] == ("becker_energy_nu0: energy is not "
                                           "finite at G = 5e+306 at index 49")


def test_the_spd_probe_excess_is_nan_where_its_scale_is_infinite():
    excess = verify._rel(np.array([1.0, 1.0]), np.array([math.inf, 2.0]),
                         floor=1e-20)
    assert math.isnan(excess[0]) and excess[1] == 0.5
    assert verify._rel(np.array([1e-20]), np.array([0.0]),
                       floor=1e-20)[0] == 1.0


def test_no_check_runs_on_zero_samples():
    for samples in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_axioms("becker", M, samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            hill_convexity_probe(M0, samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            suite("becker", M0, samples=samples)
    # a count that is not an integer is refused, not rounded or compared
    for samples in (2.0, 1.5, math.nan, "3", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            check_axioms("becker", M, samples=samples)
        with pytest.raises(ValueError, match="samples must be an integer"):
            hill_convexity_probe(M0, samples=samples)
        with pytest.raises(ValueError, match="samples must be an integer"):
            suite("becker", M0, samples=samples)
    assert len(check_axioms("becker", M, samples=np.int64(2))) == 8


def test_hill_probe_requires_lam_zero():
    with pytest.raises(ValueError):
        hill_convexity_probe(M, samples=10, seed=0)


def test_suite_and_probe_read_lam_zero_as_the_energy_does():
    near = Moduli.from_g_lam(1.0, 1e-15)
    log_report, spd_report = hill_convexity_probe(near, samples=50, seed=3)
    assert spd_report.passed and not log_report.expected
    reports = suite("becker", near, samples=16, seed=0)
    names = [r.name for r in reports]
    assert names == [r.name for r in suite("becker", M0, samples=16)]
    assert len(names) == 20
    assert all(r.as_expected for r in reports), [
        r.name for r in reports if not r.as_expected]


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
                                 abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 25.0])
def test_cycle_work_witness_matches_the_paper(lam):
    m = Moduli.from_g_lam(1.0, lam)
    by_name = {r.name: r for r in suite("becker", m, samples=8, seed=0)}
    w = by_name["closed_cycle_work"].witness
    predicted = lam * (4.0 - 6.0 * math.log(2.0))
    assert w["quadrature_converged"] and w["steps"] == 96
    assert w["work_error"] == abs(w["work"] - predicted)
    assert w["work_error"] <= 1e-13 * max(1.0, abs(lam))


def test_diagonal_path_samples_its_corners_linearly():
    corners = [(1.0, 1.0, 1.0), (2.0, 0.7, 1.3), (0.9, 1.7, 1.1),
               (1.0, 1.0, 1.0)]
    f = diagonal_path(corners)
    for t in np.linspace(-0.1, 1.1, 241).tolist():
        # the formula of the sampler, from Python floats to np.diag
        x = min(max(t, 0.0), 1.0) * 3
        i = min(int(x), 2)
        w = x - i
        expected = np.diag([(1.0 - w) * a + w * b
                            for a, b in zip(corners[i], corners[i + 1])])
        got = f(t)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_default_tolerance_scales_with_the_larger_modulus():
    # the cycle's work is lam (4 - 6 ln 2): at lam = 1e307 it converges on
    # the first grid, as it does at lam of order G
    m = Moduli.from_g_lam(1.0, 1e307)
    work, n, converged = converged_path_work(dilation_shear_cycle(),
                                             "becker", m, closed=True)
    assert converged and n == 96
    # within the docstring's 1e-13 max(1, |lam|) of the closed form
    assert abs(work - 1e307 * (4.0 - 6.0 * math.log(2.0))) <= 1e-13 * 1e307


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


def _rotation(axis, angle):
    k = np.cross(np.eye(3), np.asarray(axis) / np.linalg.norm(axis))
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k


def _curved_open_path(t):
    # principal axes of U turn about x while the whole turns about z
    q = _rotation((1.0, 0.0, 0.0), 0.25 * math.pi * t)
    s = np.diag([1.0 + 0.6 * t, 1.0 - 0.3 * t * t,
                 1.0 + 0.2 * math.sin(0.5 * math.pi * t)])
    return _rotation((0.0, 0.0, 1.0), math.pi * t / 3.0) @ q @ s @ q.T


@pytest.mark.parametrize("law, lam", [("becker", 0.0),
                                      ("hencky-kirchhoff", 0.0),
                                      ("hencky-kirchhoff", 0.5)])
def test_curved_open_path_matches_the_energy(law, lam):
    # both laws are hyperelastic here; the energy at the end stretches
    # (1.6, 0.7, 1.2) in closed form
    m = Moduli.from_g_lam(1.0, lam)
    s = np.array([1.6, 0.7, 1.2])
    e = np.log(s)
    if law == "becker":
        energy = 2.0 * m.g * float(np.sum(s * e - s + 1.0))
    else:
        energy = (m.g * float(np.sum((e - e.mean()) ** 2))
                  + 0.5 * (m.lam + 2.0 * m.g / 3.0) * float(e.sum()) ** 2)
    work, n, converged = converged_path_work(_curved_open_path, law, m)
    assert converged and n == 96
    assert abs(work - energy) <= 1e-13


@pytest.mark.parametrize("c", [1.5, 2.0])
@pytest.mark.parametrize("law", ["becker", "hencky-kirchhoff"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_rotating_cycles_match_their_closed_forms(c, law, lam):
    # a full turn about a tilted axis while the stretch runs the diagonal
    # cycle of corner stretch c; the hencky law is hyperelastic, becker's
    # loop work is lam (2 (c - 1) ln c - 4 (c ln c - c + 1))
    m = Moduli.from_g_lam(1.0, lam)
    base = diagonal_path([(1.0, 1.0, 1.0), (c, 1.0, 1.0), (c, c, c),
                          (1.0, 1.0, 1.0)])

    def f_of_t(t):
        return _rotation((1.0, 2.0, 2.0), 2.0 * math.pi * t) @ base(t)

    lnc = math.log(c)
    closed = (lam * (2.0 * (c - 1.0) * lnc - 4.0 * (c * lnc - c + 1.0))
              if law == "becker" else 0.0)
    work, n, converged = converged_path_work(f_of_t, law, m, closed=True)
    assert converged and n == 96 and abs(work - closed) <= 1e-13
    work, _, converged = converged_path_work(f_of_t, law, m, closed=True,
                                             tol=1e-12)
    assert converged and abs(work - closed) <= 1e-13


def _segment_log_mean(a, b):
    # integral over [0, 1] of ln(a + t (b - a)), per component
    d = b - a
    safe = np.where(d == 0.0, 1.0, d)
    return np.where(d != 0.0, (b * np.log(b) - a * np.log(a)) / safe - 1.0,
                    np.log(a))


_SEVEN_SEGMENTS = np.array([
    (1.0, 1.0, 1.0), (1.5, 1.0, 1.0), (1.5, 1.3, 1.0), (1.8, 1.3, 1.2),
    (1.2, 1.6, 1.2), (1.0, 1.2, 1.4), (0.8, 1.0, 1.1), (1.0, 1.0, 1.0)])
_FOUR_SEGMENTS = np.array([(1.0, 1.0, 1.0), (1.7, 1.3, 1.8), (0.8, 1.4, 1.1),
                           (1.6, 0.9, 1.7), (1.0, 1.0, 1.0)])


def _loop_work(corners, lam):
    # becker's loop work along a closed diagonal path at G = 1: lam * sum
    # over the segments of (mean of ln J) * (change of tr U)
    return lam * sum(float(np.sum(_segment_log_mean(a, b)) * np.sum(b - a))
                     for a, b in zip(corners[:-1], corners[1:]))


def _per_node(corners):
    # the path of diagonal_path(corners) as a plain callable, which
    # converged_path_work samples on the 6 panels of t = k / 6
    path = diagonal_path(corners)
    return lambda t: path(t)


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_kinks_off_the_grid_do_not_read_as_converged(lam):
    # seven segments traced by a plain callable: the corners at t = k/7 lie
    # inside panels of the t = k/6 grid, where the rule converges only
    # algebraically
    m = Moduli.from_g_lam(1.0, lam)
    work, n, converged = converged_path_work(_per_node(_SEVEN_SEGMENTS),
                                             "becker", m, closed=True)
    assert not converged and n == 1536
    # the finest rule is still near the work, which it cannot certify
    assert abs(work - _loop_work(_SEVEN_SEGMENTS, lam)) < 1e-6


def test_kink_errors_cancelling_in_the_total_do_not_read_as_converged():
    # a random seven-segment cycle, traced by a plain callable, whose
    # kinked panels' estimates cancel in the total at N = 64 (2.4e-9
    # against tol = 1e-8), while one panel's is 4.4e-6: only the per-panel
    # test keeps it unconverged.  Stopped by the total alone, its work
    # would be 2.4e-6 off the closed form, 0
    corners = [(1.0, 1.0, 1.0), (1.1334, 1.3279, 0.9573),
               (1.7128, 1.0166, 0.8979), (1.6288, 1.0355, 0.9137),
               (1.6854, 1.1553, 1.6747), (1.565, 1.7014, 0.7699),
               (1.3649, 1.7937, 1.1882), (1.0, 1.0, 1.0)]
    f = _per_node(corners)
    g = np.array([f(t) for t in verify._rule(64)[0]])
    pk1 = pk1_for_law("becker", g, M0)
    works, error = verify._panel_works(g, pk1, 64)
    # the estimate is the rule of degree 32 on every other node, bit for bit
    coarse = works - verify._panel_works(g[::2], pk1[::2], 32)[0]
    assert np.array_equal(error.view(np.uint64), coarse.view(np.uint64))
    assert abs(np.sum(error)) < 1e-8 < 1e-6 < np.max(np.abs(error))
    assert abs(np.sum(works)) > 1e-6
    _, n, converged = converged_path_work(f, "becker", M0, closed=True)
    assert not converged and n == 1536


def test_a_three_segment_cycle_converges_on_the_first_rule():
    # its kinks at t = 1/3 and 2/3 lie on the panel grid t = k / 6, so the
    # first rule, 97 samples, meets the default tolerance
    corners = np.array([(1.0, 1.0, 1.0), (1.4, 0.8, 1.1), (0.9, 1.3, 1.2),
                        (1.0, 1.0, 1.0)])
    path = diagonal_path(corners)
    closed = _loop_work(corners, M.lam)
    for law, expected in (("becker", closed), ("hencky-kirchhoff", 0.0)):
        calls = []
        work, n, converged = converged_path_work(
            lambda t: calls.append(t) or path(t), law, M, closed=True)
        assert converged and n == 96 and len(calls) == 97
        assert abs(work - expected) <= 1e-13


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_a_four_segment_cycle_does_not_read_as_converged(lam):
    # traced by a plain callable, the kinks at t = 1/4 and 3/4 lie inside
    # panels of the t = k / 6 grid (on the former grid of t = k / 24 this
    # cycle converged at 192 steps)
    _, n, converged = converged_path_work(
        _per_node(_FOUR_SEGMENTS), "becker", Moduli.from_g_lam(1.0, lam),
        closed=True)
    assert not converged and n == 1536


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("corners, panels", [(_FOUR_SEGMENTS, 8),
                                             (_SEVEN_SEGMENTS, 7)],
                         ids=["four-segments", "seven-segments"])
def test_diagonal_cycles_take_panels_from_their_corners(corners, panels,
                                                        lam):
    # a diagonal path of k segments is integrated on the smallest multiple
    # of k panels that is at least 6, so its corners lie on the panel
    # boundaries and the first rule, N = 16 per panel, converges
    m = Moduli.from_g_lam(1.0, lam)
    work, n, converged = converged_path_work(diagonal_path(corners),
                                             "becker", m, closed=True)
    assert converged and n == 16 * panels
    assert abs(work - _loop_work(corners, lam)) <= 1e-14


def _exact_diagonal_work(corners, lam):
    # becker's work along a piecewise-linear diagonal path at G = 1, to 40
    # digits: the potential 2 sum (s ln s - s) plus lam times the integral
    # of ln J d(tr U), segment by segment
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for a, b in zip(corners[:-1], corners[1:]):
            a, b = [mpmath.mpf(x) for x in a], [mpmath.mpf(x) for x in b]
            for x, y in zip(a, b):
                total += 2 * (y * mpmath.log(y) - y - x * mpmath.log(x) + x)
            mean_log_j = sum(mpmath.log(x) if x == y else
                             (y * mpmath.log(y) - x * mpmath.log(x)) / (y - x)
                             - 1 for x, y in zip(a, b))
            total += lam * mean_log_j * sum(y - x for x, y in zip(a, b))
        return total


@pytest.mark.parametrize("lam", [0.0, 0.5, 25.0])
def test_diagonal_paths_meet_their_closed_forms_to_roundoff(lam):
    # within 1e-15 max(1, |lam|) on the first rule: on each panel the
    # differentiation matrix acts only on F's deviation from its chord
    # (without the chord, its roundoff puts the dilation cycle up to
    # 1.6e-15 off)
    m = Moduli.from_g_lam(1.0, lam)
    for corners, closed in (
            ([(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (2.0, 2.0, 2.0),
              (1.0, 1.0, 1.0)], True),
            ([(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)], False)):
        work, n, converged = converged_path_work(
            diagonal_path(corners), "becker", m, closed=closed)
        exact = _exact_diagonal_work(corners, lam)
        assert converged and n == 96
        assert float(abs(work - exact)) <= 1e-15 * max(1.0, abs(lam))


def test_path_validation():
    with pytest.raises(ValueError):
        path_work(LoadPath(np.array([np.eye(3)] * 2)), "becker", M)
    with pytest.raises(ValueError):
        LoadPath(np.array([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3)]))
    with pytest.raises(ValueError):
        LoadPath(np.array([np.eye(3), 2 * np.eye(3), 1.5 * np.eye(3)]),
                 closed=True)
    with pytest.raises(ValueError, match=r"shape \(n, 3, 3\)"):
        LoadPath(np.empty((0, 3, 3)), closed=True)
    for corners in ([(1.0, 1.0, 1.0)], [(1.0, 1.0), (2.0, 2.0)], []):
        with pytest.raises(ValueError, match="at least two diagonal"):
            diagonal_path(corners)


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


@pytest.mark.parametrize("g", [4e307, 8e307])
def test_ladder_ratios_that_overflow_are_scaled(g):
    # at lam = 0 the residuals are of order G h**2, so residual / h**2
    # overflows; the residuals are divided by one power of two first, and
    # the ladder passes as it does at G = 1e307
    report = pk2_expansion_check(Moduli.from_g_lam(g, 0.0), verify._LADDER_EPS)
    assert report.passed
    scale = report.witness["ratio_scale"]
    assert scale == math.ldexp(1.0, math.frexp(scale)[1] - 1) > 1.0
    ratios = list(report.witness["ratios"].values())
    assert all(math.isinf(r * scale) for r in ratios)
    assert max(ratios) / min(ratios) < verify.LADDER_FACTOR


def test_finite_ladder_ratios_keep_their_bits():
    # G = 1e307: ratios of 4.95e307, finite, so no scale and the plain
    # residual / h**2
    m = Moduli.from_g_lam(1e307, 0.0)
    eps = verify._LADDER_EPS
    report = pk2_expansion_check(m, eps)
    assert report.passed and "ratio_scale" not in report.witness
    for h, ratio in zip(verify.LADDER_H, report.witness["ratios"].values()):
        u = np.eye(3) + h * eps
        e = 0.5 * (u @ u - np.eye(3))
        residual = fro_norm(becker_pk2(u, m) - linearized_law(e, m))
        assert ratio == residual / h ** 2
    assert 4.9e307 < min(report.witness["ratios"].values())


@pytest.mark.parametrize("check", [linearization_order_check,
                                   pk2_expansion_check])
def test_ladder_rejects_non_finite_strain(check):
    # a NaN direction would give a NaN ladder that reads as a failed check
    eps = np.eye(3)
    eps[0, 1] = math.nan
    with pytest.raises(ValueError, match="^eps has non-finite entries$"):
        check(M, eps)


@pytest.mark.parametrize("check", [linearization_order_check,
                                   pk2_expansion_check])
def test_ladder_raises_for_a_stretch_below_the_floor(check):
    # I + 1e-2 eps has the eigenvalue -0.5; the first stretch of the
    # ladder raises, as becker_biot does at it
    with pytest.raises(NotPositiveDefinite) as err:
        check(M, np.diag([-150.0, 1.0, 0.5]))
    assert str(err.value) == ("mat_log: min eigenvalue -0.5 <= tolerance "
                              "1.01e-12")


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
    assert w["quadrature_converged"] is True and w["steps"] >= 96

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


def test_format_reports_writes_non_finite_witness_floats_as_strings():
    report = CheckReport("x", False, 1.0, witness={
        "a": math.inf, "b": [-math.inf, math.nan],
        "c": np.array([math.nan, 1.0]), "d": np.float64(math.inf)})
    line, = format_reports([report])
    assert json.loads(line)["witness"] == {
        "a": "inf", "b": ["-inf", "nan"], "c": ["nan", 1.0], "d": "inf"}


@pytest.mark.parametrize("g", [1e200, 1e300, 1e-200, 1e-300])
def test_suite_at_huge_and_tiny_g(g):
    # the residual norms are scaled by powers of two, so neither squares
    # that overflow (huge G) nor squares that underflow (tiny G) decide a
    # check; the log-domain convexity probe's margin floor scales with G
    reports = suite("becker", Moduli.from_g_lam(g, 0.0), samples=16, seed=3)
    assert [r.name for r in reports if not r.as_expected] == []


def test_suite_deterministic_bit_for_bit():
    a = format_reports(suite("becker", M, samples=50, seed=11))
    b = format_reports(suite("becker", M, samples=50, seed=11))
    assert a == b


def _handlers_catching(tree, name):
    """The functions of a module that hold an ``except`` handler whose
    type names ``name``, one entry per handler."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and any(isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(node.type)):
                found.append(fn.name)
    return found


def test_one_handler_catches_logstrain_error():
    # every check is evaluated on one path: the one handler is _run's,
    # which makes a check that raises undecided; nothing is caught to be
    # evaluated again another way
    tree = ast.parse(Path(verify.__file__).read_text())
    assert _handlers_catching(tree, "LogstrainError") == ["_run"]


def _calls_in(tree, function):
    """The names that the module-level function ``function`` of ``tree``
    calls, its nested functions included."""
    fn, = [n for n in tree.body
           if isinstance(n, ast.FunctionDef) and n.name == function]
    return {n.func.id for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_batch_errors_come_from_the_members_own_calls():
    # the batch mirrors no validation of its own: where its masks fail, a
    # member's error comes from the public calls it stands for
    tree = ast.parse(Path(verify.__file__).read_text())
    mirrored = {"_as_mats", "_require_floor", "_finite_values", "_finite"}
    assert not _calls_in(tree, "_answers") & mirrored
    assert {"mat_pow", "_tensor_law"} <= _calls_in(tree, "_answers")


def _reached(tree, function):
    """The module-level functions of ``tree`` that ``function`` names, its
    nested functions included, the functions they name in turn, and
    ``function`` itself."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [function]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n.id for n in ast.walk(defs[name])
                     if isinstance(n, ast.Name) and n.id in defs]
    return seen


def test_one_runner_makes_the_reports_and_the_draws():
    # every check list becomes reports in one place: only the runner
    # makes a report of a check and draws the checks' streams
    tree = ast.parse(Path(verify.__file__).read_text())
    functions = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    for called in ("_run", "_draws"):
        assert [f for f in functions
                if called in _calls_in(tree, f)] == ["_reports"], called
    # besides it, only the runner of a lone check and the ordered-force
    # check, whose tolerance depends on its stretch, build a report
    assert {f for f in functions if "CheckReport" in _calls_in(tree, f)} \
        == {"_run", "_alone", "ordered_force_check"}
    # the suite shares the single checks' judges: nothing it reaches
    # factorizes a stretch it already knows or runs a public single check
    reached = _reached(tree, "suite")
    assert not reached & {"baker_ericksen_check", "ordered_force_check"}
    assert not [f for f in reached if "eig_sym" in _calls_in(tree, f)]
    assert {"_baker_ericksen", "_force_order", "_force_witness"} <= reached


def _perfbench(name):
    # a module of the benchmark, read from its file
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_report_names_are_the_benchmarks():
    workload = _perfbench("workloads").CheckSuite
    for (law, g, lam), names in zip(workload.configs,
                                    workload.expected_names):
        reports = suite(law, Moduli.from_g_lam(g, lam), samples=1, seed=0)
        assert sorted(r.name for r in reports) == sorted(names), law


def test_the_tracers_labels_name_public_functions():
    # the benchmark's tracer wraps the public functions of each layer and
    # then looks up each of these labels, "<module>.<function>", among
    # them: a label whose function is gone or private ends a traced run
    # in a KeyError
    tracing = _perfbench("tracing")
    labels = [label for label, *_ in tracing.FUNCTIONS]
    for label in labels + [tracing.PATH_WORK, tracing.PK1]:
        layer, name = label.split(".")
        module = importlib.import_module(f"logstrain.{layer}")
        function = getattr(module, name, None)
        assert not name.startswith("_"), label
        assert inspect.isfunction(function), label
        assert function.__module__ == module.__name__, label
