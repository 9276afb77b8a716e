"""Acceptance criteria, one test per criterion.

Each test prints a single ``[acceptance] ...: PASS`` line once its
assertions went through (run ``pytest -s tests/test_acceptance.py`` to see
them); a failing criterion shows up as an ordinary pytest failure instead
of the line.
"""

import math
import time

import numpy as np
import pytest

from logstrain import cli
from logstrain.constitutive import (becker_biot, becker_energy_nu0,
                                    becker_pk1, hencky_kirchhoff,
                                    incompressible_uniaxial_limit,
                                    uniaxial_response)
from logstrain.decomposition import (StressTriple, decompose_stress_additive,
                                     decompose_stretch_multiplicative)
from logstrain.constitutive import becker_inverse
from logstrain.fitting import dataset_from_rows, fit_dataset
from logstrain.kinematics import pure_shear_F, simple_glide_F
from logstrain.moduli import Moduli
from logstrain.shear_statics import (failure_criteria,
                                     pond_stress_components,
                                     traction_on_line)
from logstrain.stresses import StressState, stress_convert
from logstrain.tensors import fro_norm, mat_exp, mat_log
from logstrain.verify import (check_axioms, converged_path_work,
                              diagonal_path, dilation_shear_cycle,
                              linearization_order_check,
                              m_condition_check, pk2_expansion_check,
                              principal_cauchy_stresses, random_rotation,
                              random_spd)

M = Moduli.from_g_lam(1.25, 0.7)
M0 = Moduli.from_g_lam(1.25, 0.0)


def report(number, name):
    print(f"\n[acceptance] criterion {number:02d} ({name}): PASS")


def test_criterion_01_matrix_function_kernel():
    rng = np.random.default_rng(1001)
    n = 10_000
    start = time.perf_counter()
    worst_round, worst_iso = 0.0, 0.0
    for _ in range(n):
        a = random_spd(rng)
        log_a = mat_log(a)
        worst_round = max(worst_round,
                          fro_norm(mat_exp(log_a) - a) / fro_norm(a))
        q = random_rotation(rng)
        iso = fro_norm(mat_log(q.T @ a @ q) - q.T @ log_a @ q)
        worst_iso = max(worst_iso, iso / max(1.0, fro_norm(log_a)))
    elapsed = time.perf_counter() - start
    assert worst_round <= 1e-12, worst_round
    assert worst_iso <= 1e-12, worst_iso
    assert elapsed < 5.0, f"kernel too slow: {elapsed:.2f}s"
    report(1, "matrix-function kernel 1e4 SPD round trip + isotropy < 5s")


def test_criterion_02_axiom_suite():
    reports = {r.name: r for r in
               check_axioms("becker", M, samples=1000, seed=42)}
    for name in ("superposition", "isotropy", "power_law",
                 "inversion_symmetry", "inverse_round_trip"):
        rep = reports[name]
        assert rep.passed and rep.tolerance == 1e-10, name
    hooke = {r.name: r for r in
             check_axioms("hooke-biot", M, samples=1000, seed=42)}
    sup = hooke["superposition"]
    assert not sup.passed
    assert sup.witness is not None and "u1" in sup.witness
    report(2, "axiom suite at 1e-10, finite-Hooke superposition witness")


def test_criterion_03_closed_form_reproduction():
    atol = 1e-12
    # pure shear
    alpha = 2.0
    s = 2.0 * M.g * math.log(alpha)
    np.testing.assert_allclose(
        becker_biot(np.diag([alpha, 1 / alpha, 1.0]), M),
        np.diag([s, -s, 0.0]), atol=atol)
    # spherical
    lam = 1.6
    np.testing.assert_allclose(
        becker_biot(lam * np.eye(3), M),
        3.0 * M.k * math.log(lam) * np.eye(3), atol=atol)
    # uniaxial stretches
    q = 0.8
    lam_ax, lam_lat = uniaxial_response(q, M)
    assert abs(lam_ax - math.exp(q / M.e)) <= atol
    assert abs(lam_lat - math.exp(-M.nu * q / M.e)) <= atol
    assert uniaxial_response(q, M0)[1] == 1.0
    # incompressible limit
    assert abs(incompressible_uniaxial_limit(lam, M)
               - 3.0 * M.g * math.log(lam)) <= atol
    # glide first Piola stress
    for gamma in (0.5, 1.0, 2.0):
        lam1 = 0.5 * (math.sqrt(gamma ** 2 + 4.0) + gamma)
        s1 = becker_pk1(simple_glide_F(gamma), M)
        assert abs(s1[0, 1] - 2.0 * M.g * math.log(lam1)) <= atol
        assert abs(s1[1, 0] - 2.0 * M.g * math.log(lam1)) <= atol
    # Cauchy stress of a pure shear load
    s_load = 0.45
    state = StressState(np.diag([s_load, -s_load, 0.0]), "biot",
                        pure_shear_F(alpha))
    np.testing.assert_allclose(
        stress_convert(state, "cauchy").tensor,
        np.diag([alpha * s_load, -s_load / alpha, 0.0]), atol=atol)
    report(3, "closed forms exact to 1e-12")


def test_criterion_04_counterexamples():
    # monotonicity loss at the canonical pair
    for lam_c in (0.7, 25.0):
        m = Moduli.from_g_lam(1.0, lam_c)
        value = m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3), m)
        closed = 0.25 * math.log(2.0) * (20.0 * m.g - m.lam)
        assert abs(value - closed) <= 1e-12 * max(1.0, abs(closed))
    assert m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3),
                             Moduli.from_g_lam(1.0, 25.0)) < 0.0
    # Cauchy-ordering violation at strong compression
    g = 1.0
    m0 = Moduli.from_g_lam(g, 0.4)
    stretches = (1.0 / math.e, math.e ** -2, math.e ** 3)
    sigma = principal_cauchy_stresses(stretches, m0)
    assert abs(sigma[0] - (-2.0 * g / math.e)) <= 1e-12
    assert abs(sigma[1] - (-4.0 * g / math.e ** 2)) <= 1e-12
    assert (sigma[0] - sigma[1]) * (stretches[0] - stretches[1]) < 0.0
    # ordered forces hold on random stretches for G > 0
    from logstrain.verify import ordered_force_check
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        assert ordered_force_check(random_spd(rng), M).passed
    report(4, "monotonicity / Cauchy-ordering counterexamples, "
              "ordered forces")


def test_criterion_05_shear_statics():
    alphas = np.linspace(1.01, 10.0, 19)
    loads = (0.5, 1.0, 2.0)
    for alpha in alphas:
        for q in loads:
            xi, _, xieta = pond_stress_components(q, alpha)
            assert abs(xi) <= 1e-12
            assert abs(xieta - q) <= 1e-12
            phis = np.linspace(0.0, math.pi, 181)
            best_phi, best_t2 = None, -1.0
            for phi in phis:
                n = np.array([math.cos(phi), math.sin(phi), 0.0])
                dec = traction_on_line(q, alpha, n)
                assert abs(dec.r2 - q ** 2) <= 1e-12 * max(1.0, q ** 2)
                assert dec.t2 <= q ** 2 + 1e-12
                if dec.t2 > best_t2:
                    best_phi, best_t2 = phi, dec.t2
            pond_phi = math.atan2(1.0, alpha)
            grid = phis[1] - phis[0]
            assert min(abs(best_phi - pond_phi),
                       abs(best_phi - (math.pi - pond_phi))) <= grid
    for alpha in (0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        crit = failure_criteria(1.0, alpha)
        assert crit.becker < crit.mises < crit.tresca
    report(5, "pond stress, resultant-load constancy, tangential-load "
              "maximality, failure ordering")


def test_criterion_06_kirchhoff_relation():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        v = random_spd(rng)
        tau_h = hencky_kirchhoff(v, M)
        state = StressState(becker_biot(v, M), "biot", v)
        tau_b = stress_convert(state, "kirchhoff").tensor
        expected = v @ tau_h
        assert fro_norm(tau_b - expected) \
            <= 1e-10 * max(1.0, fro_norm(expected))
        lhs = fro_norm(tau_b - tau_h)
        rhs = fro_norm(v - np.eye(3)) * fro_norm(tau_h)
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12
    report(6, "Kirchhoff relation tau_B = V tau_H and difference bound")


def test_criterion_07_remainder_ladders():
    eps = np.array([[0.8, 0.25, -0.1], [0.25, -0.55, 0.3],
                    [-0.1, 0.3, 0.2]])
    eps /= fro_norm(eps)
    for check in (linearization_order_check, pk2_expansion_check):
        rep = check(M, eps)
        # one ratio per step h of the ladder (1e-2, 1e-3, 1e-4)
        assert list(rep.witness["ratios"]) == ["0.01", "0.001", "0.0001"]
        ratios = list(rep.witness["ratios"].values())
        assert rep.passed
        assert max(ratios) / min(ratios) < 4.0
    report(7, "linearization and PK2-expansion remainders are O(h^2)")


def test_criterion_08_hyperelasticity_dichotomy():
    cycle = dilation_shear_cycle()
    work0, _, conv0 = converged_path_work(cycle, "becker", M0, closed=True)
    assert conv0 and abs(work0) < 1e-6 * M0.g
    mg = Moduli.from_g_lam(M0.g, M0.g)
    work1, _, conv1 = converged_path_work(cycle, "becker", mg, closed=True)
    assert conv1 and abs(work1) > 1e-2 * mg.g
    # recorded derived witness: the loop work of this cycle is lam(4-6ln2)
    assert work1 == pytest.approx(mg.lam * (4.0 - 6.0 * math.log(2.0)),
                                  abs=1e-7)
    path = diagonal_path([(1.0, 1.0, 1.0), (1.8, 0.75, 1.25)])
    work_open, _, conv2 = converged_path_work(path, "becker", M0)
    delta = (becker_energy_nu0(path(1.0), M0)
             - becker_energy_nu0(path(0.0), M0))
    assert conv2 and abs(work_open - delta) < 1e-6 * M0.g
    report(8, "closed-cycle work dichotomy and open-path energy match")


def test_criterion_09_fit_self_consistency(tmp_path, capsys):
    g0 = 4.2674
    lams = np.linspace(0.55, 3.1, 40)
    rows = [(lam, 3.0 * g0 * math.log(lam)) for lam in lams]
    fit = fit_dataset(dataset_from_rows(rows, "uniaxial"),
                      "uniaxial-incompressible")
    assert abs(fit.g - g0) <= 1e-10 * g0
    degenerate = tmp_path / "flat.csv"
    degenerate.write_text("lambda,t\n1.0,0.2\n1.0,-0.2\n")
    code = cli.main(["fit", str(degenerate)])
    capsys.readouterr()
    assert code == 2
    report(9, "closed-form fit recovery at 1e-10, degenerate data exit 2")


def test_criterion_10_decompositions():
    rng = np.random.default_rng(1010)
    basis = (np.diag([-1.0, 1.0, 0.0]), np.diag([0.0, 1.0, -1.0]),
             np.eye(3))
    for _ in range(100):
        p, q, r = rng.uniform(-2.0, 2.0, 3)
        a, b, c = decompose_stress_additive(StressTriple(p, q, r))
        rec = a * basis[0] + b * basis[1] + c * basis[2]
        assert fro_norm(rec - np.diag([p, q, r])) <= 1e-12
        sp, sq, sr = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3))
        dec = decompose_stretch_multiplicative(sp, sq, sr)
        assert fro_norm(np.diag(dec.recompose())
                        - np.diag([sp, sq, sr])) <= 1e-12 * max(sp, sq, sr)
        # path independence of the recovered stretch
        direct = becker_inverse(np.diag([p, q, r]), M)
        parts = (becker_inverse(a * basis[0], M)
                 @ becker_inverse(b * basis[1], M)
                 @ becker_inverse(c * basis[2], M))
        assert fro_norm(direct - parts) \
            <= 1e-10 * max(1.0, fro_norm(direct))
    report(10, "decomposition recomposition exact, inverse-law path "
               "independence")
