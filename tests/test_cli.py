"""Command-line interface: commands, exit codes, CSV output."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logstrain import cli, verify
from logstrain import constitutive as laws
from logstrain.cli import build_parser, main
from logstrain.errors import LogstrainError
from logstrain.moduli import Moduli


_PAIR = ["--G", "1.3", "--lam", "0.7"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tensor_after(out, header):
    """Parse the 3x3 block printed right after the line containing header."""
    lines = out.splitlines()
    idx = next(i for i, line in enumerate(lines) if header in line)
    return np.array([[float(v) for v in lines[idx + 1 + k].split()]
                     for k in range(3)])


# ---------------------------------------------------------------------------
# stress

def test_stress_pure_shear_biot(capsys):
    code, out, _ = run(capsys, "stress", "--F", "diag(2,0.5,1)",
                       "--measure", "biot", "--G", "1", "--lam", "0.5")
    assert code == 0
    t = tensor_after(out, "stress (biot):")
    assert t[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12, abs=0.0)
    assert t[1, 1] == pytest.approx(-2.0 * math.log(2.0), rel=1e-12, abs=0.0)


def test_stress_glide_pk1(capsys):
    code, out, _ = run(capsys, "stress", "--glide", "1", "--G", "1",
                       "--lam", "0", "--measure", "pk1")
    assert code == 0
    t = tensor_after(out, "stress (pk1):")
    assert t[0, 1] == pytest.approx(2.0 * math.log(0.5 * (1 + math.sqrt(5))),
                                    rel=1e-12, abs=0.0)


def test_stress_trivial_shear_is_zero(capsys):
    code, out, _ = run(capsys, "stress", "--shear", "1", "--G", "1",
                       "--lam", "0.5")
    assert code == 0
    assert np.allclose(tensor_after(out, "stress (biot):"), 0.0, atol=1e-14)


def test_stress_rejects_bad_deformation(capsys):
    code, _, err = run(capsys, "stress", "--F", "1 2 3", "--G", "1",
                       "--lam", "0")
    assert code == 2
    assert "9 numbers" in err


def test_stress_rejects_missing_moduli(capsys):
    code, _, err = run(capsys, "stress", "--shear", "2")
    assert code == 2
    assert "pair" in err


@pytest.mark.parametrize("command", [
    ["check", "--samples", "4"],
    ["stress", "--law", "becker", "--F", "1 0 0 0 1 0 0 0 1"]])
def test_subnormal_moduli_exit_two(capsys, command):
    code, out, err = run(capsys, *command, "--G", "1e-320", "--lam", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: inadmissible moduli: G = 1e-320")


def test_stress_whose_parts_overflow_exits_two(capsys):
    # a finite Biot stress of 1.2e308 on two diagonal entries: its trace
    # overflows, so the spherical part cannot be printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "stress", "--F", "diag(6e307,6e307,1)",
                             "--law", "hooke-biot", "--G", "1", "--lam", "0")
    assert (code, out) == (2, "")
    assert err == ("error: the principal values or parts of the biot "
                   "stress are not finite\n")


def test_stress_at_lam_zero_has_no_spherical_term(capsys):
    # lam = 0: the linear law leaves out its spherical term on every path,
    # so the strain trace 2.4e308, which overflows, spoils no stress
    for g in (1.0, 0.25):
        m = Moduli.from_g_lam(g, 0.0)
        f = np.diag([8e307] * 3)
        t = laws.hooke_biot(f, m)
        assert t[0, 0] == 2.0 * g * (8e307 - 1.0)
        assert np.array_equal(laws.pk1_for_law("hooke-biot", f, m), t)
    # at G = 0.25 the printed stress and its parts are finite too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "stress", "--F",
                             "diag(8e307,8e307,8e307)", "--law", "hooke-biot",
                             "--measure", "biot", "--G", "0.25", "--lam", "0")
    assert (code, err) == (0, "")
    assert tensor_after(out, "stress (biot):") == pytest.approx(
        t, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv, message", [
    (["--shear", "2", "--glide", "1"], "give exactly one of --F, --shear, "
                                       "--glide"),
    ([], "give exactly one of --F, --shear, --glide"),
    (["--F", "diag(1, 2)"], "diag(...) needs exactly 3 values"),
], ids=["two", "none", "diag-of-two"])
def test_stress_rejects_a_deformation_it_cannot_read(capsys, argv, message):
    code, out, err = run(capsys, "stress", *argv, *_PAIR)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# invert

def test_invert_round_trip(capsys):
    code, out, _ = run(capsys, "invert", "--T", "0.5 -0.5 0 0 0 0",
                       "--G", "1", "--lam", "0.5")
    assert code == 0
    u = tensor_after(out, "stretch U")
    # printed with 12 significant digits, so compare at 1e-11
    np.testing.assert_allclose(
        np.diag(u), [math.exp(0.25), math.exp(-0.25), 1.0], rtol=1e-11)
    assert "round trip" in out


def test_invert_needs_six_numbers(capsys):
    code, out, err = run(capsys, "invert", "--T", "1 0 0 0 0", *_PAIR)
    assert (code, out) == (2, "")
    assert err == "error: --T needs 6 numbers: t11 t22 t33 t12 t13 t23\n"


def test_invert_overflow_exits_two(capsys):
    code, out, err = run(capsys, "invert", "--T", "1e4 0 0 0 0 0",
                         "--G", "1", "--lam", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: mat_exp: overflow at eigenvalue")


def test_invert_at_a_stress_near_the_largest_float(capsys):
    # an entry above 2**1023: the power of two that scales the round-trip
    # norms stays representable
    code, out, err = run(capsys, "invert", "--T", "1.5e308 0 0 0 0 0",
                         "--G", "1e307", "--lam", "0")
    assert (code, err) == (0, "")
    assert "round trip |biot(U) - T| / max(1, |T|) = 0\n" in out


# ---------------------------------------------------------------------------
# shear-statics

def test_shear_statics_report(capsys):
    code, out, _ = run(capsys, "shear-statics", "--Q", "1", "--alpha", "2")
    assert code == 0
    assert "sigma_m = 0.75" in out
    assert "sigma_xieta = 1" in out
    assert "ordering" in out


def test_shear_statics_rejects_alpha_below_one(capsys):
    code, _, err = run(capsys, "shear-statics", "--Q", "1", "--alpha", "1")
    assert code == 2
    assert "alpha" in err


def test_shear_statics_at_a_huge_ratio(capsys):
    # alpha**2 overflows from alpha ~ 1.34e154; sigma_eta and the
    # distortional value, both about Q alpha, do not
    code, out, err = run(capsys, "shear-statics", "--Q", "1", "--alpha",
                         "1e155")
    assert (code, err) == (0, "")
    assert "sigma_eta = 1e+155" in out
    assert "distortional = 1e+155" in out


@pytest.mark.parametrize("argv, code", [
    (["shear-statics", "--Q", "1", "--alpha", "1e6"], 0),
    (["shear-statics", "--Q", "1", "--alpha", "inf"], 2),
    (["shear-statics", "--Q", "1", "--alpha", "2", "--q-scale", "inf"], 2),
    (["decompose", "--loads", "5000", "0", "0", "--G", "1", "--lam", "1"], 2),
    (["decompose", "--stretch", "inf", "1", "1"], 2),
])
def test_statics_and_decompose_exit_zero_or_two(capsys, argv, code):
    # a closed form that overflows, or a non-finite input, is an input
    # error: one line on stderr, no traceback
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert err == ""
        assert "pond normal inclination psi = 1e-06 rad" in out
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "inf" not in out and "nan" not in out


# ---------------------------------------------------------------------------
# check

def test_check_becker_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--law", "becker", "--G", "1",
                       "--lam", "0", "--samples", "40", "--seed", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(obj["passed"] == obj["expected"] for obj in lines)


def test_check_large_lam_reports_violation_without_failing(capsys):
    code, out, _ = run(capsys, "check", "--law", "becker", "--G", "1",
                       "--lam", "25", "--samples", "40", "--seed", "3")
    assert code == 0
    by_name = {json.loads(l)["name"]: json.loads(l)
               for l in out.splitlines()}
    assert by_name["m_condition_paper_pair"]["passed"] is False
    assert by_name["m_condition_paper_pair"]["expected"] is False


def test_check_hooke_reports_superposition_failure(capsys):
    code, out, _ = run(capsys, "check", "--law", "hooke-biot", "--G", "1",
                       "--lam", "0.5", "--samples", "40", "--seed", "3")
    assert code == 0  # the failures are expected ones
    by_name = {json.loads(l)["name"]: json.loads(l)
               for l in out.splitlines()}
    assert by_name["superposition"]["passed"] is False
    assert by_name["superposition"]["witness"] is not None


def test_check_at_overflowing_moduli_fails_its_checks_quietly(capsys):
    # lam = 5e307: the stresses overflow.  The checks that meet an overflow
    # fail, with no numpy floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "1", "--lam", "5e307",
                             "--samples", "8")
    assert code == 1
    assert all(line.startswith("# ") for line in err.splitlines())
    by_name = {json.loads(l)["name"]: json.loads(l)
               for l in out.splitlines()}
    assert by_name["power_law"]["witness"] == {
        "error": "law 'becker': stress is not finite at G = 1, "
                 "lam = 5e+307 at index 3"}
    assert not by_name["power_law"]["passed"]
    # the stresses on the dilation cycle stay within a factor of 2 of
    # overflow, and its work lam (4 - 6 ln 2) converges on the first rule
    cycle = by_name["closed_cycle_work"]["witness"]
    assert cycle["quadrature_converged"] and cycle["steps"] == 96
    predicted = 5e307 * (4.0 - 6.0 * math.log(2.0))
    assert cycle["predicted_work"] == predicted
    assert cycle["work_error"] == abs(cycle["work"] - predicted)
    assert cycle["work_error"] <= 1e-13 * 5e307


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_check_lines_are_strict_json(capsys):
    # lam = 5e307: a finite work of order lam, and ladder ratios of order
    # lam that the scaled norm keeps finite; lam = 1.7e308: ratios above
    # the largest float, kept finite by dividing each ladder's residuals
    # by one power of two, its ratio_scale
    by_lam = {}
    for lam in ("5e307", "1.7e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "check", "--G", "1", "--lam", lam,
                               "--samples", "8")
        assert code == 1
        by_lam[lam] = by_name = {}
        for line in out.splitlines():
            report = json.loads(line, parse_constant=_strict)
            by_name[report["name"]] = report
    work = by_lam["5e307"]["closed_cycle_work"]["witness"]["work"]
    assert isinstance(work, float) and math.isfinite(work)
    for name in ("linearization_order", "pk2_expansion"):
        witness = by_lam["5e307"][name]["witness"]
        assert "ratio_scale" not in witness
        assert all(isinstance(r, float) and math.isfinite(r)
                   for r in witness["ratios"].values())
        report = by_lam["1.7e308"][name]
        scale = report["witness"]["ratio_scale"]
        assert scale == math.ldexp(1.0, math.frexp(scale)[1] - 1) > 1.0
        # every ratio times its scale is above the largest float
        assert all(isinstance(r, float) and math.isinf(r * scale)
                   for r in report["witness"]["ratios"].values())
        assert report["passed"]


def test_check_reports_a_path_work_that_overflows(capsys):
    # lam = 1.7e308: the path work raises on an overflowing stress; the
    # closed-cycle report carries that message and the run still prints
    # every report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "1", "--lam", "1.7e308",
                             "--samples", "2")
    assert code == 1
    assert all(line.startswith("# ") for line in err.splitlines())
    by_name = {}
    for line in out.splitlines():
        report = json.loads(line, parse_constant=_strict)
        by_name[report["name"]] = report
    cycle = by_name["closed_cycle_work"]
    assert cycle["passed"] and not cycle["expected"]
    assert cycle["witness"] == {"error": "law 'becker': stress is not "
                                "finite at G = 1, lam = 1.7e+308 at index 39"}
    assert list(by_name)[-2:] == ["linearization_order", "pk2_expansion"]


def test_check_at_lam_zero_and_huge_g_reports_every_check(capsys):
    # G = 5e307, lam = 0: the random monotonicity pairs and the convexity
    # probes meet stresses and energies that overflow; each of those
    # reports comes out not as expected with the error as its witness, and
    # the run prints every report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "5e307", "--lam", "0",
                             "--samples", "4")
    assert code == 1
    assert all(line.startswith("# ") for line in err.splitlines())
    by_name = {}
    for line in out.splitlines():
        report = json.loads(line, parse_constant=_strict)
        by_name[report["name"]] = report
    assert list(by_name)[-2:] == ["linearization_order", "pk2_expansion"]
    for name in ("m_condition_random", "hill_log_domain",
                 "energy_convexity_spd", "baker_ericksen_counterexample"):
        report = by_name[name]
        assert report["passed"] != report["expected"]
        assert "not finite at G = 5e+307" in report["witness"]["error"]
    # the open path's end energy, 4.8e307, is finite, and so is the pair's
    # closed form ln 2 (5 G) = 1.7e308
    assert by_name["open_path_energy_match"]["passed"]
    closed_form = by_name["m_condition_closed_form"]
    assert closed_form["passed"]
    assert closed_form["witness"]["closed_form"] == pytest.approx(
        5.0 * math.log(2.0) * 5e307, rel=1e-15, abs=0.0)


def test_check_at_lam_zero_and_g_8e307_prints_every_report(capsys):
    # G = 8e307: the pair's monotonicity product raises as well; every
    # report of the lam = 0 suite is still printed, and the run exits 1
    names = [r.name for r in verify.suite("becker", Moduli.from_g_lam(
        1.0, 0.0), samples=2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "8e307", "--lam", "0",
                             "--samples", "2")
    assert code == 1
    assert all(line.startswith("# ") for line in err.splitlines())
    reports = [json.loads(line, parse_constant=_strict)
               for line in out.splitlines()]
    assert [r["name"] for r in reports] == names
    for r in reports:
        if "error" in (r["witness"] or {}):
            assert r["passed"] != r["expected"], r["name"]
    by_name = {r["name"]: r for r in reports}
    assert "error" in by_name["m_condition_closed_form"]["witness"]


def test_check_names_undecided_reports_on_stderr(capsys):
    # G = 8e307, lam = 0: an expected violation that could not be
    # evaluated is named as undecided with its message, not as passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "8e307", "--lam", "0",
                             "--samples", "2")
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    lines = err.splitlines()
    assert not any("passed" in line for line in lines)
    undecided = [f"# UNDECIDED: {r['name']}: {r['witness']['error']}"
                 for r in reports if "error" in (r["witness"] or {})]
    assert lines[:len(undecided)] == undecided
    assert "# UNDECIDED: baker_ericksen_counterexample: law 'becker': " \
           "stress is not finite at G = 8e+307, lam = 0" in lines
    assert "# UNDECIDED: hill_log_domain: becker_energy_nu0: energy is " \
           "not finite at G = 8e+307 at index 0" in lines
    # pk2_expansion's ratios overflow; they are scaled, and it passes
    assert lines[len(undecided):] == []


def test_check_axiom_errors_name_each_checks_own_member(capsys):
    # the batched law call of the axiom block overflows; each check is then
    # evaluated alone, so its message names the member of its own call
    code, out, _ = run(capsys, "check", "--G", "8e307", "--lam", "0",
                       "--samples", "2")
    assert code == 1
    error = "law 'becker': stress is not finite at G = 8e+307, lam = 0"
    witnesses = {json.loads(line)["name"]: json.loads(line)["witness"]
                 for line in out.splitlines()}
    axioms = ["stress_free_reference", "shear_to_shear", "sphere_to_dilation",
              "superposition", "isotropy", "power_law", "inversion_symmetry",
              "inverse_round_trip"]
    assert {name: witnesses[name] for name in axioms} == {
        name: {"error": error + (" at index 1" if name == "power_law"
                                 else " at index 0")} for name in axioms}


def test_check_reports_every_check_where_2g_overflows(capsys):
    # G = 1e308, lam = -6.6e307: 2 G overflows, 2 G e need not; every
    # report of the becker suite at lam != 0 is printed
    names = [r.name for r in verify.suite("becker", Moduli.from_g_lam(
        1.0, 0.5), samples=2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--G", "1e308", "--lam",
                             "-6.6e307", "--samples", "2")
    assert code in (0, 1)
    assert all(line.startswith("# ") for line in err.splitlines())
    reports = [json.loads(line, parse_constant=_strict)
               for line in out.splitlines()]
    assert [r["name"] for r in reports] == names


def test_check_reports_a_ladder_whose_linear_law_raises(capsys, monkeypatch):
    # a ladder is a report like every other check: an error on its way is
    # its witness, and the run goes on
    def refused(eps, m):
        raise LogstrainError("refused")

    monkeypatch.setattr(verify, "linearized_law", refused)
    code, out, err = run(capsys, "check", "--G", "1", "--lam", "0.5",
                         "--samples", "2")
    assert code == 1
    by_name = {json.loads(l)["name"]: json.loads(l)
               for l in out.splitlines()}
    for name in ("linearization_order", "pk2_expansion"):
        report = by_name[name]
        assert report["witness"] == {"error": "refused"}
        assert report["passed"] != report["expected"]
        assert f"# UNDECIDED: {name}: refused" in err.splitlines()


def test_huge_cycle_work_converges_on_the_first_grid(capsys):
    # lam = 1e307: the work is finite and of order lam, so the default
    # tolerance scales with lam too and the first grid meets it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "check", "--G", "1", "--lam", "1e307",
                           "--samples", "8")
    assert code == 1
    by_name = {json.loads(l)["name"]: json.loads(l)
               for l in out.splitlines()}
    cycle = by_name["closed_cycle_work"]["witness"]
    assert cycle["steps"] == 96 and cycle["quadrature_converged"]


def test_check_at_a_lam_the_energy_reads_as_zero(capsys):
    # the lam = 0 energy takes |lam| <= 1e-14 max(1, |G|) as zero, so the
    # suite runs its lam = 0 checks there too and expects zero cycle work
    code, out, err = run(capsys, "check", "--G", "1", "--lam", "1e-15",
                         "--samples", "16")
    lines = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (0, "")
    assert len(lines) == 20
    assert all(r["passed"] == r["expected"] for r in lines)
    assert {"m_condition_random", "hill_log_domain",
            "open_path_energy_match"} <= {r["name"] for r in lines}


def test_check_zero_samples_exits_two(capsys):
    code, out, err = run(capsys, "check", "--G", "1", "--lam", "0",
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert "samples must be at least 1" in err


# ---------------------------------------------------------------------------
# decompose

def test_decompose_loads(capsys):
    code, out, _ = run(capsys, "decompose", "--loads", "1", "2", "3",
                       "--G", "1", "--lam", "0.5")
    assert code == 0
    assert "1 * diag(-1, 1, 0)  +  -1 * diag(0, 1, -1)  +  2 * I" in out
    assert "recomposed stretch" in out


def test_decompose_stretch(capsys):
    code, out, _ = run(capsys, "decompose", "--stretch", "2", "0.5", "1")
    assert code == 0
    assert "dilation 1 * I" in out


def test_decompose_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "decompose", "--loads", "1", "2", "3",
                       "--stretch", "1", "1", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# fit

def test_fit_synthetic(capsys, tmp_path):
    g0 = 0.435 * 9.81
    lams = np.linspace(0.6, 3.0, 30)
    lines = ["lambda,t"] + [f"{lam},{3.0 * g0 * math.log(lam)}"
                            for lam in lams]
    data = tmp_path / "synthetic.csv"
    data.write_text("\n".join(lines) + "\n")
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "fit", str(data), "--mode",
                       "uniaxial-incompressible", "--out", str(out_csv),
                       "--laws", "hencky", "neo-hooke")
    assert code == 0
    fitted = float(out.splitlines()[1].split("=")[1])
    assert fitted == pytest.approx(g0, rel=1e-10, abs=0.0)
    header, first, *rest = out_csv.read_text().splitlines()
    assert header == "lambda,fit,hencky,neo-hooke"
    assert len(rest) + 1 == 200


def test_fit_hyper_mode(capsys, tmp_path):
    g0 = 2.2
    lams = np.linspace(0.7, 2.4, 12)
    lines = ["lambda,t"] + [
        f"{lam},{g0 * math.log(lam) * (2.0 + lam ** -1.5)}" for lam in lams]
    data = tmp_path / "hyper.csv"
    data.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit", str(data), "--mode", "uniaxial-hyper")
    assert code == 0
    fitted = float(out.splitlines()[1].split("=")[1])
    assert fitted == pytest.approx(g0, rel=1e-8, abs=0.0)


def test_check_exit_one_on_unexpected_failure(capsys, monkeypatch):
    from logstrain.verify import CheckReport

    def broken_suite(law, m, samples=0, seed=0):
        return [CheckReport(name="stub", passed=False, tolerance=1e-10,
                            witness={"reason": "stub"}, expected=True)]

    monkeypatch.setattr("logstrain.verify.suite", broken_suite)
    code, out, err = run(capsys, "check", "--law", "becker", "--G", "1",
                         "--lam", "0")
    assert code == 1
    assert "FAILED: stub" in err


def test_fit_degenerate_exits_two(capsys, tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("lambda,t\n1.0,0.0\n1.0,0.1\n")
    code, _, err = run(capsys, "fit", str(data))
    assert code == 2
    assert "undetermined" in err


def test_fit_nan_row_exits_two(capsys, tmp_path):
    data = tmp_path / "nan.csv"
    data.write_text("lambda,t\n1.2,0.5\n1.5,nan\n2.0,1.9\n")
    code, out, err = run(capsys, "fit", str(data))
    assert code == 2
    assert "fitted" not in out
    assert err.startswith("error:") and "row 2" in err


def test_fit_at_one_abscissa_writes_one_curve_row(capsys, tmp_path):
    data = tmp_path / "one.csv"
    data.write_text(f"lambda,t\n{math.e!r},3\n{math.e!r},3\n")
    code, out, err = run(capsys, "fit", str(data), "--out", "-",
                         "--laws", "becker")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "fitted G = 1"
    i = lines.index("lambda,fit,becker")
    assert lines[i + 1:] == ["2.71828182846,3,3", "curve written to -"]


@pytest.mark.parametrize("text, message", [
    (b"G 1\n", "expected key=value"),
    (b"G = 1\nmu = 2\n", "unknown key 'mu'"),
    (b"lambda = 0\nG = abc\n", "{cfg}:2: G: expected a number, got 'abc'"),
    (b"G = 1\nlambda = 0\ng = 2\n",
     "{cfg}:3: key 'g' is already set at {cfg}:1"),
    (b"G = 1\xff\nlambda = 0\n", "{cfg}: not UTF-8 text ("),
], ids=["no-equals", "unknown-key", "not-a-number", "key-twice",
        "not-utf8"])
def test_bad_config_line_exits_two(capsys, tmp_path, text, message):
    cfg = tmp_path / "card.cfg"
    cfg.write_bytes(text)
    code, out, err = run(capsys, "stress", "--shear", "2", "--config",
                         str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:") and message.format(cfg=cfg) in err


_CURVE = b"lambda,t\n1.2,0.5\n1.5,1.2\n"


@pytest.mark.parametrize("argv, text", [
    (["fit", "FILE", "--out", "-"], _CURVE),
    (["stress", "--shear", "2", "--config", "FILE"], b"G = 1\nlambda = 0\n"),
], ids=["data", "config"])
def test_a_byte_order_mark_is_not_part_of_the_file(capsys, tmp_path, argv,
                                                   text):
    # spreadsheet tools start a UTF-8 file with one
    outputs = []
    for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        path = tmp_path / name
        path.write_bytes(data)
        outputs.append(run(capsys, *(str(path) if a == "FILE" else a
                                     for a in argv)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("argv, data, message", [
    (["stress", "--F", "1,x,0,0,1,0,0,0,1", *_PAIR], _CURVE,
     "--F: expected a number, got 'x'"),
    (["stress", "--F", "diag(1,y,1)", *_PAIR], _CURVE,
     "--F: expected a number, got 'y'"),
    (["invert", "--T", "1,2,3,4,5,z", *_PAIR], _CURVE,
     "--T: expected a number, got 'z'"),
    (["plot-data", "--figure", "tension", "--ogden-mu", "1,q",
      "--ogden-alpha", "2,-2", *_PAIR], _CURVE,
     "--ogden-mu: expected a number, got 'q'"),
    (["plot-data", "--figure", "simple-shear", "--ogden-mu", "1,2",
      "--ogden-alpha", "2,r", *_PAIR], _CURVE,
     "--ogden-alpha: expected a number, got 'r'"),
    (["fit", "DATA"], b"lambda,t\n# comment\n1.2,0.5\n1.1,abc\n",
     "{data}: data row 2: expected two numbers, got ['1.1', 'abc']"),
    (["fit", "DATA", "--out", "-"], b"lambda,t\nx,0.5\n",
     "{data}: data row 1: expected two numbers, got ['x', '0.5']"),
    (["fit", "DATA"], b"lambda,t\n1.2,0.5\n\xff1.5,1.2\n",
     "{data}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
     "position 17: invalid start byte)"),
], ids=["F", "F-diag", "T", "ogden-mu", "ogden-alpha", "data-cell",
        "data-abscissa", "data-not-utf8"])
def test_unreadable_input_names_its_source(capsys, tmp_path, argv, data,
                                           message):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    argv = [str(path) if a == "DATA" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message.format(data=path)}\n")


@pytest.mark.parametrize("points", [0, -3])
@pytest.mark.parametrize("argv", [
    ["plot-data", "--figure", "tension", *_PAIR],
    ["plot-data", "--figure", "simple-shear", "--out", "OUT", *_PAIR],
    ["fit", "DATA", "--out", "-"],
    ["fit", "DATA", "--out", "OUT"],
    ["fit", "DATA"],
], ids=["plot-stdout", "plot-file", "fit-stdout", "fit-file", "fit-no-out"])
def test_fewer_than_one_point_exits_two_before_any_output(capsys, tmp_path,
                                                          argv, points):
    data, curve = tmp_path / "data.csv", tmp_path / "curve.csv"
    data.write_bytes(_CURVE)
    argv = [{"DATA": str(data), "OUT": str(curve)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--points", str(points))
    assert (code, out) == (2, "")
    assert err == f"error: --points must be at least 1, got {points}\n"
    assert not curve.exists()


def test_fit_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == 2


def test_fit_to_an_unwritable_curve_prints_nothing(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("lambda,t\n1.5,1.2\n2.0,2.1\n")
    code, out, err = run(capsys, "fit", str(data), "--out",
                         str(tmp_path / "missing" / "curve.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# plot-data

def test_plot_simple_shear_zero_row(capsys):
    code, out, _ = run(capsys, "plot-data", "--figure", "simple-shear",
                       "--G", "1", "--lam", "0", "--points", "5",
                       "--max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,becker,hencky,neo_hooke"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0]
    last = dict(zip(lines[0].split(","),
                    (float(v) for v in lines[-1].split(","))))
    lam1 = 0.5 * (math.sqrt(2.0 ** 2 + 4.0) + 2.0)
    assert last["becker"] == pytest.approx(2.0 * math.log(lam1), rel=1e-11,
                                           abs=0.0)
    assert last["neo_hooke"] == pytest.approx(2.0, rel=1e-11, abs=0.0)


def test_plot_incompressible_becker_column(capsys):
    code, out, _ = run(capsys, "plot-data", "--figure", "incompressible",
                       "--G", "2", "--lam", "0", "--min", str(math.e),
                       "--max", str(math.e), "--points", "1")
    assert code == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    vals = dict(zip(cols, (float(v) for v in lines[1].split(","))))
    assert vals["becker"] == pytest.approx(3.0 * 2.0, rel=1e-12, abs=0.0)


def test_plot_tension_hooke_slope(capsys):
    m_e = 9.0 * 1.1666666666666665 * 1.0 / (3.0 * 1.1666666666666665 + 1.0)
    h = 1e-6
    code, out, _ = run(capsys, "plot-data", "--figure", "tension",
                       "--G", "1", "--lam", "0.5", "--min", str(1 - h),
                       "--max", str(1 + h), "--points", "2")
    assert code == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    lo = dict(zip(cols, (float(v) for v in lines[1].split(","))))
    hi = dict(zip(cols, (float(v) for v in lines[2].split(","))))
    slope_hooke = (hi["hooke"] - lo["hooke"]) / (2 * h)
    slope_becker = (hi["becker"] - lo["becker"]) / (2 * h)
    assert slope_hooke == pytest.approx(m_e, rel=1e-9, abs=0.0)
    assert slope_becker == pytest.approx(m_e, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("figure", ["tension", "incompressible",
                                    "simple-shear"])
@pytest.mark.parametrize("bound", ["--min", "--max"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_plot_rejects_a_bound_that_is_not_finite(capsys, figure, bound,
                                                 value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "plot-data", "--figure", figure,
                             "--G", "1", "--lam", "0.5", f"{bound}={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: {bound} must be finite, got {float(value)}\n"


def test_plot_unknown_figure_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["plot-data", "--figure", "bogus", "--G", "1", "--lam", "0"])
    assert exc.value.code == 2


_OGDEN = ["--ogden-mu", "0.5,0.1", "--ogden-alpha", "2,-2"]


def test_plot_columns_equal_their_per_point_values(capsys):
    # each column is one call on the whole abscissa array; the reference
    # evaluates every point alone
    m = Moduli.from_g_lam(1.3, 0.5)
    ogden = laws.LawId("ogden", mu=(0.5, 0.1), alpha=(2.0, -2.0))
    xs = {"simple-shear": np.linspace(0.0, 3.5, 41),
          "incompressible": np.linspace(0.5, 3.0, 41),
          "tension": np.linspace(0.5, 3.0, 41)}
    columns = {
        "simple-shear": [
            lambda x, law=law: laws.simple_shear_sigma12(law, x, m)
            for law in ("becker", "hencky-kirchhoff", "neo-hooke", ogden)],
        "incompressible": [lambda x, form=form: form(x, m.g)
                           for form in cli._INCOMPRESSIBLE.values()],
        "tension": [
            lambda x, law=law: laws._LAWS[getattr(law, "tag", law)].uniaxial(
                x, m.e, m.g, law)
            for law in ("becker", "hooke-biot", "neo-hooke", ogden)],
    }
    for figure, forms in columns.items():
        ogden_flags = [] if figure == "incompressible" else _OGDEN
        code, out, _ = run(capsys, "plot-data", "--figure", figure,
                           "--points", "41", "--G", "1.3", "--lam", "0.5",
                           *ogden_flags)
        assert code == 0
        expected = [",".join(cli._fmt(v) for v in [x, *(f(x) for f in forms)])
                    for x in xs[figure].tolist()]
        assert out.splitlines()[1:] == expected, figure


def test_plot_evaluates_each_column_once(capsys, monkeypatch):
    calls = []
    glide = laws.simple_shear_sigma12

    def counting(*args):
        calls.append(args[0])
        return glide(*args)

    monkeypatch.setattr(laws, "simple_shear_sigma12", counting)
    code, _, _ = run(capsys, "plot-data", "--figure", "simple-shear",
                     "--points", "200", "--G", "1", "--lam", "0.5", *_OGDEN)
    assert code == 0
    assert len(calls) == 4


@pytest.mark.parametrize("argv, message", [
    (["--figure", "incompressible", "--min", "1e-300", "--max", "1"],
     "column becker_hyper is not finite at lambda = 1e-300"),
    (["--figure", "tension", "--max", "1e300", "--ogden-mu", "1",
      "--ogden-alpha", "3"],
     "column ogden is not finite at lambda = 5.02512562814e+297"),
    (["--figure", "simple-shear", "--max", "1e300", "--ogden-mu", "1",
      "--ogden-alpha", "3"],
     "law 'ogden': stress is not finite at G = 1, lam = 0.5 at index 1"),
])
def test_plot_column_that_overflows_exits_two(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "plot-data", *argv, "--G", "1",
                             "--lam", "0.5")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_plot_csv_is_deterministic(capsys):
    args = ["plot-data", "--figure", "simple-shear", "--G", "1.5",
            "--lam", "0", "--points", "50"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "," in out1 and ";" not in out1


# ---------------------------------------------------------------------------
# curve tables: one formatting pass, the bytes of the per-value writer

_DUPLICATED = ("lambda,t\n# duplicated abscissa 1.5\n"
               "0.6,-2.2\n0.8,-0.95\n1.0,0.02\n1.25,0.91\n1.5,1.71\n"
               "1.5,1.79\n1.75,2.33\n2.0,2.88\n2.5,3.8\n3.0,4.55\n")
_ALL_LAWS = ["--laws", "becker", "becker-hyper", "hencky", "neo-hooke",
             "hooke"]


# sha256 of stdout, recorded with the per-value writer that formatted each
# cell with f"{float(x):.12g}"
@pytest.mark.parametrize("argv, digest", [
    (["plot-data", "--figure", "incompressible", *_PAIR],
     "eeb32a45ca1d4db5e9d1188a39b719076c146938e36d37c92a26501234db7973"),
    (["plot-data", "--figure", "simple-shear", *_PAIR, *_OGDEN],
     "e7233d304b4ecb53522c2fc75e2fe32f249a442e29e03b733ec0e61eed500b82"),
    (["plot-data", "--figure", "tension", *_PAIR],
     "789d732ac6ce5cad30599ea1932e5c279f036d2a3ddb3ef9d8e8baeed353e7e0"),
    (["fit", "DATA", "--mode", "uniaxial-incompressible", "--out", "-",
      *_ALL_LAWS],
     "63fff3e59245cdc4521f8d8eedc24b717d85dbbbdae1e745041417757eb9092e"),
    (["fit", "DATA", "--mode", "uniaxial-hyper", "--out", "-", *_ALL_LAWS],
     "f00e5085bc2a1773699dea2510f1b955fe47732aca4625b63b45395bca5d90b7"),
], ids=["incompressible", "simple-shear", "tension", "fit-incompressible",
        "fit-hyper"])
def test_curve_commands_print_pinned_bytes(capsys, tmp_path, argv, digest):
    data = tmp_path / "duplicated.csv"
    data.write_text(_DUPLICATED)
    argv = [str(data) if a == "DATA" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of ``stress`` at a row-major --F, for every law and
# three measures, and of one ``invert``
_F_ROWS = "1.2, 0.3, -0.1  0.05 0.9 0.2  -0.15 0.1 1.1"


@pytest.mark.parametrize("law, measure, digest", [
    ("becker", "biot",
     "d35dcd0ba8e4c57bc5d880ec0374b9320712b42c6471d29698a53018327ed23c"),
    ("becker", "cauchy",
     "b50040da1e6bcd62034ef393e981bc6d74e3436d7ea12e35bdd9ea1db3bf63b6"),
    ("becker", "pk1",
     "6ae4f24725cda4d9d81852aceb3522598496aadc4651aa354caa6494a51dc935"),
    ("hencky-kirchhoff", "biot",
     "95a106201cc83bf1aa9982aa955f15ef9ff17dcbd3f22a60042e2d6e078aa36d"),
    ("hencky-kirchhoff", "cauchy",
     "cdc4a98c6dd90f4fc0ad03bd1e039b02cc444d1e38cf9231074c80a45d38f1a1"),
    ("hencky-kirchhoff", "pk1",
     "1db0c9fb75902eb6a212da8ec30d76d586a03b8ac9de3967dfd7ba88d59749ba"),
    ("hencky-cauchy", "biot",
     "6174cadb471f05b242ee9c51f2c3b076c8e3755fbb0dabfc61b3fd5ada9bf80c"),
    ("hencky-cauchy", "cauchy",
     "dfe0e9be90e2f0b0a2f733c9fe82984cddd21e0b399d32e158366e39e6450b98"),
    ("hencky-cauchy", "pk1",
     "50c0d9885cc9f6783707861927f821aafa9e0ea130dbb6d8ce5cfe4ccfaa3e29"),
    ("hooke-biot", "biot",
     "0ab94334e4916cc319688c2823d0aa551423881193b554bb25df4668239b1fb7"),
    ("hooke-biot", "cauchy",
     "e1a44e6a3fe8a99808ff715f89b01a81dd1cb0f1d909f30a477313aceff932b5"),
    ("hooke-biot", "pk1",
     "b1066a35ad35066b64628bf4d5abb79b62cdeef73ec3c7d4e17a422fe4d34c37"),
    ("hooke-cauchy", "biot",
     "a48153f01cb55e08b8b7bf462f443b0b761245ee81fdecdece5c1749c2e5274c"),
    ("hooke-cauchy", "cauchy",
     "1395fa16e1880fc7ee979276ab56904972dda47c5e3a6bf8adfa5d4ecf7189c1"),
    ("hooke-cauchy", "pk1",
     "4b1c4a81d8aa27206536a4490b7e7d1d37d0c8d1168727c3e94653273625d2cb"),
])
def test_stress_at_a_row_major_F_prints_pinned_bytes(capsys, law, measure,
                                                    digest):
    code, out, err = run(capsys, "stress", "--F", _F_ROWS, "--law", law,
                         "--measure", measure, *_PAIR)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_invert_prints_pinned_bytes(capsys):
    code, out, err = run(capsys, "invert", "--T",
                         "0.4 -0.2 0.1 0.05 -0.03 0.02", *_PAIR)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "628a63a449027c5e7167ebfe13b5290ed85cb8ef5c8fb237ec2af6bfbfe5a3c2")


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                     max_side=7),
                        elements=_CELL))
@example(table=np.array([[-0.0]]))
@example(table=np.array([[5e-324, -1e308, 0.1]]))
@example(table=np.array([[1e308], [-0.0], [-5e-324]]))
def test_write_csv_equals_the_per_value_join(table):
    columns = {f"c{j}": table[:, j] for j in range(table.shape[1])}
    expected = "".join(
        ",".join(row) + "\n" for row in
        [list(columns)] + [[f"{float(x):.12g}" for x in r] for r in table])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_csv("-", columns)
    assert buf.getvalue() == expected


def test_csv_cells_are_not_formatted_one_by_one(capsys, monkeypatch):
    calls = []
    fmt = cli._fmt

    def counting(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", counting)
    code, out, _ = run(capsys, "plot-data", "--figure", "tension",
                       "--points", "50", *_PAIR)
    assert code == 0 and len(out.splitlines()) == 51
    assert calls == []


# ---------------------------------------------------------------------------
# moduli whose derived constants overflow

@pytest.mark.parametrize("argv", [
    ["stress", "--shear", "2"],
    ["invert", "--T", "1 0 0 0 0 0"],
    ["check", "--samples", "4"],
    ["decompose", "--loads", "1", "2", "3"],
    ["plot-data", "--figure", "tension"],
], ids=lambda argv: argv[0])
def test_moduli_with_an_infinite_derived_constant_exit_two(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--G", "1.7e308",
                             "--lam", "1.7e308")
    # every subcommand reads its moduli before it prints anything
    assert (code, out) == (2, "")
    assert err == ("error: moduli g = 1.7e+308, lam = 1.7e+308 give "
                   "k = inf, which is not finite\n")


def test_decompose_reads_its_moduli_before_it_prints(capsys):
    code, out, err = run(capsys, "decompose", "--loads", "1", "2", "3",
                         "--G", "0", "--lam", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: inadmissible moduli: G = 0.0")


# ---------------------------------------------------------------------------
# one parser per process

@pytest.fixture
def empty_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(capsys, monkeypatch,
                                     empty_parser_cache):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["shear-statics", "--Q", "1", "--alpha", "2"],
                 ["decompose", "--stretch", "2", "1", "0.5"],
                 ["plot-data", "--figure", "tension", "--points", "3",
                  "--G", "1", "--lam", "0"]):
        assert main(argv) == 0
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_failed_calls_leave_the_cached_parser_as_fresh(capsys, tmp_path,
                                                       empty_parser_cache):
    data = tmp_path / "data.csv"
    data.write_text("lambda,t\n0.8,-0.6\n1.2,0.5\n1.5,1.2\n2.0,2.1\n")
    commands = [
        ["fit", str(data), "--out", "-", "--points", "4", "--laws", "becker",
         "hencky"],
        ["fit", str(data), "--out", "-", "--points", "4"],
        ["plot-data", "--figure", "tension", "--points", "4", "--G", "1",
         "--lam", "0.5"],
    ]
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    for failing in (["plot-data", "--figure", "bogus", "--G", "1"],
                    ["fit", "--laws", "becker"]):
        with pytest.raises(SystemExit) as exc:
            main(failing)
        assert exc.value.code == 2
    assert main(["plot-data", "--figure", "tension", "--min", "-1",
                 "--G", "1", "--lam", "0"]) == 2
    capsys.readouterr()
    assert [(main(argv), capsys.readouterr()) for argv in commands] == fresh


@pytest.mark.parametrize("argv, line", [
    (["decompose", "--loads", "-1.26", "0.031", "-9.7e-05"],
     "diag(-1.26, 0.031, -9.7e-05) ="),
    (["stress", "--shear", "2", "--G", "1", "--lam", "-1E-5"],
     "law becker, measure biot, unit MPa"),
    (["plot-data", "--figure", "tension", "--points", "2", "--G", "1",
      "--lam", "-2.5e-1"], "lambda,becker,hooke,neo_hooke"),
])
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--loads", "0", "0", "-inf"],
     "loads must be finite, got -inf at index 2"),
    (["stress", "--shear", "2", "--G", "1", "--lam", "-Inf"],
     "lam = -inf is not finite"),
], ids=["decompose", "stress"])
def test_negative_infinity_is_a_value_the_command_rejects(capsys, argv,
                                                          message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["plot-data", "--help"],
                                  ["fit", "--help"]])
def test_help_text_is_unchanged(capsys, empty_parser_cache, argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    fresh = capsys.readouterr().out
    for _ in range(2):  # the first call builds the parser, the second reuses
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh


# ---------------------------------------------------------------------------
# config file

def test_config_file_moduli(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "logstrain.cfg"
    cfg.write_text("# material card\nG = 1\nlambda = 0.5\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "stress", "--shear", "2")
    assert code == 0
    t = tensor_after(out, "stress (biot):")
    assert t[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12, abs=0.0)


def test_flags_win_over_config(capsys, tmp_path):
    cfg = tmp_path / "card.cfg"
    cfg.write_text("G = 1\nlambda = 0.5\n")
    code, out, _ = run(capsys, "stress", "--shear", "2", "--config",
                       str(cfg), "--G", "2")
    assert code == 0
    t = tensor_after(out, "stress (biot):")
    # G overridden to 2, lambda from file
    assert t[0, 0] == pytest.approx(4.0 * math.log(2.0), rel=1e-12, abs=0.0)


# prints, after each command of the JSON list argv[1], its exit code and
# which of the modules that only check and decompose call are loaded
_LOADED_AFTER_EACH = """
import contextlib, io, json, sys
from logstrain.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, [m for m in (
        "logstrain.verify", "logstrain.decomposition") if m in sys.modules]]))
"""


def test_only_check_and_decompose_load_their_modules(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("lambda,t\n1.2,0.5\n1.5,1.2\n")
    pair = ["--G", "1", "--lam", "0"]
    commands = [
        ["plot-data", "--figure", "tension", "--points", "3", *pair],
        ["fit", str(data), "--out", "-", "--points", "3"],
        ["stress", "--shear", "2", *pair],
        ["invert", "--T", "0.5 -0.5 0 0 0 0", *pair],
        ["shear-statics", "--Q", "1", "--alpha", "2"],
        ["decompose", "--loads", "1", "2", "3", *pair],
        ["check", "--samples", "1", *pair],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH, json.dumps(commands)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    decomposition = ["logstrain.decomposition"]
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        ["plot-data", 0, []], ["fit", 0, []], ["stress", 0, []],
        ["invert", 0, []], ["shear-statics", 0, []],
        ["decompose", 0, decomposition],
        ["check", 0, ["logstrain.verify", *decomposition]]]


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "logstrain.cli", "shear-statics",
         "--Q", "1", "--alpha", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma_m = 0.75" in proc.stdout
