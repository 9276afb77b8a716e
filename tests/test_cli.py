"""Command-line interface: commands, exit codes, CSV output."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from logstrain.cli import main


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
    assert t[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert t[1, 1] == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)


def test_stress_glide_pk1(capsys):
    code, out, _ = run(capsys, "stress", "--glide", "1", "--G", "1",
                       "--lam", "0", "--measure", "pk1")
    assert code == 0
    t = tensor_after(out, "stress (pk1):")
    assert t[0, 1] == pytest.approx(2.0 * math.log(0.5 * (1 + math.sqrt(5))),
                                    rel=1e-12)


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


def test_invert_overflow_exits_two(capsys):
    code, out, err = run(capsys, "invert", "--T", "1e4 0 0 0 0 0",
                         "--G", "1", "--lam", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: mat_exp: overflow at eigenvalue")


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
                 "lam = 5e+307 at index 4"}
    assert not by_name["power_law"]["passed"]
    cycle = by_name["closed_cycle_work"]["witness"]
    assert not cycle["quadrature_converged"] and cycle["steps"] == 384


def _strict(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_check_lines_are_strict_json(capsys):
    # lam = 1e307: a NaN work and infinite ladder ratios, written as strings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "check", "--G", "1", "--lam", "1e307",
                           "--samples", "8")
    assert code == 1
    by_name = {}
    for line in out.splitlines():
        report = json.loads(line, parse_constant=_strict)
        by_name[report["name"]] = report
    assert by_name["closed_cycle_work"]["witness"]["work"] == "nan"
    for name in ("linearization_order", "pk2_expansion"):
        assert set(by_name[name]["witness"]["ratios"].values()) == {"inf"}


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
    assert fitted == pytest.approx(g0, rel=1e-10)
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
    assert fitted == pytest.approx(g0, rel=1e-8)


def test_check_exit_one_on_unexpected_failure(capsys, monkeypatch):
    from logstrain.verify import CheckReport

    def broken_suite(law, m, samples=0, seed=0):
        return [CheckReport(name="stub", passed=False, tolerance=1e-10,
                            witness={"reason": "stub"}, expected=True)]

    monkeypatch.setattr("logstrain.cli.verify.suite", broken_suite)
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


def test_fit_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == 2


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
    assert last["becker"] == pytest.approx(2.0 * math.log(lam1), rel=1e-11)
    assert last["neo_hooke"] == pytest.approx(2.0, rel=1e-11)


def test_plot_incompressible_becker_column(capsys):
    code, out, _ = run(capsys, "plot-data", "--figure", "incompressible",
                       "--G", "2", "--lam", "0", "--min", str(math.e),
                       "--max", str(math.e), "--points", "1")
    assert code == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    vals = dict(zip(cols, (float(v) for v in lines[1].split(","))))
    assert vals["becker"] == pytest.approx(3.0 * 2.0, rel=1e-12)


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
    assert slope_hooke == pytest.approx(m_e, rel=1e-9)
    assert slope_becker == pytest.approx(m_e, rel=1e-6)


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


def test_plot_csv_is_deterministic(capsys):
    args = ["plot-data", "--figure", "simple-shear", "--G", "1.5",
            "--lam", "0", "--points", "50"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "," in out1 and ";" not in out1


# ---------------------------------------------------------------------------
# config file

def test_config_file_moduli(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "logstrain.cfg"
    cfg.write_text("# material card\nG = 1\nlambda = 0.5\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "stress", "--shear", "2")
    assert code == 0
    t = tensor_after(out, "stress (biot):")
    assert t[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_flags_win_over_config(capsys, tmp_path):
    cfg = tmp_path / "card.cfg"
    cfg.write_text("G = 1\nlambda = 0.5\n")
    code, out, _ = run(capsys, "stress", "--shear", "2", "--config",
                       str(cfg), "--G", "2")
    assert code == 0
    t = tensor_after(out, "stress (biot):")
    # G overridden to 2, lambda from file
    assert t[0, 0] == pytest.approx(4.0 * math.log(2.0), rel=1e-12)


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "logstrain.cli", "shear-statics",
         "--Q", "1", "--alpha", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma_m = 0.75" in proc.stdout
