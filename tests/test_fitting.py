"""Data ingestion and shear-modulus fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from logstrain.errors import DegenerateData
from logstrain.fitting import (DataSet, dataset_from_rows, fit_dataset,
                               model_curve, read_dataset)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_synthetic_recovery_closed_form():
    g0 = 0.47
    lams = np.linspace(0.6, 3.0, 25)
    rows = [(lam, 3.0 * g0 * math.log(lam)) for lam in lams]
    ds = dataset_from_rows(rows, "uniaxial")
    fit = fit_dataset(ds, "uniaxial-incompressible")
    assert abs(fit.g - g0) <= 1e-10 * g0
    assert fit.rms <= 1e-12


def test_single_point_exact_solve():
    ds = dataset_from_rows([(math.e, 3.0)], "uniaxial")
    fit = fit_dataset(ds, "uniaxial-incompressible")
    assert fit.g == pytest.approx(1.0, rel=1e-14, abs=0)


def test_hyper_mode_recovery():
    g0 = 1.9
    lams = np.linspace(0.7, 2.5, 15)
    rows = [(lam, g0 * math.log(lam) * (2.0 + lam ** -1.5)) for lam in lams]
    fit = fit_dataset(dataset_from_rows(rows, "uniaxial"), "uniaxial-hyper")
    assert fit.g == pytest.approx(g0, rel=1e-9, abs=0)
    assert fit.rms < 1e-9


def test_hyper_mode_is_exact_least_squares(rng):
    lams = np.linspace(0.6, 2.5, 24)
    phi = np.log(lams) * (2.0 + lams ** -1.5)
    ys = 0.8 * phi + rng.normal(0.0, 0.01, lams.size)
    fit = fit_dataset(dataset_from_rows(zip(lams, ys), "uniaxial"),
                      "uniaxial-hyper")
    # the normal equation in exact rational arithmetic on the same floats
    num = sum(Fraction(y) * Fraction(p) for y, p in zip(ys, phi))
    den = sum(Fraction(p) ** 2 for p in phi)
    assert abs(Fraction(fit.g) - num / den) <= Fraction(1, 10 ** 15)


def test_noisy_fit_is_least_squares(rng):
    g0 = 1.0
    lams = np.linspace(0.8, 2.0, 40)
    noise = rng.normal(0.0, 0.01, lams.size)
    rows = [(lam, 3.0 * g0 * math.log(lam) + e)
            for lam, e in zip(lams, noise)]
    ds = dataset_from_rows(rows, "uniaxial")
    fit = fit_dataset(ds, "uniaxial-incompressible")
    # normal-equation optimum: perturbing G in either direction is worse
    phi = 3.0 * np.log(ds.x)

    def sse(g):
        return float(((ds.y - g * phi) ** 2).sum())

    assert sse(fit.g) <= sse(fit.g * (1 + 1e-6))
    assert sse(fit.g) <= sse(fit.g * (1 - 1e-6))
    assert fit.rms == pytest.approx(math.sqrt(sse(fit.g) / len(ds)),
                                    rel=1e-12, abs=0.0)


def test_duplicates_averaged_and_sorted():
    ds = dataset_from_rows([(2.0, 1.0), (1.5, 0.5), (2.0, 3.0)], "uniaxial")
    np.testing.assert_allclose(ds.x, [1.5, 2.0])
    np.testing.assert_allclose(ds.y, [0.5, 2.0])


def _averaged(group):
    # the data set of one group at lambda = 2 and a lone row before it
    rows = [(2.0, y) for y in group] + [(1.5, 0.25)]
    ds = dataset_from_rows(rows, "uniaxial")
    assert ds.x.tolist() == [1.5, 2.0]
    return ds.y


@pytest.mark.parametrize("group", [[0.7], [0.1, 0.2], [1.0] + [1e-16] * 8],
                         ids=["one", "two", "nine"])
def test_duplicates_average_to_the_bits_of_np_mean(group):
    assert _averaged(group).tobytes() \
        == np.array([0.25, np.mean(group)]).tobytes()
    if len(group) == 9:
        # numpy sums nine values pairwise; a running sum gives other bits
        assert np.mean(group) != sum(group) / 9


@pytest.mark.parametrize("size", [17, 130])
def test_random_duplicates_average_to_the_bits_of_np_mean(rng, size):
    ys = rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    assert _averaged(ys.tolist()).tobytes() \
        == np.array([0.25, np.mean(ys)]).tobytes()


@pytest.mark.parametrize("y", [-0.0, 5e-324, -1e308])
def test_a_lone_value_keeps_the_bits_of_np_mean(y):
    ds = dataset_from_rows([(1.5, y), (2.0, 1.0), (2.0, 3.0)], "uniaxial")
    assert ds.y[:1].tobytes() == np.array([np.mean([y])]).tobytes()


def test_degenerate_data_rejected():
    with pytest.raises(DegenerateData):
        fit_dataset(dataset_from_rows([(1.0, 0.1), (1.0, -0.1)], "uniaxial"),
                    "uniaxial-incompressible")
    with pytest.raises(DegenerateData):
        dataset_from_rows([], "uniaxial")


def test_nonpositive_stretch_rejected():
    with pytest.raises(ValueError):
        dataset_from_rows([(0.0, 1.0)], "uniaxial")


def test_nonfinite_row_rejected():
    rows = [(1.2, 0.5), (1.5, math.nan), (2.0, 1.9), (math.inf, 1.0)]
    with pytest.raises(ValueError, match=r"row 2 \(1\.5, nan\)"):
        dataset_from_rows(rows, "uniaxial")


def test_read_csv_with_comments(tmp_path):
    path = write_csv(tmp_path, "# synthetic rubber data\nlambda,t\n"
                               "2.0,1.0\n# midway note\n1.5,0.5\n")
    ds = read_dataset(path)
    assert ds.kind == "uniaxial"
    np.testing.assert_allclose(ds.x, [1.5, 2.0])


def test_read_csv_shear_header(tmp_path):
    path = write_csv(tmp_path, "gamma,sigma12\n0.5,0.3\n1.0,0.7\n")
    ds = read_dataset(path)
    assert ds.kind == "shear"
    with pytest.raises(ValueError):
        fit_dataset(ds, "uniaxial-incompressible")


def test_read_csv_bad_header(tmp_path):
    path = write_csv(tmp_path, "stretch,stress\n2.0,1.0\n")
    with pytest.raises(ValueError):
        read_dataset(path)


def test_model_curves():
    g = 2.0
    xs = np.array([1.0, math.e])
    np.testing.assert_allclose(
        model_curve("uniaxial-incompressible", g, xs), [0.0, 3.0 * g],
        atol=1e-14)
    np.testing.assert_allclose(
        model_curve("uniaxial-hyper", g, xs),
        [0.0, g * (2.0 + math.e ** -1.5)], atol=1e-14)


def test_unknown_kind_and_mode_rejected():
    with pytest.raises(ValueError, match="unknown data kind 'tension'"):
        dataset_from_rows([(1.5, 0.5)], "tension")
    with pytest.raises(ValueError, match="unknown fit mode 'linear'"):
        model_curve("linear", 1.0, [1.5])
    ds = dataset_from_rows([(1.5, 0.5)], "uniaxial")
    with pytest.raises(ValueError, match="unknown fit mode 'linear'"):
        fit_dataset(ds, "linear")


def test_read_csv_without_rows_or_with_a_wide_row(tmp_path):
    with pytest.raises(DegenerateData, match="empty file"):
        read_dataset(write_csv(tmp_path, "# only a comment\n\n"))
    with pytest.raises(ValueError, match=r"expected 2 columns, got "
                                         r"\['2\.0', '1\.0', '3'\]"):
        read_dataset(write_csv(tmp_path, "lambda,t\n2.0,1.0,3\n"))


def test_fit_of_a_data_set_without_rows_is_degenerate():
    empty = DataSet(x=np.array([]), y=np.array([]), kind="uniaxial")
    with pytest.raises(DegenerateData, match="no data rows"):
        fit_dataset(empty, "uniaxial-incompressible")
