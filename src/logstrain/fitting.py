"""Experimental-data ingestion and one-parameter fits.

CSV format: header ``lambda,t`` for uniaxial data (stretch, Biot stress) or
``gamma,sigma12`` for shear data; lines starting with ``#`` are comments.
Rows are sorted by abscissa on ingestion and duplicate abscissae averaged.

Two uniaxial models are fitted, each with the shear modulus G as the only
parameter: the incompressible-limit law ``t = 3 G ln(lambda)`` and the
constrained-energy law ``t = G ln(lambda) (2 + lambda**-1.5)``.  Both are
read from the becker row of the law table (its incompressible columns
``becker`` and ``becker-hyper``), and both are linear in G, so each fit is
the closed-form one-parameter least squares.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import _incompressible_columns
from .errors import DegenerateData

__all__ = ["DataSet", "FitResult", "read_dataset", "dataset_from_rows",
           "fit_dataset", "model_curve", "FIT_MODES"]


_HEADERS = {
    ("lambda", "t"): "uniaxial",
    ("gamma", "sigma12"): "shear",
}


@dataclass(frozen=True)
class DataSet:
    """Measured (abscissa, stress) rows of one experiment."""

    x: np.ndarray
    y: np.ndarray
    kind: str  # "uniaxial" or "shear"
    source: str = ""

    def __len__(self):
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Fitted shear modulus with residual diagnostics."""

    g: float
    rms: float
    residuals: np.ndarray
    model: str


def dataset_from_rows(rows, kind, source=""):
    """Build a data set from (x, y) pairs: sort, average duplicates.

    Raises ``ValueError`` naming the first row with a NaN or infinite value.
    """
    if kind not in ("uniaxial", "shear"):
        raise ValueError(f"unknown data kind {kind!r}")
    pairs = [(float(x), float(y)) for x, y in rows]
    if not pairs:
        raise DegenerateData(f"no data rows in {source or 'input'}")
    for i, (x, y) in enumerate(pairs, 1):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"data row {i} ({x!r}, {y!r}) is not finite")
    if kind == "uniaxial" and any(x <= 0.0 for x, _ in pairs):
        raise ValueError("stretches must be positive")
    merged = {}
    for x, y in pairs:
        merged.setdefault(x, []).append(y)
    xs = np.array(sorted(merged))
    ys = np.array([np.mean(merged[x]) for x in xs])
    return DataSet(x=xs, y=ys, kind=kind, source=source)


def read_dataset(path):
    """Read a CSV data file, inferring the kind from the header."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.reader(lines)
    try:
        header = tuple(c.strip().lower() for c in next(reader))
    except StopIteration:
        raise DegenerateData(f"{path}: empty file") from None
    kind = _HEADERS.get(header)
    if kind is None:
        raise ValueError(
            f"{path}: header must be 'lambda,t' or 'gamma,sigma12', "
            f"got {','.join(header)!r}")
    rows = []
    for rec in reader:
        if len(rec) != 2:
            raise ValueError(f"{path}: expected 2 columns, got {rec!r}")
        rows.append((float(rec[0]), float(rec[1])))
    return dataset_from_rows(rows, kind, source=str(path))


# Each model is t = G phi(lambda), with phi the mode's incompressible
# column of the law table at G = 1; mode -> phi.
_COLUMNS = dict(_incompressible_columns())
_PHI = {mode: (lambda lam, form=_COLUMNS[column]: form(lam, 1.0))
        for mode, column in (("uniaxial-incompressible", "becker"),
                             ("uniaxial-hyper", "becker-hyper"))}
FIT_MODES = tuple(_PHI)


def model_curve(mode, g, xs):
    """Model stresses at the given stretches for a fitted modulus."""
    if mode not in _PHI:
        raise ValueError(f"unknown fit mode {mode!r}")
    return g * _PHI[mode](np.asarray(xs, dtype=float))


def fit_dataset(ds: DataSet, mode):
    """Fit the shear modulus of a uniaxial model to a data set.

    Both models are ``t = G phi(lambda)``, so the least squares is solved in
    closed form, ``G = sum(t_i phi_i) / sum(phi_i**2)``, with ``phi`` the
    model at G = 1: ``3 ln lambda`` (incompressible) or ``ln lambda (2 +
    lambda**-1.5)`` (hyper).

    Raises
    ------
    DegenerateData
        Fewer than the required rows, or all stretches equal to 1 (the
        regressor vanishes identically and G is undetermined).
    """
    if mode not in FIT_MODES:
        raise ValueError(f"unknown fit mode {mode!r}; expected {FIT_MODES}")
    if ds.kind != "uniaxial":
        raise ValueError(f"{mode} fit needs uniaxial data, got {ds.kind}")
    if len(ds) < 1:
        raise DegenerateData("no data rows")
    phi = _PHI[mode](ds.x)
    denom = float(phi @ phi)
    if denom == 0.0:
        raise DegenerateData(
            "all stretches equal 1; the modulus is undetermined")
    g = float(ds.y @ phi) / denom
    residuals = ds.y - g * phi
    rms = math.sqrt(float(residuals @ residuals) / len(ds))
    return FitResult(g=g, rms=rms, residuals=residuals, model=mode)
