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
from .errors import DegenerateData, LogstrainError
from .tensors import _pow2_scale

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
    xs = sorted(merged)
    # a lone value y is its own mean; np.mean sums from +0.0, so y + 0.0
    # keeps its bits, -0.0 included
    ys = [merged[x][0] + 0.0 if len(merged[x]) == 1 else np.mean(merged[x])
          for x in xs]
    return DataSet(x=np.array(xs), y=np.array(ys), kind=kind, source=source)


def _lines(path):
    """The lines of a UTF-8 text file, each with its line end as written,
    or ``ValueError`` naming a file that is not UTF-8.  A leading
    byte-order mark, which spreadsheet tools write, is not part of the
    first line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def read_dataset(path):
    """Read a UTF-8 CSV data file, inferring the kind from the header.

    Raises ``ValueError`` naming the file, and the data row (counted from
    1 after the header, as :func:`dataset_from_rows` counts) for a row with
    a cell that is not a number."""
    lines = [ln for ln in _lines(path)
             if ln.strip() and not ln.lstrip().startswith("#")]
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
        try:
            rows.append((float(rec[0]), float(rec[1])))
        except ValueError:
            raise ValueError(f"{path}: data row {len(rows) + 1}: expected "
                             f"two numbers, got {rec!r}") from None
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


def _rms(r):
    """Root mean square of the 1-d array r.  When the sum of the squares
    overflows, r is scaled by a power of two first, which changes no bit
    where the plain sum is finite."""
    squares = float(r @ r)
    if math.isinf(squares) and np.isfinite(r).all():
        s = _pow2_scale(float(np.max(np.abs(r))))
        q = r / s
        return s * math.sqrt(float(q @ q) / len(r))
    return math.sqrt(squares / len(r))


@np.errstate(over="ignore", invalid="ignore")
def fit_dataset(ds: DataSet, mode):
    """Fit the shear modulus of a uniaxial model to a data set.

    Both models are ``t = G phi(lambda)``, so the least squares is solved in
    closed form, ``G = sum(t_i phi_i) / sum(phi_i**2)``, with ``phi`` the
    model at G = 1: ``3 ln lambda`` (incompressible) or ``ln lambda (2 +
    lambda**-1.5)`` (hyper).  The rms residual is taken without overflow
    in its squares.

    Raises
    ------
    DegenerateData
        Fewer than the required rows, or all stretches equal to 1 (the
        regressor vanishes identically and G is undetermined).
    LogstrainError
        The fitted G, a residual or the rms residual is not finite (the
        model or the data are beyond the range of floats).
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
    rms = _rms(residuals)
    # the rms is finite only where every residual is
    if not (math.isfinite(g) and math.isfinite(rms)):
        raise LogstrainError(f"the {mode} fit is not finite: G = {g:.6g}, "
                             f"rms residual = {rms:.6g}")
    return FitResult(g=g, rms=rms, residuals=residuals, model=mode)
