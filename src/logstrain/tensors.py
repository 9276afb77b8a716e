"""Exact-contract 3x3 symmetric linear algebra.

Symmetric eigendecomposition (LAPACK frame, Rayleigh-quotient eigenvalues),
matrix functions (log, exp, sqrt, real powers) evaluated spectrally, and the
small tensor operators (deviator, trace, inner product, Frobenius norm,
cofactor) that the rest of the package is built on.

All tensors are plain ``numpy.ndarray`` objects of dtype float64 and shape
(3, 3).  The matrix functions, ``sym_part`` and ``dev3`` also take stacks of
shape (..., 3, 3) and act on each matrix; a matrix gives the same bits
alone and inside a stack.  The other operators (``eig_sym``, ``tr``,
``inner``, ``fro_norm``, ``cofactor``) take one matrix and reject a stack
with ``ValueError``.  Symmetric arguments are symmetrized on entry, so
callers may pass matrices that are symmetric only up to roundoff (e.g.
products ``F.T @ F``).  Everything here is a pure function of its arguments
and safe for concurrent use.

This module is the package's one LAPACK boundary: every symmetric
eigendecomposition, SVD, determinant, inverse and linear solve of the
package goes through ``_eigh``, ``_svd``, ``_det``, ``_inv`` and
``_solve``.  Each is one call to the ``numpy.linalg._umath_linalg`` gufunc
that ``np.linalg`` itself calls, with its float64 loop, bound once at
import, so the results have ``np.linalg``'s bits without its per-call
Python wrapper.  Their inputs are already checked finite, so where LAPACK
fails (the gufunc then returns NaN) ``_eigh``, ``_svd``, ``_inv`` and
``_solve`` raise :class:`LogstrainError` naming the routine instead of
``np.linalg.LinAlgError``; ``_det`` is unchecked, as ``np.linalg.det`` is.
Where the installed numpy has no such gufunc, the routine binds to its
``np.linalg`` function instead, with the same failure contract.

One matrix takes a lane of its own, with the bits it gets inside a stack:
:func:`_spectrum_floats` gives its eigenvalues as Python floats, on which
the laws of ``constitutive`` take their principal-value steps, and
:func:`sym_part` adds a contiguous copy of its transpose.  A stack makes
no numpy pass that the same bits do not need: :func:`_spectrum` sums its
Rayleigh quotients as three row additions in the order of numpy's
reduction and sorts only the members whose quotients are out of order,
and :func:`_from_spectrum` multiplies by a contiguous copy of the
transposed frames.
"""

import functools
import math
from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import LogstrainError, NotPositiveDefinite

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # every routine then binds to its np.linalg function
    _umath_linalg = None

__all__ = [
    "Spectral3",
    "eig_sym",
    "mat_fn",
    "mat_log",
    "mat_exp",
    "mat_sqrt",
    "mat_pow",
    "dev3",
    "tr",
    "inner",
    "fro_norm",
    "cofactor",
    "sym_part",
    "as_mat3",
]

# Positivity threshold for the spectral kernel: the min eigenvalue must
# exceed PD_REL_TOL * max(1, max|eigenvalue|).
PD_REL_TOL = 1e-12

# The identity, read-only, for the hot paths that add or remove a multiple
# of it.
_EYE = np.eye(3)
_EYE.flags.writeable = False


def as_mat3(a, name="matrix"):
    """Coerce to a finite float64 (3, 3) array (copies the input)."""
    m = _as_mats(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    return m


# the conditions a checked number may have to meet besides finiteness
_CONDITIONS = {
    None: lambda x: True,
    "positive": lambda x: x > 0.0,
    "nonnegative": lambda x: x >= 0.0,
    "greater than 1": lambda x: x > 1.0,
}


def _as_real(x, name, condition=None):
    """A number as a Python float, an array of them as a float64 array
    (a copy), if every value is finite and meets ``condition``:
    ``"positive"``, ``"nonnegative"``, ``"greater than 1"`` or None.
    Otherwise ``ValueError("{name} must be finite and {condition}, got
    {x}")``, which for an array names the first bad element, ``at index
    i``.  NaN meets no condition."""
    meets = _CONDITIONS[condition]
    if np.ndim(x) == 0:  # a number: the test on a Python float
        v = float(x)
        if math.isfinite(v) and meets(v):
            return v
        i, shape = 0, ()
    else:
        v = np.array(x, dtype=float)
        bad = ~(np.isfinite(v) & meets(v))
        if not bad.any():
            return v
        i, shape = _first(bad), v.shape
        v = float(v.flat[i])
    wording = f" and {condition}" if condition else ""
    raise ValueError(f"{name} must be finite{wording}, got {v}"
                     f"{_at(i, shape)}")


def _all_finite(x):
    """Whether every number of x, a number, an array, or a tuple or
    dataclass of them, is finite."""
    if isinstance(x, float):
        return math.isfinite(x)
    if is_dataclass(x):
        x = tuple(vars(x).values())
    if isinstance(x, tuple):
        return all(map(_all_finite, x))
    return bool(np.isfinite(x).all())


def _closed_form(fn):
    """Decorate a closed form so that it returns a finite result or raises
    :class:`LogstrainError`.

    The body runs without numpy's floating-point warnings.  A number of
    the result that is not finite, or an ``ArithmeticError`` of Python
    float arithmetic (``math.exp`` or ``**`` overflowing, a division by a
    product that underflowed to zero), raises the error, which names the
    call."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = fn(*args, **kwargs)
            if _all_finite(out):
                return out
        except ArithmeticError:
            pass
        call = ", ".join([*map(repr, args),
                          *(f"{k}={v!r}" for k, v in kwargs.items())])
        raise LogstrainError(f"{fn.__name__}({call}): result is not finite")
    return checked


def _at(flat_index, shape):
    """Message suffix naming a member of a (..., 3, 3) stack.

    ``shape`` is the stack's leading shape; a single matrix (empty shape)
    gets no suffix.
    """
    if not shape:
        return ""
    i = np.unravel_index(flat_index, shape)
    return f" at index {i[0] if len(i) == 1 else tuple(int(k) for k in i)}"


def _first(bad):
    """Flat index of the first true entry of a boolean array, or None."""
    flat = np.ravel(bad).tolist()
    return flat.index(True) if True in flat else None


def _sum_is_finite(a, core=2):
    """Whether the entries of a sum to a finite number, which proves every
    entry finite: one Python sum for one item (``a.ndim == core``: a matrix,
    or a spectrum with ``core=1``), one numpy reduction for a stack.  False
    also for finite entries whose sum overflows, so a caller settles that
    case with ``np.isfinite``."""
    if a.ndim == core:
        return math.isfinite(sum(a.ravel().tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(a.sum())


def _pow2_scale(big):
    """The power of two s >= 1 that brings a finite ``big >= 0`` below 2.
    Dividing by s is exact, and numbers up to the largest float divided
    by it have squares, and sums of a few squares, that do not overflow."""
    return math.ldexp(1.0, max(0, math.frexp(big)[1] - 1))


def _over(x, factor, modulus):
    """``x / (factor * modulus)`` for a number ``factor`` and a modulus:
    where that product overflows, ``x / factor / modulus`` instead, so the
    quotient keeps every bit wherever the product is finite and is not
    lost to an infinite divisor where it is not."""
    product = factor * modulus
    return x / product if math.isfinite(product) else x / factor / modulus


def _first_nonfinite(a):
    """Flat index of the first matrix of a (..., n, n) stack with a
    non-finite entry, or None."""
    if _sum_is_finite(a):
        return None
    return _first(~np.isfinite(a).all(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# the LAPACK boundary

# name: (the gufunc np.linalg calls, its float64 loop, the np.linalg
# function that calls it, the output whose NaN marks a LAPACK failure: an
# index into the outputs, "all" for the one output, None for no check)
_ROUTINES = {
    "eigh": ("eigh_lo", "d->dd", np.linalg.eigh, 0),
    "svd": ("svd_f", "d->ddd", np.linalg.svd, 1),
    "det": ("det", "d->d", np.linalg.det, None),
    "inv": ("inv", "d->d", np.linalg.inv, "all"),
    "solve": ("solve", "dd->d", np.linalg.solve, "all"),
}

# how a LAPACK failure surfaces other than as NaN: the gufunc's invalid
# flag under np.errstate(invalid="raise") or a warnings filter of "error",
# and np.linalg's own error in a fallback
_FAILURES = (FloatingPointError, RuntimeWarning, np.linalg.LinAlgError)


def _routine(name):
    """The LAPACK routine ``name`` of :data:`_ROUTINES` on (3, 3) or (...,
    3, 3) float64 arrays, bound to the gufunc in ``_umath_linalg`` or, where
    that has no such gufunc, to the ``np.linalg`` function.  A checked
    routine raises :class:`LogstrainError` naming itself, and for a stack
    the first failed member, where its marked output holds a NaN or the
    call raises one of :data:`_FAILURES`."""
    gufunc, signature, fallback, marked = _ROUTINES[name]
    call = getattr(_umath_linalg, gufunc, None)
    call = (fallback if call is None
            else functools.partial(call, signature=signature))
    if marked is None:
        return call
    core = 2 if marked == "all" else 1

    def checked(*args):
        try:
            out = call(*args)
        except _FAILURES as exc:
            raise LogstrainError(f"{name}: LAPACK failed: {exc}") from exc
        values = out if marked == "all" else out[marked]
        if not _sum_is_finite(values, core):  # a NaN, or an inf
            lead = values.shape[:values.ndim - core]
            i = _first(np.isnan(values).reshape(lead + (-1,)).any(axis=-1))
            if i is not None:
                raise LogstrainError(f"{name}: LAPACK failed, result is "
                                     f"NaN{_at(i, lead)}")
        return out

    checked.__name__ = checked.__qualname__ = f"_{name}"
    return checked


# one LAPACK call each
_eigh = _routine("eigh")  # (ascending eigenvalues, frame) of the lower half
_svd = _routine("svd")  # (W, s, Vt), W and Vt square
_det = _routine("det")
_inv = _routine("inv")
_solve = _routine("solve")  # X of A X = B


def _as_mats(a, name="matrix"):
    """Coerce to a finite float64 array of shape (3, 3) or (..., 3, 3).

    Copies the input.  For a stack the non-finite message names the index
    of the first bad member.
    """
    m = np.array(a, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    i = _first_nonfinite(m)
    if i is not None:
        raise ValueError(
            f"{name} has non-finite entries{_at(i, m.shape[:-2])}")
    return m


def sym_part(a):
    """Symmetric part (a + a.T) / 2, of each matrix of a (..., 3, 3) stack.

    Halved before the sum, ``a / 2 + a.T / 2``, so that it overflows only
    where the result does.  Halving a normal number is exact, so this has
    the bits of ``(a + a.T) / 2`` wherever that sum neither overflows nor
    meets subnormal entries.  One matrix adds a contiguous copy of its
    transpose, which numpy sums faster than the transposed view, with the
    same bits.
    """
    half = 0.5 * a
    if half.ndim == 2:
        return half + half.T.copy()
    return half + half.swapaxes(-1, -2)


def _trace(a):
    """Trace of each matrix of a (..., 3, 3) stack, shape (..., 1, 1)."""
    return np.trace(a, axis1=-2, axis2=-1)[..., None, None]


_DIAG = np.arange(3)


def _diag(v):
    """Diagonal matrices from the (..., 3) rows of v."""
    d = np.zeros(v.shape + (3,))
    d[..., _DIAG, _DIAG] = v
    return d


@dataclass(frozen=True)
class Spectral3:
    """Spectral decomposition of a symmetric 3x3 matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (3,)
        Sorted in descending order.
    frame : ndarray, shape (3, 3)
        Orthogonal matrix whose columns are the corresponding eigenvectors,
        so that ``frame @ diag(eigenvalues) @ frame.T`` reconstructs the
        input.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray

    def reconstruct(self):
        return (self.frame * self.eigenvalues[..., None, :]) @ self.frame.T


def _spectrum(m):
    """Spectral decomposition of checked, symmetric matrices ``m``.

    ``m`` has shape (3, 3) or (..., 3, 3); returns ``(eigenvalues, frame)``
    of shapes (..., 3) and (..., 3, 3), eigenvalues descending.  The frame
    comes from one LAPACK call through the boundary's ``_eigh`` (the bits
    of ``np.linalg.eigh``; a LAPACK failure raises :class:`LogstrainError`
    naming ``eigh``); each eigenvalue is recomputed
    as the Rayleigh quotient ``v_i . m v_i`` of its frame column, which is
    more accurate than LAPACK's own eigenvalue for the small end of the
    spectrum, where the logarithm needs accuracy.  The quotients of a stack
    are the sums ``0.0 + x_0j + x_1j + x_2j`` of the rows of ``x = (m @
    frame) * frame``: the order from 0.0, top to bottom, in which
    ``x.sum(axis=-2)`` adds them and the one-matrix lane spells them out,
    in one pass per row.  eigh's ascending frame is reversed for every
    member; only the members whose quotients tie or break that order are
    sorted, stably, so that ties keep eigh's order (the sort gives the
    reversal wherever the order holds, so a member has the same bits in
    any stack).  One matrix takes the one-matrix lane of
    :func:`_spectrum_floats`.
    """
    if m.ndim == 2:
        vals, frame = _spectrum_floats(m)
        return np.array(vals), frame
    _, frame = _eigh(m)
    x = (m @ frame) * frame
    vals = 0.0 + x[..., 0, :] + x[..., 1, :] + x[..., 2, :]
    out = vals[..., ::-1].copy(), frame[..., ::-1].copy()
    ascending = vals[..., :-1] < vals[..., 1:]
    if not ascending.all():
        unordered = ~(ascending[..., 0] & ascending[..., 1])
        vals, frame = vals[unordered], frame[unordered]
        order = np.argsort(-vals, axis=-1, kind="stable")
        out[0][unordered] = np.take_along_axis(vals, order, -1)
        out[1][unordered] = np.take_along_axis(frame, order[..., None, :], -1)
    return out


def _spectrum_floats(m):
    """:func:`_spectrum` of one checked, symmetric matrix, its eigenvalues
    a list of three Python floats: the one-matrix lane.

    Only the factorization, the product ``m @ frame`` and the reversed
    copy of the frame run in numpy.  The quotients ``sum_i (m @ frame)_ij
    frame_ij`` and the order test run on the Python floats of two
    ``tolist`` calls, each sum from 0.0 and top to bottom as numpy's
    reduction adds it, so that a matrix gets the bits it gets inside a
    stack, signs of zero included.  Its callers take their principal-value
    steps on the floats returned, with no second ``tolist``.
    """
    _, frame = _eigh(m)
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (m @ frame).tolist()
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = frame.tolist()
    v0 = 0.0 + a0 * p0 + b0 * q0 + c0 * r0
    v1 = 0.0 + a1 * p1 + b1 * q1 + c1 * r1
    v2 = 0.0 + a2 * p2 + b2 * q2 + c2 * r2
    if v0 < v1 < v2:
        return [v2, v1, v0], frame[:, ::-1].copy()
    vals = [v0, v1, v2]
    order = np.argsort([-v0, -v1, -v2], kind="stable").tolist()
    return [vals[k] for k in order], frame.take(order, 1)


def eig_sym(a):
    """Eigendecomposition of a symmetric 3x3 matrix.

    Parameters
    ----------
    a : array_like, shape (3, 3)
        Symmetric matrix (symmetrized internally; ``(a + a.T) / 2`` is
        decomposed).

    Returns
    -------
    Spectral3
        Eigenvalues in descending order with an orthonormal eigenvector
        frame.  Each eigenvalue is within ``16 * eps * max|eigenvalue|`` of
        the exact eigenvalue of the symmetrized input (``eps`` the float64
        machine epsilon).  Deterministic for a fixed input; within exactly
        repeated eigenvalues the eigenvector order is LAPACK's.

    Raises
    ------
    ValueError
        If ``a`` is not 3x3 or contains non-finite entries.
    """
    vals, frame = _spectrum(sym_part(as_mat3(a, "a")))
    return Spectral3(eigenvalues=vals, frame=frame)


def _below_floor(vals, signed):
    """Whether each spectrum of vals, shape (..., 3), is at or below the
    floor of :func:`_require_floor`: its least eigenvalue (where
    ``signed``, a bool or an array of them per spectrum) or least
    |eigenvalue| at most ``PD_REL_TOL * max(1, max|eigenvalue|)``.  NaN is
    never below it.  The three columns are compared elementwise, which
    gives the values of a reduction over the last axis, faster."""
    def least(x):
        return np.minimum(np.minimum(x[..., 0], x[..., 1]), x[..., 2])

    mags = np.abs(vals)
    biggest = np.maximum(np.maximum(mags[..., 0], mags[..., 1]), mags[..., 2])
    low = (np.where(signed, least(vals), least(mags)) if np.ndim(signed)
           else least(vals if signed else mags))
    return low <= PD_REL_TOL * np.maximum(biggest, 1.0)


def _require_floor(vals, name, floor_on, shape):
    """Raise :class:`NotPositiveDefinite` for the first spectrum of vals,
    shape (..., 3), whose least eigenvalue (``floor_on == "eigenvalue"``)
    or least |eigenvalue| is at most ``PD_REL_TOL * max(1, max|eigenvalue|)``;
    ``shape`` is the leading shape of the stack it names.  A stack is
    tested by :func:`_below_floor`; the message's numbers, and the test of
    one spectrum, come from Python floats.  One spectrum may come as a
    list of three Python floats, which is tested as it is."""
    k = 0
    if not isinstance(vals, list):
        if vals.ndim > 1:
            k = _first(_below_floor(vals, floor_on == "eigenvalue"))
            if k is None:
                return
            vals = vals.reshape(-1, 3)[k]
        vals = vals.tolist()
    mags = list(map(abs, vals))
    least = min(vals if floor_on == "eigenvalue" else mags)
    floor = PD_REL_TOL * max(1.0, max(mags))
    if least <= floor:
        raise NotPositiveDefinite(f"{name}: min {floor_on} {least:.6g} <= "
                                  f"tolerance {floor:.6g}{_at(k, shape)}")


def _mat_fn(a, f, name, floor_on):
    # body of mat_fn; floor_on names the spectral quantity that must exceed
    # the floor: "eigenvalue" (positive definite), "|eigenvalue|"
    # (invertible) or None (no check)
    m = _as_mats(a, "a")
    shape = m.shape[:-2]
    vals, frame = _spectrum(sym_part(m))
    with np.errstate(over="ignore", invalid="ignore"):
        out = _finite_values(f, vals, name, shape, floor_on)
    return _from_spectrum(frame, out)


def _from_spectrum(frame, vals):
    """The symmetric matrices ``frame @ diag(vals) @ frame.T`` of a
    (..., 3, 3) stack of frames and its (..., 3) spectra.  A stack is
    multiplied by a contiguous copy of its transposed frames, which numpy
    multiplies about twice as fast as the transposed view at 900 matrices,
    with the same bits; one matrix keeps the view, faster at that size."""
    if frame.ndim == 2:
        return sym_part((frame * vals) @ frame.T)
    return sym_part((frame * vals[..., None, :])
                    @ np.ascontiguousarray(frame.swapaxes(-1, -2)))


def _finite_values(f, vals, name, shape, floor_on=None):
    """``f(vals)`` on the (..., 3) spectra ``vals``, one call, after the
    floor test of :func:`_require_floor` on ``floor_on`` where that is
    given; a value that is not finite raises :class:`LogstrainError`
    naming its eigenvalue and member.  Callers run it without numpy's
    overflow and invalid-value warnings."""
    if floor_on is not None:
        _require_floor(vals, name, floor_on, shape)
    out = f(vals)
    if _sum_is_finite(out, core=1):  # the common case, in one reduction
        return out
    bad = ~np.isfinite(out)
    if not bad.any():  # finite values whose sum overflowed
        return out
    k = _first(bad.any(axis=-1))
    x = vals.reshape(-1, 3)[k][_first(bad.reshape(-1, 3)[k])]
    raise LogstrainError(f"{name}: overflow at eigenvalue {x:.6g}"
                         f"{_at(k, shape)}")


def mat_fn(a, f, require_pd=False, name="mat_fn"):
    """Apply a scalar function to symmetric matrices through the spectrum.

    ``a`` has shape (3, 3) or (..., 3, 3); the result has the same shape.
    ``mat_fn(a, f) = frame @ diag(f(eigenvalue_i)) @ frame.T`` for each
    matrix.  ``f`` is applied once to the whole (..., 3) array of
    eigenvalues and must act elementwise (a numpy ufunc such as ``np.log``),
    so a matrix gives the same bits alone and inside a stack.

    With ``require_pd=True`` the minimum eigenvalue must exceed
    ``PD_REL_TOL * max(1, max|eigenvalue|)``; otherwise
    :class:`NotPositiveDefinite` is raised rather than silently clamping.
    ``f`` runs with numpy's overflow and invalid-value warnings silenced; a
    value that is not finite raises :class:`LogstrainError` naming the
    eigenvalue.  For a stack, error messages name the index of the first
    bad member.
    """
    return _mat_fn(a, f, name, "eigenvalue" if require_pd else None)


def mat_log(a):
    """Principal matrix logarithm of symmetric positive definite matrices."""
    return mat_fn(a, np.log, require_pd=True, name="mat_log")


def mat_exp(a):
    """Matrix exponential of symmetric matrices."""
    return mat_fn(a, np.exp, name="mat_exp")


def mat_sqrt(a):
    """Principal square root of symmetric positive definite matrices."""
    return mat_fn(a, np.sqrt, require_pd=True, name="mat_sqrt")


def mat_pow(a, r):
    """Real matrix power ``a**r`` of symmetric matrices (see :func:`mat_fn`).

    The exponent must be finite.  Non-integer exponents require ``a``
    positive definite.  Integer exponents are evaluated spectrally as
    well; negative integer powers require every ``|eigenvalue|`` to exceed
    the floor of :func:`mat_fn`.  A power that overflows raises
    :class:`LogstrainError`.
    """
    power, floor_on = _pow_rule(r)
    return _mat_fn(a, power, "mat_pow", floor_on)


def _pow_rule(r):
    """``(power, floor_on)`` of :func:`mat_pow` for the exponent r: the
    power applied to eigenvalues with r as a Python float, and the floor
    of :func:`_mat_fn` it needs."""
    r = _as_real(r, "mat_pow: exponent")
    floor_on = ("eigenvalue" if r != int(r)
                else "|eigenvalue|" if r < 0 else None)
    return (lambda x: np.power(x, r)), floor_on


def _concat(stacks):
    """The matrices of ``stacks``, each (3, 3) or (..., 3, 3), as one
    (n, 3, 3) stack, in order."""
    return np.concatenate([np.reshape(a, (-1, 3, 3)) for a in stacks])


def _split_like(out, stacks):
    """``out``, a result on ``_concat(stacks)`` with one row per matrix,
    cut into one slice per stack, each with its stack's leading shape."""
    parts, stop = [], 0
    for a in stacks:
        lead = np.shape(a)[:-2]
        start, stop = stop, stop + math.prod(lead)
        parts.append(out[start:stop].reshape(lead + out.shape[1:]))
    return parts


def dev3(a):
    """Deviatoric (trace-free) part a - tr(a)/3 * I, of each matrix of a
    (..., 3, 3) stack."""
    a = np.asarray(a, dtype=float)
    return a - (_trace(a) / 3.0) * _EYE


def _one(a, name):
    """``a`` as an array, rejecting a stack of matrices."""
    a = np.asarray(a)
    if a.ndim > 2:
        raise ValueError(f"{name} takes one matrix, got shape {a.shape}")
    return a


def tr(a):
    """Trace of one matrix."""
    return float(np.trace(_one(a, "tr")))


def inner(a, b):
    """Canonical inner product tr(b.T @ a) of two matrices."""
    return float(np.tensordot(_one(a, "inner"), _one(b, "inner")))


# fro_norm and _fro_norms divide a matrix by a power of two only when its
# largest |entry| lies outside this range: inside it no square overflows
# and the largest square is a normal number
_NORM_LO, _NORM_HI = 1e-150, 1e150


def fro_norm(a):
    """Frobenius norm of one matrix.

    ``sqrt`` of one dot product of the entries, as ``np.linalg.norm``
    forms it, with its bits while the largest |entry| lies in [1e-150,
    1e150].  Outside that range the entries are first divided by the power
    of two that brings the largest into [1, 2), which is exact, and the
    root is multiplied back, so that the squares neither overflow nor
    underflow: the result is finite wherever the norm is representable.
    """
    x = np.asarray(_one(a, "fro_norm"), dtype=float).ravel(order="K")
    big = max(map(abs, x.tolist()), default=0.0)
    if _NORM_LO <= big <= _NORM_HI:
        return math.sqrt(x.dot(x))
    s = math.ldexp(1.0, math.frexp(big)[1] - 1)
    x = x / s
    return s * math.sqrt(x.dot(x))


def _inners(a, b):
    """``inner`` of each pair of matrices of two (..., 3, 3) stacks.

    A ``(1, 9) @ (9, 1)`` product per pair: the arithmetic of
    :func:`inner`, so each member gets the bits it gets alone.
    """
    lead = a.shape[:-2]
    return (a.reshape(lead + (1, 9)) @ b.reshape(lead + (9, 1)))[..., 0, 0]


def _fro_norms(a):
    """Frobenius norm of each matrix of a (..., 3, 3) stack, with the bits
    :func:`fro_norm` gives each member, its power-of-two scaling
    included, and as quietly: a norm above the largest float is inf."""
    with np.errstate(over="ignore"):
        sq = _inners(a, a)
    # a sum of nine squares in [9 _NORM_LO**2, _NORM_HI**2] puts the largest
    # |entry| inside [_NORM_LO, _NORM_HI]: only the members outside that
    # range may need scaling
    lo, hi = 9.0 * _NORM_LO ** 2, _NORM_HI ** 2
    out = np.sqrt(sq)
    if sq.min(initial=lo) >= lo and sq.max(initial=hi) <= hi:
        return out
    bad = (sq < lo) | (sq > hi)
    b = a[bad]  # shape (k, 3, 3), also for one matrix
    if not b.any():  # zero matrices, whose norm is 0 either way
        return out
    big = np.abs(b).max(axis=(-2, -1))
    s = np.where((big >= _NORM_LO) & (big <= _NORM_HI), 1.0,
                 np.ldexp(1.0, np.frexp(big)[1] - 1))
    b = b / s[:, None, None]
    out = np.array(out)
    with np.errstate(over="ignore"):
        out[bad] = s * np.sqrt(_inners(b, b))
    return out[()]


def cofactor(m):
    """Cofactor matrix, entrywise signed 2x2 minors.

    Defined for every 3x3 matrix; for invertible ``m`` it equals
    ``det(m) * inv(m).T``.
    """
    m = as_mat3(m, "m")
    # row i is the cross product of rows i + 1 and i + 2 (mod 3)
    return np.cross(m[[1, 2, 0]], m[[2, 0, 1]])
