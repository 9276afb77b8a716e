"""Executable checks for the axioms and inequalities of the logarithmic law.

Every check returns a :class:`CheckReport`; failed checks always carry a
machine-readable witness sufficient to re-evaluate the violated quantity
standalone.  Checks are deterministic given (seed, samples, tolerances) and
independent of each other, so they may run in any order or in parallel; the
report list is the only aggregation point.

Randomized SPD matrices are generated as ``Q.T @ diag(lam) @ Q`` with the
``lam`` log-uniform in [0.05, 20] and Q the orthogonal factor of a matrix of
standard normals, so recorded witnesses are reproducible from the seed.
Each randomized check draws its whole batch of samples from its own stream
``default_rng([seed, k])`` in bulk: one (samples, 3) array of eigenvalues
per spectrum and one (samples, 3, 3) array of normals per rotation, in a
fixed order.  It evaluates the batch as (samples, 3, 3) stacks, with one
call per law or matrix function, and reports the first worst sample, or for
a search the first flagged one.  A NaN or infinite residual counts as the
worst, so a check that cannot be evaluated fails.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constitutive import (_LAWS, _lam_is_zero, _log_strain, _tensor_row,
                           becker_biot, becker_energy_nu0, becker_inverse,
                           becker_pk2, linearized_law, pk1_for_law,
                           stretch_stress)
from .errors import LogstrainError
from .moduli import Moduli
from .tensors import (_as_mats, _as_real, _at, _diag, _first, _fro_norms,
                      _inners, _spectrum, as_mat3, eig_sym, fro_norm, mat_exp,
                      mat_pow, sym_part)

__all__ = [
    "CheckReport",
    "LoadPath",
    "random_rotation",
    "random_spd",
    "check_axioms",
    "m_condition_check",
    "m_condition_paper_pair_value",
    "baker_ericksen_check",
    "principal_cauchy_stresses",
    "ordered_force_check",
    "hill_convexity_probe",
    "path_work",
    "converged_path_work",
    "diagonal_path",
    "dilation_shear_cycle",
    "linearization_order_check",
    "pk2_expansion_check",
    "suite",
    "format_reports",
]

AXIOM_TOL = 1e-10
LADDER_H = (1e-2, 1e-3, 1e-4)
LADDER_FACTOR = 4.0
EIG_RANGE = (0.05, 20.0)
# principal stretches closer than this, relative to max(1, stretch), are a
# tie that the Baker-Ericksen check skips
TIE_TOL = 1e-9
# the most doublings of the grid that converged_path_work makes
MAX_DOUBLINGS = 10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``expected`` records whether the check is supposed to pass for the law
    and moduli it ran against; counterexample reproductions are expected
    *not* to pass.  Failed checks always carry a witness.
    """

    name: str
    passed: bool
    tolerance: float
    witness: dict = field(default=None)
    expected: bool = True

    @property
    def as_expected(self):
        return self.passed == self.expected


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return _jsonable(x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)  # "nan", "inf" or "-inf"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def format_reports(reports):
    """One JSON object per line: name, pass/fail, tolerance, witness.

    Each line is strict JSON: a float that is not finite is written as the
    string ``"nan"``, ``"inf"`` or ``"-inf"``.
    """
    lines = []
    for r in reports:
        lines.append(json.dumps(
            {"name": r.name, "passed": bool(r.passed),
             "expected": bool(r.expected), "tolerance": float(r.tolerance),
             "witness": _jsonable(r.witness)},
            sort_keys=True, allow_nan=False))
    return lines


# ---------------------------------------------------------------------------
# randomized inputs

def _log_range(lo, hi):
    """A :func:`_draw` spectrum entry: eigenvalues log-uniform in [lo, hi]."""
    return (math.log(lo), math.log(hi), True)


_SPD = (_log_range(*EIG_RANGE),)
_SYM_LOG = ((-8.0, 2.0, False),)


def _draw(rng, samples, groups):
    """Stacks of random matrices, each group's draws made in bulk.

    Each group of ``groups`` draws in turn one (samples, 3) array of
    spectra ``rng.uniform(lo, hi, (samples, 3))`` per ``(lo, hi, log)``
    entry, exponentiated when ``log`` is true, and then one
    (samples, 3, 3) array of standard normals, whose orthogonal factors Q
    (sign-fixed, det +1) are the group's rotations.  A group gives one
    (samples, 3, 3) stack ``Q.T @ diag(lam) @ Q`` per spectrum, or the
    stack of Q itself when it has no spectrum; the stacks of all groups are
    returned in one list.  The number of ``rng`` calls does not depend on
    ``samples``, and one sample consumes the stream as the one-sample
    functions :func:`random_spd` and :func:`random_rotation` do.
    """
    out = []
    for group in groups:
        spectra = [rng.uniform(lo, hi, (samples, 3)) for lo, hi, _ in group]
        q, r = np.linalg.qr(rng.standard_normal((samples, 3, 3)))
        q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
        flip = np.linalg.det(q) < 0.0
        if flip.any():
            q[flip, :, 0] = -q[flip, :, 0]
        if not group:
            out.append(q)
        for (_, _, log), lam in zip(group, spectra):
            lam = np.exp(lam) if log else lam
            out.append((q.swapaxes(-1, -2) * lam[..., None, :]) @ q)
    return out


def random_rotation(rng):
    """Orthogonal factor of a 3x3 standard-normal matrix, det fixed to +1."""
    return _draw(rng, 1, [()])[0][0]


def random_spd(rng, lo=EIG_RANGE[0], hi=EIG_RANGE[1]):
    """Random SPD matrix with log-uniform eigenvalues in [lo, hi]."""
    return _draw(rng, 1, [(_log_range(lo, hi),)])[0][0]


def _require_samples(samples):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _rel(err, *scales):
    """err / max(1, *scales), per sample of a batch.

    NaN where a scale is infinite: the relative residual of a quantity
    whose norm overflowed is unknown, not zero.
    """
    scale = 1.0
    for s in scales:
        scale = np.maximum(scale, s)
    return np.where(np.isinf(scale), math.nan, err / scale)


def _worst(residuals, witness_of, floor=0.0):
    """``(worst, witness)`` over a batch of samples.

    The worst sample is the first largest residual; a NaN or infinite
    residual counts as the worst, so that a check which cannot be
    evaluated fails.  ``witness_of(i)`` builds the witness of sample i.
    When no residual exceeds ``floor`` (or the batch is empty), returns
    ``(floor, None)``.
    """
    res = np.asarray(residuals)
    if res.size == 0:
        return floor, None
    i = int(np.argmax(res))  # the first NaN, else the first maximum
    worst = float(res[i])
    if not (worst > floor or math.isnan(worst)):
        return floor, None
    return worst, witness_of(i)


# ---------------------------------------------------------------------------
# the axiom block

def check_axioms(law, m: Moduli, samples=1000, seed=0):
    """Randomized axiom checks for a tensor stretch-stress law.

    Runs the superposition, isotropy, shear-to-shear, sphere-to-dilation,
    uniqueness-of-the-stress-free-state, power-law and inversion-symmetry
    checks; for a law whose strain is logarithmic also the inverse round
    trip.  A check is expected to pass unless the law's row of the law
    table names it in ``violates`` (the finite-Hooke laws fail
    superposition, among others, with the violating pair recorded).
    ``samples < 1`` raises ``ValueError``: no check passes vacuously.

    Each check draws its whole batch from its own stream
    ``default_rng([seed, k])`` in bulk (see :func:`_draw`; a scalar stretch
    draws one array of ``samples`` values), evaluates it with one stacked
    call per law or matrix function, and records the worst sample
    (the first largest relative residual) as the witness.  A NaN or
    infinite residual is the worst and fails the check; so does a
    :class:`LogstrainError` raised while evaluating the batch (for
    instance a stress that overflows), whose message is then the witness.
    """
    _require_samples(samples)
    row = _tensor_row(law)
    t = lambda u: stretch_stress(row.tag, u, m)

    def misfit(lhs, rhs):
        # relative distance of two stress stacks, per sample
        return _rel(_fro_norms(lhs - rhs), _fro_norms(lhs), _fro_norms(rhs))

    def stretch_draws(rng):
        # scalar log-uniform draws over EIG_RANGE, one per sample
        return np.exp(rng.uniform(*_log_range(*EIG_RANGE)[:2], samples))

    # Each check takes its stream and returns (worst, witness).

    def stress_free_reference(rng):
        # the unique stress-free reference state
        stress = t(np.eye(3))
        u, = _draw(rng, samples, [_SPD])
        k = _first((_fro_norms(u - np.eye(3)) > 1e-6)
                   & (_fro_norms(t(u)) == 0.0))
        if k is not None:
            return math.inf, {"nonidentity_with_zero_stress": u[k]}
        return fro_norm(stress), {"stress_at_identity": stress}

    def shear_to_shear(rng):
        # pure shear stretch -> trace-free plane stress diag(s, -s, 0)
        alpha = stretch_draws(rng)
        stress = t(_diag(np.stack([alpha, 1.0 / alpha, np.ones(samples)],
                                  -1)))
        off = _fro_norms(stress - _diag(np.diagonal(stress, 0, -2, -1)))
        err = _rel(abs(stress[:, 2, 2]) + abs(stress[:, 0, 0]
                                              + stress[:, 1, 1])
                   + off, _fro_norms(stress))
        return _worst(err, lambda i: {"alpha": float(alpha[i]),
                                      "stress": stress[i]})

    def sphere_to_dilation(rng):
        # spherical stretch -> spherical stress
        lam = stretch_draws(rng)
        stress = t(lam[:, None, None] * np.eye(3))
        err = _rel(_fro_norms(stress - stress[:, :1, :1] * np.eye(3)),
                   _fro_norms(stress))
        return _worst(err, lambda i: {"lam": float(lam[i]),
                                      "stress": stress[i]})

    def superposition(rng):
        # superposition over coaxial pairs
        u1, u2 = _draw(rng, samples, [_SPD * 2])
        lhs, rhs = t(u1 @ u2), t(u1) + t(u2)
        return _worst(misfit(lhs, rhs), lambda i: {
            "u1": u1[i], "u2": u2[i], "stress_of_product": lhs[i],
            "sum_of_stresses": rhs[i]})

    def isotropy(rng):
        u, q = _draw(rng, samples, [_SPD, ()])
        qt = q.swapaxes(-1, -2)
        return _worst(misfit(t(qt @ u @ q), qt @ t(u) @ q),
                      lambda i: {"u": u[i], "q": q[i]})

    def power_law(rng):
        # real powers scale the stress.  u**pi reaches cond ~1e6, so
        # storing u**r in float64 already moves its smallest eigenvalue by
        # ~eps * cond ~1e-10 relative with any eigensolver; amplified by
        # lam, the worst of many samples can come near AXIOM_TOL
        powers = (-2.0, -0.5, 0.5, 2.0, math.pi)
        u, = _draw(rng, samples, [(_log_range(0.1, 10.0),)])
        r = np.resize(powers, samples)  # sample i takes powers[i % 5]
        u_r = np.empty_like(u)
        for k, p in enumerate(powers[:samples]):
            u_r[k::len(powers)] = mat_pow(u[k::len(powers)], p)
        return _worst(misfit(t(u_r), r[:, None, None] * t(u)),
                      lambda i: {"u": u[i], "r": float(r[i])})

    def inversion_symmetry(rng):
        # tension-compression symmetry T(inv(U)) = -T(U)
        u, = _draw(rng, samples, [_SPD])
        return _worst(misfit(t(mat_pow(u, -1)), -t(u)),
                      lambda i: {"u": u[i]})

    def inverse_round_trip(rng):
        u, = _draw(rng, samples, [_SPD])
        back = becker_inverse(t(u), m)
        err = _rel(_fro_norms(back - u), _fro_norms(u))
        return _worst(err, lambda i: {"u": u[i], "round_trip": back[i]})

    checks = [stress_free_reference, shear_to_shear, sphere_to_dilation,
              superposition, isotropy, power_law, inversion_symmetry]
    if row.strain is _log_strain:  # becker_inverse inverts the law
        checks.append(inverse_round_trip)
    reports = []
    for k, check in enumerate(checks):
        try:
            worst, witness = check(np.random.default_rng([seed, k]))
        except LogstrainError as exc:
            # a law that raises on the batch leaves the check undecided,
            # which fails it
            worst, witness = math.inf, {"error": str(exc)}
        name = check.__name__
        reports.append(CheckReport(
            name=name, passed=worst <= AXIOM_TOL, tolerance=AXIOM_TOL,
            witness=witness, expected=name not in row.violates))
    return reports


# ---------------------------------------------------------------------------
# constitutive inequalities

def m_condition_check(u1, u2, m: Moduli):
    """Monotonicity inner product <T(U1) - T(U2), U1 - U2> for the log law.

    A positive sign at every pair of distinct SPD arguments is the strict
    monotonicity of the stress-stretch map; the returned value reports the
    sign at this particular pair.  ``u1`` and ``u2`` may also be
    (..., 3, 3) stacks of pairs, giving an array of shape (...); one pair
    gives a float.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    k = _first(_fro_norms(u1 - u2)
               <= 1e-14 * np.maximum(1.0, _fro_norms(u1)))
    if k is not None:
        raise ValueError(f"u1 and u2 must differ{_at(k, u1.shape[:-2])}")
    value = _inners(becker_biot(u1, m) - becker_biot(u2, m), u1 - u2)
    return value if u1.ndim > 2 else float(value)


def m_condition_paper_pair_value(m: Moduli):
    """Closed form of the monotonicity product at (diag(2, 1/4, 1), I).

    ``ln(2)/4 * (20 G - lam)``: negative, i.e. monotonicity lost, as soon
    as lam > 20 G.
    """
    return 0.25 * math.log(2.0) * (20.0 * m.g - m.lam)


def principal_cauchy_stresses(stretches, m: Moduli):
    """Principal Cauchy stresses of the log law at principal stretches.

    ``sigma_k = lam_k / (lam_1 lam_2 lam_3) * T_k``, with the principal
    forces ``T_k = 2 G ln lam_k + lam sum_j ln lam_j`` of the becker row of
    the law table, in the order of the given stretches.
    """
    lam = np.asarray(stretches, dtype=float)
    forces = _LAWS["becker"].principal(lam, m)  # checks the floor first
    return lam / np.prod(lam) * forces


_PAIRS = ((0, 1), (0, 2), (1, 2))


def baker_ericksen_check(v, m: Moduli):
    """Ordering of principal Cauchy stresses against principal stretches.

    Evaluates ``(sigma_i - sigma_j) * (lam_i - lam_j) > 0`` for every pair
    of distinct principal stretches of the SPD tensor ``v`` (ties are
    skipped).  The report fails, with the violating pair as witness, when
    the ordering is broken; the log law does break it at strongly
    compressive stretches.  A ``v`` whose least eigenvalue is at the
    positivity floor of :func:`tensors.mat_log` or below raises
    :class:`NotPositiveDefinite`, as the law does.
    """
    lam = eig_sym(v).eigenvalues
    sigma = principal_cauchy_stresses(lam, m)
    product = {(i, j): (sigma[i] - sigma[j]) * (lam[i] - lam[j])
               for i, j in _PAIRS
               if abs(lam[i] - lam[j]) > TIE_TOL * max(1.0, lam[i], lam[j])}
    violations = [{"pair": [i, j], "stretches": [lam[i], lam[j]],
                   "stresses": [sigma[i], sigma[j]], "product": p}
                  for (i, j), p in product.items() if p <= 0.0]
    witness = {"stretches": lam, "stresses": sigma, "violations": violations}
    return CheckReport(name="baker_ericksen", passed=not violations,
                       tolerance=TIE_TOL, witness=witness)


def _force_order(lam, m: Moduli):
    """``(forces, full, reduced, slack)`` of the ordered-force check.

    ``lam`` holds principal stretches, shape (..., 3); ``full`` and
    ``reduced`` hold one column per pair of ``_PAIRS``, and a pair is
    violated where either falls below ``slack``.
    """
    _as_real(m.g, "G", "positive")
    forces = _LAWS["becker"].principal(lam, m)
    logs = np.log(lam)
    slack = -1e-12 * np.maximum(1.0, np.abs(forces).max(axis=-1))
    i, j = np.array(_PAIRS).T
    full = (forces[..., i] - forces[..., j]) * (lam[..., i] - lam[..., j])
    reduced = (2.0 * m.g * (logs[..., i] - logs[..., j])
               * (lam[..., i] - lam[..., j]))
    return forces, full, reduced, slack


def ordered_force_check(u, m: Moduli):
    """Ordering of principal Biot forces against principal stretches.

    Checks ``(T_i - T_j)(lam_i - lam_j) >= 0`` with ``T_k = 2 G ln lam_k +
    lam ln(lam_1 lam_2 lam_3)``, and the reduced form ``2 G (ln lam_i -
    ln lam_j)(lam_i - lam_j) >= 0`` directly.  Holds for every SPD u and
    every G > 0, independently of lam.
    """
    lam = eig_sym(u).eigenvalues
    forces, full, reduced, slack = _force_order(lam, m)
    violations = [{"pair": list(pair), "full": full[p],
                   "reduced": reduced[p]}
                  for p, pair in enumerate(_PAIRS)
                  if full[p] < slack or reduced[p] < slack]
    witness = {"stretches": lam, "forces": forces, "violations": violations}
    return CheckReport(name="ordered_force", passed=not violations,
                       tolerance=float(abs(slack)), witness=witness)


def hill_convexity_probe(m: Moduli, samples=1000, seed=0):
    """Midpoint-convexity probes of the lam = 0 energy.

    Returns two reports.  ``hill_log_domain`` searches for a midpoint
    convexity violation of ``X -> W(exp X)`` over random symmetric X with
    large-magnitude eigenvalues; a violation is expected to exist (so the
    report is expected to fail) and its first witness is recorded.
    ``energy_convexity_spd`` confirms midpoint convexity of ``U -> W(U)``
    over random SPD pairs with eigenvalues in [0.1, 10], which does hold;
    its witness is the pair with the largest relative excess.

    Each probe draws its pairs in bulk from its own stream (see
    :func:`_draw`) and evaluates the energies with one stacked call per
    argument; a NaN or infinite excess is the largest and fails
    ``energy_convexity_spd``.  Raises ``ValueError`` unless lam = 0 by the
    rule of :func:`constitutive.becker_energy_nu0`.
    """
    _require_samples(samples)
    if not _lam_is_zero(m):
        raise ValueError("probe defined only for lam = 0")
    tol = 1e-10
    energy = lambda u: becker_energy_nu0(u, m)

    rng = np.random.default_rng([seed, 100])
    x1, x2 = _draw(rng, samples, [_SYM_LOG, _SYM_LOG])
    w1, w2 = energy(mat_exp(x1)), energy(mat_exp(x2))
    wm = energy(mat_exp(0.5 * (x1 + x2)))
    margin = tol * np.maximum(1.0, np.maximum(abs(w1), abs(w2)))
    k = _first((_fro_norms(x1 - x2) > 1e-12)
               & (wm > 0.5 * (w1 + w2) + margin))
    witness = None
    if k is not None:
        witness = {"x1": x1[k], "x2": x2[k],
                   "energies": [float(w1[k]), float(w2[k])],
                   "midpoint_energy": float(wm[k]),
                   "excess": float(wm[k] - 0.5 * (w1[k] + w2[k]))}
    log_report = CheckReport(name="hill_log_domain", passed=witness is None,
                             tolerance=tol, witness=witness, expected=False)

    rng = np.random.default_rng([seed, 101])
    spd = (_log_range(0.1, 10.0),)
    u1, u2 = _draw(rng, samples, [spd, spd])
    w1, w2 = energy(u1), energy(u2)
    excess = _rel(energy(0.5 * (u1 + u2)) - 0.5 * (w1 + w2), abs(w1),
                  abs(w2))
    worst, witness = _worst(excess, lambda i: {
        "u1": u1[i], "u2": u2[i], "excess": float(excess[i])}, -math.inf)
    spd_report = CheckReport(name="energy_convexity_spd",
                             passed=worst <= tol, tolerance=tol,
                             witness=witness)
    return [log_report, spd_report]


# ---------------------------------------------------------------------------
# path work

@dataclass(frozen=True)
class LoadPath:
    """Deformation gradients F(t_i) at uniform parameter steps on [0, 1]."""

    gradients: np.ndarray
    closed: bool = False

    def __post_init__(self):
        g = np.asarray(self.gradients, dtype=float)
        if g.ndim != 3 or g.shape[1:] != (3, 3):
            raise ValueError("gradients must have shape (n, 3, 3)")
        finite = np.isfinite(g).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"gradient {int(np.argmin(finite))} on the "
                             f"path is not finite")
        dets = np.linalg.det(g)
        if np.any(dets <= 0.0):
            raise ValueError("every F on the path must have det > 0")
        if self.closed:
            gap = fro_norm(g[0] - g[-1])
            if gap > 1e-12 * max(1.0, fro_norm(g[0])):
                raise ValueError(
                    f"closed path endpoints differ by {gap:.3g}")
        object.__setattr__(self, "gradients", g)


def path_work(path: LoadPath, law, m: Moduli):
    """Net work per unit reference volume along a load path.

    The symmetric sum ``W = 1/2 sum_i <P_i + P_{i+1}, F_{i+1} - F_i>`` over
    the grid, with P the first Piola stress, the reference-volume work
    conjugate of F; it needs no velocity, so open and closed paths take
    the same sum.  For a hyperelastic law the closed-path work vanishes as
    the grid refines.  On a path that is smooth between grid points the
    error expands in even powers of the step, which
    :func:`converged_path_work` extrapolates away.  The PK1 stress is
    evaluated once, on the whole (n + 1, 3, 3) stack of gradients.
    """
    _require_points(path)
    return _symmetric_sum(path.gradients, pk1_for_law(law, path.gradients, m))


def _require_points(path):
    if path.gradients.shape[0] < 3:
        raise ValueError("path must contain at least 3 points")


def _symmetric_sum(g, pk1):
    # the path-work quadrature, given the PK1 stress at every grid point
    return 0.5 * float(np.sum(_inners(pk1[:-1] + pk1[1:], g[1:] - g[:-1])))


# The sub-grids of the first grid that start the Romberg table: n0 / s
# steps for each stride s that divides n0 and leaves at least 3 steps.
_SUBGRID_STRIDES = (8, 4, 2)
# The Romberg table extrapolates in h**2, h**4 and h**6.
_ROMBERG_COLUMNS = 3
# The table is trusted only once its first column shows the h**2 rate:
# successive differences of the sums shrink by a factor within this band
# of 4.  At a kink off the grid the factor wanders (3 to 5), and the
# diagonal entries can agree by chance far from the work.
_RATE_BAND = 0.1


def _extend(table, work):
    """Append to the Romberg table the row of ``work``, the symmetric sum
    on the grid of half the step of its last row."""
    row = [work]
    for k, coarse in enumerate(table[-1][:_ROMBERG_COLUMNS] if table else (),
                               start=1):
        row.append(row[-1] + (row[-1] - coarse) / (4.0 ** k - 1.0))
    table.append(row)


def _settled(table, tol):
    """Whether the last two diagonal entries (the last entry of each row)
    differ by less than tol, with the sums showing their h**2 rate or
    already agreeing to tol."""
    if len(table) < 2 or not abs(table[-1][-1] - table[-2][-1]) < tol:
        return False
    step = table[-1][0] - table[-2][0]
    if abs(step) < tol:
        return True
    return (len(table) > 2 and abs((table[-2][0] - table[-3][0]) / step
                                   - 4.0) <= _RATE_BAND)


def converged_path_work(f_of_t, law, m: Moduli, closed=False, n0=192,
                        tol=None):
    """Path work from a Romberg table of symmetric sums.

    Samples ``f_of_t`` at n0 + 1 uniform parameters.  The symmetric sums
    of :func:`path_work` on that grid and on its nested sub-grids of n0 / 8,
    n0 / 4 and n0 / 2 steps (each used only while its step count is an
    integer of at least 3) fill a Romberg table that extrapolates in h**2,
    h**4 and h**6; then each of at most 10 doublings of n adds one
    row.  Refinement stops once two successive diagonal entries
    (the last entry of each row) differ by less than ``tol`` while the
    last three sums shrink at the h**2 rate, a factor within 0.1 of 4 (or
    already agree to ``tol``).  The default ``tol`` is
    ``1e-8 * max(|G|, |lam|)``: the work scales with the larger modulus,
    and a tolerance on the scale of G alone cannot be met by the roundoff
    of a work of order lam when lam is huge.  Returns ``(work, n,
    converged)``.  A non-finite estimate stops the refinement unconverged.

    The even-power error expansion holds only where the path is smooth
    between the points of the coarsest grid used: a kink (a corner of a
    piecewise path) must fall on it.  The corners at t = 1/3 and 2/3 of
    :func:`dilation_shear_cycle` do for the default n0 = 192, whose
    coarsest sub-grid has 24 steps.  A kink off that grid breaks the h**2
    rate of the sums, which mostly ends the run unconverged or at a work
    the sums themselves have settled to ``tol``; the rate check is not a
    proof, and on random diagonal cycles of 5 to 11 segments about 1 in
    130 still stops converged with an error above ``tol``.

    At the defaults the dilation-shear cycle converges on the first grid,
    to within ``1e-13 max(1, |lam|)`` of ``lam (4 - 6 ln 2)`` for lam up
    to 25; rotating cycles of corner stretch up to 2 at lam up to 0.5
    come within 2e-12 of their closed forms, and within 1e-13 at
    ``tol = 1e-12 |G|``.

    Sub-grids cost no sample: they are strided views of the first grid.
    Each doubling keeps the gradients and PK1 stresses of the coarser grid
    and samples ``f_of_t`` and evaluates PK1 only at the n new midpoints,
    as one stack, so ``f_of_t`` is called ``n + 1`` times in all for the
    returned n.  The kept points are those a fresh grid would sample:
    ``linspace(0, 1, 2n + 1)[::2]`` is bit-equal to ``linspace(0, 1,
    n + 1)``, so every table entry is built from the sums of fresh grids.
    """
    if tol is None:
        tol = 1e-8 * max(abs(m.g), abs(m.lam))
    n = int(n0)
    path = LoadPath(_samples(f_of_t, np.linspace(0.0, 1.0, n + 1)),
                    closed=closed)
    _require_points(path)
    pk1 = pk1_for_law(law, path.gradients, m)
    table = []
    strides = [s for s in _SUBGRID_STRIDES if n % s == 0 and n // s >= 3]
    for s in strides + [1]:
        _extend(table, _symmetric_sum(path.gradients[::s], pk1[::s]))
    for _ in range(MAX_DOUBLINGS):
        if _settled(table, tol) or not math.isfinite(table[-1][-1]):
            break  # a non-finite sum stays so: the kept points stay
        path, pk1, n = _refine(f_of_t, path, pk1, n, law, m)
        _extend(table, _symmetric_sum(path.gradients, pk1))
    return table[-1][-1], n, _settled(table, tol)


def _samples(f_of_t, ts):
    return np.array([f_of_t(t) for t in ts])


def _refine(f_of_t, path, pk1, n, law, m):
    """The path and its PK1 stresses on the grid of 2n steps, from those on
    n steps: f_of_t and PK1 are evaluated at the new midpoints only."""
    g = np.empty((2 * n + 1, 3, 3))
    g[::2] = path.gradients
    g[1::2] = _samples(f_of_t, np.linspace(0.0, 1.0, 2 * n + 1)[1::2])
    path = LoadPath(g, closed=path.closed)
    fine = np.empty_like(g)
    fine[::2], fine[1::2] = pk1, pk1_for_law(law, g[1::2], m)
    return path, fine, 2 * n


def diagonal_path(corners):
    """Piecewise-linear path through diagonal stretches.

    ``corners`` is a sequence of diagonal triples; returns ``f(t)`` tracing
    them at uniform speed over [0, 1].
    """
    pts = np.asarray(corners, dtype=float).tolist()
    segs = len(pts) - 1

    def f(t):
        t = min(max(float(t), 0.0), 1.0)
        x = t * segs
        i = min(int(x), segs - 1)
        w = x - i
        d = np.zeros((3, 3))
        d[0, 0], d[1, 1], d[2, 2] = [(1.0 - w) * a + w * b
                                     for a, b in zip(pts[i], pts[i + 1])]
        return d

    return f


def dilation_shear_cycle():
    """Closed diagonal cycle mixing uniaxial stretch and dilation.

    (1,1,1) -> (2,1,1) -> (2,2,2) -> (1,1,1).  Under the logarithmic law
    the net work around this loop is ``lam * (4 - 6 ln 2)``, nonzero for
    every lam != 0; with lam = 0 the loop is exactly closed energetically.
    """
    return diagonal_path([(1.0, 1.0, 1.0), (2.0, 1.0, 1.0),
                          (2.0, 2.0, 2.0), (1.0, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# order-of-remainder ladders

def _ladder_report(name, residual_of_h, h_ladder):
    ratios = {}
    for h in h_ladder:
        ratios[h] = residual_of_h(h) / h ** 2
    vals = list(ratios.values())
    top, bottom = max(vals), min(vals)
    if top <= 1e-9:  # residual numerically zero across the ladder
        passed = True
    else:
        passed = bottom > 0.0 and top / bottom < LADDER_FACTOR
    witness = {"ratios": {f"{h:g}": v for h, v in ratios.items()}}
    return CheckReport(name=name, passed=passed, tolerance=LADDER_FACTOR,
                       witness=witness)


def linearization_order_check(m: Moduli, eps, h_ladder=LADDER_H):
    """Second-order agreement of the log law with the infinitesimal law.

    The residual ``||biot(I + h*eps) - (2 G h eps + lam tr(h eps) I)||``
    must scale like h**2: the ladder of residual/h**2 ratios may vary by
    less than a factor of 4.
    """
    eps = sym_part(as_mat3(eps, "eps"))

    def residual(h):
        full = becker_biot(np.eye(3) + h * eps, m)
        lin = linearized_law(h * eps, m)
        return fro_norm(full - lin)

    return _ladder_report("linearization_order", residual, h_ladder)


def pk2_expansion_check(m: Moduli, eps, h_ladder=LADDER_H):
    """Second-order agreement of the PK2 stress with its leading expansion.

    With ``E`` the Green-Lagrange strain of ``U = I + h*eps``, the residual
    ``||pk2(U) - (lam tr(E) I + 2 G E)||`` must scale like h**2.
    """
    eps = sym_part(as_mat3(eps, "eps"))

    def residual(h):
        u = np.eye(3) + h * eps
        e = 0.5 * (u @ u - np.eye(3))
        return fro_norm(becker_pk2(u, m) - linearized_law(e, m))

    return _ladder_report("pk2_expansion", residual, h_ladder)


# ---------------------------------------------------------------------------
# the full suite

_LADDER_EPS = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.1],
                        [-0.2, 0.1, 0.25]])


@np.errstate(over="ignore", invalid="ignore")
def suite(law, m: Moduli, samples=1000, seed=0):
    """Axiom block plus, for the logarithmic Biot law, the physics checks.

    The returned reports carry ``expected`` flags: counterexample
    reproductions (ordering of Cauchy stresses at strong compression,
    convexity in the log domain, monotonicity for lam > 20 G, nonzero
    closed-cycle work for lam != 0) are expected to fail.  lam = 0 means
    ``|lam| <= 1e-14 max(1, |G|)``, the rule of
    :func:`constitutive.becker_energy_nu0`; there the suite adds the random
    monotonicity search, the convexity probes and the open-path energy
    match.  The closed-cycle witness records the paper's ``lam (4 - 6 ln
    2)`` and the distance of the work from it, ``work_error``.  When the
    quadrature of a path-work report did not converge, the report comes out
    not as expected: the open-path energy match fails, and the closed-cycle
    work fails at lam = 0 and passes where it is expected to fail.

    A residual that overflows fails its check as a NaN or infinite
    residual, so the suite runs without numpy's floating-point warnings.
    """
    row = _tensor_row(law)
    reports = check_axioms(row.tag, m, samples=samples, seed=seed)
    if row.tag != "becker":
        return reports
    lam_zero = _lam_is_zero(m)

    value = m_condition_check(np.diag([2.0, 0.25, 1.0]), np.eye(3), m)
    closed = m_condition_paper_pair_value(m)
    scale = max(1.0, abs(closed))
    reports.append(CheckReport(
        name="m_condition_closed_form",
        passed=abs(value - closed) <= 1e-12 * scale, tolerance=1e-12,
        witness={"value": value, "closed_form": closed}))
    reports.append(CheckReport(
        name="m_condition_paper_pair", passed=value > 0.0, tolerance=0.0,
        witness={"value": value, "lam_over_g": m.lam / m.g},
        expected=closed > 0.0))

    if lam_zero:
        u1, u2 = _draw(np.random.default_rng([seed, 200]), samples,
                       [_SPD, _SPD])
        kept = np.flatnonzero(_fro_norms(u1 - u2) > 1e-12)
        u1, u2 = u1[kept], u2[kept]
        value = m_condition_check(u1, u2, m)
        # the worst pair is the first smallest product
        least, witness = _worst(-value, lambda i: {
            "u1": u1[i], "u2": u2[i], "value": float(value[i])}, -math.inf)
        reports.append(CheckReport(
            name="m_condition_random", passed=least < 0.0, tolerance=0.0,
            witness=witness))

    counter = baker_ericksen_check(
        np.diag([1.0 / math.e, math.e ** -2, math.e ** 3]), m)
    reports.append(replace(counter, name="baker_ericksen_counterexample",
                           expected=False))
    small = baker_ericksen_check(np.eye(3) + 1e-4 * np.diag([1.0, 2.0, 3.0]),
                                 m)
    reports.append(replace(small, name="baker_ericksen_small_strain"))

    u, = _draw(np.random.default_rng([seed, 201]), samples, [_SPD])
    lam, _ = _spectrum(sym_part(_as_mats(u, "u")))
    _, full, reduced, slack = _force_order(lam, m)
    k = _first(((full < slack[:, None]) | (reduced < slack[:, None]))
               .any(axis=-1))
    reports.append(CheckReport(
        name="ordered_force_random", passed=k is None, tolerance=1e-12,
        witness=None if k is None else ordered_force_check(u[k], m).witness))

    if lam_zero:
        reports.extend(hill_convexity_probe(m, samples=samples, seed=seed))

    work, n, converged = converged_path_work(
        dilation_shear_cycle(), row.tag, m, closed=True)
    cycle_tol = 1e-6 * abs(m.g)
    # a quadrature that did not converge decides nothing: the report then
    # comes out not as expected, whichever way the work was expected to go
    expected = lam_zero
    predicted = m.lam * (4.0 - 6.0 * math.log(2.0))
    reports.append(CheckReport(
        name="closed_cycle_work",
        passed=abs(work) <= cycle_tol if converged else not expected,
        tolerance=cycle_tol,
        witness={"work": work, "steps": n, "quadrature_converged": converged,
                 "predicted_work": predicted,
                 "work_error": abs(work - predicted)},
        expected=expected))

    if lam_zero:
        open_path = diagonal_path([(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)])
        work_open, n, converged = converged_path_work(open_path, row.tag, m)
        delta = (becker_energy_nu0(open_path(1.0), m)
                 - becker_energy_nu0(open_path(0.0), m))
        reports.append(CheckReport(
            name="open_path_energy_match",
            passed=converged and abs(work_open - delta) <= cycle_tol,
            tolerance=cycle_tol,
            witness={"work": work_open, "energy_difference": delta,
                     "steps": n, "quadrature_converged": converged}))

    reports.append(linearization_order_check(m, _LADDER_EPS))
    reports.append(pk2_expansion_check(m, _LADDER_EPS))
    return reports
