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
worst, so a check whose residual cannot be evaluated fails.  A check whose
evaluation raises :class:`LogstrainError` (a stress or an energy that
overflows) decides nothing: its report comes out not as expected, whichever
way the check was expected to go, with the message as its witness.

Path work to a tolerance comes from one nested Chebyshev rule
(:func:`converged_path_work`): Clenshaw-Curtis weights and a Chebyshev
differentiation matrix on 6 equal panels of the path parameter, degree
N = 16 per panel at first and at most 256.  A path must have its kinks on
the panel grid t = k / 6 (a path of 1, 2, 3 or 6 equal segments);
elsewhere the rule usually reports no convergence.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import (_LAWS, _finite, _lam_is_zero, _log_strain,
                           _tensor_row, becker_biot, becker_energy_nu0,
                           becker_inverse, becker_pk2, linearized_law,
                           pk1_for_law, stretch_stress)
from .errors import LogstrainError
from .moduli import Moduli
from .tensors import (_as_mats, _as_real, _at, _closed_form, _diag,
                      _first, _first_nonfinite, _fro_norms, _inners,
                      _pow2_scale, _spectrum, as_mat3, eig_sym, fro_norm,
                      mat_exp, mat_pow, sym_part)

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
# converged_path_work integrates over this many equal panels of [0, 1],
# each with a polynomial of degree at most MAX_DEGREE
PANELS = 6
MAX_DEGREE = 256


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


def _run(name, tolerance, evaluate, expected=True):
    """The report of one check, ``evaluate()`` giving ``(passed,
    witness)``.  A :class:`LogstrainError` raised by it leaves the check
    undecided: the report then comes out not as expected, whichever way
    the check was expected to go, with the message as its witness."""
    try:
        passed, witness = evaluate()
    except LogstrainError as exc:
        passed, witness = not expected, {"error": str(exc)}
    return CheckReport(name=name, passed=passed, tolerance=tolerance,
                       witness=witness, expected=expected)


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
    infinite residual is the worst and fails the check.  A
    :class:`LogstrainError` raised while evaluating the batch (for
    instance a stress that overflows) leaves the check undecided: its
    report comes out not as expected, with the message as its witness.
    """
    _require_samples(samples)
    row = _tensor_row(law)
    t = lambda u: stretch_stress(row.tag, u, m)

    def misfit(lhs, rhs):
        # relative distance of two stress stacks, per sample; the three
        # norms in one call
        norms = _fro_norms(np.concatenate((lhs - rhs, lhs, rhs)))
        return _rel(*norms.reshape(3, -1))

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
    def evaluate(check, k):
        worst, witness = check(np.random.default_rng([seed, k]))
        return worst <= AXIOM_TOL, witness

    return [_run(check.__name__, AXIOM_TOL, lambda: evaluate(check, k),
                 expected=check.__name__ not in row.violates)
            for k, check in enumerate(checks)]


# ---------------------------------------------------------------------------
# constitutive inequalities

def m_condition_check(u1, u2, m: Moduli):
    """Monotonicity inner product <T(U1) - T(U2), U1 - U2> for the log law.

    A positive sign at every pair of distinct SPD arguments is the strict
    monotonicity of the stress-stretch map; the returned value reports the
    sign at this particular pair.  ``u1`` and ``u2`` may also be
    (..., 3, 3) stacks of pairs, giving an array of shape (...); one pair
    gives a float.  A product that is not finite raises
    :class:`LogstrainError`, naming the first such pair of a stack.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    k = _first(_fro_norms(u1 - u2)
               <= 1e-14 * np.maximum(1.0, _fro_norms(u1)))
    if k is not None:
        raise ValueError(f"u1 and u2 must differ{_at(k, u1.shape[:-2])}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _inners(becker_biot(u1, m) - becker_biot(u2, m), u1 - u2)
    k = _first(~np.isfinite(value))
    if k is not None:
        raise LogstrainError(f"m_condition_check: product is not finite at "
                             f"G = {m.g:.6g}, lam = {m.lam:.6g}"
                             f"{_at(k, value.shape)}")
    return value if u1.ndim > 2 else float(value)


@_closed_form
def m_condition_paper_pair_value(m: Moduli):
    """Closed form of the monotonicity product at (diag(2, 1/4, 1), I).

    ``ln(2)/4 * (20 G - lam)``: negative, i.e. monotonicity lost, as soon
    as lam > 20 G.  Formed as ``4 ln 2 (1.25 G - lam / 16)``, with the
    same bits, so that it stays finite wherever the value is; a value
    that overflows raises :class:`LogstrainError`.
    """
    return 4.0 * (math.log(2.0) * (1.25 * m.g - m.lam / 16.0))


def principal_cauchy_stresses(stretches, m: Moduli):
    """Principal Cauchy stresses of the log law at principal stretches.

    ``sigma_k = lam_k / (lam_1 lam_2 lam_3) * T_k``, with the principal
    forces ``T_k = 2 G ln lam_k + lam sum_j ln lam_j`` of the becker row of
    the law table, in the order of the given stretches.  A force or a
    stress that is not finite raises :class:`LogstrainError`.
    """
    lam = np.asarray(stretches, dtype=float)
    forces = _LAWS["becker"].principal(lam, m)  # checks the floor first
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = lam / np.prod(lam) * forces
    return _finite("becker", sigma[..., None], m)[..., 0]


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
    ``energy_convexity_spd``.  A probe whose energies overflow (G near the
    largest float) decides nothing and comes out not as expected, with the
    :class:`LogstrainError` message as its witness.  Raises
    ``ValueError`` unless lam = 0 by the rule of
    :func:`constitutive.becker_energy_nu0`.
    """
    _require_samples(samples)
    if not _lam_is_zero(m):
        raise ValueError("probe defined only for lam = 0")
    tol = 1e-10
    energy = lambda u: becker_energy_nu0(u, m)

    def log_domain():
        x1, x2 = _draw(np.random.default_rng([seed, 100]), samples,
                       [_SYM_LOG, _SYM_LOG])
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
        return witness is None, witness

    def spd_pairs():
        spd = (_log_range(0.1, 10.0),)
        u1, u2 = _draw(np.random.default_rng([seed, 101]), samples,
                       [spd, spd])
        w1, w2 = energy(u1), energy(u2)
        excess = _rel(energy(0.5 * (u1 + u2)) - 0.5 * (w1 + w2), abs(w1),
                      abs(w2))
        worst, witness = _worst(excess, lambda i: {
            "u1": u1[i], "u2": u2[i], "excess": float(excess[i])},
            -math.inf)
        return worst <= tol, witness

    return [_run("hill_log_domain", tol, log_domain, expected=False),
            _run("energy_convexity_spd", tol, spd_pairs)]


# ---------------------------------------------------------------------------
# path work

@dataclass(frozen=True)
class LoadPath:
    """Deformation gradients F(t_i) at uniform parameter steps on [0, 1].

    Each gradient is checked once on construction: finite (one sum over
    the whole stack, with the per-matrix test only when that sum is not
    finite, so the message names the first bad gradient), ``det F > 0``
    (a determinant that overflows to +inf counts as positive, and quietly),
    and for a closed path end points within ``1e-12 max(1, |F_0|)`` of
    each other in the Frobenius norm, compared on the two end points
    scaled by one power of two so that no difference or square overflows.
    """

    gradients: np.ndarray
    closed: bool = False

    def __post_init__(self):
        g = _checked_gradients(self.gradients)
        if self.closed:
            # the end points scaled by one power of two: exact, and the
            # gap and the norms cannot overflow
            s = _pow2_scale(float(np.max(np.abs(g[[0, -1]]))))
            gap = fro_norm(g[0] / s - g[-1] / s)
            if gap > 1e-12 * max(1.0 / s, fro_norm(g[0] / s)):
                raise ValueError(
                    f"closed path endpoints differ by {gap * s:.3g}")
        object.__setattr__(self, "gradients", g)


def _checked_gradients(g, first=0, step=1):
    """``g`` as a float (k, 3, 3) stack of path gradients, each finite
    with ``det > 0``, or ``ValueError``.  Gradient i of the stack is
    gradient ``first + step * i`` of the path, the index a message
    names."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[1:] != (3, 3) or not len(g):
        raise ValueError("gradients must have shape (n, 3, 3)")
    i = _first_nonfinite(g)
    if i is not None:
        raise ValueError(f"gradient {first + step * i} on the path is not "
                         f"finite")
    with np.errstate(over="ignore"):  # an overflow to +inf is still > 0
        dets = np.linalg.det(g)
    if np.any(dets <= 0.0):
        raise ValueError("every F on the path must have det > 0")
    return g


def path_work(path: LoadPath, law, m: Moduli):
    """Net work per unit reference volume along a load path.

    The symmetric sum ``W = 1/2 sum_i <P_i + P_{i+1}, F_{i+1} - F_i>`` over
    the grid, with P the first Piola stress, the reference-volume work
    conjugate of F; it needs no velocity, so open and closed paths take
    the same sum.  For a hyperelastic law the closed-path work vanishes as
    the grid refines, with an error of order the step squared on a path
    that is smooth between grid points.  The PK1 stress is evaluated once,
    on the whole (n + 1, 3, 3) stack of gradients.  For the work to a
    tolerance, sample the path with :func:`converged_path_work` instead.
    """
    g = path.gradients
    if g.shape[0] < 3:
        raise ValueError("path must contain at least 3 points")
    pk1 = pk1_for_law(law, g, m)
    return 0.5 * float(np.sum(_inners(pk1[:-1] + pk1[1:], g[1:] - g[:-1])))


@functools.cache
def _rule(n):
    """The nested rule of degree n: its PANELS * n + 1 nodes in t on
    [0, 1], ascending, a node shared by two panels once, and, for the
    n + 1 Lobatto nodes y of one panel, the Chebyshev differentiation
    matrix, the Clenshaw-Curtis weights (Trefethen, Spectral Methods in
    MATLAB, SIAM 2000, ``cheb`` and ``clencurt``) and the chord fractions
    ``(1 + y) / 2``, from 0 at the panel's first node to 1 at its last.

    A node is computed the same way for every n, so the rule of degree 2n
    has the nodes of degree n, bit for bit, at its even indices.
    """
    k = np.arange(n + 1)
    y = np.sin(np.pi * (2 * k - n) / (2 * n))  # Lobatto nodes of [-1, 1]
    ends = np.where((k == 0) | (k == n), 2.0, 1.0)
    c = ends * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (y[:, None] - y + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    j = np.arange(1, n // 2 + 1)
    b = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    w = 2.0 / (ends * n) * (1.0 - np.cos(2.0 * np.pi / n * np.outer(k, j)) @ b)
    s = 0.5 * (1.0 + y)
    t = np.append((np.arange(PANELS)[:, None] + s[:-1]) / PANELS, 1.0)
    return t, d, w, s


def _panel_works(g, pk1, n):
    """The rule of degree n on the gradients and PK1 stresses at its nodes,
    one work per panel: the sum over the nodes of ``w_k <P_k, (D F)_k>``,
    in which the panel width cancels.  D is applied to the gradients
    before the inner product, so no table of ``<P_k, F_j>`` is formed
    (one overflows at lam = 1e307, where the work does not), and only to
    F's deviation from its chord: with F_0 and F_N the panel's end
    gradients, ``(D F)_k = (F_N - F_0) / 2 + (D (F - F_0 - s (F_N -
    F_0)))_k`` for the chord fractions s, since D maps a linear function
    to its slope.  So D's roundoff scales with the curvature of F over
    the panel, not with F or its change."""
    _, d, w, s = _rule(n)
    panels = np.arange(PANELS)[:, None] * n + np.arange(n + 1)
    g = g.reshape(-1, 9)[panels]
    first = g[:, :1]
    chord = g[:, -1:] - first
    rate = 0.5 * chord + d @ (g - first - s[:, None] * chord)
    return np.sum(w[:, None] * pk1.reshape(-1, 9)[panels] * rate, axis=(1, 2))


def converged_path_work(f_of_t, law, m: Moduli, closed=False, tol=None):
    """Path work from one nested Chebyshev rule.

    ``f_of_t`` is sampled on PANELS = 6 equal panels of [0, 1], at the
    N + 1 Chebyshev-Lobatto nodes of each, and the work is
    ``sum over panels, sum_k w_k <P_k, (D F)_k>``: Clenshaw-Curtis weights
    w, the Chebyshev differentiation matrix D applied to the gradients for
    dF/dt (so no velocity is needed; D acts only on F's deviation from its
    chord on each panel, see :func:`_panel_works`), and the PK1 stress P.
    The rule starts at N = 16: 97 samples, 96 steps.  Its error estimate
    is ``|W_N - W_{N/2}|``, the rule of N / 2 on every other node, which
    costs no sample; it is the error of the N / 2 rule, so it bounds that
    of W_N only loosely, and a run may refine after W_N is already exact.
    Refinement doubles N up to MAX_DEGREE = 256 and stops once the
    estimate is below ``tol``, in total and on every panel.  The default
    ``tol`` is ``1e-8 * max(|G|, |lam|)``: the work scales with the larger
    modulus, and a tolerance on the scale of G alone cannot be met by the
    roundoff of a work of order lam when lam is huge.  Returns ``(work, n,
    converged)`` with ``n = 6 N`` steps.  A non-finite estimate stops the
    refinement unconverged; a work that is not finite raises
    :class:`LogstrainError`.

    The rule is spectrally accurate where the path is smooth within each
    panel, so a kink (a corner of a piecewise path) must fall on the grid
    of t = k / 6, as the corners at t = 1/3 and 2/3 of
    :func:`dilation_shear_cycle` do: a path of 1, 2, 3 or 6 equal
    segments.  Inside a panel a kink converges only algebraically, and the
    run usually stops unconverged at n = 1536, as a 4-segment cycle (kinks
    at t = 1/4 and 3/4) and the 7-segment cycles of the tests do; the
    per-panel estimate keeps the errors of several kinks from cancelling
    in the total into a false convergence.

    At the defaults the dilation-shear cycle converges on the first rule,
    to within ``1e-13 max(1, |lam|)`` of ``lam (4 - 6 ln 2)`` for lam up
    to 1e307, and at 5e307, where the stresses come within a factor of 2
    of overflow; at lam in {0, 0.5, 25} it and a straight open diagonal
    path come within ``1e-15 max(1, |lam|)`` of their closed forms.
    Rotating cycles of corner stretch up to 2 at lam up to 0.5 converge on
    the first rule too, within 1e-13 of their closed forms, and so does a
    curved open path.

    Sampling: a path of :func:`diagonal_path` is evaluated on a whole
    array of nodes in one numpy pass, with the bits of its call at each
    node; any other ``f_of_t`` is called once per node with a Python
    float.  The first rule samples all its nodes; each doubling keeps the
    gradients and PK1 stresses at the nodes of the coarser rule and
    samples the path only at the new odd nodes, so a callable is called
    ``n + 1`` times in all for the returned n.  PK1 is one
    :func:`constitutive.pk1_for_law` call per rule, on the stack of the
    nodes it samples.  Each node is checked once, as :class:`LoadPath`
    checks a gradient: the first rule as a LoadPath (the closure of a
    closed path included), a doubling's new nodes alone, with a message
    that names the node's index in the doubled rule.
    """
    if tol is None:
        tol = 1e-8 * max(abs(m.g), abs(m.lam))
    if isinstance(f_of_t, _DiagonalPath):
        sample = f_of_t._at_nodes
    else:
        def sample(t):
            return np.array([f_of_t(x) for x in t.tolist()])
    n = 16
    g = LoadPath(sample(_rule(n)[0]), closed=closed).gradients
    pk1 = pk1_for_law(law, g, m)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            works = _panel_works(g, pk1, n)
            work = float(np.sum(works))
            # on every panel too, so that the errors of panels with kinks
            # cannot cancel in the total
            error = works - _panel_works(g[::2], pk1[::2], n // 2)
            converged = bool(abs(np.sum(error)) < tol
                             and np.all(np.abs(error) < tol))
        if not math.isfinite(work):
            raise LogstrainError(f"path work with {law!r} is not finite: "
                                 f"{work} at n = {PANELS * n}")
        if converged or n == MAX_DEGREE:
            return work, PANELS * n, converged
        n *= 2
        new = _checked_gradients(sample(_rule(n)[0][1::2]), first=1, step=2)
        fine = np.empty((2, PANELS * n + 1, 3, 3))
        fine[:, ::2] = g, pk1
        fine[0, 1::2] = new
        fine[1, 1::2] = pk1_for_law(law, new, m)
        g, pk1 = fine


class _DiagonalPath:
    """The path of :func:`diagonal_path`: called at one t, its diagonal
    gradient; :meth:`_at_nodes` gives the gradients at an array of t."""

    __slots__ = ("_segs", "_pairs", "_ends")

    def __init__(self, corners):
        pts = np.asarray(corners, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
            raise ValueError("corners must be at least two diagonal triples")
        self._segs = len(pts) - 1
        self._ends = pts[:-1], pts[1:]
        # per segment, the (start, end) pair of each diagonal entry, as
        # Python floats: (a0, b0, a1, b1, a2, b2)
        self._pairs = [(a[0], b[0], a[1], b[1], a[2], b[2]) for a, b in
                       zip(pts[:-1].tolist(), pts[1:].tolist())]

    def __call__(self, t):
        x = min(max(float(t), 0.0), 1.0) * self._segs
        i = min(int(x), self._segs - 1)
        w = x - i
        v = 1.0 - w
        a0, b0, a1, b1, a2, b2 = self._pairs[i]
        d = np.zeros((3, 3))
        d[0, 0] = v * a0 + w * b0
        d[1, 1] = v * a1 + w * b1
        d[2, 2] = v * a2 + w * b2
        return d

    @np.errstate(over="ignore", invalid="ignore")
    def _at_nodes(self, t):
        """The gradients at the parameters of the 1-d array t, in [0, 1],
        shape (len(t), 3, 3): the call's arithmetic on each, so each member
        has the bits of the call at its t."""
        x = t * self._segs
        i = np.minimum(x.astype(np.int64), self._segs - 1)
        w = (x - i)[:, None]
        start, end = self._ends
        d = np.zeros((len(t), 3, 3))
        d[:, [0, 1, 2], [0, 1, 2]] = (1.0 - w) * start[i] + w * end[i]
        return d


def diagonal_path(corners):
    """Piecewise-linear path through diagonal stretches.

    ``corners`` is a sequence of at least two diagonal triples; returns a
    callable ``f(t)`` tracing them at uniform speed over [0, 1], t clamped
    to [0, 1]: on segment i of k, ``(1 - w) a + w b`` of its end corners a
    and b per diagonal entry, with ``w = t k - i``.  A float-valued
    callable like any other, it also lets :func:`converged_path_work`
    evaluate a whole array of nodes in one numpy pass, with the same
    bits as the calls at those nodes.
    """
    return _DiagonalPath(corners)


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
    match.  Both paths have their corners on the t = k / 6 panel grid of
    :func:`converged_path_work` and converge on its first rule, 96
    steps.  The closed-cycle witness records the paper's ``lam (4 - 6 ln
    2)`` and the distance of the work from it, ``work_error``, at most
    ``1e-13 max(1, |lam|)``.  When the
    quadrature of a path-work report did not converge, the report comes out
    not as expected: the open-path energy match fails, and the closed-cycle
    work fails at lam = 0 and passes where it is expected to fail.

    A residual that overflows fails its check as a NaN or infinite
    residual, so the suite runs without numpy's floating-point warnings.
    A check whose stresses, energies or closed form overflow (a
    :class:`LogstrainError` raised while evaluating it, as at G = 8e307
    with lam = 0) decides nothing: its report comes out not as expected,
    whichever way it was expected to go, with the message as its witness.
    """
    row = _tensor_row(law)
    reports = check_axioms(row.tag, m, samples=samples, seed=seed)
    if row.tag != "becker":
        return reports
    lam_zero = _lam_is_zero(m)
    # the product at the paper's pair, formed once for both of its reports
    pair_value = functools.cache(lambda: m_condition_check(
        np.diag([2.0, 0.25, 1.0]), np.eye(3), m))

    def closed_form():
        value, closed = pair_value(), m_condition_paper_pair_value(m)
        return (abs(value - closed) <= 1e-12 * max(1.0, abs(closed)),
                {"value": value, "closed_form": closed})

    def paper_pair():
        value = pair_value()
        return value > 0.0, {"value": value, "lam_over_g": m.lam / m.g}

    def random_pairs():
        u1, u2 = _draw(np.random.default_rng([seed, 200]), samples,
                       [_SPD, _SPD])
        kept = np.flatnonzero(_fro_norms(u1 - u2) > 1e-12)
        u1, u2 = u1[kept], u2[kept]
        value = m_condition_check(u1, u2, m)
        # the worst pair is the first smallest product
        least, witness = _worst(-value, lambda i: {
            "u1": u1[i], "u2": u2[i], "value": float(value[i])}, -math.inf)
        return least < 0.0, witness

    def baker_ericksen(v):
        report = baker_ericksen_check(v, m)
        return report.passed, report.witness

    def ordered_forces():
        u, = _draw(np.random.default_rng([seed, 201]), samples, [_SPD])
        lam, _ = _spectrum(sym_part(_as_mats(u, "u")))
        _, full, reduced, slack = _force_order(lam, m)
        k = _first(((full < slack[:, None]) | (reduced < slack[:, None]))
                   .any(axis=-1))
        return k is None, (None if k is None
                           else ordered_force_check(u[k], m).witness)

    cycle_tol = 1e-6 * abs(m.g)

    def cycle_work():
        work, n, converged = converged_path_work(
            dilation_shear_cycle(), row.tag, m, closed=True)
        predicted = m.lam * (4.0 - 6.0 * math.log(2.0))
        # a quadrature that did not converge decides nothing: the report
        # then comes out not as expected, whichever way it was expected to go
        return (abs(work) <= cycle_tol if converged else not lam_zero,
                {"work": work, "steps": n, "quadrature_converged": converged,
                 "predicted_work": predicted,
                 "work_error": abs(work - predicted)})

    def open_path_work():
        path = diagonal_path([(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)])
        work, n, converged = converged_path_work(path, row.tag, m)
        delta = (becker_energy_nu0(path(1.0), m)
                 - becker_energy_nu0(path(0.0), m))
        return (converged and abs(work - delta) <= cycle_tol,
                {"work": work, "energy_difference": delta, "steps": n,
                 "quadrature_converged": converged})

    reports.append(_run("m_condition_closed_form", 1e-12, closed_form))
    # the sign of the closed form, which holds where its value overflows
    reports.append(_run("m_condition_paper_pair", 0.0, paper_pair,
                        expected=m.lam < 20.0 * m.g))
    if lam_zero:
        reports.append(_run("m_condition_random", 0.0, random_pairs))
    reports.append(_run(
        "baker_ericksen_counterexample", TIE_TOL,
        lambda: baker_ericksen(np.diag([1.0 / math.e, math.e ** -2,
                                        math.e ** 3])),
        expected=False))
    reports.append(_run(
        "baker_ericksen_small_strain", TIE_TOL,
        lambda: baker_ericksen(np.eye(3) + 1e-4 * np.diag([1.0, 2.0, 3.0]))))
    reports.append(_run("ordered_force_random", 1e-12, ordered_forces))
    if lam_zero:
        reports.extend(hill_convexity_probe(m, samples=samples, seed=seed))
    reports.append(_run("closed_cycle_work", cycle_tol, cycle_work,
                        expected=lam_zero))
    if lam_zero:
        reports.append(_run("open_path_energy_match", cycle_tol,
                            open_path_work))
    reports.append(linearization_order_check(m, _LADDER_EPS))
    reports.append(pk2_expansion_check(m, _LADDER_EPS))
    return reports
