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
fixed order; a check of stretches alone (scalar, or principal) draws one
array of them.  :func:`check_axioms`, :func:`hill_convexity_probe` and
:func:`suite` each declare their checks once, in report order, and one
runner (:func:`_reports`) makes the draws of every stream in one
:func:`_draw` call, the rotations from one stacked QR, and answers the
checks that ask for stresses from one batch of (n, 3, 3) stacks, which
answers stresses only.  Each matrix is
decomposed once, in rounds: round 1 is one spectrum of every stretch the
checks give, the bases of real powers included, from which the powers and
the stresses are read; round 2 is one spectrum of the powers; and the law
is called once, on the spectra of both rounds.  Each check then judges
its own slice, with the bits it would get alone.  A check reports the
first worst sample, or for a search the first flagged one.  A NaN or
infinite residual counts as the worst, so a check whose residual cannot
be evaluated fails.  The batch raises nothing for a member: its floor and
finiteness tests run once on the whole batch, as masks, and where one
fails, a check's read of its slice makes its members' own public calls
in order (``mat_pow`` per exponent, then the law), so the error it raises
(a stress that overflows) is the one its own call raises;
the answers still come from the batch.  The batch is evaluated inside
the first report that reads it; where its masks pass, nothing is
evaluated twice.  A check whose evaluation raises decides nothing: its
report comes out not as expected, whichever way the check was expected
to go, with the message as its witness.

Path work to a tolerance comes from one nested Chebyshev rule
(:func:`converged_path_work`): Clenshaw-Curtis weights and a Chebyshev
differentiation matrix on equal panels of the path parameter, degree
N = 16 per panel at first and at most 256.  A path must have its kinks on
panel boundaries.  A :func:`diagonal_path` of k segments takes the
smallest multiple of k panels that is at least 6, so its corners always
are; any other path gets 6 panels and must have its kinks on the grid
t = j / 6 (a path of 1, 2, 3 or 6 equal segments); elsewhere the rule
usually reports no convergence.
"""

import functools
import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constitutive import (_LAWS, _finite, _lam_is_zero, _lame, _lame_on_frame,
                           _log_strain, _pk1, _pk2_of_biot, _tensor_law,
                           _tensor_row, becker_energy_nu0, becker_inverse,
                           linearized_law, pk1_for_law)
from .errors import LogstrainError
from .kinematics import DET_TOL, _jacobian
from .moduli import Moduli
from .tensors import (_EYE, _as_real, _at, _below_floor, _closed_form, _concat,
                      _det, _diag, _first, _first_nonfinite, _fro_norms,
                      _from_spectrum, _inners, _pow2_scale, _pow_rule,
                      _split_like, _spectrum, _sum_is_finite, as_mat3, eig_sym,
                      fro_norm, mat_exp, mat_pow, sym_part)

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

    @property
    def undecided(self):
        """Whether evaluating the check raised :class:`LogstrainError`,
        whose message is then the witness ``{"error": message}``."""
        return isinstance(self.witness, dict) and "error" in self.witness


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
# per-sample shapes of a stream of stretches alone: one, or three principal
_STRETCH, _PRINCIPAL = (), (3,)


def _draw(rng, samples, groups, *streams):
    """Stacks of random matrices, each group's draws made in bulk.

    Each group of ``groups`` draws from ``rng`` in turn one (samples, 3)
    array of spectra ``rng.uniform(lo, hi, (samples, 3))`` per ``(lo, hi,
    log)`` entry, exponentiated when ``log`` is true, and then one
    (samples, 3, 3) array of standard normals, whose orthogonal factors Q
    (sign-fixed, det +1, the sign of det Q read from the triple product of
    its columns) are the group's rotations.  ``streams`` are
    further ``(rng, groups)`` pairs, drawn after it in turn the same way;
    the rotations of every group of every stream come from one stacked
    QR.  A group gives one (samples, 3, 3) stack ``Q.T @ diag(lam) @ Q``
    per spectrum, or the stack of Q itself when it has no spectrum; the
    stacks of all groups are returned in one list, in order.  The number
    of ``rng`` calls does not depend on ``samples``, and one sample
    consumes the stream as the one-sample functions :func:`random_spd` and
    :func:`random_rotation` do.
    """
    spectra, normals = [], []
    for rng, groups in ((rng, groups), *streams):
        for group in groups:
            spectra.append([(rng.uniform(lo, hi, (samples, 3)), log)
                            for lo, hi, log in group])
            normals.append(rng.standard_normal((samples, 3, 3)))
    q, r = np.linalg.qr(np.concatenate(normals))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    # det Q as the triple product q_0 . (q_1 x q_2) of its columns, which
    # for an orthogonal Q is +-1 within roundoff: the sign of the LU
    # determinant, without an LU factorization
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = q.transpose(1, 2, 0)
    flip = (a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2)
            + a2 * (b0 * c1 - b1 * c0)) < 0.0
    if flip.any():
        q[flip, :, 0] = -q[flip, :, 0]
    out = []
    for rot, group in zip(q.reshape(len(normals), samples, 3, 3), spectra):
        if not group:
            out.append(rot)
        for lam, log in group:
            lam = np.exp(lam) if log else lam
            out.append((rot.swapaxes(-1, -2) * lam[..., None, :]) @ rot)
    return out


def _draws(samples, seed, streams):
    """The draws of the ``(key, groups)`` streams ``default_rng([seed,
    key])``, one list per stream: for a list of groups, their stacks, the
    groups of every stream drawn by one :func:`_draw` call; for a
    per-sample shape (``_STRETCH``, ``_PRINCIPAL``), one array of shape
    ``(samples, *shape)`` of stretches log-uniform over EIG_RANGE, with no
    rotation: for ``(3,)`` the call and bits of a :func:`_draw` spectrum."""
    rngs = [(np.random.default_rng([seed, key]), groups)
            for key, groups in streams]
    (rng, groups), *more = [s for s in rngs if isinstance(s[1], list)]
    stacks = iter(_draw(rng, samples, groups, *more))
    out = []
    for rng, groups in rngs:
        if isinstance(groups, tuple):  # stretches alone
            out.append([np.exp(rng.uniform(*_SPD[0][:2], (samples, *groups)))])
        else:  # a group gives a stack per spectrum, or its rotations
            out.append([next(stacks) for g in groups
                        for _ in range(max(len(g), 1))])
    return out


def random_rotation(rng):
    """Orthogonal factor of a 3x3 standard-normal matrix, det fixed to +1."""
    return _draw(rng, 1, [()])[0][0]


def random_spd(rng, lo=EIG_RANGE[0], hi=EIG_RANGE[1]):
    """Random SPD matrix with log-uniform eigenvalues in [lo, hi]."""
    return _draw(rng, 1, [(_log_range(lo, hi),)])[0][0]


def _require_samples(samples):
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _rel(err, *scales, floor=1.0):
    """err / max(floor, *scales), per sample of a batch.

    NaN where a scale is infinite: the relative residual of a quantity
    whose norm overflowed is unknown, not zero.
    """
    scale = floor
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

    The worst sample is the first largest residual; a NaN or +inf
    residual counts as the worst, so that a check which cannot be
    evaluated fails, and -inf ranks lowest.  ``witness_of(i)`` builds the
    witness of sample i.  When no residual exceeds ``floor`` (or the batch
    is empty), returns ``(floor, None)``.
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
# one batch of checks
#
# A check is a generator on its draws.  It yields one request, a tuple
# whose members are stretches, answered with the law's stress at each, or
# _Power stacks, answered with the law's stress at the powers; it then
# returns its outcome.  The batch answers stresses only; where its masks
# fail, a member makes the public calls it stands for, for their error.

class _Power(NamedTuple):
    """The stretches ``a**r`` of a (..., 3, 3) stack ``a``: matrix i raised
    to ``exponents[i % len(exponents)]``, each exponent's matrices the
    call ``mat_pow(a[k::len(exponents)], r)`` (so with several exponents
    ``a`` is one (n, 3, 3) stack)."""

    a: np.ndarray
    exponents: tuple


def _count(a):
    """The number of matrices of a (3, 3) or (..., 3, 3) array."""
    return math.prod(np.shape(a)[:-2])


def _finite_or_eye(a):
    """``(a, clean)`` for a (n, 3, 3) stack: ``clean`` when its sum is
    finite; where not, each matrix with an entry that is not finite is
    replaced by I, so that the stack can be decomposed."""
    if _sum_is_finite(a):
        return a, True
    return np.where(np.isfinite(a).all(axis=(-2, -1))[:, None, None], a,
                    _EYE), False


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _answers(row, m, requests):
    """``read``, the stresses that answer the requests of many checks:
    ``read(k)`` answers request k, each member with the bits of its own
    calls (one ``mat_pow`` call per exponent of a :class:`_Power`, then
    one law call on the stretch), from one call per kind and round.

    Round 1 is one spectrum of every stack the requests name as such, each
    once: the stretches (for a logarithmic law, whose stress is read from
    the spectrum), then the power bases.  The powers are read from that
    spectrum, and round 2 is one spectrum of the powers.  The law is then
    evaluated once, on the spectra of the stretches and of the powers, or
    for a finite-Hooke law on the matrices.

    Nothing here raises for a member: a matrix with an entry that is not
    finite is decomposed as I, and the tests of the inputs, of the floors
    and of finiteness run once on the whole batch, as masks.  Where one
    fails, ``read(k)`` first makes each member's own public calls, in
    order: for a :class:`_Power`, ``mat_pow`` on each exponent's slice;
    then ``constitutive._tensor_law`` on the stretch, as
    :func:`constitutive.stretch_stress` does.  So it raises the error of
    the first of those calls that raises.  The calls only raise: the
    answers still come from the batch.
    """
    members = [x for r in requests for x in r]
    plain = list({id(x): x for x in members
                  if isinstance(x, np.ndarray)}.values())
    powers = [x for x in members if isinstance(x, _Power)]
    log = row.strain is _log_strain
    first = {id(a): a for a in [*(plain if log else []),
                                *(x.a for x in powers)]}
    starts = dict(zip(first, np.cumsum([0] + list(map(_count, first.values())))
                      .tolist()))
    a, clean = _finite_or_eye(_concat(list(first.values())))
    vals, frame = _spectrum(sym_part(a))
    # the powers, in sample order: each exponent applied to a contiguous
    # copy of its eigenvalues, with its exponent as a Python float, as its
    # own mat_pow call applies it, and each row marked with the floor that
    # call tests
    powered = np.empty((0, 3, 3))
    if powers:
        rows = np.concatenate([starts[id(x.a)] + np.arange(_count(x.a))
                               for x in powers])
        pv, out = vals[rows], np.empty((len(rows), 3))
        (signed, tested), done = np.zeros((2, len(rows)), bool), 0
        for x in powers:
            n, k = _count(x.a), len(x.exponents)
            for j, r in enumerate(x.exponents[:n]):
                power, floor_on = _pow_rule(r)
                piece = slice(done + j, done + n, k)
                out[piece] = power(np.ascontiguousarray(pv[piece]))
                signed[piece], tested[piece] = (floor_on == "eigenvalue",
                                                floor_on is not None)
            done += n
        powered = _from_spectrum(frame[rows], out)
        clean = (clean and _sum_is_finite(out, core=1)
                 and not (tested & _below_floor(pv, signed)).any())
    p = sum(map(_count, plain))
    if log:
        law_vals, law_frame = vals[:p], frame[:p]
        if powers:
            b, finite = _finite_or_eye(powered)
            v, f = _spectrum(sym_part(b))
            law_vals = np.concatenate((law_vals, v))
            law_frame = np.concatenate((law_frame, f))
            clean = clean and finite
        t = _lame_on_frame(law_frame, np.log(law_vals), m)
        clean = clean and not _below_floor(law_vals, True).any()
    else:
        t = _lame(sym_part(_concat(plain + [powered])) - _EYE, m)
    clean = clean and _sum_is_finite(t)
    stress = dict(zip(map(id, plain + powers),
                      _split_like(t, plain + [x.a for x in powers])))

    def own_calls(x):
        # the public calls member x stands for, in their order
        if isinstance(x, _Power):
            n, k = _count(x.a), len(x.exponents)
            stretch = np.empty(np.shape(x.a))
            for j, r in enumerate(x.exponents[:n]):
                stretch[j::k] = mat_pow(x.a[j::k], r)
            x = stretch
        _tensor_law(row, x, m)

    def read(k):
        if not clean:
            for x in requests[k]:
                own_calls(x)
        return [stress[id(x)] for x in requests[k]]

    return read


def _batch(row, m, checks):
    """One function per check of ``checks``, each a zero-argument
    function that starts a check's generator, giving what the check
    returns.

    Every check's request is answered from one batch (:func:`_answers`),
    each check then judging its own slice, with the bits it would get
    alone.  The batch is evaluated by the first function called, and a
    member's error is raised by the function of each check that reads it,
    naming the member as that check's own call would.  An error of the
    batch itself (a LAPACK failure) is raised by every function that reads
    it.  Each function is called once.
    """
    gens = [start() for start in checks]
    read = functools.cache(functools.partial(
        _answers, row, m, [next(g) for g in gens]))

    def outcome(k):  # what check k returns once sent its answers
        try:
            gens[k].send(read()(k))
        except StopIteration as stop:
            return stop.value

    return [functools.partial(outcome, k) for k in range(len(checks))]


# ---------------------------------------------------------------------------
# the report runner

class _Check(NamedTuple):
    """One report of a check list: its name, tolerance, ``expected`` flag,
    judge, which returns ``(passed, witness)``, and the ``(key, groups)``
    stream of :func:`_draws` whose draws are the judge's arguments, or
    None.  A judge that is a generator is a check of :func:`_batch`."""

    name: str
    tolerance: float
    judge: object
    stream: tuple = None
    expected: bool = True


@np.errstate(over="ignore", invalid="ignore")
def _alone(m, judge, name=None, tolerance=None):
    """A check outside a check list, run as quietly as :func:`_reports`
    runs a list: what ``judge()`` returns, a generator judge's request
    answered by a batch of one (:func:`_batch`) for the becker law; with a
    ``name``, the report of the ``(passed, witness)`` it returns.  Errors
    propagate: the check is not one of many that an error leaves
    undecided."""
    if inspect.isgeneratorfunction(judge):
        judge, = _batch(_LAWS["becker"], m, [judge])
    if name is None:
        return judge()
    passed, witness = judge()
    return CheckReport(name, passed, tolerance, witness)


@np.errstate(over="ignore", invalid="ignore")
def _reports(row, m, samples, seed, checks):
    """The reports of the :class:`_Check` list ``checks``, in its order,
    each made by :func:`_run`: the draws of every stream from one
    :func:`_draws` call, the generator checks answered from one
    :func:`_batch` for the law of table row ``row``.  The list runs
    without numpy's overflow and invalid-value warnings: a residual that
    overflows fails its check as a NaN or infinite residual."""
    draws = iter(_draws(samples, seed, [c.stream for c in checks
                                        if c.stream is not None]))
    judges = [c.judge if c.stream is None
              else functools.partial(c.judge, *next(draws)) for c in checks]
    batched = [k for k, c in enumerate(checks)
               if inspect.isgeneratorfunction(c.judge)]
    outcomes = _batch(row, m, [judges[k] for k in batched])
    for k, outcome in zip(batched, outcomes):
        judges[k] = outcome
    return [_run(c.name, c.tolerance, judge, c.expected)
            for c, judge in zip(checks, judges)]


# ---------------------------------------------------------------------------
# the axiom block

def _axioms(row, m, samples):
    """The checks of :func:`check_axioms` for the law of table row
    ``row``, each a generator on its stream ``[seed, k]``, k its index:
    its :func:`_draw` groups, or :data:`_STRETCH` for one scalar stretch
    per sample, log-uniform over EIG_RANGE (see :func:`_draws`).  Each
    finds ``(worst, witness)``, the worst judged against AXIOM_TOL."""

    def misfit(lhs, rhs):
        # relative distance of two stress stacks, per sample; the three
        # norms in one call
        norms = _fro_norms(np.concatenate((lhs - rhs, lhs, rhs)))
        return _rel(*norms.reshape(3, -1))

    def stress_free_reference(u):
        # the unique stress-free reference state
        stress, t_u = yield np.eye(3), u
        k = _first((_fro_norms(u - np.eye(3)) > 1e-6)
                   & (_fro_norms(t_u) == 0.0))
        if k is not None:
            return math.inf, {"nonidentity_with_zero_stress": u[k]}
        return fro_norm(stress), {"stress_at_identity": stress}

    def shear_to_shear(alpha):
        # pure shear stretch -> trace-free plane stress diag(s, -s, 0)
        stress, = yield (_diag(np.stack([alpha, 1.0 / alpha,
                                         np.ones(samples)], -1)),)
        off = _fro_norms(stress - _diag(np.diagonal(stress, 0, -2, -1)))
        err = _rel(abs(stress[:, 2, 2]) + abs(stress[:, 0, 0]
                                              + stress[:, 1, 1])
                   + off, _fro_norms(stress))
        return _worst(err, lambda i: {"alpha": float(alpha[i]),
                                      "stress": stress[i]})

    def sphere_to_dilation(lam):
        # spherical stretch -> spherical stress
        stress, = yield (lam[:, None, None] * np.eye(3),)
        err = _rel(_fro_norms(stress - stress[:, :1, :1] * np.eye(3)),
                   _fro_norms(stress))
        return _worst(err, lambda i: {"lam": float(lam[i]),
                                      "stress": stress[i]})

    def superposition(u1, u2):
        # superposition over coaxial pairs
        lhs, t1, t2 = yield u1 @ u2, u1, u2
        rhs = t1 + t2
        return _worst(misfit(lhs, rhs), lambda i: {
            "u1": u1[i], "u2": u2[i], "stress_of_product": lhs[i],
            "sum_of_stresses": rhs[i]})

    def isotropy(u, q):
        qt = q.swapaxes(-1, -2)
        t_rotated, t_u = yield qt @ u @ q, u
        return _worst(misfit(t_rotated, qt @ t_u @ q),
                      lambda i: {"u": u[i], "q": q[i]})

    def power_law(u):
        # real powers scale the stress.  u**pi reaches cond ~1e6, so
        # storing u**r in float64 already moves its smallest eigenvalue by
        # ~eps * cond ~1e-10 relative with any eigensolver; amplified by
        # lam, the worst of many samples can come near AXIOM_TOL
        powers = (-2.0, -0.5, 0.5, 2.0, math.pi)
        r = np.resize(powers, samples)  # sample i takes powers[i % 5]
        t_r, t_u = yield _Power(u, powers), u
        return _worst(misfit(t_r, r[:, None, None] * t_u),
                      lambda i: {"u": u[i], "r": float(r[i])})

    def inversion_symmetry(u):
        # tension-compression symmetry T(inv(U)) = -T(U)
        t_inv, t_u = yield _Power(u, (-1,)), u
        return _worst(misfit(t_inv, -t_u), lambda i: {"u": u[i]})

    def inverse_round_trip(u):
        t_u, = yield (u,)
        back = becker_inverse(t_u, m)
        err = _rel(_fro_norms(back - u), _fro_norms(u))
        return _worst(err, lambda i: {"u": u[i], "round_trip": back[i]})

    def judged(check):
        def judge(*draws):
            worst, witness = yield from check(*draws)
            return worst <= AXIOM_TOL, witness
        return judge

    checks = [(stress_free_reference, [_SPD]), (shear_to_shear, _STRETCH),
              (sphere_to_dilation, _STRETCH), (superposition, [_SPD * 2]),
              (isotropy, [_SPD, ()]),
              (power_law, [(_log_range(0.1, 10.0),)]),
              (inversion_symmetry, [_SPD])]
    if row.strain is _log_strain:  # becker_inverse inverts the law
        checks.append((inverse_round_trip, [_SPD]))
    return [_Check(check.__name__, AXIOM_TOL, judged(check), (k, groups),
                   expected=check.__name__ not in row.violates)
            for k, (check, groups) in enumerate(checks)]


def check_axioms(law, m: Moduli, samples=1000, seed=0):
    """Randomized axiom checks for a tensor stretch-stress law.

    Runs the superposition, isotropy, shear-to-shear, sphere-to-dilation,
    uniqueness-of-the-stress-free-state, power-law and inversion-symmetry
    checks; for a law whose strain is logarithmic also the inverse round
    trip.  A check is expected to pass unless the law's row of the law
    table names it in ``violates`` (the finite-Hooke laws fail
    superposition, among others, with the violating pair recorded).
    A ``samples`` that is not an integer of at least 1 raises
    ``ValueError``: no check passes vacuously.

    Each check draws its whole batch from its own stream
    ``default_rng([seed, k])`` in bulk (see :func:`_draw`; a scalar stretch
    draws one array of ``samples`` values), and records the worst sample
    (the first largest relative residual) as the witness.  A NaN or
    infinite residual is the worst and fails the check.  The block is one
    check list, run by the report runner as one batch, in two rounds: one
    stacked QR for the rotations of every check; one spectral
    decomposition of every stretch, from which both the law's stresses
    and the real powers of ``power_law`` and ``inversion_symmetry`` are
    read; one of the powers; and one law evaluation on the spectra of all
    of them.  Each check then judges its own slice, with the bits it would
    get alone.  A check that meets an error on its own slice (for instance
    a stress that overflows) makes its own calls, which raise the error
    naming its own member, and is undecided: its report comes out not as
    expected, with the message as its witness.  The block runs without
    numpy's floating-point warnings, as :func:`suite` does.
    """
    _require_samples(samples)
    row = _tensor_row(law)
    return _reports(row, m, samples, seed, _axioms(row, m, samples))


# ---------------------------------------------------------------------------
# constitutive inequalities

def _m_condition(u1, u2, m):
    """:func:`m_condition_check` as a check generator: it yields ``(u1,
    u2)`` and, sent their stresses, returns the product."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    k = _first(_fro_norms(u1 - u2)
               <= 1e-14 * np.maximum(1.0, _fro_norms(u1)))
    if k is not None:
        raise ValueError(f"u1 and u2 must differ{_at(k, u1.shape[:-2])}")
    t1, t2 = yield u1, u2
    with np.errstate(over="ignore", invalid="ignore"):
        value = _inners(t1 - t2, u1 - u2)
    k = _first(~np.isfinite(value))
    if k is not None:
        raise LogstrainError(f"m_condition_check: product is not finite at "
                             f"G = {m.g:.6g}, lam = {m.lam:.6g}"
                             f"{_at(k, value.shape)}")
    return value if u1.ndim > 2 else float(value)


def m_condition_check(u1, u2, m: Moduli):
    """Monotonicity inner product <T(U1) - T(U2), U1 - U2> for the log law.

    A positive sign at every pair of distinct SPD arguments is the strict
    monotonicity of the stress-stretch map; the returned value reports the
    sign at this particular pair.  ``u1`` and ``u2`` may also be
    (..., 3, 3) stacks of pairs, giving an array of shape (...); one pair
    gives a float.  Both stresses come from one batch, a spectrum of the
    two arguments together, with the bits and the errors of
    :func:`becker_biot` on u1 and then on u2, so an error names the member
    of u1 or u2 by its own index.  A product that is not finite raises
    :class:`LogstrainError`, naming the first such pair of a stack.  The
    suite's monotonicity reports run the same check (see :func:`_alone`).
    """
    return _alone(m, functools.partial(_m_condition, u1, u2, m))


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
    the law table, in the order of the given stretches, shape (3,) or
    (..., 3), each row its own stretches.  Stretches of another shape or
    not finite raise ``ValueError``; a force or a stress that is not
    finite raises :class:`LogstrainError`.
    """
    lam = np.asarray(stretches, dtype=float)
    if lam.shape[-1:] != (3,):
        raise ValueError(f"stretches must have shape (..., 3), got "
                         f"{lam.shape}")
    if not np.isfinite(lam).all():
        raise ValueError("stretches must be finite")
    forces = _LAWS["becker"].principal(lam, m)  # checks the floor first
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = lam / np.prod(lam, axis=-1, keepdims=True) * forces
    return _finite("becker", sigma[..., None], m)[..., 0]


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _baker_ericksen(lam, m):
    """``(passed, witness)`` of the Baker-Ericksen inequality at the
    principal stretches ``lam``, shape (3,), in descending order, as
    :func:`tensors.eig_sym` orders eigenvalues: the judge of
    :func:`baker_ericksen_check` and of the suite's two reports, which
    pass the diagonals of their diagonal stretches."""
    sigma = principal_cauchy_stresses(lam, m)
    product = {(i, j): (sigma[i] - sigma[j]) * (lam[i] - lam[j])
               for i, j in _PAIRS
               if abs(lam[i] - lam[j]) > TIE_TOL * max(1.0, lam[i], lam[j])}
    violations = [{"pair": [i, j], "stretches": [lam[i], lam[j]],
                   "stresses": [sigma[i], sigma[j]], "product": p}
                  for (i, j), p in product.items() if p <= 0.0]
    return not violations, {"stretches": lam, "stresses": sigma,
                            "violations": violations}


def baker_ericksen_check(v, m: Moduli):
    """Ordering of principal Cauchy stresses against principal stretches.

    Evaluates ``(sigma_i - sigma_j) * (lam_i - lam_j) > 0`` for every pair
    of distinct principal stretches of the SPD tensor ``v`` (ties are
    skipped).  The report fails, with the violating pair as witness, when
    the ordering is broken; the log law does break it at strongly
    compressive stretches.  A ``v`` whose least eigenvalue is at the
    positivity floor of :func:`tensors.mat_log` or below raises
    :class:`NotPositiveDefinite`, as the law does.  The check runs as
    quietly as :func:`suite` runs it, with the same judge: a product that
    overflows is infinite, with its sign.
    """
    return _alone(m, lambda: _baker_ericksen(eig_sym(v).eigenvalues, m),
                  "baker_ericksen", TIE_TOL)


def _force_order(lam, m: Moduli):
    """``(forces, full, reduced, slack, violated)`` of the ordered-force
    check.

    ``lam`` holds principal stretches, shape (..., 3); ``full`` and
    ``reduced`` hold one column per pair of ``_PAIRS``, and ``violated``,
    of their shape, marks the pairs where either falls below ``slack``.
    """
    _as_real(m.g, "G", "positive")
    forces = _LAWS["becker"].principal(lam, m)
    logs = np.log(lam)
    slack = -1e-12 * np.maximum(1.0, np.abs(forces).max(axis=-1))
    i, j = np.array(_PAIRS).T
    full = (forces[..., i] - forces[..., j]) * (lam[..., i] - lam[..., j])
    # 2 (G d), as the laws form it: finite also where 2 G is not
    reduced = (2.0 * (m.g * (logs[..., i] - logs[..., j]))
               * (lam[..., i] - lam[..., j]))
    violated = (full < slack[..., None]) | (reduced < slack[..., None])
    return forces, full, reduced, slack, violated


def _force_witness(lam, m):
    """``(slack, witness)`` of :func:`ordered_force_check` at the
    principal stretches ``lam``, shape (3,), in descending order."""
    forces, full, reduced, slack, violated = _force_order(lam, m)
    return slack, {"stretches": lam, "forces": forces, "violations": [
        {"pair": list(_PAIRS[p]), "full": full[p], "reduced": reduced[p]}
        for p in np.flatnonzero(violated)]}


@np.errstate(over="ignore", invalid="ignore")
def ordered_force_check(u, m: Moduli):
    """Ordering of principal Biot forces against principal stretches.

    Checks ``(T_i - T_j)(lam_i - lam_j) >= 0`` with ``T_k = 2 G ln lam_k +
    lam ln(lam_1 lam_2 lam_3)``, and the reduced form ``2 G (ln lam_i -
    ln lam_j)(lam_i - lam_j) >= 0`` directly.  Holds for every SPD u and
    every G > 0, independently of lam.  The tolerance is the slack
    ``1e-12 max(1, max_k |T_k|)``.  The check runs as quietly as
    :func:`suite` runs it, on the same violation mask: a difference or a
    product that overflows is infinite, with its sign.
    """
    slack, witness = _force_witness(eig_sym(u).eigenvalues, m)
    return CheckReport(name="ordered_force", passed=not witness["violations"],
                       tolerance=float(abs(slack)), witness=witness)


# the streams of hill_convexity_probe: the symmetric log-domain pairs, then
# the SPD pairs
_HILL_STREAMS = [(100, [_SYM_LOG, _SYM_LOG]),
                 (101, [(_log_range(0.1, 10.0),)] * 2)]


def hill_convexity_probe(m: Moduli, samples=1000, seed=0):
    """Midpoint-convexity probes of the lam = 0 energy.

    Returns two reports.  ``hill_log_domain`` searches for a midpoint
    convexity violation of ``X -> W(exp X)`` over random symmetric X with
    large-magnitude eigenvalues; a violation is expected to exist (so the
    report is expected to fail) and its first witness is recorded.
    ``energy_convexity_spd`` confirms midpoint convexity of ``U -> W(U)``
    over random SPD pairs with eigenvalues in [0.1, 10], which does hold;
    its witness is the pair with the largest relative excess.

    A log-domain violation must exceed the margin ``tol * max(G, |w1|,
    |w2|)`` of the end energies w1 and w2, and an SPD pair's excess is
    taken relative to that same ``max(G, |w1|, |w2|)`` (NaN, so failing,
    where it is infinite): both scale with G as the energies do, so a
    concave energy fails at a small G as it does at G = 1.

    The probes are one check list: each draws its pairs in bulk from its
    own stream (see :func:`_draw`), the rotations of both from one QR.  The
    log-domain probe makes one :func:`tensors.mat_exp` call on the stack
    (x1, x2, midpoint) and one :func:`constitutive.becker_energy_nu0` call
    on its exponentials; the SPD probe one energy call on (u1, u2,
    midpoint).  The chord's midpoint is ``0.5 w1 + 0.5 w2``, finite
    wherever w1 and w2 are, so every pair is judged; a NaN or infinite
    excess is the largest and fails ``energy_convexity_spd``.  A probe
    whose call raises (an energy that overflows, G near the largest
    float) decides nothing: it comes out not as expected, with the
    message, which names a member by its index in that stack, as its
    witness.  Raises ``ValueError`` unless lam = 0 by the rule of
    :func:`constitutive.becker_energy_nu0`.
    """
    _require_samples(samples)
    if not _lam_is_zero(m):
        raise ValueError("probe defined only for lam = 0")
    return _reports(_LAWS["becker"], m, samples, seed, _hill_checks(m))


def _hill_checks(m):
    """The two checks of :func:`hill_convexity_probe`, on its streams."""
    tol = 1e-10

    def energies(u):
        # (w1, w2, wm) of a probe's one stack of pairs and midpoints, from
        # one call, whose error names a member by its index in that stack
        return becker_energy_nu0(u, m).reshape(3, -1)

    def log_domain(x1, x2):
        w1, w2, wm = energies(mat_exp(np.concatenate(
            (x1, x2, 0.5 * (x1 + x2)))))
        # the floor scales with G, as the energies do; the chord's midpoint
        # is formed from halves, finite where w1 + w2 is not
        margin = tol * np.maximum(m.g, np.maximum(abs(w1), abs(w2)))
        k = _first((_fro_norms(x1 - x2) > 1e-12)
                   & (wm > 0.5 * w1 + 0.5 * w2 + margin))
        witness = None
        if k is not None:
            witness = {"x1": x1[k], "x2": x2[k],
                       "energies": [float(w1[k]), float(w2[k])],
                       "midpoint_energy": float(wm[k]),
                       "excess": float(wm[k] - (0.5 * w1[k] + 0.5 * w2[k]))}
        return witness is None, witness

    def spd_pairs(u1, u2):
        w1, w2, wm = energies(np.concatenate((u1, u2, 0.5 * (u1 + u2))))
        excess = _rel(wm - (0.5 * w1 + 0.5 * w2), abs(w1), abs(w2),
                      floor=m.g)
        worst, witness = _worst(excess, lambda i: {
            "u1": u1[i], "u2": u2[i], "excess": float(excess[i])},
            -math.inf)
        return worst <= tol, witness

    return [_Check("hill_log_domain", tol, log_domain, _HILL_STREAMS[0],
                   expected=False),
            _Check("energy_convexity_spd", tol, spd_pairs, _HILL_STREAMS[1])]


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
    :func:`converged_path_work` checks its first rule the same way and
    hands the determinants on to the PK1 stresses, so that each node is
    factorized once.
    """

    gradients: np.ndarray
    closed: bool = False

    def __post_init__(self):
        g, _ = _checked_path(self.gradients, self.closed)
        object.__setattr__(self, "gradients", g)


def _checked_path(g, closed):
    """The check of :class:`LoadPath`: ``(g, det)`` of
    :func:`_checked_gradients`, and for a closed path the closure test."""
    g, det = _checked_gradients(g)
    if closed:
        # the end points scaled by one power of two: exact, and the gap
        # and the norms cannot overflow
        ends = g[[0, -1]]
        s = _pow2_scale(float(np.max(np.abs(ends))))
        first, last = ends / s
        gap = fro_norm(first - last)
        if gap > 1e-12 * max(1.0 / s, fro_norm(first)):
            raise ValueError(f"closed path endpoints differ by {gap * s:.3g}")
    return g, det


def _checked_gradients(g, first=0, step=1):
    """``(g, det)``: ``g`` as a float (k, 3, 3) stack of path gradients,
    each finite with ``det > 0``, and their determinants, or
    ``ValueError``.  Gradient i of the stack is gradient ``first + step *
    i`` of the path, the index a message names.  ``det`` is ``_det`` of
    the stack, as :func:`kinematics._jacobian` takes it, so the PK1
    stresses test it against ``DET_TOL`` without factorizing again."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[1:] != (3, 3) or not len(g):
        raise ValueError("gradients must have shape (n, 3, 3)")
    i = _first_nonfinite(g)
    if i is not None:
        raise ValueError(f"gradient {first + step * i} on the path is not "
                         f"finite")
    with np.errstate(over="ignore"):  # an overflow to +inf is still > 0
        det = _det(g)
    if np.any(det <= 0.0):
        raise ValueError("every F on the path must have det > 0")
    return g, det


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


# bounded: each panel count a diagonal path brings adds its own rules
@functools.lru_cache(maxsize=32)
def _rule(n, panels=PANELS):
    """The nested rule of degree n on ``panels`` equal panels: its
    ``panels * n + 1`` nodes in t on [0, 1], ascending, a node shared by
    two panels once, and, for the n + 1 Lobatto nodes y of one panel, the
    Chebyshev differentiation matrix, the Clenshaw-Curtis weights
    (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ``cheb`` and
    ``clencurt``) and the chord fractions ``(1 + y) / 2``, from 0 at the
    panel's first node to 1 at its last; then the (panels, n + 1) table of
    each panel's node indices, and that table doubled, which reads the
    rule from the nodes of the rule of degree 2n.

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
    t = np.append((np.arange(panels)[:, None] + s[:-1]) / panels, 1.0)
    nodes = np.arange(panels)[:, None] * n + k
    return t, d, w, s, nodes, 2 * nodes


def _panel_works(g, pk1, n, panels=PANELS, coarse=False):
    """The rule of degree n on ``panels`` panels, on the gradients and PK1
    stresses at its nodes (with ``coarse``, at the nodes of the rule of
    degree 2n, of which it reads every other), one work per panel: the
    sum over the nodes of ``w_k <P_k, (D F)_k>``, in which the panel
    width cancels.  D is applied to the gradients before the inner
    product, so no table of ``<P_k, F_j>`` is formed (one overflows at
    lam = 1e307, where the work does not), and only to F's deviation from
    its chord: with F_0 and F_N the panel's end gradients, ``(D F)_k =
    (F_N - F_0) / 2 + (D (F - F_0 - s (F_N - F_0)))_k`` for the chord
    fractions s, since D maps a linear function to its slope.  So D's
    roundoff scales with the curvature of F over the panel, not with F or
    its change."""
    _, d, w, s, nodes, doubled = _rule(n, panels)
    if coarse:
        nodes = doubled
    g = g.reshape(-1, 9)[nodes]
    first = g[:, :1]
    chord = g[:, -1:] - first
    rate = 0.5 * chord + d @ (g - first - s[:, None] * chord)
    return np.sum(w[:, None] * pk1.reshape(-1, 9)[nodes] * rate, axis=(1, 2))


def converged_path_work(f_of_t, law, m: Moduli, closed=False, tol=None):
    """Path work from one nested Chebyshev rule.

    ``f_of_t`` is sampled on equal panels of [0, 1], at the N + 1
    Chebyshev-Lobatto nodes of each, and the work is
    ``sum over panels, sum_k w_k <P_k, (D F)_k>``: Clenshaw-Curtis weights
    w, the Chebyshev differentiation matrix D applied to the gradients for
    dF/dt (so no velocity is needed; D acts only on F's deviation from its
    chord on each panel, see :func:`_panel_works`), and the PK1 stress P.
    There are PANELS = 6 panels, except for a path of
    :func:`diagonal_path` with k segments, which takes the smallest
    multiple of k that is at least 6: 6 panels for 1, 2, 3 or 6 segments,
    8 for 4, 7 for 7.  The rule starts at N = 16 (on 6 panels 97 samples,
    96 steps).  Its error estimate is ``|W_N - W_{N/2}|``, the rule of
    N / 2 on every other node, which costs no sample; it is the error of
    the N / 2 rule, so it bounds that of W_N only loosely, and a run may
    refine after W_N is already exact.
    Refinement doubles N up to MAX_DEGREE = 256 and stops once the
    estimate is below ``tol``, in total and on every panel.  The default
    ``tol`` is ``1e-8 * max(|G|, |lam|)``: the work scales with the larger
    modulus, and a tolerance on the scale of G alone cannot be met by the
    roundoff of a work of order lam when lam is huge.  Returns ``(work, n,
    converged)`` with ``n`` steps, N per panel (``6 N`` on 6 panels).  A
    non-finite estimate stops the refinement unconverged; a work that is
    not finite raises :class:`LogstrainError`.

    The rule is spectrally accurate where the path is smooth within each
    panel, so a kink (a corner of a piecewise path) must fall on a panel
    boundary.  Every corner of a :func:`diagonal_path` does, at t = i / k
    of its k segments.  Any other callable must have its kinks on the grid
    of t = j / 6: a path of 1, 2, 3 or 6 equal segments.  Inside a panel a
    kink converges only algebraically, and the run usually stops
    unconverged at n = 1536, as a callable that traces a 4-segment cycle
    (kinks at t = 1/4 and 3/4) or a 7-segment one does; the per-panel
    estimate keeps the errors of several kinks from cancelling in the
    total into a false convergence.  As diagonal paths, the same 4- and
    7-segment cycles converge on 8 and 7 panels, at n = 128 and 112.

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
    ``n + 1`` times in all for the returned n.  Each node is checked once,
    as :class:`LoadPath` checks a gradient: the first rule as a LoadPath
    (the closure of a closed path included), a doubling's new nodes alone.
    That check takes the only determinant of each node.  PK1 is one call
    per rule of the kernel of :func:`constitutive.pk1_for_law`, with its
    bits, on the stack of the nodes the rule samples: it tests the
    check's determinants against the ``det F <= 1e-12`` floor of
    :class:`~logstrain.errors.NonInvertible` and does not copy or check
    the stack again.  Every message names a node by its index in the rule
    that samples it.  The N / 2 estimate reads the coarser rule from the
    fine arrays through the rule's cached table of node indices.
    """
    if tol is None:
        tol = 1e-8 * max(abs(m.g), abs(m.lam))
    panels = PANELS
    if isinstance(f_of_t, _DiagonalPath):
        sample = f_of_t._at_nodes
        panels = f_of_t._segs * math.ceil(PANELS / f_of_t._segs)
    else:
        def sample(t):
            return np.array([f_of_t(x) for x in t.tolist()])
    n = 16
    g, det = _checked_path(sample(_rule(n, panels)[0]), closed)
    row = _tensor_row(law)
    pk1 = _pk1(row, g, m, det)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            works = _panel_works(g, pk1, n, panels)
            work = float(np.sum(works))
            # on every panel too, so that the errors of panels with kinks
            # cannot cancel in the total
            error = works - _panel_works(g, pk1, n // 2, panels, coarse=True)
            converged = bool(abs(np.sum(error)) < tol
                             and np.all(np.abs(error) < tol))
        if not math.isfinite(work):
            raise LogstrainError(f"path work with {law!r} is not finite: "
                                 f"{work} at n = {panels * n}")
        if converged or n == MAX_DEGREE:
            return work, panels * n, converged
        n *= 2
        new, det = _checked_gradients(sample(_rule(n, panels)[0][1::2]),
                                      first=1, step=2)
        fine = np.empty((2, panels * n + 1, 3, 3))
        fine[:, ::2] = g, pk1
        fine[0, 1::2] = new
        if np.any(det <= DET_TOL):
            # name the node by its index in the doubled rule: the coarser
            # nodes passed, and their dets come out the same
            with np.errstate(over="ignore"):
                _jacobian(fine[0])
        fine[1, 1::2] = _pk1(row, new, m, det)
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
        t = float(t)
        segs = self._segs
        # t clamped to [0, 1]; only t = 1 needs its segment index clamped
        x = (0.0 if t < 0.0 else 1.0 if t > 1.0 else t) * segs
        i = int(x)
        if i == segs:
            i -= 1
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
        # the diagonal as a basic-slice view of the new contiguous stack
        d.reshape(-1, 9)[:, ::4] = (1.0 - w) * start[i] + w * end[i]
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

def _ladder_outcome(residuals, h_ladder):
    """``(passed, witness)`` of a ladder of ``residuals``, one per h of
    ``h_ladder``: the ratios residual / h**2 may vary by less than
    LADDER_FACTOR.

    Where a ratio overflows while every residual is finite, the residuals
    are first divided by the one power of two that brings the largest
    below 2, which is exact; the witness then records that power as
    ``ratio_scale``, by which its ratios are to be multiplied.  The pass
    test ``top / bottom`` is scale-free, and finite ratios keep their
    bits."""
    ratios = {h: r / h ** 2 for h, r in zip(h_ladder, residuals)}
    scale = 1.0
    if (not all(map(math.isfinite, ratios.values()))
            and all(map(math.isfinite, residuals))):
        scale = _pow2_scale(max(residuals))
        ratios = {h: r / scale / h ** 2 for h, r in zip(h_ladder, residuals)}
    vals = list(ratios.values())
    top, bottom = max(vals), min(vals)
    if top <= 1e-9 / scale:  # residual numerically zero across the ladder
        passed = True
    else:
        passed = bottom > 0.0 and top / bottom < LADDER_FACTOR
    witness = {"ratios": {f"{h:g}": v for h, v in ratios.items()}}
    if scale != 1.0:
        witness["ratio_scale"] = scale
    return passed, witness


# the remainder of each ladder at the step h eps, the stretch U = I + h eps
# and its Biot stress T, by the name of its report: the Biot stress less
# the infinitesimal law, and the PK2 stress (at U symmetrized, as
# becker_pk2 takes it) less its expansion in the Green-Lagrange strain
_REMAINDERS = {
    "linearization_order": lambda step, u, t, m: t - linearized_law(step, m),
    "pk2_expansion": lambda step, u, t, m: (
        _pk2_of_biot(sym_part(u), t, m)
        - linearized_law(0.5 * (u @ u - np.eye(3)), m))}


def _ladder(name, m, eps, h_ladder=LADDER_H):
    """The remainder ladder ``name`` as a check: its generator yields the
    stretches ``I + h eps`` for the h of ``h_ladder`` and, sent their Biot
    stresses, judges the norms of the remainders ``_REMAINDERS[name]``."""
    def judge():
        e, hs = sym_part(as_mat3(eps, "eps")), tuple(h_ladder)
        steps = [h * e for h in hs]
        us = tuple(np.eye(3) + s for s in steps)
        biot = yield us
        return _ladder_outcome([fro_norm(_REMAINDERS[name](s, u, t, m))
                                for s, u, t in zip(steps, us, biot)], hs)
    return _Check(name, LADDER_FACTOR, judge)


def linearization_order_check(m: Moduli, eps, h_ladder=LADDER_H):
    """Second-order agreement of the log law with the infinitesimal law.

    The residual ``||biot(I + h*eps) - (2 G h eps + lam tr(h eps) I)||``
    must scale like h**2: the ladder of residual/h**2 ratios may vary by
    less than a factor of 4.
    """
    check = _ladder("linearization_order", m, eps, h_ladder)
    return _alone(m, check.judge, check.name, check.tolerance)


def pk2_expansion_check(m: Moduli, eps, h_ladder=LADDER_H):
    """Second-order agreement of the PK2 stress with its leading expansion.

    With ``E`` the Green-Lagrange strain of ``U = I + h*eps``, the residual
    ``||pk2(U) - (lam tr(E) I + 2 G E)||`` must scale like h**2.
    """
    check = _ladder("pk2_expansion", m, eps, h_ladder)
    return _alone(m, check.judge, check.name, check.tolerance)


# ---------------------------------------------------------------------------
# the full suite

_LADDER_EPS = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.1],
                        [-0.2, 0.1, 0.25]])


def suite(law, m: Moduli, samples=1000, seed=0):
    """Axiom block plus, for the logarithmic Biot law, the physics checks.

    The returned reports carry ``expected`` flags: counterexample
    reproductions (ordering of Cauchy stresses at strong compression,
    convexity in the log domain, monotonicity for lam > 20 G, nonzero
    closed-cycle work for lam != 0) are expected to fail.  lam = 0 means
    ``|lam| <= 1e-14 max(1, |G|)``, the rule of
    :func:`constitutive.becker_energy_nu0`; there the suite adds the random
    monotonicity search, the convexity probes and the open-path energy
    match.  Both are diagonal paths, of 3 and 1 segments, which
    :func:`converged_path_work` integrates on 6 panels; both converge on
    its first rule, 96 steps.  The closed-cycle witness records the
    paper's ``lam (4 - 6 ln 2)`` and the distance of the work from it,
    ``work_error``, at most ``1e-13 max(1, |lam|)``.  When the
    quadrature of a path-work report did not converge, the report comes out
    not as expected: the open-path energy match fails, and the closed-cycle
    work fails at lam = 0 and passes where it is expected to fail.

    For the becker law the suite is one check list, in report order, run
    as the axiom block of :func:`check_axioms` is: one :func:`_draw` call,
    one QR, for the axiom streams ``[seed, k]``, ``m_condition_random``
    (``[seed, 200]``) and the convexity probes (``[seed, 100]``, ``[seed,
    101]``); one batch for the checks that ask for stresses, in round 1
    one spectral decomposition of every stretch: the axioms', the power
    bases, the monotonicity pairs and the ladder stretches, from which the
    powers and the stresses are read; in round 2 one of the powers; and
    one law call on the spectra of both rounds.  The probes make their own
    ``mat_exp`` and energy calls (see :func:`hill_convexity_probe`).  Each
    check judges its own slice, with the bits it would get alone, and an
    error on its slice is the one its own calls raise.  The principal-
    stretch reports have the judges of the public single checks and
    factorize nothing: the two Baker-Ericksen reports judge the diagonals
    of their diagonal stretches, sorted descending as
    :func:`baker_ericksen_check` receives them from
    :func:`tensors.eig_sym`, and ``ordered_force_random`` judges the
    principal stretches that its stream ``[seed, 201]`` draws, one
    (samples, 3) log-uniform array, on the violation mask of
    :func:`ordered_force_check`; its witness is that check's, at its
    first violated row sorted descending.  The remainder ladders are
    reports like every other check.  For any other law the suite is the
    axiom block of :func:`check_axioms`, made by the same runner.

    A residual that overflows fails its check as a NaN or infinite
    residual, so the suite runs without numpy's floating-point warnings.
    A check whose stresses, energies or closed form overflow (a
    :class:`LogstrainError` raised while evaluating it, as at G = 8e307
    with lam = 0) decides nothing: its report comes out not as expected,
    whichever way it was expected to go, with the message as its witness.
    """
    row = _tensor_row(law)
    _require_samples(samples)
    axioms = _axioms(row, m, samples)
    if row.tag != "becker":
        return _reports(row, m, samples, seed, axioms)
    lam_zero = _lam_is_zero(m)

    def at_lam_zero(*checks):  # the checks the suite adds where lam = 0
        return checks if lam_zero else ()

    # the product at the paper's pair, one check per report of it; both
    # read the pair's one stress stack
    pair = np.diag([2.0, 0.25, 1.0]), np.eye(3)

    def closed_form():
        value = yield from _m_condition(*pair, m)
        closed = m_condition_paper_pair_value(m)
        return (abs(value - closed) <= 1e-12 * max(1.0, abs(closed)),
                {"value": value, "closed_form": closed})

    def paper_pair():
        value = yield from _m_condition(*pair, m)
        return value > 0.0, {"value": value, "lam_over_g": m.lam / m.g}

    def random_pairs(u1, u2):
        kept = np.flatnonzero(_fro_norms(u1 - u2) > 1e-12)
        u1, u2 = u1[kept], u2[kept]
        value = yield from _m_condition(u1, u2, m)
        # the worst pair is the first smallest product
        least, witness = _worst(-value, lambda i: {
            "u1": u1[i], "u2": u2[i], "value": float(value[i])}, -math.inf)
        return least < 0.0, witness

    def ordered_forces(lam):
        # the principal stretches as drawn; the witness is that of the
        # first violated row, sorted descending as the eigenvalues of its
        # diagonal stretch are
        k = _first(_force_order(lam, m)[-1].any(axis=-1))
        return k is None, (None if k is None else
                           _force_witness(np.sort(lam[k])[::-1], m)[1])

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

    return _reports(row, m, samples, seed, axioms + [
        _Check("m_condition_closed_form", 1e-12, closed_form),
        # the sign of the closed form, which holds where its value overflows
        _Check("m_condition_paper_pair", 0.0, paper_pair,
               expected=m.lam < 20.0 * m.g),
        *at_lam_zero(_Check("m_condition_random", 0.0, random_pairs,
                            (200, [_SPD, _SPD]))),
        # the diagonals of diag(1/e, e**-2, e**3) and of I + 1e-4 diag(1,
        # 2, 3), sorted descending
        _Check("baker_ericksen_counterexample", TIE_TOL, functools.partial(
            _baker_ericksen, np.array([math.e ** 3, 1.0 / math.e,
                                       math.e ** -2]), m), expected=False),
        _Check("baker_ericksen_small_strain", TIE_TOL, functools.partial(
            _baker_ericksen, 1.0 + 1e-4 * np.array([3.0, 2.0, 1.0]), m)),
        _Check("ordered_force_random", 1e-12, ordered_forces,
               (201, _PRINCIPAL)),
        *at_lam_zero(*_hill_checks(m)),
        _Check("closed_cycle_work", cycle_tol, cycle_work,
               expected=lam_zero),
        *at_lam_zero(_Check("open_path_energy_match", cycle_tol,
                            open_path_work)),
        *(_ladder(name, m, _LADDER_EPS) for name in _REMAINDERS)])
