"""Executable checks for the axioms and inequalities of the logarithmic law.

Every check returns a :class:`CheckReport`; failed checks always carry a
machine-readable witness sufficient to re-evaluate the violated quantity
standalone.  Checks are deterministic given (seed, samples, tolerances) and
independent of each other, so they may run in any order or in parallel; the
report list is the only aggregation point.

Randomized SPD matrices are generated as ``Q.T @ diag(lam) @ Q`` with the
``lam`` log-uniform in [0.05, 20] and Q the orthogonal factor of a matrix of
standard normals, so recorded witnesses are reproducible from the seed.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import (LawId, becker_biot, becker_energy_nu0,
                           becker_inverse, becker_pk2, linearized_law,
                           pk1_for_law, stretch_stress)
from .moduli import Moduli
from .tensors import eig_sym, fro_norm, inner, mat_exp, mat_pow, tr

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

_LOG_FAMILY = ("becker", "hencky-kirchhoff", "hencky-cauchy")
# Checks the finite-Hooke laws are known to violate.
_HOOKE_FAILS = ("superposition", "power_law", "inversion_symmetry",
                "shear_to_shear")


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
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def format_reports(reports):
    """One JSON object per line: name, pass/fail, tolerance, witness."""
    lines = []
    for r in reports:
        lines.append(json.dumps(
            {"name": r.name, "passed": bool(r.passed),
             "expected": bool(r.expected), "tolerance": float(r.tolerance),
             "witness": _jsonable(r.witness)},
            sort_keys=True))
    return lines


# ---------------------------------------------------------------------------
# randomized inputs

def random_rotation(rng):
    """Orthogonal factor of a 3x3 standard-normal matrix, det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_spd(rng, lo=EIG_RANGE[0], hi=EIG_RANGE[1]):
    """Random SPD matrix with log-uniform eigenvalues in [lo, hi]."""
    lam = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    q = random_rotation(rng)
    return q.T @ np.diag(lam) @ q


def _coaxial_pair(rng, lo=EIG_RANGE[0], hi=EIG_RANGE[1]):
    lam1 = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    lam2 = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
    q = random_rotation(rng)
    return q.T @ np.diag(lam1) @ q, q.T @ np.diag(lam2) @ q


def _require_samples(samples):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _rel(err, *scales):
    return err / max((1.0, *scales))


# ---------------------------------------------------------------------------
# the axiom block

def check_axioms(law, m: Moduli, samples=1000, seed=0):
    """Randomized axiom checks for a tensor stretch-stress law.

    Runs the superposition, isotropy, shear-to-shear, sphere-to-dilation,
    uniqueness-of-the-stress-free-state, power-law and inversion-symmetry
    checks; for the logarithmic laws also the inverse round trip.  All pass
    for the logarithmic family; the finite-Hooke laws are expected to fail
    superposition (among others), with the violating pair recorded.
    ``samples < 1`` raises ``ValueError``: no check passes vacuously.
    """
    _require_samples(samples)
    law = law if isinstance(law, LawId) else LawId(tag=law)
    t = lambda u: stretch_stress(law, u, m)
    log_family = law.tag in _LOG_FAMILY
    expect = lambda name: not (law.tag.startswith("hooke")
                               and name in _HOOKE_FAILS)
    reports = []

    def run(name, worst, witness):
        reports.append(CheckReport(
            name=name, passed=worst <= AXIOM_TOL, tolerance=AXIOM_TOL,
            witness=witness, expected=expect(name)))

    # unique stress-free reference state
    rng = np.random.default_rng([seed, 0])
    worst = _rel(fro_norm(t(np.eye(3))))
    witness = {"stress_at_identity": t(np.eye(3))}
    for _ in range(samples):
        u = random_spd(rng)
        if fro_norm(u - np.eye(3)) > 1e-6 and fro_norm(t(u)) == 0.0:
            worst = math.inf
            witness = {"nonidentity_with_zero_stress": u}
            break
    run("stress_free_reference", worst, witness)

    # pure shear stretch -> trace-free plane stress diag(s, -s, 0)
    rng = np.random.default_rng([seed, 1])
    worst, witness = 0.0, None
    for _ in range(samples):
        alpha = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        stress = t(np.diag([alpha, 1.0 / alpha, 1.0]))
        off = fro_norm(stress - np.diag(np.diag(stress)))
        err = _rel(abs(stress[2, 2]) + abs(stress[0, 0] + stress[1, 1])
                   + off, fro_norm(stress))
        if err > worst:
            worst, witness = err, {"alpha": alpha, "stress": stress}
    run("shear_to_shear", worst, witness)

    # spherical stretch -> spherical stress
    rng = np.random.default_rng([seed, 2])
    worst, witness = 0.0, None
    for _ in range(samples):
        lam = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        stress = t(lam * np.eye(3))
        err = _rel(fro_norm(stress - stress[0, 0] * np.eye(3)),
                   fro_norm(stress))
        if err > worst:
            worst, witness = err, {"lam": lam, "stress": stress}
    run("sphere_to_dilation", worst, witness)

    # superposition over coaxial pairs
    rng = np.random.default_rng([seed, 3])
    worst, witness = 0.0, None
    for _ in range(samples):
        u1, u2 = _coaxial_pair(rng)
        lhs = t(u1 @ u2)
        rhs = t(u1) + t(u2)
        err = _rel(fro_norm(lhs - rhs), fro_norm(lhs), fro_norm(rhs))
        if err > worst:
            worst = err
            witness = {"u1": u1, "u2": u2, "stress_of_product": lhs,
                       "sum_of_stresses": rhs}
    run("superposition", worst, witness)

    # isotropy
    rng = np.random.default_rng([seed, 4])
    worst, witness = 0.0, None
    for _ in range(samples):
        u = random_spd(rng)
        q = random_rotation(rng)
        lhs = t(q.T @ u @ q)
        rhs = q.T @ t(u) @ q
        err = _rel(fro_norm(lhs - rhs), fro_norm(lhs), fro_norm(rhs))
        if err > worst:
            worst, witness = err, {"u": u, "q": q}
    run("isotropy", worst, witness)

    # real powers scale the stress; spectra in [0.1, 10] keep u**r inside
    # the eigensolver's accuracy domain for every exponent used
    rng = np.random.default_rng([seed, 5])
    worst, witness = 0.0, None
    powers = (-2.0, -0.5, 0.5, 2.0, math.pi)
    for i in range(samples):
        u = random_spd(rng, 0.1, 10.0)
        r = powers[i % len(powers)]
        lhs = t(mat_pow(u, r))
        rhs = r * t(u)
        err = _rel(fro_norm(lhs - rhs), fro_norm(lhs), fro_norm(rhs))
        if err > worst:
            worst, witness = err, {"u": u, "r": r}
    run("power_law", worst, witness)

    # tension-compression symmetry T(inv(U)) = -T(U)
    rng = np.random.default_rng([seed, 6])
    worst, witness = 0.0, None
    for _ in range(samples):
        u = random_spd(rng)
        lhs = t(mat_pow(u, -1))
        rhs = -t(u)
        err = _rel(fro_norm(lhs - rhs), fro_norm(lhs), fro_norm(rhs))
        if err > worst:
            worst, witness = err, {"u": u}
    run("inversion_symmetry", worst, witness)

    if log_family:
        rng = np.random.default_rng([seed, 7])
        worst, witness = 0.0, None
        for _ in range(samples):
            u = random_spd(rng)
            back = becker_inverse(t(u), m)
            err = _rel(fro_norm(back - u), fro_norm(u))
            if err > worst:
                worst, witness = err, {"u": u, "round_trip": back}
        run("inverse_round_trip", worst, witness)

    return reports


# ---------------------------------------------------------------------------
# constitutive inequalities

def m_condition_check(u1, u2, m: Moduli):
    """Monotonicity inner product <T(U1) - T(U2), U1 - U2> for the log law.

    A positive sign at every pair of distinct SPD arguments is the strict
    monotonicity of the stress-stretch map; the returned value reports the
    sign at this particular pair.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if fro_norm(u1 - u2) <= 1e-14 * max(1.0, fro_norm(u1)):
        raise ValueError("u1 and u2 must differ")
    return inner(becker_biot(u1, m) - becker_biot(u2, m), u1 - u2)


def m_condition_paper_pair_value(m: Moduli):
    """Closed form of the monotonicity product at (diag(2, 1/4, 1), I).

    ``ln(2)/4 * (20 G - lam)``: negative, i.e. monotonicity lost, as soon
    as lam > 20 G.
    """
    return 0.25 * math.log(2.0) * (20.0 * m.g - m.lam)


def principal_cauchy_stresses(stretches, m: Moduli):
    """Principal Cauchy stresses of the log law at principal stretches.

    ``sigma_k = lam_k / (lam_1 lam_2 lam_3) * (2 G ln lam_k
    + lam ln(lam_1 lam_2 lam_3))``, in the order of the given stretches.
    """
    lam = np.asarray(stretches, dtype=float)
    j = float(np.prod(lam))
    return lam / j * (2.0 * m.g * np.log(lam) + m.lam * math.log(j))


def baker_ericksen_check(v, m: Moduli, tie_tol=1e-9):
    """Ordering of principal Cauchy stresses against principal stretches.

    Evaluates ``(sigma_i - sigma_j) * (lam_i - lam_j) > 0`` for every pair
    of distinct principal stretches of the SPD tensor ``v`` (ties are
    skipped).  The report fails, with the violating pair as witness, when
    the ordering is broken; the log law does break it at strongly
    compressive stretches.
    """
    spec = eig_sym(v)
    lam = spec.eigenvalues
    if lam[2] <= 0.0:
        raise ValueError("v must be positive definite")
    sigma = principal_cauchy_stresses(lam, m)
    violations = []
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(lam[i] - lam[j]) <= tie_tol * max(1.0, lam[i], lam[j]):
                continue
            product = (sigma[i] - sigma[j]) * (lam[i] - lam[j])
            if product <= 0.0:
                violations.append({"pair": [i, j],
                                   "stretches": [lam[i], lam[j]],
                                   "stresses": [sigma[i], sigma[j]],
                                   "product": product})
    witness = {"stretches": lam, "stresses": sigma, "violations": violations}
    return CheckReport(name="baker_ericksen", passed=not violations,
                       tolerance=tie_tol, witness=witness)


def ordered_force_check(u, m: Moduli):
    """Ordering of principal Biot forces against principal stretches.

    Checks ``(T_i - T_j)(lam_i - lam_j) >= 0`` with ``T_k = 2 G ln lam_k +
    lam ln(lam_1 lam_2 lam_3)``, and the reduced form ``2 G (ln lam_i -
    ln lam_j)(lam_i - lam_j) >= 0`` directly.  Holds for every SPD u and
    every G > 0, independently of lam.
    """
    if not m.g > 0.0:
        raise ValueError(f"G must be positive, got {m.g}")
    spec = eig_sym(u)
    lam = spec.eigenvalues
    if lam[2] <= 0.0:
        raise ValueError("u must be positive definite")
    logs = np.log(lam)
    forces = 2.0 * m.g * logs + m.lam * float(np.sum(logs))
    slack = -1e-12 * max(1.0, float(np.max(np.abs(forces))))
    violations = []
    for i in range(3):
        for j in range(i + 1, 3):
            full = (forces[i] - forces[j]) * (lam[i] - lam[j])
            reduced = 2.0 * m.g * (logs[i] - logs[j]) * (lam[i] - lam[j])
            if full < slack or reduced < slack:
                violations.append({"pair": [i, j], "full": full,
                                   "reduced": reduced})
    witness = {"stretches": lam, "forces": forces, "violations": violations}
    return CheckReport(name="ordered_force", passed=not violations,
                       tolerance=abs(slack), witness=witness)


def hill_convexity_probe(m: Moduli, samples=1000, seed=0):
    """Midpoint-convexity probes of the lam = 0 energy.

    Returns two reports.  ``hill_log_domain`` searches for a midpoint
    convexity violation of ``X -> W(exp X)`` over random symmetric X with
    large-magnitude eigenvalues; a violation is expected to exist (so the
    report is expected to fail) and its first witness is recorded.
    ``energy_convexity_spd`` confirms midpoint convexity of ``U -> W(U)``
    over random SPD pairs with eigenvalues in [0.1, 10], which does hold.
    """
    _require_samples(samples)
    if abs(m.lam) > 1e-14 * max(1.0, abs(m.g)):
        raise ValueError("probe defined only for lam = 0")
    tol = 1e-10

    rng = np.random.default_rng([seed, 100])
    witness = None
    for _ in range(samples):
        x1 = _random_sym_log_domain(rng)
        x2 = _random_sym_log_domain(rng)
        if fro_norm(x1 - x2) <= 1e-12:
            continue
        w1 = becker_energy_nu0(mat_exp(x1), m)
        w2 = becker_energy_nu0(mat_exp(x2), m)
        wm = becker_energy_nu0(mat_exp(0.5 * (x1 + x2)), m)
        margin = tol * max(1.0, abs(w1), abs(w2))
        if wm > 0.5 * (w1 + w2) + margin:
            witness = {"x1": x1, "x2": x2, "energies": [w1, w2],
                       "midpoint_energy": wm,
                       "excess": wm - 0.5 * (w1 + w2)}
            break
    log_report = CheckReport(name="hill_log_domain", passed=witness is None,
                             tolerance=tol, witness=witness, expected=False)

    rng = np.random.default_rng([seed, 101])
    worst, witness = -math.inf, None
    for _ in range(samples):
        u1 = random_spd(rng, 0.1, 10.0)
        u2 = random_spd(rng, 0.1, 10.0)
        w1 = becker_energy_nu0(u1, m)
        w2 = becker_energy_nu0(u2, m)
        wm = becker_energy_nu0(0.5 * (u1 + u2), m)
        excess = (wm - 0.5 * (w1 + w2)) / max(1.0, abs(w1), abs(w2))
        if excess > worst:
            worst = excess
            witness = {"u1": u1, "u2": u2, "excess": excess}
    spd_report = CheckReport(name="energy_convexity_spd",
                             passed=worst <= tol, tolerance=tol,
                             witness=witness)
    return [log_report, spd_report]


def _random_sym_log_domain(rng):
    lam = rng.uniform(-8.0, 2.0, 3)
    q = random_rotation(rng)
    return q.T @ np.diag(lam) @ q


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

    Trapezoidal integral of ``<S1(F(t)), dF/dt>`` with centered differences
    for the velocity (periodic neighbors on closed paths, second-order
    one-sided stencils at open ends).  The first Piola stress paired with
    the deformation gradient is the reference-volume work conjugate, so for
    a hyperelastic law the closed-path work vanishes as the grid refines.
    """
    g = path.gradients
    n = g.shape[0] - 1
    if n < 2:
        raise ValueError("path must contain at least 3 points")
    h = 1.0 / n
    vel = np.empty_like(g)
    vel[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    if path.closed:
        vel[0] = (g[1] - g[-2]) / (2.0 * h)
        vel[-1] = vel[0]
    else:
        vel[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
        vel[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    integrand = np.empty(n + 1)
    for i in range(n + 1):
        integrand[i] = inner(pk1_for_law(law, g[i], m), vel[i])
    return h * (0.5 * integrand[0] + float(np.sum(integrand[1:-1]))
                + 0.5 * integrand[-1])


def converged_path_work(f_of_t, law, m: Moduli, closed=False, n0=192,
                        tol=None, max_doublings=10):
    """Refine the path-work quadrature by Richardson step halving.

    Samples ``f_of_t`` at n+1 uniform parameters and keeps doubling n; each
    pair of trapezoidal values gives a Richardson-extrapolated estimate
    ``(4 W(2n) - W(n)) / 3``, and refinement stops once two successive
    extrapolated estimates differ by less than ``tol`` (default
    ``1e-8 * |G|``).  Returns ``(work, n, converged)``.
    """
    if tol is None:
        tol = 1e-8 * abs(m.g)
    n = int(n0)
    coarse = path_work(_sample_path(f_of_t, n, closed), law, m)
    n *= 2
    fine = path_work(_sample_path(f_of_t, n, closed), law, m)
    prev_extrap = (4.0 * fine - coarse) / 3.0
    for _ in range(max_doublings):
        coarse, n = fine, n * 2
        fine = path_work(_sample_path(f_of_t, n, closed), law, m)
        extrap = (4.0 * fine - coarse) / 3.0
        if abs(extrap - prev_extrap) < tol:
            return extrap, n, True
        prev_extrap = extrap
    return prev_extrap, n, False


def _sample_path(f_of_t, n, closed):
    ts = np.linspace(0.0, 1.0, n + 1)
    return LoadPath(np.array([f_of_t(t) for t in ts]), closed=closed)


def diagonal_path(corners):
    """Piecewise-linear path through diagonal stretches.

    ``corners`` is a sequence of diagonal triples; returns ``f(t)`` tracing
    them at uniform speed over [0, 1].
    """
    pts = np.asarray(corners, dtype=float)
    segs = len(pts) - 1

    def f(t):
        t = min(max(float(t), 0.0), 1.0)
        x = t * segs
        i = min(int(x), segs - 1)
        w = x - i
        return np.diag((1.0 - w) * pts[i] + w * pts[i + 1])

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
    eps = 0.5 * (np.asarray(eps, dtype=float)
                 + np.asarray(eps, dtype=float).T)

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
    eps = 0.5 * (np.asarray(eps, dtype=float)
                 + np.asarray(eps, dtype=float).T)

    def residual(h):
        u = np.eye(3) + h * eps
        e = 0.5 * (u @ u - np.eye(3))
        ref = m.lam * tr(e) * np.eye(3) + 2.0 * m.g * e
        return fro_norm(becker_pk2(u, m) - ref)

    return _ladder_report("pk2_expansion", residual, h_ladder)


# ---------------------------------------------------------------------------
# the full suite

_LADDER_EPS = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.1],
                        [-0.2, 0.1, 0.25]])


def suite(law, m: Moduli, samples=1000, seed=0):
    """Axiom block plus, for the logarithmic Biot law, the physics checks.

    The returned reports carry ``expected`` flags: counterexample
    reproductions (ordering of Cauchy stresses at strong compression,
    convexity in the log domain, monotonicity for lam > 20 G, nonzero
    closed-cycle work for lam != 0) are expected to fail.
    """
    law = law if isinstance(law, LawId) else LawId(tag=law)
    reports = check_axioms(law, m, samples=samples, seed=seed)
    if law.tag != "becker":
        return reports

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

    if m.lam == 0.0:
        rng = np.random.default_rng([seed, 200])
        worst, witness = math.inf, None
        for _ in range(samples):
            u1, u2 = random_spd(rng), random_spd(rng)
            if fro_norm(u1 - u2) <= 1e-12:
                continue
            val = m_condition_check(u1, u2, m)
            if val < worst:
                worst, witness = val, {"u1": u1, "u2": u2, "value": val}
        reports.append(CheckReport(
            name="m_condition_random", passed=worst > 0.0, tolerance=0.0,
            witness=witness))

    counter = baker_ericksen_check(
        np.diag([1.0 / math.e, math.e ** -2, math.e ** 3]), m)
    reports.append(CheckReport(
        name="baker_ericksen_counterexample", passed=counter.passed,
        tolerance=counter.tolerance, witness=counter.witness,
        expected=False))
    small = baker_ericksen_check(np.eye(3) + 1e-4 * np.diag([1.0, 2.0, 3.0]),
                                 m)
    reports.append(CheckReport(
        name="baker_ericksen_small_strain", passed=small.passed,
        tolerance=small.tolerance, witness=small.witness))

    rng = np.random.default_rng([seed, 201])
    of_witness, of_ok = None, True
    for _ in range(samples):
        rep = ordered_force_check(random_spd(rng), m)
        if not rep.passed:
            of_ok, of_witness = False, rep.witness
            break
    reports.append(CheckReport(
        name="ordered_force_random", passed=of_ok, tolerance=1e-12,
        witness=of_witness))

    if m.lam == 0.0:
        reports.extend(hill_convexity_probe(m, samples=samples, seed=seed))

    work, n, converged = converged_path_work(
        dilation_shear_cycle(), law, m, closed=True)
    cycle_tol = 1e-6 * abs(m.g)
    reports.append(CheckReport(
        name="closed_cycle_work", passed=abs(work) <= cycle_tol,
        tolerance=cycle_tol,
        witness={"work": work, "steps": n, "quadrature_converged": converged,
                 "predicted_work": m.lam * (4.0 - 6.0 * math.log(2.0))},
        expected=m.lam == 0.0))

    if m.lam == 0.0:
        open_path = diagonal_path([(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)])
        work_open, _, _ = converged_path_work(open_path, law, m)
        delta = (becker_energy_nu0(open_path(1.0), m)
                 - becker_energy_nu0(open_path(0.0), m))
        reports.append(CheckReport(
            name="open_path_energy_match",
            passed=abs(work_open - delta) <= cycle_tol, tolerance=cycle_tol,
            witness={"work": work_open, "energy_difference": delta}))

    reports.append(linearization_order_check(m, _LADDER_EPS))
    reports.append(pk2_expansion_check(m, _LADDER_EPS))
    return reports
