"""The four benchmark workloads: input generation, the operation, and its check.

Each workload runs closed-loop in one process with one caller: the next
operation starts only after the previous one returned.  Inputs come in
batches; every batch is generated from the seed with the benchmark's own
``numpy`` generator before the batch is timed, and its outputs are checked
after the batch, outside the timed region.  Nothing here draws from
``logstrain.verify.random_*``, so a change to ``verify`` cannot move the
inputs of another workload.

A workload object provides

``batch(seed, index)``
    The inputs of batch ``index`` (a list; one entry per operation).
``run(x)``
    One operation through the public ``logstrain`` API.  Module attributes
    are looked up at call time, so the tracer's wrappers take effect.
``check(batch, outputs)``
    ``(ok, rel_err, why)`` per operation; ``outputs[i]`` is ``None`` when
    the operation raised, and ``why`` says why a failed operation failed.  ``rel_err`` is the worst relative error against a
    reference that does not use the code under test, with the larger of the
    reference's magnitude and the shear modulus as the scale.

All checks treat an error above ``FAIL_TOL`` as a failed operation.  The
seed's worst errors are at most 5e-10 (path work; material points about
4e-12), more than three orders of magnitude below it.
"""

import contextlib
import hashlib
import io
import math
import os
import re

import numpy as np

from logstrain import cli, constitutive, stresses, tensors, verify
from logstrain.moduli import Moduli

FAIL_TOL = 1e-6
TIE_REL = 1e-12      # relative gap of the nearly repeated principal stretch
STRETCH_RANGE = (0.05, 20.0)


# ---------------------------------------------------------------------------
# shared reference helpers (numpy only)

def rotations(rng, n):
    """``n`` random rotations: orthogonal factors of normal matrices, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


def spectral(q, vals):
    """``q @ diag(vals) @ q.T`` for stacks of frames and spectra."""
    return np.einsum("...ij,...j,...kj->...ik", q, vals, q)


def dev(a):
    tr = np.trace(a, axis1=-2, axis2=-1)[..., None, None]
    return a - tr / 3.0 * np.eye(3)


def rel_err(x, ref, scale):
    """Frobenius error of ``x`` relative to max(|ref|, scale), over the
    last two axes (one value per matrix of a stack)."""
    err = np.linalg.norm(np.asarray(x) - ref, axis=(-2, -1))
    return err / np.maximum(np.linalg.norm(ref, axis=(-2, -1)), scale)


def max_rel_err(x, ref, scale):
    """Largest elementwise error of ``x`` relative to max(|ref|, scale)."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), scale)))


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float)))
               for a in arrays)


def _judge(err, why=None):
    """``(ok, err, why)`` for one operation: it fails on ``why`` or on an
    error above FAIL_TOL."""
    if why is None and not err <= FAIL_TOL:
        why = f"error {err:.3g} above {FAIL_TOL:g}"
    return why is None, err, why


_RAISED = (False, math.inf, "raised")


class Workload:
    batch_ops = 1        # operations per batch
    min_batches = 1      # a run completes at least this many batches

    def sizes(self):
        return {}

    def info(self):
        """Informational fields gathered during checks (not gated)."""
        return {}


# ---------------------------------------------------------------------------
# material-point: the finite-element caller's path

class MaterialPoint(Workload):
    name = "material-point"
    laws = ("becker", "hencky-kirchhoff", "hencky-cauchy", "hooke-biot")
    batch_ops = 1024
    min_batches = 32     # accuracy is the worst over these first 32768 points
    tail_percentile = 90.0
    tie_share = 4        # one point in four has two stretches tied

    def __init__(self):
        self.g, self.lam = 1.0, 0.5
        self.moduli = Moduli.from_g_lam(self.g, self.lam)

    def sizes(self):
        return {"batch_ops": self.batch_ops, "G": self.g, "lam": self.lam,
                "stretch_range": list(STRETCH_RANGE),
                "tied_stretch_share": 1.0 / self.tie_share,
                "tie_rel_gap": TIE_REL, "laws": list(self.laws),
                "accuracy_ops": self.batch_ops * self.min_batches}

    def batch(self, seed, index):
        rng = np.random.default_rng([seed, 1, index])
        n = self.batch_ops
        r = rotations(rng, n)
        q = rotations(rng, n)
        lo, hi = map(math.log, STRETCH_RANGE)
        s = np.exp(rng.uniform(lo, hi, (n, 3)))
        tied = rng.permutation(n)[: n // self.tie_share]
        s[tied, 1] = s[tied, 0] * (1.0 + rng.uniform(-TIE_REL, TIE_REL,
                                                     len(tied)))
        u = spectral(q, s)
        f = r @ u
        return [{"law": self.laws[i % len(self.laws)], "f": f[i], "u": u[i],
                 "r": r[i], "q": q[i], "s": s[i]} for i in range(n)]

    def run(self, x):
        m = self.moduli
        p = constitutive.pk1_for_law(x["law"], x["f"], m)
        sigma = stresses.stress_convert(
            stresses.StressState(p, "pk1", x["f"]), "cauchy").tensor
        back = constitutive.becker_inverse(
            constitutive.becker_biot(x["u"], m), m)
        return p, sigma, back

    def reference(self, batch):
        """PK1 and Cauchy stress from the known factors R, Q and stretches."""
        g, lam, k = self.g, self.lam, self.moduli.k
        r, q, s, f = (np.array([x[key] for x in batch])
                      for key in ("r", "q", "s", "f"))
        law = np.array([x["law"] for x in batch])
        j = np.prod(s, axis=1)
        logs = np.log(s)
        # Biot laws: T = 2G e + lam tr(e) I in the frame of U, P = R T
        e = np.where((law == "hooke-biot")[:, None], s - 1.0, logs)
        p_biot = r @ spectral(q, 2.0 * g * e + lam * e.sum(1)[:, None])
        # Hencky laws: tau (or sigma) = 2G dev(log V) + K tr(log V) I
        t = 2.0 * g * (logs - logs.mean(1)[:, None]) + k * logs.sum(1)[:, None]
        t = t * np.where(law == "hencky-cauchy", j, 1.0)[:, None]
        f_inv_t = np.swapaxes(spectral(q, 1.0 / s) @ np.swapaxes(r, 1, 2),
                              1, 2)
        p_v = spectral(r @ q, t) @ f_inv_t
        p = np.where(np.isin(law, ("becker", "hooke-biot"))[:, None, None],
                     p_biot, p_v)
        return p, p @ np.swapaxes(f, 1, 2) / j[:, None, None]

    def check(self, batch, outputs):
        p_ref, sigma_ref = self.reference(batch)
        results = []
        for i, (x, y) in enumerate(zip(batch, outputs)):
            if y is None:
                results.append(_RAISED)
                continue
            if not _finite(*y):
                results.append(_judge(math.inf, "non-finite output"))
                continue
            err = max(float(rel_err(y[0], p_ref[i], self.g)),
                      float(rel_err(y[1], sigma_ref[i], self.g)),
                      float(rel_err(y[2], x["u"], 1.0)))
            results.append(_judge(err))
        return results


# ---------------------------------------------------------------------------
# check-suite: what ``logstrain check`` does

_AXIOMS = ["stress_free_reference", "shear_to_shear", "sphere_to_dilation",
           "superposition", "isotropy", "power_law", "inversion_symmetry"]
_AXIOM_CHECKS = frozenset(_AXIOMS + ["inverse_round_trip"])
_BECKER = _AXIOMS + [
    "inverse_round_trip", "m_condition_closed_form", "m_condition_paper_pair",
    "baker_ericksen_counterexample", "baker_ericksen_small_strain",
    "ordered_force_random", "closed_cycle_work", "linearization_order",
    "pk2_expansion"]
_BECKER_LAM0 = _BECKER + ["m_condition_random", "hill_log_domain",
                          "energy_convexity_spd", "open_path_energy_match"]

# The open path of ``suite`` for lam = 0 and the energy change along it.
_SUITE_OPEN_END = (2.0, 0.7, 1.3)


def _axiom_rel(err, *scales):
    """Residual relative to max(1, scales), as ``verify`` scales it."""
    return err / max((1.0, *scales))


def axiom_residual(report, law, m):
    """The identity residual an axiom report was judged on.

    ``check_axioms`` keeps the worst sample of each axiom as its witness, so
    re-evaluating the axiom's identity there gives the worst residual of the
    report; it is 0 when no sample had a residual above 0.
    """
    w = report.witness
    if w is None:
        return 0.0
    norm = tensors.fro_norm
    t = lambda u: constitutive.stretch_stress(law, u, m)
    name = report.name
    if name == "stress_free_reference":
        if "nonidentity_with_zero_stress" in w:
            return math.inf
        return _axiom_rel(norm(w["stress_at_identity"]))
    if name == "shear_to_shear":
        s = np.asarray(w["stress"])
        off = norm(s - np.diag(np.diag(s)))
        return _axiom_rel(abs(s[2, 2]) + abs(s[0, 0] + s[1, 1]) + off,
                          norm(s))
    if name == "sphere_to_dilation":
        s = np.asarray(w["stress"])
        return _axiom_rel(norm(s - s[0, 0] * np.eye(3)), norm(s))
    if name == "inverse_round_trip":
        return _axiom_rel(norm(w["round_trip"] - w["u"]), norm(w["u"]))
    if name == "superposition":
        lhs, rhs = w["stress_of_product"], w["sum_of_stresses"]
    elif name == "isotropy":
        u, q = w["u"], w["q"]
        lhs, rhs = t(q.T @ u @ q), q.T @ t(u) @ q
    elif name == "power_law":
        lhs, rhs = t(tensors.mat_pow(w["u"], w["r"])), w["r"] * t(w["u"])
    elif name == "inversion_symmetry":
        lhs, rhs = t(tensors.mat_pow(w["u"], -1)), -t(w["u"])
    else:
        raise KeyError(name)
    return _axiom_rel(norm(lhs - rhs), norm(lhs), norm(rhs))


def _becker_energy_change(g, end):
    lam = np.asarray(end, dtype=float)
    return 2.0 * g * float(np.sum(lam * np.log(lam) - lam + 1.0))


class CheckSuite(Workload):
    name = "check-suite"
    configs = (("becker", 1.0, 0.0), ("becker", 1.0, 0.5),
               ("becker", 1.0, 25.0), ("hencky-kirchhoff", 1.0, 0.5),
               ("hooke-biot", 1.0, 0.5))
    expected_names = (set(_BECKER_LAM0), set(_BECKER), set(_BECKER),
                      set(_AXIOMS + ["inverse_round_trip"]), set(_AXIOMS))
    samples = 64
    batch_ops = len(configs)
    min_batches = 20
    tail_percentile = 90.0   # the middle of the slowest config's 20%

    def __init__(self):
        self.digests = {}
        self.tolerance_misses = []

    def sizes(self):
        return {"samples": self.samples,
                "configs": [list(c) for c in self.configs]}

    def info(self):
        return {"report_digests": self.digests,
                "axiom_tolerance_misses": {
                    "count": len(self.tolerance_misses),
                    "first": self.tolerance_misses[:5]}}

    def batch(self, seed, index):
        rng = np.random.default_rng([seed, 2, index])
        seeds = rng.integers(0, 2 ** 31, len(self.configs))
        return [{"config": i, "law": law, "g": g, "lam": lam,
                 "seed": int(seeds[i])}
                for i, (law, g, lam) in enumerate(self.configs)]

    def run(self, x):
        m = Moduli.from_g_lam(x["g"], x["lam"])
        return verify.suite(x["law"], m, samples=self.samples,
                            seed=x["seed"])

    def _closed_form_errors(self, x, by_name):
        g, lam = x["g"], x["lam"]
        errs = []
        if "closed_cycle_work" in by_name:
            w = by_name["closed_cycle_work"].witness
            errs.append(max_rel_err(w["work"],
                                   lam * (4.0 - 6.0 * math.log(2.0)), g))
            errs.append(0.0 if w["quadrature_converged"] else math.inf)
        if "open_path_energy_match" in by_name:
            w = by_name["open_path_energy_match"].witness
            errs.append(max_rel_err(
                w["work"], _becker_energy_change(g, _SUITE_OPEN_END), g))
        if "m_condition_closed_form" in by_name:
            w = by_name["m_condition_closed_form"].witness
            errs.append(max_rel_err(
                w["value"], 0.25 * math.log(2.0) * (20.0 * g - lam), g))
        return errs

    def check(self, batch, outputs):
        results = []
        for x, reports in zip(batch, outputs):
            if reports is None:
                results.append(_RAISED)
                continue
            by_name = {r.name: r for r in reports}
            key = "{} G={:g} lam={:g}".format(x["law"], x["g"], x["lam"])
            errs = self._closed_form_errors(x, by_name)
            m = Moduli.from_g_lam(x["g"], x["lam"])
            unexpected = []
            for r in reports:
                if r.name not in _AXIOM_CHECKS or not r.expected:
                    if not r.as_expected:
                        unexpected.append(r.name)
                    continue
                # An axiom that holds is judged on its residual: precision
                # goes into the error, FAIL_TOL decides the failure.
                res = axiom_residual(r, x["law"], m)
                errs.append(res)
                if not r.passed and res <= FAIL_TOL:
                    self.tolerance_misses.append(
                        {"config": key, "seed": x["seed"], "report": r.name,
                         "residual": res, "axiom_tol": r.tolerance})
                elif not r.passed:
                    unexpected.append(r.name)
            why = None
            if unexpected:
                why = "reports not as expected: " + ", ".join(unexpected)
            elif set(by_name) != self.expected_names[x["config"]] \
                    or len(by_name) != len(reports):
                why = "report names differ from the seed's"
            if key not in self.digests:  # the first call of each config
                text = "\n".join(verify.format_reports(reports))
                self.digests[key] = {
                    "seed": x["seed"],
                    "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
            ok, err, why = _judge(max(errs, default=0.0), why)
            if why is not None:
                why = "{} seed {}: {}".format(key, x["seed"], why)
            results.append((ok, err if errs else None, why))
        return results


# ---------------------------------------------------------------------------
# path-work: Richardson-refined work integrals along load paths

def axis_rotation(axis, theta):
    """Rotation by ``theta`` about the unit vector ``axis`` (Rodrigues)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * k @ k


def _cycle_corners(c):
    return [(1.0, 1.0, 1.0), (c, 1.0, 1.0), (c, c, c), (1.0, 1.0, 1.0)]


def _cycle_work(c, lam):
    """Becker-law work around the diagonal cycle of corner stretch ``c``.

    The 2G part is exact and integrates to zero; the lam part is
    ``lam * closed integral of ln J d(tr U)``.  At c = 2 this is
    ``lam (4 - 6 ln 2)``.
    """
    lnc = math.log(c)
    return lam * (2.0 * (c - 1.0) * lnc - 4.0 * (c * lnc - c + 1.0))


def _open_path_work(law, g, lam, end):
    """Work along the straight diagonal path from I to diag(end)."""
    lam_end = np.asarray(end, dtype=float)
    logs = np.log(lam_end)
    if law == "hencky-kirchhoff":  # hyperelastic: the energy change
        k = lam + 2.0 * g / 3.0
        d = logs - np.mean(logs)
        return g * float(d @ d) + 0.5 * k * float(np.sum(logs)) ** 2
    # becker: energy part plus lam * integral of ln J d(tr U) on the line
    d = lam_end - 1.0
    avg_log = np.where(np.abs(d) > 1e-12,
                       (lam_end * logs - d) / np.where(d == 0.0, 1.0, d),
                       0.5 * d)
    return (_becker_energy_change(g, lam_end)
            + lam * float(np.sum(d)) * float(np.sum(avg_log)))


class PathWork(Workload):
    name = "path-work"
    laws = (("becker", 0.0), ("becker", 0.5), ("hencky-kirchhoff", 0.0),
            ("hencky-kirchhoff", 0.5))
    paths = ("dilation-cycle", "rotating-cycle-1.5", "rotating-cycle-2",
             "open-diagonal")
    batch_ops = len(laws) * len(paths)
    min_batches = 5
    tail_percentile = 85.0
    g = 1.0

    def sizes(self):
        return {"paths": list(self.paths),
                "laws": [list(x) for x in self.laws], "G": self.g,
                "n0": 192, "open_end_range": [0.6, 1.8]}

    def batch(self, seed, index):
        rng = np.random.default_rng([seed, 3, index])
        ops = [(path, law, lam) for path in self.paths
               for law, lam in self.laws]
        axes = rng.standard_normal((len(ops), 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        ends = rng.uniform(0.6, 1.8, (len(ops), 3))
        return [{"law": law, "lam": lam, "path": path, "axis": axes[i],
                 "end": tuple(float(v) for v in ends[i])}
                for i, (path, law, lam) in enumerate(ops)]

    def run(self, x):
        m = Moduli.from_g_lam(self.g, x["lam"])
        path = x["path"]
        if path == "dilation-cycle":
            return verify.converged_path_work(
                verify.dilation_shear_cycle(), x["law"], m, closed=True)
        if path == "open-diagonal":
            return verify.converged_path_work(
                verify.diagonal_path([(1.0, 1.0, 1.0), x["end"]]),
                x["law"], m)
        base = verify.diagonal_path(_cycle_corners(float(path.split("-")[-1])))
        axis = x["axis"]

        def f(t):  # a full turn about the axis while the stretch cycles
            return axis_rotation(axis, 2.0 * math.pi * t) @ base(t)

        return verify.converged_path_work(f, x["law"], m, closed=True)

    def reference(self, x):
        law, lam, path = x["law"], x["lam"], x["path"]
        if path == "open-diagonal":
            return _open_path_work(law, self.g, lam, x["end"])
        if law == "hencky-kirchhoff":
            return 0.0  # hyperelastic for every lam
        c = 2.0 if path == "dilation-cycle" else float(path.split("-")[-1])
        return _cycle_work(c, lam)

    def check(self, batch, outputs):
        results = []
        for x, y in zip(batch, outputs):
            if y is None:
                results.append(_RAISED)
                continue
            if not _finite(y[0]):
                results.append(_judge(math.inf, "non-finite work"))
                continue
            work, _, converged = y
            err = max_rel_err(work, self.reference(x), self.g)
            results.append(_judge(err, None if converged
                                  else "quadrature did not converge"))
        return results


# ---------------------------------------------------------------------------
# cli-curves: the ``logstrain`` subcommands in process

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan"
_PAIR = re.compile(r"([A-Za-z][\w-]*) = (" + _NUM + r")")


def _csv(lines):
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {h: rows[:, i] for i, h in enumerate(header)}


def _matrix_after(lines, title):
    i = lines.index(title)
    return np.array([[float(v) for v in ln.split()]
                     for ln in lines[i + 1:i + 4]])


def _f_text(f):
    return " ".join(repr(float(v)) for v in np.asarray(f).ravel())


class CliCurves(Workload):
    name = "cli-curves"
    commands = ("plot-incompressible", "plot-simple-shear-ogden",
                "plot-tension", "fit-incompressible", "fit-hyper",
                "shear-statics", "decompose", "stress", "invert")
    batch_ops = len(commands)
    min_batches = 60
    tail_percentile = 95.0   # inside the simple-shear figure's share
    points = 200
    fit_rows = 24
    comparison_laws = ("becker", "becker-hyper", "hencky", "neo-hooke",
                       "hooke")

    def __init__(self, workdir):
        self.workdir = workdir

    def sizes(self):
        return {"commands": list(self.commands), "points": self.points,
                "fit_rows": self.fit_rows}

    def batch(self, seed, index):
        rng = np.random.default_rng([seed, 4, index])
        g = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.0, 1.0))
        mod = ["--G", repr(g), "--lam", repr(lam)]
        ogden_mu = rng.uniform(0.2, 1.0, 2)
        ogden_alpha = rng.uniform(1.0, 4.0, 2) * np.array([1.0, -1.0])
        fits = {}
        for mode in ("incompressible", "hyper"):
            g_true = float(rng.uniform(0.5, 2.0))
            xs = np.sort(rng.uniform(0.6, 2.5, self.fit_rows))
            phi = (3.0 * np.log(xs) if mode == "incompressible"
                   else np.log(xs) * (2.0 + xs ** -1.5))
            path = os.path.join(self.workdir, f"fit-{mode}-{index}.csv")
            with open(path, "w") as fh:
                fh.write("lambda,t\n")
                for x, y in zip(xs, g_true * phi):
                    fh.write(f"{float(x)!r},{float(y)!r}\n")
            fits[mode] = (path, g_true)
        q_load = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(1.1, 4.0))
        loads = rng.uniform(-1.5, 1.5, 3)
        rot = rotations(rng, 2)
        stretches = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 3))
        u = spectral(rot[1], stretches)
        law = ("becker", "hencky-kirchhoff", "hencky-cauchy",
               "hooke-biot")[index % 4]
        t_biot = rng.uniform(-1.0, 1.0, 6)
        ogden = ["--ogden-mu", ",".join(repr(float(v)) for v in ogden_mu),
                 "--ogden-alpha",
                 ",".join(repr(float(v)) for v in ogden_alpha)]
        laws = ["--laws", *self.comparison_laws]
        argv = {
            "plot-incompressible": ["plot-data", "--figure", "incompressible",
                                    "--points", str(self.points), *mod],
            "plot-simple-shear-ogden": ["plot-data", "--figure",
                                        "simple-shear", "--points",
                                        str(self.points), *ogden, *mod],
            "plot-tension": ["plot-data", "--figure", "tension", "--points",
                             str(self.points), *mod],
            "fit-incompressible": ["fit", fits["incompressible"][0],
                                   "--mode", "uniaxial-incompressible",
                                   "--out", "-", "--points",
                                   str(self.points), *laws],
            "fit-hyper": ["fit", fits["hyper"][0], "--mode", "uniaxial-hyper",
                          "--out", "-", "--points", str(self.points), *laws],
            "shear-statics": ["shear-statics", "--Q", repr(q_load),
                              "--alpha", repr(alpha)],
            "decompose": ["decompose", "--loads",
                          *(repr(float(v)) for v in loads), *mod],
            "stress": ["stress", "--F", _f_text(rot[0] @ u), "--law", law,
                       "--measure", "cauchy", *mod],
            "invert": ["invert", "--T",
                       " ".join(repr(float(v)) for v in t_biot), *mod],
        }
        common = {"g": g, "lam": lam, "ogden_mu": ogden_mu,
                  "ogden_alpha": ogden_alpha, "q": q_load, "alpha": alpha,
                  "loads": loads, "r": rot[0], "frame": rot[1],
                  "stretches": stretches, "law": law, "t_biot": t_biot}
        return [{"command": c, "argv": argv[c],
                 "fit": fits.get(c.split("-", 1)[1]) if c.startswith("fit")
                 else None, **common}
                for c in self.commands]

    def run(self, x):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(x["argv"])
        return code, out.getvalue(), err.getvalue()

    # -- closed forms ------------------------------------------------------

    @staticmethod
    def _young(g, lam):
        return g * (3.0 * lam + 2.0 * g) / (lam + g)

    def _expected_columns(self, x, cols):
        g, lam = x["g"], x["lam"]
        c = x["command"]
        if c == "plot-simple-shear-ogden":
            gam = cols["gamma"]
            l1 = 0.5 * (gam + np.sqrt(gam * gam + 4.0))
            ogden = sum(mu * (l1 ** a - l1 ** -a) for mu, a in
                        zip(x["ogden_mu"], x["ogden_alpha"])) / (l1 + 1 / l1)
            return {"becker": 2.0 * g * np.arcsinh(gam / 2.0),
                    "hencky": 4.0 * g * np.arcsinh(gam / 2.0)
                    / np.sqrt(gam * gam + 4.0),
                    "neo_hooke": g * gam, "ogden": ogden}
        xs = cols["lambda"]
        if c == "plot-tension":
            e = self._young(g, lam)
            return {"becker": e * np.log(xs), "hooke": e * (xs - 1.0),
                    "neo_hooke": g * (xs - xs ** -2.0)}
        if c.startswith("fit"):
            g = x["fit"][1]
        expect = {"becker": 3.0 * g * np.log(xs),
                  "becker_hyper": g * np.log(xs) * (2.0 + xs ** -1.5),
                  "hencky": 3.0 * g * np.log(xs) / xs,
                  "neo_hooke": g * (xs - xs ** -2.0),
                  "hooke": 3.0 * g * (xs - 1.0)}
        if c.startswith("fit"):
            expect = {k.replace("_", "-"): v for k, v in expect.items()}
            expect["fit"] = expect["becker" if c == "fit-incompressible"
                                   else "becker-hyper"]
        return expect

    def _cauchy_ref(self, x):
        g, lam = x["g"], x["lam"]
        k = lam + 2.0 * g / 3.0
        r, q, s = x["r"], x["frame"], x["stretches"]
        j = float(np.prod(s))
        law = x["law"]
        if law in ("becker", "hooke-biot"):
            e = np.log(s) if law == "becker" else s - 1.0
            t = 2.0 * g * e + lam * np.sum(e)
            return spectral(r @ q, t * s) / j
        e = np.log(s)
        t = 2.0 * g * (e - np.mean(e)) + k * np.sum(e)
        return spectral(r @ q, t / j if law == "hencky-kirchhoff" else t)

    def _errors(self, x, text):
        """Relative errors of every checked printed number (raises if the
        output does not parse)."""
        g, lam = x["g"], x["lam"]
        k = lam + 2.0 * g / 3.0
        lines = text.splitlines()
        c = x["command"]
        errs = []
        if c.startswith("plot") or c.startswith("fit"):
            if c.startswith("fit"):
                fitted = float(re.search(r"fitted G = (" + _NUM + ")",
                                         text).group(1))
                errs.append(max_rel_err(fitted, x["fit"][1], x["fit"][1]))
                start = next(i for i, ln in enumerate(lines)
                             if ln.startswith("lambda,fit"))
                lines = [ln for ln in lines[start:]
                         if not ln.startswith("curve written")]
            cols = _csv(lines)
            if len(next(iter(cols.values()))) != self.points:
                raise ValueError("wrong number of curve points")
            expect = self._expected_columns(x, cols)
            if set(expect) != set(cols) - {"lambda", "gamma"}:
                raise ValueError(f"unexpected columns {sorted(cols)}")
            scale = x["fit"][1] if c.startswith("fit") else g
            for name, ref in expect.items():
                errs.append(max_rel_err(cols[name], ref, scale))
            return errs
        if c == "shear-statics":
            v = {kk: float(vv) for kk, vv in _PAIR.findall(text)}
            q, a = x["q"], x["alpha"]
            ref = {"sigma1": -q / a, "sigma2": q * a,
                   "sigma_m": 0.5 * (q * a - q / a),
                   "radius": 0.5 * (q * a + q / a), "s": 0.5 * (a - 1 / a),
                   "psi": math.atan(1.0 / a), "theta": 0.25 * math.pi,
                   "sigma_xi": 0.0, "sigma_eta": q * (a * a - 1.0) / a,
                   "sigma_xieta": q, "bound": q,
                   "distortional": q * math.sqrt(a * a + 1.0 + a ** -2),
                   "max-shear": q * (a + 1.0 / a)}
            return [max_rel_err(v[kk], rv, q) for kk, rv in ref.items()]
        if c == "decompose":
            p, q, r = x["loads"]
            coef = re.search(r"(" + _NUM + r") \* diag\(-1, 1, 0\)\s+\+\s+("
                             + _NUM + r") \* diag\(0, 1, -1\)\s+\+\s+("
                             + _NUM + r") \* I", text)
            ref = ((-2 * p + q + r) / 3, (p + q - 2 * r) / 3,
                   (p + q + r) / 3)
            errs = [max_rel_err(float(coef.group(i + 1)), ref[i], g)
                    for i in range(3)]
            rec = re.search(r"recomposed stretch: diag\((.*)\)", text)
            got = np.array([float(v) for v in rec.group(1).split(",")])
            loads = np.array(x["loads"])
            want = np.exp((loads - loads.mean()) / (2.0 * g)
                          + loads.sum() / (9.0 * k))
            errs.append(max_rel_err(got, want, 1.0))
            return errs
        if c == "stress":
            got = _matrix_after(lines, "stress (cauchy):")
            return [float(rel_err(got, self._cauchy_ref(x), g))]
        if c == "invert":
            t11, t22, t33, t12, t13, t23 = x["t_biot"]
            t = np.array([[t11, t12, t13], [t12, t22, t23],
                          [t13, t23, t33]])
            w, v = np.linalg.eigh(dev(t) / (2.0 * g)
                                  + np.trace(t) / (9.0 * k) * np.eye(3))
            got = _matrix_after(lines, "stretch U with biot(U) = T:")
            return [float(rel_err(got, spectral(v, np.exp(w)), 1.0))]
        raise ValueError(f"unknown command {c!r}")

    def check(self, batch, outputs):
        results = []
        for x, y in zip(batch, outputs):
            if y is None:
                results.append(_RAISED)
                continue
            code, out, err_text = y
            if code != 0:
                results.append(_judge(math.inf, "{}: exit code {}: {}".format(
                    x["command"], code, err_text.strip())))
                continue
            try:
                err = max(self._errors(x, out))
            except (ValueError, AttributeError, KeyError, IndexError,
                    StopIteration) as exc:
                results.append(_judge(math.inf, "{}: output did not parse: "
                                      "{!r}".format(x["command"], exc)))
                continue
            results.append(_judge(err))
        return results


def make(name, workdir):
    """The workload called ``name``; ``workdir`` holds its scratch files."""
    if name == CliCurves.name:
        return CliCurves(workdir)
    for cls in (MaterialPoint, CheckSuite, PathWork):
        if cls.name == name:
            return cls()
    raise KeyError(name)

