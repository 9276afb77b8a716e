"""Command-line front end.

Subcommands: ``stress``, ``invert``, ``shear-statics``, ``check``,
``decompose``, ``fit``, ``plot-data``.  Elastic constants come from flags
(--G/--lam/--K/--E/--nu, exactly one consistent pair) or from a plain-text
``logstrain.cfg`` file with ``key=value`` lines (keys G, lambda, K, E, nu);
flags win over the file.

All numbers are printed with 12 significant digits and a dot decimal
separator.  Exit codes: 0 success, 1 check-suite failure, 2 usage or input
error (the message names the violated precondition).  ``check`` exits 1
when a check expected to pass fails or when a check is undecided (its
evaluation raised :class:`LogstrainError`); it names each on stderr, an
undecided one with its message.

:func:`main` builds its argument parser once per process, on its first
call, and reuses it; :func:`build_parser` returns a fresh one.  The curve
commands (``plot-data``, ``fit --out``) evaluate each column with one call
on the whole abscissa array and format the whole table in one pass: one
finiteness check, then one ``%`` of the ``%.12g`` row format repeated over
the flattened rows.

Only ``check`` loads :mod:`logstrain.verify` and only ``decompose`` loads
:mod:`logstrain.decomposition`, each on its first call; ``stress``,
``invert``, ``shear-statics``, ``fit`` and ``plot-data`` start without
them.  A number that does not parse names its source: the flag, the
config file's ``path:line`` (a key given twice names both lines), or the
data file and row.  Config and data files are read as UTF-8, a leading
byte-order mark dropped.
"""

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import constitutive as laws
from . import fitting
from .errors import LogstrainError
from .kinematics import pure_shear_F, simple_glide_F
from .moduli import Moduli
from .shear_statics import (failure_criteria, mohr_circle,
                            pond_stress_components)
from .stresses import MEASURES, stress_convert
from .tensors import (_all_finite, _first, _pow2_scale, dev3, eig_sym,
                      fro_norm, sym_part, tr)

CONFIG_NAME = "logstrain.cfg"
_CONFIG_KEYS = {"g": "g", "lambda": "lam", "k": "k", "e": "e", "nu": "nu"}
_CLI_LAWS = tuple(tag for tag, row in laws._LAWS.items()
                  if row.strain is not None)
# name -> form(lambda, G) of the incompressible comparison curves, shared by
# the incompressible figure and ``fit --laws``
_INCOMPRESSIBLE = dict(laws._incompressible_columns())


def _fmt(x):
    return f"{float(x):.12g}"


def _print_tensor(t):
    for row in np.asarray(t, dtype=float):
        print("  " + "  ".join(f"{v: .12g}" for v in row))


def _number(text, where):
    """``float(text)``, or :class:`LogstrainError` naming ``where`` the
    text came from (a flag, or ``path:line: key`` of the config file)."""
    try:
        return float(text)
    except ValueError:
        raise LogstrainError(
            f"{where}: expected a number, got {text!r}") from None


def _require_points(points):
    if points < 1:
        raise LogstrainError(f"--points must be at least 1, got {points}")


def _read_config(path):
    values, first = {}, {}
    for lineno, raw in enumerate(fitting._lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LogstrainError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        name = _CONFIG_KEYS.get(key.lower())
        if name is None:
            raise LogstrainError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(expected one of {sorted(_CONFIG_KEYS)})")
        if name in first:
            raise LogstrainError(
                f"{path}:{lineno}: key {key!r} is already set at "
                f"{path}:{first[name]}")
        first[name] = lineno
        values[name] = _number(val, f"{path}:{lineno}: {key}")
    return values


def _add_moduli_flags(p):
    g = p.add_argument_group(
        "moduli", "exactly one pair of (G, lam), (G, K), (E, nu), (G, nu); "
        "flags win over the config file")
    g.add_argument("--G", type=float, help="shear modulus")
    g.add_argument("--lam", type=float, help="second Lame constant")
    g.add_argument("--K", type=float, help="bulk modulus")
    g.add_argument("--E", type=float, help="Young's modulus")
    g.add_argument("--nu", type=float, help="Poisson's ratio")
    g.add_argument("--unit", default="MPa", help="stress unit label")
    g.add_argument("--config", metavar="PATH",
                   help=f"moduli config file (default: ./{CONFIG_NAME} "
                        "if present)")


def _moduli_sources(args):
    """``(flags, path)``: the moduli flags given, by the names of
    :meth:`Moduli.make`, and the config file to read (``--config``, else
    ``./logstrain.cfg`` if it exists, else None).  Moduli were given when
    there is a flag or a path."""
    flags = {name: getattr(args, attr) for name, attr in
             [("g", "G"), ("lam", "lam"), ("k", "K"), ("e", "E"),
              ("nu", "nu")] if getattr(args, attr) is not None}
    path = args.config
    if path is None and os.path.exists(CONFIG_NAME):
        path = CONFIG_NAME
    return flags, path


def _moduli_from_args(args, physical=False):
    flags, path = _moduli_sources(args)
    if len(flags) == 2:
        merged = flags  # a complete pair of flags stands alone
    elif path:
        merged = _read_config(path)
        merged.update(flags)
    else:
        merged = flags
    return Moduli.make(physical=physical, unit=args.unit, **merged)


def _parse_deformation(args):
    picked = [args.F is not None, args.shear is not None,
              args.glide is not None]
    if sum(picked) != 1:
        raise LogstrainError("give exactly one of --F, --shear, --glide")
    if args.shear is not None:
        return pure_shear_F(args.shear)
    if args.glide is not None:
        return simple_glide_F(args.glide)
    text = args.F.strip()
    if text.lower().startswith("diag(") and text.endswith(")"):
        vals = [_number(v, "--F") for v in text[5:-1].split(",")]
        if len(vals) != 3:
            raise LogstrainError("diag(...) needs exactly 3 values")
        return np.diag(vals)
    parts = text.replace(",", " ").split()
    if len(parts) != 9:
        raise LogstrainError(
            f"--F needs 9 numbers (row-major) or diag(a,b,c), "
            f"got {len(parts)} values")
    return np.array([_number(v, "--F") for v in parts]).reshape(3, 3)


# ---------------------------------------------------------------------------
# subcommands

@np.errstate(over="ignore", invalid="ignore")
def _cmd_stress(args):
    m = _moduli_from_args(args)
    f = _parse_deformation(args)
    state = stress_convert(laws._stress_state(args.law, f, m),
                           args.measure)
    t = state.tensor
    sym = sym_part(t)
    spec = eig_sym(sym)
    sphere, dev = tr(sym) / 3.0, dev3(sym)
    if not _all_finite((spec.eigenvalues, sphere, dev)):
        raise LogstrainError(f"the principal values or parts of the "
                             f"{args.measure} stress are not finite")
    print(f"law {args.law}, measure {args.measure}, unit {m.unit}")
    print("deformation gradient F:")
    _print_tensor(f)
    print(f"stress ({args.measure}):")
    _print_tensor(t)
    note = "" if args.measure != "pk1" else " (of the symmetric part)"
    print(f"principal values{note}: "
          + "  ".join(_fmt(v) for v in spec.eigenvalues))
    print(f"spherical part{note}: {_fmt(sphere)} * I")
    print(f"deviatoric part{note}:")
    _print_tensor(dev)
    return 0


def _cmd_invert(args):
    m = _moduli_from_args(args)
    vals = [_number(v, "--T") for v in args.T.replace(",", " ").split()]
    if len(vals) != 6:
        raise LogstrainError(
            "--T needs 6 numbers: t11 t22 t33 t12 t13 t23")
    t11, t22, t33, t12, t13, t23 = vals
    t = np.array([[t11, t12, t13], [t12, t22, t23], [t13, t23, t33]])
    u = laws.becker_inverse(t, m)
    back = laws.becker_biot(u, m)  # before anything is printed
    # both stresses scaled by one power of two: exact, and no square in
    # the norms overflows
    s = _pow2_scale(max(np.abs(back).max(), np.abs(t).max()))
    err = fro_norm(back / s - t / s) / max(1.0 / s, fro_norm(t / s))
    print(f"unit {m.unit}")
    print("biot stress:")
    _print_tensor(t)
    print("stretch U with biot(U) = T:")
    _print_tensor(u)
    print(f"round trip |biot(U) - T| / max(1, |T|) = {_fmt(err)}")
    return 0


def _cmd_shear_statics(args):
    mohr = mohr_circle(args.Q, args.alpha)
    xi, eta, xieta = pond_stress_components(args.Q, args.alpha)
    crit = failure_criteria(args.Q, args.alpha, q_scale=args.q_scale)
    deg = math.degrees
    print(f"loading Q = {_fmt(args.Q)}, shear ratio alpha = "
          f"{_fmt(args.alpha)}")
    print("principal cauchy stresses (contractile axis on e1):")
    print(f"  sigma1 = {_fmt(mohr.sigma1)}   sigma2 = {_fmt(mohr.sigma2)}")
    print("mohr circle:")
    print(f"  center sigma_m = {_fmt(mohr.sigma_m)}"
          f"   radius = {_fmt(mohr.radius)}"
          f"   amount of shear s = {_fmt(mohr.s)}")
    print(f"  pond normal inclination psi = {_fmt(mohr.psi)} rad"
          f" = {_fmt(deg(mohr.psi))} deg")
    print(f"  max shear-stress plane theta = {_fmt(mohr.theta)} rad"
          f" = {_fmt(deg(mohr.theta))} deg")
    print("stresses in the plane of no distortion:")
    print(f"  sigma_xi = {_fmt(xi)}   sigma_eta = {_fmt(eta)}"
          f"   sigma_xieta = {_fmt(xieta)}")
    print("failure criteria (equivalent stresses):")
    print(f"  tangential-load bound = {_fmt(crit.becker)}"
          f"   distortional = {_fmt(crit.mises)}"
          f"   max-shear = {_fmt(crit.tresca)}")
    print(f"  ordering: {_fmt(crit.becker)} < {_fmt(crit.mises)}"
          f" < {_fmt(crit.tresca)}")
    return 0


def _cmd_check(args):
    from . import verify

    m = _moduli_from_args(args)
    reports = verify.suite(args.law, m, samples=args.samples,
                           seed=args.seed)
    for line in verify.format_reports(reports):
        print(line)
    undecided = [r for r in reports if r.undecided]
    for r in undecided:
        print(f"# UNDECIDED: {r.name}: {r.witness['error']}",
              file=sys.stderr)
    decided = [r for r in reports if not r.undecided]
    for r in decided:
        if not r.expected and r.passed:
            print(f"# note: expected-violation check {r.name!r} passed",
                  file=sys.stderr)
    bad = [r for r in decided if r.expected and not r.passed]
    for r in bad:
        print(f"# FAILED: {r.name}", file=sys.stderr)
    return 1 if bad or undecided else 0


def _cmd_decompose(args):
    from .decomposition import (StressTriple, becker_tables,
                                decompose_stress_additive,
                                decompose_stretch_multiplicative)

    if (args.loads is None) == (args.stretch is None):
        raise LogstrainError("give exactly one of --loads, --stretch")
    if args.stretch is not None:
        p, q, r = args.stretch
        dec = decompose_stretch_multiplicative(p, q, r)
        print(f"diag({_fmt(p)}, {_fmt(q)}, {_fmt(r)}) =")
        print(f"  dilation {_fmt(dec.dilation_ratio)} * I")
        print(f"  shear on axes {dec.shear1_axes}: diag("
              + ", ".join(_fmt(v) for v in dec.shear1_diag) + ")")
        print(f"  shear on axes {dec.shear2_axes}: diag("
              + ", ".join(_fmt(v) for v in dec.shear2_diag) + ")")
        rec = dec.recompose()
        print("  recomposed: diag(" + ", ".join(_fmt(v) for v in rec) + ")")
        return 0
    t = StressTriple(*args.loads)
    a, b, c = decompose_stress_additive(t)
    flags, path = _moduli_sources(args)
    tab = None
    if flags or path is not None:  # read before anything is printed
        m = _moduli_from_args(args, physical=True)
        tab = becker_tables(t, m)
    print(f"diag({_fmt(t.p)}, {_fmt(t.q)}, {_fmt(t.r)}) =")
    print(f"  {_fmt(a)} * diag(-1, 1, 0)  +  {_fmt(b)} * diag(0, 1, -1)"
          f"  +  {_fmt(c)} * I")
    if tab is None:
        print("  (no moduli given; strain table skipped)")
        return 0
    print(f"strain factors per load (unit {m.unit}):")
    names = ("P", "Q", "R")
    for i, row in enumerate(tab.rows):
        print(f"  load {names[i]} = {_fmt(tab.loads.as_array()[i])}: "
              f"dilation {_fmt(tab.dilations[i])}, "
              f"shear ratio {_fmt(tab.shear_ratios[i])}")
        for factor in row:
            print("    diag(" + ", ".join(_fmt(v) for v in factor) + ")")
    print("  recomposed stretch: diag("
          + ", ".join(_fmt(v) for v in tab.recomposed) + ")")
    return 0


@np.errstate(over="ignore", invalid="ignore")
def _cmd_fit(args):
    _require_points(args.points)
    ds = fitting.read_dataset(args.data)
    result = fitting.fit_dataset(ds, args.mode)
    text = None
    if args.out:  # checked, and written to a file, before anything is printed
        xs = np.linspace(float(ds.x[0]), float(ds.x[-1]), args.points)
        if ds.x[0] == ds.x[-1]:
            xs = np.array([float(ds.x[0])])
        columns = {"lambda": xs,
                   "fit": fitting.model_curve(args.mode, result.g, xs)}
        for name in args.laws:
            columns[name] = _INCOMPRESSIBLE[name](xs, result.g)
        text = _csv_text(columns)
        if args.out != "-":
            _write_text(args.out, text)
    print(f"model {result.model}")
    print(f"fitted G = {_fmt(result.g)}")
    print(f"rms residual = {_fmt(result.rms)} over {len(ds)} rows")
    for x, r in zip(ds.x, result.residuals):
        print(f"  lambda = {_fmt(x)}   residual = {_fmt(r)}")
    if text is not None:
        if args.out == "-":
            sys.stdout.write(text)
        print(f"curve written to {args.out}")
    return 0


def _csv_text(columns):
    """The CSV table of the columns, or :class:`LogstrainError` naming the
    first column with a number that is not finite."""
    names = list(columns)
    table = np.column_stack(list(columns.values()))
    bad = ~np.isfinite(table)
    if bad.any():
        j = _first(bad.any(axis=0))
        i = _first(bad[:, j])
        raise LogstrainError(f"column {names[j]} is not finite at "
                             f"{names[0]} = {_fmt(table[i, 0])}")
    row = ",".join(["%.12g"] * len(names)) + "\n"
    return ",".join(names) + "\n" + (row * len(table)) % tuple(
        table.ravel().tolist())


def _write_csv(path, columns):
    _write_text(path, _csv_text(columns))


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


_FIGURES = ("incompressible", "simple-shear", "tension")


@np.errstate(over="ignore", invalid="ignore")
def _cmd_plot_data(args):
    m = _moduli_from_args(args)
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if value is not None and not math.isfinite(value):
            raise LogstrainError(f"{flag} must be finite, got {value}")
    _require_points(args.points)
    ogden = None
    if args.ogden_mu or args.ogden_alpha:
        mu = [_number(v, "--ogden-mu")
              for v in (args.ogden_mu or "").split(",") if v]
        al = [_number(v, "--ogden-alpha")
              for v in (args.ogden_alpha or "").split(",") if v]
        ogden = laws.LawId("ogden", mu=mu, alpha=al)

    if args.figure == "simple-shear":
        lo = 0.0 if args.min is None else args.min
        hi = 3.5 if args.max is None else args.max
        xs = np.linspace(lo, hi, args.points)
        columns = {"gamma": xs}
        for law, name in (("becker", "becker"),
                          ("hencky-kirchhoff", "hencky"),
                          ("neo-hooke", "neo_hooke"), (ogden, "ogden")):
            if law:
                columns[name] = laws.simple_shear_sigma12(law, xs, m)
    else:
        lo = 0.5 if args.min is None else args.min
        hi = 3.0 if args.max is None else args.max
        if not min(lo, hi) > 0.0:
            raise LogstrainError("stretch range must be positive")
        xs = np.linspace(lo, hi, args.points)
        columns = {"lambda": xs}
        if args.figure == "incompressible":
            for name, form in _INCOMPRESSIBLE.items():
                columns[name.replace("-", "_")] = form(xs, m.g)
        else:  # tension: the compressible uniaxial responses
            for name, tag in (("becker", "becker"), ("hooke", "hooke-biot"),
                              ("neo_hooke", "neo-hooke")):
                columns[name] = laws._LAWS[tag].uniaxial(xs, m.e, m.g, None)
        if ogden:
            columns["ogden"] = laws._LAWS["ogden"].uniaxial(xs, None, None,
                                                            ogden)
    _write_csv(args.out, columns)
    return 0


# ---------------------------------------------------------------------------

_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent form,
    such as ``-9.7e-05``, or ``-inf``, as a value, as argparse already reads
    ``-1`` and ``-0.5``, and not as an unknown option; the command then
    rejects a value that is not finite with its own message."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser():
    p = _Parser(
        prog="logstrain",
        description="Finite-elasticity computations with the logarithmic "
                    "Biot-stress law: stress evaluation and inversion, "
                    "finite-shear statics, verification checks, data "
                    "fitting and curve emission.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stress", help="stress tensor for a deformation")
    sp.add_argument("--F", help="9 numbers (row-major) or diag(a,b,c)")
    sp.add_argument("--shear", type=float, metavar="ALPHA",
                    help="pure shear diag(alpha, 1/alpha, 1)")
    sp.add_argument("--glide", type=float, metavar="GAMMA",
                    help="simple glide of amount gamma")
    sp.add_argument("--measure", choices=MEASURES, default="biot")
    sp.add_argument("--law", choices=_CLI_LAWS, default="becker")
    _add_moduli_flags(sp)
    sp.set_defaults(fn=_cmd_stress)

    sp = sub.add_parser("invert",
                        help="stretch producing a given biot stress")
    sp.add_argument("--T", required=True,
                    help="6 numbers: t11 t22 t33 t12 t13 t23")
    _add_moduli_flags(sp)
    sp.set_defaults(fn=_cmd_invert)

    sp = sub.add_parser("shear-statics",
                        help="Mohr circle, pond stresses, failure criteria")
    sp.add_argument("--Q", type=float, required=True, help="loading")
    sp.add_argument("--alpha", type=float, required=True,
                    help="shear ratio > 1")
    sp.add_argument("--q-scale", type=float, default=1.0,
                    help="scale factor applied to Q in the failure "
                         "criteria (default 1)")
    sp.set_defaults(fn=_cmd_shear_statics)

    sp = sub.add_parser("check", help="run the verification suite")
    sp.add_argument("--law", choices=_CLI_LAWS, default="becker")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    _add_moduli_flags(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("decompose",
                        help="additive stress / multiplicative stretch "
                             "decomposition")
    sp.add_argument("--loads", type=float, nargs=3, metavar=("P", "Q", "R"))
    sp.add_argument("--stretch", type=float, nargs=3,
                    metavar=("p", "q", "r"))
    _add_moduli_flags(sp)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("fit", help="fit the shear modulus to uniaxial data")
    sp.add_argument("data", help="CSV file with header lambda,t")
    sp.add_argument("--mode", choices=fitting.FIT_MODES,
                    default="uniaxial-incompressible")
    sp.add_argument("--out", help="write the fitted curve CSV here "
                                  "('-' for stdout)")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--laws", nargs="*", default=[],
                    choices=list(_INCOMPRESSIBLE),
                    help="extra comparison columns at the fitted G")
    sp.set_defaults(fn=_cmd_fit)

    sp = sub.add_parser("plot-data", help="emit figure curves as CSV")
    sp.add_argument("--figure", choices=_FIGURES, required=True)
    sp.add_argument("--min", type=float, help="abscissa lower bound")
    sp.add_argument("--max", type=float, help="abscissa upper bound")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--out", default="-",
                    help="output CSV path (default stdout)")
    sp.add_argument("--ogden-mu", help="comma-separated ogden moduli")
    sp.add_argument("--ogden-alpha", help="comma-separated ogden exponents")
    _add_moduli_flags(sp)
    sp.set_defaults(fn=_cmd_plot_data)
    return p


@functools.cache
def _parser():
    # parse_args leaves a parser as it found it, so one serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LogstrainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
