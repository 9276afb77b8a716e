"""logstrain benchmark: closed-loop workloads through the public API.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn

One process, one caller: each operation starts after the previous one
returned.  Inputs are generated from ``--seed`` before each batch is timed,
and every output is checked after its batch, outside the timed region.  The
run lasts at least ``--seconds`` of operation time and at least the
workload's minimum number of batches.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
workload untraced and then traced, and reports per-layer metrics and the
tracing overhead; spans are written to ``.perfbench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation passed its check, 1 when one failed or none completed, and 2 when
the benchmark cannot run (for instance without the ``src/`` tree).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("check-suite", "material-point", "path-work", "cli-curves")
SETUP_PROBES = 9
TAIL_BEYOND = 10
CAL_EVERY_NS = 50e6
CAL_WINDOW_NS = 500e6
TOP_FUNCTIONS = 15
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS threads at the number of usable cores (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


def environment(threads, seed, sizes):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": threads, "seed": seed, "sizes": sizes}


# ---------------------------------------------------------------------------
# measurement

def measure(wl, seed, seconds, tracer=None, between=None):
    """Run batches until ``seconds`` of scaled operation time and the
    workload's minimum batch count are reached; check every output.

    The calibration kernel runs at the start and end of every batch and
    whenever ``CAL_EVERY_NS`` of operation time has passed since its last
    run.  Each operation is scaled by the mean kernel time over the
    calibrations within ``CAL_WINDOW_NS`` of it (see ``calibrate``); the
    mean, not the median, because the speed can flip between two levels
    within one operation.  ``between(progress)``, if given, runs before
    every batch with the share of the run done so far, from 0 to 1."""
    import calibrate
    import numpy as np

    clock = time.perf_counter_ns
    starts, ends = array("q"), array("q")
    cal_at, cal_ns = array("q"), array("d")
    acc = []
    attempted = failed = 0
    first_failure = None
    busy = 0.0
    index = 0

    def calibration():
        cal_ns.append(calibrate.kernel_ns())
        cal_at.append(clock())

    while index < wl.min_batches or busy < seconds:
        if between is not None:
            between(min(busy / seconds, index / wl.min_batches))
        batch = wl.batch(seed, index)
        outputs, since = [], 0
        first, first_cal = len(starts), len(cal_ns)
        calibration()
        for x in batch:
            if since >= CAL_EVERY_NS:
                calibration()
                since = 0
            y = None
            t0 = clock()
            try:
                if tracer is None:
                    y = wl.run(x)
                else:
                    with tracer.op():
                        y = wl.run(x)
            except Exception as exc:  # counted as a failed operation
                first_failure = first_failure or (
                    f"batch {index}: {type(exc).__name__}: {exc}")
            t1 = clock()
            starts.append(t0)
            ends.append(t1)
            since += t1 - t0
            outputs.append(y)
        calibration()
        batch_ns = sum(ends[i] - starts[i] for i in range(first, len(starts)))
        busy += batch_ns / 1e9 * calibrate.REF_NS / statistics.median(
            cal_ns[first_cal:])
        for ok, err, why in wl.check(batch, outputs):
            attempted += 1
            if not ok:
                failed += 1
                first_failure = first_failure or f"batch {index}: {why}"
            if err is not None and index < wl.min_batches:
                acc.append(err)
        index += 1

    starts, ends = np.array(starts), np.array(ends)
    cal_at, cal_ns = np.array(cal_at), np.array(cal_ns)
    lo = np.searchsorted(cal_at, starts - CAL_WINDOW_NS)
    hi = np.searchsorted(cal_at, ends + CAL_WINDOW_NS)
    speed = np.array([np.mean(cal_ns[a:b]) for a, b in zip(lo, hi)])
    raw = (ends - starts) / 1e9
    return {"raw": raw, "lat": raw * calibrate.REF_NS / speed, "acc": acc,
            "attempted": attempted, "failed": failed,
            "first_failure": first_failure, "batches": index}


def tail(sorted_lat, pct):
    """Latency at percentile ``pct`` (nearest rank); at least TAIL_BEYOND
    samples must lie beyond it."""
    n = len(sorted_lat)
    i = math.ceil(pct / 100.0 * n) - 1
    if n - 1 - i < TAIL_BEYOND:
        raise RuntimeError(f"p{pct:g} of {n} operations has fewer than "
                           f"{TAIL_BEYOND} samples beyond it")
    return sorted_lat[i]


class SetupProbes:
    """Fresh-interpreter set-up probes, spread over the measured run.

    The host's speed changes for seconds at a time, so the probes run at
    evenly spaced points of the run rather than back to back; ``setup_s``
    is their median wall time.  It is not scaled by the calibration kernel:
    import work does not follow the kernel's speed changes."""

    def __init__(self, name, seed, workdir):
        self.cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed),
                    workdir]
        self.values = []

    def probe(self):
        out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        self.values.append(float(out.stdout))

    def __call__(self, progress):
        if len(self.values) < SETUP_PROBES \
                and progress >= len(self.values) / SETUP_PROBES:
            self.probe()

    def median(self):
        while len(self.values) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.values)


def end_to_end(run, setup, pct):
    lat = sorted(run["lat"])
    raw = sorted(run["raw"])
    worst = max(run["acc"], default=0.0)
    digits = 16.0 if worst == 0.0 else min(16.0, max(0.0, -math.log10(worst)))
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail(lat, pct) * 1e3, "ms"),
        "error_rate": (run["failed"] / run["attempted"], "share"),
        "accuracy_digits": (digits, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"operations": len(lat), "batches": run["batches"],
            "tail_percentile": pct,
            "tail_beyond": len(lat) - math.ceil(pct / 100.0 * len(lat)),
            "worst_rel_error": worst, "accuracy_ops": len(run["acc"]),
            "wall_ops_per_s": len(raw) / math.fsum(raw),
            "wall_latency_p50_ms": statistics.median(raw) * 1e3,
            "wall_latency_tail_ms": tail(raw, pct) * 1e3,
            "speed_scale": math.fsum(lat) / math.fsum(raw)}
    return metrics, info


# ---------------------------------------------------------------------------
# reporting

def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(spec_key, metrics, run, extra, record_path, record):
    """Print the metrics by name and unit, then the result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit}")
    for key, value in extra.items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    wanted = [m["name"] for m in load_spec()[spec_key]]
    correct = run["failed"] == 0 and run["attempted"] > 0
    if run["first_failure"]:
        print(f"# first failure: {run['first_failure']}", file=sys.stderr)
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                          for n in wanted}}
    if record_path:
        record.update(result=result, all_metrics={
            n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            **extra)
        with open(record_path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_one(args, threads):
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.make(args.workload, workdir)
        env = environment(threads, args.seed, wl.sizes())
        why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
        print(f"# workload {wl.name}: {why[wl.name]}")
        record = {"workload": wl.name, "env": env, "seconds": args.seconds,
                  "trace": args.trace}
        if not args.trace:
            probes = SetupProbes(wl.name, args.seed, workdir)
            run = measure(wl, args.seed, args.seconds, between=probes)
            metrics, info = end_to_end(run, probes.median(),
                                       wl.tail_percentile)
            info["setup_probes_s"] = probes.values
            print(f"# latency_tail_ms is p{info['tail_percentile']:g} of "
                  f"{info['operations']} operations "
                  f"({info['tail_beyond']} beyond)")
            extra = {"env": env, "run": info, **wl.info()}
            return emit("end_to_end", metrics, run, extra, args.out, record)
        plain = measure(wl, args.seed, args.seconds)
        tracer = Tracer().install(bench=[(workloads, "axis_rotation")])
        try:
            traced = measure(wl, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, accounting = tracer.summary(
            scale=math.fsum(traced["lat"]) / math.fsum(traced["raw"]))
        overhead = (len(traced["lat"]) / math.fsum(traced["lat"])) / (
            len(plain["lat"]) / math.fsum(plain["lat"]))
        metrics["trace.overhead"] = (overhead, "ratio")
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.save(spans)
        accounting["spans_file"] = str(spans.relative_to(ROOT))
        both = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
        both["first_failure"] = plain["first_failure"] or traced[
            "first_failure"]
        print("# function                                   calls/op "
              "incl ms/op  self ms/op")
        top = sorted(accounting["functions"].items(),
                     key=lambda kv: -kv[1]["incl_ms_per_op"])
        for label, f in top[:TOP_FUNCTIONS]:
            print(f"# {label:40s} {f['calls_per_op']:10.4g} "
                  f"{f['incl_ms_per_op']:10.4g} {f['self_ms_per_op']:10.4g}")
        print(f"# layer self {sum(accounting['layer_self_ms'].values()):.3f} "
              f"ms + benchmark self {accounting['bench_self_ms']:.3f} ms = "
              f"traced operation time {accounting['traced_op_ms']:.3f} ms")
        extra = {"env": env, "accounting": accounting, **wl.info()}
        return emit("per_layer", metrics, both, extra, args.out, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own process; a summary table at the end."""
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = max(code, proc.returncode or 1)
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print("# summary")
    for name, res in results.items():
        print(f"# {name:16s} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
    print(json.dumps({"correct": code == 0 and len(results) == len(NAMES),
                      "workloads": results}))
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record as JSON here")
    args = p.parse_args(argv)
    if not (SRC / "logstrain" / "__init__.py").is_file():
        print(f"error: no logstrain sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
