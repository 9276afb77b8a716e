"""Set-up probe: a fresh interpreter imports logstrain and completes the
workload's first operation.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED WORKDIR``.  Prints the
seconds from interpreter start-up to the end of the first operation, less
the time spent importing the benchmark's own code and generating the input.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# What a user of each workload imports before the first call.
MODULES = {
    "check-suite": ("logstrain", "logstrain.verify"),
    "material-point": ("logstrain",),
    "path-work": ("logstrain", "logstrain.verify"),
    "cli-curves": ("logstrain", "logstrain.cli"),
}


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for mod in MODULES[name]:
        importlib.import_module(mod)
    t1 = time.perf_counter()
    import workloads
    wl = workloads.make(name, workdir)
    x = wl.batch(seed, 0)[0]
    t2 = time.perf_counter()
    y = wl.run(x)
    t3 = time.perf_counter()
    ok, _, why = wl.check([x], [y])[0]
    if not ok:
        sys.exit(f"probe: the first {name} operation failed: {why}")
    print(repr((t3 - T0) - (t2 - t1)))


if __name__ == "__main__":
    main()
