"""Span tracer installed around the public functions of each layer.

A layer is a ``logstrain`` module.  :meth:`Tracer.install` replaces every
public function of a layer, and every public method of its public classes,
by a timing wrapper: in the defining module, in every ``logstrain`` module
that imported the function by name, and in module-level dict tables (such as
the law dispatch table) that hold it.  Benchmark functions that the
program calls back (path functions) can be wrapped too, as layer ``bench``.
:meth:`Tracer.uninstall` puts the originals back.  Nothing in the package
itself is edited.

Spans (function, start, end, parent) are appended to compact arrays in
memory while an operation runs and can be written out with :meth:`save`.
Wrappers record nothing outside :meth:`Tracer.op`, so the benchmark's own
checks leave no spans.  A span's self time is its duration minus the
durations of its direct children; the self times of all spans of an
operation add up to the time spent inside top-level spans; the rest of the
operation, plus the self time of ``bench`` spans, is the benchmark's own
time.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensors", "kinematics", "stresses", "constitutive", "verify",
          "cli", "fitting", "shear_statics", "decomposition", "moduli")

# Function-level metrics: (function, metric suffix, ns divisor).
FUNCTIONS = (
    ("tensors.eig_sym", "us_per_call", 1e3),
    ("tensors.mat_log", "us_per_call", 1e3),
    ("tensors.mat_exp", "us_per_call", 1e3),
    ("kinematics.polar_decompose", "us_per_call", 1e3),
    ("constitutive.becker_biot", "us_per_call", 1e3),
    ("constitutive.becker_inverse", "us_per_call", 1e3),
    ("constitutive.pk1_for_law", "us_per_call", 1e3),
    ("stresses.stress_convert", "us_per_call", 1e3),
    ("verify.random_rotation", "us_per_call", 1e3),
    ("verify.path_work", "ms_per_call", 1e6),
)
PATH_WORK = "verify.converged_path_work"
PK1 = "constitutive.pk1_for_law"


def _public_callables(mod):
    """(owner, attribute, function, label) for the layer's public API."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                elif inspect.isfunction(raw):
                    fn = raw
                else:
                    continue
                yield obj, attr, fn, f"{short}.{name}.{attr}"


class Tracer:
    """Per-function call counts, inclusive and self time, errors and spans."""

    def __init__(self):
        self.labels = []
        self.layer_of = []
        self.calls = []
        self.incl_ns = []
        self.self_ns = []
        self.errors = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op_start = array("q")
        self.op_end = array("q")
        self.results = []          # return values of converged_path_work
        self._stack = []           # [span index, child ns] of open spans
        self._active = False
        self._last_exc = None
        self._patches = []         # (owner, key, original) to restore
        self._fid = {}

    # -- installation ------------------------------------------------------

    def _wrapper(self, label, fn):
        fid = len(self.labels)
        self._fid[label] = fid
        self.labels.append(label)
        self.layer_of.append(label.split(".", 1)[0])
        for counter in (self.calls, self.incl_ns, self.self_ns, self.errors):
            counter.append(0)
        keep = label == PATH_WORK
        tracer, clock = self, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_fn)
            tracer.span_fn.append(fid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(fid, frame, start, clock(), exc)
                raise
            tracer._close(fid, frame, start, clock(), None)
            if keep:
                tracer.results.append(result)
            return result

        return traced

    def _close(self, fid, frame, start, end, exc):
        self._stack.pop()
        dur = end - start
        self.span_start[frame[0]] = start
        self.span_end[frame[0]] = end
        self.calls[fid] += 1
        self.incl_ns[fid] += dur
        self.self_ns[fid] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if exc is not None and exc is not self._last_exc:
            self.errors[fid] += 1    # counted where it was first seen
            self._last_exc = exc

    def install(self, bench=()):
        """Wrap the layers' public API.  ``bench`` lists (owner, attribute)
        pairs of benchmark functions that the program calls back, such as
        path functions; their spans count as the benchmark's own time."""
        for owner, attr in bench:
            raw = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(f"bench.{attr}", raw))
            self._patches.append((owner, attr, raw))
        wrapped = {}                 # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"logstrain.{layer}")
            for owner, attr, fn, label in _public_callables(mod):
                w = self._wrapper(label, fn)
                wrapped[id(fn)] = w
                raw = vars(owner)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(owner, attr, type(raw)(w))
                else:
                    setattr(owner, attr, w)
                self._patches.append((owner, attr, raw))
        package = importlib.import_module("logstrain")
        names = [package.__name__] + [
            f"{package.__name__}.{m.name}"
            for m in pkgutil.iter_modules(package.__path__)]
        for name in names:
            mod = sys.modules.get(name)
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and getattr(mod, attr) is val:
                    setattr(mod, attr, wrapped[id(val)])
                    self._patches.append((mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrapped:
                            val[key] = wrapped[id(item)]
                            self._patches.append((val, key, item))
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self):
        """Record spans while one operation runs."""
        self.op_start.append(time.perf_counter_ns())
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self.op_end.append(time.perf_counter_ns())
            if self._stack:
                raise RuntimeError("span left open at the end of an operation")

    def save(self, path):
        """Write every span and operation interval (nanoseconds)."""
        np.savez_compressed(
            path, labels=np.array(self.labels),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64),
            op_start=np.frombuffer(self.op_start, dtype=np.int64),
            op_end=np.frombuffer(self.op_end, dtype=np.int64))

    # -- summary -----------------------------------------------------------

    def summary(self, scale=1.0):
        """Per-layer and per-function metrics, plus the time accounting.

        Time metrics are multiplied by ``scale`` (the run's speed scaling);
        the accounting stays in raw wall-clock milliseconds."""
        ops = len(self.op_start)
        if ops == 0:
            raise RuntimeError("no traced operations")
        op_ns = int(np.sum(np.frombuffer(self.op_end, dtype=np.int64)
                           - np.frombuffer(self.op_start, dtype=np.int64)))
        metrics = {}
        layer_self = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            calls = sum(self.calls[i] for i in ids)
            self_ns = sum(self.self_ns[i] for i in ids)
            layer_self[layer] = self_ns
            metrics[f"{layer}.calls_per_op"] = (calls / ops, "count")
            metrics[f"{layer}.self_ms_per_op"] = (
                self_ns / ops / 1e6 * scale, "ms")
            metrics[f"{layer}.self_share"] = (self_ns / op_ns, "share")
            metrics[f"{layer}.errors_per_op"] = (
                sum(self.errors[i] for i in ids) / ops, "count")
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        top = parent == -1
        top_ns = int(np.sum(np.frombuffer(self.span_end, dtype=np.int64)[top]
                            - np.frombuffer(self.span_start,
                                            dtype=np.int64)[top]))
        if sum(self.self_ns) != top_ns or top_ns > op_ns:
            raise RuntimeError("span self times do not add up to the "
                               "top-level span time inside the operations")
        bench_ns = op_ns - sum(layer_self.values())
        metrics["bench.self_ms_per_op"] = (bench_ns / ops / 1e6 * scale, "ms")
        metrics["bench.self_share"] = (bench_ns / op_ns, "share")
        for label, suffix, div in FUNCTIONS:
            fid = self._fid[label]
            n = self.calls[fid]
            metrics[f"{label}.{suffix}"] = (
                self.incl_ns[fid] / n / div * scale if n else 0.0, suffix[:2])
        final_n, ratio = self._path_work()
        metrics[f"{PATH_WORK}.final_n"] = (final_n, "count")
        metrics["verify.path_work.useful_ratio"] = (ratio, "ratio")
        functions = {
            label: {"calls_per_op": self.calls[i] / ops,
                    "incl_ms_per_op": self.incl_ns[i] / ops / 1e6,
                    "self_ms_per_op": self.self_ns[i] / ops / 1e6}
            for i, label in enumerate(self.labels) if self.calls[i]}
        accounting = {
            "traced_op_ms": op_ns / 1e6,
            "layer_self_ms": {k: v / 1e6 for k, v in layer_self.items()},
            "bench_self_ms": bench_ns / 1e6,
            "spans": len(self.span_fn),
            "functions": functions,
        }
        return metrics, accounting

    def _path_work(self):
        """Mean final n, and final grid points per pk1_for_law call, of
        converged_path_work."""
        if not self.results:
            return 0.0, 0.0
        fn = np.frombuffer(self.span_fn, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        pk1_start = start[fn == self._fid[PK1]]   # opening order: sorted
        outer = fn == self._fid[PATH_WORK]
        pk1_calls = int(np.sum(np.searchsorted(pk1_start, end[outer])
                               - np.searchsorted(pk1_start, start[outer])))
        finals = [r[1] for r in self.results]
        points = sum(n + 1 for n in finals)
        return float(np.mean(finals)), points / pk1_calls if pk1_calls else 0.0
