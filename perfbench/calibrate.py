"""Machine-speed calibration for time metrics.

On a shared host the speed of a core changes by up to 1.6x for seconds at a
time, and process CPU time changes with it, so neither wall-clock nor CPU
time repeats from run to run.  A fixed kernel that does not touch
``logstrain`` is timed beside the operations.  It mixes what the workloads
spend their time on: 3x3 numpy algebra with LAPACK ``eigh``, scalar Jacobi
rotations on Python floats, and number formatting.
Each operation's wall time is multiplied by ``REF_NS / kernel time``, which
expresses it at a fixed reference speed: the speed at which one kernel pass
takes ``REF_NS``.  The raw wall-clock figures are reported next to the
scaled ones.
"""

import math
import time

import numpy as np

# One pass on a 2-core Intel Xeon (Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
# in its slower, more common phase.
REF_NS = 2.3e6
PASSES = 3

_MATS = np.random.default_rng(20140318).standard_normal((64, 3, 3))
_EYE = np.eye(3)
_ROWS = [tuple(float(x) for x in (m @ m.T + _EYE).ravel()) for m in _MATS]


def _rotate(app, apq, aqq):
    """One Jacobi rotation zeroing ``apq``: the new diagonal and (c, s)."""
    th = (aqq - app) / (2.0 * apq) if apq else 0.0
    t = math.copysign(1.0, th) / (abs(th) + math.sqrt(th * th + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return app - t * apq, aqq + t * apq, c, t * c


def _pass():
    t0 = time.perf_counter_ns()
    for m in _MATS:                       # numpy calls and LAPACK
        w, v = np.linalg.eigh(m @ m.T + _EYE)
        b = (v * np.log(w)) @ v.T
        f"{float(np.trace(b)):.12g} {float(b[0, 1]):.12g}"
    for a00, a01, a02, _, a11, a12, _, _, a22 in _ROWS:   # Python floats
        for _ in range(6):
            a00, a11, c, s = _rotate(a00, a01, a11)
            a01, a02, a12 = 0.0, c * a02 - s * a12, s * a02 + c * a12
            a11, a22, c, s = _rotate(a11, a12, a22)
            a12, a01, a02 = 0.0, c * a01 - s * a02, s * a01 + c * a02
        f"{math.log(abs(a00) + 1.0):.12g}"
    return time.perf_counter_ns() - t0


def kernel_ns(passes=PASSES):
    """Mean time of ``passes`` kernel passes, in nanoseconds."""
    return sum(_pass() for _ in range(passes)) / passes
