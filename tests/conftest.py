import math
import sys
from collections import Counter

import numpy as np
import pytest

# the LAPACK routines of the tensors boundary, each bound there as _<name>
LAPACK = ("eigh", "svd", "det", "inv", "solve")


def rel_err(a, b):
    """Frobenius distance relative to max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) / max(
        1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def rotation_from_normals(z):
    """The orthogonal factor of one 3x3 matrix of standard normals, its
    columns signed by the diagonal of R and its determinant fixed to +1:
    the rotation ``verify._draw`` makes of the same numbers, one matrix at
    a time."""
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def spd_from_draws(log_spectrum, z):
    """``Q.T @ diag(exp(log_spectrum)) @ Q`` for the rotation Q of the
    normals z, one matrix at a time."""
    q = rotation_from_normals(z)
    return q.T @ np.diag(np.exp(log_spectrum)) @ q


def patch_everywhere(monkeypatch, name, value):
    """Set ``name`` to ``value`` in every ``logstrain`` module that holds
    it: the private helpers are imported by name into the modules that use
    them."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("logstrain") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, value)


def counting(count, key, fn):
    """``fn`` wrapped to add one to ``count[key]`` per call."""
    def wrapper(*args, **kwargs):
        count[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class FactorizationCount(Counter):
    """Calls per routine, keyed by name, and in ``matrices`` the matrices
    those calls factorized, a (..., 3, 3) stack counting one per matrix,
    so that a budget cannot hide work inside one larger call.  ``clear``
    clears both."""

    def __init__(self):
        super().__init__()
        self.matrices = Counter()

    def clear(self):
        super().clear()
        self.matrices.clear()


def counting_matrices(count, key, fn):
    """``fn`` wrapped to add one to the FactorizationCount ``count[key]``
    and the number of matrices of its first argument to
    ``count.matrices[key]`` per call."""
    def wrapper(a, *args, **kwargs):
        count[key] += 1
        count.matrices[key] += math.prod(np.shape(a)[:-2])
        return fn(a, *args, **kwargs)
    return wrapper


def count_lapack(monkeypatch, names=LAPACK):
    """A FactorizationCount of the calls of the tensors boundary's routines
    ``names`` and of the matrices they factorized, keyed by name, filled
    while the test runs."""
    from logstrain import tensors
    count = FactorizationCount()
    for name in names:
        patch_everywhere(monkeypatch, f"_{name}", counting_matrices(
            count, name, getattr(tensors, f"_{name}")))
    return count
