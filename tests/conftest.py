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


def count_lapack(monkeypatch, names=LAPACK):
    """A Counter of the calls of the tensors boundary's routines
    ``names``, keyed by name, filled while the test runs."""
    from logstrain import tensors
    count = Counter()
    for name in names:
        patch_everywhere(monkeypatch, f"_{name}",
                         counting(count, name, getattr(tensors, f"_{name}")))
    return count
