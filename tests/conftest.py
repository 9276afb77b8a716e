import numpy as np
import pytest


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
