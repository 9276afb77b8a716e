"""Stress-measure conversions."""

import itertools
import warnings

import numpy as np
import pytest

from logstrain.constitutive import (becker_biot, becker_cauchy,
                                    becker_kirchhoff, becker_pk1,
                                    becker_pk2, hencky_kirchhoff)
from logstrain.errors import LogstrainError, NonInvertible
from logstrain.kinematics import polar_decompose, pure_shear_F
from logstrain.moduli import Moduli
from logstrain.stresses import MEASURES, StressState, stress_convert
from logstrain.tensors import sym_part
from logstrain.verify import random_rotation, random_spd

from conftest import rel_err

M = Moduli.from_g_lam(1.0, 0.5)


def test_biot_shear_to_cauchy():
    # pure shear load diag(s, -s, 0) at F = diag(alpha, 1/alpha, 1)
    alpha, s = 2.0, 0.7
    f = pure_shear_F(alpha)
    state = StressState(np.diag([s, -s, 0.0]), "biot", f)
    sigma = stress_convert(state, "cauchy").tensor
    np.testing.assert_allclose(sigma,
                               np.diag([alpha * s, -s / alpha, 0.0]),
                               atol=1e-14)


def test_identity_deformation_all_measures_agree(rng):
    t = random_spd(rng)
    state = StressState(t, "biot", np.eye(3))
    for target in MEASURES:
        out = stress_convert(state, target).tensor
        assert rel_err(out, t) < 1e-13


def test_round_trips_all_pairs(rng):
    for _ in range(30):
        f = random_rotation(rng) @ random_spd(rng, 0.3, 3.0)
        t = random_spd(rng)
        for src, dst in itertools.product(MEASURES, MEASURES):
            state = StressState(t, src, f)
            back = stress_convert(stress_convert(state, dst), src).tensor
            assert rel_err(back, t) < 1e-11


def test_measure_relations(rng):
    # kirchhoff = J sigma, pk1 = J sigma F^-T, pk2 = J F^-1 sigma F^-T,
    # biot = U pk2 = R.T pk1
    f = random_rotation(rng) @ random_spd(rng, 0.5, 2.0)
    j = np.linalg.det(f)
    sigma = random_spd(rng)
    state = StressState(sigma, "cauchy", f)
    tau = stress_convert(state, "kirchhoff").tensor
    pk1 = stress_convert(state, "pk1").tensor
    pk2 = stress_convert(state, "pk2").tensor
    biot = stress_convert(state, "biot").tensor
    fi = np.linalg.inv(f)
    assert rel_err(tau, j * sigma) < 1e-12
    assert rel_err(pk1, j * sigma @ fi.T) < 1e-12
    assert rel_err(pk2, j * fi @ sigma @ fi.T) < 1e-12
    pf = polar_decompose(f)
    assert rel_err(biot, pf.u @ pk2) < 1e-12
    assert rel_err(biot, pf.r.T @ pk1) < 1e-12


def _mp_biot_cauchy_pair(mpmath, f, t, sigma):
    """At 40 digits: the Cauchy stress of the Biot stress t, ``R T F.T /
    J``, and the Biot stress of the Cauchy stress sigma, ``R.T J sigma
    F^-T``, with ``R = F V diag(1/s) V.T`` from ``mpmath.eigsy`` of F.T F."""
    with mpmath.workdps(40):
        fm = mpmath.matrix(f.tolist())
        c2, v = mpmath.eigsy(fm.T * fm)
        r = fm * v * mpmath.diag([1 / mpmath.sqrt(c2[i]) for i in range(3)]) \
            * v.T
        j = mpmath.det(fm)
        to_cauchy = r * mpmath.matrix(t.tolist()) * fm.T / j
        to_biot = r.T * (j * mpmath.matrix(sigma.tolist())
                         * (fm ** -1).T)
        return tuple(np.array([[float(x[i, k]) for k in range(3)]
                               for i in range(3)])
                     for x in (to_cauchy, to_biot))


def test_biot_cauchy_against_mpmath_polar_factors(rng):
    # 400 gradients with log-stretches uniform in [-3, 3]: the worst error
    # measured 7.3e-15 (to Cauchy) and 8.2e-15 (to Biot) with R alone,
    # 2.1e-13 and 1.0e-13 through U and a linear solve
    mpmath = pytest.importorskip("mpmath")
    worst = {"cauchy": 0.0, "biot": 0.0}
    for _ in range(400):
        f = (random_rotation(rng) @ np.diag(np.exp(rng.uniform(-3, 3, 3)))
             @ random_rotation(rng))
        t, sigma = (sym_part(rng.uniform(-1.0, 1.0, (3, 3)))
                    for _ in range(2))
        refs = _mp_biot_cauchy_pair(mpmath, f, t, sigma)
        got = (stress_convert(StressState(t, "biot", f), "cauchy"),
               stress_convert(StressState(sigma, "cauchy", f), "biot"))
        for out, ref in zip(got, refs):
            worst[out.measure] = max(worst[out.measure],
                                     rel_err(out.tensor, ref))
    assert max(worst.values()) <= 2e-14, worst


def test_rejects_noninvertible_deformation():
    state = StressState(np.eye(3), "cauchy", np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(NonInvertible):
        stress_convert(state, "biot")


def test_conversion_that_overflows_raises_and_names_the_target():
    # det F = 1, but F^-1 sigma F^-T reaches 1e310
    state = StressState(1e300 * np.eye(3), "cauchy",
                        np.diag([1e-5, 1e-5, 1e10]))
    # here sigma F^-T reaches 1e310
    squeezed = StressState(1e300 * np.eye(3), "cauchy",
                           np.diag([1e5, 1e5, 1e-10]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, target in ((state, "pk2"), (squeezed, "pk1"),
                          (squeezed, "biot")):
            with pytest.raises(LogstrainError) as info:
                stress_convert(s, target)
            assert str(info.value) \
                == f"stress_convert: {target} stress is not finite"
        # the products that stay in range still convert: the Biot stress
        # R.T @ pk1 does not go through the overflowing pk2
        assert stress_convert(state, "kirchhoff").tensor[0, 0] == 1e300
        for target in ("pk1", "biot"):
            assert stress_convert(state, target).tensor[0, 0] \
                == pytest.approx(1e305, rel=1e-15, abs=0)


def test_result_shares_no_array_with_its_input(rng):
    f = random_rotation(rng) @ random_spd(rng, 0.5, 2.0)
    state = StressState(random_spd(rng), "cauchy", f)
    for target in MEASURES:
        out = stress_convert(state, target)
        assert out.measure == target
        for a in (out.tensor, out.deformation):
            for b in (state.tensor, state.deformation):
                assert not np.shares_memory(a, b)
        assert out.deformation.tobytes() == state.deformation.tobytes()
        assert isinstance(out, StressState)


def test_rejects_unknown_measure():
    with pytest.raises(ValueError):
        StressState(np.eye(3), "nominal", np.eye(3))


# ---------------------------------------------------------------------------
# consistency of the law-specific measure formulas with generic conversion

def test_becker_measures_mutually_consistent(rng):
    for _ in range(50):
        q = random_rotation(rng)
        u = random_spd(rng, 0.3, 3.0)
        f = q @ u
        pf = polar_decompose(f)
        t_biot = becker_biot(pf.u, M)
        state = StressState(t_biot, "biot", f)
        assert rel_err(stress_convert(state, "kirchhoff").tensor,
                       becker_kirchhoff(pf.v, M)) < 1e-11
        assert rel_err(stress_convert(state, "cauchy").tensor,
                       becker_cauchy(pf.v, M)) < 1e-11
        assert rel_err(stress_convert(state, "pk2").tensor,
                       becker_pk2(pf.u, M)) < 1e-11
        assert rel_err(stress_convert(state, "pk1").tensor,
                       becker_pk1(f, M)) < 1e-11


def test_becker_kirchhoff_is_v_times_hencky(rng):
    # tau_B = V tau_H, and |tau_B - tau_H| <= |V - I| |tau_H|
    for _ in range(200):
        v = random_spd(rng)
        tau_h = hencky_kirchhoff(v, M)
        tau_b = becker_kirchhoff(v, M)
        assert rel_err(tau_b, v @ tau_h) < 1e-10
        lhs = np.linalg.norm(tau_b - tau_h)
        rhs = np.linalg.norm(v - np.eye(3)) * np.linalg.norm(tau_h)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-14
