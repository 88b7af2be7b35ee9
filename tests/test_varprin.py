"""Divergence witnesses, Young-type inequality, and the dual principle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy.fixtures import cycle3, null_pair, twocyc
from tentropy.sampling import (
    random_invariant,
    random_null_charging,
    random_potential,
    random_system,
)
from tentropy.spectral import log_spectral_radius
from tentropy.system import FULL, functional, pair
from tentropy.varprin import (
    NEGATIVITY,
    NON_INVARIANCE,
    NORMALIZATION,
    NULL_CHARGE,
    NoDefectError,
    divergence_witness,
    null_charge_divergence,
    subgradient,
    variational_principle,
    young_check,
)


def ray_decays(system, mu, witness, ts=(1.0, 10.0, 100.0, 1000.0)):
    """Re-verify the decay of the witness ray without the library check."""
    for t in ts:
        d = t * witness.direction
        h = log_spectral_radius(system, d) - pair(system, mu, d)
        if h > -witness.rate * t + 1e-9:
            return False
    return True


def test_witness_negativity_frozen():
    s = cycle3()
    mu = functional(s, np.array([2 / 3, 2 / 3, -1 / 3]))
    w = divergence_witness(s, mu)
    assert w.defect == NEGATIVITY
    assert w.atom == 2
    assert w.rate == pytest.approx(1 / 3)
    assert np.allclose(w.direction, [0, 0, -1], atol=0)
    assert ray_decays(s, mu, w)


def test_witness_non_invariance_frozen(large_pool):
    s = cycle3()
    mu = functional(s, np.array([1.0, 0.0, 0.0]))
    w = divergence_witness(s, mu)
    assert w.defect == NON_INVARIANCE
    assert w.atom == 1
    assert w.rate == pytest.approx(1.0)
    assert np.allclose(w.direction, [1.0, -1.0, 0.0], atol=0)
    assert ray_decays(s, mu, w)
    gen = np.random.default_rng(3)
    for s in large_pool:
        weights = np.zeros(s.n)
        weights[s.supported_indices] = gen.dirichlet(np.ones(s.supported_indices.size))
        mu = functional(s, weights)
        # per-atom oracle: defect mu(preimage of y) - mu(y) and its ray
        v = np.array([weights[s.alpha == y].sum() - weights[y] for y in range(s.n)])
        at = max(range(s.n), key=lambda y: (abs(v[y]), v[y], -y))
        ray = np.array([float(s.alpha[x] == at) for x in range(s.n)])
        ray[at] -= 1.0
        w = divergence_witness(s, mu)
        assert w.defect == NON_INVARIANCE
        assert w.atom == at
        assert w.rate == pytest.approx(abs(v[at]), rel=1e-12)
        assert np.array_equal(w.direction, np.sign(v[at]) * ray)
        assert ray_decays(s, mu, w)


def test_witness_normalization_frozen():
    s = cycle3()
    mu = functional(s, np.full(3, 2 / 3))  # invariant shape, total mass 2
    w = divergence_witness(s, mu)
    assert w.defect == NORMALIZATION
    assert w.rate == pytest.approx(1.0)
    assert np.allclose(w.direction, [1.0, 1.0, 1.0], atol=0)
    assert ray_decays(s, mu, w)


def test_witness_null_charge_frozen():
    s = null_pair()
    mu = functional(s, np.array([0.0, 1.0]), mode=FULL)
    w = divergence_witness(s, mu)
    assert w.defect == NULL_CHARGE
    assert w.atom == 1
    assert w.rate == pytest.approx(1.0)
    assert ray_decays(s, mu, w)


def test_witness_priority_null_charge_first():
    """A functional that is both negative somewhere and charging a null
    atom reports the null charge: it is checked first."""
    s = null_pair()
    mu = functional(s, np.array([1.5, -0.5]), mode=FULL)
    w = divergence_witness(s, mu)
    assert w.defect == NULL_CHARGE


def test_witness_priority_negativity_before_normalization():
    s = cycle3()
    mu = functional(s, np.array([1.0, 1.0, -0.5]))  # negative and total 1.5
    w = divergence_witness(s, mu)
    assert w.defect == NEGATIVITY


def test_no_defect_raises():
    s = twocyc()
    mu = functional(s, np.array([0.25, 0.25, 0.25, 0.25]))
    with pytest.raises(NoDefectError):
        divergence_witness(s, mu)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_witness_rays_always_decay(seed):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = functional(s, gen.normal(0.4, 0.6, size=s.n))
    try:
        w = divergence_witness(s, mu)
    except NoDefectError:
        return
    assert ray_decays(s, mu, w), f"ray for {w.defect} fails to decay"


def test_young_frozen_example():
    s = twocyc()
    phi = np.array([1.0, 1.0, 0.0, 0.0])
    # measure on the other cycle: lambda = 1 but mu[phi] = 0, slack 1
    mu = functional(s, np.array([0.0, 0.0, 0.5, 0.5]))
    r = young_check(s, phi, mu)
    assert r.slack == pytest.approx(1.0, abs=1e-12)
    assert not r.tight
    # measure on the maximizing cycle is tight
    r2 = young_check(s, phi, functional(s, np.array([0.5, 0.5, 0.0, 0.0])))
    assert r2.slack == pytest.approx(0.0, abs=1e-12)
    assert r2.tight


def test_young_rejects_non_invariant():
    s = cycle3()
    with pytest.raises(ValueError):
        young_check(s, np.zeros(3), functional(s, np.array([1.0, 0.0, 0.0])))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_young_slack_nonnegative(seed):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = random_invariant(gen, s)
    phi = random_potential(gen, s)
    r = young_check(s, phi, mu)
    assert r.slack >= -1e-9


def test_variational_principle_frozen_example():
    s = twocyc()
    cert = variational_principle(s, np.array([1.0, 1.0, 0.0, 0.0]))
    assert cert.lambda_value == pytest.approx(1.0)
    assert np.allclose(cert.maximizer.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert len(cert.face) == 1
    assert abs(cert.gap) <= 1e-9


def test_variational_principle_tie_face():
    s = twocyc()
    cert = variational_principle(s, np.zeros(4))
    assert len(cert.face) == 2
    assert np.allclose(cert.maximizer.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_variational_principle_gap_vanishes(seed):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = random_potential(gen, s)
    cert = variational_principle(s, phi)
    assert abs(cert.gap) <= 1e-9
    # the attained value is a lower bound from any other vertex too
    for v in cert.face:
        assert pair(s, v, phi) == pytest.approx(
            pair(s, cert.maximizer, phi), abs=1e-12
        )


def test_subgradient_verification_and_determinism():
    s = cycle3()
    phi = np.array([math.log(2.0), 0.0, 0.0])
    r1 = subgradient(s, phi, draws=500, seed=11)
    r2 = subgradient(s, phi, draws=500, seed=11)
    assert r1.worst_violation <= 1e-9
    assert r1.tau_identity_residual <= 1e-9
    assert r1.worst_violation == r2.worst_violation
    assert np.array_equal(r1.measure.weights, r2.measure.weights)


def test_null_charge_divergence_report():
    s = null_pair()
    mu = functional(s, np.array([0.25, 0.75]), mode=FULL)
    rep = null_charge_divergence(s, mu)
    assert rep.tau_value == -np.inf
    assert rep.inf_value == -np.inf
    assert rep.ray.defect == NULL_CHARGE
    assert rep.partition.size == 2
    # the splitting member is the indicator of the charged null set
    assert np.allclose(rep.partition.members[0], [0.0, 1.0], atol=0)
    assert rep.partition_solution.value == -np.inf


def test_null_charge_divergence_preconditions():
    s = null_pair()
    with pytest.raises(ValueError):
        null_charge_divergence(s, functional(s, np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        null_charge_divergence(s, functional(s, np.array([1.0, 0.0]), mode=FULL))
    with pytest.raises(ValueError):
        null_charge_divergence(
            cycle3(), functional(cycle3(), np.full(3, 1 / 3), mode=FULL)
        )
    with pytest.raises(ValueError):
        null_charge_divergence(s, functional(s, np.array([1.0, 1.0]), mode=FULL))


def test_random_null_charging_always_diverges():
    gen = np.random.default_rng(61)
    s = null_pair()
    for _ in range(25):
        mu = random_null_charging(gen, s)
        rep = null_charge_divergence(s, mu)
        assert rep.tau_value == -np.inf
