"""Divergence witnesses, Young-type inequality, and the dual principle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy import entropy, system, varprin
from tentropy.claims import CertificateError
from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import (
    perturbed_invariant,
    random_functional,
    random_invariant,
    random_null_charging,
    random_potential,
    random_simplex_functional,
    random_system,
)
from tentropy.spectral import log_spectral_radius, log_spectral_radius_batch
from tentropy.system import (
    FULL,
    Functional,
    effective_weights,
    functional,
    make_system,
    pair,
    preimage_mass,
)
from tentropy.varprin import (
    NEGATIVITY,
    NON_INVARIANCE,
    NORMALIZATION,
    NULL_CHARGE,
    NoDefectError,
    divergence_witness,
    divergence_witnesses,
    null_charge_divergence,
    subgradient,
    variational_principle,
    young_check,
    young_checks,
)

from oracles import full_width_subgradient


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


def test_essential_weights_on_null_atoms_charge_nothing():
    """An ESSENTIAL functional built directly with weight on a null atom sees
    only its effective weights: no null-charge witness, tau 0 and a finite
    Young slack, where the FULL functional with the same weights diverges."""
    s = null_pair()
    weights = np.array([1.0, 0.5])
    mu = Functional(weights)
    with pytest.raises(NoDefectError):
        divergence_witness(s, mu)
    assert entropy.tau_dual(s, mu).value == 0.0
    assert young_check(s, np.array([0.3, 2.0]), mu).slack == 0.0
    assert divergence_witness(s, Functional(weights, FULL)).defect == NULL_CHARGE


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


def reference_divergence_witness(system, mu):
    """The defect search of ``divergence_witness`` as it was for one
    functional: (defect, atom, rate, direction), or None without a defect."""
    w = effective_weights(system, mu)
    nulls = np.flatnonzero(~system.support)
    if mu.mode == FULL and nulls.size and np.any(np.abs(mu.weights[nulls]) > 1e-12):
        at = int(nulls[np.argmax(np.abs(mu.weights[nulls]))])
        charge = float(mu.weights[at])
        direction = np.zeros(system.n)
        direction[at] = np.sign(charge)
        return NULL_CHARGE, at, abs(charge), direction
    if float(w.min()) < -1e-12:
        at = int(np.argmin(w))
        direction = np.zeros(system.n)
        direction[at] = -1.0
        return NEGATIVITY, at, float(-w[at]), direction
    total = float(w.sum())
    if abs(1.0 - total) > 1e-12:
        direction = -np.sign(1.0 - total) * np.ones(system.n)
        return NORMALIZATION, None, abs(1.0 - total), direction
    v = preimage_mass(system, w) - w
    if np.any(np.abs(v) > 1e-12):
        at = int(np.lexsort((-v, -np.abs(v)))[0])
        direction = np.zeros(system.n)
        direction[system.alpha == at] += 1.0
        direction[at] -= 1.0
        direction *= np.sign(v[at])
        return NON_INVARIANCE, at, abs(v[at]), direction
    return None


def test_divergence_witnesses_rows_match_single_calls(system_pool, large_pool):
    """Each row of a stack gets the defect, atom, rate and direction bits of
    the one-functional search and of ``divergence_witness``, for every
    defect and for rows without one."""
    gen = np.random.default_rng(83)
    seen = set()
    for s in system_pool + large_pool + [null_pair(), cycle3()]:
        mus = []
        for _ in range(3):
            mus += [
                random_invariant(gen, s),
                random_functional(gen, s),
                functional(s, 1.5 * random_invariant(gen, s).weights),
                random_simplex_functional(gen, s),
                perturbed_invariant(gen, s),
            ]
            if not s.support.all():
                mus.append(random_null_charging(gen, s))
        weights = np.array([effective_weights(s, mu) for mu in mus])
        for mu, got in zip(mus, divergence_witnesses(s, weights)):
            want = reference_divergence_witness(s, mu)
            seen.add(None if want is None else want[0])
            if want is None:
                assert got is None
                with pytest.raises(NoDefectError):
                    divergence_witness(s, mu)
                continue
            for witness in (got, divergence_witness(s, mu)):
                defect, atom, rate, direction = want
                assert (witness.defect, witness.atom) == (defect, atom)
                assert type(witness.rate) is float and witness.rate == rate
                assert witness.direction.tobytes() == direction.tobytes()
    assert seen == {None, NULL_CHARGE, NEGATIVITY, NORMALIZATION, NON_INVARIANCE}


def test_divergence_witnesses_raise_for_the_first_failing_ray(monkeypatch):
    """A ray that fails its decay raises the CertificateError of the call on
    that row alone."""
    s = cycle3()
    weights = np.array([[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    assert [w is None for w in divergence_witnesses(s, weights)] == [
        True, False, False,
    ]
    # a lambda 5 above the truth breaks the decay of every ray at t = 1
    batch = varprin.log_spectral_radius_batch
    monkeypatch.setattr(
        varprin, "log_spectral_radius_batch", lambda system, d: batch(system, d) + 5.0
    )
    with pytest.raises(CertificateError) as stacked:
        divergence_witnesses(s, weights)
    with pytest.raises(CertificateError) as single:
        divergence_witness(s, functional(s, weights[1]))
    assert "at t=1.0:" in str(single.value)
    assert str(stacked.value) == str(single.value)


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


def test_young_checks_rows_match_young_check(system_pool, large_pool):
    """Each draw of a stack gets the slack and the flag of its own
    ``young_check``: tight draws, and the +inf slack of a FULL functional
    charging a null cycle, included."""
    gen = np.random.default_rng(59)
    charged = 0
    # a supported 2-cycle beside a null 3-cycle
    null_cycle = make_system([1.0, 1.0, 0.0, 0.0, 0.0], [1, 0, 3, 4, 2])
    for s in system_pool + large_pool + [null_pair(), null_cycle]:
        draws = [(random_potential(gen, s, 3.0), random_invariant(gen, s)) for _ in range(6)]
        draws.append((np.zeros(s.n), random_invariant(gen, s)))
        dec = s.decomposition
        nulls = [c for c, ok in zip(dec.cycles, dec.supported) if not ok]
        if nulls:
            w = 0.5 * random_invariant(gen, s).weights
            w[list(nulls[0])] += 0.5 / len(nulls[0])
            draws.append((random_potential(gen, s, 3.0), functional(s, w, mode=FULL)))
        phis = np.array([phi for phi, _ in draws])
        weights = np.array([effective_weights(s, mu) for _, mu in draws])
        slacks = young_checks(s, phis, weights)
        assert slacks.shape == (len(draws),)
        for (phi, mu), slack in zip(draws, slacks.tolist()):
            single = young_check(s, phi, mu)
            assert (slack, slack <= 1e-9) == (single.slack, single.tight)
        assert slacks[6] <= 1e-9
        if nulls:
            assert slacks[-1] == np.inf
            charged += 1
    assert charged == 2


def test_young_checks_certify_null_charges_without_tau_dual(monkeypatch):
    """An invariant FULL row charging a null cycle gets slack +inf from the
    stacked divergence witnesses, with no ``tau_dual`` call."""
    calls = []
    original = entropy.tau_dual

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(entropy, "tau_dual", counted)
    # a supported 2-cycle beside a null 3-cycle
    s = make_system([1.0, 1.0, 0.0, 0.0, 0.0], [1, 0, 3, 4, 2])
    weights = np.array([[0.5, 0.5, 0.0, 0.0, 0.0], [0.25, 0.25, 1 / 6, 1 / 6, 1 / 6]])
    phis = np.array([[1.0, 0.0, 5.0, 5.0, 5.0], [0.0, 2.0, -1.0, 0.0, 1.0]])
    slacks = young_checks(s, phis, weights)
    assert slacks.tolist() == [0.0, np.inf]
    assert calls == []


def test_variational_principle_stack_rows_match_single_calls(system_pool, large_pool):
    """A stack of potentials gives each row the lambda, gap, maximizer and
    face of its own call; rows with the same maximizer share one vertex."""
    gen = np.random.default_rng(61)
    for s in system_pool + large_pool:
        phis = gen.uniform(-3.0, 3.0, size=(8, s.n))
        phis[1] = 0.0
        cert = variational_principle(s, phis)
        assert cert.gap.shape == (8,) and len(cert.face) == 8
        for r, phi in enumerate(phis):
            single = variational_principle(s, phi)
            assert cert.lambda_value[r] == single.lambda_value
            assert cert.gap[r] == single.gap
            assert np.array_equal(cert.maximizer[r].weights, single.maximizer.weights)
            assert [v.weights.tolist() for v in cert.face[r]] == [
                v.weights.tolist() for v in single.face
            ]
            assert cert.maximizer[r] is cert.face[r][0]
        shared = {}
        for vertex in cert.maximizer:
            assert shared.setdefault(vertex.weights.tobytes(), vertex) is vertex
        # the zero potential ties every cycle
        assert len(cert.face[1]) == len(s.supported_cycle_arrays)


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


def test_subgradient_residual_is_the_attainment_identity(monkeypatch, system_pool):
    """The residual is |tau(mu) - (lambda(phi) - mu[phi])| at the maximizer,
    bit for bit, from the one tau_dual call of the variational principle."""
    calls = []
    tau_dual = entropy.tau_dual

    def counting_tau_dual(system, mu, cross_check=True):
        calls.append(mu)
        return tau_dual(system, mu, cross_check=cross_check)

    gen = np.random.default_rng(73)
    for s in [twocyc()] + system_pool:
        for _ in range(5):
            phi = random_potential(gen, s)
            monkeypatch.setattr(entropy, "tau_dual", counting_tau_dual)
            calls.clear()
            r = subgradient(s, phi, draws=20, seed=1)
            assert len(calls) == 1
            monkeypatch.undo()
            tau = tau_dual(s, r.measure, cross_check=False).value
            want = abs(tau - (log_spectral_radius(s, phi) - pair(s, r.measure, phi)))
            assert r.tau_identity_residual == want


@pytest.mark.parametrize("bad", [True, 2.0, -3])
def test_subgradient_draws_must_be_a_count(bad):
    """A bool, a float or a negative draw count raises ``ValueError``."""
    with pytest.raises(ValueError, match="draws"):
        subgradient(cycle3(), np.zeros(3), draws=bad)


@pytest.mark.parametrize("bad", [True, -1, 2**64, 1.0, "3"])
def test_subgradient_seed_must_be_a_64_bit_integer(bad):
    """A bool, a negative or 65-bit integer, a float or a string seed raises
    ``ValueError``, the rule of ``CertifyConfig`` and the CLI."""
    with pytest.raises(ValueError, match="seed"):
        subgradient(cycle3(), np.zeros(3), seed=bad)


def test_chunked_subgradient_keeps_the_bits_of_one_sweep(monkeypatch, chunk_systems):
    """Draws swept in 8-row chunks give ``worst_violation`` the bits of one
    sweep over all of them, for draw counts around and well above a chunk.
    Every product is at most 100 x 60: with 2 BLAS threads, 100 x N
    products from N = 6000 on gave other bits than their own 8-row chunks
    in a few rows, and with one thread none did."""
    gen = np.random.default_rng(818)
    cases = [
        (s, random_potential(gen, s), draws, int(gen.integers(2**32)))
        for s in chunk_systems
        for draws in (0, 1, 7, 8, 9, 100)
    ]
    assert max(s.n * draws for s, _, draws, _ in cases) == 6000
    assert all(
        system._chunk_rows(2 * s.cycle_atom_index[0].size) >= 100 for s, *_ in cases
    )
    want = [subgradient(s, phi, draws=d, seed=seed) for s, phi, d, seed in cases]
    monkeypatch.setattr(system, "_CHUNK_ENTRIES", 1)
    sizes = []
    means = varprin._listed_means

    def sized_means(s, psis):
        sizes.append(len(psis))
        return means(s, psis)

    monkeypatch.setattr(varprin, "_listed_means", sized_means)
    for (s, phi, draws, seed), unchunked in zip(cases, want):
        sizes.clear()
        got = subgradient(s, phi, draws=draws, seed=seed)
        assert sizes == [8] * (draws // 8) + [draws % 8] * (draws % 8 > 0)
        assert got.worst_violation.hex() == unchunked.worst_violation.hex()
        assert got.draws == draws
    assert want[0].worst_violation == -np.inf


def test_subgradient_on_cycle_atoms_keeps_the_bits_of_the_full_width_sweep(
    chunk_systems,
):
    """Where every atom lies on a supported cycle, the draws on the cycle
    atoms are the full-width draws, since ``cycle_atom_index[0]`` lists
    them in increasing order: ``worst_violation`` has the bits of the
    sweep that drew one normal per atom, for draw counts below, at and
    above a chunk, on fixtures and on random permutations."""
    gen = np.random.default_rng(2829)
    systems = [twocyc(), cycle3(), *chunk_systems[:2]]
    systems += [
        make_system(gen.uniform(0.5, 2.0, n), gen.permutation(n)) for n in (1, 2, 5, 13, 40)
    ]
    for s in systems:
        assert s.cycle_atom_index[0].size == s.n
        for draws in (0, 1, 9, 100, 700):
            phi = random_potential(gen, s)
            seed = int(gen.integers(2**32))
            got = subgradient(s, phi, draws=draws, seed=seed).worst_violation
            want = full_width_subgradient(s, phi, draws, seed)
            assert got.hex() == want.hex(), (s.n, draws)


def test_listed_means_give_the_bits_of_the_full_width_lambdas(
    chunk_systems, system_pool, large_pool
):
    """On systems with tails and null atoms, the largest of
    ``_listed_means`` on the columns of ``cycle_atom_index[0]`` is
    ``log_spectral_radius_batch`` of the full-width rows, bit for bit, for
    one row and for stacks whose cycles are long enough to be summed
    pairwise."""
    gen = np.random.default_rng(2831)
    systems = [tail(), null_pair(), *chunk_systems, *system_pool, *large_pool]
    assert sum(s.cycle_atom_index[0].size < s.n for s in systems) >= 10
    assert any(places.shape[1] >= 8 for s in systems for _, places in s.cycle_places)
    for s in systems:
        listing = s.cycle_atom_index[0]
        for rows in (1, 9):
            psis = gen.normal(0.0, 2.0, size=(rows, s.n))
            got = system._listed_means(s, psis[:, listing]).max(axis=1)
            want = log_spectral_radius_batch(s, psis)
            assert got.tobytes() == want.tobytes(), s.n


def test_subgradient_reads_no_value_off_the_supported_cycles(
    chunk_systems, system_pool, large_pool
):
    """On systems with tails and null atoms, the cycle-atom draws scattered
    into a background of +-1e6 on every other atom give the full-width
    sweep the same ``worst_violation`` within 1e-15: no value off the
    supported cycles is read."""
    gen = np.random.default_rng(2830)

    def background(rows, n):
        return gen.choice([-1e6, 1e6], size=(rows, n))

    systems = [tail(), null_pair(), chunk_systems[2], *system_pool, *large_pool]
    systems = [s for s in systems if s.cycle_atom_index[0].size < s.n]
    assert len(systems) >= 10
    for s in systems:
        for draws in (1, 100):
            phi = random_potential(gen, s)
            seed = int(gen.integers(2**32))
            got = subgradient(s, phi, draws=draws, seed=seed).worst_violation
            want = full_width_subgradient(
                s, phi, draws, seed, background=lambda rows: background(rows, s.n)
            )
            assert abs(got - want) <= 1e-15, (s.n, draws, got, want)


def test_subgradient_rejects_a_maximizer_off_the_supported_cycles(monkeypatch):
    """A maximizer charging a tail atom fails the exact count of the
    supported-cycle check, with ``CertificateError``."""
    s = tail()
    subgradient(s, np.zeros(3), draws=5)
    principle = varprin.variational_principle

    def off_cycle(system, phi):
        off = Functional(np.array([0.5, 0.5, 0.0]))
        return dataclasses.replace(principle(system, phi), maximizer=off)

    monkeypatch.setattr(varprin, "variational_principle", off_cycle)
    with pytest.raises(CertificateError, match="off the supported cycles"):
        subgradient(s, np.zeros(3), draws=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_potentials_reject_nan_and_plus_inf(bad):
    """NaN and +inf at one atom raise ``ValueError`` in
    ``variational_principle`` (on a single potential and in a stack) and in
    ``subgradient``."""
    s = twocyc()
    phi = np.array([bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="potential"):
        variational_principle(s, phi)
    with pytest.raises(ValueError, match="potential"):
        variational_principle(s, np.stack([np.zeros(4), phi]))
    with pytest.raises(ValueError, match="potential"):
        subgradient(s, phi, draws=3)


def test_subgradient_fails_a_nan_claim():
    """-inf is a valid potential value, but a maximizer's pairing with it
    is 0 * -inf = NaN, and a NaN residual or violation fails the claim."""
    s = twocyc()
    phi = np.array([-np.inf, 0.0, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        assert math.isnan(variational_principle(s, phi).gap)
        with pytest.raises(CertificateError, match="NaN"):
            subgradient(s, phi, draws=3)


def test_subgradient_fails_a_nan_move_in_a_later_chunk(monkeypatch):
    """A NaN gain of one move, in a chunk that is not the first, fails the
    claim: the chunks' maxima are reduced with numpy, which keeps it."""
    s = twocyc()
    means = varprin._listed_means
    sizes = []

    def planted(on, psis):
        out = means(on, psis)
        sizes.append(len(out))
        if len(sizes) == 2:
            out[3] = np.nan
        return out

    monkeypatch.setattr(varprin, "_listed_means", planted)
    monkeypatch.setattr(system, "_CHUNK_ENTRIES", 1)
    with pytest.raises(CertificateError, match="NaN"):
        subgradient(s, np.array([0.3, 0.1, -0.2, 0.4]), draws=20)
    assert sizes == [8, 8, 4]


def test_subgradient_sweep_holds_one_chunk_of_draws(traced_peak):
    """At N = 10^4 a sweep of 100 draws stays under 2 MB traced; holding
    every draw and its move at once took 16.2 MB on this map."""
    gen = np.random.default_rng(4242)
    n = 10_000
    s = make_system(gen.uniform(0.5, 2.0, n), gen.integers(0, n, size=n))
    phi = gen.uniform(-2.0, 2.0, n)
    res, peak = traced_peak(lambda: subgradient(s, phi, draws=100, seed=3))
    assert res.worst_violation <= 1e-9
    assert peak < 2_000_000


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
