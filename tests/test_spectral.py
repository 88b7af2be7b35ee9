"""Weighted shift norms, spectral potentials and their calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy.claims import ROUNDOFF_TOL, CertificateError
from tentropy.entropy import hull_means, tau_direct
from tentropy.entstat import growth_constant, verify_estimate
from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import random_potential, random_system
from tentropy.spectral import (
    L1Vector,
    apply,
    iterate,
    l1_norm,
    l1_vector,
    log_spectral_radius,
    log_spectral_radius_batch,
    norm_log_sequence,
    op_norm,
    op_norm_log,
    power_gap,
    property_residuals,
    spectral_potential,
)
from tentropy.spectral import _norm_log, _norm_logs
from tentropy.system import (
    _WALK_HORIZON,
    _transport,
    alpha_power,
    birkhoff,
    cycle_means,
    functional,
    log_preimage_mass,
    make_system,
    orbit_sums,
)

from oracles import norm_log_all_terms, op_norm_log_pow, power_system, reference_power_rate

LN2 = math.log(2.0)


def brute_norm_log(system, phi, n):
    """Oracle: sup over normalized atom indicators, by n raw applications.

    Uses nothing from the norm code path: the operator action is replayed
    as f -> exp(phi) * (f o alpha) one step at a time.
    """
    best = 0.0
    weights = np.exp(phi)
    for y in np.flatnonzero(system.support):
        f = np.zeros(system.n)
        f[y] = 1.0 / system.m[y]
        for _ in range(n):
            f = weights * f[system.alpha]
        best = max(best, float((np.abs(f) * system.m).sum()))
    return math.log(best) if best > 0 else -math.inf


def test_l1_vector_zeroes_null_atoms():
    s = null_pair()
    v = l1_vector(s, [3.0, 5.0])
    assert v.values[1] == 0.0
    assert l1_norm(s, v) == pytest.approx(3.0)


def test_apply_frozen_examples():
    got = apply(cycle3(), np.zeros(3), l1_vector(cycle3(), [1.0, 2.0, 3.0]))
    assert np.allclose(got.values, [2.0, 3.0, 1.0], atol=0)
    s = tail()
    got = apply(s, np.array([LN2, 0.0, 0.0]), l1_vector(s, [1.0, 0.0, 0.0]))
    assert np.allclose(got.values, [2.0, 1.0, 0.0], atol=1e-15)


def test_a_huge_potential_on_a_null_atom_is_ignored():
    """e^800 overflows, but on a null atom it multiplies nothing: ``apply``
    and ``iterate`` (its walk and its closed form) zero it without a
    warning, which the test settings turn into an error."""
    s = null_pair()
    phi = np.array([0.0, 800.0])
    f = l1_vector(s, [3.0, 5.0])
    assert apply(s, phi, f).values.tolist() == [3.0, 0.0]
    for n in (1, 3):
        assert iterate(s, phi, f, n).values.tolist() == [3.0, 0.0]


def test_iterate_frozen_examples():
    s = tail()
    out = iterate(s, np.zeros(3), l1_vector(s, [1.0, 0.0, 0.0]), 3)
    assert np.allclose(out.values, [1.0, 1.0, 1.0], atol=0)
    phi = np.array([0.3, -0.7, 1.1])
    out = iterate(cycle3(), phi, l1_vector(cycle3(), np.ones(3)), 3)
    assert np.allclose(out.values, math.exp(phi.sum()) * np.ones(3), atol=1e-12)


def test_iterate_matches_repeated_apply(system_pool, potential_pool):
    gen = np.random.default_rng(3)
    for s, phi in zip(system_pool, potential_pool):
        f = l1_vector(s, gen.normal(size=s.n))
        g = f
        for _ in range(4):
            g = apply(s, phi, g)
        assert np.allclose(iterate(s, phi, f, 4).values, g.values, atol=1e-10)


def test_stacked_iterate_rows_match_single_calls(system_pool, large_pool):
    """Each row of a stacked ``iterate`` has the bits of the call on that row
    alone and of n ``apply`` steps; one vector gives back an ``L1Vector``."""
    gen = np.random.default_rng(31)
    for s in system_pool + large_pool:
        phi = random_potential(gen, s)
        values = np.where(s.support, gen.normal(size=(4, s.n)), 0.0)
        for n in (1, 3, 6):
            stacked = iterate(s, phi, values, n)
            assert stacked.shape == values.shape
            for row, got in zip(values, stacked):
                single = iterate(s, phi, l1_vector(s, row), n)
                assert isinstance(single, L1Vector)
                stepped = l1_vector(s, row)
                for _ in range(n):
                    stepped = apply(s, phi, stepped)
                assert single.values.tobytes() == got.tobytes()
                assert stepped.values.tobytes() == got.tobytes()


def test_stacked_iterate_raises_like_the_scalar_call():
    """On cycle3 (0 -> 1 -> 2 -> 0) two steps from atom 0 read phi at 0 and
    at 1 and f at 2.  One row whose walk underflows to 0 where the closed
    form stays above the tolerance raises CertificateError; one row whose walk
    overflows although its closed form is finite raises ValueError; each
    as the call on that row alone does.  An overflow raises the ValueError,
    never numpy's overflow warning."""
    s = cycle3()
    ok = np.ones((3, 3))
    # e^-800 f(2) underflows to 0, while e^(709 - 800) f(2) = 3e-10
    phi = np.array([709.0, -800.0, 0.0])
    assert iterate(s, phi, ok, 2).shape == (3, 3)
    broken = np.vstack([ok, [1.0, 1.0, 1e30]])
    with pytest.raises(CertificateError, match="closed form"):
        iterate(s, phi, broken, 2)
    with pytest.raises(CertificateError, match="closed form"):
        iterate(s, phi, l1_vector(s, broken[-1]), 2)
    # e^709 f(2) overflows, while e^(-709 + 709) f(2) is f(2)
    phi = np.array([-709.0, 709.0, 0.0])
    assert iterate(s, phi, ok, 2).shape == (3, 3)
    broken = np.vstack([ok, [1.0, 1.0, 1e10]])
    with pytest.raises(ValueError, match="finite"):
        iterate(s, phi, broken, 2)
    with pytest.raises(ValueError, match="finite"):
        iterate(s, phi, l1_vector(s, broken[-1]), 2)
    # e^400 e^400 overflows at the second step, e^800 in apply's exponent
    with pytest.raises(ValueError, match="finite"):
        iterate(twocyc(), np.full(4, 400.0), np.ones((1, 4)), 3)
    with pytest.raises(ValueError, match="finite"):
        apply(twocyc(), np.full(4, 800.0), l1_vector(twocyc(), np.ones(4)))


def test_op_norm_frozen_examples():
    assert op_norm(tail(), np.zeros(3), 1) == pytest.approx(2.0, abs=1e-12)
    for n in range(1, 7):
        assert op_norm(cycle3(), np.zeros(3), n) == pytest.approx(1.0, abs=1e-12)
        # tail saturates once every atom has fallen onto the fixed point
        assert op_norm(tail(), np.zeros(3), n) == pytest.approx(
            min(n + 1, 3), abs=1e-12
        )
    assert op_norm(cycle3(), np.array([LN2, 0, 0]), 3) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        op_norm(cycle3(), np.zeros(3), 0)


def test_op_norm_matches_brute_force(any_system, system_pool):
    gen = np.random.default_rng(17)
    for s in [any_system] + system_pool[:10]:
        phi = gen.uniform(-2, 2, s.n)
        for n in (1, 2, 4):
            want = brute_norm_log(s, phi, n)
            got = op_norm_log(s, phi, n)
            assert got == pytest.approx(want, abs=1e-12), f"n={n} on {s.atoms}"


def test_op_norm_dominates_unit_vectors(system_pool, potential_pool):
    gen = np.random.default_rng(23)
    for s, phi in zip(system_pool, potential_pool):
        bound = op_norm(s, phi, 3)
        for _ in range(20):
            f = l1_vector(s, gen.normal(size=s.n))
            nf = l1_norm(s, f)
            if nf < 1e-9:
                continue
            unit = l1_vector(s, f.values / nf)
            grown = l1_norm(s, iterate(s, phi, unit, 3))
            assert grown <= bound * (1 + 1e-9)


def test_op_norm_log_pow_agrees_with_direct(system_pool, potential_pool, large_pool):
    gen = np.random.default_rng(12)
    cases = list(zip(system_pool[:8], potential_pool[:8]))
    cases += [(s, random_potential(gen, s)) for s in large_pool]
    for s, phi in cases:
        for n in (1, 2, 3, 7, 12):
            # dense squaring holds k**3 floats for k supported atoms, 0.5 GB
            # at k = 400, so the 500-atom system uses the brute-force oracle
            if s.n <= 200:
                a = op_norm_log_pow(s, phi, n)
            else:
                a = brute_norm_log(s, phi, n)
            b = op_norm_log(s, phi, n)
            if math.isinf(a) and math.isinf(b):
                continue
            assert a == pytest.approx(b, abs=1e-9), f"n={n}"


def test_op_norm_log_pow_reaches_gelfand_limit():
    """At n = 2**20 the normalized log norm sits within 1e-5 of the
    spectral potential; binary squaring makes the horizon affordable."""
    for s in (cycle3(), tail(), twocyc()):
        gen = np.random.default_rng(7)
        phi = gen.uniform(-2, 2, s.n)
        lam = log_spectral_radius(s, phi)
        n = 2**20
        assert op_norm_log_pow(s, phi, n) / n == pytest.approx(lam, abs=1e-5)


def test_log_spectral_radius_frozen_examples():
    assert log_spectral_radius(cycle3(), np.array([LN2, 0, 0])) == pytest.approx(
        LN2 / 3, abs=1e-15
    )
    assert log_spectral_radius(tail(), np.array([0.7, 5.0, -5.0])) == pytest.approx(
        0.7
    )
    r = spectral_potential(twocyc(), np.array([1.0, 1.0, 0.0, 0.0]))
    assert r.value == pytest.approx(1.0, abs=1e-15)
    assert r.witness_cycle == (0, 1)


def test_log_spectral_radius_constant_potential(any_system):
    for c in (-2.0, 0.0, 3.5):
        got = log_spectral_radius(any_system, np.full(any_system.n, c))
        assert got == pytest.approx(c, abs=1e-12)


def test_log_spectral_radius_is_max_cycle_mean(system_pool, potential_pool, large_pool):
    """Oracle: enumerate supported cycles directly and average the
    potential along each one.  cycle_means gives the bits of the
    per-cycle numpy mean."""
    gen = np.random.default_rng(17)
    large_phis = [random_potential(gen, s) for s in large_pool]
    for s, phi in zip(system_pool + large_pool, potential_pool + large_phis):
        dec = s.decomposition
        means = [
            sum(phi[a] for a in cyc) / len(cyc)
            for cyc, ok in zip(dec.cycles, dec.supported)
            if ok
        ]
        assert log_spectral_radius(s, phi) == pytest.approx(max(means), abs=1e-12)
        exact = [phi[idx].mean() for idx in s.supported_cycle_arrays]
        assert np.array_equal(cycle_means(s, phi), exact)


def test_spectral_potential_sequence_approaches_from_above(system_pool, large_pool):
    gen = np.random.default_rng(11)
    for s in system_pool + large_pool:
        phi = gen.uniform(-2, 2, s.n)
        r = spectral_potential(s, phi, n_max=20)
        assert not r.flagged
        seq = np.asarray(r.norm_sequence)
        assert np.all(seq >= r.value - 1e-9), "Gelfand sequence dipped below limit"
        # one orbit walk gives the bits of the one-horizon routes, and its
        # sums add the orbit terms left to right
        walk = list(orbit_sums(s, phi, 20))
        assert [n for n, _, _ in walk] == list(range(1, 21))
        total, pos = phi.copy(), s.alpha
        for n, sums, an in walk:
            assert np.array_equal(sums, total) and np.array_equal(an, pos)
            assert np.array_equal(sums, birkhoff(s, phi, n))
            assert np.array_equal(an, alpha_power(s, n))
            assert seq[n - 1] == op_norm_log(s, phi, n) / n
            total = total + phi[pos]
            pos = s.alpha[pos]
        assert np.array_equal(norm_log_sequence(s, phi, 20) / np.arange(1, 21), seq)


def test_stacked_spectral_potential_and_norms_keep_row_bits(system_pool, large_pool):
    """``spectral_potential`` and ``norm_log_sequence`` on a (k, N) stack
    give every row the fields and bits of its own call, and ``_norm_logs``
    reads each row's horizons, up to ``_WALK_HORIZON`` and beyond it, with
    the bits of ``op_norm_log``."""
    gen = np.random.default_rng(2301)
    for s in system_pool[::3] + large_pool:
        phis = gen.uniform(-2.0, 2.0, size=(5, s.n))
        stack = spectral_potential(s, phis, n_max=12)
        assert stack.norm_sequence.shape == (5, 12)
        assert not stack.norm_sequence.flags.writeable
        seqs = norm_log_sequence(s, phis, 12)
        for r, phi in enumerate(phis):
            one = spectral_potential(s, phi, n_max=12)
            assert type(one.value) is float and type(one.flagged) is bool
            assert stack.value[r] == one.value
            assert stack.witness_cycle[r] == one.witness_cycle
            assert bool(stack.flagged[r]) == one.flagged
            assert stack.norm_sequence[r].tobytes() == one.norm_sequence.tobytes()
            assert seqs[r].tobytes() == norm_log_sequence(s, phi, 12).tobytes()
        longest = _WALK_HORIZON + 1
        horizons = gen.choice([1, 5, 24, _WALK_HORIZON, longest, 100], size=(3, 5))
        horizons[0, :2] = longest, 100
        logs = _norm_logs(s, phis, horizons)
        for (j, r), n in np.ndenumerate(horizons):
            assert logs[j, r] == op_norm_log(s, phis[r], int(n))


def walk_norm_log(system, sums, an):
    """``op_norm_log`` read from a walk item (n, sums, an), in its order."""
    sup = system.supported_indices
    mass = log_preimage_mass(system, sums + system.log_m, an)
    return float(np.max(mass[sup] - system.log_m[sup]))


def random_map(gen, n):
    """A random map on n atoms whose null fifth is closed under preimage."""
    support = np.ones(n, dtype=bool)
    support[gen.permutation(n)[: n // 5]] = False
    sup = np.flatnonzero(support)
    alpha = gen.integers(0, n, size=n)
    alpha[sup] = gen.choice(sup, size=sup.size)
    return make_system(np.where(support, gen.uniform(0.2, 2.0, size=n), 0.0), alpha)


FAR_HORIZONS = (64, 65, 100, 1024)


def test_far_horizons_agree_with_the_walk(system_pool, large_pool):
    """One horizon alone keeps the walk's bits up to the walk horizon and
    agrees with it within roundoff beyond, where doubling tables build it;
    the powers of the map are exact at every horizon, and a stacked row
    keeps the bits of its own call on both routes."""
    assert _WALK_HORIZON == 64
    gen = np.random.default_rng(1717)
    for s in system_pool + large_pool + [random_map(gen, 10_000)]:
        phis = gen.uniform(-2, 2, size=(3, s.n))
        walk = {n: (sums, an) for n, sums, an in orbit_sums(s, phis, max(FAR_HORIZONS))}
        for n in FAR_HORIZONS:
            sums, an = walk[n]
            assert np.array_equal(alpha_power(s, n), an)
            stacked = birkhoff(s, phis, n)
            for row, phi, walked in zip(stacked, phis, sums):
                single = birkhoff(s, phi, n)
                assert row.tobytes() == single.tobytes()
                norm = op_norm_log(s, phi, n)
                want = walk_norm_log(s, walked, an)
                if n <= _WALK_HORIZON:
                    assert single.tobytes() == walked.tobytes()
                    assert norm == want
                else:
                    scale = np.maximum(1.0, np.abs(walked))
                    assert np.all(np.abs(single - walked) <= ROUNDOFF_TOL * scale)
                    assert abs(norm - want) <= ROUNDOFF_TOL * max(1.0, abs(want))


def test_the_norm_pushes_supported_terms_with_the_bits_of_every_term(large_pool):
    """The norm pushes only the supported atoms and keeps the bits of the
    push of every atom, in which a null atom's term is -inf and adds an
    exact zero: on null atoms that map onto supported ones, on supported
    atoms reached only from null ones, on (k, N) stacks, on potentials
    scaled by 300, at horizons 1..24 and at 100 (the doubling route)."""
    # null 3 -> supported 0 and null 4 -> null 3; supported 5 is reached
    # only from null 6
    feed = make_system([1.0, 0.5, 2.0, 0.0, 0.0, 1.5, 0.0], [1, 2, 0, 0, 3, 1, 5])
    assert (~feed.support & feed.support[feed.alpha]).any()
    assert list(np.flatnonzero(feed.alpha == 5)) == [6] and not feed.support[6]
    gen = np.random.default_rng(2207)
    for s in [feed, random_map(gen, 60)] + large_pool:
        for scale in (1.0, 300.0):
            phis = scale * gen.uniform(-1.0, 1.0, size=(3, s.n))
            seqs = [norm_log_sequence(s, phi, 24) for phi in phis]
            for n, sums, an in orbit_sums(s, phis, 24):
                want = norm_log_all_terms(s, sums, an)
                assert _norm_log(s, sums, an).tobytes() == want.tobytes()
                for r, phi in enumerate(phis):
                    assert seqs[r][n - 1] == want[r]
                    assert op_norm_log(s, phi, n) == want[r]
            for phi in phis:
                want = norm_log_all_terms(s, *_transport(s, phi, 100))
                assert op_norm_log(s, phi, 100) == want


def test_a_horizon_no_walk_can_reach():
    """Doubling sums of a dyadic potential on 2-cycles are exact, so the
    norm at n = 2^40 is n times the spectral potential to the bit."""
    s = twocyc()
    phi = np.array([0.5, -0.25, 1.0, 0.75])
    n = 2**40
    assert op_norm_log(s, phi, n) == n * log_spectral_radius(s, phi)
    assert np.array_equal(alpha_power(s, n), np.arange(4))


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True])
def test_horizons_are_validated_not_coerced(bad):
    """A horizon that is not an integer is bad input: a float or a bool
    raises ValueError instead of a TypeError or a silent value."""
    s = twocyc()
    phi = np.array([0.1, 0.3, -0.2, 0.4])
    for call in (birkhoff, op_norm_log, op_norm):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            call(s, phi, bad)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        alpha_power(s, bad)
    with pytest.raises(ValueError, match="horizon must be one integer"):
        op_norm_log(s, phi, [3])
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        birkhoff(s, phi, 0)
    with pytest.raises(ValueError, match="horizon must be at least 0"):
        alpha_power(s, -1)
    assert np.array_equal(alpha_power(s, 0), np.arange(4))


def test_batch_matches_scalar(system_pool, large_pool):
    gen = np.random.default_rng(29)
    for s in system_pool[:6] + large_pool:
        phis = gen.uniform(-3, 3, size=(40, s.n))
        batch = log_spectral_radius_batch(s, phis)
        single = np.array([log_spectral_radius(s, p) for p in phis])
        assert np.allclose(batch, single, atol=1e-12)
        exact = np.array([cycle_means(s, phi) for phi in phis])
        assert np.array_equal(cycle_means(s, phis), exact)


def long_cycles():
    """One supported cycle each of 8, 9, 10 and 16 atoms: numpy sums 8 or
    more contiguous terms pairwise."""
    sizes = (8, 9, 10, 16)
    starts = np.cumsum((0,) + sizes[:-1])
    alpha = np.concatenate(
        [start + np.roll(np.arange(size), -1) for start, size in zip(starts, sizes)]
    )
    return make_system(np.ones(alpha.size), alpha)


def test_stacked_cycle_sums_keep_the_bits_of_one_row():
    """Each stacked row must add its cycle's terms as the call on that row
    alone does: in the cycle means, and in the orbits of the k-step map
    that ``power_gap`` reads."""
    s = long_cycles()
    phis = np.random.default_rng(64).uniform(-3.0, 3.0, size=(4, s.n))
    assert np.array_equal(cycle_means(s, phis), [cycle_means(s, phi) for phi in phis])
    for k in (1, 2, 3):
        powers = [power_gap(s, phi, k).power for phi in phis]
        assert np.array_equal(power_gap(s, phis, k).power, powers)


def test_power_system_frozen_examples():
    p3 = power_system(cycle3(), 3)
    assert np.array_equal(p3.alpha, [0, 1, 2])
    p2 = power_system(cycle3(), 2)
    assert p2.decomposition.cycles == ((0, 2, 1),)
    q2 = power_system(twocyc(), 2)
    assert np.array_equal(q2.alpha, [0, 1, 2, 3])
    assert np.array_equal(power_system(tail(), 2).alpha, alpha_power(tail(), 2))


def test_power_gap_frozen_examples(system_pool, large_pool):
    g = power_gap(cycle3(), np.array([LN2, 0, 0]), 3)
    assert g.scaled == pytest.approx(LN2, abs=1e-15)
    assert g.power == pytest.approx(3 * LN2, abs=1e-15)
    assert g.gap == pytest.approx(2 * LN2, abs=1e-12)

    g = power_gap(twocyc(), np.array([1.0, 0.0, 1.0, 0.0]), 2)
    assert g.scaled == pytest.approx(1.0)
    assert g.power == pytest.approx(2.0)

    # constant potentials close the gap exactly
    g = power_gap(tail(), np.full(3, 0.4), 5)
    assert g.gap == pytest.approx(0.0, abs=1e-14)

    # the power side agrees with the rate on the oracle's k-step system, the
    # same construction; the modular orbit oracle below is the independent
    # check
    gen = np.random.default_rng(59)
    for s in system_pool + large_pool:
        phi = random_potential(gen, s)
        for k in range(1, 7):
            want = log_spectral_radius(power_system(s, k), k * phi)
            got = power_gap(s, phi, k).power
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (s.n, k)


def test_power_side_matches_the_modular_orbit_oracle(system_pool, large_pool):
    """The power side, the spectral potential of the k-step system, has the
    bits of the modular orbit arithmetic on the map's own cycles in every
    row of a stack."""
    gen = np.random.default_rng(61)
    for s in system_pool + large_pool + [long_cycles()]:
        phis = gen.uniform(-3.0, 3.0, size=(4, s.n))
        for k in range(1, 8):
            want = [reference_power_rate(s, k * phi, k) for phi in phis]
            assert power_gap(s, phis, k).power.tolist() == want, (s.n, k)


def test_stacked_power_gap_rows_match_single_calls(system_pool, large_pool):
    """Each row of a stack gets the bits of the call on that row alone."""
    gen = np.random.default_rng(67)
    for s in system_pool + large_pool:
        phis = gen.uniform(-2.0, 2.0, size=(7, s.n))
        for k in range(1, 7):
            stacked = power_gap(s, phis, k)
            assert stacked.scaled.shape == stacked.power.shape == (7,)
            for i, phi in enumerate(phis):
                single = power_gap(s, phi, k)
                assert isinstance(single.scaled, float)
                assert stacked.scaled[i] == single.scaled, (s.n, k, i)
                assert stacked.power[i] == single.power, (s.n, k, i)
                assert stacked.gap[i] == single.gap


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=5),
)
def test_power_inequality(seed, k):
    """k * lambda(phi) <= lambda(k phi over alpha^k): iterating can only
    collapse cycles, never create better ones."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = random_potential(gen, s)
    g = power_gap(s, phi, k)
    assert k * g.scaled / k <= g.power / k * k + 1e-12  # sanity on fields
    assert g.scaled <= g.power + 1e-12, f"k={k}: {g.scaled} > {g.power}"


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_residuals_all_within_tolerance(seed):
    """Monotonicity, additive homogeneity, 1-Lipschitz bound, convexity in
    the potential, and strong invariance, each as a signed defect."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = random_potential(gen, s)
    psi = random_potential(gen, s)
    res = property_residuals(s, phi, psi, t=float(gen.uniform(0, 1)), shift=1.5)
    for name, value in vars(res).items():
        assert value <= 1e-12, f"{name} defect {value} too large (seed {seed})"


def test_stacked_property_residuals_rows_match_single_calls(system_pool, large_pool):
    """Each row of a stack, with its own t and shift, gets the bits of the
    call on that pair alone; scalar t and shift apply to every row."""
    gen = np.random.default_rng(71)
    fields = (
        "monotonicity",
        "additive_homogeneity",
        "lipschitz",
        "convexity",
        "strong_invariance",
    )
    for s in system_pool + large_pool:
        phis = gen.uniform(-2.0, 2.0, size=(6, s.n))
        psis = gen.uniform(-2.0, 2.0, size=(6, s.n))
        ts = gen.uniform(size=6)
        ts[0], ts[1] = 0.0, 1.0
        shifts = gen.uniform(-3.0, 3.0, size=6)
        stacked = property_residuals(s, phis, psis, t=ts, shift=shifts)
        shared = property_residuals(s, phis, psis, t=0.25, shift=-1.0)
        for i in range(6):
            single = property_residuals(s, phis[i], psis[i], t=ts[i], shift=shifts[i])
            plain = property_residuals(s, phis[i], psis[i], t=0.25, shift=-1.0)
            for name in fields:
                assert isinstance(getattr(single, name), float)
                assert getattr(stacked, name).shape == (6,)
                assert getattr(stacked, name)[i] == getattr(single, name), (s.n, name)
                assert getattr(shared, name)[i] == getattr(plain, name), (s.n, name)


def test_stacked_property_residuals_reject_any_weight_outside_unit_interval():
    s = twocyc()
    gen = np.random.default_rng(73)
    phis = gen.uniform(-2.0, 2.0, size=(3, s.n))
    psis = gen.uniform(-2.0, 2.0, size=(3, s.n))
    for bad in (1.5, -0.1, np.nan):
        ts = np.array([0.2, bad, 0.7])
        with pytest.raises(ValueError):
            property_residuals(s, phis, psis, t=ts)
        with pytest.raises(ValueError):
            property_residuals(s, phis[1], psis[1], t=bad)


def test_additive_homogeneity_exact_value():
    s = cycle3()
    assert log_spectral_radius(s, np.full(3, 5.0)) == pytest.approx(5.0, abs=0)
    phi = np.array([0.2, -0.4, 1.0])
    lhs = log_spectral_radius(s, phi + 2.5)
    assert lhs == pytest.approx(log_spectral_radius(s, phi) + 2.5, abs=1e-12)


def test_rotation_invariance_of_cycle_means():
    """lambda(psi o alpha) = lambda(psi): rotating values along a cycle
    leaves every cycle mean unchanged."""
    s = cycle3()
    psi = np.array([3.0, -1.0, 7.0])  # integers keep the sums exact
    rotated = psi[s.alpha]
    assert log_spectral_radius(s, rotated) == log_spectral_radius(s, psi)
    gen = np.random.default_rng(31)
    for _ in range(50):
        psi = gen.normal(size=3)
        d = log_spectral_radius(s, psi[s.alpha]) - log_spectral_radius(s, psi)
        assert abs(d) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_coboundary_invariance(seed):
    """Adding psi o alpha - psi never moves the spectral potential."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = random_potential(gen, s)
    psi = random_potential(gen, s)
    cob = psi[s.alpha] - psi
    d = log_spectral_radius(s, phi + cob) - log_spectral_radius(s, phi)
    assert abs(d) <= 1e-12, f"coboundary shifted lambda by {d}"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
)
def test_norm_submultiplicative(seed, n, k):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = random_potential(gen, s)
    lhs = op_norm_log(s, phi, n + k)
    rhs = op_norm_log(s, phi, n) + op_norm_log(s, phi, k)
    assert lhs <= rhs + 1e-12 or math.isinf(rhs)


def test_restriction_leaves_lambda_unchanged():
    s = make_system([1.0, 2.0, 0.0, 1.0], [1, 0, 2, 3])
    phi = np.array([0.4, -0.2, 9.9, 0.1])
    r = s if s.support.all() else None
    from tentropy.system import restrict_to_support

    rs = restrict_to_support(s)
    assert r is None and rs.n == 3
    kept = np.flatnonzero(s.support)
    assert log_spectral_radius(rs, phi[kept]) == pytest.approx(
        log_spectral_radius(s, phi), abs=1e-15
    )


def test_norm_ignores_potential_on_null_atoms():
    s = null_pair()
    a = op_norm_log(s, np.array([0.5, 0.0]), 2)
    b = op_norm_log(s, np.array([0.5, 100.0]), 2)
    assert a == pytest.approx(b, abs=1e-15)
    assert a == pytest.approx(1.0, abs=1e-12)


def test_horizon_like_arguments_must_be_integers():
    """Horizons, powers and horizon counts are never coerced: a bool, a
    float or a count below the least horizon is a ValueError."""
    s = twocyc()
    phi = np.array([0.1, 0.2, 0.3, 0.4])
    mu = functional(s, np.full(4, 0.25))
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="horizon"):
            tau_direct(s, mu, n_max=bad)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="horizon"):
            power_gap(s, phi, bad)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        verify_estimate(s, mu, 0.5, [2.7])
    with pytest.raises(ValueError, match="horizon must be an integer"):
        spectral_potential(s, phi, 12.0)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        list(orbit_sums(s, phi, 3.0))
    with pytest.raises(ValueError, match="horizon must be an integer"):
        growth_constant(s, phi, 0.5, n_max=16.0)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        spectral_potential(s, phi, 0)


def test_potentials_wider_than_the_system_are_rejected():
    """One value per atom, checked by the cycle gather every spectral
    potential reads."""
    s = twocyc()
    wide = np.zeros(7)
    calls = [
        lambda: log_spectral_radius(s, wide),
        lambda: cycle_means(s, wide),
        lambda: log_spectral_radius_batch(s, np.zeros((2, 7))),
        lambda: hull_means(s, wide),
        lambda: power_gap(s, wide, 2),
        lambda: property_residuals(s, wide, wide),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="one value per atom"):
            call()
