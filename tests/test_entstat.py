"""Empirical measures, halfspace neighborhoods, and the hitting-mass bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy.entstat import (
    HalfspaceNeighborhood,
    build_neighborhood,
    empirical,
    estimate_lhs,
    estimate_lhs_general,
    growth_constant,
    hitting_set,
    verify_estimate,
)
from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import (
    perturbed_invariant,
    random_invariant,
    random_null_charging,
    random_system,
)
from tentropy.system import FULL, birkhoff, functional, pair


def checked_estimate(s, mu, eps, n_range=range(1, 13)):
    """verify_estimate, compared field by field and bit for bit with the
    grid replayed by plain loops: Birkhoff sums and orbit positions one step
    at a time, preimage mass added atom by atom, the worst row taken by
    strict improvement and all_hold decided row by row."""
    rep = verify_estimate(s, mu, eps, n_range)
    nbhd, rate = rep.neighborhood, rep.neighborhood.tau_value + eps
    if rep.branch == "divergent":
        rate = -1.0 / eps
    rows, worst, worst_at, all_hold = [], -np.inf, None, True
    for n in n_range:
        total, pos = nbhd.phi.copy(), s.alpha
        for _ in range(n - 1):
            total += nbhd.phi[pos]
            pos = s.alpha[pos]
        hits = np.flatnonzero(total > n * (nbhd.lambda_phi - nbhd.threshold))
        mass = np.zeros(s.n)
        for x in hits:
            mass[pos[x]] += s.m[x]
        rhs = float(np.exp(rep.c.log_value + n * rate))
        for y in s.supported_indices:
            lhs = float(mass[y] / s.m[y])
            all_hold = all_hold and not lhs > rhs * (1.0 + 1e-9)
            if lhs / rhs > worst:
                worst, worst_at = lhs / rhs, (n, int(y))
            rows.append((n, int(y), lhs, rhs, lhs / rhs, hits.size))
    assert rep.rows.dtype.names == ("n", "atom", "lhs", "rhs", "ratio", "x_n_size")
    for name, column in zip(rep.rows.dtype.names, zip(*rows)):
        assert np.array_equal(rep.rows[name], column), name
    assert (rep.worst_ratio, rep.worst_at, rep.all_hold) == (worst, worst_at, all_hold)
    return rep


def test_empirical_frozen_examples():
    s = tail()
    e = empirical(s, 2, 6)
    assert np.allclose(e.weights, [4 / 6, 1 / 6, 1 / 6], atol=1e-15)
    e = empirical(s, 2, 3)
    assert np.allclose(e.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert e.functional.mode == FULL
    with pytest.raises(ValueError):
        empirical(s, 2, 0)
    with pytest.raises(ValueError):
        empirical(s, 9, 2)


def test_empirical_pairing_is_birkhoff_average(system_pool, potential_pool):
    for s, phi in zip(system_pool, potential_pool):
        for x in range(s.n):
            for n in (1, 3, 7):
                e = empirical(s, x, n)
                want = birkhoff(s, phi, n)[x] / n
                got = float(e.weights @ phi)
                assert got == pytest.approx(want, abs=1e-12)
                assert e.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_tv_formula_on_cycle():
    """For an on-cycle start the distance to the cycle uniform is exactly
    r(L - r) / (nL) with r = n mod L: the first r atoms carry one extra
    visit."""
    s = twocyc()
    dec = s.decomposition
    for x in range(4):
        cyc = dec.cycles[dec.terminal[x]]
        length = len(cyc)
        uniform = np.zeros(4)
        uniform[list(cyc)] = 1.0 / length
        for n in range(1, 25):
            tv = 0.5 * np.abs(empirical(s, x, n).weights - uniform).sum()
            r = n % length
            assert tv == pytest.approx(r * (length - r) / (n * length), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=64),
)
def test_empirical_tv_decay_bound(seed, n):
    """TV to the terminal cycle uniform is at most (entry time + L) / n."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    x = int(gen.integers(0, s.n))
    dec = s.decomposition
    cyc = dec.cycles[dec.terminal[x]]
    uniform = np.zeros(s.n)
    uniform[list(cyc)] = 1.0 / len(cyc)
    tv = 0.5 * np.abs(empirical(s, x, n).weights - uniform).sum()
    bound = (dec.entry_time[x] + len(cyc)) / n
    assert tv <= bound + 1e-12, f"x={x}, n={n}: {tv} > {bound}"


def test_build_neighborhood_invariant_center():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    nbhd = build_neighborhood(s, mu, 0.5)
    assert nbhd.tau_value == 0.0
    assert nbhd.threshold == pytest.approx(0.25)
    assert np.allclose(nbhd.phi, 0.0, atol=0)
    assert nbhd.contains(s, mu)
    with pytest.raises(ValueError):
        build_neighborhood(s, mu, 0.0)


def test_build_neighborhood_divergent_center():
    s = cycle3()
    mu = functional(s, np.array([1.0, 0.0, 0.0]))
    eps = 0.5
    nbhd = build_neighborhood(s, mu, eps)
    assert nbhd.tau_value == -np.inf
    assert nbhd.threshold == pytest.approx(-1 / eps - eps / 2)
    assert nbhd.contains(s, mu)
    # the cut really is strict: the halfspace value sits below the threshold
    assert nbhd.lambda_phi - pair(s, mu, nbhd.phi) < nbhd.threshold


def test_hitting_set_membership_matches_empirical(any_system):
    """X_n is precisely the set of atoms whose empirical measure lies in
    the neighborhood, replayed here through the contains predicate."""
    gen = np.random.default_rng(67)
    s = any_system
    mu = random_invariant(gen, s)
    # the zero potential with threshold 0 puts every empirical measure on
    # the boundary of the halfspace, which the strict cut leaves outside
    boundary = HalfspaceNeighborhood(np.zeros(s.n), 0.0, 0.0, 0.0)
    nbhds = [build_neighborhood(s, mu, eps) for eps in (1.0, 0.3)] + [boundary]
    for nbhd in nbhds:
        for n in (1, 2, 5, 9):
            hits = set(int(i) for i in hitting_set(s, nbhd, n))
            for x in range(s.n):
                inside = nbhd.contains(s, empirical(s, x, n).functional)
                assert (x in hits) == inside, f"atom {x} at n={n}"


def test_hitting_set_cycle3_divergent_scan():
    """Around the point mass at atom 0 of the 3-cycle the hitting sets thin
    out: only atoms whose orbit average of the ray potential stays high
    survive, and on even horizons nothing does once the cut is deep."""
    s = cycle3()
    mu = functional(s, np.array([1.0, 0.0, 0.0]))
    nbhd = build_neighborhood(s, mu, 0.5)
    sizes = [hitting_set(s, nbhd, n).size for n in range(1, 7)]
    assert sizes[0] >= 1
    assert 0 in sizes, "deep divergent cut never emptied the hitting set"
    # an empty hitting set makes the estimate trivially true
    empty_n = sizes.index(0) + 1
    assert estimate_lhs(s, nbhd, empty_n, 0) == 0.0


def test_growth_constant_frozen_examples():
    s = tail()
    c = growth_constant(s, np.zeros(3), 0.2)
    assert c.value == pytest.approx(3 * math.exp(-0.2), abs=1e-12)
    assert c.achieved_n == 2

    c3 = growth_constant(cycle3(), np.zeros(3), 0.8)
    assert c3.value == pytest.approx(math.exp(-0.4), abs=1e-12)
    assert c3.achieved_n == 1

    with pytest.raises(ValueError):
        growth_constant(s, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        growth_constant(s, np.zeros(3), 0.5, n_max=4)


def test_growth_constant_dominates_norms(system_pool, potential_pool, large_pool):
    from tentropy.sampling import random_potential
    from tentropy.spectral import log_spectral_radius, op_norm_log

    gen = np.random.default_rng(61)
    cases = list(zip(system_pool[:8], potential_pool[:8]))
    cases += [(s, random_potential(gen, s)) for s in large_pool]
    for s, phi in cases:
        eps = 0.4
        c = growth_constant(s, phi, eps)
        lam = log_spectral_radius(s, phi)
        for n in range(1, c.n_checked + 1):
            assert op_norm_log(s, phi, n) <= c.log_value + n * (lam + eps / 2) + 1e-9
        # the log ratios are exactly op_norm_log(n) - n (lam + eps/2)
        ratios = [
            op_norm_log(s, phi, n) - n * (lam + eps / 2.0)
            for n in range(1, c.n_checked + 1)
        ]
        assert c.log_value == max(ratios)
        assert c.achieved_n == ratios.index(max(ratios)) + 1
        assert c.value == float(np.exp(max(ratios)))


def test_verify_estimate_invariant_branch(any_system, system_pool, large_pool):
    gen = np.random.default_rng(71)
    mu = random_invariant(gen, any_system)
    rep = checked_estimate(any_system, mu, 0.5)
    assert rep.branch == "finite"
    assert rep.all_hold
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert len(rep.rows) == 12 * len(any_system.supported_indices)
    for s in system_pool + large_pool:
        rep = checked_estimate(s, random_invariant(gen, s), 0.5, [3, 1, 7, 7, 12])
        assert rep.branch == "finite" and rep.all_hold


def test_verify_estimate_divergent_branch(any_system, system_pool, large_pool):
    gen = np.random.default_rng(73)
    mu = perturbed_invariant(gen, any_system)
    rep = checked_estimate(any_system, mu, 0.5)
    assert rep.all_hold
    # a perturbed functional leaves the polytope almost surely
    assert rep.branch == "divergent"
    assert rep.neighborhood.tau_value == -np.inf
    for s in system_pool + large_pool:
        for eps in (1.0, 0.1):
            rep = checked_estimate(s, perturbed_invariant(gen, s), eps)
            assert rep.branch == "divergent" and rep.all_hold


def test_verify_estimate_null_charging():
    s = null_pair()
    gen = np.random.default_rng(79)
    mu = random_null_charging(gen, s)
    for eps in (1.0, 0.5, 0.1):
        rep = checked_estimate(s, mu, eps)
        assert rep.all_hold
        assert rep.branch == "divergent"
    # horizons are checked before any work; none, or one below 1, is an error
    for bad in ([], [3, 0], range(0, 4)):
        with pytest.raises(ValueError, match="horizon"):
            verify_estimate(s, mu, 0.5, bad)


def test_estimate_general_function_reduction(any_system):
    """For f of unit norm the hitting-set integral of |f o alpha^n| never
    exceeds the largest atomwise row: extreme points carry the maximum."""
    gen = np.random.default_rng(83)
    s = any_system
    mu = random_invariant(gen, s)
    nbhd = build_neighborhood(s, mu, 0.5)
    sup = s.supported_indices
    for n in (1, 2, 4, 8):
        rows = [estimate_lhs(s, nbhd, n, int(y)) for y in sup]
        for _ in range(25):
            f = gen.normal(size=s.n)
            norm = float(np.abs(f) @ s.m)
            if norm < 1e-9:
                continue
            general = estimate_lhs_general(s, nbhd, n, f / norm)
            assert general <= max(rows) + 1e-9


def test_estimate_lhs_matches_general_at_indicators(any_system):
    gen = np.random.default_rng(89)
    s = any_system
    mu = random_invariant(gen, s)
    nbhd = build_neighborhood(s, mu, 1.0)
    for y in s.supported_indices:
        f = np.zeros(s.n)
        f[y] = 1.0 / s.m[y]
        a = estimate_lhs(s, nbhd, 3, int(y))
        b = estimate_lhs_general(s, nbhd, 3, f)
        assert a == pytest.approx(b, abs=1e-12)
    # only supported atoms have a relative mass; f needs one value per atom
    for y in [-1, s.n, s.n + 5] + np.flatnonzero(~s.support).tolist():
        with pytest.raises(ValueError):
            estimate_lhs(s, nbhd, 3, y)
    for f in (np.ones(s.n - 1), np.ones(s.n + 1), np.ones((s.n, 1))):
        with pytest.raises(ValueError):
            estimate_lhs_general(s, nbhd, 3, f)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.sampled_from([1.0, 0.5, 0.1]),
)
def test_verify_estimate_random_systems(seed, eps):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = random_invariant(gen, s) if seed % 2 else perturbed_invariant(gen, s)
    rep = verify_estimate(s, mu, eps, n_range=range(1, 9))
    assert rep.all_hold, f"estimate failed at {rep.worst_at}"
