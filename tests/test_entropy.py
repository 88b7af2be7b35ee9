"""Inner maximization, t-entropy routes, and the near-minimizing potential."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy.entropy import (
    certificate_sup,
    inner_objective,
    inner_problem,
    local_young_check,
    maximize_inner,
    near_minimizer,
    near_minimizer_bounds,
    oscillation_partition,
    tau_direct,
    tau_dual,
    tau_n,
)
from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import (
    perturbed_invariant,
    random_functional,
    random_invariant,
    random_partition,
    random_potential,
    random_simplex_functional,
    random_system,
)
from tentropy.spectral import op_norm_log
from tentropy.system import (
    FULL,
    atomic_partition,
    birkhoff,
    effective_weights,
    functional,
    invariant_vertices,
    make_system,
    pair,
    trivial_partition,
)

LN2 = math.log(2.0)


def simplex_grid(k, step):
    """All points of the k-simplex with coordinates on a step lattice."""
    ticks = int(round(1.0 / step))

    def rec(prefix, left, slots):
        if slots == 1:
            yield prefix + [left]
            return
        for i in range(left + 1):
            yield from rec(prefix + [i], left - i, slots - 1)

    for combo in rec([], ticks, k):
        yield np.array(combo, dtype=float) * step


def test_inner_problem_tail_atomic_matrix():
    """Hand-computed transport matrix: c[g, y] = m(preimage of y inside g)
    over m(y), for the three atom indicators of the tail system."""
    s = tail()
    prob = inner_problem(s, functional(s, np.array([1.0, 0.0, 0.0])),
                         atomic_partition(s), 1)
    want = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    assert np.allclose(prob.c, want, atol=0)
    assert prob.support_atoms == (0, 1, 2)
    assert np.allclose(prob.mu_weights, [1.0, 0.0, 0.0], atol=0)


def test_inner_uniform_cycle_has_value_zero():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    sol = tau_n(s, mu, atomic_partition(s), 1, tol=1e-10)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.p_star, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)
    assert sol.optimality_gap <= 1e-10


def test_inner_value_beats_grid_oracle():
    """A brute scan of the simplex cannot exceed value + certified gap,
    and the solver cannot sit below the best grid point."""
    s = cycle3()
    mu = functional(s, np.array([0.5, 0.3, 0.2]))
    prob = inner_problem(s, mu, atomic_partition(s), 2)
    sol = maximize_inner(prob, tol=1e-10)
    best_grid = -np.inf
    for p in simplex_grid(3, 0.02):
        val = inner_objective(prob, p)
        assert val <= sol.value + sol.optimality_gap + 1e-12
        best_grid = max(best_grid, val)
    assert sol.value >= best_grid - 1e-12


def test_trivial_partition_value_is_log_norm():
    """With the single-member partition the inner problem collapses to the
    operator norm of the unweighted shift."""
    for s in (tail(), cycle3(), twocyc()):
        mu = functional(s, np.full(s.n, 1.0 / s.n))
        for n in (1, 2, 3):
            sol = tau_n(s, mu, trivial_partition(s), n, tol=1e-10)
            assert sol.value == pytest.approx(
                op_norm_log(s, np.zeros(s.n), n), abs=1e-8
            ), f"{s.atoms} n={n}"


def test_trivial_partition_tail_frozen_value():
    s = tail()
    mu = functional(s, np.array([1.0, 0.0, 0.0]))
    sol = tau_n(s, mu, trivial_partition(s), 1, tol=1e-10)
    assert sol.value == pytest.approx(LN2, abs=1e-9)


def test_zero_row_diverges():
    """A charged member with no mass flowing into the support forces -inf."""
    s = null_pair()
    mu = functional(s, np.array([0.0, 1.0]), mode=FULL)
    sol = tau_n(s, mu, atomic_partition(s), 1)
    assert sol.value == -np.inf
    assert sol.p_star is None
    with pytest.raises(ValueError):
        certificate_sup(inner_problem(s, mu, atomic_partition(s), 1), sol)


def test_certificate_sup_is_one_at_optimum(any_system):
    gen = np.random.default_rng(41)
    s = any_system
    for n in (1, 2, 3, 4):
        for part in (atomic_partition(s), random_partition(gen, s)):
            mu = random_invariant(gen, s)
            prob = inner_problem(s, mu, part, n)
            sol = maximize_inner(prob, tol=1e-9)
            if sol.value == -np.inf:
                continue
            assert certificate_sup(prob, sol) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_objective_concavity(seed):
    """ln is concave, so the objective is concave along any simplex chord."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = random_simplex_functional(gen, s)
    prob = inner_problem(s, mu, atomic_partition(s), 2)
    p = gen.dirichlet(np.ones(len(prob.support_atoms)))
    q = gen.dirichlet(np.ones(len(prob.support_atoms)))
    mid = inner_objective(prob, (p + q) / 2)
    avg = (inner_objective(prob, p) + inner_objective(prob, q)) / 2
    if math.isinf(avg):
        return
    assert mid >= avg - 1e-12, f"concavity broken: {mid} < {avg}"


def test_oscillation_partition_shapes():
    s = twocyc()
    phi = np.array([1.0, 1.0, 0.0, 0.0])
    part = oscillation_partition(s, phi, 2, 0.5)
    # Birkhoff sums at horizon 2 are (2, 2, 0, 0): two buckets of width 0.5
    assert part.size == 2
    sums = birkhoff(s, phi, 2)
    for member in part.members:
        hit = sums[member > 0.5]
        if hit.size:
            assert hit.max() - hit.min() < 0.5
    with pytest.raises(ValueError):
        oscillation_partition(s, phi, 2, 0.0)


def test_oscillation_partition_covers(any_system, system_pool):
    gen = np.random.default_rng(43)
    phi = random_potential(gen, any_system)
    part = oscillation_partition(any_system, phi, 3, 0.7)
    assert np.allclose(part.members.sum(axis=0), 1.0, atol=1e-12)
    # members are the supported atoms bucketed by floor(S_n phi / width), in
    # increasing bucket order, then the null atoms
    for s in [any_system] + system_pool:
        phi = random_potential(gen, s)
        for n, width in ((1, 0.5), (3, 0.7), (6, 2.0)):
            level = birkhoff(s, phi, n) / width
            buckets = {}
            for x in s.supported_indices:
                buckets.setdefault(int(np.floor(level[x])), []).append(x)
            want = [np.isin(np.arange(s.n), buckets[k]) for k in sorted(buckets)]
            if not s.support.all():
                want.append(~s.support)
            got = oscillation_partition(s, phi, n, width).members
            assert np.array_equal(got, np.array(want, dtype=float))


def test_tau_direct_invariant_is_zero_within_band(any_system):
    gen = np.random.default_rng(47)
    mu = random_invariant(gen, any_system)
    direct = tau_direct(any_system, mu, seed=3)
    dual = tau_dual(any_system, mu)
    assert dual.value == 0.0
    assert 0.0 <= direct.value - dual.value <= 1e-3
    assert direct.achieving_n is not None
    assert direct.route == "direct"


def test_tau_direct_rejects_unknown_strategy():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        tau_direct(s, mu, strategies=("atomic", "bogus"))
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            tau_direct(s, mu, n_max=n_max)


def test_tau_direct_diverges_on_null_charge():
    s = null_pair()
    mu = functional(s, np.array([0.0, 1.0]), mode=FULL)
    r = tau_direct(s, mu)
    assert r.value == -np.inf


def dense_descent(system, mu, iters=500):
    """Reference descent on the dense (cycles, atoms) matrix of vertices."""
    w = effective_weights(system, mu)
    vmat = np.stack([v.weights for v in invariant_vertices(system)])
    phi = np.zeros(system.n)
    best = 0.0
    for k in range(iters):
        vals = vmat @ phi
        lam = float(vals.max())
        h = lam - float(w @ phi)
        best = min(best, h)
        if h < -1e-9:
            return min(best, h * 2e12)
        tied = vals >= lam - 1e-12
        phi = phi - (vmat[tied].mean(axis=0) - w) / (k + 1.0)
    return best


def test_tau_dual_dichotomy_and_witnesses(system_pool, large_pool):
    s = cycle3()
    hull = functional(s, np.full(3, 1 / 3))
    r0 = tau_dual(s, hull)
    assert r0.value == 0.0
    assert r0.divergence is None
    assert r0.descent_best is not None and r0.descent_best >= -1e-6

    off = functional(s, np.array([1.0, 0.0, 0.0]))
    r1 = tau_dual(s, off)
    assert r1.value == -np.inf
    assert r1.divergence is not None
    assert r1.descent_best is not None and r1.descent_best < -1e3

    gen = np.random.default_rng(41)
    for s in system_pool + large_pool:
        for draw in (random_invariant, perturbed_invariant, random_functional):
            mu = draw(gen, s)
            ref = dense_descent(s, mu)
            got = tau_dual(s, mu).descent_best
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
            assert (got < -1e-9) == (ref < -1e-9)


def test_tau_dual_builds_no_dense_vertex_matrix():
    """The descent cross-check stays far below one cycles x atoms array."""
    gen = np.random.default_rng(8)
    n, count = 4000, 300
    lengths = gen.integers(1, 9, size=count)
    order = gen.permutation(n)
    on = int(lengths.sum())
    alpha = np.empty(n, dtype=np.intp)
    start = 0
    for size in lengths:
        cyc = order[start : start + size]
        alpha[cyc] = np.roll(cyc, -1)
        start += size
    for i in range(on, n):
        alpha[order[i]] = order[gen.integers(0, i)]
    s = make_system(gen.uniform(0.5, 2.0, n), alpha)
    assert len(s.supported_cycle_arrays) == count
    mu = random_invariant(gen, s)
    tracemalloc.start()
    try:
        r = tau_dual(s, mu, cross_check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.value == 0.0
    assert peak < count * n * 8 / 4


def test_tau_dual_vertex_mixtures_are_zero():
    s = twocyc()
    for a in (0.0, 0.25, 0.7, 1.0):
        w = a * np.array([0.5, 0.5, 0, 0]) + (1 - a) * np.array([0, 0, 0.5, 0.5])
        r = tau_dual(s, functional(s, w))
        assert r.value == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=5),
    eps=st.sampled_from([1.0, 0.1]),
)
def test_local_young_inequality(seed, n, eps):
    """eps + log-norm rate dominates the paired lower bound at every
    fixed horizon, with the oscillation partition matched to eps * n."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = random_invariant(gen, s)
    phi = random_potential(gen, s)
    lhs, rhs = local_young_check(s, phi, mu, n, eps)
    assert lhs >= rhs - 1e-8, f"local bound broken: {lhs} < {rhs}"


def test_near_minimizer_frozen_example():
    s = twocyc()
    mu = functional(s, np.array([0.5, 0.5, 0.0, 0.0]))
    phi = near_minimizer(s, mu, atomic_partition(s), 1, 0.01)
    assert np.allclose(phi, [0.0, 0.0, math.log(0.01), math.log(0.01)], atol=1e-9)


def test_near_minimizer_requires_positive_eps():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        near_minimizer(s, mu, atomic_partition(s), 1, 0.0)


def test_near_minimizer_bounds_nonnegative(any_system):
    gen = np.random.default_rng(53)
    s = any_system
    for eps in (1.0, 0.1, 0.01):
        mu = random_invariant(gen, s)
        for n in (1, 2, 3):
            b = near_minimizer_bounds(s, mu, atomic_partition(s), n, eps)
            assert b.growth_slack >= -1e-8
            assert b.pairing_slack >= -1e-8


def test_tau_n_rejects_unnormalized():
    s = cycle3()
    with pytest.raises(ValueError):
        tau_n(s, functional(s, np.array([1.0, 1.0, 1.0])), atomic_partition(s), 1)


def test_maximize_inner_empty_active_rows():
    """A functional charging no member leaves nothing to maximize: tau is 0
    by the empty-supremum convention and the certificate is vacuous."""
    s = null_pair()
    mu = functional(s, np.array([1.0, 0.0]))
    members = np.array([[0.0, 1.0], [1.0, 0.0]])
    from tentropy.system import PartitionOfUnity

    prob = inner_problem(s, mu, PartitionOfUnity(members), 1)
    # member 0 sits on the null atom, so only member 1 is charged
    assert prob.mu_weights[0] == 0.0
    sol = maximize_inner(prob)
    assert np.isfinite(sol.value)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_direct_route_never_undershoots_dual(seed):
    """The direct search reports a certified upper bound, so against the
    exact dual value the signed gap stays in [0, 1e-3]."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    mu = random_invariant(gen, s)
    direct = tau_direct(s, mu, seed=seed & 0xFFFF)
    dual = tau_dual(s, mu, cross_check=False)
    assert dual.value == 0.0
    assert 0.0 <= direct.value - dual.value <= 1e-3
