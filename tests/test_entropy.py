"""Inner maximization, t-entropy routes, and the near-minimizing potential."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tentropy import entropy
from tentropy.claims import BUCKET_PAD, CertificateError
from tentropy.entropy import (
    InnerProblem,
    certificate_sup,
    hull_means,
    inner_objective,
    inner_problem,
    inner_problems,
    local_young_check,
    local_young_checks,
    maximize_inner,
    maximize_inner_batch,
    near_minimizer_bounds,
    near_minimizer_checks,
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
from tentropy.varprin import divergence_witnesses, young_checks
from tentropy.system import (
    FULL,
    PartitionOfUnity,
    alpha_power,
    atomic_partition,
    birkhoff,
    cycle_means,
    effective_weights,
    functional,
    invariance,
    invariant_vertices,
    make_system,
    pair,
    preimage_mass,
    trivial_partition,
)

from oracles import dual_descent_full_steps
from pinned import assert_pinned, solver_pin

LN2 = math.log(2.0)


# The transport matrix and weights of a 4 x 4 inner problem met by
# `certify twocyc --suite all --seed 131` (lemma.tau_routes), stored
# exactly: its smallest singular value is 9.6e-5 and the optimum is interior.
# Multiplicative ascent stalled on it at gap 1.4e-7 after 200000 steps.
STALL_C = (
    ("0x1.20192026424b7p-3", "0x1.e0e0d255456e2p-3", "0x1.86283992edcf2p-4", "0x1.2cc967c249488p-2"),
    ("0x1.6ef4b8e8be061p-3", "0x1.897bc11dc83a2p-2", "0x1.a831c60d81fdcp-5", "0x1.a87d09c50aacep-2"),
    ("0x1.810b964dbd811p-2", "0x1.e4b1ec24323bcp-3", "0x1.b44ae3efeaa63p-2", "0x1.78969a26569b2p-4"),
    ("0x1.376d7d2ac2566p-2", "0x1.2775bf4af7e1ap-3", "0x1.b524d4e9a9a66p-2", "0x1.9927cfde2cc7bp-3"),
)
STALL_W = (
    "0x1.821d982e13e4cp-3",
    "0x1.1aa1fd64eb004p-2",
    "0x1.33fec5cf8e7b3p-2",
    "0x1.e0a0e168f9244p-3",
)


def stall_problem():
    c = np.array([[float.fromhex(v) for v in row] for row in STALL_C])
    w = np.array([float.fromhex(v) for v in STALL_W])
    return InnerProblem(c=c, mu_weights=w, n=1, support_atoms=(0, 1, 2, 3))


def jam_problem():
    """A 2 x 12 input met by certify on a 12-atom system on which Mehrotra's
    corrector, taken at every step, drives the dual step length to zero."""
    c = np.zeros((2, 12))
    c[0, [0, 7]] = 1.0
    c[0, 10] = float.fromhex("0x1.db651e9fef7e1p+0")
    c[1, 10] = 1.0
    w = np.array([float.fromhex("0x1.89af882e3f073p-1"),
                  float.fromhex("0x1.d941df4703e30p-3")])
    return InnerProblem(c=c, mu_weights=w, n=1, support_atoms=tuple(range(12)))


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


def test_inner_problem_matches_per_member_preimage_mass(system_pool, large_pool):
    """The one offset bincount gives every row the bits of a
    ``preimage_mass`` call on that member alone, in a row-major matrix (the
    solver's products give other bits on a column-major one); a stack of
    problems at one horizon gives each the c and weights of its own call."""
    gen = np.random.default_rng(61)
    for s in system_pool + large_pool:
        mu = random_invariant(gen, s)
        sup = s.supported_indices
        parts = (atomic_partition(s), random_partition(gen, s), trivial_partition(s))
        for n in (1, 3):
            an = alpha_power(s, n)
            pairs = [(mu, part) for part in parts]
            pairs.append((random_simplex_functional(gen, s), parts[1]))
            members = [part.members for _, part in pairs]
            weights = np.array([effective_weights(s, nu) for nu, _ in pairs])
            stacked = inner_problems(s, members, weights, n)
            for (nu, part), problem in zip(pairs, stacked):
                want = np.array(
                    [preimage_mass(s, g * s.m, an)[sup] / s.m[sup] for g in part.members]
                )
                got = inner_problem(s, nu, part, n)
                assert got.c.shape == want.shape and got.c.flags.c_contiguous
                assert np.array_equal(got.c, want), (s.n, n)
                assert problem.c.flags.c_contiguous
                assert np.array_equal(problem.c, got.c)
                assert np.array_equal(problem.mu_weights, got.mu_weights)
                assert (problem.n, problem.support_atoms) == (n, got.support_atoms)


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
    and the solver cannot sit below the best grid point; the certified gap
    meets the tolerance asked for, also on the nearly singular stall input."""
    s = cycle3()
    mu = functional(s, np.array([0.5, 0.3, 0.2]))
    for prob, tol in ((inner_problem(s, mu, atomic_partition(s), 2), 1e-10),
                      (stall_problem(), 1e-8)):
        sol = maximize_inner(prob, tol=tol)
        assert 0.0 <= sol.optimality_gap <= tol
        best_grid = -np.inf
        for p in simplex_grid(prob.c.shape[1], 0.02):
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


def reference_level_rows(s, level):
    """The members of ``oscillation_partition`` as they were built from one
    row of levels: one member per sorted distinct level of the supported
    atoms, then the null atoms."""
    keys = np.array(sorted(set(level[s.support].tolist())))
    rows = s.support & (level == keys[:, None])
    if not bool(s.support.all()):
        rows = np.vstack([rows, ~s.support])
    return rows.astype(float)


def test_stacked_level_partitions_match_each_row(system_pool, large_pool):
    """``_level_partitions`` gives every row of a stack of levels the members
    of the per-row construction it replaced, bit for bit: on floored
    Birkhoff levels, on levels holding both -0.0 and 0.0 (one level), on
    rows with a single level, on systems with and without null atoms."""
    gen = np.random.default_rng(2323)
    systems = system_pool + large_pool
    assert any(s.support.all() for s in systems)
    assert not all(s.support.all() for s in systems)
    for s in systems:
        sup = s.supported_indices
        sums = np.stack([birkhoff(s, random_potential(gen, s), n) for n in (1, 3, 6)])
        signed = gen.choice([-1.0, -0.0, 0.0, 2.0], size=(3, s.n))
        signed[:, sup[::2]] = -0.0
        signed[:, sup[1::2]] = 0.0
        signed[0, sup[::3]] = 2.0
        single = np.full((2, s.n), 5.0)
        single[1, sup[1::2]] = -0.0
        single[1, sup[::2]] = 0.0
        stack = np.vstack([np.floor(sums / 0.5), signed, single])
        built = entropy._level_partitions(s, stack)
        assert len(built) == len(stack)
        for level, members in zip(stack, built):
            want = reference_level_rows(s, level)
            assert members.shape == want.shape
            assert members.tobytes() == want.tobytes()
        nulls = int(not s.support.all())
        assert [len(m) for m in built[-3:]] == [1 + nulls] * 3


def test_tau_direct_invariant_is_zero_within_band(any_system):
    gen = np.random.default_rng(47)
    mu = random_invariant(gen, any_system)
    direct = tau_direct(any_system, mu, seed=3)
    dual = tau_dual(any_system, mu)
    assert dual.value == 0.0
    assert 0.0 <= direct.value - dual.value <= 1e-3
    assert direct.achieving_n is not None
    assert direct.route == "direct"


def test_tau_direct_rejects_no_horizon():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="horizon"):
            tau_direct(s, mu, n_max=n_max)


@pytest.mark.parametrize("bad", [True, -1, 2**64, 1.0, "3"])
def test_tau_direct_seed_must_be_a_64_bit_integer(bad):
    """A bool, a negative or 65-bit integer, a float or a string seed raises
    ``ValueError``, the rule of ``CertifyConfig`` and the CLI."""
    s = cycle3()
    with pytest.raises(ValueError, match="seed"):
        tau_direct(s, functional(s, np.full(3, 1 / 3)), seed=bad)


def test_tau_direct_reports_first_candidate_within_tol(monkeypatch, system_pool):
    """Candidate bounds closer than the solver tolerance are ties: the
    achieving candidate is the first of them, and no earlier candidate
    lies within ``DIRECT_TOL`` of the reported minimum.  Only the achieving
    partition is built as an object, so it is matched by value."""
    seen = {}
    make_problems, solve = entropy.inner_problems, entropy.maximize_inner_batch

    def recording_problems(system, members, weights, n):
        seen["candidates"] += [(n, m) for m in members]
        return make_problems(system, members, weights, n)

    def recording_solve(problems, tol):
        seen["tol"] = tol
        seen["solutions"] = solve(problems, tol)
        return seen["solutions"]

    monkeypatch.setattr(entropy, "inner_problems", recording_problems)
    monkeypatch.setattr(entropy, "maximize_inner_batch", recording_solve)
    gen = np.random.default_rng(61)
    tol = entropy.DIRECT_TOL
    for s in [twocyc()] + system_pool[:10]:
        seen["candidates"] = []
        r = tau_direct(s, random_invariant(gen, s), seed=4)
        assert seen["tol"] == tol
        bounds = [
            (sol.value + sol.optimality_gap) / n + 1e-12
            for (n, _), sol in zip(seen["candidates"], seen["solutions"])
        ]
        assert r.value == min(bounds)
        first = next(
            i
            for i, (n, members) in enumerate(seen["candidates"])
            if n == r.achieving_n
            and np.array_equal(members, r.achieving_partition.members)
        )
        assert bounds[first] <= r.value + tol
        assert all(bound > r.value + tol for bound in bounds[:first])


@pytest.mark.parametrize("planted", [0, 5])
def test_tau_direct_fails_a_nan_bound(monkeypatch, planted):
    """A NaN inner value makes its candidate bound NaN, which fails the
    direct route whether it is the first candidate or a later one."""
    solve = entropy.maximize_inner_batch

    def planting_solve(problems, tol):
        solutions = solve(problems, tol)
        solutions[planted] = dataclasses.replace(solutions[planted], value=math.nan)
        return solutions

    monkeypatch.setattr(entropy, "maximize_inner_batch", planting_solve)
    s = twocyc()
    with pytest.raises(CertificateError, match="NaN"):
        tau_direct(s, functional(s, np.full(4, 0.25)), n_max=3)


def test_tau_direct_diverges_on_null_charge():
    s = null_pair()
    mu = functional(s, np.array([0.0, 1.0]), mode=FULL)
    r = tau_direct(s, mu)
    assert r.value == -np.inf


def test_tau_direct_builds_oscillation_partitions_from_its_own_sums(
    monkeypatch, system_pool
):
    """Each horizon draws its three oscillation potentials as one 3-row
    stack and makes one ``_transport`` call on it; each oscillation
    candidate is ``oscillation_partition`` of its own row, at the width its
    own Birkhoff sums set.  The atomic and trivial candidates are built once
    per call."""
    transports = []
    candidates = []
    transport, make_problems = entropy._transport, entropy.inner_problems

    def recording_transport(system, phi, n):
        transports.append((np.array(phi), n))
        return transport(system, phi, n)

    def recording_problems(system, members, weights, n):
        candidates.append(members)
        return make_problems(system, members, weights, n)

    monkeypatch.setattr(entropy, "_transport", recording_transport)
    monkeypatch.setattr(entropy, "inner_problems", recording_problems)
    gen = np.random.default_rng(67)
    for s in [twocyc()] + system_pool[:8]:
        transports.clear()
        candidates.clear()
        tau_direct(s, random_invariant(gen, s), n_max=4, seed=5)
        assert [n for _, n in transports] == [1, 2, 3, 4]
        assert len(candidates) == 4
        for (phis, n), members in zip(transports, candidates):
            assert phis.shape == (3, s.n)
            assert members[0] is candidates[0][0]
            assert members[1] is candidates[0][1]
            for phi, got in zip(phis, members[2:5]):
                sums = birkhoff(s, phi, n)
                width = float(sums.max() - sums.min()) / 3.0 + BUCKET_PAD
                want = oscillation_partition(s, phi, n, width).members
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


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


def assert_descent_matches_oracle(s, mu):
    """The descent agrees with ``dense_descent`` and takes the same path.

    An early exit returns h * 2e12 for the first h below -1e-9, where
    h = lambda(phi) - w . phi cancels terms of size H w . w with H the
    harmonic sum (below 7 at 500 steps), so h is compared after unscaling
    within a few ulps of those terms rather than relative to itself.
    """
    ref = dense_descent(s, mu)
    got = tau_dual(s, mu).descent_best
    assert (got < -1e-9) == (ref < -1e-9)
    if ref < -1e-9:
        w = effective_weights(s, mu)
        assert abs(got - ref) / 2e12 <= 1e-13 * max(1.0, float(w @ w))
    else:
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
    return got


def cycles_and_tails(gen, n, lengths):
    """A fully supported map with cycles of the given lengths and random
    tails on the remaining atoms."""
    order = gen.permutation(n)
    on = int(np.sum(lengths))
    alpha = np.empty(n, dtype=np.intp)
    start = 0
    for size in lengths:
        cyc = order[start : start + size]
        alpha[cyc] = np.roll(cyc, -1)
        start += size
    for i in range(on, n):
        alpha[order[i]] = order[gen.integers(0, i)]
    return make_system(gen.uniform(0.5, 2.0, n), alpha)


def null_cycle_system():
    """Supported cycles of lengths 1, 2 and 3 with two supported tail atoms,
    a null 3-cycle (atoms 8-10) and null tails onto both parts."""
    alpha = [0, 2, 1, 4, 5, 3, 0, 6, 9, 10, 8, 8, 3]
    m = [1.0, 0.5, 1.5, 0.7, 1.2, 0.9, 1.1, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0]
    s = make_system(m, alpha)
    assert s.validation.valid and len(s.supported_cycle_arrays) == 3
    return s


def test_dual_descent_matches_dense_oracle_on_edge_cases(large_pool):
    gen = np.random.default_rng(43)
    # Equal cycle lengths and equal cycle means: every cycle ties at every
    # step, the subgradient equals w, and phi never leaves 0.
    for lengths in ([3] * 4, [4] * 60):
        s = cycles_and_tails(gen, int(np.sum(lengths)) + 100, lengths)
        on = np.concatenate(s.supported_cycle_arrays)
        w = np.zeros(s.n)
        w[on] = 1.0 / on.size
        mu = functional(s, w)
        assert tau_dual(s, mu, cross_check=False).value == 0.0
        assert abs(assert_descent_matches_oracle(s, mu)) <= 1e-9

    # FULL-mode charge on null atoms (tails and an unsupported cycle) and on
    # the unsupported cycle alone.
    s = null_cycle_system()
    nulls = np.flatnonzero(~s.support)
    for charged in (nulls, np.array([8, 9, 10])):
        w = 0.8 * random_invariant(gen, s).weights
        w[charged] += 0.2 * gen.dirichlet(np.ones(charged.size))
        mu = functional(s, w, mode=FULL)
        assert tau_dual(s, mu, cross_check=False).value == -np.inf
        assert_descent_matches_oracle(s, mu)

    # Near-invariant FULL-mode functionals take the early exit.
    for s in [null_cycle_system()] + large_pool:
        w = random_invariant(gen, s).weights + gen.normal(0.0, 1e-3, s.n)
        assert assert_descent_matches_oracle(s, functional(s, w, mode=FULL)) < -1e-9


def descent_pin_cases():
    """(system, effective weights) pairs that reach every path of the
    descent: full-length runs won by one cycle at a time, early exits, runs
    where every cycle ties at every step, a pair of equal cycles that keeps
    tying past step 0, and FULL charges on null atoms."""
    gen = np.random.default_rng(47)
    cases = []
    for n, count in ((2000, 220), (4000, 430)):
        s = cycles_and_tails(gen, n, gen.integers(1, 9, size=count))
        hull = random_invariant(gen, s).weights
        # off the polytope by at most 1/(4n) per atom: all 500 steps run
        pushed = hull + gen.uniform(-0.25, 0.25, n) / n
        # the perturbed and Dirichlet draws exit at k = 1; the rescaled hull
        # points run 92 to 500 steps, each past step 0 won by one cycle
        perturbed = perturbed_invariant(gen, s).weights
        dirichlet = gen.dirichlet(np.ones(n))
        scaled = [hull * (1.0 + gen.normal(0.0, sd, n)) for sd in (1.5, 2.0)]
        cases += [(s, w) for w in (hull, pushed, perturbed, dirichlet, *scaled)]
    for lengths in ([3] * 4, [4] * 60):
        s = cycles_and_tails(gen, int(np.sum(lengths)) + 100, lengths)
        on = np.concatenate(s.supported_cycle_arrays)
        w = np.zeros(s.n)
        w[on] = 1.0 / on.size
        cases.append((s, w))
    # the two 3-cycles share the top mean with the 2-cycle; the pair ties at
    # 302 of the 500 steps and a lone cycle wins 197
    s = cycles_and_tails(gen, 30, [3, 3, 2, 4])
    w = np.zeros(s.n)
    for c in s.supported_cycle_arrays:
        w[c] = (0.3 if c.size == 3 else 0.2) / c.size
    cases.append((s, w))
    s = null_cycle_system()
    nulls = np.flatnonzero(~s.support)
    for charged in (nulls, np.array([8, 9, 10])):
        w = 0.8 * random_invariant(gen, s).weights
        w[charged] += 0.2 * gen.dirichlet(np.ones(charged.size))
        cases.append((s, effective_weights(s, functional(s, w, mode=FULL))))
    return cases


def test_dual_descent_keeps_the_bits_of_full_steps():
    """The descent that updates only the winning cycle returns the bits of
    the one that rebuilds every cycle value at every step."""
    for s, w in descent_pin_cases():
        a = cycle_means(s, w)
        for iters in (1, 50, 500):
            got = entropy._dual_descent(s, w, a, iters=iters)
            ref = dual_descent_full_steps(s, w, a, iters=iters)
            assert float(got).hex() == float(ref).hex(), (s.n, iters)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the descent stays at or above 0 on a functional just off the "
    "polytope, so it misses this negativity defect",
)
def test_dual_descent_finds_a_negativity_defect():
    """A hull point pushed off the polytope by noise of at most 1/(4n) per
    atom has negative weights, so ``tau_dual`` puts it at -inf by a
    negativity ray; the descent should see a negative value too."""
    gen = np.random.default_rng(5)
    n = 400
    s = cycles_and_tails(gen, n, gen.integers(1, 9, size=40))
    w = random_invariant(gen, s).weights + gen.uniform(-0.25, 0.25, n) / n
    r = tau_dual(s, functional(s, w))
    assert r.value == -np.inf and r.divergence.defect == "negativity"
    assert r.descent_best < 0.0


def test_dual_descent_reads_cycle_means_once(monkeypatch):
    """No step of the descent gathers over the cycle atoms: a 300-cycle
    hull point runs all 500 steps on the cycle means of one call."""
    from tentropy import spectral, system, varprin

    s = cycles_and_tails(np.random.default_rng(8), 4000, np.arange(300) % 8 + 1)
    assert len(s.supported_cycle_arrays) == 300
    mu = random_invariant(np.random.default_rng(9), s)
    calls = []
    original = system.cycle_means

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (system, entropy, spectral, varprin):
        monkeypatch.setattr(module, "cycle_means", counting)
    r = tau_dual(s, mu, cross_check=True)
    assert r.value == 0.0 and abs(r.descent_best) <= 1e-9
    # the membership test and the descent share one call
    assert len(calls) == 1
    w = effective_weights(s, mu)
    a = original(s, w)
    for iters in (1, 50, 500):
        calls.clear()
        entropy._dual_descent(s, w, a, iters=iters)
        assert len(calls) == 0


def test_tau_dual_builds_no_dense_vertex_matrix():
    """The descent cross-check stays far below one cycles x atoms array."""
    gen = np.random.default_rng(8)
    n, count = 4000, 300
    s = cycles_and_tails(gen, n, gen.integers(1, 9, size=count))
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


def test_stacked_hull_test_matches_tau_dual(system_pool, large_pool):
    """``hull_means`` certifies a stack of defect-free functionals at once:
    each row is a point that ``tau_dual`` puts at 0, its means carry the bits
    of its own call and of ``cycle_means``, and one row off the hull fails
    the whole stack, as ``tau_dual`` puts that row at -inf."""
    gen = np.random.default_rng(53)
    for s in system_pool + large_pool:
        mus = [random_invariant(gen, s) for _ in range(4)]
        mus += [functional(s, v.weights, mode=FULL) for v in invariant_vertices(s)[:2]]
        rows = np.array([effective_weights(s, mu) for mu in mus])
        means = hull_means(s, rows)
        for r, mu in enumerate(mus):
            assert tau_dual(s, mu, cross_check=False).value == 0.0
            assert np.array_equal(means[r], hull_means(s, rows[r]))
            assert np.array_equal(means[r], cycle_means(s, rows[r]))
        # a point mass off every fixed point is no mixture of cycle measures
        fixed = {int(c[0]) for c in s.supported_cycle_arrays if c.size == 1}
        off = [x for x in s.supported_indices.tolist() if x not in fixed]
        if off:
            point = np.zeros(s.n)
            point[off[0]] = 1.0
            assert tau_dual(s, functional(s, point), cross_check=False).value == -np.inf
            with pytest.raises(CertificateError, match="hull point"):
                hull_means(s, np.vstack([rows, point]))


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
    phi = near_minimizer_bounds(s, mu, atomic_partition(s), 1, 0.01).phi
    assert np.allclose(phi, [0.0, 0.0, math.log(0.01), math.log(0.01)], atol=1e-9)


def test_near_minimizer_requires_positive_eps():
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        near_minimizer_bounds(s, mu, atomic_partition(s), 1, 0.0).phi


def test_stacked_inner_checks_reject_a_non_integral_horizon():
    """A horizon that is not an integer is bad input, never truncated."""
    s = cycle3()
    mu = functional(s, np.full(3, 1 / 3))
    phi = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="horizon must be an integer"):
        near_minimizer_bounds(s, mu, atomic_partition(s), 1.5, 0.1)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        near_minimizer_checks(s, [np.eye(3)], [mu.weights], [2.0], [0.1])
    with pytest.raises(ValueError, match="horizon must be an integer"):
        local_young_check(s, phi, mu, 1.5, 0.5)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        local_young_checks(s, [phi], [mu.weights], [1.5], [0.5])


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
    prob = inner_problem(s, mu, PartitionOfUnity(members), 1)
    # member 0 sits on the null atom, so only member 1 is charged
    assert prob.mu_weights[0] == 0.0
    sol = maximize_inner(prob)
    assert np.isfinite(sol.value)


def mixed_batch():
    """Inner problems and tolerances of one batch: an uncharged problem, a
    divergent one, the stall and jam inputs, widths and row counts that
    differ, two tolerances, and the stall input once more at a loose one."""
    gen = np.random.default_rng(61)
    pair_sys = null_pair()
    problems = [
        inner_problem(pair_sys, functional(pair_sys, np.array([1.0, 0.0])),
                      PartitionOfUnity(np.array([[0.0, 1.0], [1.0, 0.0]])), 1),
        inner_problem(pair_sys, functional(pair_sys, np.array([0.0, 1.0]), mode=FULL),
                      atomic_partition(pair_sys), 1),
        stall_problem(),
        jam_problem(),
    ]
    for s in (twocyc(), random_system(gen), random_system(gen)):
        for members in (2, 3, 5):
            mu = random_invariant(gen, s)
            part = random_partition(gen, s, members=members)
            problems.append(inner_problem(s, mu, part, int(gen.integers(1, 4))))
        problems.append(inner_problem(s, random_simplex_functional(gen, s),
                                      atomic_partition(s), 2))
    tols = np.where(np.arange(len(problems)) % 2, 1e-9, 1e-10)
    problems.append(stall_problem())
    return problems, np.append(tols, 1e-3)


def test_maximize_inner_batch_matches_single(monkeypatch):
    """Every problem of the mixed batch gets its own certificate and the
    value it has when solved alone."""
    problems, tols = mixed_batch()
    assert len({p.c.shape for p in problems}) > 4
    batch = maximize_inner_batch(problems, tols)
    # the loose stall twin leaves the batch earlier than the tight one
    assert batch[-1].iterations < batch[2].iterations
    assert batch[0].value == 0.0 and batch[0].optimality_gap == 0.0
    assert batch[1].value == -np.inf and batch[1].p_star is None
    for prob, tol, sol in zip(problems, tols, batch):
        alone = maximize_inner(prob, tol=tol)
        if alone.value == -np.inf:
            assert sol.value == -np.inf
            continue
        assert sol.optimality_gap <= tol
        assert abs(sol.value - alone.value) <= tol
        assert abs(sol.p_star.sum() - 1.0) <= 1e-12

    # a problem still above its tolerance at the step cap is an error,
    # never a returned point
    monkeypatch.setattr(entropy, "_MAX_STEPS", 1)
    with pytest.raises(CertificateError, match="certificate"):
        maximize_inner(stall_problem())
    with pytest.raises(CertificateError, match="certificate"):
        maximize_inner_batch(problems, tols)


def solutions_digest(solutions):
    """sha256 of the value, gap, Newton steps and point of each solution."""
    h = hashlib.sha256()
    for sol in solutions:
        h.update(repr((sol.value.hex(), sol.optimality_gap.hex(), sol.iterations)).encode())
        if sol.p_star is not None:
            h.update(sol.p_star.tobytes())
    return h.hexdigest()


def solver_pins() -> dict:
    """The solutions of the mixed batch solved as one batch, and of each of
    its problems solved alone.  A solver change that must move these bits
    says so and re-takes the pins (``tests/pinned.py``)."""
    problems, tols = mixed_batch()
    alone = [maximize_inner(p, tol=t) for p, t in zip(problems, tols)]
    return {
        "solver-batch.json": solver_pin(maximize_inner_batch(problems, tols)),
        "solver-alone.json": solver_pin(alone),
    }


def test_maximize_inner_keeps_its_bits():
    for name, value in solver_pins().items():
        assert_pinned(name, value)


def test_a_divergent_problem_does_not_pad_the_others():
    """A charged zero row makes its problem -inf without changing the
    padding, and so the bits, of the problems of its width: a batch with a
    divergent problem of more rows than any other solves the rest exactly
    as the batch without it."""
    gen = np.random.default_rng(2302)
    s = make_system(gen.uniform(0.2, 2.0, 12), np.roll(np.arange(12), 1))
    solvable = []
    for k in (3, 5, 7):
        mu = random_invariant(gen, s)
        solvable.append(inner_problem(s, mu, random_partition(gen, s, members=k), 2))
    c = np.ones((8, s.n))
    c[1] = 0.0
    divergent = InnerProblem(c, np.full(8, 0.125), 2, tuple(range(s.n)))
    mixed = maximize_inner_batch(solvable[:2] + [divergent] + solvable[2:])
    assert mixed[2].value == -np.inf and mixed[2].p_star is None
    want = solutions_digest(maximize_inner_batch(solvable))
    assert solutions_digest(mixed[:2] + mixed[3:]) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=778)  # the slowest of seeds 0..999
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


def test_stacked_entry_points_reject_stacks_of_different_lengths():
    """Every stack of a stacked call holds one entry per draw; a short or
    long stack is bad input, never silently cut or paired with a wrong row."""
    s = twocyc()
    w = np.full(4, 0.25)
    eye = np.eye(4)
    with pytest.raises(ValueError, match="one weight row per partition"):
        inner_problems(s, [eye, eye], [w], 1)
    with pytest.raises(ValueError, match="one potential per functional"):
        young_checks(s, np.zeros((2, 4)), [w])
    with pytest.raises(ValueError, match="one horizon and one eps per draw"):
        local_young_checks(s, np.zeros((3, 4)), [w] * 3, [1, 2], [0.5] * 3)
    with pytest.raises(ValueError, match="one horizon and one eps per draw"):
        near_minimizer_checks(s, [eye], [w, w], [1, 1], [0.1, 0.1])


def test_stacked_entry_points_reject_weights_that_are_not_finite():
    """A NaN or infinite weight is bad input to every call that tests the
    polytope constraints, never a witness with a NaN rate."""
    s = twocyc()
    for bad in (math.nan, math.inf):
        w = np.array([[bad, 0.5, 0.5, 0.0]])
        for call in (
            lambda: invariance(s, w),
            lambda: divergence_witnesses(s, w),
            lambda: young_checks(s, np.zeros((1, 4)), w),
            lambda: local_young_checks(s, np.zeros((1, 4)), w, [1], [0.5]),
            lambda: near_minimizer_checks(s, [np.eye(4)], w, [1], [0.1]),
        ):
            with pytest.raises(ValueError, match="weights must be finite"):
                call()


def test_uncharged_problem_is_zero_at_the_uniform_point():
    """A problem whose functional charges no member is 0 at the uniform
    point with a vacuous certificate, alone and inside a mixed batch, and
    the other problems of the batch keep the bits they have alone."""
    gen = np.random.default_rng(83)
    s = twocyc()
    uncharged = inner_problems(s, [random_partition(gen, s).members], [np.zeros(4)], 2)[0]
    assert not uncharged.mu_weights.any()
    charged = [
        inner_problem(s, random_invariant(gen, s), random_partition(gen, s), 1),
        inner_problem(cycle3(), random_simplex_functional(gen, cycle3()),
                      atomic_partition(cycle3()), 2),
    ]
    alone = maximize_inner(uncharged)
    batch = maximize_inner_batch([charged[0], uncharged, charged[1]])
    for sol in (alone, batch[1]):
        assert (sol.value, sol.optimality_gap, sol.iterations) == (0.0, 0.0, 0)
        assert np.array_equal(sol.p_star, np.full(4, 0.25))
        assert certificate_sup(uncharged, sol) == 1.0
    assert solutions_digest([batch[0], batch[2]]) == solutions_digest(
        [maximize_inner(p) for p in charged]
    )
