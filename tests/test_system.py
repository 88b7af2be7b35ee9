"""Construction, validation and cycle structure of finite systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import random_invariant, random_system
from tentropy.system import (
    ESSENTIAL,
    FULL,
    InvalidSystemError,
    PartitionOfUnity,
    alpha_power,
    atomic_partition,
    birkhoff,
    functional,
    invariant_vertices,
    is_invariant,
    make_system,
    pair,
    restrict_to_support,
    trivial_partition,
    validate,
)


def orbit_decomposition(alpha):
    """Independent oracle: walk every orbit until it repeats.

    Returns (cycles as frozensets, entry_time array) computed with nothing
    but the map itself, for cross-checking the packaged decomposition.
    """
    n = len(alpha)
    cycles = set()
    entry = np.zeros(n, dtype=int)
    for x in range(n):
        seen = {}
        y = x
        t = 0
        while y not in seen:
            seen[y] = t
            y = alpha[y]
            t += 1
        entry[x] = seen[y]
        cyc = [z for z, tz in seen.items() if tz >= seen[y]]
        cycles.add(frozenset(cyc))
    return cycles, entry


def test_make_system_basic_fields():
    s = cycle3()
    assert s.n == 3
    assert s.atoms == ("0", "1", "2")
    assert np.array_equal(s.alpha, [1, 2, 0])
    assert np.array_equal(s.support, [True, True, True])


def test_make_system_rejects_bad_input():
    # malformed data is a plain ValueError; InvalidSystemError is reserved
    # for well-formed systems whose null set is not closed under preimage.
    with pytest.raises(ValueError):
        make_system([1.0, -0.5], [0, 1])
    with pytest.raises(ValueError):
        make_system([0.0, 0.0], [0, 1])
    with pytest.raises(ValueError):
        make_system([1.0, 1.0], [0, 2])
    with pytest.raises(ValueError):
        make_system([1.0, 1.0], [0])
    with pytest.raises(ValueError):
        make_system([1.0, 1.0], [0, 1], atoms=["a", "a"])
    with pytest.raises(ValueError):
        make_system([np.inf, 1.0], [0, 1])


def preimage_reference(system, w):
    """Per-atom oracle: total weight of each atom's full preimage."""
    return np.array([w[system.alpha == y].sum() for y in range(system.n)])


def test_validate_frozen_constants(large_pool):
    # tail: two atoms map onto the fixed point, so mass doubles there.
    assert validate(tail()).constant == pytest.approx(2.0, abs=1e-12)
    # permutations move each atom's mass bijectively.
    assert validate(cycle3()).constant == pytest.approx(1.0, abs=1e-12)
    assert validate(twocyc()).constant == pytest.approx(1.0, abs=1e-12)
    # null atom contributes no preimage mass.
    assert validate(null_pair()).valid
    assert validate(null_pair()).violations == ()
    for s in large_pool:
        sup = s.supported_indices
        want = np.max(preimage_reference(s, s.m)[sup] / s.m[sup])
        assert validate(s).constant == pytest.approx(want, rel=1e-12)


def test_validate_flags_supported_atom_feeding_null():
    s = make_system([1.0, 0.0], [1, 1])
    rep = validate(s)
    assert not rep.valid
    assert (0, 1) in rep.violations
    with pytest.raises(InvalidSystemError):
        from tentropy.system import require_valid

        require_valid(s)


def test_validate_constant_dominates_all_subsets(any_system):
    """m(alpha^-1 G) <= C m(G) for every subset G, with equality attained."""
    s = any_system
    c = validate(s).constant
    n = s.n
    best = 0.0
    for mask in range(1, 2**n):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        mg = s.m[sel].sum()
        pre = s.m[sel[s.alpha]].sum()
        assert pre <= c * mg + 1e-12, f"subset {mask}: {pre} > {c} * {mg}"
        if mg > 0:
            best = max(best, pre / mg)
    assert best == pytest.approx(c, abs=1e-12)


def test_decomposition_matches_orbit_walk(any_system, system_pool):
    for s in [any_system] + system_pool:
        want_cycles, want_entry = orbit_decomposition(list(s.alpha))
        dec = s.decomposition
        got_cycles = {frozenset(c) for c in dec.cycles}
        assert got_cycles == want_cycles
        assert np.array_equal(dec.entry_time, want_entry)


def test_decomposition_canonical_order():
    dec = twocyc().decomposition
    # each cycle is rotated to start at its smallest atom, cycles sorted.
    assert dec.cycles == ((0, 1), (2, 3))
    assert [c[0] for c in dec.cycles] == sorted(c[0] for c in dec.cycles)
    dec3 = cycle3().decomposition
    assert dec3.cycles == ((0, 1, 2),)


def test_decomposition_terminal_and_support():
    s = tail()
    dec = s.decomposition
    assert dec.cycles == ((0,),)
    assert dec.entry_time == (0, 1, 2)
    assert dec.cycle_of == (0, None, None)
    assert dec.terminal == (0, 0, 0)
    assert all(dec.supported)
    s2 = null_pair()
    dec2 = s2.decomposition
    assert dec2.cycles == ((0,), (1,))
    assert list(dec2.supported) == [True, False]


def test_cycle_relation_is_rotation(system_pool):
    for s in system_pool:
        for cyc in s.decomposition.cycles:
            for i, x in enumerate(cyc):
                assert s.alpha[x] == cyc[(i + 1) % len(cyc)]


def test_alpha_power_examples():
    assert np.array_equal(alpha_power(cycle3(), 3), [0, 1, 2])
    assert np.array_equal(alpha_power(cycle3(), 2), [2, 0, 1])
    assert np.array_equal(alpha_power(twocyc(), 2), [0, 1, 2, 3])
    assert np.array_equal(alpha_power(tail(), 2), [0, 0, 0])
    assert np.array_equal(alpha_power(tail(), 0), [0, 1, 2])
    with pytest.raises(ValueError):
        alpha_power(tail(), -1)


def test_birkhoff_frozen_example():
    got = birkhoff(tail(), np.array([1.0, 2.0, 4.0]), 2)
    assert np.allclose(got, [2.0, 3.0, 6.0], atol=0)


def test_birkhoff_matches_naive_loop(system_pool, potential_pool):
    for s, phi in zip(system_pool, potential_pool):
        for n in (1, 3, 5):
            want = np.zeros(s.n)
            for x in range(s.n):
                y = x
                for _ in range(n):
                    want[x] += phi[y]
                    y = s.alpha[y]
            assert np.allclose(birkhoff(s, phi, n), want, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_birkhoff_cocycle_identity(n, k, seed):
    """S_{n+k} phi = S_n phi + (S_k phi) o alpha^n, the sum cocycle rule."""
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    phi = gen.uniform(-3, 3, s.n)
    lhs = birkhoff(s, phi, n + k)
    rhs = birkhoff(s, phi, n) + birkhoff(s, phi, k)[alpha_power(s, n)]
    assert np.allclose(lhs, rhs, atol=1e-10), f"cocycle broken at n={n}, k={k}"


def test_invariant_vertices_frozen():
    v3 = invariant_vertices(cycle3())
    assert len(v3) == 1
    assert np.allclose(v3[0].weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    vt = invariant_vertices(tail())
    assert len(vt) == 1
    assert np.allclose(vt[0].weights, [1, 0, 0], atol=1e-12)

    v2 = invariant_vertices(twocyc())
    assert len(v2) == 2
    got = sorted(tuple(np.round(v.weights, 12)) for v in v2)
    assert got == [(0, 0, 0.5, 0.5), (0.5, 0.5, 0, 0)]

    vn = invariant_vertices(null_pair())
    assert len(vn) == 1
    assert np.allclose(vn[0].weights, [1, 0], atol=1e-12)


def test_invariant_vertices_small_rational_grid_oracle():
    """On twocyc, scan a coarse simplex grid: the invariant measures found
    are exactly the convex combinations of the two cycle vertices."""
    s = twocyc()
    verts = np.array([v.weights for v in invariant_vertices(s)])
    step = 0.125
    ticks = np.arange(0, 1 + step / 2, step)
    for a in ticks:
        for b in ticks:
            for c in ticks:
                d = 1 - a - b - c
                if d < -1e-9 or d > 1 + 1e-9:
                    continue
                w = np.array([a, b, c, max(d, 0.0)])
                mu = functional(s, w, mode=ESSENTIAL)
                ok, _ = is_invariant(s, mu)
                # invariance on this system means equal weight inside
                # each 2-cycle, which is precisely hull membership.
                in_hull = abs(a - b) < 1e-9 and abs(c - max(d, 0.0)) < 1e-9
                assert ok == in_hull, f"grid point {w} misclassified"
                if ok:
                    coef = np.array([2 * a, 2 * c])
                    assert np.allclose(coef @ verts, w, atol=1e-9)


def test_is_invariant_reports_worst_atom(large_pool):
    s = cycle3()
    mu = functional(s, np.array([1.0, 0.0, 0.0]))
    ok, worst = is_invariant(s, mu)
    assert not ok
    assert worst in (0, 1)
    gen = np.random.default_rng(8)
    for s in large_pool:
        for mode in (ESSENTIAL, FULL):
            mu = functional(s, gen.dirichlet(np.ones(s.n)), mode=mode)
            w = mu.weights
            want = np.max(np.abs(preimage_reference(s, w) - w))
            ok, worst = is_invariant(s, mu)
            assert not ok
            assert worst == pytest.approx(want, rel=1e-12)


def test_random_invariant_is_invariant(system_pool, large_pool):
    gen = np.random.default_rng(5)
    for s in system_pool + large_pool:
        mu = random_invariant(gen, s)
        ok, _ = is_invariant(s, mu)
        assert ok
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_functional_modes_and_pair():
    s = null_pair()
    w = np.array([0.5, 0.5])
    ess = functional(s, w, mode=ESSENTIAL)
    ful = functional(s, w, mode=FULL)
    assert ess.weights[1] == 0.0
    assert ful.weights[1] == 0.5
    f = np.array([2.0, 10.0])
    assert pair(s, ess, f) == pytest.approx(1.0)
    assert pair(s, ful, f) == pytest.approx(6.0)


def test_restrict_to_support_drops_nulls():
    s = null_pair()
    r = restrict_to_support(s)
    assert r.n == 1
    assert r.atoms == ("0",)
    assert np.array_equal(r.alpha, [0])
    full = cycle3()
    assert restrict_to_support(full) is full


def test_restriction_preserves_cycles(system_pool):
    for s in system_pool:
        r = restrict_to_support(s)
        dec = s.decomposition
        want = {
            frozenset(s.atoms[i] for i in c)
            for c, ok in zip(dec.cycles, dec.supported)
            if ok
        }
        got = {frozenset(r.atoms[i] for i in c) for c in r.decomposition.cycles}
        assert got == want


def test_partition_of_unity_validation():
    s = cycle3()
    assert atomic_partition(s).size == 3
    assert trivial_partition(s).size == 1
    with pytest.raises(ValueError):
        PartitionOfUnity(np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        PartitionOfUnity(np.array([[1.2, 1.0, 1.0], [-0.2, 0.0, 0.0]]))
    two = PartitionOfUnity(np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]]))
    assert two.size == 2


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_system_always_valid(seed):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    assert validate(s).valid
    assert 1 <= s.n <= 8
