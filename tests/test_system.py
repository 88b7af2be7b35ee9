"""Construction, validation and cycle structure of finite systems."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tentropy as tp
from tentropy.fixtures import cycle3, null_pair, tail, twocyc
from tentropy.sampling import random_invariant, random_partition_members, random_system
from tentropy.system import (
    ESSENTIAL,
    FULL,
    CycleDecomposition,
    InvalidSystemError,
    PartitionOfUnity,
    _pairings,
    _require_partitions,
    alpha_power,
    atomic_partition,
    birkhoff,
    effective_weights,
    functional,
    invariance,
    invariant_vertices,
    is_invariant,
    log_preimage_mass,
    make_system,
    orbit_sums,
    pair,
    preimage_mass,
    restrict_to_support,
    trivial_partition,
    validate,
)

from oracles import decompose_walk


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
    # finite masses whose total overflows, rejected without a RuntimeWarning
    with pytest.raises(ValueError):
        make_system([1e308, 1e308], [0, 1])


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
    assert dec.entry_time.tolist() == [0, 1, 2]
    assert dec.cycle_of.tolist() == [0, -1, -1]
    assert dec.terminal.tolist() == [0, 0, 0]
    for field in (dec.entry_time, dec.cycle_of, dec.terminal):
        assert field.dtype == np.intp and not field.flags.writeable
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


def test_cycle_places_point_into_the_one_listing(system_pool):
    """``cycle_atom_index`` lists each supported-cycle atom once, in
    increasing order, with its cycle and 1 / length, and the rows of
    ``cycle_places`` are places in that listing that read each supported
    cycle's atoms in cycle order."""
    for s in [tail(), null_pair(), twocyc(), *system_pool]:
        atoms, cycle, inverse_length = s.cycle_atom_index
        arrays = s.supported_cycle_arrays
        on = np.concatenate([np.empty(0, dtype=np.intp), *arrays])
        assert np.array_equal(atoms, np.sort(on))
        for a, c, inv in zip(atoms, cycle, inverse_length):
            assert a in arrays[c] and inv == 1.0 / arrays[c].size
        positions = np.concatenate([pos for pos, _ in s.cycle_places])
        assert sorted(positions) == list(range(len(arrays)))
        for pos, places in s.cycle_places:
            for p, row in zip(pos, places):
                assert np.array_equal(atoms[row], arrays[p])


def shape_maps():
    """Maps whose cycles and tails are set by hand: a single atom; n-cycles
    and n-chains into a fixed point; the single 60-cycle."""
    maps = [np.array([0])]
    for n in (2, 3, 8, 60, 1000):
        maps.append(np.roll(np.arange(n), -1))
        maps.append(np.maximum(np.arange(n) - 1, 0))
    return maps


def test_pointer_jumping_decomposition_matches_the_walk(
    system_pool, large_pool, chunk_systems, stress_panel
):
    """The decomposition by pointer jumping equals the atom-by-atom walk,
    field for field (the per-atom arrays entry by entry): on the random
    pools, on maps of set shapes and of the stress panel, each with every
    atom supported and with every third atom null, and on a 10^5-atom
    random map whose null fifth is closed under preimage."""
    gen = np.random.default_rng(2727)
    systems = system_pool + large_pool + chunk_systems
    for alpha in shape_maps() + [s.alpha for s in stress_panel]:
        m = np.ones(alpha.size)
        systems.append(make_system(m, alpha))
        m[1::3] = 0.0
        systems.append(make_system(m, alpha))
    n = 10**5
    null = np.zeros(n, dtype=bool)
    null[gen.choice(n, n // 5, replace=False)] = True
    sup = np.flatnonzero(~null)
    alpha = gen.integers(0, n, size=n)
    alpha[sup] = gen.choice(sup, sup.size)
    systems.append(make_system(np.where(null, 0.0, gen.uniform(0.5, 2.0, n)), alpha))
    for s in systems:
        got, want = s.decomposition, decompose_walk(s)
        for field in dataclasses.fields(CycleDecomposition):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), (s.n, field)
            else:
                assert a == b, (s.n, field)


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


def reference_log_preimage_mass(system, log_weights, an):
    """``log_preimage_mass`` as it was for one row."""
    top = np.full(system.n, -np.inf)
    np.maximum.at(top, an, log_weights)
    hit = np.isfinite(top)
    shift = np.where(hit, top, 0.0)
    total = np.bincount(an, weights=np.exp(log_weights - shift[an]), minlength=system.n)
    out = np.full(system.n, -np.inf)
    out[hit] = shift[hit] + np.log(total[hit])
    return out


def test_stacked_transport_rows_match_their_own_calls(system_pool, large_pool):
    """Each row of a (k, N) stack gets the bits of its own call, and a single
    row the bits of the per-row code the stack replaced."""
    gen = np.random.default_rng(43)
    for s in system_pool + large_pool:
        k = 4
        weights = gen.uniform(-1.0, 2.0, size=(k, s.n))
        logs = 40.0 * weights + s.log_m
        subset = np.flatnonzero(gen.uniform(size=s.n) < 0.5)
        for an in (None, s.alpha, alpha_power(s, 3), alpha_power(s, 7)):
            stacked = preimage_mass(s, weights, an)
            assert stacked.shape == (k, s.n)
            route = s.alpha if an is None else an
            logged = log_preimage_mass(s, logs, route)
            for r in range(k):
                single = preimage_mass(s, weights[r], an)
                want = np.bincount(route, weights=weights[r], minlength=s.n)
                assert np.array_equal(stacked[r], single)
                assert np.array_equal(single, want)
                single = log_preimage_mass(s, logs[r], route)
                assert np.array_equal(logged[r], single)
                assert np.array_equal(single, reference_log_preimage_mass(s, logs[r], route))
            # a subset of the atoms moving, as the hitting mass passes it
            part = preimage_mass(s, weights[:, subset], route[subset])
            for r in range(k):
                assert np.array_equal(part[r], preimage_mass(s, weights[r, subset], route[subset]))
        walks = [list(orbit_sums(s, w, 9)) for w in weights]
        for n, sums, an in orbit_sums(s, weights, 9):
            assert sums.shape == (k, s.n)
            for r, walk in enumerate(walks):
                assert walk[n - 1][0] == n
                assert np.array_equal(sums[r], walk[n - 1][1])
                assert np.array_equal(an, walk[n - 1][2])


def test_stacked_invariance_matches_is_invariant(system_pool, large_pool):
    """The stacked test gives each row the verdict and the defect of
    ``is_invariant`` on that row's functional, for invariant, non-invariant,
    signed, unnormalized and null-charging FULL functionals."""
    gen = np.random.default_rng(47)
    for s in system_pool + large_pool:
        inv = random_invariant(gen, s)
        mus = [
            inv,
            functional(s, inv.weights, mode=FULL),
            functional(s, gen.dirichlet(np.ones(s.n))),
            functional(s, gen.dirichlet(np.ones(s.n)), mode=FULL),
            functional(s, 1.5 * inv.weights),
            functional(s, inv.weights - 0.01),
        ]
        rows = np.array([effective_weights(s, mu) for mu in mus])
        ok, worst = invariance(s, rows)
        for r, mu in enumerate(mus):
            w = rows[r]
            old = float(np.max(np.abs(np.bincount(s.alpha, weights=w, minlength=s.n) - w)))
            old_ok = old <= 1e-12 and w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-12
            assert (bool(ok[r]), float(worst[r])) == is_invariant(s, mu) == (old_ok, old)
        assert ok[0] and ok[1] and not ok[4] and not ok[5]


def test_random_invariant_is_invariant(system_pool, large_pool):
    gen = np.random.default_rng(5)
    ref_gen = np.random.default_rng(5)
    for s in system_pool + large_pool:
        mu = random_invariant(gen, s)
        ok, _ = is_invariant(s, mu)
        assert ok
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)
        # reference: the same Dirichlet draw summed over the vertices
        verts = invariant_vertices(s)
        ref = np.zeros(s.n)
        for c, v in zip(ref_gen.dirichlet(np.ones(len(verts))), verts):
            ref += c * v.weights
        assert np.array_equal(mu.weights, functional(s, ref).weights)


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


@pytest.mark.parametrize("n", [1, 4, 12, 13, 2000, 10**4])
def test_pairings_keep_the_bits_of_each_row_product(n):
    """Each row of ``_pairings`` is ``a[i] @ b[i]`` bit for bit, on stacks of
    1, 5 and 64 rows, with C-ordered and Fortran-ordered rows (a row of the
    latter is strided), and with one row of b broadcast across the stack."""
    gen = np.random.default_rng(n)
    for k in (1, 5, 64):
        a, b = gen.normal(size=(2, k, n))
        row = gen.uniform(0.2, 2.0, size=n)
        for left in (a, np.asfortranarray(a)):
            for right in (b, np.asfortranarray(b), np.broadcast_to(row, (k, n))):
                want = np.array([left[i] @ right[i] for i in range(k)])
                assert _pairings(left, right).tobytes() == want.tobytes(), (k, n)


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


def partition_error(test, members):
    """The message of the ValueError that ``test(members)`` raises, or None."""
    try:
        test(members)
    except ValueError as exc:
        return str(exc)
    return None


def test_stacked_partition_test_gives_the_verdict_of_each_partition():
    """The stacked test of a list of member arrays accepts it exactly when
    ``PartitionOfUnity`` accepts each array, with the same message.  Among
    partitions of other sizes, a member array scaled by 1 + t keeps the
    verdict of its own ``sum(axis=0)`` on both sides of the t where its
    column sums leave ``EXACT_TOL``, found to the last bit."""
    gen = np.random.default_rng(37)
    s = make_system(np.ones(9), np.arange(9))
    failed = "member values must sum to 1 at every atom"
    for k in (1, 2, 7, 30, 200):
        members = random_partition_members(gen, s, 1, members=k)[0]
        others = random_partition_members(gen, s, 3)

        def verdicts(t):
            scaled = members * (1.0 + t)
            own = np.max(np.abs(scaled.sum(axis=0) - 1.0)) > 1e-12
            return (
                failed if own else None,
                partition_error(PartitionOfUnity, scaled),
                partition_error(_require_partitions, others[:2] + [scaled] + others[2:]),
            )

        lo, hi = 0.0, 2e-12
        assert verdicts(lo) == (None,) * 3
        while lo < (mid := (lo + hi) / 2) < hi:
            got = verdicts(mid)
            assert got == (got[0],) * 3, (k, mid)
            lo, hi = (mid, hi) if got[0] is None else (lo, mid)
        assert verdicts(hi) == (failed,) * 3
    good = [np.eye(3), np.full((2, 3), 0.5)]
    for bad in (
        np.array([[np.nan, 1.0, 1.0]]),
        np.array([[1.2, 1.0, 1.0], [-0.2, 0.0, 0.0]]),
        np.ones(3),
        np.ones((0, 3)),
    ):
        with pytest.raises(ValueError) as alone:
            PartitionOfUnity(bad)
        with pytest.raises(ValueError) as stacked:
            _require_partitions(good + [bad])
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match="same atoms"):
        _require_partitions(good + [np.ones((1, 4))])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_system_always_valid(seed):
    gen = np.random.default_rng(seed)
    s = random_system(gen)
    assert validate(s).valid
    assert 1 <= s.n <= 8


def _uniform(s):
    return functional(s, np.full(s.n, 1.0 / s.n))


# Every export that takes a potential, called with ``phi`` on twocyc.
POTENTIAL_EXPORTS = {
    "orbit_sums": lambda s, phi: list(tp.orbit_sums(s, phi, 2)),
    "birkhoff": lambda s, phi: tp.birkhoff(s, phi, 2),
    "cycle_means": lambda s, phi: tp.cycle_means(s, phi),
    "apply": lambda s, phi: tp.apply(s, phi, tp.l1_vector(s, np.ones(s.n))),
    "iterate": lambda s, phi: tp.iterate(s, phi, tp.l1_vector(s, np.ones(s.n)), 2),
    "op_norm_log": lambda s, phi: tp.op_norm_log(s, phi, 2),
    "op_norm": lambda s, phi: tp.op_norm(s, phi, 2),
    "norm_log_sequence": lambda s, phi: tp.norm_log_sequence(s, phi, 2),
    "log_spectral_radius": lambda s, phi: tp.log_spectral_radius(s, phi),
    "log_spectral_radius_batch": lambda s, phi: tp.log_spectral_radius_batch(s, phi[None]),
    "spectral_potential": lambda s, phi: tp.spectral_potential(s, phi, n_max=2),
    "power_gap": lambda s, phi: tp.power_gap(s, phi, 2),
    "property_residuals": lambda s, phi: tp.property_residuals(s, np.zeros(s.n), phi),
    "oscillation_partition": lambda s, phi: tp.oscillation_partition(s, phi, 2, 0.5),
    "local_young_check": lambda s, phi: tp.local_young_check(s, phi, _uniform(s), 2, 0.5),
    "local_young_checks": lambda s, phi: tp.local_young_checks(
        s, phi[None], _uniform(s).weights[None], [2], [0.5]
    ),
    "growth_constant": lambda s, phi: tp.growth_constant(s, phi, 0.5),
    "young_check": lambda s, phi: tp.young_check(s, phi, _uniform(s)),
    "young_checks": lambda s, phi: tp.young_checks(s, phi[None], _uniform(s).weights[None]),
    "variational_principle": lambda s, phi: tp.variational_principle(s, phi),
    "subgradient": lambda s, phi: tp.subgradient(s, phi, draws=3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(POTENTIAL_EXPORTS))
def test_every_export_takes_potentials_from_one_domain(name, bad):
    """Every export that takes a potential raises ``ValueError`` on a NaN
    or +inf value, through ``_require_potentials``, and never a numpy
    warning first; -inf is a potential value, the log of a vanishing
    weight."""
    s = twocyc()
    with pytest.raises(ValueError, match="potential"):
        POTENTIAL_EXPORTS[name](s, np.array([0.0, bad, 0.0, 0.0]))
    phi = np.array([0.3, -np.inf, -np.inf, 0.1])
    assert tp.op_norm_log(s, phi, 1) == 0.3
    assert all(tp.op_norm_log(s, phi, n) == -np.inf for n in (2, 3, 64, 100))
    assert tp.log_spectral_radius(s, phi) == -np.inf
