"""Samplers: each object form is the first row of a stack of one, with the
draws of the sampler as it was, and each stacked sampler draws rows of its
law."""

import numpy as np
import pytest

from tentropy.fixtures import null_pair
from tentropy.sampling import (
    _flat_dirichlet,
    perturbed_invariant,
    perturbed_invariant_weights,
    random_functional,
    random_functional_weights,
    random_invariant,
    random_invariant_weights,
    random_null_charging,
    random_null_charging_weights,
    random_partition,
    random_partition_members,
    random_simplex_functional,
    random_simplex_weights,
    random_unit_function,
    random_unit_stack,
)
from tentropy.system import (
    ESSENTIAL,
    FULL,
    PartitionOfUnity,
    functional,
    invariance,
    make_system,
)


def reference_invariant(rng, s):
    """``random_invariant`` as it was: one Dirichlet draw over the supported
    cycles, spread over their atoms by a loop over the cycle groups."""
    coef = rng.dirichlet(np.ones(len(s.supported_cycle_arrays)))
    weights = np.zeros(s.n)
    for pos, rows in s.cycle_groups:
        weights[rows] = coef[pos, None] * (1.0 / rows.shape[1])
    return functional(s, weights)


def reference_simplex(rng, s):
    """``random_simplex_functional`` as it was: one Dirichlet draw over the
    supported atoms."""
    weights = np.zeros(s.n)
    weights[s.supported_indices] = rng.dirichlet(np.ones(s.supported_indices.size))
    return functional(s, weights)


def reference_functional(rng, s):
    return functional(s, rng.normal(0.0, 1.0, size=s.n))


def reference_perturbed(rng, s):
    base = reference_invariant(rng, s)
    return functional(s, base.weights + rng.uniform(-0.25, 0.25, size=s.n))


def reference_null_charging(rng, s):
    nulls = np.flatnonzero(~s.support)
    theta = float(rng.uniform(0.05, 0.5))
    weights = (1.0 - theta) * reference_invariant(rng, s).weights
    weights[int(rng.choice(nulls))] += theta
    return functional(s, weights, mode=FULL)


def reference_unit(rng, s):
    for _ in range(8):
        f = np.where(s.support, rng.normal(size=s.n), 0.0)
        norm = float(np.abs(f) @ s.m)
        if norm > 1e-9:
            return np.where(s.support, f / norm, 0.0)
    values = np.zeros(s.n)
    idx = int(s.supported_indices[0])
    values[idx] = 1.0 / s.m[idx]
    return values


def reference_partition(rng, s, members=None):
    k = int(rng.integers(2, s.n + 2)) if members is None else members
    raw = rng.uniform(size=(k, s.n)) + 0.05
    return PartitionOfUnity(raw / raw.sum(axis=0))


def three_lengths():
    """Supported cycles of lengths 1, 2 and 3 (twice, apart in atom order), a
    tail into a 3-cycle and a null fixed point."""
    return make_system(
        [0.5, 1.0, 2.0, 0.3, 0.7, 1.1, 1.3, 0.9, 0.4, 1.6, 0.0],
        [0, 2, 1, 4, 5, 3, 3, 8, 9, 7, 10],
    )


SAMPLERS = [
    (reference_invariant, random_invariant, random_invariant_weights, ESSENTIAL),
    (reference_functional, random_functional, random_functional_weights, ESSENTIAL),
    (reference_perturbed, perturbed_invariant, perturbed_invariant_weights, ESSENTIAL),
    (reference_null_charging, random_null_charging, random_null_charging_weights, FULL),
    (reference_simplex, random_simplex_functional, random_simplex_weights, ESSENTIAL),
]


def assert_same_unit_draws(s, seed):
    """k unit functions drawn one by one as they were, as objects and as
    one stack, for k in 1, 5, 27 and 200: the same bits and the same final
    state, on a system where no norm falls under ``NORM_FLOOR``."""
    for k in (1, 5, 27, 200):
        gens = [np.random.default_rng(seed) for _ in range(3)]
        want = np.array([reference_unit(gens[0], s) for _ in range(k)])
        objects = np.array([random_unit_function(gens[1], s).values for _ in range(k)])
        stack = random_unit_stack(gens[2], s, k)
        assert want.tobytes() == objects.tobytes() == stack.tobytes()
        states = [gen.bit_generator.state for gen in gens]
        assert states[0] == states[1] == states[2]


def test_array_samplers_make_the_draws_of_the_object_samplers(system_pool, large_pool):
    """Generators from one seed, drawing through the sampler as it was, the
    object form and a stacked sampler's stack of one, make bitwise the same
    draws (the object form's is row 0 of the stack) and end in the same
    state; so do unit functions, drawn one by one or as one stack."""
    for s in system_pool + large_pool + [null_pair(), three_lengths()]:
        for reference, sampler, stacked, mode in SAMPLERS:
            if mode == FULL and s.support.all():
                continue
            gens = [np.random.default_rng(11) for _ in range(3)]
            for _ in range(5):
                want = reference(gens[0], s)
                got = sampler(gens[1], s)
                weights = stacked(gens[2], s, 1)
                assert (want.mode, got.mode) == (mode, mode)
                assert weights.shape == (1, s.n)
                assert want.weights.tobytes() == got.weights.tobytes()
                assert want.weights.tobytes() == weights[0].tobytes()
            states = [gen.bit_generator.state for gen in gens]
            assert states[0] == states[1] == states[2]
        assert_same_unit_draws(s, 13)
        gens = [np.random.default_rng(17) for _ in range(3)]
        for members in (None, 3):
            want = reference_partition(gens[0], s, members).members
            got = random_partition(gens[1], s, members).members
            stack = random_partition_members(gens[2], s, 1, members)
            assert len(stack) == 1
            assert want.tobytes() == got.tobytes() == stack[0].tobytes()
        states = [gen.bit_generator.state for gen in gens]
        assert states[0] == states[1] == states[2]


def test_stacked_samplers_draw_rows_of_their_law(system_pool):
    """A stack of k rows, k = 0 included, holds k draws of the law: points
    of the invariant polytope, perturbed and normal functionals that vanish
    off the support, Dirichlet points of the support, null charges of 0.05
    to 0.5 and partitions of 2 to n_atoms + 1 members summing to 1."""
    gen = np.random.default_rng(23)
    for s in system_pool + [null_pair(), three_lengths()]:
        for k in (0, 1, 6):
            inv = random_invariant_weights(gen, s, k)
            assert inv.shape == (k, s.n)
            assert invariance(s, inv)[0].all()
            noisy = perturbed_invariant_weights(gen, s, k)
            assert noisy.shape == (k, s.n) and np.all(noisy[:, ~s.support] == 0.0)
            simplex = random_simplex_weights(gen, s, k)
            assert np.all(simplex[:, ~s.support] == 0.0)
            assert np.allclose(simplex.sum(axis=1), 1.0)
            normals = random_functional_weights(gen, s, k)
            assert normals.shape == (k, s.n) and np.all(normals[:, ~s.support] == 0.0)
            parts = random_partition_members(gen, s, k)
            assert len(parts) == k
            for members in parts:
                assert 2 <= len(members) <= s.n + 1
                assert np.allclose(members.sum(axis=0), 1.0)
            if not s.support.all():
                charged = random_null_charging_weights(gen, s, k)
                theta = charged[:, ~s.support].sum(axis=1)
                assert np.all((theta >= 0.05) & (theta <= 0.5))
                assert np.allclose(charged.sum(axis=1), 1.0)


def test_unit_stack_takes_the_indicator_where_a_norm_is_too_small():
    """Supported masses of 1e-12 put every norm under ``NORM_FLOOR``, so
    every row of a stack is the unit indicator of the first supported
    atom; on a system with normal masses no row is."""
    s = make_system([1e-12, 2e-12, 0.0, 1.5e-12], [1, 0, 2, 3])
    stack = random_unit_stack(np.random.default_rng(19), s, 5)
    assert (stack == np.array([1e12, 0.0, 0.0, 0.0])).all()
    s = three_lengths()
    stack = random_unit_stack(np.random.default_rng(19), s, 5)
    assert (np.count_nonzero(stack, axis=1) == s.support.sum()).all()
    assert np.allclose(np.abs(stack) @ s.m, 1.0)


@pytest.mark.parametrize("k", range(1, 41))
def test_flat_dirichlet_replays_numpy_dirichlet(k):
    """Each row of a stack of flat Dirichlet draws has the bits of one
    ``rng.dirichlet(np.ones(k))`` call, in order, and the stack leaves the
    generator in their state, over many seeds."""
    for seed in range(60):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.array([theirs.dirichlet(np.ones(k)) for _ in range(3)])
        assert _flat_dirichlet(mine, 3, k).tobytes() == want.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_flat_dirichlet_normalizes_by_the_sequential_sum():
    """From 8 terms on, ``ndarray.sum`` adds pairwise and rounds differently
    from numpy's Dirichlet, which adds left to right; the helper keeps the
    Dirichlet's bits where the pairwise sum would move them."""
    moved = 0
    for seed in range(200):
        e = np.random.default_rng(seed).standard_exponential(16)
        pairwise = e * (1.0 / e.sum())
        want = np.random.default_rng(seed).dirichlet(np.ones(16))
        got = _flat_dirichlet(np.random.default_rng(seed), 1, 16)[0]
        assert got.tobytes() == want.tobytes()
        moved += pairwise.tobytes() != want.tobytes()
    assert moved > 0
