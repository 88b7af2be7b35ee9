"""Samplers: the array forms make the draws of the object forms."""

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
    random_simplex_functional,
    random_simplex_weights,
    random_unit_function,
    random_unit_values,
)
from tentropy.system import ESSENTIAL, FULL, functional, make_system


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


def test_array_samplers_make_the_draws_of_the_object_samplers(system_pool, large_pool):
    """Three generators from one seed, drawing through the sampler as it
    was, the object form and the array form, make bitwise the same draws
    and end in the same state."""
    for s in system_pool + large_pool + [null_pair(), three_lengths()]:
        for reference, sampler, array_form, mode in SAMPLERS:
            if mode == FULL and s.support.all():
                continue
            gens = [np.random.default_rng(11) for _ in range(3)]
            for _ in range(5):
                want = reference(gens[0], s)
                got = sampler(gens[1], s)
                weights = array_form(gens[2], s)
                assert (want.mode, got.mode) == (mode, mode)
                assert want.weights.tobytes() == got.weights.tobytes()
                assert want.weights.tobytes() == weights.tobytes()
            states = [gen.bit_generator.state for gen in gens]
            assert states[0] == states[1] == states[2]
        gens = [np.random.default_rng(13) for _ in range(3)]
        for _ in range(5):
            want = reference_unit(gens[0], s)
            assert random_unit_function(gens[1], s).values.tobytes() == want.tobytes()
            assert random_unit_values(gens[2], s).tobytes() == want.tobytes()
        states = [gen.bit_generator.state for gen in gens]
        assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("k", range(1, 41))
def test_flat_dirichlet_replays_numpy_dirichlet(k):
    """The flat Dirichlet draw has the bits of ``rng.dirichlet(np.ones(k))``
    and leaves the generator in its state, over many seeds."""
    for seed in range(60):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _flat_dirichlet(mine, k).tobytes() == theirs.dirichlet(np.ones(k)).tobytes()
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
        assert _flat_dirichlet(np.random.default_rng(seed), 16).tobytes() == want.tobytes()
        moved += pairwise.tobytes() != want.tobytes()
    assert moved > 0
