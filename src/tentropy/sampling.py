"""Random instances for property sweeps: systems, potentials, measures.

Every generator takes a numpy Generator first so callers own the seeding.
Each sampler of functionals, unit functions or partitions has an array
form (the ``*_weights`` functions, ``random_unit_values`` and
``random_partition_members``) that makes the same generator calls and
returns the same bits as a plain array, building and validating no object,
for callers that fill stacks of draws; ``random_unit_stack`` draws k unit
functions at once.  Every flat Dirichlet draw goes through
``_flat_dirichlet``.
"""

from __future__ import annotations

import numpy as np

from .claims import NORM_FLOOR
from .spectral import L1Vector, _l1_norms, l1_vector
from .system import (
    FULL,
    FiniteSystem,
    Functional,
    PartitionOfUnity,
    functional,
    make_system,
    require_valid,
)


def random_system(rng, max_atoms: int = 8) -> FiniteSystem:
    """Draw a valid system with 1..max_atoms atoms.

    Roughly a quarter of multi-atom draws carry null atoms.  Null sets are
    repaired so the support stays forward-invariant: an atom whose image lost
    its mass loses its own as well, iterated to a fixed point.  A draw whose
    repair drains all mass falls back to a fully supported system.
    """
    n = int(rng.integers(1, max_atoms + 1))
    alpha = rng.integers(0, n, size=n)
    m = rng.uniform(0.2, 2.0, size=n)
    if n > 1 and rng.uniform() < 0.25:
        m = np.where(rng.uniform(size=n) < 0.35, 0.0, m)
        for _ in range(n):
            dead = (m > 0) & (m[alpha] == 0)
            if not dead.any():
                break
            m = np.where(dead, 0.0, m)
        if m.sum() == 0.0:
            m = rng.uniform(0.2, 2.0, size=n)
    return make_system(m, alpha)


def random_potential(rng, system: FiniteSystem, scale: float = 2.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=system.n)


def random_unit_values(rng, system: FiniteSystem) -> np.ndarray:
    """Values of ``random_unit_function``, with its generator calls and bits,
    as an array: no ``L1Vector`` is built."""
    for _ in range(8):
        v = np.where(system.support, rng.normal(size=system.n), 0.0)
        norm = float(np.abs(v) @ system.m)
        if norm > NORM_FLOOR:
            return v / norm
    idx = int(system.supported_indices[0])
    values = np.zeros(system.n)
    values[idx] = 1.0 / system.m[idx]
    return values


def random_unit_stack(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """k rows of ``random_unit_values``, with their generator calls and bits.

    One ``rng.normal`` call draws the normals of all k rows in order, and
    one ``spectral._l1_norms`` call gives each row the bits of its own norm.
    A row whose norm falls under ``NORM_FLOOR`` would have drawn again, so
    then the generator is rewound and the rows are drawn one by one.
    """
    state = rng.bit_generator.state
    v = np.where(system.support, rng.normal(size=(k, system.n)), 0.0)
    norms = _l1_norms(system, v)
    if np.all(norms > NORM_FLOOR):
        return v / norms[:, None]
    rng.bit_generator.state = state
    return np.array([random_unit_values(rng, system) for _ in range(k)])


def random_unit_function(rng, system: FiniteSystem) -> L1Vector:
    """A function of unit L1 norm, supported where the measure is."""
    return l1_vector(system, random_unit_values(rng, system))


def _flat_dirichlet(rng, k: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(k))`` with its bits and generator state.

    For shape 1 numpy draws k standard exponentials and scales them by
    1 / (their sum added left to right); ``np.add.accumulate`` adds in that
    order, where ``ndarray.sum`` (pairwise from 8 terms on) and the builtin
    ``sum`` (compensated from Python 3.12 on) round differently.  Skipping
    the Dirichlet wrapper's checks and conversions, a draw costs about a
    third of ``rng.dirichlet``.
    """
    e = rng.standard_exponential(k)
    return e * (1.0 / np.add.accumulate(e)[-1])


def random_invariant_weights(rng, system: FiniteSystem) -> np.ndarray:
    """Weights of ``random_invariant``, with its generator call and bits:
    one Dirichlet draw over the supported cycles, spread uniformly over the
    atoms of each.  The system is not validated and no object is built."""
    atoms, cycle, inverse_length = system.cycle_atom_index
    coef = _flat_dirichlet(rng, len(system.supported_cycle_arrays))
    weights = np.zeros(system.n)
    weights[atoms] = coef[cycle] * inverse_length
    return weights


def random_invariant(rng, system: FiniteSystem) -> Functional:
    """A point of the invariant polytope, Dirichlet-mixed over its vertices."""
    require_valid(system)
    return functional(system, random_invariant_weights(rng, system))


def random_functional_weights(rng, system: FiniteSystem) -> np.ndarray:
    """Weights of ``random_functional``, with its generator call and bits."""
    return np.where(system.support, rng.normal(0.0, 1.0, size=system.n), 0.0)


def random_functional(rng, system: FiniteSystem) -> Functional:
    """An ESSENTIAL functional with standard normal weights."""
    return functional(system, random_functional_weights(rng, system))


def perturbed_invariant_weights(rng, system: FiniteSystem) -> np.ndarray:
    """Weights of ``perturbed_invariant``, with its generator calls and bits."""
    base = random_invariant_weights(rng, system)
    noise = rng.uniform(-0.25, 0.25, size=system.n)
    return np.where(system.support, base + noise, 0.0)


def perturbed_invariant(rng, system: FiniteSystem) -> Functional:
    """An invariant functional pushed off the polytope by uniform noise."""
    require_valid(system)
    return functional(system, perturbed_invariant_weights(rng, system))


def random_simplex_weights(rng, system: FiniteSystem) -> np.ndarray:
    """Weights of ``random_simplex_functional``, with its generator call and
    bits: one Dirichlet draw over the supported atoms."""
    idx = system.supported_indices
    weights = np.zeros(system.n)
    weights[idx] = _flat_dirichlet(rng, idx.size)
    return weights


def random_simplex_functional(rng, system: FiniteSystem) -> Functional:
    """A nonnegative normalized ESSENTIAL functional, Dirichlet over the
    supported atoms."""
    return functional(system, random_simplex_weights(rng, system))


def random_null_charging_weights(rng, system: FiniteSystem) -> np.ndarray:
    """Weights of ``random_null_charging`` (a FULL functional), with its
    generator calls and bits."""
    nulls = np.flatnonzero(~system.support)
    if nulls.size == 0:
        raise ValueError("system has no null atoms to charge")
    theta = float(rng.uniform(0.05, 0.5))
    weights = (1.0 - theta) * random_invariant_weights(rng, system)
    weights[int(rng.choice(nulls))] += theta
    return weights


def random_null_charging(rng, system: FiniteSystem) -> Functional:
    """A normalized nonnegative FULL functional putting mass on a null atom."""
    require_valid(system)
    return functional(system, random_null_charging_weights(rng, system), mode=FULL)


def random_partition_members(
    rng, system: FiniteSystem, members: int | None = None
) -> np.ndarray:
    """Members of ``random_partition``, with its generator calls and bits,
    as a (size, n_atoms) array: no ``PartitionOfUnity`` is built, so the
    caller validates them (``system._require_partitions``)."""
    k = int(rng.integers(2, system.n + 2)) if members is None else int(members)
    raw = rng.uniform(size=(k, system.n)) + 0.05
    return raw / raw.sum(axis=0)


def random_partition(rng, system: FiniteSystem, members: int | None = None) -> PartitionOfUnity:
    """A soft partition of unity with a 0.05 floor keeping members positive."""
    return PartitionOfUnity(random_partition_members(rng, system, members))
