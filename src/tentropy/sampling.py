"""Random instances for property sweeps: systems, potentials, measures.

Every generator takes a numpy Generator first so callers own the seeding.
Each law of potentials, functionals, unit functions and partitions has one
stacked sampler ``(rng, system, k)`` that draws k rows with one vector call
per generator method it uses, building and validating no object; the
object form of a law (``random_potential``, ``random_invariant``,
``random_unit_function``, ``random_partition``, ...) is the first row of a
stack of one, with its bits and its generator state.  Every flat
Dirichlet draw goes through ``_flat_dirichlet``.
"""

from __future__ import annotations

from itertools import accumulate

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


def random_potentials(rng, system: FiniteSystem, k: int, scale: float = 2.0) -> np.ndarray:
    """k potentials, uniform on [-scale, scale] at every atom."""
    return rng.uniform(-scale, scale, size=(k, system.n))


def random_potential(rng, system: FiniteSystem, scale: float = 2.0) -> np.ndarray:
    return random_potentials(rng, system, 1, scale)[0]


def random_unit_stack(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """k functions of unit L1 norm, supported where the measure is.

    One ``rng.normal`` call draws the k rows, and one ``spectral._l1_norms``
    call gives each row the bits of its own norm.  A row whose norm falls
    under ``NORM_FLOOR`` becomes the unit indicator of the first supported
    atom.
    """
    v = np.where(system.support, rng.normal(size=(k, system.n)), 0.0)
    norms = _l1_norms(system, v)
    small = norms <= NORM_FLOOR
    if small.any():
        idx = int(system.supported_indices[0])
        v[small] = 0.0
        v[small, idx] = 1.0 / system.m[idx]
        norms[small] = 1.0
    return v / norms[:, None]


def random_unit_function(rng, system: FiniteSystem) -> L1Vector:
    """A function of unit L1 norm, supported where the measure is."""
    return l1_vector(system, random_unit_stack(rng, system, 1)[0])


def _flat_dirichlet(rng, k: int, size: int) -> np.ndarray:
    """k rows of ``rng.dirichlet(np.ones(size))``, each with its bits.

    For shape 1 numpy draws ``size`` standard exponentials and scales them
    by 1 / (their sum added left to right); one ``standard_exponential``
    call draws the k rows, and ``np.add.accumulate`` adds each row in that
    order, where ``ndarray.sum`` (pairwise from 8 terms on) and the builtin
    ``sum`` (compensated from Python 3.12 on) round differently.
    """
    e = rng.standard_exponential((k, size))
    return e * (1.0 / np.add.accumulate(e, axis=1)[:, -1:])


def random_invariant_weights(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """Weights of k points of the invariant polytope: per row, one Dirichlet
    draw over the supported cycles, spread uniformly over the atoms of
    each.  The system is not validated."""
    atoms, cycle, inverse_length = system.cycle_atom_index
    coef = _flat_dirichlet(rng, k, len(system.supported_cycle_arrays))
    weights = np.zeros((k, system.n))
    weights[:, atoms] = coef[:, cycle] * inverse_length
    return weights


def random_invariant(rng, system: FiniteSystem) -> Functional:
    """A point of the invariant polytope, Dirichlet-mixed over its vertices."""
    require_valid(system)
    return functional(system, random_invariant_weights(rng, system, 1)[0])


def random_functional_weights(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """Weights of k functionals, standard normal on the supported atoms."""
    return np.where(system.support, rng.normal(0.0, 1.0, size=(k, system.n)), 0.0)


def random_functional(rng, system: FiniteSystem) -> Functional:
    """An ESSENTIAL functional with standard normal weights."""
    return functional(system, random_functional_weights(rng, system, 1)[0])


def perturbed_invariant_weights(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """Weights of k invariant functionals pushed off the polytope by uniform
    noise on the supported atoms."""
    base = random_invariant_weights(rng, system, k)
    noise = rng.uniform(-0.25, 0.25, size=(k, system.n))
    return np.where(system.support, base + noise, 0.0)


def perturbed_invariant(rng, system: FiniteSystem) -> Functional:
    """An invariant functional pushed off the polytope by uniform noise."""
    require_valid(system)
    return functional(system, perturbed_invariant_weights(rng, system, 1)[0])


def random_simplex_weights(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """Weights of k functionals, each one Dirichlet draw over the supported
    atoms."""
    idx = system.supported_indices
    weights = np.zeros((k, system.n))
    weights[:, idx] = _flat_dirichlet(rng, k, idx.size)
    return weights


def random_simplex_functional(rng, system: FiniteSystem) -> Functional:
    """A nonnegative normalized ESSENTIAL functional, Dirichlet over the
    supported atoms."""
    return functional(system, random_simplex_weights(rng, system, 1)[0])


def random_null_charging_weights(rng, system: FiniteSystem, k: int) -> np.ndarray:
    """Weights of k normalized nonnegative FULL functionals, each an
    invariant point scaled by 1 - theta plus theta on one null atom."""
    nulls = np.flatnonzero(~system.support)
    if nulls.size == 0:
        raise ValueError("system has no null atoms to charge")
    theta = rng.uniform(0.05, 0.5, size=k)
    weights = (1.0 - theta)[:, None] * random_invariant_weights(rng, system, k)
    weights[np.arange(k), rng.choice(nulls, size=k)] += theta
    return weights


def random_null_charging(rng, system: FiniteSystem) -> Functional:
    """A normalized nonnegative FULL functional putting mass on a null atom."""
    require_valid(system)
    return functional(system, random_null_charging_weights(rng, system, 1)[0], mode=FULL)


def random_partition_members(
    rng, system: FiniteSystem, k: int, members: int | None = None
) -> list[np.ndarray]:
    """The members of k soft partitions of unity, each a (size, n_atoms)
    array: one draw of the k sizes (2 to n_atoms + 1, unless ``members``
    fixes them) and one uniform draw of all rows, with a 0.05 floor keeping
    members positive.  No ``PartitionOfUnity`` is built, so the caller
    validates them (``system._require_partitions``)."""
    sizes = rng.integers(2, system.n + 2, size=k).tolist() if members is None else [members] * k
    raw = rng.uniform(size=(sum(sizes), system.n)) + 0.05
    parts = [raw[end - size : end] for size, end in zip(sizes, accumulate(sizes))]
    return [part / part.sum(axis=0) for part in parts]


def random_partition(rng, system: FiniteSystem, members: int | None = None) -> PartitionOfUnity:
    """A soft partition of unity with a 0.05 floor keeping members positive."""
    return PartitionOfUnity(random_partition_members(rng, system, 1, members)[0])
