"""Finite measurable dynamical systems and their invariant measures.

A system is a finite set of atoms carrying nonnegative masses (the base
measure) and a total self-map.  Everything downstream, from weighted shift
operators to entropy functionals, runs on these systems, so this module also
exposes the functional-graph structure of the map: every atom falls onto a
unique terminal cycle, and the invariant probability functionals form the
convex hull of the uniform measures sitting on cycles inside the support.
Sweeps over consecutive horizons read the Birkhoff sums and the powers of
the map from one walk, ``orbit_sums``, which takes one step per horizon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ESSENTIAL = "essential"
FULL = "full"

EXACT_TOL = 1e-12


class InvalidSystemError(ValueError):
    """The null atoms are not closed under preimage, so no L1 shift exists."""


def _frozen(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """Atoms with masses and a total endomap, given as an index array."""

    atoms: tuple[str, ...]
    m: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be distinct")
        m = _frozen(self.m)
        alpha = _frozen(self.alpha, dtype=np.intp)
        n = len(atoms)
        if m.shape != (n,) or alpha.shape != (n,):
            raise ValueError("measure and map must match the atom count")
        if n == 0:
            raise ValueError("a system needs at least one atom")
        if not np.all(np.isfinite(m)) or m.min() < 0.0:
            raise ValueError("masses must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = m.sum()
        if not np.isfinite(total):
            raise ValueError("total mass must be finite")
        if total <= 0.0:
            raise ValueError("total mass must be positive")
        if alpha.min() < 0 or alpha.max() >= n:
            raise ValueError("map indices out of range")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return len(self.atoms)

    @cached_property
    def support(self) -> np.ndarray:
        mask = self.m > 0.0
        mask.setflags(write=False)
        return mask

    @cached_property
    def supported_indices(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.support), dtype=np.intp)

    @cached_property
    def log_m(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lm = np.log(self.m)
        lm.setflags(write=False)
        return lm

    @cached_property
    def decomposition(self) -> "CycleDecomposition":
        return _decompose(self)

    @cached_property
    def supported_cycle_arrays(self) -> tuple[np.ndarray, ...]:
        dec = self.decomposition
        return tuple(
            _frozen(c, dtype=np.intp)
            for c, ok in zip(dec.cycles, dec.supported)
            if ok
        )

    @cached_property
    def cycle_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Supported cycles grouped by length, shortest first.

        Each group is a pair: the positions of its cycles in
        ``supported_cycle_arrays`` and a (cycles, length) matrix whose rows
        are those cycles' atoms.
        """
        arrays = self.supported_cycle_arrays
        by_size: dict[int, list[int]] = {}
        for i, c in enumerate(arrays):
            by_size.setdefault(c.size, []).append(i)
        return tuple(
            (_frozen(pos, dtype=np.intp), _frozen([arrays[i] for i in pos], dtype=np.intp))
            for _, pos in sorted(by_size.items())
        )

    @cached_property
    def validation(self) -> "ValidationReport":
        return validate(self)


def make_system(m, alpha, atoms=None) -> FiniteSystem:
    """Build a system, defaulting atom labels to their indices."""
    m = np.asarray(m, dtype=float)
    if atoms is None:
        atoms = tuple(str(i) for i in range(len(m)))
    return FiniteSystem(tuple(atoms), m, np.asarray(alpha))


@dataclass(frozen=True, eq=False)
class Functional:
    """A linear functional given by one weight per atom.

    ``mode`` records which function space the functional acts on: ESSENTIAL
    functionals see classes of functions modulo null atoms, FULL functionals
    see every atom individually.
    """

    weights: np.ndarray
    mode: str = ESSENTIAL

    def __post_init__(self):
        if self.mode not in (ESSENTIAL, FULL):
            raise ValueError(f"unknown mode {self.mode!r}")
        w = _frozen(self.weights)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)


def functional(system: FiniteSystem, weights, mode: str = ESSENTIAL) -> Functional:
    """Canonical functional on ``system``; essential weights vanish on null atoms."""
    w = np.array(weights, dtype=float)
    if w.shape != (system.n,):
        raise ValueError("weight count must match the atom count")
    if mode == ESSENTIAL:
        w = np.where(system.support, w, 0.0)
    return Functional(w, mode)


def effective_weights(system: FiniteSystem, mu: Functional) -> np.ndarray:
    """Weights actually seen by the pairing, zeroed on null atoms in essential mode."""
    if mu.mode == ESSENTIAL:
        return np.where(system.support, mu.weights, 0.0)
    return mu.weights


def pair(system: FiniteSystem, mu: Functional, f) -> float:
    """Evaluate mu on the function f given atomwise."""
    return float(effective_weights(system, mu) @ np.asarray(f, dtype=float))


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    """Cycles of the endomap, each rotated to start at its smallest atom.

    ``cycle_of`` is the cycle id for atoms sitting on a cycle and None for
    tail atoms; ``terminal`` is the id of the cycle the orbit eventually
    enters, and ``entry_time`` the number of steps until it does.
    """

    cycles: tuple[tuple[int, ...], ...]
    cycle_of: tuple[int | None, ...]
    entry_time: tuple[int, ...]
    terminal: tuple[int, ...]
    supported: tuple[bool, ...]


def _decompose(system: FiniteSystem) -> CycleDecomposition:
    n = system.n
    alpha = system.alpha
    color = [0] * n  # 0 unseen, 1 on current path, 2 finished
    cycle_of: list[int | None] = [None] * n
    entry = [0] * n
    terminal = [0] * n
    raw_cycles: list[tuple[int, ...]] = []

    for start in range(n):
        if color[start]:
            continue
        path = []
        x = start
        while color[x] == 0:
            color[x] = 1
            path.append(x)
            x = int(alpha[x])
        if color[x] == 1:
            # closed a fresh cycle inside the current path
            i = path.index(x)
            cyc = path[i:]
            j = cyc.index(min(cyc))
            cyc = cyc[j:] + cyc[:j]
            cid = len(raw_cycles)
            raw_cycles.append(tuple(cyc))
            for a in cyc:
                color[a] = 2
                cycle_of[a] = cid
                entry[a] = 0
                terminal[a] = cid
            tail = path[:i]
        else:
            tail = path
        for a in reversed(tail):
            color[a] = 2
            nxt = int(alpha[a])
            entry[a] = entry[nxt] + 1
            terminal[a] = terminal[nxt]
            cycle_of[a] = None

    order = sorted(range(len(raw_cycles)), key=lambda c: raw_cycles[c][0])
    remap = {old: new for new, old in enumerate(order)}
    cycles = tuple(raw_cycles[old] for old in order)
    cycle_of = [None if c is None else remap[c] for c in cycle_of]
    terminal = [remap[c] for c in terminal]
    supported = tuple(bool(all(system.support[a] for a in cyc)) for cyc in cycles)
    return CycleDecomposition(
        cycles=cycles,
        cycle_of=tuple(cycle_of),
        entry_time=tuple(entry),
        terminal=tuple(terminal),
        supported=supported,
    )


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Boundedness constant of the shift and any support-closure violations."""

    constant: float
    violations: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(system: FiniteSystem) -> ValidationReport:
    """Report the least C with m(preimage of G) <= C m(G), and closure defects.

    A violation (x, y) is a supported atom x mapping onto a null atom y;
    systems with violations carry no bounded shift on L1 at all.
    """
    sup = system.supported_indices
    ratios = preimage_mass(system, system.m)[sup] / system.m[sup]
    feeding = np.flatnonzero(system.support & ~system.support[system.alpha])
    violations = tuple((int(x), int(system.alpha[x])) for x in feeding)
    return ValidationReport(constant=float(ratios.max()), violations=violations)


def require_valid(system: FiniteSystem) -> None:
    rep = system.validation
    if not rep.valid:
        raise InvalidSystemError(
            f"null atoms have supported preimages: {list(rep.violations)}"
        )


def alpha_power(system: FiniteSystem, n: int) -> np.ndarray:
    """Index array of the n-fold composition of the map."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    result = np.arange(system.n, dtype=np.intp)
    base = system.alpha
    while n:
        if n & 1:
            result = base[result]
        n >>= 1
        if n:
            base = base[base]
    return result


def preimage_mass(system: FiniteSystem, weights, an=None) -> np.ndarray:
    """Weight landing on each atom when weights[i] moves to atom an[i].

    ``an`` defaults to the map, giving the weight of every atom's preimage;
    ``alpha_power(system, n)`` gives n-step preimages.
    """
    an = system.alpha if an is None else an
    return np.bincount(an, weights=weights, minlength=system.n)


def log_preimage_mass(system: FiniteSystem, log_weights, an) -> np.ndarray:
    """``preimage_mass`` of e^log_weights in log form, -inf where nothing lands.

    Each atom's terms are shifted by their maximum before exponentiating, so
    Birkhoff sums in the thousands neither overflow nor underflow.
    """
    top = np.full(system.n, -np.inf)
    np.maximum.at(top, an, log_weights)
    hit = np.isfinite(top)
    shift = np.where(hit, top, 0.0)
    total = preimage_mass(system, np.exp(log_weights - shift[an]), an)
    out = np.full(system.n, -np.inf)
    out[hit] = shift[hit] + np.log(total[hit])
    return out


def orbit_sums(system: FiniteSystem, phi, n_max: int):
    """Yield (n, S_n phi, alpha^n) for n = 1..n_max, one map step per horizon.

    S_n phi is summed along the orbit in ``birkhoff``'s order and bits; the
    yielded arrays are never written to afterwards, so callers may keep them.
    """
    phi = np.asarray(phi, dtype=float)
    s = phi.astype(float, copy=True)
    an = system.alpha
    for n in range(1, n_max + 1):
        yield n, s, an
        if n < n_max:
            s = s + phi[an]
            an = system.alpha[an]


def birkhoff(system: FiniteSystem, phi, n: int) -> np.ndarray:
    """Sum of the potential along the first n orbit points of each atom,
    the last Birkhoff sum of ``orbit_sums``."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    return deque(orbit_sums(system, phi, n), maxlen=1)[0][1]


def is_invariant(system: FiniteSystem, mu: Functional) -> tuple[bool, float]:
    """Check mu is a positive normalized fixed point of composition with the map.

    Returns the verdict together with the worst per-atom defect of
    mu(preimage of y) = mu(y).
    """
    w = effective_weights(system, mu)
    worst = float(np.max(np.abs(preimage_mass(system, w) - w)))
    ok = (
        worst <= EXACT_TOL
        and w.min() >= -EXACT_TOL
        and abs(w.sum() - 1.0) <= EXACT_TOL
    )
    return ok, worst


def cycle_means(system: FiniteSystem, phi) -> np.ndarray:
    """Mean of phi over each supported cycle, in ``supported_cycle_arrays`` order.

    ``phi`` is one potential or a (k, n_atoms) batch; the means fill the
    last axis.  Pairing phi with a vertex of the invariant polytope is one
    such mean, so this costs one gather over the cycle atoms per distinct
    cycle length.  Each mean adds its cycle's terms in the order of
    ``phi[idx].mean()`` (``phis[:, idx].mean(axis=1)`` for a batch) and
    gives the same bits.
    """
    phi = np.asarray(phi, dtype=float)
    out = np.empty(phi.shape[:-1] + (len(system.supported_cycle_arrays),))
    for pos, rows in system.cycle_groups:
        out[..., pos] = phi[..., rows].sum(axis=-1) / rows.shape[1]
    return out


def cycle_measure(system: FiniteSystem, idx) -> Functional:
    """Uniform probability functional on the atoms of one cycle."""
    w = np.zeros(system.n)
    w[idx] = 1.0 / len(idx)
    return Functional(w, ESSENTIAL)


def invariant_vertices(system: FiniteSystem) -> list[Functional]:
    """Uniform measures on supported cycles: the extreme invariant functionals."""
    require_valid(system)
    return [cycle_measure(system, idx) for idx in system.supported_cycle_arrays]


def restrict_to_support(system: FiniteSystem) -> FiniteSystem:
    """The subsystem on supported atoms; identity when nothing is null."""
    require_valid(system)
    if bool(system.support.all()):
        return system
    keep = system.supported_indices
    new_index = np.full(system.n, -1, dtype=np.intp)
    new_index[keep] = np.arange(keep.size)
    return FiniteSystem(
        tuple(system.atoms[i] for i in keep),
        system.m[keep],
        new_index[system.alpha[keep]],
    )


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Nonnegative functions, one per row, summing to one at every atom."""

    members: np.ndarray

    def __post_init__(self):
        mem = _frozen(self.members)
        if mem.ndim != 2 or mem.shape[0] == 0:
            raise ValueError("members must form a nonempty 2d array")
        if not np.all(np.isfinite(mem)) or mem.min() < -0.0:
            raise ValueError("members must be finite and nonnegative")
        col = mem.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > EXACT_TOL:
            raise ValueError("member values must sum to 1 at every atom")
        object.__setattr__(self, "members", mem)

    @property
    def size(self) -> int:
        return self.members.shape[0]


def atomic_partition(system: FiniteSystem) -> PartitionOfUnity:
    return PartitionOfUnity(np.eye(system.n))


def trivial_partition(system: FiniteSystem) -> PartitionOfUnity:
    return PartitionOfUnity(np.ones((1, system.n)))
