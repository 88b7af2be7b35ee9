"""Finite measurable dynamical systems and their invariant measures.

A system is a finite set of atoms carrying nonnegative masses (the base
measure) and a total self-map.  Everything downstream, from weighted shift
operators to entropy functionals, runs on these systems, so this module also
exposes the functional-graph structure of the map: every atom falls onto a
unique terminal cycle, and the invariant probability functionals form the
convex hull of the uniform measures sitting on cycles inside the support.
One horizon reads its Birkhoff sums and power of the map from doubling
tables, ``_transport``, in O(N log n).  A sweep that needs the per-atom sums
at every horizon 1..n_max reads them from one walk, ``orbit_sums``, which
takes one step per horizon; a sweep of norms pushes masses over the
shrinking image of alpha^n instead (``spectral.norm_log_sequence``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .claims import EXACT_TOL

ESSENTIAL = "essential"
FULL = "full"


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
    def cycle_atom_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every atom of a supported cycle, the position of its cycle in
        ``supported_cycle_arrays`` and the reciprocal of that cycle's length:
        one scatter spreads a value per cycle uniformly over its atoms."""
        arrays = self.supported_cycle_arrays
        sizes = np.array([c.size for c in arrays], dtype=np.intp)
        atoms = np.concatenate([np.empty(0, dtype=np.intp), *arrays])
        return (
            _frozen(atoms, dtype=np.intp),
            _frozen(np.repeat(np.arange(sizes.size), sizes), dtype=np.intp),
            _frozen(np.repeat(1.0 / sizes, sizes)),
        )

    @cached_property
    def cycle_columns(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """The supported-cycle atoms in increasing order, and
        ``cycle_groups`` with each atom replaced by its place in that list:
        the groups of a stack that holds one column per supported-cycle
        atom and no other.  A mask gives the order: a first ``np.sort``
        call pages in about 0.26 MB of numpy's sort kernels."""
        on = np.zeros(self.n, dtype=bool)
        on[self.cycle_atom_index[0]] = True
        atoms = np.flatnonzero(on)
        place = np.empty(self.n, dtype=np.intp)
        place[atoms] = np.arange(atoms.size)
        return _frozen(atoms, dtype=np.intp), tuple(
            (pos, _frozen(place[rows], dtype=np.intp)) for pos, rows in self.cycle_groups
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


def _pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row of two (k, n) stacks, with its bits.

    Each row is a (1, n) by (n, 1) product, which numpy hands to the same
    ``ddot`` as the product of the two rows, at the rows' own strides; a
    row of ``b`` may be broadcast across the stack.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class CycleDecomposition:
    """Cycles of the endomap, each rotated to start at its smallest atom.

    The per-atom fields are frozen intp arrays: ``cycle_of`` is the cycle id
    for atoms sitting on a cycle and -1 for tail atoms; ``terminal`` is the
    id of the cycle the orbit eventually enters, and ``entry_time`` the
    number of steps until it does.
    """

    cycles: tuple[tuple[int, ...], ...]
    cycle_of: np.ndarray
    entry_time: np.ndarray
    terminal: np.ndarray
    supported: tuple[bool, ...]

    def __post_init__(self):
        for name in ("cycle_of", "entry_time", "terminal"):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype=np.intp))


def _decompose(system: FiniteSystem) -> CycleDecomposition:
    """The cycle decomposition by pointer jumping, in O(N log N).

    The doubling tables alpha^(2^k), as ``_transport`` builds them, carry
    the minimum over the first 2^k orbit points; once 2^k >= N, the image
    of alpha^(2^k) is the set of cycle atoms and each of them holds the
    smallest atom of its cycle, its head.  Heads in increasing order give
    the cycle ids.  ``_first_root`` to the cycle atoms gives every entry
    time and terminal cycle, and to the heads each cycle atom's place on
    its cycle, so one ``np.lexsort`` lists every cycle from its head.
    """
    n = system.n
    atoms = np.arange(n)
    low, step = atoms, system.alpha
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[step] = True
    heads = on_cycle & (low == atoms)
    cycle_of = np.where(on_cycle, (np.cumsum(heads) - 1)[low], -1)
    cyc = np.flatnonzero(on_cycle)
    cyc_id = cycle_of[cyc]
    entry, root = _first_root(system.alpha, on_cycle)
    to_head, _ = _first_root(system.alpha, heads)
    lengths = np.bincount(cyc_id)
    place = -to_head[cyc] % lengths[cyc_id]
    listed = cyc[np.lexsort((place, cyc_id))].tolist()
    ends = np.cumsum(lengths).tolist()
    unsupported = np.bincount(cyc_id[~system.support[cyc]], minlength=lengths.size)
    return CycleDecomposition(
        cycles=tuple(tuple(listed[e - size : e]) for e, size in zip(ends, lengths.tolist())),
        cycle_of=cycle_of,
        entry_time=entry,
        terminal=cycle_of[root],
        supported=tuple((unsupported == 0).tolist()),
    )


def _first_root(alpha: np.ndarray, root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each atom, the steps along ``alpha`` to the first atom of its
    orbit where the mask ``root`` holds, and that atom; every orbit must
    reach one.  Pointer jumping on the map that stops at the roots: each
    round doubles the steps taken, so it ends after O(log N) rounds."""
    steps = (~root).astype(np.intp)
    ahead = np.where(root, np.arange(alpha.size), alpha)
    while not root[ahead].all():
        steps = steps + steps[ahead]
        ahead = ahead[ahead]
    return steps, ahead


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
    """Index array of the n-fold composition of the map: the index half of
    the transport at horizon n, built by doubling in O(N log n) for every
    n >= 0.  Indices are exact, so it equals the ``alpha^n`` of the
    ``orbit_sums`` walk.  ``ValueError`` unless n is an integer."""
    return _transport(system, None, n)[1]


def preimage_mass(system: FiniteSystem, weights, an=None) -> np.ndarray:
    """Weight landing on each atom when weights[i] moves to atom an[i].

    ``an`` defaults to the map, giving the weight of every atom's preimage;
    ``alpha_power(system, n)`` gives n-step preimages.  ``weights`` is one
    row or a (k, len(an)) stack sharing ``an``; row r's weight moving to
    atom y lands in bin y + n_atoms r of one ``np.bincount``, and each bin
    adds its terms in atom order, so every row gets the bits of its own
    call.  The result has the shape of ``weights`` with n_atoms columns.
    """
    an = system.alpha if an is None else an
    weights = np.asarray(weights, dtype=float)
    bins, size = _stacked_bins(system.n, an, weights)
    push = np.bincount(bins, weights=weights.ravel(), minlength=size)
    return push.reshape(weights.shape[:-1] + (system.n,))


def _stacked_bins(size: int, to, weights: np.ndarray):
    """The bin of each term of ``weights`` flattened, and the bin count,
    when column i of each row moves to bin ``to[i]`` of ``size``.

    Row r's term moving to bin y lands in bin y + size r, so one row's
    bins are ``to`` itself, and so are those of a stack of one.
    """
    if weights.ndim == 1 or weights.shape[0] == 1:
        return to, size
    rows = weights.shape[0]
    return (to + size * np.arange(rows)[:, None]).ravel(), rows * size


def log_preimage_mass(system: FiniteSystem, log_weights, an) -> np.ndarray:
    """``preimage_mass`` of e^log_weights in log form, -inf where nothing lands.

    Each atom's terms are shifted by their maximum before exponentiating, so
    Birkhoff sums in the thousands neither overflow nor underflow.  A
    (k, len(an)) stack gives each row the bits of its own call, with the
    bins of ``preimage_mass``.
    """
    return _log_push(np.asarray(log_weights, dtype=float), an, system.n)


def _log_push(log_weights: np.ndarray, to: np.ndarray, size: int) -> np.ndarray:
    """The arithmetic of ``log_preimage_mass`` into ``size`` bins, column i
    of each row moving to bin ``to[i]``: the bins are the atoms, or the
    places of a compacted image in the transfer sweep of
    ``spectral.norm_log_sequence``."""
    bins, total_size = _stacked_bins(size, to, log_weights)
    terms = log_weights.ravel()
    top = np.full(total_size, -np.inf)
    np.maximum.at(top, bins, terms)
    # only the bins where mass landed are shifted and take a log; a -inf
    # term adds an exact zero to its bin
    landed = np.flatnonzero(np.isfinite(top))
    shift = np.zeros(total_size)
    shift[landed] = top[landed]
    total = np.bincount(bins, weights=np.exp(terms - shift[bins]), minlength=total_size)
    top[landed] += np.log(total[landed])
    return top.reshape(log_weights.shape[:-1] + (size,))


# Float64 entries in one chunk of a stack of draws: 1 MiB.
_CHUNK_ENTRIES = 2**17

# Draws per block of a certify check's stream (``certify._Draws``), and the
# floor and step of ``_chunk_rows``, so every chunk holds whole blocks.
_BLOCK = 8


def _chunk_rows(entries: int) -> int:
    """Draws per chunk of a stack of draws swept in chunks, where one draw
    adds ``entries`` floats: n_atoms for a row of a (draws, n_atoms) stack,
    or what a draw of an inner-problem check holds.  ``_CHUNK_ENTRIES``
    over entries, rounded down to a multiple of ``_BLOCK`` (8) and at least
    ``_BLOCK``, so a sweep holds O(_CHUNK_ENTRIES + 8 * entries) floats: at
    N <= 12, one chunk holds 10,920 rows of N atoms or more.

    OpenBLAS's dgemv takes rows in groups of 4, so with one BLAS thread a
    product on chunks of 8k rows gives every row the bits of one product
    over all rows.
    """
    return max(_BLOCK, _CHUNK_ENTRIES // entries // _BLOCK * _BLOCK)


def _horizon_rows(ns) -> list[tuple[int, np.ndarray]]:
    """Each value of a (k,) integer array in increasing order, with the rows
    that hold it in increasing order: the draws of each horizon.  A stable
    sort, as ``np.unique`` would import ``numpy.ma``."""
    ns = np.asarray(ns)
    order = np.argsort(ns, kind="stable")
    cuts = np.flatnonzero(np.diff(ns[order])) + 1
    return [(int(ns[rows[0]]), rows) for rows in np.split(order, cuts) if rows.size]


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an integer array, never truncated: ``ValueError`` unless
    they are integers (``what`` names them in the message)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be an integer")
    return a.astype(np.intp)


def _horizon(n, least: int = 1, what: str = "horizon") -> int:
    """One horizon as an int: ``ValueError`` unless ``n`` is an integer
    (not a float, not a bool) of at least ``least`` (``what`` names it in
    the message)."""
    a = _integers(n, what)
    if a.ndim:
        raise ValueError(f"{what} must be one integer")
    if a < least:
        raise ValueError(f"{what} must be at least {least}")
    return int(a)


def _seed(seed) -> int:
    """The seed as an int: ``ValueError`` unless it is an integer (not a
    bool) in [0, 2**64), the range of a Philox key word.  The one rule for
    every seed, from the library or the command line."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError("seed must be an integer")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2**64)")
    return int(seed)


def _require_positive(values, what: str) -> None:
    """``ValueError`` unless every value is finite and positive: the rule
    for every eps and bucket width (``what`` names them in the message)."""
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise ValueError(f"{what} must be finite and positive")


def _require_potentials(values) -> np.ndarray:
    """``values`` as a float array: ``ValueError`` if any value is NaN or
    +inf.  A potential may be -inf, the log of a weight that vanishes."""
    a = np.asarray(values, dtype=float)
    # the method form costs about 1 us less than np.all on a small array
    if not (a < np.inf).all():
        raise ValueError("potential values must not be NaN or +inf")
    return a


def _columns(a: np.ndarray, idx) -> np.ndarray:
    """``a[..., idx]`` for one row or a (k, n) stack: entries idx of each row.

    Plain indexing of one row costs a third of the ``...`` form, which adds
    up over the steps of a long orbit walk and of a norm sequence.
    """
    return a[idx] if a.ndim == 1 else a[:, idx]


def orbit_sums(system: FiniteSystem, phi, n_max: int):
    """Yield (n, S_n phi, alpha^n) for n = 1..n_max, one map step per horizon:
    the route of a sweep that reads the per-atom sums at every horizon.

    S_n phi adds the orbit terms left to right, and ``birkhoff``, which
    reads one horizon from doubling tables, agrees with it within roundoff.
    The yielded arrays are never written to afterwards, so callers may keep
    them.  ``phi`` is one potential or a (k, n_atoms) stack walked
    together, each row with the bits of its own walk.  ``ValueError``
    unless n_max is an integer and phi is a potential
    (``_require_potentials``), raised when the walk starts.
    """
    n_max = _horizon(n_max, least=0)
    phi = _require_potentials(phi)
    s = phi.astype(float, copy=True)
    an = system.alpha
    for n in range(1, n_max + 1):
        yield n, s, an
        if n < n_max:
            s = s + _columns(phi, an)
            an = system.alpha[an]


def birkhoff(system: FiniteSystem, phi, n: int) -> np.ndarray:
    """Sum of the potential along the first n orbit points of each atom,
    from the doubling tables of ``_transport``; the ``orbit_sums`` walk
    agrees with it within roundoff.  ``ValueError`` unless n is an integer
    of at least 1 and phi is a potential (``_require_potentials``).
    """
    return _transport(system, phi, n)[0]


def _transport(system: FiniteSystem, phi, n) -> tuple[np.ndarray | None, np.ndarray]:
    """(S_n phi, alpha^n) at one horizon n, by doubling in O(N log n).

    Binary lifting carries the tables (S_(2^k) phi, alpha^(2^k)) and folds
    in one of them per set bit of n: S_(m+2^k) = S_m + S_(2^k) o alpha^m.
    ``phi`` is one potential or a (k, n_atoms) stack read through
    ``_columns``, so each row keeps the bits of its own call; ``phi=None``
    builds the index half alone, at every n >= 0.  ``ValueError`` unless
    phi is a potential (``_require_potentials``).  The returned arrays are
    new and never written to afterwards.
    """
    n = _horizon(n, least=0 if phi is None else 1)
    if phi is not None:
        phi = _require_potentials(phi)
    s = None
    an = np.arange(system.n, dtype=np.intp)
    table, step = phi, system.alpha
    while n:
        if n & 1:
            if phi is not None:
                s = table if s is None else s + _columns(table, an)
            an = step[an]
        n >>= 1
        if n:
            if phi is not None:
                table = table + _columns(table, step)
            step = step[step]
    if phi is not None and s is phi:
        s = phi.copy()  # n = 1: hand back S_1 phi, not the caller's array
    return s, an


def is_invariant(system: FiniteSystem, mu: Functional) -> tuple[bool, float]:
    """Check mu is a positive normalized fixed point of composition with the map.

    Returns the verdict together with the worst per-atom defect of
    mu(preimage of y) = mu(y): ``invariance`` on a stack of one.
    """
    ok, worst = invariance(system, effective_weights(system, mu)[None])
    return bool(ok[0]), float(worst[0])


def invariance(system: FiniteSystem, weights) -> tuple[np.ndarray, np.ndarray]:
    """``is_invariant`` of each row of a (k, n_atoms) stack of effective weights.

    Returns the (k,) verdicts and worst defects, read from
    ``_polytope_constraints``: a charge on a null atom does not count.
    """
    con = _polytope_constraints(system, weights)
    return ~con.failed[1:].any(axis=0), con.worst


@dataclass(frozen=True, eq=False)
class _Constraints:
    """The invariant polytope's constraints on each row of a (k, n_atoms)
    stack of effective weights w."""

    failed: np.ndarray  # (4, k): null charge, negativity, normalization, invariance
    charges: np.ndarray  # (k, n_atoms): the null atoms charged beyond EXACT_TOL
    gap: np.ndarray  # (k,): 1 - total
    defect: np.ndarray  # (k, n_atoms): preimage_mass(w) - w
    worst: np.ndarray  # (k,): the largest |defect|


def _polytope_constraints(system: FiniteSystem, weights) -> _Constraints:
    """Every polytope constraint of each row of a stack of effective
    weights, tested once at ``EXACT_TOL`` and listed in the order of the
    divergence witnesses; the defects of all rows come from one stacked
    ``preimage_mass``, each with its own bits.  ``ValueError`` unless the
    weights are finite."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    charges = (np.abs(w) > EXACT_TOL) & ~system.support
    gap = 1.0 - w.sum(axis=1)
    defect = preimage_mass(system, w) - w
    worst = np.abs(defect).max(axis=1)
    failed = np.stack(
        (
            charges.any(axis=1),
            w.min(axis=1) < -EXACT_TOL,
            np.abs(gap) > EXACT_TOL,
            worst > EXACT_TOL,
        )
    )
    return _Constraints(failed, charges, gap, defect, worst)


def _require_invariant(system: FiniteSystem, weights, phis) -> np.ndarray:
    """``ValueError`` unless ``phis`` pairs one potential with each row of
    ``weights`` and every row passes ``invariance``: the precondition of
    the stacked Young checks.  Returns which rows charge a null atom."""
    if np.shape(phis) != np.shape(weights):
        raise ValueError("need one potential per functional")
    con = _polytope_constraints(system, weights)
    off = con.failed[1:].any(axis=0)
    if off.any():
        defect = con.worst[np.argmax(off)]
        raise ValueError(
            f"functional must be invariant (defect {defect:g}); "
            "use divergence_witness for the divergent case"
        )
    return con.failed[0]


def cycle_means(system: FiniteSystem, phi) -> np.ndarray:
    """Mean of phi over each supported cycle, in ``supported_cycle_arrays`` order.

    ``phi`` is one potential or a (k, n_atoms) batch; the means fill the
    last axis.  Pairing phi with a vertex of the invariant polytope is one
    such mean, so this costs one gather over the cycle atoms per distinct
    cycle length.  Each mean adds its cycle's terms in the order of
    ``phi[idx].mean()`` and gives the same bits, in every row of a batch.
    ``ValueError`` unless phi has one value per atom and is a potential
    (``_require_potentials``).
    """
    phi = _require_potentials(phi)
    if phi.shape[-1:] != (system.n,):
        raise ValueError("potential needs one value per atom")
    return _group_means(system, phi, system.cycle_groups)


def _cycle_column_lambdas(system: FiniteSystem, psis: np.ndarray) -> np.ndarray:
    """``log_spectral_radius_batch`` of each row of a (k, C) stack given on
    the C columns of ``system.cycle_columns`` alone, the supported-cycle
    atoms in increasing order.  A cycle mean reads no other atom, so each
    value has the bits of the call on any full-width row that agrees with
    the row of ``psis`` on those atoms."""
    return _group_means(system, psis, system.cycle_columns[1]).max(axis=1)


def _group_means(system: FiniteSystem, phi: np.ndarray, groups) -> np.ndarray:
    """The means of ``cycle_means`` from the (positions, index rows) pairs
    of ``groups``: ``system.cycle_groups`` on full-width rows, or their
    columns on rows that hold the cycle atoms alone."""
    out = np.empty(phi.shape[:-1] + (len(system.supported_cycle_arrays),))
    for pos, rows in groups:
        out[..., pos] = _index_sums(phi, rows) / rows.shape[1]
    return out


def _index_sums(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum of phi over each row of the atom-index array ``rows``, for one
    potential or a (k, n_atoms) batch, every row of a batch adding its
    terms in the order of the call on that row alone.

    numpy sums 8 or more contiguous terms pairwise, and the fancy gather of
    a batch lays its rows side by side, so each term would be added across
    the batch; ``take`` keeps the terms of every index row contiguous.
    Shorter index rows add in order either way, and the fancy gather is
    the faster one on a batch.
    """
    if rows.shape[-1] >= 8:
        return np.take(phi, rows, axis=-1).sum(axis=-1)
    return phi[..., rows].sum(axis=-1)


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
        _require_partitions([mem])
        object.__setattr__(self, "members", mem)

    @property
    def size(self) -> int:
        return self.members.shape[0]


def _require_partitions(members) -> None:
    """``ValueError`` unless each array of a list holds the members of a
    partition of unity on the same atoms: a nonempty 2d array of finite,
    nonnegative values whose columns sum to 1 within ``EXACT_TOL``.

    The arrays are tested as one stack, each padded with rows of zeros to
    the largest member count: adding an exact zero keeps the bits of each
    partition's own ``sum(axis=0)``, which adds its rows in order.
    """
    if any(np.ndim(m) != 2 or len(m) == 0 for m in members):
        raise ValueError("members must form a nonempty 2d array")
    width = members[0].shape[1]
    if any(m.shape[1] != width for m in members):
        raise ValueError("partitions must live on the same atoms")
    stack = np.zeros((len(members), max(len(m) for m in members), width))
    for i, m in enumerate(members):
        stack[i, : len(m)] = m
    if not np.all(np.isfinite(stack)) or stack.min() < -0.0:
        raise ValueError("members must be finite and nonnegative")
    if np.max(np.abs(stack.sum(axis=1) - 1.0)) > EXACT_TOL:
        raise ValueError("member values must sum to 1 at every atom")


def atomic_partition(system: FiniteSystem) -> PartitionOfUnity:
    return PartitionOfUnity(np.eye(system.n))


def trivial_partition(system: FiniteSystem) -> PartitionOfUnity:
    return PartitionOfUnity(np.ones((1, system.n)))
