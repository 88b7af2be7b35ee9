"""Reference routes that tests compare the library against.

``op_norm_log_pow`` reaches horizons like 2**27 by log-domain matrix
squaring, at a memory cost of k**3 floats for k supported atoms;
``power_system`` builds the k-step system from ``alpha_power``;
``decompose_walk`` is the cycle decomposition walked atom by atom, and
``reference_power_rate`` the power side of ``power_gap`` read from the
map's cycles by modular orbit arithmetic;
``empirical_walk`` walks one orbit step by step;
``full_width_subgradient`` is ``subgradient``'s sweep with one normal drawn
per atom;
``dual_descent_full_steps`` is the dual descent that rebuilds every cycle
value and the tie set over all cycles at each step;
``log_preimage_mass_all_terms`` is the log push that takes every term,
-inf ones included, and masks the bins where nothing landed, and
``norm_log_all_terms`` the norm that pushes every atom through it.
"""

import math

import numpy as np

from tentropy.claims import SLACK_TOL, TIE_TOL
from tentropy.spectral import log_spectral_radius_batch
from tentropy.system import (
    CycleDecomposition,
    FiniteSystem,
    _chunk_rows,
    _columns,
    _stacked_bins,
    alpha_power,
    effective_weights,
    require_valid,
    restrict_to_support,
)
from tentropy.varprin import variational_principle


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.logaddexp.reduce(a[:, :, None] + b[None, :, :], axis=1)


def op_norm_log_pow(system: FiniteSystem, phi, n: int) -> float:
    """Same norm as op_norm_log but via log-domain matrix squaring.

    Cost grows with log(n), so horizons like 2**27 are fine; the price is
    one logaddexp rounding per squaring, giving absolute error O(log2(n))
    times machine epsilon on the log-norm, negligible after dividing by n.
    """
    require_valid(system)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    sub = restrict_to_support(system)
    phi = np.asarray(phi, dtype=float)
    if sub is not system:
        phi = phi[system.supported_indices]
    k = sub.n
    step = np.full((k, k), -np.inf)
    step[np.arange(k), sub.alpha] = phi
    # entry (x, y) of the n-fold product is the Birkhoff sum when alpha^n(x)=y
    result = None
    base = step
    e = n
    while e:
        if e & 1:
            result = base if result is None else _log_matmul(result, base)
        e >>= 1
        if e:
            base = _log_matmul(base, base)
    logm = sub.log_m
    cols = np.logaddexp.reduce(result + logm[:, None], axis=0) - logm
    return float(np.max(cols))


def power_system(system: FiniteSystem, k: int) -> FiniteSystem:
    """The same atoms and masses under the k-fold composition of the map."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return FiniteSystem(system.atoms, system.m, alpha_power(system, k))


def decompose_walk(system: FiniteSystem) -> CycleDecomposition:
    """The cycle decomposition by one walk per unseen atom, each closing a
    fresh cycle or running into a finished atom."""
    n = system.n
    alpha = system.alpha
    color = [0] * n  # 0 unseen, 1 on current path, 2 finished
    cycle_of = [-1] * n
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
            cycle_of[a] = -1

    order = sorted(range(len(raw_cycles)), key=lambda c: raw_cycles[c][0])
    remap = {old: new for new, old in enumerate(order)}
    cycles = tuple(raw_cycles[old] for old in order)
    cycle_of = [-1 if c < 0 else remap[c] for c in cycle_of]
    terminal = [remap[c] for c in terminal]
    supported = tuple(bool(all(system.support[a] for a in cyc)) for cyc in cycles)
    return CycleDecomposition(
        cycles=cycles,
        cycle_of=cycle_of,
        entry_time=entry,
        terminal=terminal,
        supported=supported,
    )


def reference_power_rate(system: FiniteSystem, psi, k: int) -> float:
    """The spectral potential of one potential psi under alpha^k, read from
    the cycles of the map: a supported cycle of length L splits into
    d = gcd(L, k) cycles of alpha^k, the atoms at positions r, r + k,
    r + 2k, ... (mod L) for r < d, each summed from its smallest atom on."""
    best = -np.inf
    for _, rows in system.cycle_groups:
        length = rows.shape[1]
        d = math.gcd(length, k)
        size = length // d
        orbits = rows[:, (np.arange(d)[:, None] + k * np.arange(size)) % length]
        start = orbits.argmin(axis=-1)[..., None]
        orbits = np.take_along_axis(orbits, (start + np.arange(size)) % size, axis=-1)
        best = max(best, float((psi[orbits].sum(axis=-1) / size).max()))
    return best


def full_width_subgradient(
    system: FiniteSystem, phi, draws: int, seed: int, background=None
) -> float:
    """``worst_violation`` of ``subgradient`` by the sweep that draws a
    normal for every atom, in chunks of ``_chunk_rows(N)`` rows.

    With ``background``, each chunk is drawn as ``subgradient`` draws it,
    on the supported-cycle atoms alone, and scattered into the full-width
    rows ``background(rows)`` returns; the sweep is the same.  A stream of
    normals has the same values in any chunks.
    """
    rng = np.random.default_rng(seed)
    phi = np.asarray(phi, dtype=float)
    cert = variational_principle(system, phi)
    mu = cert.maximizer
    w = effective_weights(system, mu)
    worst = -np.inf
    cols = system.cycle_columns[0]
    step = _chunk_rows(system.n)
    for start in range(0, draws, step):
        rows = min(step, draws - start)
        if background is None:
            psis = rng.normal(0.0, 2.0, size=(rows, system.n))
        else:
            psis = background(rows)
            psis[:, cols] = rng.normal(0.0, 2.0, size=(rows, cols.size))
        gains = log_spectral_radius_batch(system, psis) - cert.lambda_value
        paired = np.subtract(psis, phi, out=psis) @ w
        worst = max(worst, float((paired - gains).max()))
    return worst


def empirical_walk(system: FiniteSystem, x: int, n: int) -> np.ndarray:
    """Weights of the length-n empirical measure of atom x, walked one step
    at a time with 1/n added at each visit."""
    w = np.zeros(system.n)
    pos = x
    for _ in range(n):
        w[pos] += 1.0 / n
        pos = int(system.alpha[pos])
    return w


def dual_descent_full_steps(
    system: FiniteSystem, w: np.ndarray, a: np.ndarray, iters: int = 500
) -> float:
    """``entropy._dual_descent`` with full-array steps: every step divides
    all of E by the cycle lengths, compares every cycle against the maximum
    and adds to the tied entries through a boolean mask."""
    lengths = np.array([c.size for c in system.supported_cycle_arrays], dtype=float)
    ww = float(w @ w)
    e = np.zeros(a.size)
    harmonic = 0.0
    best = 0.0
    for k in range(iters):
        vals = harmonic * a - e / lengths
        lam = float(vals.max())
        h = lam - (harmonic * ww - float(e @ a))
        best = min(best, h)
        if h < -SLACK_TOL:
            return min(best, h * 2e12)
        tied = vals >= lam - TIE_TOL
        e[tied] += 1.0 / ((k + 1.0) * int(tied.sum()))
        harmonic += 1.0 / (k + 1.0)
    return best


def log_preimage_mass_all_terms(system: FiniteSystem, log_weights, an) -> np.ndarray:
    """``log_preimage_mass`` with a full-length mask of the bins where mass
    landed, a shift of 0 and a total of exact zeros on every other bin, and
    a log taken through the mask."""
    log_weights = np.asarray(log_weights, dtype=float)
    bins, size = _stacked_bins(system.n, an, log_weights)
    terms = log_weights.ravel()
    top = np.full(size, -np.inf)
    np.maximum.at(top, bins, terms)
    hit = np.isfinite(top)
    shift = np.where(hit, top, 0.0)
    total = np.bincount(bins, weights=np.exp(terms - shift[bins]), minlength=size)
    out = np.full(size, -np.inf)
    out[hit] = shift[hit] + np.log(total[hit])
    return out.reshape(log_weights.shape[:-1] + (system.n,))


def norm_log_all_terms(system: FiniteSystem, s: np.ndarray, an: np.ndarray):
    """``spectral._norm_log`` with every atom pushed, a null atom by its
    -inf term, through ``log_preimage_mass_all_terms``."""
    sup = system.supported_indices
    mass = log_preimage_mass_all_terms(system, s + system.log_m, an)
    return np.max(_columns(mass, sup) - system.log_m[sup], axis=-1)
