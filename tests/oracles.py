"""Reference routes that tests compare the library against.

``op_norm_log_pow`` reaches horizons like 2**27 by log-domain matrix
squaring, at a memory cost of k**3 floats for k supported atoms;
``power_system`` builds the k-step system atom by atom;
``empirical_walk`` walks one orbit step by step;
``dual_descent_full_steps`` is the dual descent that rebuilds every cycle
value and the tie set over all cycles at each step;
``log_preimage_mass_all_terms`` is the log push that takes every term,
-inf ones included, and masks the bins where nothing landed, and
``norm_log_all_terms`` the norm that pushes every atom through it.
"""

import numpy as np

from tentropy.claims import SLACK_TOL, TIE_TOL
from tentropy.system import (
    FiniteSystem,
    _columns,
    _stacked_bins,
    alpha_power,
    require_valid,
    restrict_to_support,
)


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
    bins, size = _stacked_bins(system, an, log_weights)
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
