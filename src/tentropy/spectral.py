"""Weighted shift operators on L1 and their spectral potential.

The operator attached to a potential phi sends f to e^phi (f o alpha).  Its
powers act the same way with the Birkhoff sum of phi in the exponent, the
operator norm has a closed form as a maximum of mass ratios over atoms, and
the exponential growth rate of the norms, the spectral potential, is a
maximum of plain averages of phi over cycles inside the support.

All norms are handled in log space so that potentials of size 10 and horizons
in the hundreds stay finite.  A direct norm is one call to
``system.log_preimage_mass``, the log form of ``system.preimage_mass``, which
pushes the e^(Birkhoff sum)-weighted masses forward along alpha^n in linear time.
``norm_log_sequence`` gives the norms at every horizon up to n_max from one
``system.orbit_sums`` walk, at one map step per horizon.
The spectral potential itself is the largest of ``system.cycle_means``, one
gather over the cycle atoms per distinct cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import (
    FiniteSystem,
    alpha_power,
    birkhoff,
    cycle_means,
    log_preimage_mass,
    orbit_sums,
    require_valid,
    restrict_to_support,
)


@dataclass(frozen=True, eq=False)
class L1Vector:
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("vector entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def l1_vector(system: FiniteSystem, values) -> L1Vector:
    """An L1 class on the system; entries over null atoms are forced to 0."""
    v = np.array(values, dtype=float)
    if v.shape != (system.n,):
        raise ValueError("entry count must match the atom count")
    return L1Vector(np.where(system.support, v, 0.0))


def l1_norm(system: FiniteSystem, f: L1Vector) -> float:
    return float(np.abs(f.values) @ system.m)


def apply(system: FiniteSystem, phi, f: L1Vector) -> L1Vector:
    """One application of the shift: e^phi times f after the map."""
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    return l1_vector(system, np.exp(phi) * f.values[system.alpha])


def iterate(system: FiniteSystem, phi, f: L1Vector, n: int) -> L1Vector:
    """n applications of the shift, checked against the one-shot formula."""
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    out = f
    for _ in range(n):
        out = apply(system, phi, out)
    direct = np.exp(birkhoff(system, phi, n)) * f.values[alpha_power(system, n)]
    direct = np.where(system.support, direct, 0.0)
    if not np.allclose(out.values, direct, rtol=1e-12, atol=1e-12):
        raise RuntimeError("iterated shift disagrees with its closed form")
    return out


def op_norm_log(system: FiniteSystem, phi, n: int) -> float:
    """log of the L1 operator norm of the n-th power of the shift.

    The norm is the largest ratio, over supported atoms y, of the
    e^(Birkhoff sum)-weighted mass of the n-step preimage of y to the mass
    of y; the maximizing f is the normalized indicator of the best y.
    """
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    return _norm_log(system, birkhoff(system, phi, n), alpha_power(system, n))


def _norm_log(system: FiniteSystem, s: np.ndarray, an: np.ndarray) -> float:
    """Largest log ratio of e^s-weighted preimage mass under an to atom mass."""
    sup = system.supported_indices
    mass = log_preimage_mass(system, s + system.log_m, an)
    return float(np.max(mass[sup] - system.log_m[sup]))


def norm_log_sequence(system: FiniteSystem, phi, n_max: int) -> np.ndarray:
    """``op_norm_log`` at n = 1..n_max, with its bits, from one orbit walk."""
    require_valid(system)
    walk = orbit_sums(system, phi, n_max)
    return np.array([_norm_log(system, s, an) for _, s, an in walk])


def op_norm(system: FiniteSystem, phi, n: int) -> float:
    return float(np.exp(op_norm_log(system, phi, n)))


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


@dataclass(frozen=True, eq=False)
class SpectralResult:
    value: float
    witness_cycle: tuple[int, ...]
    norm_sequence: np.ndarray
    flagged: bool


def log_spectral_radius(system: FiniteSystem, phi) -> float:
    """Spectral potential: the best average of phi over supported cycles."""
    require_valid(system)
    return float(cycle_means(system, phi).max())


def log_spectral_radius_batch(system: FiniteSystem, phis: np.ndarray) -> np.ndarray:
    """Spectral potential of each row of a (k, n_atoms) array of potentials."""
    require_valid(system)
    return cycle_means(system, phis).max(axis=1)


def spectral_potential(system: FiniteSystem, phi, n_max: int = 24) -> SpectralResult:
    """Cycle formula for the growth rate, cross-checked against norm growth.

    The norm sequence (1/n) log ||A^n|| for n = 1..n_max is returned for
    inspection; the result is flagged when it has not yet sandwiched the
    cycle value within the coarse a-priori envelope, which only happens for
    pathological n_max choices.
    """
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    means = cycle_means(system, phi)
    value = float(means.max())
    first = int(np.argmax(means >= value - 1e-12))
    best_cycle = tuple(int(i) for i in system.supported_cycle_arrays[first])

    seq = norm_log_sequence(system, phi, n_max) / np.arange(1, n_max + 1)
    span = float(np.max(phi) - np.min(phi))
    sup_m = system.m[system.support]
    mass_ratio = float(np.log(sup_m.max() / sup_m.min()))
    env_total = np.log(system.n) + 2.0 * span * system.n + mass_ratio
    envelope = env_total / np.arange(1, n_max + 1)
    flagged = bool(np.any(seq < value - 1e-9) or np.any(seq > value + envelope + 1e-9))
    seq.setflags(write=False)
    return SpectralResult(
        value=value, witness_cycle=best_cycle, norm_sequence=seq, flagged=flagged
    )


def power_system(system: FiniteSystem, k: int) -> FiniteSystem:
    """The same atoms and masses under the k-fold composition of the map."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return FiniteSystem(system.atoms, system.m, alpha_power(system, k))


@dataclass(frozen=True, eq=False)
class PowerGap:
    """Growth rate of k phi under the k-step map versus k times the rate of phi."""

    scaled: float
    power: float

    @property
    def gap(self) -> float:
        return self.power - self.scaled


def power_gap(system: FiniteSystem, phi, k: int) -> PowerGap:
    """Compare k * lambda(phi) with lambda(k phi) under the k-step map.

    Cycles of the map split into shorter orbits of its k-th power, whose
    averages of phi can only improve on the full-cycle average, so the
    power side dominates; the gap is strict whenever the splitting
    isolates above-average stretches of a cycle.
    """
    phi = np.asarray(phi, dtype=float)
    scaled = k * log_spectral_radius(system, phi)
    power = log_spectral_radius(power_system(system, k), k * phi)
    if scaled > power + 1e-12:
        raise RuntimeError("power-map rate fell below the scaled rate")
    return PowerGap(scaled=scaled, power=power)


@dataclass(frozen=True, eq=False)
class PotentialProperties:
    """Worst-case residuals of the convexity-type laws of the spectral potential.

    Every field is a signed defect that should be <= 0 (inequalities) or
    ~ 0 (identities) up to roundoff; callers assert against their own
    tolerance.
    """

    monotonicity: float
    additive_homogeneity: float
    lipschitz: float
    convexity: float
    strong_invariance: float


def property_residuals(
    system: FiniteSystem, phi, psi, t: float = 0.5, shift: float = 1.0
) -> PotentialProperties:
    """Residuals of the standard laws at a pair of potentials.

    ``t`` is the convex-combination weight, ``shift`` the constant in the
    additivity law.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("convexity weight must lie in [0, 1]")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    lam_phi = log_spectral_radius(system, phi)
    lam_psi = log_spectral_radius(system, psi)

    lam_max = log_spectral_radius(system, np.maximum(phi, psi))
    monotonicity = max(lam_phi, lam_psi) - lam_max

    lam_shift = log_spectral_radius(system, phi + shift)
    additive = abs(lam_shift - lam_phi - shift)

    sup_diff = float(np.max(np.abs(phi - psi)[system.support]))
    lipschitz = abs(lam_phi - lam_psi) - sup_diff

    lam_mix = log_spectral_radius(system, (1.0 - t) * phi + t * psi)
    convexity = lam_mix - ((1.0 - t) * lam_phi + t * lam_psi)

    lam_twist = log_spectral_radius(system, phi + psi[system.alpha])
    lam_plain = log_spectral_radius(system, phi + psi)
    strong = abs(lam_twist - lam_plain)

    return PotentialProperties(
        monotonicity=monotonicity,
        additive_homogeneity=additive,
        lipschitz=lipschitz,
        convexity=convexity,
        strong_invariance=strong,
    )
