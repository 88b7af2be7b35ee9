"""Weighted shift operators on L1 and their spectral potential.

The operator attached to a potential phi sends f to e^phi (f o alpha).  Its
powers act the same way with the Birkhoff sum of phi in the exponent, the
operator norm has a closed form as a maximum of mass ratios over atoms, and
the exponential growth rate of the norms, the spectral potential, is a
maximum of plain averages of phi over cycles inside the support.

All norms are handled in log space so that potentials of size 10 and horizons
in the hundreds stay finite.  A direct norm is one call to
``system.log_preimage_mass``, the log form of ``system.preimage_mass``, which
pushes the e^(Birkhoff sum)-weighted masses of the supported atoms forward
along alpha^n in linear time;
one horizon reads its Birkhoff sums and alpha^n from one ``system._transport``
call, in O(N log n) beyond ``system._WALK_HORIZON``.
``norm_log_sequence`` gives the norms at every horizon up to n_max from one
``system.orbit_sums`` walk, at one map step per horizon, for one potential
or a stack of them.
The spectral potential itself is the largest of ``system.cycle_means``, one
gather over the cycle atoms per distinct cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .claims import ROUNDOFF_TOL, SLACK_TOL, TIE_TOL, CertificateError
from .system import (
    _WALK_HORIZON,
    FiniteSystem,
    _columns,
    _horizon,
    _horizon_rows,
    _pairings,
    _transport,
    alpha_power,
    cycle_means,
    log_preimage_mass,
    orbit_sums,
    require_valid,
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


def _l1_norms(system: FiniteSystem, values: np.ndarray) -> np.ndarray:
    """``l1_norm`` of each row of a (k, n_atoms) stack, with its bits: its
    row of absolute values is contiguous, as a row's own ``np.abs`` is."""
    rows = np.abs(values, order="C")
    return _pairings(rows, np.broadcast_to(system.m, rows.shape))


def apply(system: FiniteSystem, phi, f: L1Vector) -> L1Vector:
    """One application of the shift: e^phi times f after the map.

    It keeps its own step, independent of ``iterate``, which is checked
    against repeated calls of it.
    """
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    # an overflow leaves a non-finite entry, which l1_vector rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(phi) * f.values[system.alpha]
    return l1_vector(system, values)


def iterate(system: FiniteSystem, phi, f, n: int) -> L1Vector | np.ndarray:
    """n applications of the shift, checked against the one-shot formula.

    ``f`` is one ``L1Vector`` (one comes back) or a (k, n_atoms) stack of
    L1 values (a stack comes back); a single vector is the stack of one.
    Every row takes the steps of ``apply`` with its bits, and a step that
    leaves a non-finite entry raises ``ValueError``, as ``L1Vector`` does.
    ``CertificateError`` when some row misses the closed form e^(S_n phi)
    (f o alpha^n), read from one ``system._transport`` call, by more than
    ``ROUNDOFF_TOL``; ``ValueError`` unless n is an integer of at least 1.
    """
    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    s, an = _transport(system, phi, n)
    values = f.values[None] if isinstance(f, L1Vector) else np.asarray(f, dtype=float)
    if values.ndim != 2 or values.shape[1] != system.n:
        raise ValueError("values need one row of entries per atom")
    if not np.all(np.isfinite(values)):
        raise ValueError("vector entries must be finite")
    out = values
    # an overflow leaves a non-finite entry, which the check below rejects;
    # one on a null atom is zeroed in both the walk and the closed form
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(phi)
        for _ in range(n):
            out = np.where(system.support, weight * out[:, system.alpha], 0.0)
            if not np.all(np.isfinite(out)):
                raise ValueError("vector entries must be finite")
        direct = np.where(system.support, np.exp(s) * values[:, an], 0.0)
    if not np.allclose(out, direct, rtol=ROUNDOFF_TOL, atol=ROUNDOFF_TOL):
        raise CertificateError("iterated shift disagrees with its closed form")
    return L1Vector(out[0]) if isinstance(f, L1Vector) else out


def op_norm_log(system: FiniteSystem, phi, n: int) -> float:
    """log of the L1 operator norm of the n-th power of the shift.

    The norm is the largest ratio, over supported atoms y, of the
    e^(Birkhoff sum)-weighted mass of the n-step preimage of y to the mass
    of y; the maximizing f is the normalized indicator of the best y.
    Both arrays come from one ``system._transport`` call: up to
    ``_WALK_HORIZON`` the value has the bits of ``norm_log_sequence``, and
    beyond it doubling tables give it within roundoff in O(N log n).
    ``ValueError`` unless n is an integer of at least 1.
    """
    require_valid(system)
    return float(_norm_log(system, *_transport(system, phi, n)))


def _norm_log(system: FiniteSystem, s: np.ndarray, an: np.ndarray):
    """Largest log ratio of e^s-weighted preimage mass under an to atom mass.

    ``s`` is one row of Birkhoff sums or a (k, n_atoms) stack sharing ``an``,
    which gives one value per row, each with the bits of its own call.  Only
    the supported atoms are pushed: a null atom's term is -inf and would add
    an exact zero.
    """
    sup = system.supported_indices
    log_m = system.log_m[sup]
    mass = log_preimage_mass(system, _columns(s, sup) + log_m, an[sup])
    return np.max(_columns(mass, sup) - log_m, axis=-1)


def norm_log_sequence(system: FiniteSystem, phi, n_max: int) -> np.ndarray:
    """``op_norm_log`` at n = 1..n_max, with its bits, from one orbit walk.

    ``phi`` is one potential, giving an (n_max,) sequence, or a (k, n_atoms)
    stack walked together, giving a (k, n_max) array whose rows keep the
    bits of their own calls.  ``ValueError`` unless n_max is an integer of
    at least 0.
    """
    require_valid(system)
    n_max = _horizon(n_max, least=0)
    phi = np.asarray(phi, dtype=float)
    seq = np.empty(phi.shape[:-1] + (n_max,))
    for n, s, an in orbit_sums(system, phi, n_max):
        seq[..., n - 1] = _norm_log(system, s, an)
    return seq


def _norm_logs(
    system: FiniteSystem, phis: np.ndarray, horizons: np.ndarray
) -> np.ndarray:
    """``op_norm_log`` of each row of a (k, n_atoms) stack of potentials at
    each horizon in that row's column of a (j, k) integer array, each value
    with the bits of its own call.

    As in ``op_norm_log``, the horizons up to ``_WALK_HORIZON`` are read
    from the steps of one ``orbit_sums`` walk of the stack and each longer
    one from one ``_transport`` call; each horizon pushes only the rows
    that need it.
    """
    require_valid(system)
    out = np.empty(horizons.shape)
    walk = orbit_sums(system, phis, min(int(horizons.max()), _WALK_HORIZON))
    for n, _ in _horizon_rows(horizons.ravel()):
        at = horizons == n
        rows = at.any(axis=0)
        if n <= _WALK_HORIZON:
            # the horizons come in increasing order, as the walk's steps do
            s, an = next(step[1:] for step in walk if step[0] == n)
            s = s[rows]
        else:
            s, an = _transport(system, phis[rows], n)
        norms = np.empty(rows.size)
        norms[rows] = _norm_log(system, s, an)
        np.copyto(out, norms, where=at)
    return out


def op_norm(system: FiniteSystem, phi, n: int) -> float:
    return float(np.exp(op_norm_log(system, phi, n)))


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """The cycle formula's value and witness, the norm sequence and its flag.

    For one potential ``value`` is a float, ``witness_cycle`` one cycle,
    ``norm_sequence`` an (n_max,) array and ``flagged`` a bool; for a
    (k, n_atoms) stack they are a (k,) array, a tuple of k cycles, a
    (k, n_max) array and a (k,) boolean array.
    """

    value: float | np.ndarray
    witness_cycle: tuple[int, ...] | tuple[tuple[int, ...], ...]
    norm_sequence: np.ndarray
    flagged: bool | np.ndarray


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
    pathological n_max choices.  ``phi`` is one potential or a (k, n_atoms)
    stack; a single potential is the stack of one.  A stack takes one
    ``cycle_means`` call and one ``norm_log_sequence`` walk, and each row
    keeps the bits of its own call.  ``ValueError`` unless n_max is an
    integer of at least 1.
    """
    require_valid(system)
    n_max = _horizon(n_max)
    phi = np.asarray(phi, dtype=float)
    phis = phi.reshape(-1, phi.shape[-1])
    # one potential is walked and gathered as one row, with the bits of a
    # stack of one at less cost
    means = cycle_means(system, phi).reshape(len(phis), -1)
    value = means.max(axis=1)
    first = np.argmax(means >= (value - TIE_TOL)[:, None], axis=1)
    cycles = system.supported_cycle_arrays
    best = tuple(tuple(cycles[c].tolist()) for c in first.tolist())

    horizons = np.arange(1, n_max + 1)
    seq = norm_log_sequence(system, phi, n_max).reshape(len(phis), n_max) / horizons
    span = phis.max(axis=1) - phis.min(axis=1)
    sup_m = system.m[system.support]
    mass_ratio = float(np.log(sup_m.max() / sup_m.min()))
    env_total = np.log(system.n) + 2.0 * span * system.n + mass_ratio
    envelope = env_total[:, None] / horizons
    flagged = np.any(seq < (value - SLACK_TOL)[:, None], axis=1) | np.any(
        seq > value[:, None] + envelope + SLACK_TOL, axis=1
    )
    seq.setflags(write=False)
    if phi.ndim == 1:
        return SpectralResult(
            value=float(value[0]),
            witness_cycle=best[0],
            norm_sequence=seq[0],
            flagged=bool(flagged[0]),
        )
    return SpectralResult(
        value=value, witness_cycle=best, norm_sequence=seq, flagged=flagged
    )


@dataclass(frozen=True, eq=False)
class PowerGap:
    """Growth rate of k phi under the k-step map versus k times the rate of phi.

    Both fields are floats for one potential and (rows,) arrays for a stack.
    """

    scaled: float | np.ndarray
    power: float | np.ndarray

    @property
    def gap(self) -> float | np.ndarray:
        return self.power - self.scaled


def power_gap(system: FiniteSystem, phi, k: int) -> PowerGap:
    """Compare k * lambda(phi) with lambda(k phi) under the k-step map.

    Cycles of the map split into shorter orbits of its k-th power, whose
    averages of phi can only improve on the full-cycle average, so the
    power side dominates; the gap is strict whenever the splitting
    isolates above-average stretches of a cycle.  The power side is the
    spectral potential of the k-step system, the same atoms and masses
    under ``alpha_power(system, k)``, read after the scaled side so
    that an invalid system raises on the system itself.  ``phi`` is one
    potential or a (rows, n_atoms) stack sharing the power k; a single
    potential is the stack of one, and each row gets the bits of its own
    call.  The power is a number of map steps, so it is read as a horizon:
    ``ValueError`` unless k is an integer of at least 1.
    """
    k = _horizon(k)
    phi = np.asarray(phi, dtype=float)
    phis = phi.reshape(-1, phi.shape[-1])
    scaled = k * log_spectral_radius_batch(system, phis)
    k_step = FiniteSystem(system.atoms, system.m, alpha_power(system, k))
    power = log_spectral_radius_batch(k_step, k * phis)
    if np.any(scaled > power + ROUNDOFF_TOL):
        raise CertificateError("power-map rate fell below the scaled rate")
    if phi.ndim == 1:
        return PowerGap(scaled=float(scaled[0]), power=float(power[0]))
    return PowerGap(scaled=scaled, power=power)


@dataclass(frozen=True, eq=False)
class PotentialProperties:
    """Worst-case residuals of the convexity-type laws of the spectral potential.

    Every field is a signed defect that should be <= 0 (inequalities) or
    ~ 0 (identities) up to roundoff; callers assert against their own
    tolerance.  Fields are floats for one pair of potentials and (rows,)
    arrays for a stack of pairs.
    """

    monotonicity: float | np.ndarray
    additive_homogeneity: float | np.ndarray
    lipschitz: float | np.ndarray
    convexity: float | np.ndarray
    strong_invariance: float | np.ndarray


def property_residuals(
    system: FiniteSystem,
    phi,
    psi,
    t: float | np.ndarray = 0.5,
    shift: float | np.ndarray = 1.0,
) -> PotentialProperties:
    """Residuals of the standard laws at a pair of potentials.

    ``t`` is the convex-combination weight, ``shift`` the constant in the
    additivity law.  ``phi`` and ``psi`` may be (rows, n_atoms) stacks of
    pairs, with ``t`` and ``shift`` scalars or one value per row; each law
    then costs one ``log_spectral_radius_batch`` call, and each row gets
    the bits of its own call.  A single pair is the stack of one.
    """
    phi = np.asarray(phi, dtype=float)
    phis = phi.reshape(-1, phi.shape[-1])
    psis = np.asarray(psi, dtype=float).reshape(phis.shape)
    ts = np.broadcast_to(np.asarray(t, dtype=float), phis.shape[:1])
    shifts = np.broadcast_to(np.asarray(shift, dtype=float), phis.shape[:1])
    if not np.all((0.0 <= ts) & (ts <= 1.0)):
        raise ValueError("convexity weight must lie in [0, 1]")

    def lam(values):
        return log_spectral_radius_batch(system, values)

    lam_phi = lam(phis)
    lam_psi = lam(psis)

    lam_max = lam(np.maximum(phis, psis))
    monotonicity = np.maximum(lam_phi, lam_psi) - lam_max

    lam_shift = lam(phis + shifts[:, None])
    additive = np.abs(lam_shift - lam_phi - shifts)

    sup_diff = np.abs(phis - psis)[:, system.support].max(axis=1)
    lipschitz = np.abs(lam_phi - lam_psi) - sup_diff

    lam_mix = lam((1.0 - ts)[:, None] * phis + ts[:, None] * psis)
    convexity = lam_mix - ((1.0 - ts) * lam_phi + ts * lam_psi)

    lam_twist = lam(phis + psis[:, system.alpha])
    lam_plain = lam(phis + psis)
    strong = np.abs(lam_twist - lam_plain)

    fields = {
        "monotonicity": monotonicity,
        "additive_homogeneity": additive,
        "lipschitz": lipschitz,
        "convexity": convexity,
        "strong_invariance": strong,
    }
    if phi.ndim == 1:
        fields = {name: float(value[0]) for name, value in fields.items()}
    return PotentialProperties(**fields)
