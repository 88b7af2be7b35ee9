"""Empirical measures and the entropy statistic estimate.

Orbit averages of atoms define empirical measures; around a target
functional mu one builds a halfspace neighborhood O(mu) out of a potential
whose variational value sits below tau(mu) + eps/2 (or below -1/eps - eps/2
when tau diverges).  The atoms whose horizon-n empirical measures land in
O(mu) form the hitting set X_n, and the mass that X_n contributes to n-step
preimages obeys an exponential bound with the t-entropy in the exponent.
Everything here is exact enumeration; the only analytic input is the growth
constant of the shift norms.  Horizon sweeps (the growth constant and the
estimate grid) read one ``system.orbit_sums`` walk, and the grid comes back
as one NumPy record (structured) array with a row per (horizon, atom).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .claims import ROUNDOFF_TOL, SLACK_TOL, CertificateError
from .entropy import tau_dual
# op_norm_log is no longer called here; it stays bound in this module
# because perfbench's tracer test checks that tracing rebinds it here too.
from .spectral import log_spectral_radius, norm_log_sequence, op_norm_log  # noqa: F401
from .system import (
    FULL,
    FiniteSystem,
    Functional,
    _horizon,
    _integers,
    _require_positive,
    _transport,
    orbit_sums,
    pair,
    preimage_mass,
    require_valid,
)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Orbit-average functional: mass 1/n on each of the first n orbit points."""

    x: int
    horizon: int
    weights: np.ndarray

    @property
    def functional(self) -> Functional:
        return Functional(self.weights, FULL)


def empirical(system: FiniteSystem, x: int, n: int) -> EmpiricalMeasure:
    """Empiric measure of the length-n orbit of atom x (repeats accumulate):
    ``empirical_weights`` on one orbit."""
    weights = empirical_weights(system, [x], [n])[0]
    return EmpiricalMeasure(x=int(x), horizon=int(n), weights=weights)


def empirical_weights(system: FiniteSystem, xs, ns) -> np.ndarray:
    """Weights of ``empirical`` for each pair of (k,) base atoms and
    horizons, as a (k, n_atoms) stack.

    All orbits are walked together, one map step at a time up to the
    largest horizon; each row adds 1/n to the atom its orbit is on at every
    step before its own horizon, in the order of a walk of its orbit alone,
    so every row keeps the bits of its own call.  Base atoms and horizons
    must be integers.
    """
    xs = _integers(xs, "base atom")
    ns = _integers(ns, "horizon")
    if xs.shape != ns.shape or xs.ndim != 1:
        raise ValueError("need one horizon per base atom")
    if np.any(ns < 1):
        raise ValueError("horizon must be at least 1")
    if np.any((xs < 0) | (xs >= system.n)):
        raise ValueError("base atom out of range")
    w = np.zeros((xs.size, system.n))
    step = 1.0 / ns
    pos = xs
    for t in range(int(ns.max(initial=0))):
        live = ns > t
        w[live, pos[live]] += step[live]
        pos = system.alpha[pos]
    return w


@dataclass(frozen=True, eq=False)
class HalfspaceNeighborhood:
    """Halfspace of functionals delta with lambda(phi) - delta[phi] < threshold."""

    phi: np.ndarray
    lambda_phi: float
    threshold: float
    tau_value: float

    def contains(self, system: FiniteSystem, delta: Functional) -> bool:
        return self.lambda_phi - pair(system, delta, self.phi) < self.threshold


_T_GRID = (1.0, 10.0, 100.0, 1000.0, 1e4, 1e5, 1e6)


def build_neighborhood(
    system: FiniteSystem, mu: Functional, eps: float
) -> HalfspaceNeighborhood:
    """Proof-style neighborhood of mu at scale eps.

    For a polytope member the zero potential already sits eps/2 below the
    finite t-entropy; for a divergent mu the witness ray is walked out to
    the first tested scale whose variational value drops below
    -1/eps - eps/2.  Either way mu itself lands strictly inside.
    ``ValueError`` unless eps is finite and positive.
    """
    _require_positive(eps, "eps")
    require_valid(system)
    res = tau_dual(system, mu, cross_check=False)
    if res.value == 0.0:
        nbhd = HalfspaceNeighborhood(
            phi=np.zeros(system.n),
            lambda_phi=0.0,
            threshold=eps / 2.0,
            tau_value=0.0,
        )
    else:
        target = -1.0 / eps - eps / 2.0
        direction = res.divergence.direction
        for t in _T_GRID:
            phi = t * direction
            lam = log_spectral_radius(system, phi)
            if lam - pair(system, mu, phi) < target:
                break
        else:
            raise CertificateError("no tested ray scale reached the divergent threshold")
        nbhd = HalfspaceNeighborhood(
            phi=phi,
            lambda_phi=lam,
            threshold=target,
            tau_value=-np.inf,
        )
    if not nbhd.contains(system, mu):
        raise CertificateError("constructed neighborhood does not contain its center")
    return nbhd


def _hitting_mass(system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int, s, an):
    """Hitting set X_n for the walk item (n, s, an) of the neighborhood
    potential, and the mass of X_n in the n-step preimage of each supported
    atom relative to that atom's mass."""
    hits = _hits(nbhd, n, s)
    mass = preimage_mass(system, system.m[hits], an[hits])
    sup = system.supported_indices
    return hits, mass[sup] / system.m[sup]


def _hits(nbhd: HalfspaceNeighborhood, n: int, s: np.ndarray) -> np.ndarray:
    """Atoms whose Birkhoff sums ``s`` at horizon n clear the halfspace cut."""
    return np.flatnonzero(s > n * (nbhd.lambda_phi - nbhd.threshold))


def hitting_set(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int
) -> np.ndarray:
    """Atoms whose n-step Birkhoff sum of the neighborhood potential clears
    the halfspace cut, i.e. whose empirical measures land in the neighborhood.
    The sums come from ``system._transport``, so n must be an integer of at
    least 1."""
    s, _ = _transport(system, nbhd.phi, n)
    return _hits(nbhd, n, s)


@dataclass(frozen=True, eq=False)
class GrowthConstant:
    """Least tested C with ||A_phi^n|| <= C e^(n(lambda + eps/2))."""

    value: float
    log_value: float
    achieved_n: int
    n_checked: int


def growth_constant(
    system: FiniteSystem, phi, eps: float, n_max: int = 16
) -> GrowthConstant:
    """Maximize the norm-to-growth ratio over horizons and confirm its decay.

    Decay evidence over the last five horizons: the ratios are
    non-increasing there, or at least set no new maximum (periodic cycle
    structure makes the raw sequence oscillate under a decaying envelope).
    One doubling of n_max is attempted before giving up.  ``ValueError``
    unless eps is finite and positive.
    """
    n_max = _horizon(n_max)
    if n_max < 10:
        raise ValueError("need at least ten horizons")
    _require_positive(eps, "eps")
    phi = np.asarray(phi, dtype=float)
    lam = log_spectral_radius(system, phi)
    for horizon in (n_max, 2 * n_max):
        n = np.arange(1, horizon + 1)
        log_ratios = norm_log_sequence(system, phi, horizon) - n * (lam + eps / 2.0)
        tail = log_ratios[-5:]
        settled = bool(np.all(np.diff(tail) <= ROUNDOFF_TOL)) or bool(
            tail.max() <= log_ratios[:-5].max() + ROUNDOFF_TOL
        )
        if settled:
            best = int(np.argmax(log_ratios))
            return GrowthConstant(
                value=float(np.exp(log_ratios[best])),
                log_value=float(log_ratios[best]),
                achieved_n=best + 1,
                n_checked=horizon,
            )
    raise CertificateError("norm ratios kept growing; the spectral rate looks wrong")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Grid verification of the hitting-mass bound.

    rows is a record array (n, atom, lhs, rhs, ratio, x_n_size) with one
    record per horizon in n_range order, then per supported atom.
    branch is "finite" for polytope members (exponent tau + eps) and
    "divergent" otherwise (exponent -1/eps).  all_hold asserts every row
    satisfied lhs <= rhs up to a ``SLACK_TOL`` relative allowance.
    """

    rows: np.ndarray
    worst_ratio: float
    worst_at: tuple[int, int]
    all_hold: bool
    c: GrowthConstant
    branch: str
    neighborhood: HalfspaceNeighborhood


_ESTIMATE_ROW = np.dtype(
    [
        ("n", np.intp),
        ("atom", np.intp),
        ("lhs", float),
        ("rhs", float),
        ("ratio", float),
        ("x_n_size", np.intp),
    ]
)


def estimate_lhs(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int, y: int
) -> float:
    """Relative mass that the hitting set drops on the n-step preimage of y."""
    if not (0 <= y < system.n and system.support[y]):
        raise ValueError("target atom must be a supported atom")
    s, an = _transport(system, nbhd.phi, n)
    _, rel = _hitting_mass(system, nbhd, n, s, an)
    return float(rel[np.searchsorted(system.supported_indices, y)])


def estimate_lhs_general(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int, f
) -> float | np.ndarray:
    """Hitting-set integral of |f o alpha^n|, the quantity the atomwise rows
    dominate: for unit-norm f it never exceeds the largest row lhs.

    ``f`` is one function (a float comes back) or a (k, N) stack of them
    (one value per row comes back), read against one hitting set.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != system.n:
        raise ValueError("f needs one value per atom")
    s, an = _transport(system, nbhd.phi, n)
    out = _hit_integrals(system, _hits(nbhd, n, s), an, f)
    return float(out) if f.ndim == 1 else out


def _hit_integrals(system: FiniteSystem, hits, an, f) -> float | np.ndarray:
    """Integral of |f o alpha^n| over the hitting set ``hits``, with ``an``
    = alpha^n: ``estimate_lhs_general`` from a walk item's hitting set."""
    return np.abs(f[..., an[hits]]) @ system.m[hits]


def verify_estimate(
    system: FiniteSystem,
    mu: Functional,
    eps: float,
    n_range=range(1, 13),
) -> EstimateReport:
    """Check the hitting-mass estimate on the full (horizon, atom) grid,
    read from one orbit walk up to the largest horizon.  The grid is
    allocated once and each of its fields written in place, with one
    ``exp`` per horizon for the bound."""
    horizons = _integers(n_range, "horizon")
    if horizons.size == 0 or horizons.min() < 1:
        raise ValueError("n_range must list horizons, each at least 1")
    nbhd = build_neighborhood(system, mu, eps)
    n_top = int(horizons.max())
    c = growth_constant(system, nbhd.phi, eps, n_max=max(16, n_top))
    divergent = nbhd.tau_value == -np.inf
    rate = (-1.0 / eps) if divergent else (nbhd.tau_value + eps)
    sup = system.supported_indices
    grid = np.empty((horizons.size, sup.size), _ESTIMATE_ROW)
    grid["n"] = horizons[:, None]
    grid["atom"] = sup
    for n, s, an in orbit_sums(system, nbhd.phi, n_top):
        at = np.flatnonzero(horizons == n)
        if at.size:
            hits, grid["lhs"][at] = _hitting_mass(system, nbhd, n, s, an)
            grid["x_n_size"][at] = hits.size
    rhs = np.exp(c.log_value + horizons * rate)
    grid["rhs"] = rhs[:, None]
    np.divide(grid["lhs"], grid["rhs"], out=grid["ratio"])
    rows = grid.reshape(-1).view(np.recarray)
    worst = int(np.argmax(rows.ratio))
    return EstimateReport(
        rows=rows,
        worst_ratio=float(rows.ratio[worst]),
        worst_at=(int(rows.n[worst]), int(rows.atom[worst])),
        all_hold=bool(np.all(grid["lhs"] <= (rhs * (1.0 + SLACK_TOL))[:, None])),
        c=c,
        branch="divergent" if divergent else "finite",
        neighborhood=nbhd,
    )
