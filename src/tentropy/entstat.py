"""Empirical measures and the entropy statistic estimate.

Orbit averages of atoms define empirical measures; around a target
functional mu one builds a halfspace neighborhood O(mu) out of a potential
whose variational value sits below tau(mu) + eps/2 (or below -1/eps - eps/2
when tau diverges).  The atoms whose horizon-n empirical measures land in
O(mu) form the hitting set X_n, and the mass that X_n contributes to n-step
preimages obeys an exponential bound with the t-entropy in the exponent.
Everything here is exact enumeration; the only analytic input is the growth
constant of the shift norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import tau_dual
from .spectral import log_spectral_radius, op_norm_log
from .system import (
    FULL,
    FiniteSystem,
    Functional,
    alpha_power,
    birkhoff,
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
    """Empiric measure of the length-n orbit of atom x (repeats accumulate)."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 <= x < system.n:
        raise ValueError("base atom out of range")
    w = np.zeros(system.n)
    pos = int(x)
    for _ in range(n):
        w[pos] += 1.0 / n
        pos = int(system.alpha[pos])
    return EmpiricalMeasure(x=int(x), horizon=n, weights=w)


@dataclass(frozen=True, eq=False)
class HalfspaceNeighborhood:
    """Halfspace of functionals delta with lambda(phi) - delta[phi] < threshold."""

    phi: np.ndarray
    lambda_phi: float
    threshold: float
    tau_value: float

    def contains(self, system: FiniteSystem, delta: Functional) -> bool:
        return self.lambda_phi - pair(system, delta, self.phi) < self.threshold


_T_GRID = (1.0, 10.0, 100.0, 1000.0)
_T_RETRY = (1e4, 1e5, 1e6)


def build_neighborhood(
    system: FiniteSystem, mu: Functional, eps: float
) -> HalfspaceNeighborhood:
    """Proof-style neighborhood of mu at scale eps.

    For a polytope member the zero potential already sits eps/2 below the
    finite t-entropy; for a divergent mu the witness ray is walked out to
    the first tested scale whose variational value drops below
    -1/eps - eps/2.  Either way mu itself lands strictly inside.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
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
        phi = None
        for t in _T_GRID + _T_RETRY:
            cand = t * direction
            if log_spectral_radius(system, cand) - pair(system, mu, cand) < target:
                phi = cand
                break
        if phi is None:
            raise RuntimeError(
                "no tested ray scale reached the divergent threshold"
            )
        nbhd = HalfspaceNeighborhood(
            phi=phi,
            lambda_phi=log_spectral_radius(system, phi),
            threshold=target,
            tau_value=-np.inf,
        )
    if not nbhd.contains(system, mu):
        raise RuntimeError("constructed neighborhood does not contain its center")
    return nbhd


def hitting_set(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int
) -> np.ndarray:
    """Atoms whose n-step Birkhoff sum of the neighborhood potential clears
    the halfspace cut, i.e. whose empirical measures land in the neighborhood."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    s = birkhoff(system, nbhd.phi, n)
    cutoff = n * (nbhd.lambda_phi - nbhd.threshold)
    return np.flatnonzero(s > cutoff)


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
    One doubling of n_max is attempted before giving up.
    """
    if n_max < 10:
        raise ValueError("need at least ten horizons")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi, dtype=float)
    lam = log_spectral_radius(system, phi)
    for horizon in (n_max, 2 * n_max):
        log_ratios = np.array(
            [
                op_norm_log(system, phi, n) - n * (lam + eps / 2.0)
                for n in range(1, horizon + 1)
            ]
        )
        tail = log_ratios[-5:]
        settled = bool(np.all(np.diff(tail) <= 1e-12)) or bool(
            tail.max() <= log_ratios[:-5].max() + 1e-12
        )
        if settled:
            best = int(np.argmax(log_ratios))
            return GrowthConstant(
                value=float(np.exp(log_ratios[best])),
                log_value=float(log_ratios[best]),
                achieved_n=best + 1,
                n_checked=horizon,
            )
    raise RuntimeError("norm ratios kept growing; the spectral rate looks wrong")


@dataclass(frozen=True, eq=False)
class EstimateRow:
    n: int
    atom: int
    lhs: float
    rhs: float
    ratio: float
    x_n_size: int


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Grid verification of the hitting-mass bound.

    branch is "finite" for polytope members (exponent tau + eps) and
    "divergent" otherwise (exponent -1/eps).  all_hold asserts every row
    satisfied lhs <= rhs up to a 1e-9 relative allowance.
    """

    rows: tuple[EstimateRow, ...]
    worst_ratio: float
    worst_at: tuple[int, int] | None
    all_hold: bool
    c: GrowthConstant
    branch: str
    neighborhood: HalfspaceNeighborhood


def estimate_lhs(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int, y: int
) -> float:
    """Relative mass that the hitting set drops on the n-step preimage of y."""
    hits = hitting_set(system, nbhd, n)
    mass = preimage_mass(system, system.m[hits], alpha_power(system, n)[hits])
    return float(mass[y] / system.m[y])


def estimate_lhs_general(
    system: FiniteSystem, nbhd: HalfspaceNeighborhood, n: int, f
) -> float:
    """Hitting-set integral of |f o alpha^n|, the quantity the atomwise rows
    dominate: for unit-norm f it never exceeds the largest row lhs."""
    f = np.asarray(f, dtype=float)
    hits = hitting_set(system, nbhd, n)
    an = alpha_power(system, n)
    return float(np.abs(f[an[hits]]) @ system.m[hits])


def verify_estimate(
    system: FiniteSystem,
    mu: Functional,
    eps: float,
    n_range=range(1, 13),
) -> EstimateReport:
    """Check the hitting-mass estimate on the full (horizon, atom) grid."""
    nbhd = build_neighborhood(system, mu, eps)
    n_top = max(n_range)
    c = growth_constant(system, nbhd.phi, eps, n_max=max(16, n_top))
    divergent = nbhd.tau_value == -np.inf
    rate = (-1.0 / eps) if divergent else (nbhd.tau_value + eps)
    rows = []
    worst = (-np.inf, None)
    all_hold = True
    sup = system.supported_indices
    for n in n_range:
        hits = hitting_set(system, nbhd, n)
        mass = preimage_mass(system, system.m[hits], alpha_power(system, n)[hits])
        rhs = float(np.exp(c.log_value + n * rate))
        for y, lhs in zip(sup, (mass[sup] / system.m[sup]).tolist()):
            if lhs > rhs * (1.0 + 1e-9):
                all_hold = False
            ratio = lhs / rhs
            if ratio > worst[0]:
                worst = (ratio, (n, int(y)))
            rows.append(
                EstimateRow(
                    n=n,
                    atom=int(y),
                    lhs=lhs,
                    rhs=rhs,
                    ratio=ratio,
                    x_n_size=int(hits.size),
                )
            )
    return EstimateReport(
        rows=tuple(rows),
        worst_ratio=float(worst[0]),
        worst_at=worst[1],
        all_hold=all_hold,
        c=c,
        branch="divergent" if divergent else "finite",
        neighborhood=nbhd,
    )
