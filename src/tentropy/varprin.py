"""Variational principles tying the spectral potential to t-entropy.

Young-type inequality: lambda(phi) >= mu[phi] + tau(mu) for invariant mu.
Dual principle: lambda(phi) is the best value of tau(mu) + mu[phi] over
invariant positive normalized mu, attained on a face of the polytope
spanned by the uniform cycle measures.  Functionals outside that polytope
are dispatched by an explicit divergence ray along which
lambda(t d) - mu[t d] drops below any bound, classified by the first
failing constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import log_spectral_radius, log_spectral_radius_batch
from .system import (
    FULL,
    FiniteSystem,
    Functional,
    PartitionOfUnity,
    effective_weights,
    invariant_vertices,
    is_invariant,
    pair,
    preimage_mass,
    require_valid,
)

NULL_CHARGE = "null_charge"
NEGATIVITY = "negativity"
NORMALIZATION = "normalization"
NON_INVARIANCE = "non_invariance"

_RAY_POINTS = (1.0, 10.0, 100.0, 1000.0)


class NoDefectError(ValueError):
    """The functional sits in the invariant polytope; no divergence exists."""


@dataclass(frozen=True, eq=False)
class DivergenceWitness:
    """A ray certifying lambda(t d) - mu[t d] <= -rate t for all t >= 0."""

    defect: str
    direction: np.ndarray
    rate: float
    atom: int | None


def _verify_ray(
    system: FiniteSystem, mu: Functional, witness: DivergenceWitness
) -> None:
    for t in _RAY_POINTS:
        d = t * witness.direction
        h = log_spectral_radius(system, d) - pair(system, mu, d)
        if h > -witness.rate * t + 1e-9:
            raise RuntimeError(
                f"witness ray fails its decay at t={t}: {h} vs {-witness.rate * t}"
            )


def divergence_witness(
    system: FiniteSystem, mu: Functional, tol: float = 1e-12
) -> DivergenceWitness:
    """First failing constraint of polytope membership, as a divergence ray.

    Checked in the fixed order: charge on a null atom (FULL mode only),
    negativity, normalization, non-invariance.  The returned ray is
    verified numerically before being handed out.  Raises NoDefectError
    when every constraint holds within tol.
    """
    require_valid(system)
    w = effective_weights(system, mu)
    witness = None

    if mu.mode == FULL and not bool(system.support.all()):
        nulls = np.flatnonzero(~system.support)
        charges = mu.weights[nulls]
        if np.any(np.abs(charges) > tol):
            at = int(nulls[np.argmax(np.abs(charges))])
            charge = float(mu.weights[at])
            direction = np.zeros(system.n)
            direction[at] = np.sign(charge)
            witness = DivergenceWitness(NULL_CHARGE, direction, abs(charge), at)

    if witness is None and float(w.min()) < -tol:
        at = int(np.argmin(w))
        direction = np.zeros(system.n)
        direction[at] = -1.0
        witness = DivergenceWitness(NEGATIVITY, direction, float(-w[at]), at)

    if witness is None:
        total = float(w.sum())
        if abs(1.0 - total) > tol:
            direction = -np.sign(1.0 - total) * np.ones(system.n)
            witness = DivergenceWitness(
                NORMALIZATION, direction, abs(1.0 - total), None
            )

    if witness is None:
        v = preimage_mass(system, w) - w
        if np.any(np.abs(v) > tol):
            # largest |v|, then positive before negative, then lowest index
            at = int(np.lexsort((-v, -np.abs(v)))[0])
            direction = np.zeros(system.n)
            direction[system.alpha == at] += 1.0
            direction[at] -= 1.0
            direction *= np.sign(v[at])
            witness = DivergenceWitness(NON_INVARIANCE, direction, abs(v[at]), at)

    if witness is None:
        raise NoDefectError("functional has no divergence defect")
    _verify_ray(system, mu, witness)
    return witness


@dataclass(frozen=True, eq=False)
class YoungResult:
    """Slack of lambda(phi) - mu[phi] - tau(mu); tight means equality held."""

    slack: float
    tight: bool


def young_check(system: FiniteSystem, phi, mu: Functional) -> YoungResult:
    """Young-type inequality for an invariant functional, with equality flag."""
    from .entropy import tau_dual

    ok, worst = is_invariant(system, mu)
    if not ok:
        raise ValueError(
            f"functional must be invariant (defect {worst:g}); "
            "use divergence_witness for the divergent case"
        )
    phi = np.asarray(phi, dtype=float)
    tau = tau_dual(system, mu, cross_check=False).value
    slack = log_spectral_radius(system, phi) - pair(system, mu, phi) - tau
    if slack < -1e-9:
        raise RuntimeError(f"Young-type inequality violated: slack {slack}")
    return YoungResult(slack=float(slack), tight=bool(slack <= 1e-9))


@dataclass(frozen=True, eq=False)
class VPCertificate:
    """Attainment data for the dual variational principle at one potential.

    ``face`` lists every vertex measure tying for the maximum of
    tau(mu) + mu[phi]; ``maximizer`` is its first element.  ``gap`` is
    lambda(phi) minus the attained value and vanishes up to roundoff.
    """

    phi: np.ndarray
    lambda_value: float
    maximizer: Functional
    face: tuple[Functional, ...]
    gap: float


def variational_principle(system: FiniteSystem, phi) -> VPCertificate:
    """Maximize tau(mu) + mu[phi] over the invariant polytope and certify."""
    from .entropy import tau_dual

    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    verts = invariant_vertices(system)
    vals = np.array([pair(system, v, phi) for v in verts])
    top = float(vals.max())
    face = tuple(v for v, val in zip(verts, vals) if val >= top - 1e-12)
    maximizer = face[0]
    tau = tau_dual(system, maximizer, cross_check=False).value
    lam = log_spectral_radius(system, phi)
    gap = lam - tau - pair(system, maximizer, phi)
    if abs(gap) > 1e-9:
        raise RuntimeError(f"variational principle failed to attain: gap {gap}")
    return VPCertificate(
        phi=phi, lambda_value=lam, maximizer=maximizer, face=face, gap=float(gap)
    )


@dataclass(frozen=True, eq=False)
class SubgradientResult:
    """A maximizing measure as subgradient, with sweep verification data.

    worst_violation is the largest amount by which mu[psi - phi] exceeded
    lambda(psi) - lambda(phi) over the random sweep; the identity residual
    measures tau(mu) = lambda(phi) - mu[phi].
    """

    measure: Functional
    worst_violation: float
    tau_identity_residual: float
    draws: int


def subgradient(
    system: FiniteSystem, phi, draws: int = 1000, seed: int = 0
) -> SubgradientResult:
    """Subgradient of the spectral potential at phi, verified on random moves."""
    from .entropy import tau_dual

    phi = np.asarray(phi, dtype=float)
    cert = variational_principle(system, phi)
    mu = cert.maximizer
    rng = np.random.default_rng(seed)
    psis = rng.normal(0.0, 2.0, size=(draws, system.n))
    lams = log_spectral_radius_batch(system, psis)
    moves = psis - phi
    gains = lams - cert.lambda_value
    paired = moves @ effective_weights(system, mu)
    worst = float((paired - gains).max()) if draws else -np.inf
    if worst > 1e-9:
        raise RuntimeError(f"subgradient inequality violated by {worst}")
    tau = tau_dual(system, mu, cross_check=False).value
    residual = abs(tau - (cert.lambda_value - pair(system, mu, phi)))
    if residual > 1e-9:
        raise RuntimeError(f"subgradient attainment identity off by {residual}")
    return SubgradientResult(
        measure=mu,
        worst_violation=worst,
        tau_identity_residual=float(residual),
        draws=draws,
    )


@dataclass(frozen=True, eq=False)
class NullChargeReport:
    """Both divergence verdicts for a functional charging a null atom.

    tau_value comes from the two-member partition splitting off the charged
    null set; inf_value from the witness ray.  Both are -inf.
    """

    tau_value: float
    inf_value: float
    partition: PartitionOfUnity
    partition_solution: "InnerSolution"
    ray: DivergenceWitness


def null_charge_divergence(system: FiniteSystem, mu: Functional) -> NullChargeReport:
    """Twin -inf certificates for a positive normalized FULL functional
    charging a null atom: the entropy route and the variational route."""
    from .entropy import tau_n

    require_valid(system)
    if mu.mode != FULL:
        raise ValueError("null charge is only visible to FULL-mode functionals")
    if bool(system.support.all()):
        raise ValueError("system has no null atoms")
    w = mu.weights
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("functional must be positive and normalized")
    charged = (~system.support) & (np.abs(w) > 1e-12)
    if not charged.any():
        raise ValueError("no null atom carries charge")
    g = charged.astype(float)
    partition = PartitionOfUnity(np.stack([g, 1.0 - g]))
    solution = tau_n(system, mu, partition, 1)
    if solution.value != -np.inf:
        raise RuntimeError("charged null set failed to force tau_n to -inf")
    ray = divergence_witness(system, mu)
    if ray.defect != NULL_CHARGE:
        raise RuntimeError("witness priority did not select the null charge")
    return NullChargeReport(
        tau_value=-np.inf,
        inf_value=-np.inf,
        partition=partition,
        partition_solution=solution,
        ray=ray,
    )
