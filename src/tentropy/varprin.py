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

from .claims import SLACK_TOL, TIE_TOL, CertificateError, max_of
from .spectral import log_spectral_radius_batch
from .system import (
    FULL,
    FiniteSystem,
    Functional,
    PartitionOfUnity,
    _chunk_rows,
    _cycle_column_lambdas,
    _horizon,
    _pairings,
    _polytope_constraints,
    _require_invariant,
    _seed,
    cycle_means,
    cycle_measure,
    effective_weights,
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


def divergence_witness(system: FiniteSystem, mu: Functional) -> DivergenceWitness:
    """First failing constraint of polytope membership, as a divergence ray.

    Checked in the fixed order: charge on a null atom (FULL mode only),
    negativity, normalization, non-invariance.  The returned ray is
    verified numerically before being handed out.  Raises NoDefectError
    when every constraint holds within EXACT_TOL.  This is
    ``divergence_witnesses`` on the effective weights of mu alone.
    """
    witness = divergence_witnesses(system, [effective_weights(system, mu)])[0]
    if witness is None:
        raise NoDefectError("functional has no divergence defect")
    return witness


def divergence_witnesses(
    system: FiniteSystem, weights
) -> list[DivergenceWitness | None]:
    """``divergence_witness`` of each row of a (k, n_atoms) stack of
    effective weights.

    A row without a defect gives None.  Each constraint is tested on the
    whole stack at once by ``system._polytope_constraints``, and the rays
    of all witnesses at every ray point are verified with one
    ``log_spectral_radius_batch`` call and one ``_pairings`` call, so every
    witness keeps the bits of a call on its row alone.
    """
    require_valid(system)
    w = np.asarray(weights, dtype=float)
    con = _polytope_constraints(system, w)
    found = np.flatnonzero(con.failed.any(axis=0))
    witnesses: list[DivergenceWitness | None] = [None] * len(w)
    if not found.size:
        return witnesses
    # the first failing constraint of each row, in the witness order
    defect = con.failed[:, found].argmax(axis=0)
    atom = np.zeros(found.size, dtype=np.intp)
    rate = np.empty(found.size)
    direction = np.zeros((found.size, system.n))
    for code in sorted(set(defect.tolist())):
        rows = np.flatnonzero(defect == code)
        at_rows = found[rows]
        if code == 0:
            nulls = np.flatnonzero(~system.support)
            charges = w[at_rows][:, nulls]
            atom[rows] = nulls[np.argmax(np.abs(charges), axis=1)]
            charge = w[at_rows, atom[rows]]
            direction[rows, atom[rows]] = np.sign(charge)
            rate[rows] = np.abs(charge)
        elif code == 1:
            atom[rows] = np.argmin(w[at_rows], axis=1)
            direction[rows, atom[rows]] = -1.0
            rate[rows] = -w[at_rows, atom[rows]]
        elif code == 2:
            direction[rows] = -np.sign(con.gap[at_rows])[:, None]
            rate[rows] = np.abs(con.gap[at_rows])
        else:
            vr = con.defect[at_rows]
            # largest |v|, then positive before negative, then lowest index
            atom[rows] = np.lexsort((-vr, -np.abs(vr)), axis=-1)[:, 0]
            peak = vr[np.arange(rows.size), atom[rows]]
            direction[rows] = system.alpha == atom[rows, None]
            direction[rows, atom[rows]] -= 1.0
            direction[rows] *= np.sign(peak)[:, None]
            rate[rows] = np.abs(peak)

    _verify_rays(system, w, found, direction, rate)
    names = (NULL_CHARGE, NEGATIVITY, NORMALIZATION, NON_INVARIANCE)
    for j, i in enumerate(found.tolist()):
        witnesses[i] = DivergenceWitness(
            names[defect[j]],
            direction[j],
            float(rate[j]),
            None if defect[j] == 2 else int(atom[j]),
        )
    return witnesses


def _verify_rays(
    system: FiniteSystem,
    w: np.ndarray,
    found: np.ndarray,
    direction: np.ndarray,
    rate: np.ndarray,
) -> None:
    """Check lambda(t d) - mu[t d] <= -rate t at every ray point t for the
    rows ``found`` of the effective weights w, each with its ray (a row of
    direction, rate): one lambda call on the rays of all points stacked
    t-major, and one ``_pairings`` call for all rays.  The first failure
    in that order raises."""
    ts = np.array(_RAY_POINTS)
    d = ts[:, None, None] * direction
    flat = d.reshape(-1, system.n)
    pairs = _pairings(w[np.tile(found, ts.size)], flat)
    h = (log_spectral_radius_batch(system, flat) - pairs).reshape(ts.size, -1)
    bad = np.argwhere(h > -rate * ts[:, None] + SLACK_TOL)
    if bad.size:
        k, j = bad[0].tolist()
        raise CertificateError(
            f"witness ray fails its decay at t={_RAY_POINTS[k]}: {float(h[k, j])}"
            f" vs {-float(rate[j]) * _RAY_POINTS[k]}"
        )


@dataclass(frozen=True, eq=False)
class YoungResult:
    """Slack of lambda(phi) - mu[phi] - tau(mu); tight means equality held."""

    slack: float
    tight: bool


def young_check(system: FiniteSystem, phi, mu: Functional) -> YoungResult:
    """Young-type inequality for an invariant functional, with equality flag:
    ``young_checks`` on one row."""
    slack = float(young_checks(system, [phi], [effective_weights(system, mu)])[0])
    return YoungResult(slack=slack, tight=slack <= SLACK_TOL)


def young_checks(system: FiniteSystem, phis, weights) -> np.ndarray:
    """Young slack lambda(phi) - mu[phi] - tau(mu) of each row of (k, n_atoms)
    stacks of potentials and effective weights of invariant functionals.

    One stacked invariance test covers every row.  Once mu is invariant,
    the only divergence defect left is a charge on a null atom, which gives
    tau = -inf and slack +inf, certified for all such rows by one
    ``divergence_witnesses`` call; every other row has tau = 0, certified
    for all of them by one stacked ``hull_means``.  The lambdas come from
    one ``cycle_means`` call and the pairings ``w @ phi`` from one
    ``_pairings`` call, so each slack keeps the bits of a call on its row
    alone.
    """
    from .entropy import hull_means

    phis = np.asarray(phis, dtype=float)
    w = np.asarray(weights, dtype=float)
    charged = _require_invariant(system, w, phis)
    require_valid(system)
    divergence_witnesses(system, w[charged])
    hull_means(system, w[~charged])
    lams = log_spectral_radius_batch(system, phis)
    pairs = _pairings(w, phis)
    slacks = np.where(charged, np.inf, lams - pairs)
    for slack in slacks.tolist():
        if slack < -SLACK_TOL:
            raise CertificateError(f"Young-type inequality violated: slack {slack}")
    return slacks


@dataclass(frozen=True, eq=False)
class VPCertificate:
    """Attainment data for the dual variational principle at one potential.

    ``face`` lists every vertex measure tying for the maximum of
    tau(mu) + mu[phi]; ``maximizer`` is its first element.  ``gap`` is
    lambda(phi) minus the attained value and vanishes up to roundoff.  For
    a (k, n_atoms) stack of potentials ``lambda_value`` and ``gap`` are
    (k,) arrays and ``maximizer`` and ``face`` tuples with one entry per
    row; rows with the same maximizing cycle share its vertex measure.
    """

    phi: np.ndarray
    lambda_value: float | np.ndarray
    maximizer: Functional | tuple[Functional, ...]
    face: tuple[Functional, ...] | tuple[tuple[Functional, ...], ...]
    gap: float | np.ndarray


def variational_principle(system: FiniteSystem, phi) -> VPCertificate:
    """Maximize tau(mu) + mu[phi] over the invariant polytope and certify.

    ``phi`` is one potential or a (k, n_atoms) stack; a single potential is
    the stack of one.  One ``cycle_means`` call gives every row's lambda
    and face, ``tau_dual`` runs once per distinct maximizing cycle (its
    value is a function of that vertex alone), and the pairing is
    ``w @ phi`` per row, so each gap keeps the bits of a call on its row
    alone.  ``ValueError`` if a potential value is NaN or +inf, as
    ``cycle_means`` tests (``system._require_potentials``).
    """
    from .entropy import tau_dual

    require_valid(system)
    phi = np.asarray(phi, dtype=float)
    phis = phi.reshape(-1, phi.shape[-1])
    vals = cycle_means(system, phis)
    lams = vals.max(axis=1)
    ties = vals >= (lams - TIE_TOL)[:, None]
    cycles = system.supported_cycle_arrays
    vertices: dict[int, Functional] = {}
    taus: dict[Functional, float] = {}

    def vertex(c: int) -> Functional:
        if c not in vertices:
            vertices[c] = cycle_measure(system, cycles[c])
        return vertices[c]

    faces = []
    tau = np.empty(len(phis))
    pairs = np.empty(len(phis))
    for i, row in enumerate(ties):
        face = tuple(vertex(c) for c in np.flatnonzero(row).tolist())
        first = face[0]
        if first not in taus:
            taus[first] = tau_dual(system, first, cross_check=False).value
        tau[i] = taus[first]
        # a cycle measure is its own effective weights
        pairs[i] = first.weights @ phis[i]
        faces.append(face)
    gaps = lams - tau - pairs
    bad = np.flatnonzero(np.abs(gaps) > SLACK_TOL)
    if bad.size:
        raise CertificateError(
            f"variational principle failed to attain: gap {float(gaps[bad[0]])}"
        )
    if phi.ndim == 1:
        return VPCertificate(
            phi=phi,
            lambda_value=float(lams[0]),
            maximizer=faces[0][0],
            face=faces[0],
            gap=float(gaps[0]),
        )
    return VPCertificate(
        phi=phi,
        lambda_value=lams,
        maximizer=tuple(face[0] for face in faces),
        face=tuple(faces),
        gap=gaps,
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
    """Subgradient of the spectral potential at phi, verified on random moves.

    The attainment identity tau(mu) = lambda(phi) - mu[phi] at the maximizer
    mu is the gap ``variational_principle`` has just certified.  lambda(psi)
    is the best mean of psi over the supported cycles and mu, the uniform
    measure on one of them, charges no other atom, so a move psi ~ N(0, 4)
    is drawn on the C supported-cycle atoms alone (``system.cycle_columns``,
    in increasing order), and one exact count checks that mu charges
    nothing off them.  Where every atom lies on a supported cycle, C = N
    and the draws are those of one normal per atom.  The draws are swept
    in chunks of ``system._chunk_rows(2 * C)`` rows (a draw holds its row
    and the copy of its cycle atoms that the means gather), each drawn
    from the one generator stream and turned into its moves in place, so
    the sweep holds O(``system._CHUNK_ENTRIES`` + C) floats and, with one
    BLAS thread, every draw keeps the bits of one sweep over all of them.
    ``ValueError``
    unless draws is an integer of at least 0, the seed an integer (not a
    bool) in [0, 2**64) (``system._seed``) and no value of phi NaN or +inf;
    ``CertificateError`` if the inequality fails or its worst violation or
    the identity residual is NaN.
    """
    draws = _horizon(draws, least=0, what="draws")
    rng = np.random.default_rng(_seed(seed))
    phi = np.asarray(phi, dtype=float)
    cert = variational_principle(system, phi)
    mu = cert.maximizer
    w = effective_weights(system, mu)
    cols = system.cycle_columns[0]
    w_cols = w[cols]
    if np.count_nonzero(w) != np.count_nonzero(w_cols):
        raise CertificateError("maximizer charges an atom off the supported cycles")
    phi_cols = phi[cols]
    worst = -np.inf
    step = _chunk_rows(2 * cols.size)
    for start in range(0, draws, step):
        psis = rng.normal(0.0, 2.0, size=(min(step, draws - start), cols.size))
        gains = _cycle_column_lambdas(system, psis) - cert.lambda_value
        paired = np.subtract(psis, phi_cols, out=psis) @ w_cols
        worst = max_of(worst, float((paired - gains).max()))
    residual = abs(cert.gap)
    if np.isnan(worst) or np.isnan(residual):
        raise CertificateError(
            f"subgradient check is NaN: violation {worst}, residual {residual}"
        )
    if worst > SLACK_TOL:
        raise CertificateError(f"subgradient inequality violated by {worst}")
    return SubgradientResult(
        measure=mu,
        worst_violation=worst,
        tau_identity_residual=residual,
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
    # tau_n below rejects a functional that is not positive and normalized
    charged = _polytope_constraints(system, [mu.weights]).charges[0]
    if not charged.any():
        raise ValueError("no null atom carries charge")
    g = charged.astype(float)
    partition = PartitionOfUnity(np.stack([g, 1.0 - g]))
    solution = tau_n(system, mu, partition, 1)
    if solution.value != -np.inf:
        raise CertificateError("charged null set failed to force tau_n to -inf")
    ray = divergence_witness(system, mu)
    if ray.defect != NULL_CHARGE:
        raise CertificateError("witness priority did not select the null charge")
    return NullChargeReport(
        tau_value=-np.inf,
        inf_value=-np.inf,
        partition=partition,
        partition_solution=solution,
        ray=ray,
    )
