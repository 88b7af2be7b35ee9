"""t-entropy of positive normalized functionals.

The t-entropy at horizon n of a functional mu against a partition of unity D
is the best value of sum_g mu[g] ln(integral of g |f o alpha^n| dm / mu[g])
over L1-normalized f, with the conventions that mu[g] = 0 summands are
dropped and that a charged member with vanishing integrals forces the value
down to -inf.  The t-entropy itself is the infimum of these values over n
and D, divided by n.

Restricting f to the support turns the inner problem into maximizing a
concave mixture log-likelihood over the simplex, which a multiplicative
ascent solves with a one-line optimality certificate.  Two independent
routes compute the infimum: a direct search over partition families, and a
dual route through the geometry of invariant functionals, which on finite
systems leaves only the values 0 and -inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import log_spectral_radius, op_norm, op_norm_log
from .system import (
    FiniteSystem,
    Functional,
    PartitionOfUnity,
    alpha_power,
    atomic_partition,
    birkhoff,
    cycle_means,
    effective_weights,
    is_invariant,
    pair,
    preimage_mass,
    require_valid,
    trivial_partition,
)
from .sampling import random_partition
from .varprin import DivergenceWitness, NoDefectError, divergence_witness


@dataclass(frozen=True, eq=False)
class InnerProblem:
    """Data of one inner maximization: member integrals against mass transport.

    ``c[g, y]`` is the mass of member g inside the n-step preimage of the
    supported atom y, relative to the mass of y, so that the integral of
    g |f o alpha^n| dm equals (c p)_g with p the mass profile of f.
    """

    c: np.ndarray
    mu_weights: np.ndarray
    n: int
    support_atoms: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class InnerSolution:
    """Near-optimal simplex point with a certified optimality gap.

    ``value`` is the objective at ``p_star`` and never overshoots the true
    supremum; the supremum is at most value + optimality_gap.  A divergent
    problem is reported as value -inf with p_star None.
    """

    value: float
    p_star: np.ndarray | None
    c_limits: np.ndarray | None
    optimality_gap: float
    iterations: int


def inner_problem(
    system: FiniteSystem, mu: Functional, partition: PartitionOfUnity, n: int
) -> InnerProblem:
    require_valid(system)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    members = partition.members
    if members.shape[1] != system.n:
        raise ValueError("partition must live on the same atoms")
    w = effective_weights(system, mu)
    an = alpha_power(system, n)
    sup = system.supported_indices
    rows = []
    for g in members:
        push = preimage_mass(system, g * system.m, an)
        rows.append(push[sup] / system.m[sup])
    return InnerProblem(
        c=np.array(rows),
        mu_weights=members @ w,
        n=n,
        support_atoms=tuple(int(i) for i in sup),
    )


def _active_rows(problem: InnerProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rows of c and weights of the members that mu charges."""
    active = problem.mu_weights > 0.0
    return problem.c[active], problem.mu_weights[active]


def _ratio_field(ca: np.ndarray, wa: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Optimality ratio field sum_g mu[g] c[g, .] / (c q)_g over charged rows."""
    return (wa / (ca @ q)) @ ca


def _objective(ca: np.ndarray, wa: np.ndarray, q: np.ndarray) -> float:
    """Inner objective over charged rows, -inf once a member integral vanishes."""
    cq = ca @ q
    if cq.size and cq.min() <= 0.0:
        return -np.inf
    return float(wa @ np.log(cq / wa))


def maximize_inner(
    problem: InnerProblem, tol: float = 1e-8, max_iter: int = 200000
) -> InnerSolution:
    """Multiplicative ascent for the inner problem.

    Each step rescales p by the ratio field sum_g mu[g] c[g, .] / (c p)_g;
    the objective never decreases, and ln of the largest ratio bounds the
    remaining gap to the supremum, so iteration stops once that bound
    drops below ``tol``.  Plain rescaling crawls when the optimum sits on a
    face of the simplex, so each round takes two steps and tries the
    standard squared-extrapolation point, keeping it only when it does not
    lower the objective; the final certificate is computed from the final
    point alone and does not depend on the path taken.
    """
    c = problem.c
    s = c.shape[1]
    p = np.full(s, 1.0 / s)
    ca, wa = _active_rows(problem)
    if not wa.size:
        return InnerSolution(0.0, p, c @ p, 0.0, 0)
    if np.any(ca.sum(axis=1) == 0.0):
        return InnerSolution(-np.inf, None, None, 0.0, 0)
    total = wa.sum()

    def step(q):
        q = q * _ratio_field(ca, wa, q)
        return q / q.sum()

    def polish(q, ratio):
        # Newton step on the stationarity conditions over the working face:
        # ratio must equal the weight total wherever q is positive.  Feeds
        # on a nearly singular c where the multiplicative rate tends to 1.
        work = np.flatnonzero(q > 1e-12)
        k = work.size
        if k < 2:
            return q, ratio, False
        a = ca[:, work] / (ca @ q)[:, None]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = -(a * wa[:, None]).T @ a
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(total - ratio[work], 0.0)
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        delta = np.zeros_like(q)
        delta[work] = sol[:k]
        for beta in 2.0 ** -np.arange(11.0):
            cand = q + beta * delta
            if cand.min() <= 0.0:
                continue
            cand = cand / cand.sum()
            new_ratio = _ratio_field(ca, wa, cand)
            if new_ratio.max() < ratio.max():
                return cand, new_ratio, True
        return q, ratio, False

    iterations = 0
    for iterations in range(1, max_iter + 1):
        ratio = _ratio_field(ca, wa, p)
        if total * np.log(ratio.max() / total) <= tol:
            break
        if total * np.log(ratio.max() / total) <= 1e-2:
            p, ratio, improved = polish(p, ratio)
            if total * np.log(ratio.max() / total) <= tol:
                break
            if improved:
                continue
        p1 = p * ratio
        p1 /= p1.sum()
        p2 = step(p1)
        r = p1 - p
        v = p2 - 2.0 * p1 + p
        vv = float(v @ v)
        if vv > 0.0:
            alpha = -np.sqrt(float(r @ r) / vv)
            cand = np.maximum(p - 2.0 * alpha * r + alpha * alpha * v, 1e-16)
            cand /= cand.sum()
            if _objective(ca, wa, cand) >= _objective(ca, wa, p2):
                p2 = cand
        p = p2
    cp = ca @ p
    if not np.all(np.isfinite(cp)) or cp.min() <= 0.0:
        raise RuntimeError("inner ascent lost positivity")
    gap = float(total * np.log(_ratio_field(ca, wa, p).max() / total))
    return InnerSolution(_objective(ca, wa, p), p, c @ p, gap, iterations)


def inner_objective(problem: InnerProblem, p) -> float:
    """Value of the concave inner objective at an arbitrary simplex point."""
    return _objective(*_active_rows(problem), np.asarray(p, dtype=float))


def certificate_sup(
    problem: InnerProblem, solution: InnerSolution, tol: float = 1e-6
) -> float:
    """Largest value of the optimality ratio field at the returned point.

    At an exact maximizer the field is everywhere at most 1, and its
    p-average is exactly 1; values above 1 + tol mean the solution was
    never optimal and are an error.
    """
    if solution.p_star is None:
        raise ValueError("certificate undefined for a divergent problem")
    ca, wa = _active_rows(problem)
    if not wa.size:
        return 1.0
    p = solution.p_star
    ratio = _ratio_field(ca, wa, p)
    mean = float(p @ ratio)
    if abs(mean - wa.sum()) > 1e-9:
        raise RuntimeError("ratio field lost its normalization identity")
    sup = float(ratio.max())
    if sup > 1.0 + tol:
        raise RuntimeError(f"claimed optimum fails its certificate: {sup}")
    return sup


def tau_n(
    system: FiniteSystem,
    mu: Functional,
    partition: PartitionOfUnity,
    n: int,
    tol: float = 1e-8,
) -> InnerSolution:
    """t-entropy at a fixed horizon and partition (not divided by n)."""
    w = effective_weights(system, mu)
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("functional must be positive and normalized")
    return maximize_inner(inner_problem(system, mu, partition, n), tol=tol)


def oscillation_partition(
    system: FiniteSystem, phi, n: int, width: float
) -> PartitionOfUnity:
    """Indicator partition grouping supported atoms by n-step Birkhoff level.

    Atoms land in the same member when their Birkhoff sums share a bucket
    of the given width, so the sums oscillate less than ``width`` inside
    each member.  Null atoms, if any, form one extra trailing member.
    """
    if width <= 0.0:
        raise ValueError("bucket width must be positive")
    level = np.floor(birkhoff(system, phi, n) / width)
    keys = sorted(set(level[system.support].tolist()))
    rows = [system.support & (level == key) for key in keys]
    if not bool(system.support.all()):
        rows.append(~system.support)
    return PartitionOfUnity(np.array(rows, dtype=float))


@dataclass(frozen=True, eq=False)
class TauResult:
    """Outcome of a t-entropy computation by either route.

    ``dual_witness`` is a potential certifying the value from the
    variational side: zero when the value is 0, a steep divergence ray when
    the value is -inf.  ``descent_best`` records the best variational value
    seen by the optional descent cross-check.
    """

    value: float
    route: str
    achieving_n: int | None = None
    achieving_partition: PartitionOfUnity | None = None
    dual_witness: np.ndarray | None = None
    divergence: DivergenceWitness | None = None
    descent_best: float | None = None


def tau_direct(
    system: FiniteSystem,
    mu: Functional,
    n_max: int = 4,
    strategies: tuple[str, ...] = ("atomic", "trivial", "oscillation", "random"),
    budget: int = 8,
    seed: int = 0,
    tol: float = 1e-8,
) -> TauResult:
    """Search over horizons and partition families for the smallest tau_n / n.

    Every candidate contributes a certified upper bound (value plus
    optimality gap), so the reported number can sit slightly above but
    never below the infimum over the candidate set.
    """
    require_valid(system)
    if n_max < 1:
        raise ValueError("need at least one horizon")
    known = {"atomic", "trivial", "oscillation", "random"}
    bad = set(strategies) - known
    if bad:
        raise ValueError(f"unknown strategies: {sorted(bad)}")
    rng = np.random.default_rng(seed)
    best = np.inf
    best_n: int | None = None
    best_partition: PartitionOfUnity | None = None
    for n in range(1, n_max + 1):
        candidates: list[PartitionOfUnity] = []
        if "atomic" in strategies:
            candidates.append(atomic_partition(system))
        if "trivial" in strategies:
            candidates.append(trivial_partition(system))
        if "oscillation" in strategies:
            for _ in range(3):
                phi = rng.uniform(-2.0, 2.0, system.n)
                s = birkhoff(system, phi, n)
                width = (float(s.max() - s.min())) / 3.0 + 1e-9
                candidates.append(oscillation_partition(system, phi, n, width))
        if "random" in strategies:
            for _ in range(budget):
                candidates.append(random_partition(rng, system))
        for partition in candidates:
            sol = tau_n(system, mu, partition, n, tol=tol)
            if sol.value == -np.inf:
                return TauResult(
                    value=-np.inf,
                    route="direct",
                    achieving_n=n,
                    achieving_partition=partition,
                )
            bound = (sol.value + sol.optimality_gap) / n + 1e-12
            if bound < best:
                best = bound
                best_n = n
                best_partition = partition
    return TauResult(
        value=float(best),
        route="direct",
        achieving_n=best_n,
        achieving_partition=best_partition,
    )


def _dual_descent(system: FiniteSystem, mu: Functional, iters: int = 500) -> float:
    """Best value of lambda(phi) - mu[phi] seen along a subgradient descent.

    Positive homogeneity means one strictly negative value certifies
    divergence, in which case a far scaled-out value is returned;
    otherwise this is a best-effort probe of the infimum.

    lambda(phi) is the largest of the cycle means of phi, and the
    subgradient averages the uniform measures of the tied cycles, so a
    step costs O(cycle atoms + N) and no vertex is ever written out
    over all N atoms.
    """
    w = effective_weights(system, mu)
    phi = np.zeros(system.n)
    best = 0.0
    for k in range(iters):
        vals = cycle_means(system, phi)
        lam = float(vals.max())
        h = lam - float(w @ phi)
        best = min(best, h)
        if h < -1e-9:
            return min(best, h * 2e12)
        tied = vals >= lam - 1e-12
        count = int(tied.sum())
        grad = -w
        for pos, rows in system.cycle_groups:
            grad[rows[tied[pos]]] += (1.0 / rows.shape[1]) / count
        phi = phi - grad / (k + 1.0)
    return best


def tau_dual(
    system: FiniteSystem, mu: Functional, cross_check: bool = True
) -> TauResult:
    """t-entropy through the variational side.

    Finite systems are dichotomic: a functional inside the invariant
    polytope has value 0 (witnessed by writing it as a hull point of the
    uniform cycle measures), anything else diverges to -inf along an
    explicit ray.  The optional descent cross-check hunts for a negative
    variational value and errors out if it contradicts a membership claim.
    """
    require_valid(system)
    try:
        witness = divergence_witness(system, mu)
    except NoDefectError:
        witness = None
    if witness is None:
        w = effective_weights(system, mu)
        means = cycle_means(system, w)
        rebuilt = np.zeros(system.n)
        for pos, rows in system.cycle_groups:
            rebuilt[rows] = means[pos, None]
        residual = float(np.max(np.abs(w - rebuilt)))
        if residual > 1e-9:
            raise RuntimeError(
                "defect-free functional is not a hull point of cycle measures"
            )
        result = TauResult(
            value=0.0, route="dual", dual_witness=np.zeros(system.n)
        )
    else:
        result = TauResult(
            value=-np.inf,
            route="dual",
            dual_witness=1000.0 * witness.direction,
            divergence=witness,
        )
    if cross_check:
        best = _dual_descent(system, mu)
        if witness is None and best < -1e-6:
            raise RuntimeError(
                "descent found a negative variational value for a hull point"
            )
        result = replace(result, descent_best=best)
    return result


def local_young_check(
    system: FiniteSystem, phi, mu: Functional, n: int, eps: float
) -> tuple[float, float]:
    """Fixed-horizon entropy inequality against the norm of the shift power.

    For invariant mu and the Birkhoff-level partition of width eps * n,
    eps + (1/n) ln ||A^n|| must dominate mu[phi] + tau_n / n.  Returns the
    two sides.
    """
    ok, worst = is_invariant(system, mu)
    if not ok:
        raise ValueError(f"functional must be invariant (defect {worst:g})")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    phi = np.asarray(phi, dtype=float)
    partition = oscillation_partition(system, phi, n, eps * n)
    sol = tau_n(system, mu, partition, n)
    lhs = eps + op_norm_log(system, phi, n) / n
    rhs = pair(system, mu, phi) + sol.value / n
    if lhs < rhs - 1e-8:
        raise RuntimeError("fixed-horizon entropy inequality failed")
    return lhs, rhs


def near_minimizer(
    system: FiniteSystem,
    mu: Functional,
    partition: PartitionOfUnity,
    n: int,
    eps: float,
    solution: InnerSolution | None = None,
) -> np.ndarray:
    """Potential built from an inner optimum that nearly attains tau_n.

    e^(n phi) mixes each charged member weighted by mu[g] over its optimal
    integral, and pads uncharged members with eps so the log stays finite;
    on atoms covered only by uncharged members the value is ln(eps) / n.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if solution is None:
        solution = tau_n(system, mu, partition, n, tol=1e-9)
    if solution.p_star is None or solution.value == -np.inf:
        raise ValueError("near-minimizer needs a finite inner value")
    w = partition.members @ effective_weights(system, mu)
    coef = np.full(partition.size, eps)
    active = w > 0.0
    coef[active] = w[active] / solution.c_limits[active]
    u = partition.members.T @ coef
    if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
        raise RuntimeError("mixture weight vanished at an atom")
    return np.log(u) / n


@dataclass(frozen=True, eq=False)
class NearMinimizerBounds:
    """Slack of the two laws pinning the near-minimizing potential.

    growth_slack = eps ||A0^n|| - n lambda(phi); pairing_slack =
    mu[n phi] + tau_n value.  Both are nonnegative up to solver tolerance.
    """

    phi: np.ndarray
    growth_slack: float
    pairing_slack: float
    solution: InnerSolution


def near_minimizer_bounds(
    system: FiniteSystem,
    mu: Functional,
    partition: PartitionOfUnity,
    n: int,
    eps: float,
) -> NearMinimizerBounds:
    solution = tau_n(system, mu, partition, n, tol=1e-9)
    phi = near_minimizer(system, mu, partition, n, eps, solution=solution)
    growth = eps * op_norm(system, np.zeros(system.n), n) - n * log_spectral_radius(
        system, phi
    )
    pairing = pair(system, mu, n * phi) + solution.value
    if growth < -1e-8 or pairing < -1e-8:
        raise RuntimeError("near-minimizer bound violated beyond tolerance")
    return NearMinimizerBounds(
        phi=phi, growth_slack=growth, pairing_slack=pairing, solution=solution
    )
