"""t-entropy of positive normalized functionals.

The t-entropy at horizon n of a functional mu against a partition of unity D
is the best value of sum_g mu[g] ln(integral of g |f o alpha^n| dm / mu[g])
over L1-normalized f, with the conventions that mu[g] = 0 summands are
dropped and that a charged member with vanishing integrals forces the value
down to -inf.  The t-entropy itself is the infimum of these values over n
and D, divided by n.

Restricting f to the support turns the inner problem into maximizing a
concave mixture log-likelihood over the simplex.  ``maximize_inner_batch``
solves a batch of them with one primal-dual interior-point method
(Mehrotra's predictor-corrector, stepping all problems together with one
batched linear solve per predictor and per corrector) and stops each on a
one-line optimality certificate computed from its final point alone;
``maximize_inner`` is the batch of one.  Two independent routes compute the
infimum: a direct search over partition families, whose candidates are
solved as one batch, and a dual route through the geometry of invariant
functionals, which on finite systems leaves only the values 0 and -inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .claims import (
    BUCKET_PAD,
    CERTIFICATE_TOL,
    DESCENT_TOL,
    DIRECT_TOL,
    INNER_TOL,
    ROUNDOFF_TOL,
    SLACK_TOL,
    SOLVER_SLACK_TOL,
    TIE_TOL,
    CertificateError,
)
from .spectral import _norm_log, log_spectral_radius_batch, op_norm
from .system import (
    FiniteSystem,
    Functional,
    PartitionOfUnity,
    _horizon,
    _horizon_rows,
    _integers,
    _pairings,
    _polytope_constraints,
    _require_invariant,
    _require_partitions,
    _require_positive,
    _seed,
    _transport,
    alpha_power,
    atomic_partition,
    birkhoff,
    cycle_means,
    effective_weights,
    preimage_mass,
    require_valid,
    trivial_partition,
)
from .sampling import random_partition_members
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
    supremum; the supremum is at most value + optimality_gap, and the gap
    never exceeds the tolerance the solve was given.  ``iterations`` counts
    Newton steps.  A divergent problem is reported as value -inf with
    p_star None.
    """

    value: float
    p_star: np.ndarray | None
    optimality_gap: float
    iterations: int


def inner_problem(
    system: FiniteSystem, mu: Functional, partition: PartitionOfUnity, n: int
) -> InnerProblem:
    """The inner problem of mu against a partition at horizon n:
    ``inner_problems`` on one pair."""
    w = effective_weights(system, mu)
    return inner_problems(system, [partition.members], [w], n)[0]


def inner_problems(
    system: FiniteSystem, members, weights, n: int
) -> list[InnerProblem]:
    """``inner_problem`` of each pair of a list of (size, n_atoms) member
    arrays and a (k, n_atoms) stack of effective weights, at one horizon.

    The members of all partitions are pushed along alpha^n by one stacked
    ``preimage_mass`` call, and each problem's c is a slice of consecutive
    rows of its result, row-major like the result itself, so every problem
    keeps the bits of its own call.  Its ``mu_weights`` are one product of
    its members with its weight row.
    """
    require_valid(system)
    n = _horizon(n)
    if len(members) != len(weights):
        raise ValueError("need one weight row per partition")
    if any(m.shape[1] != system.n for m in members):
        raise ValueError("partition must live on the same atoms")
    if not members:
        return []
    sup = system.supported_indices
    an = alpha_power(system, n)
    push = preimage_mass(system, np.concatenate(members) * system.m, an)
    # ``take`` keeps c row-major, as the solver's products read its bits;
    # the slices of consecutive rows stay row-major
    c = push.take(sup, axis=1) / system.m[sup]
    atoms = tuple(sup.tolist())
    problems = []
    end = 0
    for m, w in zip(members, weights):
        start, end = end, end + len(m)
        problems.append(InnerProblem(c[start:end], m @ w, n, atoms))
    return problems


def _horizon_problems(
    system: FiniteSystem, members, weights, horizons: list
) -> list[InnerProblem]:
    """The inner problem of each draw of a list of member arrays and a
    (k, n_atoms) stack of effective weights, from one ``inner_problems``
    call per horizon; ``horizons`` pairs each horizon with its draws
    (``system._horizon_rows``)."""
    problems = [None] * len(weights)
    for n, rows in horizons:
        stack = inner_problems(system, [members[i] for i in rows], weights[rows], n)
        for i, problem in zip(rows, stack):
            problems[i] = problem
    return problems


def _active_rows(problem: InnerProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rows of c and weights of the members that mu charges: the problem's
    own arrays, not copies, when mu charges every member."""
    active = problem.mu_weights > 0.0
    if active.all():
        return problem.c, problem.mu_weights
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


# Newton steps after which a problem still above its tolerance is a failed
# claim; the most any problem took in a traced certify-small round (seed
# 14998: twocyc and a 12-atom system, 200 traced solves) was ten.
_MAX_STEPS = 60
# Fraction of the distance to the boundary of x, z, v > 0 that a step may cover.
_TO_BOUNDARY = 0.99


def maximize_inner(problem: InnerProblem, tol: float = DIRECT_TOL) -> InnerSolution:
    """Solve one inner problem: ``maximize_inner_batch`` on a batch of one.

    Stops once the certificate total * ln(max ratio / total) drops to
    ``tol``, where ratio is the optimality field sum_g mu[g] c[g, .] / (c p)_g
    at the returned point p and total the charged weight: the supremum is at
    most value + that gap.  A problem that does not certify within the step
    cap raises ``CertificateError``; no point above its tolerance is returned.
    """
    return maximize_inner_batch([problem], tol)[0]


def maximize_inner_batch(problems, tol=DIRECT_TOL) -> list[InnerSolution]:
    """Solve a batch of inner problems with one primal-dual interior-point run.

    Each problem is min over x >= 0 of -sum_g mu[g] ln (c x)_g + sum_j x_j,
    whose minimizer is total times the simplex maximizer; without the
    equality constraint every Newton step is one symmetric positive
    definite system (c^T D c + diag(z / x)) dx = rhs.  Uncharged problems
    are 0 at the uniform point.  The charged rows of the other problems
    (copied only when some member is uncharged) are stacked by width,
    padded with uncharged rows of ones.  One test on each stack finds the
    charged members with a zero row, whose problems are -inf; the rest are
    padded to the largest row count among them alone (a lone problem of
    its width is a stack of one at its own row count), so a divergent
    problem never changes the padding of another.  They are stepped
    together by Mehrotra's predictor-corrector method, one batched solve
    per predictor and per corrector; each leaves the stack once its
    certificate, computed from its current point alone, meets its own
    ``tol`` (a scalar or one value per problem).  The objective at each
    returned point is evaluated on the problem's own charged rows.
    """
    tols = np.broadcast_to(np.asarray(tol, dtype=float), (len(problems),))
    out: list[InnerSolution | None] = [None] * len(problems)
    stacks: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for i, problem in enumerate(problems):
        ca, wa = _active_rows(problem)
        s = problem.c.shape[1]
        if wa.size:
            stacks.setdefault(s, []).append((i, ca, wa))
        else:
            out[i] = InnerSolution(0.0, np.full(s, 1.0 / s), 0.0, 0)
    for s, stack in stacks.items():
        sizes = np.array([wa.size for _, _, wa in stack])
        c = np.ones((len(stack), int(sizes.max()), s))
        w = np.zeros(c.shape[:2])
        for b, (_, ca, wa) in enumerate(stack):
            c[b, : wa.size] = ca
            w[b, : wa.size] = wa
        zero = (c.sum(axis=2) == 0.0).any(axis=1)
        if zero.any():
            for b in np.flatnonzero(zero).tolist():
                out[stack[b][0]] = InnerSolution(-np.inf, None, 0.0, 0)
            if zero.all():
                continue
            keep = ~zero
            stack = [entry for entry, kept in zip(stack, keep.tolist()) if kept]
            rows = int(sizes[keep].max())
            c, w = c[keep, :rows], w[keep, :rows]
        index = [i for i, _, _ in stack]
        solved = _interior_point(c, w, tols[index])
        for (i, ca, wa), (q, gap, steps) in zip(stack, solved):
            out[i] = InnerSolution(_objective(ca, wa, q), q, gap, steps)
    return out


def _interior_point(c: np.ndarray, w: np.ndarray, tols: np.ndarray) -> list:
    """(q, gap, steps) for each problem of a padded stack.

    The optimality conditions are bilinear, as for a linear program:
    c^T v + z = 1, v (c x) = w and x z = 0 with x, z, v > 0, where v is the
    multiplier of the member integrals (v = w / (c x) at the optimum) and z
    that of x >= 0.  Eliminating dz and dv leaves
    (c^T diag(v / c x) c + diag(z / x)) dx = rhs, and the primal (x) and dual
    (z, v) steps are cut separately at the boundary.  Mehrotra's corrector
    is replaced by the predictor when it would allow a shorter step, a
    safeguard against its second-order term stalling the iteration.  x
    starts at total / width, v at w / (c x) and z at 1.

    Each direction's distances to the boundary, -(x|z|v) / d where d < 0,
    come from one pass over the concatenated blocks, reduced to a primal
    (x) and a dual (z|v) minimum r.  Every step length is min(1, f r) for a
    fraction f, and rounding keeps f r monotone in r, so taking the minimum
    over blocks before scaling gives the bits of scaling each block first.
    The stack is re-indexed only on steps where a problem leaves it, and
    the predictor and corrector are blended only when some problem takes
    the predictor; neither moves a bit of any problem.
    Raises ``CertificateError`` when a problem is still above its tolerance
    after ``_MAX_STEPS`` Newton steps.
    """
    count, _, s = c.shape
    total = w.sum(axis=1)
    x = np.repeat(total[:, None] / s, s, axis=1)
    v = w / _stack_apply(c, x)
    z = np.ones((count, s))
    live = np.arange(count)
    results: list = [None] * count
    steps = 0
    while True:
        q = x / x.sum(axis=1, keepdims=True)
        # ``_ratio_field`` of each problem; padded rows add zeros
        ratio = _stack_apply_t(c, w / _stack_apply(c, q))
        gap = total * np.log(ratio.max(axis=1) / total)
        done = gap <= tols
        leaving = bool(done.any())
        if leaving:
            for b in np.flatnonzero(done):
                results[live[b]] = (q[b], float(gap[b]), steps)
            if done.all():
                return results
        if steps == _MAX_STEPS:
            raise CertificateError(
                f"{int((~done).sum())} inner problem(s) missed their certificate"
                f" after {_MAX_STEPS} Newton steps (worst gap {gap.max():.3g})"
            )
        steps += 1
        if leaving:
            keep = ~done
            live, c, w, total, tols = live[keep], c[keep], w[keep], total[keep], tols[keep]
            x, z, v = x[keep], z[keep], v[keep]
        y = _stack_apply(c, x)
        hess = (c * (v / y)[:, :, None]).swapaxes(1, 2) @ c
        # the diagonal of each problem's matrix, as a strided view
        hess.reshape(len(x), -1)[:, :: s + 1] += z / x
        # minus the state, the numerators of the distances to the boundary
        retreat = -np.concatenate((x, z, v), axis=1)

        def direction(target, xz, vy):
            # Newton step towards x z = target and v y = w, less the
            # second-order terms xz and vy: (dx, dz, dv, dy)
            rhs = _stack_apply_t(c, (w - vy) / y) - 1.0 + (target - xz) / x
            dx = np.linalg.solve(hess, rhs[:, :, None])[:, :, 0]
            dy = _stack_apply(c, dx)
            return dx, (target - xz - z * dx) / x - z, (w - vy - v * dy) / y - v, dy

        def room(d):
            # largest step to the boundary of x (column 0) and of z and v
            # (column 1) along the direction d; inf where nothing shrinks
            step = np.concatenate(d[:3], axis=1)
            ratios = np.divide(retreat, step, out=np.full_like(step, np.inf), where=step < 0.0)
            return np.minimum.reduceat(ratios, [0, s], axis=1)

        pred = direction(0.0, 0.0, 0.0)
        dx, dz, dv, dy = pred
        room_pred = room(pred)
        affine = np.minimum(1.0, room_pred)
        a_p, a_d = affine[:, :1], affine[:, 1:]
        mu = (x * z).sum(axis=1, keepdims=True) / s
        mu_aff = ((x + a_p * dx) * (z + a_d * dz)).sum(axis=1, keepdims=True) / s
        corr = direction((mu_aff / mu) ** 3 * mu, dx * dz, dv * dy)
        length = np.minimum(1.0, _TO_BOUNDARY * room(corr))
        pred_length = np.minimum(1.0, _TO_BOUNDARY * room_pred)
        # keep the corrector unless it allows a shorter step than the predictor
        back = length.min(axis=1) < pred_length.min(axis=1)
        dx, dz, dv = corr[:3]
        if back.any():
            pick = back[:, None]
            dx, dz, dv = (np.where(pick, a, b) for a, b in zip(pred[:3], corr[:3]))
            length = np.where(pick, pred_length, length)
        x = x + length[:, :1] * dx
        z = z + length[:, 1:] * dz
        v = v + length[:, 1:] * dv


def _stack_apply(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row products (c x)_g of each problem of a stack."""
    return (c @ x[:, :, None])[:, :, 0]


def _stack_apply_t(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Transposed row products sum_g u_g c[g, .] of each problem of a stack."""
    return (u[:, None, :] @ c)[:, 0, :]


def inner_objective(problem: InnerProblem, p) -> float:
    """Value of the concave inner objective at an arbitrary simplex point."""
    return _objective(*_active_rows(problem), np.asarray(p, dtype=float))


def certificate_sup(problem: InnerProblem, solution: InnerSolution) -> float:
    """Largest value of the optimality ratio field at the returned point.

    At an exact maximizer the field is everywhere at most 1, and its
    p-average is exactly 1; values above 1 + ``CERTIFICATE_TOL`` mean the
    solution was never optimal and raise ``CertificateError``.
    """
    if solution.p_star is None:
        raise ValueError("certificate undefined for a divergent problem")
    ca, wa = _active_rows(problem)
    if not wa.size:
        return 1.0
    p = solution.p_star
    ratio = _ratio_field(ca, wa, p)
    mean = float(p @ ratio)
    if abs(mean - wa.sum()) > SLACK_TOL:
        raise CertificateError("ratio field lost its normalization identity")
    sup = float(ratio.max())
    if sup > 1.0 + CERTIFICATE_TOL:
        raise CertificateError(f"claimed optimum fails its certificate: {sup}")
    return sup


def tau_n(
    system: FiniteSystem,
    mu: Functional,
    partition: PartitionOfUnity,
    n: int,
    tol: float = DIRECT_TOL,
) -> InnerSolution:
    """t-entropy at a fixed horizon and partition (not divided by n)."""
    _require_normalized(system, [effective_weights(system, mu)])
    return maximize_inner(inner_problem(system, mu, partition, n), tol=tol)


def _require_normalized(system: FiniteSystem, weights) -> None:
    """ValueError unless each row of a (k, n_atoms) stack of effective
    weights is positive and normalized, as ``_polytope_constraints`` tests."""
    if _polytope_constraints(system, weights).failed[1:3].any():
        raise ValueError("functional must be positive and normalized")


def oscillation_partition(
    system: FiniteSystem, phi, n: int, width: float
) -> PartitionOfUnity:
    """Indicator partition grouping supported atoms by n-step Birkhoff level.

    Atoms land in the same member when their Birkhoff sums share a bucket
    of the given width, so the sums oscillate less than ``width`` inside
    each member.  Null atoms, if any, form one extra trailing member.
    ``ValueError`` unless the width is finite and positive.
    """
    _require_positive(width, "bucket width")
    level = np.floor(birkhoff(system, phi, n) / width)
    return PartitionOfUnity(_level_partitions(system, level[None])[0])


def _level_partitions(system: FiniteSystem, levels: np.ndarray) -> list[np.ndarray]:
    """Members of ``oscillation_partition`` for each row of a (k, n_atoms)
    stack of bucket indices: one 0/1 row per level of the supported atoms,
    in increasing order, then one row of the null atoms if there are any.

    One stable argsort of the supported levels ranks every atom among the
    distinct levels of its row (-0.0 and 0.0 are one level), and one
    scatter writes the members of all rows into one array, whose blocks of
    consecutive rows are returned, one per row of levels.
    """
    sup = system.supported_indices
    nulls = np.flatnonzero(~system.support)
    lv = levels[:, sup]
    order = np.argsort(lv, axis=1, kind="stable")
    ranked = np.take_along_axis(lv, order, axis=1)
    # the rank of each sorted atom's level among the distinct levels
    rank = np.zeros(lv.shape, dtype=np.intp)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
    sizes = rank[:, -1] + 1 + (nulls.size > 0)
    ends = np.cumsum(sizes)
    members = np.zeros((int(sizes.sum()), system.n))
    members[(ends - sizes)[:, None] + rank, sup[order]] = 1.0
    if nulls.size:
        members[(ends - 1)[:, None], nulls] = 1.0
    return [
        members[end - size : end] for end, size in zip(ends.tolist(), sizes.tolist())
    ]


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
    system: FiniteSystem, mu: Functional, n_max: int = 4, seed: int = 0
) -> TauResult:
    """Search over horizons and partition families for the smallest tau_n / n.

    At each horizon the candidates are the atomic and trivial partitions,
    three oscillation partitions (each bucketing the Birkhoff sums that set
    its width) and eight random partitions, drawn in one
    ``random_partition_members`` call.  The atomic and trivial
    partitions are built once per call.  The three potentials of a horizon
    are drawn as one (3, n_atoms) stack, whose sums come from one stacked
    ``system._transport`` call and whose members come from one
    ``_level_partitions`` call, each row with the bits of its own
    ``oscillation_partition``.  Every candidate contributes a
    certified upper bound (value plus optimality gap), so the reported
    number can sit slightly above but never below the infimum over the
    candidate set.  The achieving horizon and partition are those of the
    first candidate, in search order, whose bound lies within
    ``DIRECT_TOL`` of that minimum.  The candidates of a horizon beyond
    the fixed two are member arrays, validated by one stacked
    ``system._require_partitions`` test; only the achieving one is built
    as a ``PartitionOfUnity``.  ``ValueError`` unless the seed is an
    integer (not a bool) in [0, 2**64) (``system._seed``);
    ``CertificateError`` if a candidate bound is NaN.
    """
    require_valid(system)
    n_max = _horizon(n_max)
    w = effective_weights(system, mu)
    _require_normalized(system, [w])
    rng = np.random.default_rng(_seed(seed))
    fixed = [atomic_partition(system).members, trivial_partition(system).members]
    candidates: list[tuple[int, np.ndarray]] = []
    problems: list[InnerProblem] = []
    for n in range(1, n_max + 1):
        # the draws of three rng.uniform(-2.0, 2.0, system.n) calls, in order
        s, _ = _transport(system, rng.uniform(-2.0, 2.0, (3, system.n)), n)
        widths = (s.max(axis=1) - s.min(axis=1)) / 3.0 + BUCKET_PAD
        levels = np.floor(s / widths[:, None])
        drawn = _level_partitions(system, levels)
        drawn += random_partition_members(rng, system, 8)
        _require_partitions(drawn)
        parts = fixed + drawn
        candidates += [(n, members) for members in parts]
        problems += inner_problems(system, parts, [w] * len(parts), n)
    solutions = maximize_inner_batch(problems, DIRECT_TOL)
    bounds = []
    for (n, members), sol in zip(candidates, solutions):
        if sol.value == -np.inf:
            return TauResult(
                value=-np.inf,
                route="direct",
                achieving_n=n,
                achieving_partition=PartitionOfUnity(members),
            )
        bounds.append((sol.value + sol.optimality_gap) / n + ROUNDOFF_TOL)
    best = float(np.min(bounds))
    if best != best:
        raise CertificateError("a candidate bound of the direct route is NaN")
    # Bounds closer than the solver tolerance are ties, so report the first
    # of them rather than whichever one sub-tolerance noise put lowest.
    first = next(i for i, bound in enumerate(bounds) if bound <= best + DIRECT_TOL)
    n, members = candidates[first]
    return TauResult(
        value=float(best),
        route="direct",
        achieving_n=n,
        achieving_partition=PartitionOfUnity(members),
    )


def _dual_descent(
    system: FiniteSystem, w: np.ndarray, a: np.ndarray, iters: int = 500
) -> float:
    """Best value of lambda(phi) - mu[phi] seen along a subgradient descent.

    Positive homogeneity means one strictly negative value certifies
    divergence, in which case a far scaled-out value is returned;
    otherwise this is a best-effort probe of the infimum.

    lambda(phi) is the largest of the cycle means of phi, and the
    subgradient g_k averages the uniform measures of the cycles tied at
    step k.  From phi_0 = 0 the step phi_{k+1} = phi_k + (w - g_k)/(k+1)
    keeps phi_k = H_k w - E_c / L_c on the atoms of each supported cycle
    c of length L_c and phi_k = H_k w elsewhere, where H_k is the harmonic
    sum of 1/(j+1) over j < k and E_c sums 1/((j+1) count_j) over the
    steps j < k at which c was one of the count_j tied cycles.  With a_c
    the cycle means of w, the cycle means of phi_k are H_k a - E / L and
    w . phi_k = H_k (w . w) - E . a.  So the effective weights w of mu,
    their cycle means a (one ``cycle_means`` call, made by the caller) and
    one dot product over the N atoms start the descent, and phi is never
    written out.

    A step moves only the tied cycles, and past step 0 that is almost
    always one cycle.  So q = E / L is kept entry by entry, and each step
    makes a fixed handful of O(supported cycles) array calls: the values
    H_k a - q into one reused buffer, an argmax, the dot product E . a, and
    a second argmax with the winner masked, which tells whether another
    cycle lies within ``TIE_TOL``.  A lone winner updates its own E and q
    as scalars; a real tie (every cycle at step 0) takes the masked update
    of all tied cycles.  Every float is the one the full-array step
    computes, so the result keeps its bits.
    """
    lengths = np.array([c.size for c in system.supported_cycle_arrays], dtype=float)
    ww = float(w @ w)
    e = np.zeros(a.size)
    q = np.zeros(a.size)
    vals = np.empty(a.size)
    harmonic = 0.0
    best = 0.0
    for k in range(iters):
        np.multiply(harmonic, a, out=vals)
        np.subtract(vals, q, out=vals)
        i = int(vals.argmax())
        lam = float(vals[i])
        h = lam - (harmonic * ww - float(e @ a))
        best = min(best, h)
        if h < -SLACK_TOL:
            return min(best, h * 2e12)
        floor = lam - TIE_TOL
        vals[i] = -np.inf
        if vals[vals.argmax()] >= floor:
            vals[i] = lam
            tied = vals >= floor
            e[tied] += 1.0 / ((k + 1.0) * int(tied.sum()))
            np.divide(e, lengths, out=q)
        else:
            e[i] += 1.0 / (k + 1.0)
            q[i] = e[i] / lengths[i]
        harmonic += 1.0 / (k + 1.0)
    return best


def hull_means(system: FiniteSystem, weights) -> np.ndarray:
    """Cycle means of defect-free weights, checked to rebuild them.

    A functional with no divergence defect is the mixture of the uniform
    cycle measures whose weight on each cycle atom is its cycle mean;
    ``CertificateError`` when some row's rebuilt mixture misses it by more
    than ``SLACK_TOL``.  ``weights`` is one row or a (k, n_atoms) stack, one
    ``cycle_means`` call for all rows, each with the bits of its own call.
    """
    w = np.asarray(weights, dtype=float)
    means = cycle_means(system, w)
    atoms, cycle, _ = system.cycle_atom_index
    rebuilt = np.zeros(w.shape)
    rebuilt[..., atoms] = means[..., cycle]
    if np.any(np.abs(w - rebuilt).max(axis=-1) > SLACK_TOL):
        raise CertificateError(
            "defect-free functional is not a hull point of cycle measures"
        )
    return means


def tau_dual(
    system: FiniteSystem, mu: Functional, cross_check: bool = True
) -> TauResult:
    """t-entropy through the variational side.

    Finite systems are dichotomic: a functional inside the invariant
    polytope has value 0 (witnessed by writing it as a hull point of the
    uniform cycle measures), anything else diverges to -inf along an
    explicit ray.  The optional descent cross-check hunts for a negative
    variational value and errors out if it contradicts a membership claim;
    it steps on per-cycle scalars from the one ``cycle_means`` call of the
    membership test (or of its own on a divergent functional), so it costs
    O(N) once plus a fixed handful of O(supported cycles) array calls per
    step.

    The descent is a probe, not a certificate: only a negative
    ``descent_best`` says something.  Off the polytope but close to it, it
    can stay at or above 0 for all its steps.  A hull point pushed off by
    noise of at most 1/(4N) per atom has negative weights and the value
    -inf by a negativity ray, yet its ``descent_best`` is exactly 0.0; so
    is that of a hull point whose weights vary within cycles (a
    non-invariance ray).
    """
    require_valid(system)
    try:
        witness = divergence_witness(system, mu)
    except NoDefectError:
        witness = None
    if witness is None:
        w = effective_weights(system, mu)
        means = hull_means(system, w)
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
        # the hull branch has the weights and their cycle means already
        if witness is not None:
            w = effective_weights(system, mu)
            means = cycle_means(system, w)
        best = _dual_descent(system, w, means)
        if witness is None and best < -DESCENT_TOL:
            raise CertificateError(
                "descent found a negative variational value for a hull point"
            )
        result = replace(result, descent_best=best)
    return result


def _horizon_groups(ns, epss, *stacks) -> tuple[np.ndarray, np.ndarray, list]:
    """Checked (k,) horizons and widths of k draws, and the draws of each
    horizon (``system._horizon_rows``).

    ``ValueError`` unless the horizons are integers of at least 1, the
    widths finite and positive, and the widths and every stack in
    ``stacks`` hold one entry per horizon.
    """
    ns = _integers(ns, "horizon")
    epss = np.asarray(epss, dtype=float)
    if ns.ndim != 1 or epss.shape != ns.shape or any(len(a) != ns.size for a in stacks):
        raise ValueError("need one horizon and one eps per draw")
    if np.any(ns < 1):
        raise ValueError("horizon must be at least 1")
    _require_positive(epss, "eps")
    return ns, epss, _horizon_rows(ns)


def local_young_check(
    system: FiniteSystem, phi, mu: Functional, n: int, eps: float
) -> tuple[float, float]:
    """Fixed-horizon entropy inequality against the norm of the shift power.

    For invariant mu and the Birkhoff-level partition of width eps * n,
    eps + (1/n) ln ||A^n|| must dominate mu[phi] + tau_n / n.  Returns the
    two sides: ``local_young_checks`` on one row.
    """
    w = effective_weights(system, mu)
    lhs, rhs = local_young_checks(system, [phi], [w], [n], [eps])
    return float(lhs[0]), float(rhs[0])


def local_young_checks(
    system: FiniteSystem, phis, weights, ns, epss
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of ``local_young_check`` for each row of (k, n_atoms)
    stacks of potentials and effective weights of invariant functionals
    and (k,) horizons and widths.

    One stacked invariance test covers every row (it implies that mu is
    positive and normalized).  The rows of one horizon share one stacked
    ``system._transport`` call, as ``op_norm_log`` makes, whose Birkhoff
    sums give both the levels of their oscillation partitions (0/1 member
    rows, built for all its rows by one ``_level_partitions`` call) and
    their log-norms, and one ``inner_problems`` call; the inner problems of
    all rows are solved as one batch, and the pairings mu[phi] come from
    one ``_pairings`` call.  Each side keeps the bits of a call on its row
    alone.
    """
    phis = np.asarray(phis, dtype=float)
    w = np.asarray(weights, dtype=float)
    _require_invariant(system, w, phis)
    ns, epss, horizons = _horizon_groups(ns, epss, w)
    norms = np.empty(len(w))
    problems = [None] * len(w)
    for n, rows in horizons:
        s, an = _transport(system, phis[rows], n)
        norms[rows] = _norm_log(system, s, an)
        levels = np.floor(s / (epss[rows] * n)[:, None])
        members = _level_partitions(system, levels)
        for i, problem in zip(rows, inner_problems(system, members, w[rows], n)):
            problems[i] = problem
    values = np.array([sol.value for sol in maximize_inner_batch(problems)])
    lhs = epss + norms / ns
    rhs = _pairings(w, phis) + values / ns
    if np.any(lhs < rhs - SOLVER_SLACK_TOL):
        raise CertificateError("fixed-horizon entropy inequality failed")
    return lhs, rhs


@dataclass(frozen=True, eq=False)
class NearMinimizerBounds:
    """Slack of the two laws pinning the near-minimizing potential.

    phi is the potential built from an inner optimum that nearly attains
    tau_n: e^(n phi) mixes each charged member weighted by mu[g] over its
    optimal integral at ``INNER_TOL``, and pads uncharged members with eps
    so the log stays finite; on atoms covered only by uncharged members the
    value is ln(eps) / n.  growth_slack = eps ||A0^n|| - n lambda(phi);
    pairing_slack = mu[n phi] + tau_n value.  Both are nonnegative up to
    solver tolerance.
    For one draw the slacks are floats, phi one potential and solution one
    ``InnerSolution``; for a stack of k draws the slacks are (k,) arrays,
    phi a (k, n_atoms) stack and solution a list.
    """

    phi: np.ndarray
    growth_slack: float | np.ndarray
    pairing_slack: float | np.ndarray
    solution: InnerSolution | list[InnerSolution]


def near_minimizer_bounds(
    system: FiniteSystem,
    mu: Functional,
    partition: PartitionOfUnity,
    n: int,
    eps: float,
) -> NearMinimizerBounds:
    """Both slacks of the near-minimizer of mu against a partition at
    horizon n: ``near_minimizer_checks`` on one draw."""
    w = effective_weights(system, mu)
    b = near_minimizer_checks(system, [partition.members], [w], [n], [eps])
    return NearMinimizerBounds(
        phi=b.phi[0],
        growth_slack=float(b.growth_slack[0]),
        pairing_slack=float(b.pairing_slack[0]),
        solution=b.solution[0],
    )


def near_minimizer_checks(
    system: FiniteSystem, members, weights, ns, epss
) -> NearMinimizerBounds:
    """``near_minimizer_bounds`` of each draw of a list of (size, n_atoms)
    member arrays, a (k, n_atoms) stack of effective weights of normalized
    functionals and (k,) horizons and eps.

    The draws of one horizon share one ``inner_problems`` call and
    ||A0^n||, which depends on the system and n alone; the problems of all
    draws are solved as one batch at ``INNER_TOL``, each potential is built
    from its draw's solution, and one ``log_spectral_radius_batch`` call
    and one ``_pairings`` call cover all potentials.  A draw of one is
    solved alone and keeps the bits of its own solve; in a larger batch,
    problems padded to a common row count can move in their last bits.
    """
    w = np.asarray(weights, dtype=float)
    ns, epss, horizons = _horizon_groups(ns, epss, members, w)
    _require_normalized(system, w)
    problems = _horizon_problems(system, members, w, horizons)
    norms = np.empty(len(w))
    for n, rows in horizons:
        norms[rows] = op_norm(system, np.zeros(system.n), n)
    solutions = maximize_inner_batch(problems, INNER_TOL)
    phis = np.empty((len(w), system.n))
    for i, (problem, sol) in enumerate(zip(problems, solutions)):
        if sol.p_star is None or sol.value == -np.inf:
            raise ValueError("near-minimizer needs a finite inner value")
        coef = np.full(len(members[i]), epss[i])
        active = problem.mu_weights > 0.0
        coef[active] = problem.mu_weights[active] / (problem.c @ sol.p_star)[active]
        u = members[i].T @ coef
        if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
            raise CertificateError("mixture weight vanished at an atom")
        phis[i] = np.log(u) / ns[i]
    values = np.array([sol.value for sol in solutions])
    growth = epss * norms - ns * log_spectral_radius_batch(system, phis)
    pairing = _pairings(w, ns[:, None] * phis) + values
    if np.any(growth < -SOLVER_SLACK_TOL) or np.any(pairing < -SOLVER_SLACK_TOL):
        raise CertificateError("near-minimizer bound violated beyond tolerance")
    return NearMinimizerBounds(
        phi=phis, growth_slack=growth, pairing_slack=pairing, solution=solutions
    )
