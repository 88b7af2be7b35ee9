"""Named certification checks and the suites that group them.

Each check draws its own generator from (seed, check name), so the verdicts
do not depend on which other checks run or in what order.  A check returns
its headline values, its claims, and optionally a witness of the worst case.
A claim is an ``(observed, bound)`` pair that holds when ``observed <= bound``;
tolerance bounds are the named constants of ``claims``, the same names the
library's own assertions of those laws read, and go through
``CertifyConfig.threshold`` (so ``--tolerance`` overrides them); structural
bounds are literal.  ``make_record`` derives every record's verdict (pass
when all claims hold), residual (the largest excess over a bound, 0 exactly
when the record passes) and repro (failing records only); the CLI builds its
own records with it too.  The runner turns a ``CertificateError`` (a failed
claim) or ``ValueError`` raised by a check into a failed record with an
infinite residual instead of a crash; any other exception propagates, and so
does numpy's ``LinAlgError``: it subclasses ``ValueError``, but a singular
linear system is a failure of the library, not bad input.

Thirteen checks fill arrays with their draws, making the same generator calls
in the same order as one evaluation per draw would (the array forms of the
samplers build no object), and then evaluate the draws with batched calls,
each draw keeping the bits of its own evaluation except where said:

- ``entstat.empirical``: ``empirical_weights`` and one stacked
  ``orbit_sums`` walk for the Birkhoff sums per chunk of ``_YOUNG_CHUNK``
  draws;
- ``entstat.tv``: ``empirical_weights`` per chunk of ``_YOUNG_CHUNK`` draws;
- ``lemma.gelfand``: one generator call and one stacked
  ``spectral_potential`` per chunk of ``system._chunk_rows`` potentials;
- ``lemma.inner_certificate``: one ``inner_problems`` call per horizon of
  a chunk of ``_YOUNG_CHUNK`` draws (``entropy._horizon_problems``), with
  the atomic members built once per check; the solves stay one
  ``maximize_inner`` per draw (below);
- ``lemma.near_minimizer``: ``near_minimizer_checks`` on chunks of
  ``_YOUNG_CHUNK`` draws, one ``inner_problems`` call per horizon of a chunk
  and one batched inner solve per chunk; a problem padded to the row count
  of its batch can move its slack in the last bits;
- ``lemma.op_norm_oracle``: per horizon, one stacked ``iterate`` per chunk
  of ``system._chunk_rows`` indicators of supported atoms and one per such
  chunk of unit-ball draws;
- ``lemma.properties``: ``property_residuals`` on chunks of
  ``system._chunk_rows`` potential pairs;
- ``lemma.power``: one stack of potentials per power for ``power_gap``;
- ``lemma.submultiplicative``: per chunk of ``system._chunk_rows`` draws,
  the norms at all three horizons of every draw from one stacked
  ``orbit_sums`` walk (``spectral._norm_logs``);
- ``vp.dichotomy``: ``divergence_witnesses`` on the effective weights of
  chunks of ``_YOUNG_CHUNK`` draws, and one ``hull_means`` per chunk for
  the rows without a defect;
- ``vp.gap``: one generator call per chunk of ``system._chunk_rows``
  potentials, for one ``variational_principle`` per chunk;
- ``young.global``: ``young_checks`` on chunks of ``_YOUNG_CHUNK`` draws;
- ``young.local``: ``local_young_checks`` on chunks of ``_YOUNG_CHUNK``
  draws, one orbit walk and one set of level partitions per horizon of a
  chunk and one batched inner solve per chunk.

Where a check pairs the rows of two stacks, one ``system._pairings`` call
gives every row the bits of its own dot product.

``lemma.inner_certificate`` solves each draw alone with ``maximize_inner``,
a stack of one at its own row count.  One ``maximize_inner_batch`` per
charged-row count would pad nothing and keep every bit, but perfbench's
``certify-small`` workload counts these ``maximize_inner`` calls and traces
no batch solve, so they stay per draw until it does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .claims import (
    CERTIFICATE_TOL,
    INNER_TOL,
    ROUNDOFF_TOL,
    ROUTE_GAP_TOL,
    SLACK_TOL,
    SOLVER_SLACK_TOL,
    CertificateError,
)
from .entropy import (
    _horizon_problems,
    certificate_sup,
    hull_means,
    local_young_checks,
    maximize_inner,
    near_minimizer_checks,
    tau_direct,
    tau_dual,
)
from .entstat import (
    _hit_integrals,
    _hitting_mass,
    build_neighborhood,
    empirical_weights,
    verify_estimate,
)
from .sampling import (
    perturbed_invariant,
    perturbed_invariant_weights,
    random_functional_weights,
    random_invariant,
    random_invariant_weights,
    random_null_charging,
    random_null_charging_weights,
    random_partition,
    random_potential,
    random_simplex_weights,
    random_unit_values,
)
from .spectral import (
    _norm_logs,
    iterate,
    log_spectral_radius_batch,
    op_norm_log,
    power_gap,
    property_residuals,
    spectral_potential,
)
from .system import (
    ESSENTIAL,
    FiniteSystem,
    _chunk_rows,
    _horizon,
    _pairings,
    _require_positive,
    atomic_partition,
    orbit_sums,
    require_valid,
)
from .varprin import (
    divergence_witnesses,
    subgradient,
    variational_principle,
    young_checks,
)


# The draw count of each ``certify --profile``.
PROFILES = {"quick": 1000, "deep": 10000}


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs shared by every check; the seed fixes all randomness.

    ``ValueError`` unless draws and n_max are integers of at least 1 and
    eps lists at least one width, each finite and positive.
    """

    seed: int = 0
    draws: int = PROFILES["quick"]
    eps: tuple[float, ...] = (1.0, 0.5, 0.1)
    n_max: int = 12
    tolerance: float | None = None
    suite: str = "all"
    system_label: str = "system.json"

    def __post_init__(self):
        _horizon(self.draws, what="draws")
        _horizon(self.n_max, what="n_max")
        if not len(self.eps):
            raise ValueError("eps must list at least one width")
        _require_positive(self.eps, "eps")

    def threshold(self, default: float) -> float:
        return default if self.tolerance is None else self.tolerance


def _rng_for(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


# Draws of young.global, young.local, vp.dichotomy, lemma.near_minimizer,
# entstat.empirical and entstat.tv evaluated as one stack: large enough to
# amortize the per-call overhead, small enough to keep the stacked arrays
# (and the Newton systems of the inner solves) from raising the peak memory.
_YOUNG_CHUNK = 64


def _chunks(draws: int, size: int = _YOUNG_CHUNK):
    """Sizes of the consecutive chunks of ``size`` draws."""
    for start in range(0, draws, size):
        yield min(size, draws - start)


def _pick(rng: np.random.Generator, values: tuple):
    """``rng.choice(values)``: the same generator call and the same value,
    at a fifth of the cost."""
    return values[rng.integers(len(values))]


def _check_young_global(system, cfg, rng):
    worst = np.inf
    tight = 0
    for size in _chunks(cfg.draws):
        phis = np.empty((size, system.n))
        weights = np.empty((size, system.n))
        for i in range(size):
            phis[i] = random_potential(rng, system, scale=3.0)
            weights[i] = random_invariant_weights(rng, system)
        slacks = young_checks(system, phis, weights)
        worst = min(worst, float(slacks.min()))
        tight += int((slacks <= SLACK_TOL).sum())
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst, "tight_count": tight},
        "claims": [(-worst, cfg.threshold(SLACK_TOL))],
    }


def _check_young_local(system, cfg, rng):
    worst = np.inf
    for size in _chunks(cfg.draws):
        phis = np.empty((size, system.n))
        weights = np.empty((size, system.n))
        ns = np.empty(size, dtype=int)
        epss = np.empty(size)
        for i in range(size):
            phis[i] = random_potential(rng, system, scale=2.0)
            weights[i] = random_invariant_weights(rng, system)
            ns[i] = rng.integers(1, 7)
            epss[i] = _pick(rng, cfg.eps)
        lhs, rhs = local_young_checks(system, phis, weights, ns, epss)
        worst = min(worst, min((lhs - rhs).tolist()))
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(SOLVER_SLACK_TOL))],
    }


def _check_vp_gap(system, cfg, rng):
    worst = 0.0
    for size in _chunks(cfg.draws, _chunk_rows(system.n)):
        phis = rng.uniform(-3.0, 3.0, size=(size, system.n))
        gaps = variational_principle(system, phis).gap
        worst = max(worst, float(np.abs(gaps).max()))
    return {
        "values": {"draws": cfg.draws, "worst_gap": worst},
        "claims": [(worst, cfg.threshold(SLACK_TOL))],
    }


def _check_vp_subgradient(system, cfg, rng):
    worst = -np.inf
    identity = 0.0
    rounds = max(1, cfg.draws // 100)
    for _ in range(rounds):
        phi = random_potential(rng, system, scale=2.0)
        res = subgradient(
            system, phi, draws=cfg.draws, seed=int(rng.integers(2**63))
        )
        worst = max(worst, res.worst_violation)
        identity = max(identity, res.tau_identity_residual)
    tol = cfg.threshold(SLACK_TOL)
    return {
        "values": {
            "base_points": rounds,
            "draws_each": cfg.draws,
            "worst_violation": worst,
            "tau_identity_residual": identity,
        },
        "claims": [(worst, tol), (identity, tol)],
    }


def _check_vp_dichotomy(system, cfg, rng):
    has_nulls = bool((~system.support).any())
    zeros = divergent = bad = 0
    witness = None
    for size in _chunks(cfg.draws):
        weights = np.empty((size, system.n))
        invariant = np.zeros(size, dtype=bool)
        for i in range(size):
            pick = int(rng.integers(0, 3))
            invariant[i] = pick == 0
            if pick == 0:
                weights[i] = random_invariant_weights(rng, system)
            elif pick == 1:
                weights[i] = random_functional_weights(rng, system)
            elif has_nulls and rng.uniform() < 0.3:
                weights[i] = random_null_charging_weights(rng, system)
            else:
                weights[i] = perturbed_invariant_weights(rng, system)
        # tau is 0 on a row without a defect, certified by one stacked
        # hull_means, and -inf on a row with a witness ray
        rays = divergence_witnesses(system, weights)
        diverges = np.array([ray is not None for ray in rays], dtype=bool)
        hull_means(system, weights[~diverges])
        zeros += int((~diverges).sum())
        divergent += int(diverges.sum())
        wrong = np.flatnonzero(invariant & diverges)
        if wrong.size and witness is None:
            witness = {
                "weights": [float(v) for v in weights[wrong[0]]],
                # an invariant draw is ESSENTIAL
                "mode": ESSENTIAL,
                "value": -np.inf,
            }
        bad += int(wrong.size)
    return {
        "values": {"draws": cfg.draws, "zeros": zeros, "divergent": divergent},
        "claims": [(bad, 0)],
        "witness": witness,
    }


def _l1_norms(system, values) -> list[float]:
    """``l1_norm`` of each row of a stack, with its bits: its row of
    absolute values is contiguous, as a row's own ``np.abs`` is."""
    rows = np.abs(values, order="C")
    return _pairings(rows, np.broadcast_to(system.m, rows.shape)).tolist()


def _check_op_norm_oracle(system, cfg, rng):
    worst_gap = 0.0
    worst_excess = -np.inf
    rows = _chunk_rows(system.n)
    sup = system.supported_indices
    for n in range(1, 6):
        phi = random_potential(rng, system, scale=2.0)
        norm_log = op_norm_log(system, phi, n)
        best = -np.inf
        for start in range(0, sup.size, rows):
            atoms = sup[start : start + rows]
            indicators = np.zeros((atoms.size, system.n))
            indicators[np.arange(atoms.size), atoms] = 1.0 / system.m[atoms]
            for grown in _l1_norms(system, iterate(system, phi, indicators, n)):
                # an atom with no n-step preimage grows an indicator to zero
                if grown > 0.0:
                    best = max(best, np.log(grown))
        worst_gap = max(worst_gap, abs(best - norm_log) / max(1.0, abs(norm_log)))
        value = np.exp(norm_log)
        for size in _chunks(max(1, cfg.draws // 5), rows):
            units = np.array([random_unit_values(rng, system) for _ in range(size)])
            for grown in _l1_norms(system, iterate(system, phi, units, n)):
                worst_excess = max(worst_excess, grown - value * (1.0 + SLACK_TOL))
    return {
        "values": {
            "indicator_gap": worst_gap,
            "unit_ball_excess": worst_excess,
            "draws": cfg.draws,
        },
        "claims": [(worst_gap, cfg.threshold(ROUNDOFF_TOL)), (worst_excess, 0.0)],
    }


def _check_gelfand(system, cfg, rng):
    worst_below = np.inf
    final_gap = 0.0
    flagged = 0
    rounds = max(1, cfg.draws // 20)
    for size in _chunks(rounds, _chunk_rows(system.n)):
        # the draws of random_potential(rng, system, scale=2.0), in order
        phis = rng.uniform(-2.0, 2.0, size=(size, system.n))
        res = spectral_potential(system, phis, n_max=max(8, cfg.n_max))
        seq = res.norm_sequence
        worst_below = min(worst_below, float((seq - res.value[:, None]).min()))
        final_gap = max(final_gap, float(np.abs(seq[:, -1] - res.value).max()))
        flagged += int(res.flagged.sum())
    return {
        "values": {
            "draws": rounds,
            "worst_approach_slack": worst_below,
            "final_gap": final_gap,
            "flagged": flagged,
        },
        "claims": [(-worst_below, cfg.threshold(SLACK_TOL)), (flagged, 0)],
    }


# the powers k that lemma.power draws
_POWERS = range(1, 6)


def _check_power(system, cfg, rng):
    phis = np.empty((cfg.draws, system.n))
    ks = np.empty(cfg.draws, dtype=int)
    for i in range(cfg.draws):
        phis[i] = random_potential(rng, system, scale=2.0)
        ks[i] = rng.integers(_POWERS.start, _POWERS.stop)
    worst = -np.inf
    strict = 0
    # one stack per power; a loop, as np.unique would import numpy.ma
    for k in _POWERS:
        rows = ks == k
        if rows.any():
            res = power_gap(system, phis[rows], k)
            worst = max(worst, float((res.scaled - res.power).max()))
            strict += int((res.gap > SLACK_TOL).sum())
    return {
        "values": {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_properties(system, cfg, rng):
    worst = -np.inf
    for size in _chunks(cfg.draws, _chunk_rows(system.n)):
        phis = np.empty((size, system.n))
        psis = np.empty((size, system.n))
        ts = np.empty(size)
        shifts = np.empty(size)
        for i in range(size):
            phis[i] = random_potential(rng, system, scale=2.0)
            psis[i] = random_potential(rng, system, scale=2.0)
            ts[i] = rng.uniform()
            shifts[i] = rng.uniform(-3.0, 3.0)
        props = property_residuals(system, phis, psis, t=ts, shift=shifts)
        worst = max(
            worst,
            float(props.monotonicity.max()),
            float(props.additive_homogeneity.max()),
            float(props.lipschitz.max()),
            float(props.convexity.max()),
            float(props.strong_invariance.max()),
        )
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_coboundary(system, cfg, rng):
    phis = rng.uniform(-2.0, 2.0, size=(cfg.draws, system.n))
    psis = rng.uniform(-2.0, 2.0, size=(cfg.draws, system.n))
    twisted = phis + psis[:, system.alpha] - psis
    worst = float(
        np.max(
            np.abs(
                log_spectral_radius_batch(system, twisted)
                - log_spectral_radius_batch(system, phis)
            )
        )
    )
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_submultiplicative(system, cfg, rng):
    worst = -np.inf
    rounds = max(1, cfg.draws // 20)
    for size in _chunks(rounds, _chunk_rows(system.n)):
        phis = np.empty((size, system.n))
        # each draw's horizons n + k, n and k
        horizons = np.empty((3, size), dtype=int)
        for i in range(size):
            phis[i] = random_potential(rng, system, scale=2.0)
            horizons[1, i] = rng.integers(1, cfg.n_max + 1)
            horizons[2, i] = rng.integers(1, cfg.n_max + 1)
        horizons[0] = horizons[1] + horizons[2]
        logs = _norm_logs(system, phis, horizons)
        worst = max(worst, float((logs[0] - (logs[1] + logs[2])).max()))
    return {
        "values": {"draws": rounds, "worst_log_excess": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_inner_certificate(system, cfg, rng):
    worst = 0.0
    solved = divergent = 0
    rounds = max(1, cfg.draws // 20)
    atomic = atomic_partition(system).members
    for size in _chunks(rounds):
        weights = np.empty((size, system.n))
        members = []
        # the draws of each horizon, in order of first appearance
        horizons: dict[int, list[int]] = {}
        for i in range(size):
            if rng.uniform() < 0.5:
                weights[i] = random_invariant_weights(rng, system)
            else:
                weights[i] = random_simplex_weights(rng, system)
            if rng.uniform() < 0.5:
                members.append(atomic)
            else:
                members.append(random_partition(rng, system).members)
            horizons.setdefault(int(rng.integers(1, 5)), []).append(i)
        for problem in _horizon_problems(system, members, weights, horizons):
            sol = maximize_inner(problem, tol=INNER_TOL)
            if sol.value == -np.inf:
                divergent += 1
                continue
            worst = max(worst, abs(certificate_sup(problem, sol) - 1.0))
            solved += 1
    return {
        "values": {"solved": solved, "divergent": divergent, "worst_sup_gap": worst},
        "claims": [(worst, cfg.threshold(CERTIFICATE_TOL)), (-solved, -1)],
    }


def _check_near_minimizer(system, cfg, rng):
    worst = np.inf
    rounds = max(1, cfg.draws // 20)
    atomic = atomic_partition(system).members
    for size in _chunks(rounds):
        weights = np.empty((size, system.n))
        members = []
        ns = np.empty(size, dtype=int)
        epss = np.empty(size)
        for i in range(size):
            weights[i] = random_invariant_weights(rng, system)
            if rng.uniform() < 0.5:
                members.append(atomic)
            else:
                members.append(random_partition(rng, system).members)
            ns[i] = rng.integers(1, 5)
            epss[i] = _pick(rng, (1.0, 0.1, 0.01))
        bounds = near_minimizer_checks(system, members, weights, ns, epss)
        worst = min(
            worst, float(bounds.growth_slack.min()), float(bounds.pairing_slack.min())
        )
    return {
        "values": {"draws": rounds, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(SOLVER_SLACK_TOL))],
    }


def _check_tau_routes(system, cfg, rng):
    low = np.inf
    high = -np.inf
    rounds = max(1, cfg.draws // 100)
    for _ in range(rounds):
        mu = random_invariant(rng, system)
        dual = tau_dual(system, mu, cross_check=False)
        direct = tau_direct(system, mu, n_max=4, seed=int(rng.integers(2**63)))
        gap = direct.value - dual.value
        low = min(low, gap)
        high = max(high, gap)
    return {
        "values": {"draws": rounds, "smallest_gap": low, "largest_gap": high},
        "claims": [(-low, 0.0), (high, cfg.threshold(ROUTE_GAP_TOL))],
    }


def _check_empirical(system, cfg, rng):
    worst = 0.0
    for size in _chunks(cfg.draws):
        xs = np.empty(size, dtype=int)
        ns = np.empty(size, dtype=int)
        phis = np.empty((size, system.n))
        for i in range(size):
            xs[i] = rng.integers(0, system.n)
            ns[i] = rng.integers(1, cfg.n_max + 1)
            phis[i] = random_potential(rng, system, scale=2.0)
        weights = empirical_weights(system, xs, ns)
        # the pairing of each empirical measure with its potential, and the
        # Birkhoff average of that potential read at the row's own horizon
        lhs = _pairings(weights, phis)
        rhs = np.empty(size)
        for n, s, _ in orbit_sums(system, phis, int(ns.max())):
            rows = np.flatnonzero(ns == n)
            rhs[rows] = s[rows, xs[rows]] / n
        worst = max(
            worst,
            float(np.abs(lhs - rhs).max()),
            float(np.abs(weights.sum(axis=1) - 1.0).max()),
        )
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_tv(system, cfg, rng):
    dec = system.decomposition
    terminal = np.array(dec.terminal)
    entry_time = np.array(dec.entry_time)
    lengths = np.array([len(cyc) for cyc in dec.cycles])
    cycle_of = np.array([-1 if c is None else c for c in dec.cycle_of])
    worst_exact = 0.0
    worst_bound = -np.inf
    for size in _chunks(cfg.draws):
        xs = np.empty(size, dtype=int)
        ns = np.empty(size, dtype=int)
        for i in range(size):
            xs[i] = rng.integers(0, system.n)
            ns[i] = rng.integers(1, 4 * system.n + 1)
        cycle = terminal[xs]
        length = lengths[cycle]
        entry = entry_time[xs]
        # the uniform measure of each row's terminal cycle
        uniform = np.where(cycle_of == cycle[:, None], 1.0 / length[:, None], 0.0)
        weights = empirical_weights(system, xs, ns)
        tv = 0.5 * np.abs(weights - uniform).sum(axis=1)
        # on a cycle atom the distance has a closed form in n mod length
        r = ns % length
        exact = np.abs(tv - r * (length - r) / (ns * length))[entry == 0]
        worst_exact = max(worst_exact, float(exact.max(initial=0.0)))
        worst_bound = max(worst_bound, float((tv - (entry + length) / ns).max()))
    return {
        "values": {
            "draws": cfg.draws,
            "worst_formula_residual": worst_exact,
            "worst_decay_excess": worst_bound,
        },
        "claims": [(worst_exact, cfg.threshold(ROUNDOFF_TOL)), (worst_bound, 0.0)],
    }


def _check_estimate(system, cfg, rng):
    worst = 0.0
    rows = 0
    branches: set[str] = set()
    witness = None
    families = [random_invariant(rng, system), perturbed_invariant(rng, system)]
    if bool((~system.support).any()):
        families.append(random_null_charging(rng, system))
    all_hold = True
    for mu in families:
        for eps in cfg.eps:
            rep = verify_estimate(system, mu, float(eps), range(1, cfg.n_max + 1))
            branches.add(rep.branch)
            rows += len(rep.rows)
            worst = max(worst, rep.worst_ratio)
            if not rep.all_hold:
                all_hold = False
                if witness is None:
                    n_bad, atom_bad = rep.worst_at
                    witness = {
                        "mode": mu.mode,
                        "weights": [float(v) for v in mu.weights],
                        "eps": float(eps),
                        "n": n_bad,
                        "atom": atom_bad,
                        "ratio": rep.worst_ratio,
                    }
    return {
        "values": {
            "rows": rows,
            "worst_ratio": worst,
            "branches": sorted(branches),
            "measures": len(families),
        },
        "claims": [(0.0 if all_hold else worst, 1.0)],
        "witness": witness,
    }


def _check_reduction(system, cfg, rng):
    worst = -np.inf
    mu = random_invariant(rng, system)
    per_cell = max(1, cfg.draws // (cfg.n_max * max(1, len(cfg.eps))))
    for eps in cfg.eps:
        nbhd = build_neighborhood(system, mu, float(eps))
        for n, s, an in orbit_sums(system, nbhd.phi, cfg.n_max):
            hits, rel = _hitting_mass(system, nbhd, n, s, an)
            cap = float(rel.max())
            fs = [random_unit_values(rng, system) for _ in range(per_cell)]
            vals = _hit_integrals(system, hits, an, np.array(fs))
            worst = max(worst, float((vals - cap).max()))
    return {
        "values": {"worst_excess": worst, "per_cell": per_cell},
        "claims": [(worst, cfg.threshold(SLACK_TOL))],
    }


CHECKS = {
    "entstat.empirical": _check_empirical,
    "entstat.estimate": _check_estimate,
    "entstat.reduction": _check_reduction,
    "entstat.tv": _check_tv,
    "lemma.coboundary": _check_coboundary,
    "lemma.gelfand": _check_gelfand,
    "lemma.inner_certificate": _check_inner_certificate,
    "lemma.near_minimizer": _check_near_minimizer,
    "lemma.op_norm_oracle": _check_op_norm_oracle,
    "lemma.power": _check_power,
    "lemma.properties": _check_properties,
    "lemma.submultiplicative": _check_submultiplicative,
    "lemma.tau_routes": _check_tau_routes,
    "vp.dichotomy": _check_vp_dichotomy,
    "vp.gap": _check_vp_gap,
    "vp.subgradient": _check_vp_subgradient,
    "young.global": _check_young_global,
    "young.local": _check_young_local,
}

# A check's suite is the prefix of its name.
_SUITE_OF_PREFIX = {
    "young": "young", "vp": "vp", "lemma": "lemmas", "entstat": "entstat"
}
SUITES = {
    suite: tuple(name for name in sorted(CHECKS) if name.split(".")[0] == prefix)
    for prefix, suite in _SUITE_OF_PREFIX.items()
}
SUITES["all"] = tuple(sorted(CHECKS))


def _digest(system: FiniteSystem, cfg: CertifyConfig, name: str) -> str:
    blob = json.dumps(
        {
            "atoms": list(system.atoms),
            "measure": [float(v) for v in system.m],
            "map": [int(v) for v in system.alpha],
            "seed": cfg.seed,
            "draws": cfg.draws,
            "eps": [float(e) for e in cfg.eps],
            "n_max": cfg.n_max,
            "check": name,
        }
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_record(name, inputs, values, claims, witness=None, repro=None) -> dict:
    """One report record whose verdict and residual follow from its claims.

    A claim is an ``(observed, bound)`` pair that holds when
    ``observed <= bound``; a NaN observation fails with an infinite excess.
    The record passes when every claim holds, its residual is the largest
    excess ``observed - bound`` floored at 0 (so it is 0 exactly when the
    record passes), and ``repro`` is kept only on a failing record.
    """
    gaps = [observed - bound for observed, bound in claims]
    excess = max((np.inf if np.isnan(gap) else gap for gap in gaps), default=0.0)
    passed = excess <= 0.0
    record = {
        "name": name,
        "inputs": inputs,
        "values": values,
        "verdict": "pass" if passed else "fail",
        "residual": float(max(0.0, excess)),
        "witness": witness,
    }
    if repro is not None and not passed:
        record["repro"] = repro
    return record


def _repro(cfg: CertifyConfig) -> str | None:
    """The certify command that repeats a run of ``cfg``: the profile is
    the one whose draw count is ``cfg.draws``, and a draw count that no
    profile has cannot be repeated from the command line (None)."""
    profile = next((p for p, draws in PROFILES.items() if draws == cfg.draws), None)
    if profile is None:
        return None
    eps_text = ",".join(repr(float(e)) for e in cfg.eps)
    repro = (
        f"tentropy certify {cfg.system_label} --suite {cfg.suite}"
        f" --seed {cfg.seed} --profile {profile}"
        f" --n-max {cfg.n_max} --eps {eps_text}"
    )
    if cfg.tolerance is not None:
        repro += f" --tolerance {cfg.tolerance!r}"
    return repro


def run_check(system: FiniteSystem, name: str, cfg: CertifyConfig) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    inputs = _digest(system, cfg, name)
    repro = _repro(cfg)
    try:
        out = CHECKS[name](system, cfg, _rng_for(cfg.seed, name))
    except np.linalg.LinAlgError:
        # a ValueError, but a failure of the library, not bad input
        raise
    except (CertificateError, ValueError) as exc:
        witness = {"error": str(exc)}
        return make_record(name, inputs, {}, [(np.inf, 0.0)], witness, repro)
    return make_record(
        name, inputs, out["values"], out["claims"], out.get("witness"), repro
    )


def run_suite(system: FiniteSystem, cfg: CertifyConfig):
    """Records of all checks of the suite ``cfg.suite``, sorted by name."""
    require_valid(system)
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    return [run_check(system, name, cfg) for name in sorted(SUITES[cfg.suite])]
