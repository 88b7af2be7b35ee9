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

Ten checks fill arrays with their draws, making the same generator calls in
the same order as one evaluation per draw would (the array forms of the
samplers build no object), and then evaluate the draws with batched calls,
each draw keeping the bits of its own evaluation except where said:

- ``entstat.empirical``: ``empirical_weights`` and one stacked
  ``orbit_sums`` walk for the Birkhoff sums per chunk of ``_YOUNG_CHUNK``
  draws;
- ``entstat.tv``: ``empirical_weights`` per chunk of ``_YOUNG_CHUNK`` draws;
- ``lemma.near_minimizer``: ``near_minimizer_checks`` on chunks of
  ``_YOUNG_CHUNK`` draws, one ``inner_problems`` call per horizon of a chunk
  and one batched inner solve per chunk; a problem padded to the row count
  of its batch can move its slack in the last bits;
- ``lemma.op_norm_oracle``: per horizon, one stacked ``iterate`` of the
  indicators of all supported atoms and one of the unit-ball draws;
- ``lemma.properties``: one stack of potential pairs for
  ``property_residuals``;
- ``lemma.power``: one stack of potentials per power for ``power_gap``;
- ``vp.dichotomy``: ``divergence_witnesses`` on the effective weights of
  chunks of ``_YOUNG_CHUNK`` draws, and one ``hull_means`` per chunk for
  the rows without a defect;
- ``vp.gap``: all potentials drawn by one generator call, for one
  ``variational_principle``;
- ``young.global``: ``young_checks`` on chunks of ``_YOUNG_CHUNK`` draws;
- ``young.local``: ``local_young_checks`` on chunks of ``_YOUNG_CHUNK``
  draws, one orbit walk per horizon of a chunk and one batched inner solve
  per chunk.

``lemma.inner_certificate`` solves each draw alone with ``maximize_inner``,
a stack of one at its own row count.  It stays per draw for two reasons
only: padded batch solves would move the last bits of the pinned
``two.json`` report, and perfbench's ``certify-small`` workload counts
these ``maximize_inner`` calls.
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
    certificate_sup,
    hull_means,
    inner_problem,
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
    random_simplex_functional,
    random_unit_values,
)
from .spectral import (
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


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs shared by every check; the seed fixes all randomness."""

    seed: int = 0
    draws: int = 1000
    eps: tuple[float, ...] = (1.0, 0.5, 0.1)
    n_max: int = 12
    tolerance: float | None = None
    profile: str = "quick"
    suite: str = "all"
    system_label: str = "system.json"

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


def _chunks(draws: int):
    """Sizes of the consecutive chunks of ``_YOUNG_CHUNK`` draws."""
    for start in range(0, draws, _YOUNG_CHUNK):
        yield min(_YOUNG_CHUNK, draws - start)


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
            epss[i] = rng.choice(cfg.eps)
        lhs, rhs = local_young_checks(system, phis, weights, ns, epss)
        worst = min(worst, min((lhs - rhs).tolist()))
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(SOLVER_SLACK_TOL))],
    }


def _check_vp_gap(system, cfg, rng):
    phis = rng.uniform(-3.0, 3.0, size=(cfg.draws, system.n))
    gaps = variational_principle(system, phis).gap
    worst = float(np.abs(gaps).max(initial=0.0))
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
    """``l1_norm`` of each row of a stack, one dot product per row."""
    return [float(np.abs(row) @ system.m) for row in values]


def _check_op_norm_oracle(system, cfg, rng):
    worst_gap = 0.0
    worst_excess = -np.inf
    sup = system.supported_indices
    indicators = np.zeros((sup.size, system.n))
    indicators[np.arange(sup.size), sup] = 1.0 / system.m[sup]
    for n in range(1, 6):
        phi = random_potential(rng, system, scale=2.0)
        norm_log = op_norm_log(system, phi, n)
        best = -np.inf
        for grown in _l1_norms(system, iterate(system, phi, indicators, n)):
            # an atom with no n-step preimage grows an indicator to zero
            if grown > 0.0:
                best = max(best, np.log(grown))
        worst_gap = max(worst_gap, abs(best - norm_log) / max(1.0, abs(norm_log)))
        value = np.exp(norm_log)
        units = np.array(
            [random_unit_values(rng, system) for _ in range(max(1, cfg.draws // 5))]
        )
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
    for _ in range(rounds):
        phi = random_potential(rng, system, scale=2.0)
        res = spectral_potential(system, phi, n_max=max(8, cfg.n_max))
        worst_below = min(worst_below, float((res.norm_sequence - res.value).min()))
        final_gap = max(final_gap, abs(float(res.norm_sequence[-1]) - res.value))
        flagged += res.flagged
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
    phis = np.empty((cfg.draws, system.n))
    psis = np.empty((cfg.draws, system.n))
    ts = np.empty(cfg.draws)
    shifts = np.empty(cfg.draws)
    for i in range(cfg.draws):
        phis[i] = random_potential(rng, system, scale=2.0)
        psis[i] = random_potential(rng, system, scale=2.0)
        ts[i] = rng.uniform()
        shifts[i] = rng.uniform(-3.0, 3.0)
    props = property_residuals(system, phis, psis, t=ts, shift=shifts)
    worst = max(
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
    for _ in range(rounds):
        phi = random_potential(rng, system, scale=2.0)
        n = int(rng.integers(1, cfg.n_max + 1))
        k = int(rng.integers(1, cfg.n_max + 1))
        lhs = op_norm_log(system, phi, n + k)
        rhs = op_norm_log(system, phi, n) + op_norm_log(system, phi, k)
        worst = max(worst, lhs - rhs)
    return {
        "values": {"draws": rounds, "worst_log_excess": worst},
        "claims": [(worst, cfg.threshold(ROUNDOFF_TOL))],
    }


def _check_inner_certificate(system, cfg, rng):
    worst = 0.0
    solved = divergent = 0
    rounds = max(1, cfg.draws // 20)
    for _ in range(rounds):
        if rng.uniform() < 0.5:
            mu = random_invariant(rng, system)
        else:
            mu = random_simplex_functional(rng, system)
        if rng.uniform() < 0.5:
            partition = atomic_partition(system)
        else:
            partition = random_partition(rng, system)
        n = int(rng.integers(1, 5))
        prob = inner_problem(system, mu, partition, n)
        sol = maximize_inner(prob, tol=INNER_TOL)
        if sol.value == -np.inf:
            divergent += 1
            continue
        worst = max(worst, abs(certificate_sup(prob, sol) - 1.0))
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
            epss[i] = rng.choice((1.0, 0.1, 0.01))
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
        lhs = np.array([weights[i] @ phis[i] for i in range(size)])
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

SUITES = {
    "young": ("young.global", "young.local"),
    "vp": ("vp.dichotomy", "vp.gap", "vp.subgradient"),
    "lemmas": (
        "lemma.coboundary",
        "lemma.gelfand",
        "lemma.inner_certificate",
        "lemma.near_minimizer",
        "lemma.op_norm_oracle",
        "lemma.power",
        "lemma.properties",
        "lemma.submultiplicative",
        "lemma.tau_routes",
    ),
    "entstat": ("entstat.empirical", "entstat.estimate", "entstat.reduction", "entstat.tv"),
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


def run_check(system: FiniteSystem, name: str, cfg: CertifyConfig) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    inputs = _digest(system, cfg, name)
    eps_text = ",".join(repr(float(e)) for e in cfg.eps)
    repro = (
        f"tentropy certify {cfg.system_label} --suite {cfg.suite}"
        f" --seed {cfg.seed} --profile {cfg.profile}"
        f" --n-max {cfg.n_max} --eps {eps_text}"
    )
    if cfg.tolerance is not None:
        repro += f" --tolerance {cfg.tolerance!r}"
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
