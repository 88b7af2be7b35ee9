"""Named certification checks and the suites that group them.

Each check draws its own generator from (seed, check name), so the verdicts
do not depend on which other checks run or in what order.  A check returns
its headline values, its claims, and optionally a witness of the worst case.
A claim is an ``(observed, bound)`` pair that holds when ``observed <= bound``;
tolerance bounds go through ``CertifyConfig.threshold`` (so ``--tolerance``
overrides them), structural bounds are literal.  ``make_record`` derives every
record's verdict (pass when all claims hold), residual (the largest excess
over a bound, 0 exactly when the record passes) and repro (failing records
only); the CLI builds its own records with it too.  The runner turns
exceptions raised by the library's internal assertions into failed records
with an infinite residual instead of crashes.

Five checks draw in a loop that only fills arrays, making the same
generator calls in the same order as one evaluation per draw would, and then
evaluate the draws with batched calls, each draw keeping the bits of its own
evaluation:

- ``lemma.properties``: one stack of potential pairs for
  ``property_residuals``;
- ``lemma.power``: one stack of potentials per power for ``power_gap``;
- ``vp.gap``: one stack of all potentials for ``variational_principle``;
- ``young.global``: ``young_checks`` on chunks of ``_YOUNG_CHUNK`` draws;
- ``young.local``: ``local_young_checks`` on chunks of ``_YOUNG_CHUNK``
  draws, one orbit walk per horizon of a chunk and one batched inner solve
  per chunk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .entropy import (
    certificate_sup,
    inner_problem,
    local_young_checks,
    maximize_inner,
    near_minimizer_bounds,
    tau_direct,
    tau_dual,
)
from .entstat import (
    _hitting_mass,
    build_neighborhood,
    empirical,
    estimate_lhs_general,
    verify_estimate,
)
from .sampling import (
    perturbed_invariant,
    random_functional,
    random_invariant,
    random_null_charging,
    random_partition,
    random_potential,
    random_simplex_functional,
    random_unit_function,
)
from .spectral import (
    iterate,
    l1_norm,
    l1_vector,
    log_spectral_radius_batch,
    op_norm,
    op_norm_log,
    power_gap,
    property_residuals,
    spectral_potential,
)
from .system import (
    FiniteSystem,
    atomic_partition,
    birkhoff,
    orbit_sums,
    pair,
    require_valid,
)
from .varprin import subgradient, variational_principle, young_checks


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


# Draws of young.global and young.local evaluated as one stack: large
# enough to amortize the per-call overhead, small enough to keep the stacked
# arrays (and young.local's Newton systems) from raising the peak memory.
_YOUNG_CHUNK = 64


def _chunks(draws: int):
    """Sizes of the consecutive chunks of ``_YOUNG_CHUNK`` draws."""
    for start in range(0, draws, _YOUNG_CHUNK):
        yield min(_YOUNG_CHUNK, draws - start)


def _check_young_global(system, cfg, rng):
    worst = np.inf
    tight = 0
    for size in _chunks(cfg.draws):
        draws = []
        for _ in range(size):
            phi = random_potential(rng, system, scale=3.0)
            mu = random_invariant(rng, system)
            draws.append((phi, mu))
        for res in young_checks(system, draws):
            worst = min(worst, res.slack)
            tight += res.tight
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst, "tight_count": tight},
        "claims": [(-worst, cfg.threshold(1e-9))],
    }


def _check_young_local(system, cfg, rng):
    worst = np.inf
    for size in _chunks(cfg.draws):
        draws = []
        for _ in range(size):
            phi = random_potential(rng, system, scale=2.0)
            mu = random_invariant(rng, system)
            n = int(rng.integers(1, 7))
            eps = float(rng.choice(cfg.eps))
            draws.append((phi, mu, n, eps))
        for lhs, rhs in local_young_checks(system, draws):
            worst = min(worst, lhs - rhs)
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(1e-8))],
    }


def _check_vp_gap(system, cfg, rng):
    phis = np.empty((cfg.draws, system.n))
    for i in range(cfg.draws):
        phis[i] = random_potential(rng, system, scale=3.0)
    gaps = variational_principle(system, phis).gap
    worst = float(np.abs(gaps).max(initial=0.0))
    return {
        "values": {"draws": cfg.draws, "worst_gap": worst},
        "claims": [(worst, cfg.threshold(1e-9))],
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
    tol = cfg.threshold(1e-9)
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
    zeros = divergent = bad = 0
    witness = None
    has_nulls = bool((~system.support).any())
    for _ in range(cfg.draws):
        pick = int(rng.integers(0, 3))
        if pick == 0:
            mu = random_invariant(rng, system)
        elif pick == 1:
            mu = random_functional(rng, system)
        elif has_nulls and rng.uniform() < 0.3:
            mu = random_null_charging(rng, system)
        else:
            mu = perturbed_invariant(rng, system)
        res = tau_dual(system, mu, cross_check=False)
        if res.value == 0.0:
            zeros += 1
            ok = True
        elif res.value == -np.inf:
            divergent += 1
            ok = pick != 0
        else:
            ok = False
        if not ok:
            bad += 1
            if witness is None:
                witness = {
                    "weights": [float(v) for v in mu.weights],
                    "mode": mu.mode,
                    "value": res.value,
                }
    return {
        "values": {"draws": cfg.draws, "zeros": zeros, "divergent": divergent},
        "claims": [(bad, 0)],
        "witness": witness,
    }


def _check_op_norm_oracle(system, cfg, rng):
    worst_gap = 0.0
    worst_excess = -np.inf
    for n in range(1, 6):
        phi = random_potential(rng, system, scale=2.0)
        norm_log = op_norm_log(system, phi, n)
        best = -np.inf
        for y in system.supported_indices:
            f = np.zeros(system.n)
            f[y] = 1.0 / system.m[y]
            out = iterate(system, phi, l1_vector(system, f), n)
            grown = l1_norm(system, out)
            # an atom with no n-step preimage grows an indicator to zero
            if grown > 0.0:
                best = max(best, np.log(grown))
        worst_gap = max(worst_gap, abs(best - norm_log) / max(1.0, abs(norm_log)))
        value = op_norm(system, phi, n)
        for _ in range(max(1, cfg.draws // 5)):
            f = random_unit_function(rng, system)
            grown = l1_norm(system, iterate(system, phi, f, n))
            worst_excess = max(worst_excess, grown - value * (1.0 + 1e-9))
    return {
        "values": {
            "indicator_gap": worst_gap,
            "unit_ball_excess": worst_excess,
            "draws": cfg.draws,
        },
        "claims": [(worst_gap, cfg.threshold(1e-12)), (worst_excess, 0.0)],
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
        "claims": [(-worst_below, cfg.threshold(1e-9)), (flagged, 0)],
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
            strict += int((res.gap > 1e-9).sum())
    return {
        "values": {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict},
        "claims": [(worst, cfg.threshold(1e-12))],
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
        "claims": [(worst, cfg.threshold(1e-12))],
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
        "claims": [(worst, cfg.threshold(1e-12))],
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
        "claims": [(worst, cfg.threshold(1e-12))],
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
        sol = maximize_inner(prob, tol=1e-9)
        if sol.value == -np.inf:
            divergent += 1
            continue
        worst = max(worst, abs(certificate_sup(prob, sol) - 1.0))
        solved += 1
    return {
        "values": {"solved": solved, "divergent": divergent, "worst_sup_gap": worst},
        "claims": [(worst, cfg.threshold(1e-6)), (-solved, -1)],
    }


def _check_near_minimizer(system, cfg, rng):
    worst = np.inf
    rounds = max(1, cfg.draws // 20)
    for _ in range(rounds):
        mu = random_invariant(rng, system)
        if rng.uniform() < 0.5:
            partition = atomic_partition(system)
        else:
            partition = random_partition(rng, system)
        n = int(rng.integers(1, 5))
        eps = float(rng.choice((1.0, 0.1, 0.01)))
        bounds = near_minimizer_bounds(system, mu, partition, n, eps)
        worst = min(worst, bounds.growth_slack, bounds.pairing_slack)
    return {
        "values": {"draws": rounds, "worst_slack": worst},
        "claims": [(-worst, cfg.threshold(1e-8))],
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
        "claims": [(-low, 0.0), (high, cfg.threshold(1e-3))],
    }


def _check_empirical(system, cfg, rng):
    worst = 0.0
    for _ in range(cfg.draws):
        x = int(rng.integers(0, system.n))
        n = int(rng.integers(1, cfg.n_max + 1))
        emp = empirical(system, x, n)
        phi = random_potential(rng, system, scale=2.0)
        lhs = pair(system, emp.functional, phi)
        rhs = float(birkhoff(system, phi, n)[x]) / n
        worst = max(worst, abs(lhs - rhs), abs(float(emp.weights.sum()) - 1.0))
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "claims": [(worst, cfg.threshold(1e-12))],
    }


def _check_tv(system, cfg, rng):
    dec = system.decomposition
    worst_exact = 0.0
    worst_bound = -np.inf
    for _ in range(cfg.draws):
        x = int(rng.integers(0, system.n))
        n = int(rng.integers(1, 4 * system.n + 1))
        emp = empirical(system, x, n)
        cyc = dec.cycles[dec.terminal[x]]
        length = len(cyc)
        uniform = np.zeros(system.n)
        uniform[list(cyc)] = 1.0 / length
        tv = 0.5 * float(np.abs(emp.weights - uniform).sum())
        entry = int(dec.entry_time[x])
        if entry == 0:
            r = n % length
            worst_exact = max(
                worst_exact, abs(tv - r * (length - r) / (n * length))
            )
        worst_bound = max(worst_bound, tv - (entry + length) / n)
    return {
        "values": {
            "draws": cfg.draws,
            "worst_formula_residual": worst_exact,
            "worst_decay_excess": worst_bound,
        },
        "claims": [(worst_exact, cfg.threshold(1e-12)), (worst_bound, 0.0)],
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
            cap = float(_hitting_mass(system, nbhd, n, s, an)[1].max())
            fs = [random_unit_function(rng, system).values for _ in range(per_cell)]
            vals = estimate_lhs_general(system, nbhd, n, np.array(fs))
            worst = max(worst, float((vals - cap).max()))
    return {
        "values": {"worst_excess": worst, "per_cell": per_cell},
        "claims": [(worst, cfg.threshold(1e-9))],
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
    try:
        out = CHECKS[name](system, cfg, _rng_for(cfg.seed, name))
    except (RuntimeError, ValueError) as exc:
        witness = {"error": str(exc)}
        return make_record(name, inputs, {}, [(np.inf, 0.0)], witness, repro)
    return make_record(
        name, inputs, out["values"], out["claims"], out.get("witness"), repro
    )


def run_suite(system: FiniteSystem, suite: str, cfg: CertifyConfig):
    """Records of all checks of a suite, sorted by name."""
    require_valid(system)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [run_check(system, name, cfg) for name in sorted(SUITES[suite])]
