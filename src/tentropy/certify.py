"""Named certification checks and the suites that group them.

Each check draws its own generator from (seed, check name), so the verdicts
do not depend on which other checks run or in what order.  A check returns
its headline values, a violation residual (0 when it passes), and optionally
a witness of the worst case; the runner turns exceptions raised by the
library's internal assertions into failed records instead of crashes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .entropy import (
    certificate_sup,
    inner_problem,
    local_young_check,
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
from .varprin import subgradient, variational_principle, young_check


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


def _check_young_global(system, cfg, rng):
    worst = np.inf
    tight = 0
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=3.0)
        mu = random_invariant(rng, system)
        res = young_check(system, phi, mu)
        worst = min(worst, res.slack)
        tight += res.tight
    tol = cfg.threshold(1e-9)
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst, "tight_count": tight},
        "residual": max(0.0, -worst),
        "passed": worst >= -tol,
    }


def _check_young_local(system, cfg, rng):
    worst = np.inf
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=2.0)
        mu = random_invariant(rng, system)
        n = int(rng.integers(1, 7))
        eps = float(rng.choice(cfg.eps))
        lhs, rhs = local_young_check(system, phi, mu, n, eps)
        worst = min(worst, lhs - rhs)
    tol = cfg.threshold(1e-8)
    return {
        "values": {"draws": cfg.draws, "worst_slack": worst},
        "residual": max(0.0, -worst),
        "passed": worst >= -tol,
    }


def _check_vp_gap(system, cfg, rng):
    worst = 0.0
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=3.0)
        cert = variational_principle(system, phi)
        worst = max(worst, abs(cert.gap))
    tol = cfg.threshold(1e-9)
    return {
        "values": {"draws": cfg.draws, "worst_gap": worst},
        "residual": max(0.0, worst - tol),
        "passed": worst <= tol,
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
        "residual": max(0.0, worst, identity - tol),
        "passed": worst <= tol and identity <= tol,
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
        "residual": float(bad),
        "witness": witness,
        "passed": bad == 0,
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
    tol = cfg.threshold(1e-12)
    return {
        "values": {
            "indicator_gap": worst_gap,
            "unit_ball_excess": worst_excess,
            "draws": cfg.draws,
        },
        "residual": max(0.0, worst_gap - tol, worst_excess),
        "passed": worst_gap <= tol and worst_excess <= 0.0,
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
    tol = cfg.threshold(1e-9)
    return {
        "values": {
            "draws": rounds,
            "worst_approach_slack": worst_below,
            "final_gap": final_gap,
            "flagged": flagged,
        },
        "residual": max(0.0, -worst_below, float(flagged)),
        "passed": worst_below >= -tol and flagged == 0,
    }


def _check_power(system, cfg, rng):
    worst = -np.inf
    strict = 0
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=2.0)
        k = int(rng.integers(1, 6))
        res = power_gap(system, phi, k)
        worst = max(worst, res.scaled - res.power)
        strict += res.gap > 1e-9
    tol = cfg.threshold(1e-12)
    return {
        "values": {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict},
        "residual": max(0.0, worst),
        "passed": worst <= tol,
    }


def _check_properties(system, cfg, rng):
    worst = -np.inf
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=2.0)
        psi = random_potential(rng, system, scale=2.0)
        props = property_residuals(
            system,
            phi,
            psi,
            t=float(rng.uniform()),
            shift=float(rng.uniform(-3.0, 3.0)),
        )
        worst = max(
            worst,
            props.monotonicity,
            props.additive_homogeneity,
            props.lipschitz,
            props.convexity,
            props.strong_invariance,
        )
    tol = cfg.threshold(1e-12)
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "residual": max(0.0, worst),
        "passed": worst <= tol,
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
    tol = cfg.threshold(1e-12)
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "residual": max(0.0, worst),
        "passed": worst <= tol,
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
    tol = cfg.threshold(1e-12)
    return {
        "values": {"draws": rounds, "worst_log_excess": worst},
        "residual": max(0.0, worst),
        "passed": worst <= tol,
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
    tol = cfg.threshold(1e-6)
    return {
        "values": {"solved": solved, "divergent": divergent, "worst_sup_gap": worst},
        "residual": max(0.0, worst - tol),
        "passed": worst <= tol and solved > 0,
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
    tol = cfg.threshold(1e-8)
    return {
        "values": {"draws": rounds, "worst_slack": worst},
        "residual": max(0.0, -worst),
        "passed": worst >= -tol,
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
    tol = cfg.threshold(1e-3)
    return {
        "values": {"draws": rounds, "smallest_gap": low, "largest_gap": high},
        "residual": max(0.0, -low, high - tol),
        "passed": low >= 0.0 and high <= tol,
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
    tol = cfg.threshold(1e-12)
    return {
        "values": {"draws": cfg.draws, "worst_residual": worst},
        "residual": max(0.0, worst - tol),
        "passed": worst <= tol,
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
    tol = cfg.threshold(1e-12)
    return {
        "values": {
            "draws": cfg.draws,
            "worst_formula_residual": worst_exact,
            "worst_decay_excess": worst_bound,
        },
        "residual": max(0.0, worst_exact - tol, worst_bound),
        "passed": worst_exact <= tol and worst_bound <= 0.0,
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
        "residual": max(0.0, worst - 1.0),
        "witness": witness,
        "passed": all_hold,
    }


def _check_reduction(system, cfg, rng):
    worst = -np.inf
    mu = random_invariant(rng, system)
    per_cell = max(1, cfg.draws // (cfg.n_max * max(1, len(cfg.eps))))
    for eps in cfg.eps:
        nbhd = build_neighborhood(system, mu, float(eps))
        for n, s, an in orbit_sums(system, nbhd.phi, cfg.n_max):
            cap = float(_hitting_mass(system, nbhd, n, s, an)[1].max())
            for _ in range(per_cell):
                f = random_unit_function(rng, system)
                val = estimate_lhs_general(system, nbhd, n, f.values)
                worst = max(worst, val - cap)
    tol = cfg.threshold(1e-9)
    return {
        "values": {"worst_excess": worst, "per_cell": per_cell},
        "residual": max(0.0, worst),
        "passed": worst <= tol,
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


def run_check(system: FiniteSystem, name: str, cfg: CertifyConfig) -> dict:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    record = {"name": name, "inputs": _digest(system, cfg, name)}
    try:
        out = CHECKS[name](system, cfg, _rng_for(cfg.seed, name))
        record["values"] = out["values"]
        record["verdict"] = "pass" if out["passed"] else "fail"
        record["residual"] = float(out["residual"])
        record["witness"] = out.get("witness")
    except (RuntimeError, ValueError) as exc:
        record["values"] = {}
        record["verdict"] = "fail"
        record["residual"] = np.inf
        record["witness"] = {"error": str(exc)}
    if record["verdict"] == "fail":
        eps_text = ",".join(repr(float(e)) for e in cfg.eps)
        record["repro"] = (
            f"tentropy certify {cfg.system_label} --suite {cfg.suite}"
            f" --seed {cfg.seed} --profile {cfg.profile}"
            f" --n-max {cfg.n_max} --eps {eps_text}"
        )
    return record


def run_suite(system: FiniteSystem, suite: str, cfg: CertifyConfig):
    """Records of all checks of a suite, sorted by name."""
    require_valid(system)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [run_check(system, name, cfg) for name in sorted(SUITES[suite])]
