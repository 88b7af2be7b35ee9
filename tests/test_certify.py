"""Certify checks: the claim contract of their records, the addressing of
their draws, and the checks that evaluate their draws with batched calls."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from tentropy import certify, entropy, entstat, spectral, system
from tentropy.claims import INNER_TOL, CertificateError
from tentropy.certify import (
    CertifyConfig,
    _Draws,
    make_record,
    run_check,
    run_suite,
)
from tentropy.entropy import (
    certificate_sup,
    inner_problem,
    local_young_check,
    local_young_checks,
    maximize_inner,
    maximize_inner_batch,
    near_minimizer_bounds,
    tau_dual,
)
from tentropy.fixtures import twocyc
from tentropy.sampling import (
    perturbed_invariant_weights,
    random_functional_weights,
    random_invariant,
    random_invariant_weights,
    random_null_charging_weights,
    random_partition_members,
    random_potential,
    random_potentials,
    random_simplex_weights,
    random_unit_stack,
)
from tentropy.spectral import (
    apply,
    l1_norm,
    l1_vector,
    log_spectral_radius,
    op_norm,
    op_norm_log,
    spectral_potential,
)
from tentropy.system import (
    ESSENTIAL,
    FULL,
    PartitionOfUnity,
    atomic_partition,
    birkhoff,
    cycle_means,
    cycle_measure,
    effective_weights,
    functional,
    make_system,
    pair,
)
from tentropy.varprin import young_check, young_checks

from oracles import empirical_walk, reference_power_rate


def stream(name, cfg, s, count, *samples):
    """Fields 0, 1, ... of the first ``count`` draws of check ``name`` on
    ``s``, taken from the block addressing as one chunk."""
    return _Draws(cfg.seed, name, s).fields(0, count, *samples)


def wide_potentials(rng, s, k):
    return random_potentials(rng, s, k, 3.0)


def integers(low, high):
    return lambda rng, s, k: rng.integers(low, high, size=k)


def uniforms(low=0.0, high=1.0):
    return lambda rng, s, k: rng.uniform(low, high, size=k)


def reference_property_residuals(system, phi, psi, t, shift):
    """``property_residuals`` as it was for one pair: seven scalar lambdas."""
    lam_phi = log_spectral_radius(system, phi)
    lam_psi = log_spectral_radius(system, psi)
    lam_max = log_spectral_radius(system, np.maximum(phi, psi))
    lam_shift = log_spectral_radius(system, phi + shift)
    sup_diff = float(np.max(np.abs(phi - psi)[system.support]))
    lam_mix = log_spectral_radius(system, (1.0 - t) * phi + t * psi)
    lam_twist = log_spectral_radius(system, phi + psi[system.alpha])
    lam_plain = log_spectral_radius(system, phi + psi)
    return (
        max(lam_phi, lam_psi) - lam_max,
        abs(lam_shift - lam_phi - shift),
        abs(lam_phi - lam_psi) - sup_diff,
        lam_mix - ((1.0 - t) * lam_phi + t * lam_psi),
        abs(lam_twist - lam_plain),
    )


def reference_properties(system, cfg):
    """The per-draw loop of ``lemma.properties``, one evaluation per draw."""
    fields = stream(
        "lemma.properties", cfg, system, cfg.draws,
        random_potentials, random_potentials, uniforms(), uniforms(-3.0, 3.0),
    )
    worst = -np.inf
    for phi, psi, t, shift in zip(*fields):
        worst = max(worst, *reference_property_residuals(system, phi, psi, t, shift))
    return {"draws": cfg.draws, "worst_residual": worst}


def reference_power(system, cfg):
    """The per-draw loop of ``lemma.power``, one evaluation per draw."""
    phis, ks = stream(
        "lemma.power", cfg, system, cfg.draws, random_potentials, integers(1, 6)
    )
    worst = -np.inf
    strict = 0
    for phi, k in zip(phis, ks.tolist()):
        scaled = k * log_spectral_radius(system, phi)
        power = reference_power_rate(system, k * phi, k)
        worst = max(worst, scaled - power)
        strict += power - scaled > 1e-9
    return {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict}


def reference_invariance(s, mu):
    """``is_invariant`` as it was: one ``np.bincount`` of mu's weights."""
    w = effective_weights(s, mu)
    worst = float(np.max(np.abs(np.bincount(s.alpha, weights=w, minlength=s.n) - w)))
    ok = worst <= 1e-12 and w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-12
    return ok, worst


def reference_young_check(s, phi, mu):
    """``young_check`` as it was for one draw: (slack, tight)."""
    ok, worst = reference_invariance(s, mu)
    if not ok:
        raise ValueError(
            f"functional must be invariant (defect {worst:g}); "
            "use divergence_witness for the divergent case"
        )
    tau = tau_dual(s, mu, cross_check=False).value
    slack = log_spectral_radius(s, phi) - pair(s, mu, phi) - tau
    assert slack >= -1e-9
    return float(slack), bool(slack <= 1e-9)


def reference_young_global(s, cfg):
    """The per-draw loop of ``young.global``, one ``young_check`` per draw."""
    phis, weights = stream(
        "young.global", cfg, s, cfg.draws, wide_potentials, random_invariant_weights
    )
    worst = np.inf
    tight = 0
    for phi, w in zip(phis, weights):
        slack, is_tight = reference_young_check(s, phi, functional(s, w))
        worst = min(worst, slack)
        tight += is_tight
    return {"draws": cfg.draws, "worst_slack": worst, "tight_count": tight}


def reference_oscillation_partition(s, phi, n, width):
    """``oscillation_partition`` as it was: one member per sorted level."""
    level = np.floor(birkhoff(s, phi, n) / width)
    keys = sorted(set(level[s.support].tolist()))
    rows = [s.support & (level == key) for key in keys]
    if not bool(s.support.all()):
        rows.append(~s.support)
    return PartitionOfUnity(np.array(rows, dtype=float))


def reference_local_young_checks(s, draws):
    """``local_young_checks`` as it was: per-draw set-up, two orbit walks per
    draw (the partition's and the norm's), one batched solve."""
    problems = []
    for phi, mu, n, eps in draws:
        assert reference_invariance(s, mu)[0]
        partition = reference_oscillation_partition(s, phi, n, eps * n)
        problems.append(inner_problem(s, mu, partition, n))
    sides = []
    for (phi, mu, n, eps), sol in zip(draws, maximize_inner_batch(problems)):
        lhs = eps + op_norm_log(s, phi, n) / n
        rhs = pair(s, mu, phi) + sol.value / n
        assert lhs >= rhs - 1e-8
        sides.append((lhs, rhs))
    return sides


def reference_young_local(s, cfg):
    """The loop of ``young.local`` with the per-draw set-up it replaced, in
    chunks of 64 draws: the check keeps its bytes in the chunks of its
    memory budget."""
    fields = stream(
        "young.local", cfg, s, cfg.draws,
        random_potentials, random_invariant_weights, integers(1, 7),
        integers(0, len(cfg.eps)),
    )
    draws = [
        (phi, functional(s, w), n, cfg.eps[pick])
        for phi, w, n, pick in zip(fields[0], fields[1], *(f.tolist() for f in fields[2:]))
    ]
    worst = np.inf
    for start in range(0, cfg.draws, 64):
        for lhs, rhs in reference_local_young_checks(s, draws[start : start + 64]):
            worst = min(worst, lhs - rhs)
    return {"draws": cfg.draws, "worst_slack": worst}


def reference_vp_gap(s, cfg):
    """The per-draw loop of ``vp.gap``, one ``variational_principle`` per draw."""
    (phis,) = stream("vp.gap", cfg, s, cfg.draws, wide_potentials)
    worst = 0.0
    for phi in phis:
        vals = cycle_means(s, phi)
        top = float(vals.max())
        first = int(np.flatnonzero(vals >= top - 1e-12)[0])
        maximizer = cycle_measure(s, s.supported_cycle_arrays[first])
        tau = tau_dual(s, maximizer, cross_check=False).value
        gap = log_spectral_radius(s, phi) - tau - pair(s, maximizer, phi)
        assert abs(gap) <= 1e-9
        worst = max(worst, abs(gap))
    return {"draws": cfg.draws, "worst_gap": worst}


def reference_vp_dichotomy(s, cfg):
    """The per-draw loop of ``vp.dichotomy``, one ``tau_dual`` per draw: a
    draw picks the invariant (0), normal (1) or perturbed (2) law, or null
    charging where a third pick has a charge under 0.3 on a system with
    null atoms, and each law is drawn for the draws that take it."""
    draws = _Draws(cfg.seed, "vp.dichotomy", s)
    picks, charges = draws.fields(0, cfg.draws, integers(0, 3), uniforms())
    zeros = divergent = 0
    has_nulls = bool((~s.support).any())
    laws = [
        random_invariant_weights,
        random_functional_weights,
        perturbed_invariant_weights,
        random_null_charging_weights,
    ]
    chosen = [
        3 if pick == 2 and has_nulls and charge < 0.3 else pick
        for pick, charge in zip(picks.tolist(), charges.tolist())
    ]
    rows = [iter(()) for _ in laws]
    for f, sampler in enumerate(laws):
        taken = np.array(chosen) == f
        if taken.any():
            rows[f] = iter(draws.field(2 + f, 0, cfg.draws, sampler, where=taken))
    for pick in chosen:
        mu = functional(s, next(rows[pick]), mode=FULL if pick == 3 else ESSENTIAL)
        value = tau_dual(s, mu, cross_check=False).value
        assert value == 0.0 or (value == -np.inf and pick != 0)
        zeros += value == 0.0
        divergent += value == -np.inf
    return {"draws": cfg.draws, "zeros": zeros, "divergent": divergent}


def reference_iterate(s, phi, f, n):
    """``iterate`` as it was for one vector: n calls of ``apply``."""
    for _ in range(n):
        f = apply(s, phi, f)
    return f


def reference_op_norm_oracle(s, cfg):
    """The per-draw loop of ``lemma.op_norm_oracle``: one ``iterate`` per
    supported atom and per unit-ball draw."""
    draws = _Draws(cfg.seed, "lemma.op_norm_oracle", s)
    worst_gap = 0.0
    worst_excess = -np.inf
    for n, phi in enumerate(draws.field(0, 0, 5, random_potentials), start=1):
        norm_log = op_norm_log(s, phi, n)
        best = -np.inf
        for y in s.supported_indices:
            f = np.zeros(s.n)
            f[y] = 1.0 / s.m[y]
            grown = l1_norm(s, reference_iterate(s, phi, l1_vector(s, f), n))
            if grown > 0.0:
                best = max(best, np.log(grown))
        worst_gap = max(worst_gap, abs(best - norm_log) / max(1.0, abs(norm_log)))
        value = op_norm(s, phi, n)
        for values in draws.field(n, 0, max(1, cfg.draws // 5), random_unit_stack):
            f = l1_vector(s, values)
            grown = l1_norm(s, reference_iterate(s, phi, f, n))
            worst_excess = max(worst_excess, grown - value * (1.0 + 1e-9))
    return {
        "indicator_gap": worst_gap,
        "unit_ball_excess": worst_excess,
        "draws": cfg.draws,
    }


def reference_gelfand(s, cfg):
    """The per-draw loop of ``lemma.gelfand``, one ``spectral_potential``
    per draw."""
    rounds = max(1, cfg.draws // 20)
    (phis,) = stream("lemma.gelfand", cfg, s, rounds, random_potentials)
    worst_below = np.inf
    final_gap = 0.0
    flagged = 0
    for phi in phis:
        res = spectral_potential(s, phi, n_max=max(8, cfg.n_max))
        worst_below = min(worst_below, float((res.norm_sequence - res.value).min()))
        final_gap = max(final_gap, abs(float(res.norm_sequence[-1]) - res.value))
        flagged += res.flagged
    return {
        "draws": rounds,
        "worst_approach_slack": worst_below,
        "final_gap": final_gap,
        "flagged": flagged,
    }


def reference_submultiplicative(s, cfg):
    """The per-draw loop of ``lemma.submultiplicative``, three
    ``op_norm_log`` calls per draw."""
    rounds = max(1, cfg.draws // 20)
    horizon = integers(1, cfg.n_max + 1)
    phis, ns, ks = stream(
        "lemma.submultiplicative", cfg, s, rounds, random_potentials, horizon, horizon
    )
    worst = -np.inf
    for phi, n, k in zip(phis, ns.tolist(), ks.tolist()):
        lhs = op_norm_log(s, phi, n + k)
        rhs = op_norm_log(s, phi, n) + op_norm_log(s, phi, k)
        worst = max(worst, lhs - rhs)
    return {"draws": rounds, "worst_log_excess": worst}


def reference_inner_certificate(s, cfg):
    """The per-draw loop of ``lemma.inner_certificate``: one
    ``inner_problem`` and one lone solve per draw."""
    rounds = max(1, cfg.draws // 20)
    draws = _Draws(cfg.seed, "lemma.inner_certificate", s)
    coins, splits, ns = draws.fields(0, rounds, uniforms(), uniforms(), integers(1, 5))
    invariant = coins < 0.5
    weights = np.empty((rounds, s.n))
    weights[invariant] = draws.field(3, 0, rounds, random_invariant_weights, where=invariant)
    weights[~invariant] = draws.field(4, 0, rounds, random_simplex_weights, where=~invariant)
    drawn = iter(draws.field(5, 0, rounds, random_partition_members, where=splits >= 0.5))
    worst = 0.0
    solved = divergent = 0
    for w, split, n in zip(weights, splits.tolist(), ns.tolist()):
        mu = functional(s, w)
        partition = atomic_partition(s) if split < 0.5 else PartitionOfUnity(next(drawn))
        prob = inner_problem(s, mu, partition, n)
        sol = maximize_inner(prob, tol=INNER_TOL)
        if sol.value == -np.inf:
            divergent += 1
            continue
        worst = max(worst, abs(certificate_sup(prob, sol) - 1.0))
        solved += 1
    return {"solved": solved, "divergent": divergent, "worst_sup_gap": worst}


# the loops of these checks are the slowest to replay, so they replay on
# twocyc and every third system of the pool
SLOW_REFERENCES = {"lemma.op_norm_oracle", "vp.dichotomy"}

REFERENCES = {
    "lemma.gelfand": reference_gelfand,
    "lemma.inner_certificate": reference_inner_certificate,
    "lemma.op_norm_oracle": reference_op_norm_oracle,
    "lemma.power": reference_power,
    "lemma.properties": reference_properties,
    "lemma.submultiplicative": reference_submultiplicative,
    "vp.dichotomy": reference_vp_dichotomy,
    "vp.gap": reference_vp_gap,
    "young.global": reference_young_global,
}


def assert_checks_replay(system_pool, references):
    """Run each named check on twocyc and the pool and compare its report
    values byte for byte with those of its reference loop."""
    cases = [(twocyc(), CertifyConfig(seed=3), True)]
    cases += [
        (s, CertifyConfig(seed=i, draws=200), i % 3 == 0)
        for i, s in enumerate(system_pool)
    ]
    for s, cfg, every_check in cases:
        for name, reference in references.items():
            if name in SLOW_REFERENCES and not every_check:
                continue
            record = run_check(s, name, cfg)
            assert record["verdict"] == "pass", (name, record)
            want = json.dumps(reference(s, cfg))
            assert json.dumps(record["values"]) == want, (name, s.n)


def test_batched_checks_replay_the_per_draw_loops(system_pool):
    """Same draws, same bits: the report values of the batched checks are
    byte-identical to those of the loops they replaced."""
    assert_checks_replay(system_pool, REFERENCES)


def test_young_local_check_replays_its_per_draw_loop(system_pool):
    """``young.local``, the costliest replay, on the cases of
    ``test_batched_checks_replay_the_per_draw_loops``."""
    assert_checks_replay(system_pool, {"young.local": reference_young_local})


def reference_empirical(s, cfg):
    """The per-draw loop of ``entstat.empirical``, one orbit walk and one
    Birkhoff sum per draw."""
    xs, ns, phis = stream(
        "entstat.empirical", cfg, s, cfg.draws,
        integers(0, s.n), integers(1, cfg.n_max + 1), random_potentials,
    )
    worst = 0.0
    for x, n, phi in zip(xs.tolist(), ns.tolist(), phis):
        w = empirical_walk(s, x, n)
        lhs = pair(s, functional(s, w, mode=FULL), phi)
        rhs = float(birkhoff(s, phi, n)[x]) / n
        worst = max(worst, abs(lhs - rhs), abs(float(w.sum()) - 1.0))
    return {"draws": cfg.draws, "worst_residual": worst}


def reference_tv(s, cfg):
    """The per-draw loop of ``entstat.tv``, one orbit walk per draw."""
    xs, ns = stream(
        "entstat.tv", cfg, s, cfg.draws, integers(0, s.n), integers(1, 4 * s.n + 1)
    )
    dec = s.decomposition
    worst_exact = 0.0
    worst_bound = -np.inf
    for x, n in zip(xs.tolist(), ns.tolist()):
        cyc = dec.cycles[dec.terminal[x]]
        length = len(cyc)
        uniform = np.zeros(s.n)
        uniform[list(cyc)] = 1.0 / length
        tv = 0.5 * float(np.abs(empirical_walk(s, x, n) - uniform).sum())
        entry = int(dec.entry_time[x])
        if entry == 0:
            r = n % length
            worst_exact = max(worst_exact, abs(tv - r * (length - r) / (n * length)))
        worst_bound = max(worst_bound, tv - (entry + length) / n)
    return {
        "draws": cfg.draws,
        "worst_formula_residual": worst_exact,
        "worst_decay_excess": worst_bound,
    }


def reference_near_minimizer(s, cfg):
    """The per-draw loop of ``lemma.near_minimizer``: one
    ``near_minimizer_bounds``, and so one lone inner solve, per draw."""
    rounds = max(1, cfg.draws // 20)
    draws = _Draws(cfg.seed, "lemma.near_minimizer", s)
    weights, splits, ns, picks = draws.fields(
        0, rounds, random_invariant_weights, uniforms(), integers(1, 5), integers(0, 3)
    )
    drawn = iter(draws.field(4, 0, rounds, random_partition_members, where=splits >= 0.5))
    worst = np.inf
    for w, split, n, pick in zip(weights, splits.tolist(), ns.tolist(), picks.tolist()):
        mu = functional(s, w)
        partition = atomic_partition(s) if split < 0.5 else PartitionOfUnity(next(drawn))
        eps = (1.0, 0.1, 0.01)[pick]
        bounds = near_minimizer_bounds(s, mu, partition, n, eps)
        worst = min(worst, bounds.growth_slack, bounds.pairing_slack)
    return {"draws": rounds, "worst_slack": worst}


def test_orbit_and_near_minimizer_checks_replay_the_per_draw_loops(system_pool):
    """entstat.empirical and entstat.tv report the bytes of their per-draw
    loops.  lemma.near_minimizer solves its draws as padded batches, so it
    keeps the verdict of its loop and its worst slack within 1e-15."""
    cases = [
        # 70 near-minimizer draws: two chunks
        (twocyc(), CertifyConfig(seed=3, draws=1400)),
        (twelve_atoms(), CertifyConfig(seed=4)),
    ]
    cases += [(s, CertifyConfig(seed=i, draws=200)) for i, s in enumerate(system_pool)]
    for s, cfg in cases:
        for name, reference in (
            ("entstat.empirical", reference_empirical),
            ("entstat.tv", reference_tv),
        ):
            record = run_check(s, name, cfg)
            assert record["verdict"] == "pass", (name, record)
            assert json.dumps(record["values"]) == json.dumps(reference(s, cfg)), (name, s.n)
        record = run_check(s, "lemma.near_minimizer", cfg)
        want = reference_near_minimizer(s, cfg)
        verdict = "pass" if -want["worst_slack"] <= 1e-8 else "fail"
        assert record["verdict"] == verdict, (record, want)
        assert record["values"]["draws"] == want["draws"]
        assert abs(record["values"]["worst_slack"] - want["worst_slack"]) <= 1e-15, s.n


def test_stacked_young_checks_raise_like_the_scalar_call():
    """A stack with one non-invariant draw raises the ValueError of the
    scalar call on that draw, in both Young checks."""
    s = twocyc()
    gen = np.random.default_rng(71)
    bad = functional(s, np.array([0.7, 0.3, 0.0, 0.0]))
    phi = random_potential(gen, s)
    draws = [(random_potential(gen, s), random_invariant(gen, s)) for _ in range(9)]
    draws.insert(4, (phi, bad))
    with pytest.raises(ValueError) as scalar:
        young_check(s, phi, bad)
    phis = np.array([p for p, _ in draws])
    weights = np.array([effective_weights(s, mu) for _, mu in draws])
    with pytest.raises(ValueError) as stacked:
        young_checks(s, phis, weights)
    assert "invariant" in str(scalar.value)
    assert str(stacked.value) == str(scalar.value)
    ns = 1 + np.arange(len(draws)) % 3
    with pytest.raises(ValueError) as scalar:
        local_young_check(s, phi, bad, 2, 0.5)
    with pytest.raises(ValueError) as stacked:
        local_young_checks(s, phis, weights, ns, np.full(len(draws), 0.5))
    assert "invariant" in str(scalar.value)
    assert str(stacked.value) == str(scalar.value)


def twelve_atoms():
    gen = np.random.default_rng(12)
    return make_system(gen.uniform(0.2, 2.0, 12), gen.integers(0, 12, size=12))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_property_and_power_checks_make_no_scalar_lambda_calls(monkeypatch):
    s = twelve_atoms()
    cfg = CertifyConfig(seed=5)
    scalar = counting(monkeypatch, spectral, "log_spectral_radius")
    batch = counting(monkeypatch, spectral, "log_spectral_radius_batch")
    assert run_check(s, "lemma.properties", cfg)["verdict"] == "pass"
    assert (len(scalar), len(batch)) == (0, 7)
    batch.clear()
    assert run_check(s, "lemma.power", cfg)["verdict"] == "pass"
    # per distinct power, one on the system and one on the k-step system
    assert (len(scalar), len(batch)) == (0, 10)


def test_young_and_vp_checks_make_no_per_draw_calls(monkeypatch):
    """young.global runs no scalar tau_dual or lambda on essential draws;
    vp.gap runs tau_dual at most once per supported cycle; and
    local_young_checks makes one ``_transport`` call per horizon of a call,
    with no orbit walk, and builds that horizon's inner problems with one
    call."""
    s = twelve_atoms()
    cfg = CertifyConfig(seed=5)
    duals = counting(monkeypatch, entropy, "tau_dual")
    scalar = counting(monkeypatch, spectral, "log_spectral_radius")
    assert run_check(s, "young.global", cfg)["verdict"] == "pass"
    assert (len(duals), len(scalar)) == (0, 0)
    assert run_check(s, "vp.gap", cfg)["verdict"] == "pass"
    assert 0 < len(duals) <= len(s.supported_cycle_arrays)
    assert len({id(args[1]) for args in duals}) == len(duals)

    walks = counting(monkeypatch, system, "orbit_sums")
    transports = counting(monkeypatch, entropy, "_transport")
    births = counting(monkeypatch, entropy, "birkhoff")
    norms = counting(monkeypatch, entropy, "_norm_log")
    stacks = counting(monkeypatch, entropy, "inner_problems")
    gen = np.random.default_rng(73)
    for horizons in ([1, 3, 3, 5, 1, 6, 3], [2], [4, 4]):
        transports.clear()
        norms.clear()
        stacks.clear()
        phis = np.empty((len(horizons), s.n))
        weights = np.empty((len(horizons), s.n))
        for i in range(len(horizons)):
            phis[i] = random_potential(gen, s)
            weights[i] = random_invariant(gen, s).weights
        local_young_checks(s, phis, weights, horizons, np.full(len(horizons), 0.5))
        assert [args[2] for args in transports] == sorted(set(horizons))
        assert len(norms) == len(stacks) == len(transports)
    assert len(births) == len(walks) == 0


def test_dichotomy_and_oracle_checks_evaluate_stacks(monkeypatch):
    """vp.dichotomy runs no tau_dual, and lemma.op_norm_oracle runs one
    stacked iterate per horizon for the atom indicators and one for the
    unit-ball draws."""
    s = twelve_atoms()
    cfg = CertifyConfig(seed=5)
    duals = counting(monkeypatch, entropy, "tau_dual")
    bound = counting(monkeypatch, certify, "tau_dual")
    assert run_check(s, "vp.dichotomy", cfg)["verdict"] == "pass"
    assert (len(duals), len(bound)) == (0, 0)
    iterates = counting(monkeypatch, certify, "iterate")
    assert run_check(s, "lemma.op_norm_oracle", cfg)["verdict"] == "pass"
    shapes = [args[2].shape for args in iterates]
    unit_draws = (cfg.draws // 5, s.n)
    assert shapes == [(s.supported_indices.size, s.n), unit_draws] * 5


# 260 draws in 8-draw chunks, and the 13 draws of a check that draws one
# per 20 (an inner-problem check, lemma.gelfand, lemma.submultiplicative)
DRAW_CHUNKS = [8] * 32 + [4]
ROUND_CHUNKS = [8, 5]

# the checks whose chunks one call takes: the certify name of the call that
# takes a chunk's stack, the position of the stack among its arguments, and
# the chunk sizes of 260 draws
CHUNKED = {
    "entstat.empirical": ("empirical_weights", 1, DRAW_CHUNKS),
    "entstat.tv": ("empirical_weights", 1, DRAW_CHUNKS),
    "lemma.gelfand": ("spectral_potential", 1, ROUND_CHUNKS),
    "lemma.inner_certificate": ("_horizon_problems", 2, ROUND_CHUNKS),
    "lemma.near_minimizer": ("near_minimizer_checks", 1, ROUND_CHUNKS),
    "lemma.properties": ("property_residuals", 1, DRAW_CHUNKS),
    "lemma.submultiplicative": ("_norm_logs", 1, ROUND_CHUNKS),
    "vp.dichotomy": ("divergence_witnesses", 1, DRAW_CHUNKS),
    "vp.gap": ("variational_principle", 1, DRAW_CHUNKS),
    "young.global": ("young_checks", 1, DRAW_CHUNKS),
    "young.local": ("local_young_checks", 1, DRAW_CHUNKS),
}


def test_chunked_stacks_keep_the_record_bits(monkeypatch, chunk_systems):
    """Every check gives byte-identical records when its stacks are swept
    in 8-draw chunks: a draw is addressed by its block, not by its place in
    a generator stream, and each row keeps the bits of its own evaluation.
    260 draws leave a short last chunk, and so do the 13 draws of a check
    that draws one per 20 and the 52 unit-ball draws per horizon of
    lemma.op_norm_oracle.  The subgradient's products are at most 100 x 60,
    far below the sizes at which the thread count moves their bits."""
    cfg = CertifyConfig(seed=31, draws=260)
    cases = [twocyc()] + chunk_systems
    names = sorted(certify.CHECKS)
    want = {(s.n, name): run_check(s, name, cfg) for s in cases for name in names}
    assert all(system._chunk_rows(s.n) >= 260 for s in cases)
    monkeypatch.setattr(system, "_CHUNK_ENTRIES", 1)
    calls = {call: counting(monkeypatch, certify, call) for call, _, _ in CHUNKED.values()}
    iterates = counting(monkeypatch, certify, "iterate")
    for s in cases:
        sup = s.supported_indices.size
        # the atom indicators, then the unit-ball draws, of each horizon
        per_horizon = [8] * (sup // 8) + [sup % 8] * (sup % 8 > 0) + [8] * 6 + [4]
        for name in names:
            for seen in [*calls.values(), iterates]:
                seen.clear()
            record = run_check(s, name, cfg)
            assert record["verdict"] == "pass", (name, record)
            assert json.dumps(record) == json.dumps(want[s.n, name]), (name, s.n)
            if name in CHUNKED:
                call, arg, sizes = CHUNKED[name]
                assert [len(args[arg]) for args in calls[call]] == sizes, name
            elif name == "lemma.op_norm_oracle":
                assert [len(args[2]) for args in iterates] == per_horizon * 5


def test_a_draw_is_re_derived_from_seed_check_and_block(monkeypatch):
    """Draw i of young.global is row i % 8 of block i // 8: its potential
    and its weights are one stacked sampler call each on a Philox generator
    keyed by (seed, the check's sha256 tag) at counter (0, i // 8, field,
    0), whatever the chunks the check is swept in.  The largest seed is a
    key word."""
    s = twelve_atoms()
    cfg = CertifyConfig(seed=2**64 - 1, draws=1003)
    tag = int.from_bytes(hashlib.sha256(b"young.global").digest()[:8], "big")
    key = np.array([cfg.seed, tag], dtype=np.uint64)
    calls = counting(monkeypatch, certify, "young_checks")
    for entries in (system._CHUNK_ENTRIES, 1):
        monkeypatch.setattr(system, "_CHUNK_ENTRIES", entries)
        calls.clear()
        assert run_check(s, "young.global", cfg)["verdict"] == "pass"
        phis = np.concatenate([args[1] for args in calls])
        weights = np.concatenate([args[2] for args in calls])
        for i in (0, 7, 8, 500, 999, 1000, 1002):
            block, row = divmod(i, 8)
            k = min(8, cfg.draws - 8 * block)

            def at(field):
                counter = np.array([0, block, field, 0], dtype=np.uint64)
                return np.random.Generator(np.random.Philox(key=key, counter=counter))

            phi = random_potentials(at(0), s, k, 3.0)[row]
            w = random_invariant_weights(at(1), s, k)[row]
            assert phi.tobytes() == phis[i].tobytes(), i
            assert w.tobytes() == weights[i].tobytes(), i


def test_near_minimizer_and_orbit_checks_evaluate_stacks(monkeypatch):
    """lemma.near_minimizer builds a chunk's inner problems with one
    ``inner_problems`` call per horizon and solves them with one
    ``maximize_inner_batch`` call, making no ``maximize_inner`` call;
    entstat.empirical and entstat.tv make no ``empirical`` call, and
    entstat.empirical walks its Birkhoff sums once per chunk.  At N = 12
    a near-minimizer chunk holds 104 draws (a draw counts as 8 arrays of
    13 x 12 entries) and an orbit chunk 10,920, so 1,000 draws are one."""
    s = twelve_atoms()
    assert system._chunk_rows(8 * 12 * 13) == 104
    assert system._chunk_rows(12) == 10920
    # 120 near-minimizer draws: chunks of 104 and 16
    cfg = CertifyConfig(seed=5, draws=2400)
    batches = counting(monkeypatch, entropy, "maximize_inner_batch")
    singles = counting(monkeypatch, entropy, "maximize_inner")
    bound = counting(monkeypatch, certify, "maximize_inner")
    stacks = counting(monkeypatch, entropy, "inner_problems")
    assert run_check(s, "lemma.near_minimizer", cfg)["verdict"] == "pass"
    assert [len(args[0]) for args in batches] == [104, 16]
    assert (len(singles), len(bound)) == (0, 0)
    horizons = [args[3] for args in stacks]
    assert sorted(horizons[:4]) == sorted(horizons[4:]) == [1, 2, 3, 4]
    assert sum(len(args[1]) for args in stacks) == 120

    calls = counting(monkeypatch, entstat, "empirical")
    walks = counting(monkeypatch, certify, "orbit_sums")
    transports = counting(monkeypatch, certify, "_transport")
    cfg = CertifyConfig(seed=5)
    assert run_check(s, "entstat.empirical", cfg)["verdict"] == "pass"
    # one transport per distinct horizon of the one chunk, and no walk
    assert walks == []
    assert [args[2] for args in transports] == list(range(1, cfg.n_max + 1))
    assert sum(len(args[1]) for args in transports) == 1000
    assert run_check(s, "entstat.tv", cfg)["verdict"] == "pass"
    assert calls == [] and "empirical" not in vars(certify)


def test_inner_certificate_builds_its_problems_per_horizon(monkeypatch):
    """lemma.inner_certificate builds a chunk's inner problems with one
    ``inner_problems`` call per horizon, from array draws (no functional
    or partition object), and solves each draw alone with
    ``maximize_inner``.  At N = 12 a chunk holds 416 draws (a draw counts
    as 2 arrays of 13 x 12 entries), so its 100 draws are one chunk."""
    s = twelve_atoms()
    assert system._chunk_rows(2 * 12 * 13) == 416
    cfg = CertifyConfig(seed=5, draws=2000)
    stacks = counting(monkeypatch, entropy, "inner_problems")
    singles = counting(monkeypatch, certify, "maximize_inner")
    assert run_check(s, "lemma.inner_certificate", cfg)["verdict"] == "pass"
    assert [args[3] for args in stacks] == [1, 2, 3, 4]
    assert sum(len(args[1]) for args in stacks) == 100
    assert len(singles) == 100
    for name in ("random_invariant", "random_simplex_functional", "random_partition"):
        assert name not in vars(certify)


def test_gelfand_and_submultiplicative_checks_evaluate_stacks(monkeypatch):
    """lemma.gelfand makes one stacked ``spectral_potential`` call, with one
    ``norm_log_sequence`` sweep, and lemma.submultiplicative no
    ``op_norm_log`` call, but one ``_transport``
    call per distinct horizon, per chunk of ``system._chunk_rows`` draws,
    rather than one per draw; with 8-row chunks both records keep their
    bytes, at the default horizons and at ``n_max`` 40."""
    s = twelve_atoms()
    # 100 draws of each check
    configs = [
        CertifyConfig(seed=5, draws=2000),
        CertifyConfig(seed=6, draws=2000, n_max=40),
    ]
    names = ("lemma.gelfand", "lemma.submultiplicative")
    want = {(c.n_max, name): run_check(s, name, c) for c in configs for name in names}
    for cfg in configs:
        values = want[cfg.n_max, "lemma.submultiplicative"]["values"]
        assert json.dumps(values) == json.dumps(reference_submultiplicative(s, cfg))
    potentials = counting(monkeypatch, certify, "spectral_potential")
    norms = [counting(monkeypatch, m, "op_norm_log") for m in (certify, spectral)]
    sweeps = counting(monkeypatch, spectral, "norm_log_sequence")
    transports = counting(monkeypatch, spectral, "_transport")
    grids = counting(monkeypatch, certify, "_norm_logs")
    monkeypatch.setattr(system, "_CHUNK_ENTRIES", 1)
    for cfg in configs:
        potentials.clear()
        sweeps.clear()
        transports.clear()
        grids.clear()
        for name in names:
            record = run_check(s, name, cfg)
            assert record["verdict"] == "pass", (name, record)
            assert json.dumps(record) == json.dumps(want[cfg.n_max, name]), name
        chunks = [(8, s.n)] * 12 + [(4, s.n)]
        assert [args[1].shape for args in potentials] == chunks
        assert norms == [[], []]
        # one transfer sweep per chunk of gelfand's stacked spectral potential
        assert [args[1].shape for args in sweeps] == chunks
        # one transport per distinct horizon of each submultiplicative chunk,
        # on the rows that need it
        assert [args[1].shape for args in grids] == chunks
        want_calls = [
            (n, int((horizons == n).any(axis=0).sum()))
            for _, _, horizons in grids
            for n in sorted(set(horizons.ravel().tolist()))
        ]
        assert [(args[2], len(args[1])) for args in transports] == want_calls


def test_make_record_derives_verdict_residual_and_repro():
    passing = make_record("x", "in", {"a": 1}, [(0.5, 1.0), (-2.0, 0.0)], repro="r")
    keys = ["name", "inputs", "values", "verdict", "residual", "witness"]
    assert list(passing) == keys
    assert (passing["verdict"], passing["residual"]) == ("pass", 0.0)
    assert make_record("x", "in", {}, [])["verdict"] == "pass"
    failing = make_record("x", "in", {}, [(3, 0), (1.5, 1.0)], {"w": 1}, repro="r")
    assert list(failing) == keys + ["repro"]
    assert failing["verdict"] == "fail"
    assert failing["residual"] == 3.0 and isinstance(failing["residual"], float)
    unknown = make_record("x", "in", {}, [(0.0, 1.0), (np.nan, 1.0)])
    assert (unknown["verdict"], unknown["residual"]) == ("fail", np.inf)


def test_certify_records_have_zero_residual_exactly_when_they_pass(system_pool):
    for i, system in enumerate(system_pool):
        for record in run_suite(system, CertifyConfig(seed=i, draws=20)):
            assert (record["residual"] == 0.0) == (record["verdict"] == "pass"), (
                i,
                record,
            )


def nan_at(values, i):
    """A float copy of ``values`` with a NaN at index i."""
    out = np.array(values, dtype=float)
    out[i] = np.nan
    return out


def test_a_nan_in_one_draw_fails_its_check(monkeypatch):
    """A NaN observed in one draw, not the first, fails the check and shows
    in its values: the running reductions keep it, where built-in ``max``
    and ``min`` keep their first argument against a NaN."""
    s = twocyc()
    cfg = CertifyConfig(seed=2)
    young_checks = certify.young_checks
    principle = certify.variational_principle
    subgradient = certify.subgradient
    seen = []

    def nan_slack(system, phis, weights):
        return nan_at(young_checks(system, phis, weights), 417)

    def nan_gap(system, phis):
        cert = principle(system, phis)
        return dataclasses.replace(cert, gap=nan_at(cert.gap, 417))

    def nan_violation(system, phi, draws, seed):
        res = subgradient(system, phi, draws=draws, seed=seed)
        seen.append(seed)
        nan = float("nan") if len(seen) == 4 else res.worst_violation
        return dataclasses.replace(res, worst_violation=nan)

    for name, target, planted in (
        ("young.global", "young_checks", nan_slack),
        ("vp.gap", "variational_principle", nan_gap),
        ("vp.subgradient", "subgradient", nan_violation),
    ):
        assert run_check(s, name, cfg)["verdict"] == "pass"
        monkeypatch.setattr(certify, target, planted)
        record = run_check(s, name, cfg)
        monkeypatch.undo()
        assert record["verdict"] == "fail", name
        assert record["residual"] == np.inf
        assert any(math.isnan(v) for v in record["values"].values() if isinstance(v, float))


def test_a_failing_record_repros_the_suite_that_ran():
    """The repro of a failing record names ``cfg.suite``, the suite
    ``run_suite`` ran, so running it repeats that suite."""
    records = run_suite(twocyc(), CertifyConfig(tolerance=0.0, suite="vp"))
    assert [r["name"] for r in records] == ["vp.dichotomy", "vp.gap", "vp.subgradient"]
    failing = [r for r in records if r["verdict"] == "fail"]
    assert failing
    for record in failing:
        assert " --suite vp " in record["repro"]


def test_a_repro_names_the_profile_of_the_draw_count():
    """A failing record's repro names the profile whose draw count ran; a
    draw count that no profile has cannot be repeated from the command
    line, so its failing records carry no repro."""
    cfg = CertifyConfig(tolerance=0.0, suite="vp")
    assert " --profile quick " in run_check(twocyc(), "vp.subgradient", cfg)["repro"]
    deep = CertifyConfig(tolerance=0.0, suite="vp", draws=certify.PROFILES["deep"])
    assert " --profile deep " in certify._repro(deep)
    records = run_suite(twocyc(), CertifyConfig(tolerance=0.0, suite="vp", draws=20))
    failing = [r for r in records if r["verdict"] == "fail"]
    assert [r["name"] for r in failing] == ["vp.subgradient"]
    assert "repro" not in failing[0]


def test_suites_are_the_prefixes_of_the_check_names():
    prefix = {"young": "young", "vp": "vp", "lemmas": "lemma", "entstat": "entstat"}
    assert list(certify.SUITES) == [*prefix, "all"]
    assert certify.SUITES["all"] == tuple(sorted(certify.CHECKS))
    for suite, names in certify.SUITES.items():
        assert names == tuple(sorted(names))
        if suite != "all":
            assert names and all(n.split(".")[0] == prefix[suite] for n in names)
    assert sum(len(certify.SUITES[suite]) for suite in prefix) == len(certify.CHECKS)


@pytest.mark.parametrize(
    "knobs",
    [
        {"draws": 0},
        {"draws": -3},
        {"draws": 2.0},
        {"draws": True},
        {"n_max": 0},
        {"n_max": 1.5},
        {"eps": ()},
        {"eps": (0.5, math.nan)},
        {"eps": (math.inf,)},
        {"eps": (0.0,)},
        {"eps": (-0.1,)},
        {"seed": -1},
        {"seed": 2**64},
        {"seed": True},
        {"seed": 1.0},
        {"seed": "3"},
        {"tolerance": math.inf},
        {"tolerance": math.nan},
        {"tolerance": -1e-9},
    ],
)
def test_certify_config_rejects_knobs_that_certify_nothing(knobs):
    """Zero draws would pass five checks having drawn nothing; draws and
    n_max must be integers of at least 1 and eps nonempty, finite and
    positive.  A bad seed would be reported as a failed claim, an infinite
    tolerance would pass every tolerance claim and a NaN or negative one
    fail them all: the seed must be an integer (not a bool) in [0, 2**64)
    and the tolerance None or finite and nonnegative."""
    with pytest.raises(ValueError):
        CertifyConfig(**knobs)


def test_certify_config_accepts_the_smallest_knobs():
    cfg = CertifyConfig(draws=1, n_max=1, eps=(0.5,), tolerance=0.0)
    assert (cfg.draws, cfg.n_max, cfg.eps, cfg.tolerance) == (1, 1, (0.5,), 0.0)
    largest = CertifyConfig(seed=np.uint64(2**64 - 1), draws=8)
    assert run_check(twocyc(), "vp.gap", largest)["verdict"] == "pass"


def test_vp_dichotomy_reports_an_invariant_draw_that_diverges(monkeypatch):
    """An invariant draw given a divergence ray fails vp.dichotomy: one bad
    draw per invariant draw, and the first of them as witness."""
    s = twocyc()
    cfg = CertifyConfig(draws=20)
    zeros = run_check(s, "vp.dichotomy", cfg)["values"]["zeros"]
    assert zeros > 0
    real = certify.divergence_witnesses

    def every_row_diverges(on, weights):
        return [ray or "ray" for ray in real(on, weights)]

    monkeypatch.setattr(certify, "divergence_witnesses", every_row_diverges)
    record = run_check(s, "vp.dichotomy", cfg)
    assert (record["verdict"], record["residual"]) == ("fail", float(zeros))
    assert record["values"] == {"draws": 20, "zeros": 0, "divergent": 20}
    witness = record["witness"]
    assert list(witness) == ["weights", "mode", "value"]
    assert (witness["mode"], witness["value"]) == (system.ESSENTIAL, -math.inf)
    assert system.invariance(s, [witness["weights"]])[0][0]


def test_estimate_reports_the_first_grid_that_fails(monkeypatch):
    """A grid whose bound fails makes entstat.estimate fail, with the
    worst ratio's excess over 1 as residual and the first failing grid,
    at its worst (horizon, atom), as witness."""
    s = twocyc()
    real = certify.verify_estimate

    def failing(on, mu, eps, n_range):
        rep = real(on, mu, eps, n_range)
        return dataclasses.replace(
            rep, all_hold=False, worst_ratio=2.5, worst_at=(3, 1)
        )

    monkeypatch.setattr(certify, "verify_estimate", failing)
    cfg = CertifyConfig(draws=20)
    record = run_check(s, "entstat.estimate", cfg)
    assert (record["verdict"], record["residual"]) == ("fail", 1.5)
    witness = record["witness"]
    assert list(witness) == ["mode", "weights", "eps", "n", "atom", "ratio"]
    assert witness["mode"] == system.ESSENTIAL
    assert (witness["eps"], witness["n"], witness["atom"], witness["ratio"]) == (
        cfg.eps[0], 3, 1, 2.5,
    )
    assert system.invariance(s, [witness["weights"]])[0][0]


@pytest.mark.parametrize("error", [CertificateError, ValueError])
def test_run_check_records_a_failed_claim_or_bad_input(monkeypatch, error):
    def broken(system, cfg, rng):
        raise error("the law missed its bound")

    monkeypatch.setitem(certify.CHECKS, "vp.gap", broken)
    record = run_check(twocyc(), "vp.gap", CertifyConfig())
    assert (record["verdict"], record["residual"]) == ("fail", math.inf)
    assert record["values"] == {}
    assert record["witness"] == {"error": "the law missed its bound"}


def test_run_check_lets_a_library_bug_propagate(monkeypatch):
    """Only a failed claim or bad input becomes a record: any other error,
    a ``RuntimeError`` that is not a ``CertificateError`` included, escapes."""

    def unfinished(system, cfg, rng):
        raise NotImplementedError("no such law yet")

    monkeypatch.setitem(certify.CHECKS, "vp.gap", unfinished)
    with pytest.raises(NotImplementedError, match="no such law yet"):
        run_check(twocyc(), "vp.gap", CertifyConfig())


def test_run_check_lets_a_singular_linear_system_propagate(monkeypatch):
    """numpy's ``LinAlgError`` subclasses ``ValueError``, but a singular
    Newton system is a failure of the library, not bad input: it escapes
    instead of becoming a failed record."""

    def singular(system, cfg, rng):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(certify.CHECKS, "vp.gap", singular)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        run_check(twocyc(), "vp.gap", CertifyConfig())
