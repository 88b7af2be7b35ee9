"""Certify checks: the claim contract of their records, and the checks that
evaluate all their draws with one batched call."""

import json
import math

import numpy as np

from tentropy import spectral
from tentropy.certify import CertifyConfig, _rng_for, make_record, run_check, run_suite
from tentropy.fixtures import twocyc
from tentropy.sampling import random_potential
from tentropy.spectral import log_spectral_radius
from tentropy.system import make_system


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


def reference_power_rate(system, psi, k):
    """The power side of ``power_gap`` as it was for one potential."""
    best = -np.inf
    for _, rows in system.cycle_groups:
        length = rows.shape[1]
        d = math.gcd(length, k)
        size = length // d
        orbits = rows[:, (np.arange(d)[:, None] + k * np.arange(size)) % length]
        start = orbits.argmin(axis=-1)[..., None]
        orbits = np.take_along_axis(orbits, (start + np.arange(size)) % size, axis=-1)
        best = max(best, float((psi[orbits].sum(axis=-1) / size).max()))
    return best


def reference_properties(system, cfg):
    """The per-draw loop of ``lemma.properties``, one evaluation per draw."""
    rng = _rng_for(cfg.seed, "lemma.properties")
    worst = -np.inf
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=2.0)
        psi = random_potential(rng, system, scale=2.0)
        t = float(rng.uniform())
        shift = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, *reference_property_residuals(system, phi, psi, t, shift))
    return {"draws": cfg.draws, "worst_residual": worst}


def reference_power(system, cfg):
    """The per-draw loop of ``lemma.power``, one evaluation per draw."""
    rng = _rng_for(cfg.seed, "lemma.power")
    worst = -np.inf
    strict = 0
    for _ in range(cfg.draws):
        phi = random_potential(rng, system, scale=2.0)
        k = int(rng.integers(1, 6))
        scaled = k * log_spectral_radius(system, phi)
        power = reference_power_rate(system, k * phi, k)
        worst = max(worst, scaled - power)
        strict += power - scaled > 1e-9
    return {"draws": cfg.draws, "worst_excess": worst, "strict_gaps": strict}


def test_batched_checks_replay_the_per_draw_loops(system_pool):
    """Same draws, same bits: the report values of the batched checks are
    byte-identical to those of the loops they replaced."""
    cases = [(twocyc(), CertifyConfig(seed=3))]
    cases += [(s, CertifyConfig(seed=i, draws=200)) for i, s in enumerate(system_pool)]
    for system, cfg in cases:
        for name, reference in (
            ("lemma.properties", reference_properties),
            ("lemma.power", reference_power),
        ):
            record = run_check(system, name, cfg)
            assert record["verdict"] == "pass", (name, record)
            want = json.dumps(reference(system, cfg))
            assert json.dumps(record["values"]) == want, (name, system.n)


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
    assert (len(scalar), len(batch)) == (0, 5)



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
        for record in run_suite(system, "all", CertifyConfig(seed=i, draws=20)):
            assert (record["residual"] == 0.0) == (record["verdict"] == "pass"), (
                i,
                record,
            )
