"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import layers
import workloads
from tracer import Tracer, self_times
from worker import run_round


def test_self_time_on_nested_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 2.0, 3.0, 1, 1),
        ("d", 5.0, 9.0, 0, 1),
        ("e", 6.0, 8.0, 3, 1),
        ("f", 7.0, 8.5, 3, 1),  # overlaps its sibling e: the union counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_tracer_reports_missing_names_as_absent_and_restores_bindings():
    from tentropy import entstat, spectral

    original = spectral.op_norm_log
    tracer = Tracer(["spectral.no_such_primitive", "no_such_module.f", "spectral.op_norm_log"])
    tracer.install()
    try:
        assert spectral.op_norm_log is not original
        assert entstat.op_norm_log is spectral.op_norm_log
    finally:
        tracer.uninstall()
    assert tracer.absent == ["spectral.no_such_primitive", "no_such_module.f"]
    assert spectral.op_norm_log is original
    assert entstat.op_norm_log is original


def _transport(seed=3, n=300):
    rng = np.random.default_rng(seed)
    m, alpha = workloads.transport_arrays(rng, n)
    from tentropy.system import make_system

    return make_system(m, alpha), m, alpha, rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("horizon", workloads.HORIZONS)
def test_oracle_agrees_with_op_norm_log(horizon):
    from tentropy.spectral import op_norm_log

    system, m, alpha, phi = _transport()
    expected = workloads.op_norm_log_oracle(alpha, m, phi, horizon)
    assert workloads._close(op_norm_log(system, phi, horizon), expected)


def test_oracle_rejects_a_planted_wrong_value():
    system, m, alpha, phi = _transport()
    support = m > 0.0
    cycles = [c for c in workloads.cycles_of(alpha) if support[c].all()]
    lam = workloads.cycle_lambda(cycles, support, phi)
    inv = workloads.invariant_mixture(np.random.default_rng(0), m.size, cycles)
    from tentropy.system import functional

    ops = workloads._transport_ops(
        "small", system, m, alpha, phi, lam, functional(system, inv), functional(system, inv)
    )
    op = next(o for o in ops if o.label == "op_norm_log n=64")
    value = op.call()
    op.check(value)
    with pytest.raises(workloads.CheckFailed):
        op.check(value + 1e-6)


def _traced_counts(name, seed, workdir):
    observed = layers.Observed()
    tracer = Tracer(layers.traced_names(), observers=observed.observers())
    tracer.install()
    try:
        wl = workloads.build(name, seed, workdir)
        timings, failures = run_round(wl.round_ops(0), tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    metrics = layers.layer_metrics(tracer, observed)
    units = layers.metric_units()
    return {k: v for k, v in metrics.items() if units[k] in ("count", "ratio")}


MAIN_LAYER = {
    "certify-small": "entropy.maximize_inner",
    "transport-large": "spectral.op_norm_log",
    "dual-large": "entropy.tau_dual",
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly_between_traced_runs(name, tmp_path):
    first = _traced_counts(name, 5, _tmp(tmp_path / "a"))
    second = _traced_counts(name, 5, _tmp(tmp_path / "b"))
    assert first == second
    assert first[f"{MAIN_LAYER[name]}.calls"] > 0
    if name != "certify-small":
        assert first["entropy.maximize_inner.calls"] == 0
    if name == "dual-large":
        assert first["spectral.op_norm_log.calls"] == 0


def _tmp(path):
    path.mkdir()
    return path


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_second_seed_changes_inputs_and_every_operation_passes(name, tmp_path):
    a = workloads.build(name, 1, _tmp(tmp_path / "a"))
    b = workloads.build(name, 2, _tmp(tmp_path / "b"))
    files_a = {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*.json")}
    files_b = {p.name: p.read_bytes() for p in (tmp_path / "b").glob("*.json")}
    assert files_a.keys() == files_b.keys()
    assert any(files_a[k] != files_b[k] for k in files_a)
    for wl in (a, b):
        timings, failures = run_round(wl.round_ops(0))
        assert failures == [] and len(timings) > 0


def test_certify_check_compares_report_bytes(tmp_path):
    wl = workloads.build("certify-small", 1, tmp_path)
    twocyc_op = wl.round_ops(0)[0]
    twocyc_op.check(twocyc_op.call())
    report = next(tmp_path.glob("twocyc-seed0-report.json"))
    data = json.loads(report.read_text())
    data["summary"]["passed"] -= 1
    report.write_text(json.dumps(data))
    with pytest.raises(workloads.CheckFailed):
        twocyc_op.check(0)
