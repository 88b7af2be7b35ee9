"""The traced layers and the per-layer metrics computed from their spans.

Layers are tentropy's modules. For every function in FUNCTIONS the traced
run reports ``<module>.<function>.calls`` (an exact count) and
``<module>.<function>.self_s`` (summed self time). The extra metrics are
listed in EXTRA_UNITS. Names that no longer exist in the package are
reported with zero values and listed as absent.
"""

from __future__ import annotations

import importlib
import math

from tracer import self_times

FUNCTIONS = (
    "system.birkhoff",
    "system.alpha_power",
    "system.validate",
    "system.is_invariant",
    "system.invariant_vertices",
    "spectral.op_norm_log",
    "spectral.spectral_potential",
    "spectral.log_spectral_radius",
    "spectral.log_spectral_radius_batch",
    "spectral.iterate",
    "spectral.power_gap",
    "spectral.property_residuals",
    "entropy.maximize_inner",
    "entropy.inner_problem",
    "entropy.tau_direct",
    "entropy.tau_dual",
    "entropy.oscillation_partition",
    "entropy.local_young_check",
    "entropy.near_minimizer_bounds",
    "varprin.divergence_witness",
    "varprin.variational_principle",
    "varprin.young_check",
    "varprin.subgradient",
    "entstat.verify_estimate",
    "entstat.growth_constant",
    "entstat.hitting_set",
    "entstat.build_neighborhood",
    "entstat.estimate_lhs",
    "entstat.empirical",
    "certify.run_check",
    "io.load_system",
    "io.dump_report",
    "cli.main",
)

# The cycle decomposition runs inside a cached property; its worker is traced.
DECOMPOSE = "system._decompose"

EXTRA_UNITS = {
    "system.decomposition_s": "s",
    "entropy.maximize_inner.iter_p50": "count",
    "entropy.maximize_inner.iter_p99": "count",
    "entropy.maximize_inner.iter_max": "count",
    "entropy.maximize_inner.divergent": "count",
    "varprin.divergence_witness.witness_share": "ratio",
    "entstat.verify_estimate.rows": "count",
    "sampling.self_s": "s",
    "trace_overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


def sampling_names() -> list[str]:
    """All public generators of tentropy.sampling, traced as one layer."""
    try:
        module = importlib.import_module("tentropy.sampling")
    except ImportError:
        return ["sampling"]
    return sorted(
        f"sampling.{key}"
        for key, value in vars(module).items()
        if callable(value)
        and not key.startswith("_")
        and getattr(value, "__module__", None) == "tentropy.sampling"
    )


def traced_names() -> list[str]:
    return [*FUNCTIONS, DECOMPOSE, *sampling_names()]


class Observed:
    """Values read from results: inner-solver effort and estimate grid rows."""

    def __init__(self):
        self.iterations: list[int] = []
        self.divergent = 0
        self.rows = 0

    def observers(self) -> dict:
        return {
            "entropy.maximize_inner": self._inner,
            "entstat.verify_estimate": self._estimate,
        }

    def _inner(self, solution) -> None:
        self.iterations.append(int(solution.iterations))
        self.divergent += solution.value == -math.inf

    def _estimate(self, report) -> None:
        self.rows += len(report.rows)


def _rank(sorted_values: list[int], q: float) -> int:
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer, observed: Observed) -> dict[str, float]:
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    decompose_s = 0.0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end = span[0], span[1], span[2]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if name == DECOMPOSE:
            decompose_s += end - start
    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    iterations = sorted(observed.iterations)
    witness_calls = calls.get("varprin.divergence_witness", 0)
    witnesses = tracer.returned.get("varprin.divergence_witness", 0)
    metrics.update({
        "system.decomposition_s": decompose_s,
        "entropy.maximize_inner.iter_p50": _rank(iterations, 0.50),
        "entropy.maximize_inner.iter_p99": _rank(iterations, 0.99),
        "entropy.maximize_inner.iter_max": iterations[-1] if iterations else 0,
        "entropy.maximize_inner.divergent": observed.divergent,
        "varprin.divergence_witness.witness_share":
            witnesses / witness_calls if witness_calls else 0.0,
        "entstat.verify_estimate.rows": observed.rows,
        "sampling.self_s": sum(v for k, v in own.items() if k.startswith("sampling.")),
    })
    return metrics
