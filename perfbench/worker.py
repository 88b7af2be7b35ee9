"""One benchmark run of one workload, in its own process.

Started by run.py with ``src`` on PYTHONPATH and BLAS set to one thread.
Writes its result as JSON to the path given by ``--result``.

Untraced (``--trace 0``): rounds of operations run until ``--seconds`` have
passed and the workload's minimum number of rounds is done. Set-up is timed
SETUP_REPEATS times, once before the first round and then after each round,
so that its samples spread over the run. Traced (``--trace 1``): one untraced set-up and
round, then the same set-up and round again under the tracer, so that every
count is fixed by the seed and the difference of the two is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

SETUP_REPEATS = 7
PROBE = (
    "import time; t = time.perf_counter(); import tentropy, tentropy.cli; "
    "print(time.perf_counter() - t)"
)

# Untraced times are rescaled to the speed at which the reference kernel
# below takes REFERENCE_S. The kernel mixes interpreter work and small-array
# numpy work, as the package's loops do, and is timed between operations. On
# the 2-vCPU machine the benchmark was defined on, which is shared with other
# tenants, everything runs up to 1.5-2x slower for stretches of seconds to
# minutes; the rescaling removes much of that from the metrics. The raw times
# are kept in the details line.
REFERENCE_S = 0.015
_REF_INTS = np.arange(10_000) % 97
_REF_FLOATS = np.linspace(-3.0, 3.0, 1_000)


def _reference_kernel() -> int:
    acc = 0
    for i in range(100_000):
        acc += i & 7
    for y in range(200):
        acc += int((_REF_INTS == y).sum())
        np.logaddexp.reduce(_REF_FLOATS)
    return acc


def reference_s() -> float:
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def set_up(workloads, args, workdir: Path):
    """One set-up sample: the package import, timed in a fresh interpreter,
    plus one build of the workload.

    Returns the workload, the seconds, and the speed (REFERENCE_S over the
    mean reference time around the sample).
    """
    before = reference_s()
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=60, check=True,
    )
    start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, workdir)
    seconds = float(probe.stdout.strip()) + time.perf_counter() - start
    return wl, seconds, 2 * REFERENCE_S / (before + reference_s())


def run_round(ops, tracer=None, rescale=False) -> tuple[list[tuple], list[str]]:
    """Time each operation and check its result; return timings and failures.

    A timing is (label, size, seconds, speed). With ``rescale`` the
    reference kernel is timed before and after every operation and speed is
    REFERENCE_S over the mean of the two; otherwise speed is 1.
    """
    timings, failures = [], []
    ref = reference_s() if rescale else REFERENCE_S
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a raising operation counts as failed
            error = exc
        elapsed = time.perf_counter() - start
        after = reference_s() if rescale else REFERENCE_S
        timings.append((op.label, op.size, elapsed, 2 * REFERENCE_S / (ref + after)))
        ref = after
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
    return timings, failures


def untraced(workloads, args, workdir: Path) -> dict:
    wl, *sample = set_up(workloads, args, workdir)
    setups = [sample]
    rounds, failures = [], []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < wl.min_rounds or time.perf_counter() < deadline:
        timings, failed = run_round(wl.round_ops(len(rounds)), rescale=True)
        rounds.append(timings)
        failures += failed
        if len(setups) < SETUP_REPEATS:
            setups.append(set_up(workloads, args, workdir)[1:])
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workloads, args, workdir)[1:])

    # Time per round on one system size: rounds with the same operations on
    # that size are repeats, so take the median over the repeats of each
    # distinct set of operations, then the median over distinct sets.
    def median_of(size: str, rescale: bool) -> float:
        repeats: dict[tuple, list[float]] = {}
        for r in rounds:
            mine = [(label, t * (speed if rescale else 1.0))
                    for label, op_size, t, speed in r if op_size == size]
            if mine:
                key = tuple(label for label, _ in mine)
                repeats.setdefault(key, []).append(sum(t for _, t in mine))
        return statistics.median(statistics.median(v) for v in repeats.values())

    def times(rescale: bool) -> dict[str, float]:
        small = median_of("small", rescale)
        large = median_of("large", rescale)
        return {
            "setup_s": statistics.median(t * (v if rescale else 1.0) for t, v in setups),
            "wall_s": small + large,
            "small_n_s": small,
            "large_n_s": large,
        }

    samples: dict[str, list[list[float]]] = {}
    for r in rounds:
        for label, size, t, speed in r:
            samples.setdefault(f"{size} {label}", []).append([t, speed])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": wl,
        "attempted": sum(len(r) for r in rounds),
        "failures": failures,
        "rounds": len(rounds),
        "metrics": {**times(rescale=True), "peak_rss_mb": peak_mb},
        "raw_times": times(rescale=False),
        "setup_samples_seconds_speed": setups,
        "op_samples_seconds_speed": samples,
    }


def traced(workloads, layers, args, workdir: Path) -> dict:
    from tracer import Tracer

    def setup_and_round(tracer=None):
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, workdir)
        timings, failed = run_round(wl.round_ops(0), tracer)
        return wl, time.perf_counter() - start, len(timings), failed

    wl, plain_s, attempted, failures = setup_and_round()
    observed = layers.Observed()
    tracer = Tracer(layers.traced_names(), observers=observed.observers())
    tracer.install()
    try:
        _, traced_s, more, failed = setup_and_round(tracer)
    finally:
        tracer.uninstall()
    spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    metrics = layers.layer_metrics(tracer, observed)
    metrics["trace_overhead_s"] = traced_s - plain_s
    return {
        "workload": wl,
        "attempted": attempted + more,
        "failures": failures + failed,
        "rounds": 2,
        "metrics": metrics,
        "absent": tracer.absent,
        "spans": str(spans_path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import tentropy

    src = Path(args.src).resolve()
    if src not in Path(tentropy.__file__).resolve().parents:
        print(f"tentropy imported from {tentropy.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    import workloads

    workdir = Path(args.result).parent / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            out = traced(workloads, layers, args, workdir)
        else:
            out = untraced(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl = out.pop("workload")
    out["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "atoms": wl.sizes,
        "array_bytes_computed": wl.array_bytes,
        **wl.notes,
    }
    Path(args.result).write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
