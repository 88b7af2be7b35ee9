"""Benchmark of the tentropy certifier; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 30 --trace 0

The package is imported from ./src; nothing is installed. Each run starts
the workload in one child process (worker.py) with BLAS limited to one
thread, and prints two JSON lines: the run's environment and details, then
the result object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-small", "transport-large", "dual-large")
RUN_LIMIT_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for key in BLAS_THREADS:
        env[key] = "1"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "tentropy" / "__init__.py").is_file():
        print(f"run.py: no tentropy package under {src}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120 or args.seed < 0:
        print("run.py: need 0 < --seconds <= 120 and --seed >= 0", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = child_env(src)
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)

    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--src", str(src), "--result", str(result_path)],
            env=env, cwd=root, check=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out = json.loads(result_path.read_text(encoding="utf-8"))

    if args.trace:
        import layers

        units = layers.metric_units()
    else:
        units = {"setup_s": "s", "wall_s": "s", "small_n_s": "s",
                 "large_n_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items()}

    attempted, failed = out["attempted"], len(out["failures"])
    env_info = out["environment"]
    env_info.update({
        "nproc": os.cpu_count(),
        "blas_threads": {key: env[key] for key in BLAS_THREADS},
        "workload": args.workload,
        "bytes_note": "byte counts are computed from array shapes, not measured;"
                      " no bandwidth claim is made",
    })
    details = {
        "environment": env_info,
        "rounds": out["rounds"],
        "raw_times": out.get("raw_times"),
        "fail_share": failed / attempted,
        "failures": out["failures"][:20],
        "absent": out.get("absent", []),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
