"""Command line driver.

Subcommands: validate, lambda, tau, certify, random-systems.  Every command
emits one JSON report (stdout or --out) whose bytes depend only on the
inputs and the seed.  Exit codes: 0 success, 1 I/O or parse problem,
2 invalid system, 3 failed certification.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import SUITES, CertifyConfig, run_suite
from .entropy import tau_direct, tau_dual
from .io import (
    FormatError,
    dump_report,
    load_functional,
    load_potential,
    load_system,
    save_report,
    save_system,
)
from .sampling import random_system
from .spectral import spectral_potential
from .system import InvalidSystemError, require_valid, validate

_PROFILES = {"quick": 1000, "deep": 10000}

_TAU_NOTE = (
    "t-entropy degenerates on a finite system: 0 on the invariant polytope"
    " and -inf off it, the counterpart of deterministic finite dynamics"
    " having zero Kolmogorov-Sinai entropy; the substance of this report is"
    " the certificates and the agreement of the two routes."
)


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}")
    if not values or any(e <= 0.0 for e in values):
        raise argparse.ArgumentTypeError("eps values must be positive")
    return values


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}")
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _parse_n_max(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"n-max must be a positive integer: {text!r}")
    return int(text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TENTROPY_SEED")
    if env is None:
        return 0
    try:
        return _parse_seed(env)
    except argparse.ArgumentTypeError as exc:
        raise FormatError(f"TENTROPY_SEED: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentropy",
        description="spectral potentials and t-entropy on finite systems",
    )
    parser.add_argument(
        "--version", action="version", version=f"tentropy {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-max", type=_parse_n_max, default=12, dest="n_max")
    common.add_argument(
        "--eps", type=_parse_eps, default=(1.0, 0.5, 0.1), metavar="E1,E2,..."
    )
    common.add_argument("--seed", type=_parse_seed, default=None)
    common.add_argument("--tolerance", type=float, default=None)
    common.add_argument("--profile", choices=("quick", "deep"), default="quick")
    common.add_argument("--out", default=None, help="report path (default stdout)")

    p = sub.add_parser("validate", parents=[common], help="check a system file")
    p.add_argument("system")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lambda", parents=[common], help="spectral potential")
    p.add_argument("system")
    p.add_argument("potential")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("tau", parents=[common], help="t-entropy of a functional")
    p.add_argument("system")
    p.add_argument("functional")
    p.add_argument("--route", choices=("direct", "dual", "both"), default="both")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("certify", parents=[common], help="run a property suite")
    p.add_argument("system")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "random-systems", parents=[common], help="emit random valid fixtures"
    )
    p.add_argument("count", type=int)
    p.add_argument("--max-atoms", type=int, default=8, dest="max_atoms")
    p.add_argument("--dir", default=".", help="directory for the system files")
    p.set_defaults(func=cmd_random_systems)
    return parser


def _config(args, command: str, seed: int, inputs: dict) -> dict:
    cfg = {"command": command}
    cfg.update(inputs)
    cfg.update(
        {
            "seed": seed,
            "eps": [float(e) for e in args.eps],
            "n_max": args.n_max,
            "tolerance": args.tolerance,
            "profile": args.profile,
        }
    )
    return cfg


def _assemble(config: dict, checks: list, notes: list | None = None) -> dict:
    passed = sum(c["verdict"] == "pass" for c in checks)
    report = {
        "tool": {"name": "tentropy", "version": __version__},
        "config": config,
    }
    if notes:
        report["notes"] = list(notes)
    report["checks"] = checks
    report["summary"] = {
        "total": len(checks),
        "passed": passed,
        "failed": len(checks) - passed,
    }
    return report


def _emit(report: dict, args) -> None:
    if args.out:
        save_report(args.out, report)
    else:
        sys.stdout.write(dump_report(report))


def cmd_validate(args) -> int:
    seed = _resolve_seed(args)
    system = load_system(args.system)
    rep = validate(system)
    record = {
        "name": "validate",
        "inputs": args.system,
        "values": {
            "atoms": system.n,
            "supported": int(system.support.sum()),
            "constant": rep.constant,
            "violations": [
                [system.atoms[int(x)], system.atoms[int(y)]] for x, y in rep.violations
            ],
        },
        "verdict": "pass" if rep.valid else "fail",
        "residual": float(len(rep.violations)),
        "witness": None,
    }
    if not rep.valid:
        record["repro"] = f"tentropy validate {args.system}"
    _emit(_assemble(_config(args, "validate", seed, {"system": args.system}), [record]), args)
    return 0 if rep.valid else 2


def cmd_lambda(args) -> int:
    seed = _resolve_seed(args)
    system = load_system(args.system)
    require_valid(system)
    phi = load_potential(args.potential, system)
    res = spectral_potential(system, phi, n_max=max(2, args.n_max))
    gap = abs(float(res.norm_sequence[-1]) - res.value)
    record = {
        "name": "lambda",
        "inputs": f"{args.system} {args.potential}",
        "values": {
            "lambda": res.value,
            "witness_cycle": [system.atoms[int(i)] for i in res.witness_cycle],
            "convergence_gap": gap,
            "norm_sequence": [float(v) for v in res.norm_sequence],
        },
        "verdict": "fail" if res.flagged else "pass",
        "residual": gap if res.flagged else 0.0,
        "witness": None,
    }
    if res.flagged:
        record["repro"] = (
            f"tentropy lambda {args.system} {args.potential} --n-max {args.n_max}"
        )
    config = _config(
        args, "lambda", seed, {"system": args.system, "potential": args.potential}
    )
    _emit(_assemble(config, [record]), args)
    return 3 if res.flagged else 0


def _divergence_values(res) -> dict:
    if res.divergence is None:
        return {"defect": None}
    return {
        "defect": res.divergence.defect,
        "rate": res.divergence.rate,
        "atom": None if res.divergence.atom is None else int(res.divergence.atom),
        "direction": [float(v) for v in res.divergence.direction],
    }


def cmd_tau(args) -> int:
    seed = _resolve_seed(args)
    system = load_system(args.system)
    require_valid(system)
    mu = load_functional(args.functional, system)
    notes = [_TAU_NOTE]
    repro = (
        f"tentropy tau {args.system} {args.functional}"
        f" --route {args.route} --seed {seed} --n-max {args.n_max}"
    )

    dual = tau_dual(system, mu)
    direct = None
    if args.route in ("direct", "both"):
        try:
            direct = tau_direct(
                system, mu, n_max=min(args.n_max, 12), seed=seed
            )
        except ValueError as exc:
            if args.route == "direct":
                raise FormatError(
                    f"direct route needs a normalized nonnegative functional: {exc}"
                ) from exc
            notes.append(f"direct route skipped: {exc}")

    checks = []
    if direct is not None:
        if dual.value == -np.inf and direct.value > -np.inf:
            residual = np.inf
            verdict = "pass"
            notes.append(
                "routes are consistent: the direct route certifies finite-horizon"
                " upper bounds while the dual route certifies divergence to -inf;"
                " any finite bound dominates -inf."
            )
        else:
            residual = direct.value - dual.value
            verdict = "pass" if 0.0 <= residual <= 1e-3 else "fail"
        record = {
            "name": "tau.direct",
            "inputs": f"{args.system} {args.functional}",
            "values": {
                "value": direct.value,
                "achieving_n": direct.achieving_n,
                "achieving_members": None
                if direct.achieving_partition is None
                else int(direct.achieving_partition.size),
            },
            "verdict": verdict,
            "residual": residual,
            "witness": None,
        }
        if verdict == "fail":
            record["repro"] = repro
        checks.append(record)
    if args.route in ("dual", "both"):
        checks.append(
            {
                "name": "tau.dual",
                "inputs": f"{args.system} {args.functional}",
                "values": {
                    "value": dual.value,
                    "divergence": _divergence_values(dual),
                    "descent_best": dual.descent_best,
                },
                "verdict": "pass",
                "residual": 0.0,
                "witness": None
                if dual.dual_witness is None
                else {"ray": [float(v) for v in dual.dual_witness]},
            }
        )
    checks.sort(key=lambda c: c["name"])
    config = _config(
        args,
        "tau",
        seed,
        {"system": args.system, "functional": args.functional, "route": args.route},
    )
    report = _assemble(config, checks, notes)
    _emit(report, args)
    return 0 if all(c["verdict"] == "pass" for c in checks) else 3


def cmd_certify(args) -> int:
    seed = _resolve_seed(args)
    system = load_system(args.system)
    require_valid(system)
    cfg = CertifyConfig(
        seed=seed,
        draws=_PROFILES[args.profile],
        eps=tuple(args.eps),
        n_max=args.n_max,
        tolerance=args.tolerance,
        profile=args.profile,
        suite=args.suite,
        system_label=args.system,
    )
    config = _config(
        args,
        "certify",
        seed,
        {"system": args.system, "suite": args.suite, "draws": cfg.draws},
    )
    report = _assemble(config, run_suite(system, args.suite, cfg))
    _emit(report, args)
    return 0 if report["summary"]["failed"] == 0 else 3


def cmd_random_systems(args) -> int:
    seed = _resolve_seed(args)
    if args.count < 1:
        raise FormatError("count must be positive")
    if not 1 <= args.max_atoms <= 12:
        raise FormatError("max atoms must lie in 1..12")
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(args.count):
        system = random_system(rng, max_atoms=args.max_atoms)
        path = out_dir / f"system-{i:03d}.json"
        save_system(path, system)
        rep = validate(system)
        checks.append(
            {
                "name": f"system-{i:03d}",
                "inputs": str(path),
                "values": {
                    "atoms": system.n,
                    "supported": int(system.support.sum()),
                    "constant": rep.constant,
                },
                "verdict": "pass" if rep.valid else "fail",
                "residual": float(len(rep.violations)),
                "witness": None,
            }
        )
    config = _config(
        args,
        "random-systems",
        seed,
        {"count": args.count, "max_atoms": args.max_atoms, "dir": str(out_dir)},
    )
    report = _assemble(config, checks)
    _emit(report, args)
    return 0 if all(c["verdict"] == "pass" for c in checks) else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"tentropy: {exc}", file=sys.stderr)
        return 1
    except InvalidSystemError as exc:
        print(f"tentropy: invalid system: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tentropy: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
