"""Command line driver.

Subcommands: validate, lambda, tau, certify, random-systems.  Every command
emits one JSON report (stdout or --out) whose bytes depend only on the
inputs and the seed.  Exit codes: 0 success, 1 I/O or parse problem,
2 invalid system, 3 failed certification, also when a claim fails with
``CertificateError`` before a report is written.

Each subcommand declares only the options it reads and echoes them into the
report's ``config``, so an option another command reads is a usage error.
``tau --route dual`` reads and echoes none of ``--seed``, ``--n-max`` and
``--tolerance``, which only the direct route reads.  ``TENTROPY_SEED``
stands in for a missing ``--seed`` and is read only where a seed is used:
by certify, random-systems and tau's direct route.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import PROFILES, SUITES, CertifyConfig, make_record, run_suite
from .claims import ROUTE_GAP_TOL, CertificateError
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
from .system import InvalidSystemError, _seed, require_valid, validate

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
    if not values or not all(math.isfinite(e) and e > 0.0 for e in values):
        raise argparse.ArgumentTypeError(
            f"eps values must be finite and positive: {text!r}"
        )
    return values


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and nonnegative: {text!r}"
        )
    return value


def _parse_seed(text: str) -> int:
    try:
        return _seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}: {exc}") from exc


def _n_max(low: int, high: int | None = None):
    """argparse type for one command's --n-max: an integer in its range."""
    allowed = f"at least {low}" if high is None else f"from {low} to {high}"

    def parse(text: str) -> int:
        value = int(text) if text.isdecimal() else None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                f"must be an integer {allowed}, got {text!r}"
            )
        return value

    return parse


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

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="report path (default stdout)")
        p.set_defaults(func=func)
        return p

    p = command("validate", cmd_validate, "check a system file")
    p.add_argument("system")

    p = command("lambda", cmd_lambda, "spectral potential")
    p.add_argument("system")
    p.add_argument("potential")
    p.add_argument("--n-max", type=_n_max(2), default=12)

    p = command("tau", cmd_tau, "t-entropy of a functional")
    p.add_argument("system")
    p.add_argument("functional")
    p.add_argument("--n-max", type=_n_max(1, 12), default=12)
    p.add_argument("--seed", type=_parse_seed, help="default: TENTROPY_SEED, then 0")
    p.add_argument("--tolerance", type=_parse_tolerance)
    p.add_argument("--route", choices=("direct", "dual", "both"), default="both")

    p = command("certify", cmd_certify, "run a property suite")
    p.add_argument("system")
    p.add_argument("--n-max", type=_n_max(1), default=12)
    p.add_argument(
        "--eps", type=_parse_eps, default=(1.0, 0.5, 0.1), metavar="E1,E2,..."
    )
    p.add_argument("--seed", type=_parse_seed, help="default: TENTROPY_SEED, then 0")
    p.add_argument("--tolerance", type=_parse_tolerance)
    p.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")

    p = command("random-systems", cmd_random_systems, "emit random valid fixtures")
    p.add_argument("count", type=int)
    p.add_argument("--seed", type=_parse_seed, help="default: TENTROPY_SEED, then 0")
    p.add_argument("--max-atoms", type=int, default=8)
    p.add_argument("--dir", default=".", help="directory for the system files")
    return parser


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
    system = load_system(args.system)
    rep = validate(system)
    record = make_record(
        "validate",
        args.system,
        {
            "atoms": system.n,
            "supported": int(system.support.sum()),
            "constant": rep.constant,
            "violations": [
                [system.atoms[int(x)], system.atoms[int(y)]] for x, y in rep.violations
            ],
        },
        [(len(rep.violations), 0)],
        repro=f"tentropy validate {args.system}",
    )
    _emit(_assemble({"command": "validate", "system": args.system}, [record]), args)
    return 0 if record["verdict"] == "pass" else 2


def cmd_lambda(args) -> int:
    system = load_system(args.system)
    require_valid(system)
    phi = load_potential(args.potential, system)
    res = spectral_potential(system, phi, n_max=args.n_max)
    record = make_record(
        "lambda",
        f"{args.system} {args.potential}",
        {
            "lambda": res.value,
            "witness_cycle": [system.atoms[int(i)] for i in res.witness_cycle],
            "convergence_gap": abs(float(res.norm_sequence[-1]) - res.value),
            "norm_sequence": [float(v) for v in res.norm_sequence],
        },
        [(int(res.flagged), 0)],
        repro=f"tentropy lambda {args.system} {args.potential} --n-max {args.n_max}",
    )
    config = {
        "command": "lambda",
        "system": args.system,
        "potential": args.potential,
        "n_max": args.n_max,
    }
    _emit(_assemble(config, [record]), args)
    return 0 if record["verdict"] == "pass" else 3


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
    # only the direct route reads --seed, --n-max and --tolerance
    with_direct = args.route in ("direct", "both")
    seed = _resolve_seed(args) if with_direct else None
    system = load_system(args.system)
    require_valid(system)
    mu = load_functional(args.functional, system)
    notes = [_TAU_NOTE]

    dual = tau_dual(system, mu)
    direct = None
    if with_direct:
        try:
            direct = tau_direct(system, mu, n_max=args.n_max, seed=seed)
        except ValueError as exc:
            if args.route == "direct":
                raise FormatError(
                    f"direct route needs a normalized nonnegative functional: {exc}"
                ) from exc
            notes.append(f"direct route skipped: {exc}")

    inputs = f"{args.system} {args.functional}"
    checks = []
    if direct is not None:
        # the direct route bounds the dual value from above, within
        # --tolerance (default ROUTE_GAP_TOL); any bound dominates a dual
        # value of -inf
        claims = []
        if dual.value > -np.inf:
            gap = direct.value - dual.value
            bound = ROUTE_GAP_TOL if args.tolerance is None else args.tolerance
            claims = [(-gap, 0.0), (gap, bound)]
        elif direct.value > -np.inf:
            notes.append(
                "routes are consistent: the direct route certifies finite-horizon"
                " upper bounds while the dual route certifies divergence to -inf;"
                " any finite bound dominates -inf."
            )
        values = {
            "value": direct.value,
            "achieving_n": direct.achieving_n,
            "achieving_members": int(direct.achieving_partition.size),
        }
        repro = (
            f"tentropy tau {args.system} {args.functional}"
            f" --route {args.route} --seed {seed} --n-max {args.n_max}"
        )
        if args.tolerance is not None:
            repro += f" --tolerance {args.tolerance!r}"
        checks.append(make_record("tau.direct", inputs, values, claims, repro=repro))
    if args.route in ("dual", "both"):
        values = {
            "value": dual.value,
            "divergence": _divergence_values(dual),
            "descent_best": dual.descent_best,
        }
        witness = None
        if dual.dual_witness is not None:
            witness = {"ray": [float(v) for v in dual.dual_witness]}
        checks.append(make_record("tau.dual", inputs, values, [], witness))
    checks.sort(key=lambda c: c["name"])
    config = {
        "command": "tau",
        "system": args.system,
        "functional": args.functional,
        "route": args.route,
    }
    if with_direct:
        config.update(seed=seed, n_max=args.n_max, tolerance=args.tolerance)
    report = _assemble(config, checks, notes)
    _emit(report, args)
    return 0 if all(c["verdict"] == "pass" for c in checks) else 3


def cmd_certify(args) -> int:
    seed = _resolve_seed(args)
    system = load_system(args.system)
    require_valid(system)
    cfg = CertifyConfig(
        seed=seed,
        draws=PROFILES[args.profile],
        eps=tuple(args.eps),
        n_max=args.n_max,
        tolerance=args.tolerance,
        suite=args.suite,
        system_label=args.system,
    )
    config = {
        "command": "certify",
        "system": args.system,
        "suite": args.suite,
        "draws": cfg.draws,
        "seed": seed,
        "eps": [float(e) for e in cfg.eps],
        "n_max": cfg.n_max,
        "tolerance": cfg.tolerance,
        "profile": args.profile,
    }
    report = _assemble(config, run_suite(system, cfg))
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
        values = {
            "atoms": system.n,
            "supported": int(system.support.sum()),
            "constant": rep.constant,
        }
        checks.append(
            make_record(
                f"system-{i:03d}", str(path), values, [(len(rep.violations), 0)]
            )
        )
    config = {
        "command": "random-systems",
        "count": args.count,
        "max_atoms": args.max_atoms,
        "dir": str(out_dir),
        "seed": seed,
    }
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
    except CertificateError as exc:
        print(f"tentropy: claim failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"tentropy: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
