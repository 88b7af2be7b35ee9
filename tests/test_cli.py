"""Command line behavior: exit codes, report shape, determinism."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tentropy import certify, cli
from tentropy.claims import CertificateError
from tentropy.fixtures import cycle3, null_pair, twocyc
from tentropy.io import save_functional, save_potential, save_system
from tentropy.system import FULL, functional

import pinned


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def assert_claim_contract(report):
    """A record's residual is 0 exactly when it passes."""
    for c in report["checks"]:
        assert (c["residual"] == 0.0) == (c["verdict"] == "pass"), c


@pytest.fixture
def files(tmp_path):
    save_system(tmp_path / "c3.json", cycle3())
    save_system(tmp_path / "null.json", null_pair())
    save_system(tmp_path / "two.json", twocyc())
    save_potential(tmp_path / "phi.json", [math.log(2.0), 0.0, 0.0])
    save_functional(
        tmp_path / "mu.json", functional(cycle3(), np.full(3, 1 / 3))
    )
    save_functional(
        tmp_path / "point.json", functional(cycle3(), np.array([1.0, 0.0, 0.0]))
    )
    save_functional(
        tmp_path / "signed.json",
        functional(cycle3(), np.array([1.5, -0.5, 0.0])),
    )
    (tmp_path / "invalid.json").write_text('{"measure": [1, 0], "map": [1, 1]}')
    (tmp_path / "fixed_null.json").write_text('{"measure": [1.0, 0.0], "map": [0, 1]}')
    (tmp_path / "null_charge.json").write_text(
        '{"weights": [0.25, 0.75], "mode": "full"}'
    )
    (tmp_path / "garbage.json").write_text("{oops")
    return tmp_path


def test_validate_ok(files, capsys):
    code, rep = run_json(capsys, "validate", str(files / "c3.json"))
    assert code == 0
    (check,) = rep["checks"]
    assert check["verdict"] == "pass"
    assert check["values"]["constant"] == pytest.approx(1.0)


def test_validate_invalid_system_exits_2(files, capsys):
    code, rep = run_json(capsys, "validate", str(files / "invalid.json"))
    assert code == 2
    (check,) = rep["checks"]
    assert check["verdict"] == "fail"
    assert check["values"]["violations"] == [["0", "1"]]


def test_validate_garbage_exits_1(files, capsys):
    code = cli.main(["validate", str(files / "garbage.json")])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_validate_missing_file_exits_1(files, capsys):
    code = cli.main(["validate", str(files / "absent.json")])
    assert code == 1


def test_lambda_frozen_value(files, capsys):
    code, rep = run_json(
        capsys, "lambda", str(files / "c3.json"), str(files / "phi.json")
    )
    assert code == 0
    (check,) = rep["checks"]
    assert check["verdict"] == "pass"
    assert check["values"]["lambda"] == pytest.approx(math.log(2.0) / 3)
    assert check["values"]["witness_cycle"] == ["0", "1", "2"]


def test_tau_both_routes_on_invariant(files, capsys):
    code, rep = run_json(
        capsys, "tau", str(files / "c3.json"), str(files / "mu.json")
    )
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["tau.dual"]["values"]["value"] == 0.0
    direct = byname["tau.direct"]
    assert direct["verdict"] == "pass"
    assert direct["residual"] == 0.0


def test_tau_dual_divergent_point_mass(files, capsys):
    code, rep = run_json(
        capsys,
        "tau",
        str(files / "c3.json"),
        str(files / "point.json"),
        "--route",
        "dual",
    )
    assert code == 0
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["tau.dual"]["values"]["value"] == "-inf"
    assert byname["tau.dual"]["values"]["divergence"]["defect"] == "non_invariance"


@pytest.mark.parametrize("route", ["both", "direct"])
def test_tau_null_charging_functional_passes_on_both_routes(files, capsys, route):
    """Both routes give -inf on a functional charging a null atom; -inf
    minus -inf must not turn into a NaN residual."""
    code, rep = run_json(
        capsys,
        "tau",
        str(files / "fixed_null.json"),
        str(files / "null_charge.json"),
        "--route",
        route,
    )
    assert code == 0
    assert rep["checks"]
    for c in rep["checks"]:
        assert c["verdict"] == "pass"
        assert c["residual"] == 0.0
        assert c["values"]["value"] == "-inf"


def test_validate_and_tau_records_keep_the_claim_contract(files, capsys):
    for name in ("c3.json", "null.json", "two.json", "invalid.json"):
        _, rep = run_json(capsys, "validate", str(files / name))
        assert_claim_contract(rep)
    for system, mu in (
        ("c3.json", "mu.json"),
        ("c3.json", "point.json"),
        ("c3.json", "signed.json"),
        ("fixed_null.json", "null_charge.json"),
    ):
        _, rep = run_json(capsys, "tau", str(files / system), str(files / mu))
        assert_claim_contract(rep)


def test_tau_direct_rejects_signed_weights(files, capsys):
    code = cli.main(
        [
            "tau",
            str(files / "c3.json"),
            str(files / "signed.json"),
            "--route",
            "direct",
        ]
    )
    assert code == 1


def test_tau_both_skips_direct_for_signed_weights(files, capsys):
    code, rep = run_json(
        capsys, "tau", str(files / "c3.json"), str(files / "signed.json")
    )
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert "tau.dual" in names and "tau.direct" not in names
    assert any("direct" in note for note in rep.get("notes", []))


def test_certify_all_passes_quick(files, capsys):
    code, rep = run_json(
        capsys, "certify", str(files / "c3.json"), "--suite", "vp", "--seed", "5"
    )
    assert code == 0
    assert rep["summary"]["failed"] == 0
    assert rep["config"]["profile"] == "quick"
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)


def test_certify_full_suite_twocyc(files, capsys):
    code, rep = run_json(
        capsys, "certify", str(files / "two.json"), "--suite", "all"
    )
    assert code == 0
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["total"] == len(rep["checks"])
    assert all(c["verdict"] == "pass" for c in rep["checks"])
    assert_claim_contract(rep)


def test_certify_zero_tolerance_fails_and_exits_3(files, capsys):
    code, rep = run_json(
        capsys,
        "certify",
        str(files / "c3.json"),
        "--suite",
        "vp",
        "--tolerance",
        "0",
    )
    assert code == 3
    assert rep["summary"]["failed"] > 0
    failing = [c for c in rep["checks"] if c["verdict"] == "fail"]
    assert failing
    for c in failing:
        assert "repro" in c, "failing check must carry a repro command"
        assert c["residual"] > 0.0
    for c in rep["checks"]:
        if c["verdict"] == "pass":
            assert c["residual"] == 0.0
            assert "repro" not in c


def test_certify_repro_repeats_the_failing_run(files, capsys):
    """A failing record's repro carries --tolerance, so running it fails
    the same way."""
    c3 = str(files / "c3.json")
    code, rep = run_json(capsys, "certify", c3, "--suite", "vp", "--tolerance", "0")
    assert code == 3
    record = {c["name"]: c for c in rep["checks"]}["vp.gap"]
    assert record["verdict"] == "fail"
    argv = shlex.split(record["repro"])
    assert argv[0] == "tentropy" and argv[-2:] == ["--tolerance", "0.0"]
    code, again = run_json(capsys, *argv[1:])
    assert code == 3
    assert {c["name"]: c for c in again["checks"]}["vp.gap"] == record


def test_certify_check_that_raises_becomes_a_failed_record(files, capsys, monkeypatch):
    def broken(system, cfg, rng):
        raise CertificateError("internal assertion failed")

    monkeypatch.setitem(certify.CHECKS, "vp.gap", broken)
    code, out = run(
        capsys, "certify", str(files / "c3.json"), "--suite", "vp", "--seed", "5"
    )
    assert code == 3
    rep = json.loads(out)
    byname = {c["name"]: c for c in rep["checks"]}
    record = byname["vp.gap"]
    assert record["verdict"] == "fail"
    assert record["residual"] == "inf"
    assert record["values"] == {}
    assert record["witness"] == {"error": "internal assertion failed"}
    assert record["repro"].startswith("tentropy certify ")
    assert "--tolerance" not in record["repro"]
    assert rep["summary"] == {"total": 3, "passed": 2, "failed": 1}
    assert_claim_contract(rep)


def test_certify_reports_a_nan_observation_and_exits_3(files, capsys, monkeypatch):
    """A NaN observed in one draw fails its check: certify writes the
    report, with the NaN as the string "nan", and exits 3."""
    real = certify.young_checks

    def nan_slack(system, phis, weights):
        slacks = np.array(real(system, phis, weights))
        slacks[417] = math.nan
        return slacks

    monkeypatch.setattr(certify, "young_checks", nan_slack)
    out = files / "nan.json"
    two = str(files / "two.json")
    code = cli.main(["certify", two, "--suite", "young", "--seed", "2", "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    record = {c["name"]: c for c in rep["checks"]}["young.global"]
    assert (record["verdict"], record["residual"]) == ("fail", "inf")
    assert record["values"]["worst_slack"] == "nan"
    assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1}


@pytest.mark.parametrize(
    "name, command, inputs, options",
    [
        ("tau_dual", "tau", ("c3.json", "mu.json"), ["--route", "dual"]),
        ("spectral_potential", "lambda", ("c3.json", "phi.json"), []),
    ],
)
def test_a_failed_claim_exits_3_in_every_command(
    files, capsys, monkeypatch, name, command, inputs, options
):
    """A ``CertificateError`` that escapes a command is a failed claim: exit 3
    with the message on stderr, not a traceback."""

    def broken(*args, **kwargs):
        raise CertificateError("the law missed its bound")

    monkeypatch.setattr(cli, name, broken)
    code = cli.main([command, *(str(files / f) for f in inputs), *options])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "tentropy: claim failed: the law missed its bound\n"


def test_certify_reports_are_byte_identical(files, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = cli.main(
            [
                "certify",
                str(files / "null.json"),
                "--suite",
                "young",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_reports_match_the_pinned_panel(files, monkeypatch):
    """The checks of the seven standard-panel reports keep their bits:
    ``certify --suite all --profile quick --seed 3`` on twocyc and the six
    files of ``random-systems 6 --max-atoms 12 --seed 7``.  A change that
    must move them re-takes the pins (``tests/pinned.py``) and names the
    fields it moves."""
    monkeypatch.chdir(files)
    pinned.write_panel()
    for name, checks in pinned.certify_pins().items():
        pinned.assert_pinned(name, checks)


def test_tau_reports_match_the_pinned_panel(files, monkeypatch):
    """The dual-route ``tau`` reports of the standard panel keep their bits."""
    monkeypatch.chdir(files)
    pinned.write_panel()
    for name, checks in pinned.tau_pins().items():
        pinned.assert_pinned(name, checks)


def test_certify_does_not_import_numpy_ma(files):
    """A full quick certify run leaves ``numpy.ma`` unimported: importing it
    (``np.unique`` does) raises the peak memory of every certify run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from tentropy import cli\n"
        f"code = cli.main(['certify', {str(files / 'two.json')!r}, '--suite', 'all',"
        " '--profile', 'quick', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script, str(files / "report.json")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_seed_env_fallback_matches_flag(files, tmp_path, capsys, monkeypatch):
    a = tmp_path / "flag.json"
    b = tmp_path / "env.json"
    code = cli.main(
        ["certify", str(files / "c3.json"), "--suite", "young",
         "--seed", "123", "--out", str(a)]
    )
    assert code == 0
    monkeypatch.setenv("TENTROPY_SEED", "123")
    code = cli.main(
        ["certify", str(files / "c3.json"), "--suite", "young", "--out", str(b)]
    )
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_seed_env_exits_1(files, capsys, monkeypatch):
    """Only the commands that take --seed read TENTROPY_SEED."""
    monkeypatch.setenv("TENTROPY_SEED", "not-a-seed")
    c3 = str(files / "c3.json")
    code = cli.main(["certify", c3, "--suite", "young"])
    assert code == 1
    assert "TENTROPY_SEED" in capsys.readouterr().err
    for argv in (
        ["tau", c3, str(files / "mu.json")],
        ["random-systems", "1", "--dir", str(files / "fx")],
    ):
        assert cli.main(argv) == 1, argv
        assert "TENTROPY_SEED" in capsys.readouterr().err
    assert not (files / "fx").exists()
    for argv in (
        ["validate", c3],
        ["lambda", c3, str(files / "phi.json")],
        ["tau", c3, str(files / "mu.json"), "--route", "dual"],
    ):
        assert cli.main(argv) == 0, argv


def test_bad_eps_exits_1(files, capsys):
    code = cli.main(
        ["certify", str(files / "c3.json"), "--eps", "1.0,-0.5"]
    )
    assert code == 1
    two, c3, phi = (str(files / name) for name in ("two.json", "c3.json", "phi.json"))
    # eps must be finite and positive, the tolerance finite and nonnegative:
    # a NaN crashed the report, an infinite eps or tolerance ran to a verdict
    for option, value in (
        ("--eps", "nan"),
        ("--eps", "inf"),
        ("--eps", "1.0,nan"),
        ("--eps", "1e400"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--tolerance", "1e400"),
        ("--tolerance", "-inf"),
        ("--tolerance", "-0.5"),
    ):
        capsys.readouterr()
        argv = ["certify", two, "--suite", "entstat", f"{option}={value}"]
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr()
        assert option in err.err and err.out == "", argv
    # a zero tolerance stays valid: it runs to a verdict instead of exiting 1
    assert cli.main(["certify", c3, "--suite", "vp", "--tolerance", "0"]) == 3
    # --n-max must be a positive integer; argparse rejects it before any work
    for argv in (
        ["certify", two, "--n-max", "0"],
        ["lambda", c3, phi, "--n-max", "-5"],
        ["tau", c3, str(files / "mu.json"), "--n-max", "0"],
        ["certify", two, "--n-max", "1.5"],
        ["certify", two, "--n-max", "x"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        assert "--n-max" in capsys.readouterr().err
    # each command's parser holds the range that command reads: a value
    # outside it is rejected, not clamped, with the allowed range named
    mu = str(files / "mu.json")
    for argv, allowed in (
        (["lambda", c3, phi, "--n-max", "1"], "at least 2"),
        (["tau", c3, mu, "--n-max", "13"], "from 1 to 12"),
        (["tau", c3, mu, "--n-max", "13", "--route", "dual"], "from 1 to 12"),
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr()
        assert "--n-max" in err.err and allowed in err.err
        assert err.out == ""


OPTIONS = {
    "validate": {"--out"},
    "lambda": {"--n-max", "--out"},
    "tau": {"--n-max", "--seed", "--tolerance", "--route", "--out"},
    "certify": {
        "--n-max", "--eps", "--seed", "--tolerance", "--profile", "--suite", "--out",
    },
    "random-systems": {"--seed", "--max-atoms", "--dir", "--out"},
}


def test_each_command_declares_only_the_options_it_reads():
    (commands,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    got = {
        name: {
            opt
            for action in p._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for name, p in commands.choices.items()
    }
    assert got == OPTIONS


def test_reports_echo_only_the_options_that_acted(files, capsys, tmp_path):
    c3 = str(files / "c3.json")
    expect = {
        ("validate", c3): ["command", "system"],
        ("lambda", c3, str(files / "phi.json")): [
            "command", "system", "potential", "n_max",
        ],
        ("tau", c3, str(files / "mu.json")): [
            "command", "system", "functional", "route", "seed", "n_max", "tolerance",
        ],
        ("tau", c3, str(files / "mu.json"), "--route", "direct"): [
            "command", "system", "functional", "route", "seed", "n_max", "tolerance",
        ],
        # only the direct route reads --seed, --n-max and --tolerance
        ("tau", c3, str(files / "mu.json"), "--route", "dual"): [
            "command", "system", "functional", "route",
        ],
        ("certify", c3, "--suite", "vp"): [
            "command", "system", "suite", "draws", "seed", "eps", "n_max",
            "tolerance", "profile",
        ],
        ("random-systems", "1", "--dir", str(tmp_path)): [
            "command", "count", "max_atoms", "dir", "seed",
        ],
    }
    for argv, keys in expect.items():
        code, rep = run_json(capsys, *argv)
        assert code == 0, argv
        assert list(rep["config"]) == keys, argv


def test_tau_direct_gap_bound_follows_tolerance(files, capsys):
    """The tau.direct route-gap bound is --tolerance when given, else 1e-3."""
    c3, mu = str(files / "c3.json"), str(files / "mu.json")
    code, default = run_json(capsys, "tau", c3, mu)
    assert code == 0
    before = {c["name"]: c for c in default["checks"]}
    gap = before["tau.direct"]["values"]["value"]  # the dual value is 0
    assert 0.0 < gap <= 1e-3
    code, rep = run_json(capsys, "tau", c3, mu, "--tolerance", "0")
    assert code == 3
    assert rep["config"]["tolerance"] == 0.0
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["tau.direct"]["verdict"] == "fail"
    assert byname["tau.direct"]["residual"] == gap
    assert byname["tau.direct"]["repro"].endswith(" --tolerance 0.0")
    assert byname["tau.dual"] == before["tau.dual"]
    code, rep = run_json(capsys, "tau", c3, mu, "--tolerance", repr(gap))
    assert code == 0
    assert rep["checks"] == default["checks"]


def test_usage_errors_exit_1(files, capsys, tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["certify"]) == 1
    # an option the command does not read exits 1, and stderr names it
    c3 = str(files / "c3.json")
    for argv, option in (
        (["validate", "x.json", "--route", "dual"], "--route"),
        (["validate", c3, "--tolerance", "0"], "--tolerance"),
        (["lambda", c3, str(files / "phi.json"), "--eps", "0.5"], "--eps"),
        (["tau", c3, str(files / "mu.json"), "--profile", "deep"], "--profile"),
        (["random-systems", "1", "--n-max", "3", "--dir", str(tmp_path)], "--n-max"),
    ):
        capsys.readouterr()
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr()
        assert option in err.err and err.out == "", argv
    assert not list(tmp_path.glob("system-*.json"))


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "tentropy" in capsys.readouterr().out
    assert cli.main(["certify", "--help"]) == 0


def test_random_systems_writes_valid_fixtures(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    out_dir.mkdir()
    code, rep = run_json(
        capsys,
        "random-systems",
        "4",
        "--max-atoms",
        "6",
        "--seed",
        "9",
        "--dir",
        str(out_dir),
    )
    assert code == 0
    made = sorted(p.name for p in out_dir.glob("system-*.json"))
    assert made == [f"system-{i:03d}.json" for i in range(4)]
    assert len(rep["checks"]) == 4
    assert all(c["verdict"] == "pass" for c in rep["checks"])

    from tentropy.io import load_system
    from tentropy.system import validate

    for name in made:
        s = load_system(out_dir / name)
        assert validate(s).valid
        assert s.n <= 6


def test_random_systems_deterministic(tmp_path, capsys):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        code = cli.main(
            ["random-systems", "3", "--seed", "21", "--dir", str(d),
             "--out", str(d / "rep.json")]
        )
        assert code == 0
    for name in ("system-000.json", "system-001.json", "system-002.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_random_systems_rejects_bad_count(capsys, tmp_path):
    assert cli.main(["random-systems", "0", "--dir", str(tmp_path)]) == 1
    assert cli.main(
        ["random-systems", "2", "--max-atoms", "13", "--dir", str(tmp_path)]
    ) == 1


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    from tentropy import __version__

    assert __version__ in capsys.readouterr().out
