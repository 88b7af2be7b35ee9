"""Command line behavior: exit codes, report shape, determinism."""

import json
import math

import numpy as np
import pytest

from tentropy import cli
from tentropy.fixtures import cycle3, null_pair, twocyc
from tentropy.io import save_functional, save_potential, save_system
from tentropy.system import FULL, functional


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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
    assert 0.0 <= direct["residual"] <= 1e-3


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
    monkeypatch.setenv("TENTROPY_SEED", "not-a-seed")
    code = cli.main(["certify", str(files / "c3.json"), "--suite", "young"])
    assert code == 1


def test_bad_eps_exits_1(files, capsys):
    code = cli.main(
        ["certify", str(files / "c3.json"), "--eps", "1.0,-0.5"]
    )
    assert code == 1
    # --n-max must be a positive integer; argparse rejects it before any work
    two, c3, phi = (str(files / name) for name in ("two.json", "c3.json", "phi.json"))
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


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["certify"]) == 1
    assert cli.main(["validate", "x.json", "--route", "dual"]) == 1


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
