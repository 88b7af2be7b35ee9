"""JSON round-trips for systems, potentials, functionals, and reports."""

import json
import math

import numpy as np
import pytest

from tentropy.fixtures import cycle3, null_pair
from tentropy.io import (
    FormatError,
    dump_report,
    load_functional,
    load_potential,
    load_report,
    load_system,
    save_functional,
    save_potential,
    save_report,
    save_system,
)
from tentropy.sampling import random_system
from tentropy.system import ESSENTIAL, FULL, functional


def test_system_round_trip(tmp_path, system_pool):
    for i, s in enumerate(system_pool):
        p = tmp_path / f"s{i}.json"
        save_system(p, s)
        back = load_system(p)
        assert back.atoms == s.atoms
        assert np.array_equal(back.m, s.m)
        assert np.array_equal(back.alpha, s.alpha)


def test_load_system_accepts_minimal_document(tmp_path):
    p = tmp_path / "min.json"
    p.write_text('{"measure": [1, 1, 1], "map": [1, 2, 0]}')
    s = load_system(p)
    assert s.atoms == ("0", "1", "2")
    assert np.array_equal(s.alpha, [1, 2, 0])


def test_load_system_rejects_malformed(tmp_path):
    cases = [
        "not json at all",
        "[1, 2, 3]",
        '{"measure": [1, 1]}',
        '{"map": [0, 1]}',
        '{"measure": [1, 1], "map": [0]}',
        '{"measure": [1, 1], "map": [0, 2]}',
        '{"measure": [1, 1], "map": [0, 0.5]}',
        '{"measure": [1, 1], "map": [0, true]}',
        '{"measure": [1, "x"], "map": [0, 1]}',
        '{"measure": [-1, 1], "map": [0, 1]}',
        '{"measure": ["1", "2"], "map": [0, 1]}',
        '{"measure": [true, 1], "map": [0, 1]}',
        '{"measure": 2, "map": [0, 1]}',
        '{"measure": [[1], [1]], "map": [0, 1]}',
        '{"measure": [1e308, 1e308], "map": [0, 1]}',
        '{"measure": [1e400, 1], "map": [0, 1]}',
        '{"measure": [1, 1], "map": [0, 100000000000000000000000000000]}',
        '{"measure": [1, 1], "map": [0, 1], "atoms": ["a"]}',
        '{"measure": [1, 1], "map": [0, 1], "atoms": ["a", "a"]}',
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(text)
        with pytest.raises(FormatError):
            load_system(p)


def test_load_system_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_system(tmp_path / "nope.json")


def test_potential_round_trip(tmp_path):
    s = cycle3()
    phi = np.array([0.5, -1.25, math.log(2.0)])
    p = tmp_path / "phi.json"
    save_potential(p, phi)
    assert np.array_equal(load_potential(p, s), phi)
    p.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_potential(p, s)
    for text in ('[1, 2, "Infinity"]', '[1, 2, "3"]', "[1, true, 0]", "[1, 2, 1e400]"):
        p.write_text(text)
        with pytest.raises(FormatError):
            load_potential(p, s)


def test_functional_round_trip_both_modes(tmp_path):
    s = null_pair()
    for mode in (ESSENTIAL, FULL):
        mu = functional(s, np.array([0.25, 0.75]), mode=mode)
        p = tmp_path / f"mu-{mode}.json"
        save_functional(p, mu)
        back = load_functional(p, s)
        assert back.mode == mode
        assert np.array_equal(back.weights, mu.weights)


def test_load_functional_bare_array_defaults_essential(tmp_path):
    s = null_pair()
    p = tmp_path / "bare.json"
    p.write_text("[0.5, 0.5]")
    mu = load_functional(p, s)
    assert mu.mode == ESSENTIAL
    assert mu.weights[1] == 0.0  # essential mode zeroes the null atom


def test_load_functional_rejects_unknown_mode(tmp_path):
    s = cycle3()
    p = tmp_path / "mu.json"
    p.write_text('{"weights": [1, 0, 0], "mode": "partial"}')
    with pytest.raises(FormatError):
        load_functional(p, s)
    p.write_text('{"mode": "full"}')
    with pytest.raises(FormatError):
        load_functional(p, s)
    for text in ('["1", 0, 0]', "[false, 1, 0]", '{"weights": [1, 0, null]}'):
        p.write_text(text)
        with pytest.raises(FormatError):
            load_functional(p, s)


def test_dump_report_canonical_infinities():
    text = dump_report({"a": math.inf, "b": -math.inf, "c": 1.5})
    obj = json.loads(text)
    assert obj == {"a": "inf", "b": "-inf", "c": 1.5}
    assert text.endswith("\n")


def test_dump_report_writes_nan_as_a_string():
    """A NaN is written as the string "nan", like the infinities, and the
    text parses and serializes again to the same bytes."""
    text = dump_report({"x": math.nan, "y": [np.float64("nan"), 1.0]})
    obj = json.loads(text)
    assert obj == {"x": "nan", "y": ["nan", 1.0]}
    assert dump_report(obj) == text


def test_dump_report_handles_numpy_scalars_and_arrays():
    text = dump_report(
        {
            "arr": np.array([1.0, 2.0]),
            "i": np.int64(4),
            "f": np.float64(0.25),
            "flag": np.bool_(True),
            "nested": [{"deep": (1, 2)}],
        }
    )
    obj = json.loads(text)
    assert obj["arr"] == [1.0, 2.0]
    assert obj["i"] == 4
    assert obj["flag"] is True
    assert obj["nested"][0]["deep"] == [1, 2]


def test_dump_report_rejects_unknown_types():
    with pytest.raises(TypeError):
        dump_report({"x": object()})


def test_report_round_trip_is_byte_stable(tmp_path):
    report = {
        "tool": {"name": "tentropy"},
        "values": {"tau": "-inf", "lam": 0.125, "seq": [1.0, 0.5]},
    }
    p = tmp_path / "rep.json"
    save_report(p, report)
    once = p.read_bytes()
    save_report(p, load_report(p))
    assert p.read_bytes() == once
    (tmp_path / "arr.json").write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_report(tmp_path / "arr.json")


def test_save_load_random_systems(tmp_path):
    gen = np.random.default_rng(13)
    for i in range(10):
        s = random_system(gen)
        p = tmp_path / f"r{i}.json"
        save_system(p, s)
        back = load_system(p)
        assert back.atoms == s.atoms
        assert np.array_equal(back.alpha, s.alpha)
        assert np.allclose(back.m, s.m, atol=0)
