"""Pinned outputs, stored as text under ``tests/pins/``.

A pin is the JSON text of an output that must keep its bits: the checks of
the standard-panel certify and ``tau`` reports, and the solutions of the
inner solver's mixed batch.  Python writes every float as its ``repr``,
which reads back to the same double, so equal text means equal bits.  A
test asserts the text byte for byte; on a mismatch its message lists every
verdict change and the largest absolute difference of each numeric field.

Run ``PYTHONPATH=src python tests/pinned.py`` to re-take every pin; it
prints the same table for each pin that moved.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from tentropy import cli
from tentropy.fixtures import twocyc
from tentropy.io import load_system, save_functional, save_system
from tentropy.sampling import perturbed_invariant, random_invariant

PINS = Path(__file__).parent / "pins"

# twocyc and the six systems of ``random-systems 6 --max-atoms 12 --seed 7``
PANEL = ["two.json"] + [f"system-{i:03d}.json" for i in range(6)]


def pin_text(value) -> str:
    return json.dumps(value, indent=1) + "\n"


def _leaves(value, path=()):
    """(path, leaf) of each number, string, bool or null of a JSON value; a
    report record is keyed by its name, another list entry by its index."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            named = isinstance(item, dict) and "name" in item
            yield from _leaves(item, path + (item["name"] if named else i,))
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe(old, new) -> str:
    """Every verdict change from ``old`` to ``new``, the largest absolute
    difference of each numeric field (list indices folded into ``[]``) and
    every other changed leaf."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    verdicts, largest, other = [], {}, []
    for path in list(before) + [p for p in after if p not in before]:
        a, b = before.get(path, "<absent>"), after.get(path, "<absent>")
        if repr(a) == repr(b):
            continue
        name = ".".join(map(str, path))
        if path[-1] == "verdict":
            verdicts.append(f"  {name}: {a} -> {b}")
        elif _is_number(a) and _is_number(b) and np.isfinite(a - b):
            field = ".".join("[]" if isinstance(k, int) else str(k) for k in path)
            largest[field] = max(largest.get(field, 0.0), abs(a - b))
        else:
            other.append(f"  {name}: {a!r} -> {b!r}")
    lines = ["verdict changes:"] + (verdicts or ["  none"])
    lines += ["largest absolute difference per numeric field:"]
    lines += [f"  {field}: {diff!r}" for field, diff in largest.items()] or ["  none"]
    if other:
        lines += ["other changed values:"] + other
    return "\n".join(lines)


def assert_pinned(name: str, value) -> None:
    """``value`` as text equals the stored pin ``name`` byte for byte."""
    want = (PINS / name).read_text()
    got = pin_text(json.loads(json.dumps(value)))
    assert got == want, f"pin {name} moved\n" + describe(json.loads(want), json.loads(got))


def _run(*argv) -> list:
    """The checks of the report of one command, read from its --out file."""
    code = cli.main([*argv, "--out", "report.json"])
    assert code == 0, argv
    return json.loads(Path("report.json").read_text())["checks"]


def write_panel() -> None:
    """The standard-panel system files, in the working directory."""
    save_system("two.json", twocyc())
    _run("random-systems", "6", "--max-atoms", "12", "--seed", "7")


def certify_pins() -> dict:
    """``certify --suite all --profile quick --seed 3`` on each panel file in
    the working directory."""
    return {
        f"certify-{Path(name).stem}.json": _run(
            "certify", name, "--suite", "all", "--profile", "quick", "--seed", "3"
        )
        for name in PANEL
    }


def tau_pins() -> dict:
    """``tau --route dual`` on each panel file in the working directory, for
    the ``random_invariant`` and then the ``perturbed_invariant`` functional
    drawn from ``default_rng(29)`` per system.  Paths are relative, as a
    record's inputs name its files.  The dual record carries the value, the
    divergence ray and ``descent_best``."""
    pins = {}
    for name in PANEL:
        gen = np.random.default_rng(29)
        s = load_system(name)
        for kind, draw in (("invariant", random_invariant), ("perturbed", perturbed_invariant)):
            path = f"{Path(name).stem}-{kind}.json"
            save_functional(path, draw(gen, s))
            pins[f"tau-{path}"] = _run("tau", name, path, "--route", "dual")
    return pins


def solver_pin(solutions) -> list:
    """The value, gap, Newton steps and point of each inner solution."""
    return [
        {
            "value": sol.value,
            "optimality_gap": sol.optimality_gap,
            "iterations": sol.iterations,
            "p_star": None if sol.p_star is None else sol.p_star.tolist(),
        }
        for sol in solutions
    ]


def main(directory: str) -> None:
    """Re-take every pin, taking the panel's files in ``directory``."""
    # imported here: test_entropy imports this module
    from test_entropy import solver_pins

    here = os.getcwd()
    os.chdir(directory)
    try:
        write_panel()
        pins = {**certify_pins(), **tau_pins(), **solver_pins()}
    finally:
        os.chdir(here)
    PINS.mkdir(exist_ok=True)
    for name, value in pins.items():
        text = pin_text(json.loads(json.dumps(value)))
        path = PINS / name
        if path.exists() and path.read_text() != text:
            print(f"{name} moved\n" + describe(json.loads(path.read_text()), json.loads(text)))
        path.write_text(text)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
