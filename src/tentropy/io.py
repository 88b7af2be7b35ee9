"""JSON input and output for systems, potentials, functionals, and reports.

System files hold an object with "measure" and "map" arrays and optional
"atoms" labels.  Potentials are bare arrays.  Functionals are either bare
arrays (essential mode) or objects with "weights" and an optional "mode".

Reports serialize through dump_report, which keeps insertion order and
encodes infinities as the strings "inf" / "-inf" so the output is plain
JSON.  The encoding is canonical: parsing a report and serializing it
again reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .system import (
    ESSENTIAL,
    FULL,
    FiniteSystem,
    Functional,
    functional,
    make_system,
)


class FormatError(ValueError):
    """An input file could not be parsed into the expected shape."""


def _read_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _is_number_array(data) -> bool:
    """True for a JSON array of numbers; strings and booleans do not count."""
    return isinstance(data, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
    )


def _as_float_array(data, n: int, what: str) -> np.ndarray:
    if not _is_number_array(data):
        raise FormatError(f"{what} must be an array of numbers")
    try:
        arr = np.array(data, dtype=float)
    except OverflowError as exc:
        raise FormatError(f"{what} entries must be finite numbers") from exc
    if arr.shape != (n,):
        raise FormatError(f"{what} must have exactly {n} entries")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{what} entries must be finite numbers")
    return arr


def load_system(path) -> FiniteSystem:
    """Load a system from a JSON file.

    Missing "atoms" labels default to stringified indices.  Structural
    problems (bad JSON, wrong field types, out-of-range map entries) raise
    FormatError; whether the system passes the support-closure check is a
    separate question answered by validate().
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise FormatError("system file must hold an object")
    for field in ("measure", "map"):
        if field not in obj:
            raise FormatError(f'system file needs a "{field}" field')
    atoms = obj.get("atoms")
    if atoms is not None and not (
        isinstance(atoms, list) and all(isinstance(a, str) for a in atoms)
    ):
        raise FormatError('"atoms" must be an array of strings')
    raw_map = obj["map"]
    if not isinstance(raw_map, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in raw_map
    ):
        raise FormatError('"map" must be an array of integer atom indices')
    if not _is_number_array(obj["measure"]):
        raise FormatError('"measure" must be an array of numbers')
    try:
        return make_system(obj["measure"], raw_map, atoms=atoms)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad system data: {exc}") from exc


def save_system(path, system: FiniteSystem) -> None:
    obj = {
        "atoms": list(system.atoms),
        "measure": [float(v) for v in system.m],
        "map": [int(v) for v in system.alpha],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def load_potential(path, system: FiniteSystem) -> np.ndarray:
    return _as_float_array(_read_json(path), system.n, "potential")


def save_potential(path, phi) -> None:
    values = [float(v) for v in np.asarray(phi, dtype=float)]
    Path(path).write_text(json.dumps(values, indent=2) + "\n", encoding="utf-8")


def load_functional(path, system: FiniteSystem) -> Functional:
    """Load a functional; a bare array means essential mode."""
    data = _read_json(path)
    mode = ESSENTIAL
    if isinstance(data, dict):
        if "weights" not in data:
            raise FormatError('functional object needs a "weights" field')
        mode = data.get("mode", ESSENTIAL)
        if mode not in (ESSENTIAL, FULL):
            raise FormatError(f'functional mode must be "{ESSENTIAL}" or "{FULL}"')
        data = data["weights"]
    weights = _as_float_array(data, system.n, "functional weights")
    return functional(system, weights, mode=mode)


def save_functional(path, mu: Functional) -> None:
    obj = {"weights": [float(v) for v in mu.weights], "mode": mu.mode}
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value:
            raise ValueError("reports must not contain NaN")
        if value == np.inf:
            return "inf"
        if value == -np.inf:
            return "-inf"
        return value
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def dump_report(report: dict) -> str:
    """Serialize a report to canonical JSON text ending in one newline."""
    return json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"


def save_report(path, report: dict) -> None:
    Path(path).write_text(dump_report(report), encoding="utf-8")


def load_report(path) -> dict:
    report = _read_json(path)
    if not isinstance(report, dict):
        raise FormatError("report file must hold an object")
    return report
