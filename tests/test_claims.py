"""The tolerance table and the failed-claim error: every bound of the
library is a named constant of ``tentropy.claims``, and every failed claim
raises ``CertificateError``."""

import ast
from pathlib import Path

import tentropy
from tentropy import claims

SRC = Path(tentropy.__file__).parent


def trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_small_float_literal_outside_the_table():
    """A tolerance is a name from ``claims``, never a literal of at most 1e-3."""
    found = [
        (name, node.lineno, node.value)
        for name, tree in trees()
        if name != "claims.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-3
    ]
    assert found == []


def test_no_bare_runtime_error_is_raised():
    found = []
    for name, tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.append((name, node.lineno))
    assert found == []


def test_the_table_imports_nothing():
    tree = ast.parse((SRC / "claims.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_certificate_error_is_exported():
    assert tentropy.CertificateError is claims.CertificateError
    assert issubclass(claims.CertificateError, RuntimeError)
    assert not issubclass(claims.CertificateError, ValueError)
