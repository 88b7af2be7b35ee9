"""The tolerance table and the failed-claim error: every bound of the
library is a named constant of ``tentropy.claims``, and every failed claim
raises ``CertificateError``.  Also a lint of the package source: no unused
import, no unread private name, and no call that a cheaper route replaces
bit for bit."""

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


def test_no_dirichlet_call_and_no_np_unique():
    """Flat Dirichlet draws go through ``sampling._flat_dirichlet``, which
    keeps numpy's bits at about a third of the cost, and no module calls
    ``np.unique``: it imports ``numpy.ma``, which raises the peak memory of
    every run that reaches it."""
    found = [
        (name, node.lineno, node.attr)
        for name, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr == "dirichlet"
            or node.attr == "unique"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
    ]
    assert found == []


def _annotations(tree):
    """Every annotation of a module: of arguments, returns and fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree) -> set[str]:
    """Every name a module reads: loaded names, attributes and the names
    inside quoted annotations."""
    names = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_no_unused_import_or_private_name():
    """No module of ``src/tentropy`` imports a name it never reads (a line
    marked ``# noqa: F401`` is exempt, and ``__init__`` only re-exports),
    and every private module-level name is read somewhere in the package."""
    unused = []
    private = []
    read_anywhere = set()
    for name, tree in trees():
        lines = (SRC / name).read_text().splitlines()
        read = _loaded_names(tree)
        read_anywhere |= read
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                read_anywhere |= {alias.name for alias in node.names}
                if (
                    name == "__init__.py"
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]
                ):
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append((name, node.lineno, bound))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                private.append((name, node.name))
            elif isinstance(node, ast.Assign):
                private += [(name, t.id) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                private.append((name, node.target.id))
    assert unused == []
    private = [(m, i) for m, i in private if i.startswith("_") and not i.startswith("__")]
    assert [(m, i) for m, i in private if i not in read_anywhere] == []


def test_certify_sizes_every_chunk_by_the_memory_budget():
    """In ``certify``, only ``_Draws.sweep`` calls ``system._chunk_rows``,
    every ``sweep`` call states the entries one draw adds as an expression,
    and the module binds no integer constant that could stand in for it."""
    tree = ast.parse((SRC / "certify.py").read_text())
    helper = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Draws"
    )
    sweep = next(
        node for node in helper.body
        if isinstance(node, ast.FunctionDef) and node.name == "sweep"
    )
    assert [arg.arg for arg in sweep.args.args] == ["self", "rows", "entries"]
    assert sweep.args.defaults == []
    in_sweep = {id(node) for node in ast.walk(sweep)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    sized = [
        node for node in calls
        if isinstance(node.func, ast.Name) and node.func.id == "_chunk_rows"
    ]
    assert sized
    assert [node.lineno for node in sized if id(node) not in in_sweep] == []
    sweeps = [
        node for node in calls
        if isinstance(node.func, ast.Attribute) and node.func.attr == "sweep"
    ]
    assert sweeps
    unsized = [
        node.lineno for node in sweeps
        if len(node.args) < 2
        or node.keywords
        or any(isinstance(arg, (ast.Starred, ast.Constant)) for arg in node.args[:2])
    ]
    assert unsized == []
    constants = [
        node.lineno for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, int)
    ]
    assert constants == []


def _per_iteration(node):
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.While)):
        return node.body + node.orelse + ([node.test] if isinstance(node, ast.While) else [])
    gens = node.generators
    parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    return parts + [cond for gen in gens for cond in gen.ifs] + [gen.iter for gen in gens[1:]]


def test_certify_draws_only_through_the_block_helper():
    """In ``certify``, only the block helper ``_Draws`` references
    ``np.random``, and no loop calls a ``sampling`` function: every draw is
    one stacked sampler call per field and block, made by the helper."""
    tree = ast.parse((SRC / "certify.py").read_text())
    samplers = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "sampling"
        for alias in node.names
    }
    assert samplers
    helper = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Draws"
    )
    in_helper = {id(node) for node in ast.walk(helper)}
    random = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    ]
    assert random
    assert [node.lineno for node in random if id(node) not in in_helper] == []
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    looped = [
        call.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, loops)
        for part in _per_iteration(loop)
        for call in ast.walk(part)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in samplers
    ]
    assert looped == []


def test_the_seed_bound_is_written_once():
    """``2 ** 64``, the bound of every seed, appears once in the package: in
    the seed rule ``system._seed``, which the library and the CLI call."""

    def bounds(tree):
        return [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and [getattr(side, "value", None) for side in (node.left, node.right)] == [2, 64]
        ]

    found = [(name, line) for name, tree in trees() for line in bounds(tree)]
    rule = next(
        node for node in ast.parse((SRC / "system.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_seed"
    )
    assert found == [("system.py", line) for line in bounds(rule)]
    assert len(found) == 1
