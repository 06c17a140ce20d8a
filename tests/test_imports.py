"""Dead-name checks with ast, since no linter is installed.

No imported name goes unused, and every top-level library name has a caller
outside the tests.  The package's __init__.py is skipped by both: its
imports are the public exports, and an export is not a caller.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/cliquefree", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os", "tau"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# library names whose only caller is a test, each with the reason it stays
TEST_ONLY_NAMES = {
    # the c10 residual acceptance check computes it
    "critical.partite_exponent_residual",
}
LIBRARY = [path for path in SOURCES if path.parent.name == "cliquefree"]
CALLERS = sorted(
    path for folder in ("demos", "perfbench") for path in (ROOT / folder).glob("*.py")
)


def top_level_names(stmt) -> list[str]:
    """Names a top-level def, class or assignment binds, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced(stmt) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def uncalled_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module.name for each top-level name of modules that no statement of
    modules or callers references, outside the statement defining it."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    stmts = [s for tree in trees.values() for s in tree.body]
    stmts += [s for text in callers for s in ast.parse(text).body]
    refs = [(s, referenced(s)) for s in stmts]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in top_level_names(stmt)
        if not any(name in names for s, names in refs if s is not stmt)
    ]


def test_uncalled_checker_flags_a_name_only_its_own_definition_uses():
    modules = {"m": "A = 1\nB = A\ndef f(n):\n    return f(n - 1)\ndef g():\n    return B\n"}
    assert uncalled_names(modules, ["g()\n"]) == ["m.f"]


def test_every_library_name_has_a_caller_outside_the_tests():
    modules = {path.stem: path.read_text() for path in LIBRARY}
    callers = [path.read_text() for path in CALLERS]
    uncalled = sorted(set(uncalled_names(modules, callers)) - TEST_ONLY_NAMES)
    assert not uncalled, f"only the tests call {', '.join(uncalled)}"
