"""Dead-name checks with ast, since no linter is installed.

No imported name goes unused, every top-level library name and every
method of a top-level library class has a caller outside the tests, every
parameter with a default is passed by some call outside the tests, and
every top-level name of tests/oracles.py has a caller in another test
file.  The package's __init__.py is skipped by the first three: its
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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def top_level_names(stmt) -> list[str]:
    """Names a top-level def, class or assignment binds, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not is_dunder(n)]


def methods(stmt) -> list:
    """The defs in a top-level class body (static, class and instance
    methods and properties), dunders left out."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        s for s in stmt.body
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(s.name)
    ]


def referenced(*nodes) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def parts(stmt) -> list[tuple]:
    """(part, names it references) for each method of a top-level class and
    for the rest of the statement."""
    own = methods(stmt)
    rest = [node for node in ast.iter_child_nodes(stmt) if node not in own]
    return [(m, referenced(m)) for m in own] + [(stmt, referenced(*rest))]


def uncalled_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module.name for each top-level name, and module.Class.method for each
    method, of modules that no statement of modules or callers references.
    A name's own statement does not count, a method's own body does not
    count, and a class's methods do not count for the class; a method
    another method of its class calls has a caller."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    stmts = [s for tree in trees.values() for s in tree.body]
    stmts += [s for text in callers for s in ast.parse(text).body]
    refs = [(s, part, names) for s in stmts for part, names in parts(s)]
    out = []
    for module, tree in trees.items():
        for stmt in tree.body:
            out += [
                f"{module}.{name}"
                for name in top_level_names(stmt)
                if not any(name in names for s, _, names in refs if s is not stmt)
            ]
            out += [
                f"{module}.{stmt.name}.{m.name}"
                for m in methods(stmt)
                if not any(m.name in names for _, part, names in refs if part is not m)
            ]
    return out


def test_uncalled_checker_flags_a_name_only_its_own_definition_uses():
    modules = {"m": "A = 1\nB = A\ndef f(n):\n    return f(n - 1)\ndef g():\n    return B\n"}
    assert uncalled_names(modules, ["g()\n"]) == ["m.f"]


def test_uncalled_checker_flags_methods_only_tests_call():
    module = """
class C:
    def __init__(self):
        self.x = C.made()

    @staticmethod
    def made():
        return 1

    @staticmethod
    def only_tests():
        return C()

    @classmethod
    def also_only_tests(cls):
        return cls.only_tests()

    def helper(self):
        return self.x

    def used(self):
        return self.helper()

    def recursive(self, n):
        return self.recursive(n - 1)

    @property
    def shown(self):
        return self.x


class D:
    @staticmethod
    def make():
        return D()
"""
    caller = "C().used()\nprint(C().shown)\n"
    # only_tests is called by also_only_tests, which nothing calls; D is
    # made only by its own method
    assert uncalled_names({"m": module}, [caller]) == [
        "m.C.also_only_tests", "m.C.recursive", "m.D", "m.D.make"
    ]


def test_every_library_name_has_a_caller_outside_the_tests():
    modules = {path.stem: path.read_text() for path in LIBRARY}
    callers = [path.read_text() for path in CALLERS]
    uncalled = sorted(set(uncalled_names(modules, callers)) - TEST_ONLY_NAMES)
    assert not uncalled, f"only the tests call {', '.join(uncalled)}"


def test_every_oracle_has_a_caller_in_another_test_file():
    oracles = ROOT / "tests" / "oracles.py"
    callers = [path.read_text() for path in SOURCES
               if path.parent.name == "tests" and path != oracles]
    uncalled = uncalled_names({"oracles": oracles.read_text()}, callers)
    assert not uncalled, f"no test calls {', '.join(uncalled)}"


def defaulted_params(stmt) -> list[tuple]:
    """(qualified name, callee name, def, parameter, position) for each
    parameter with a default of a top-level def or of a method of a
    top-level class.  A class's __init__ is called by the class's name.
    position is the index among a call's positional arguments, None for a
    keyword-only parameter; a method's self or cls takes none."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defs = [(stmt.name, stmt.name, stmt, 0)]
    elif isinstance(stmt, ast.ClassDef):
        defs = [
            (f"{stmt.name}.{s.name}", stmt.name if s.name == "__init__" else s.name, s,
             0 if "staticmethod" in referenced(*s.decorator_list) else 1)
            for s in stmt.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (s.name == "__init__" or not is_dunder(s.name))
        ]
    else:
        defs = []
    out = []
    for qualified, callee, fn, shift in defs:
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(qualified, callee, fn, p.arg, i - shift)
                for i, p in enumerate(positional) if i >= first]
        out += [(qualified, callee, fn, p.arg, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def passes(call: ast.Call, callee: str, param: str, position, known: set) -> bool:
    """True if call may pass param to the def called callee.  A call
    through a variable (a callee name no library def or class has) counts
    for every def it names a keyword of; a call by name counts when it
    passes param by keyword, by position, or through * or ** unpacking."""
    name = callee_name(call)
    if any(k.arg == param for k in call.keywords):
        return name == callee or name not in known
    if name != callee:
        return False
    if any(k.arg is None for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def unpassed_params(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module.def.parameter for each parameter with a default of modules
    that no call in modules or callers passes.  A def's own body does not
    count, so a recursive call that forwards the parameter is no caller."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    calls = [
        node
        for tree in list(trees.values()) + [ast.parse(text) for text in callers]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    params = [(module, *p) for module, tree in trees.items()
              for stmt in tree.body for p in defaulted_params(stmt)]
    known = {callee for _, _, callee, *_ in params} | {
        name for tree in trees.values() for stmt in tree.body
        for name in top_level_names(stmt)
    }
    out = []
    for module, qualified, callee, fn, param, position in params:
        own = {id(node) for node in ast.walk(fn)}
        if not any(passes(call, callee, param, position, known)
                   for call in calls if id(call) not in own):
            out.append(f"{module}.{qualified}.{param}")
    return out


def test_unpassed_checker_flags_a_default_no_call_passes():
    module = """
def f(a, b=1, c=2, *, d=3, e=4, g=5):
    return f(a, d=d)


def h(x, y=0):
    return x


def unpacked(p=0, *, q=0):
    return p


class C:
    def __init__(self, size=0, fill=None):
        self.size = size

    def grow(self, by=1, *, twice=False):
        return self.size + by

    @staticmethod
    def made(n, spare=0):
        return C(n)
"""
    caller = """
f(0, 1, e=2)
run = h
run(1, g=2)
args = (1,)
unpacked(*args, **{"q": 1})
C(3).grow(2)
C.made(1)
"""
    # b by position, e by keyword, g through a variable; d only by the
    # recursive call in f; h's y has no call at all; grow's self takes no
    # position, made has no self
    assert unpassed_params({"m": module}, [caller]) == [
        "m.f.c", "m.f.d", "m.h.y", "m.C.__init__.fill", "m.C.grow.twice", "m.C.made.spare"
    ]


def test_every_library_default_is_passed_outside_the_tests():
    modules = {path.stem: path.read_text() for path in LIBRARY}
    callers = [path.read_text() for path in CALLERS]
    unpassed = unpassed_params(modules, callers)
    assert not unpassed, f"no call outside the tests passes {', '.join(unpassed)}"
