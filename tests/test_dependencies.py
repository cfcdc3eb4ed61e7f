"""The package's shape: the declared dependencies are exactly the
third-party modules it imports, it imports only at module top level, and
it defines no function it never names."""

import ast
import re
import sys
from pathlib import Path

import pytest

import streamcolor

PACKAGE = Path(streamcolor.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    imported = set().union(*map(_imported_top_levels, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"streamcolor"}
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with PYPROJECT.open("rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.\-]+", req).group().lower() for req in declared}
    assert third_party == names


def _functions_and_references(path: Path):
    """The module's functions and its top-level classes' methods, dunders
    left out, as (name, is a method); the attributes it reads; and the
    bare names it reads or imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [(False, tree.body)]
    bodies += [(True, node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    defined = {(node.name, method) for method, body in bodies for node in body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    attrs, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return defined, attrs, names


def test_every_function_is_referenced_in_the_package():
    """A method counts as referenced when some module reads it as an
    attribute, a function also when one reads or imports its bare name."""
    defined, attrs, names = set(), set(), set()
    for path in PACKAGE.glob("*.py"):
        d, a, r = _functions_and_references(path)
        defined |= {(path.stem, *f) for f in d}
        attrs |= a
        names |= r
    unused = [f"{module}.{name}" for module, name, method in sorted(defined)
              if name not in attrs and (method or name not in names)]
    assert unused == []


def test_no_import_inside_a_function():
    """Every import of the package sits at a module's top level, so an
    import cycle between two modules cannot hide in a function body."""
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{path.stem}.{fn.name}:{node.lineno}"
                           for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


# The draws allowed to compare a `.random(` uniform with a rate: the one
# Bernoulli sampler's tie-break, the one-shot activation (n uniforms, kept
# so the activation stream stays as it is), and the G(n, p) generator,
# whose Python `random.Random` coins reproduce NetworkX's stream.
_UNIFORM_COINS = {"params.bernoulli", "coloring.one_shot", "generators._erdos_renyi"}
_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_ORDERING_UFUNCS = {"less", "less_equal", "greater", "greater_equal"}



def _calls_random(node) -> bool:
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
               and sub.func.attr == "random" for sub in ast.walk(node))


def _uniform_coins(node, scope: str):
    """(scope, line) of each ordering of a `.random(` call under the node,
    by operator or by numpy ufunc; the scope is the dotted name of the
    innermost enclosing function or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    elif isinstance(node, ast.Compare):
        if any(isinstance(op, _ORDERINGS) for op in node.ops) and _calls_random(node):
            yield scope, node.lineno
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _ORDERING_UFUNCS:
        if any(_calls_random(arg) for arg in node.args):
            yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _uniform_coins(child, scope)


def test_one_bernoulli_sampler():
    """Independent coins are drawn by `params.bernoulli`: outside the
    functions named above, no code compares a `.random(` uniform with a
    rate, so a second Bernoulli path cannot creep back."""
    coins = [(scope, f"{path.name}:{line}") for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in _uniform_coins(ast.parse(path.read_text()), path.stem)]
    assert [where for scope, where in coins if scope not in _UNIFORM_COINS] == []
    assert {scope for scope, _ in coins} == _UNIFORM_COINS
