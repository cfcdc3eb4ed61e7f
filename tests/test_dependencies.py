"""The package's shape: the declared dependencies are exactly the
third-party modules it imports, and it defines no function it never
names."""

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
