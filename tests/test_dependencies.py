"""The declared dependencies are exactly the third-party modules the
package imports."""

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
