"""No package module imports a name it never uses: an ast-only check.

A deletion that leaves an import behind shows up here.  ``__init__.py``
imports only to export, ``__future__`` imports enable features, and an
import statement with a ``noqa`` comment on one of its lines is kept on
purpose (the re-exports that perfbench/tracer.py wraps), so all three are
skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "broyden_lab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module's checked import statements bind and no other
    line of it reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update(alias.asname or alias.name.split(".")[0]
                        for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_what_it_should():
    source = '''from __future__ import annotations

import os.path
import numpy as np
from math import pi, tau
from .solver import (  # noqa: F401
    nu,
)


def area(r: "float") -> np.ndarray:
    return os.path.join(str(pi * r))
'''
    assert unused_imports(source) == ["tau"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
