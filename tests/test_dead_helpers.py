"""No package module defines a private helper that nothing in the package
reads: an ast-only check, beside the unused-import check.

A private name has one leading underscore.  The check covers each module's
module-level functions, classes and assigned names, and the methods of its
module-level classes.  A name counts as read when any package module loads
it, reads it as an attribute or imports it from another module.  So a
helper that a deletion leaves behind, or a method nothing calls, shows up
here.
"""

import ast

from test_imports import PACKAGE


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at its top level and as the
    methods of its top-level classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return set(filter(is_private, names))


def read_names(tree: ast.Module) -> set[str]:
    """The names a module loads, reads as attributes or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private definition in ``sources`` (module
    name to source) that no module of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in private_definitions(tree) - read)


def test_dead_helpers_finds_what_it_should():
    sources = {
        "a.py": '''from .b import _shared

_LIMIT, _UNUSED = 3, 4


def _helper(x):
    return x * _LIMIT


class _Box:
    def __init__(self):
        self._size = _helper(1)

    def _used(self):
        return self._size

    def _stale(self):
        return self._used()


def _orphan():
    return _shared
''',
        "b.py": '''_shared = 1


def public():
    return _Box()._used()
''',
    }
    assert dead_helpers(sources) == ["a.py:_UNUSED", "a.py:_orphan",
                                     "a.py:_stale"]


def test_no_dead_private_helper():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []
