"""tools/code_lines.py: the code-line count that tracks the package's size."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,
over two lines."""

import math  # code with a trailing comment

# A comment line.


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, x):
        """Function docstring
        on two lines.
        """
        total = (x
                 + math.pi)
        return total


TEXT = """a string that is
no docstring"""


def listed():
    return [
        1,

        2,
    ]
'''
# The lines of SOURCE that count: every line a non-comment token touches
# (both lines of the multi-line expression and of the assigned string, not
# the blank line inside the list), less the docstrings.
CODE_LINES = (4, 9, 12, 14, 18, 19, 20, 23, 24, 27, 28, 29, 31, 32)
DOCSTRING_LINES = {1, 2, 10, 15, 16, 17}


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines_tool", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    tool = load_tool()
    assert tool.docstring_lines(ast.parse(SOURCE)) == DOCSTRING_LINES
    assert tool.code_lines(SOURCE) == len(CODE_LINES)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(CODE_LINES):6d}  {tmp_path / 'a.py'}",
        f"{1:6d}  {tmp_path / 'b.py'}",
        f"{len(CODE_LINES) + 1:6d}  total"]
