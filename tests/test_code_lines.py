"""``tests/code_lines.py``, the code-line counter, on a file whose count is
known line by line.

The script is no module of the package, so it is loaded from its path.
"""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent / "code_lines.py"

# 9 code lines: the import, class and def lines, the 3-line return and the
# 3-line string
SOURCE = '''"""A module docstring,
spread over two lines."""

# a comment line

import math  # a trailing comment: the line counts once


class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring,

        with a blank line in it."""
        return (
            math.pi
        )  # a statement over three lines counts 3


TEXT = """a string that is no docstring
counts each of its
three lines"""
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("gjb_code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert load_code_lines().code_lines(path) == 9


def test_main_prints_each_count_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    load_code_lines().main([str(tmp_path)])
    assert capsys.readouterr().out == (
        f"     9  {tmp_path / 'a.py'}\n     1  {tmp_path / 'b.py'}\n    10  total\n")
