"""List the library statements that no test runs.

Run as a script (pytest does not collect it), from the repository root:

    python tests/statement_coverage.py [pytest arguments]

It runs pytest in this process (by default the whole suite, ``-q``) with a
line tracer on every thread (``sys.settrace`` and ``threading.settrace``)
that records the lines run in ``src/gjb``, then prints each statement of
``src/gjb`` that never ran, as ``path:line: source``, and their count. It
needs nothing beyond the ``test`` extra.

A statement is an ``ast.stmt`` other than a ``def``, a ``class``, an import
or a docstring, that compiles to code. It ran when any of its own lines ran:
the lines of its nested statements belong to them. Tests that start a
subprocess are not followed into it.

On the full suite it lists two statements: the body of
``legacy_influence_polynomials`` in ``asymptotics.py``, which only the
benchmark's tracer calls, and ``sys.exit(main())`` at the end of
``cli.py``, which only a subprocess test runs. The run takes about two
minutes on two cores.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gjb"
# statements that are declarations, not code a test can miss
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement of ``path``, by its first line, with the lines of
    code it owns."""
    source = path.read_text()
    tree = ast.parse(source)
    runnable = _code_lines(compile(source, str(path), "exec"))
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                or id(node) in docstrings:
            continue
        lines = set(range(node.lineno, node.end_lineno + 1)) & runnable
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        if lines:
            owned[node.lineno] = lines
    return owned


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        exit_code = pytest.main(args or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for first, owned in sorted(statements(path).items()):
            if not owned & lines:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements not run (pytest exit code {exit_code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
