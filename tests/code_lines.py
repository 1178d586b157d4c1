"""Count the code lines of Python files: lines that hold a token of code,
leaving out docstrings, comments and blank lines.

Run as a script (pytest does not collect it), from the repository root:

    python tests/code_lines.py src/gjb

Each argument is a file or a directory, searched for ``*.py`` files. It
prints the count of each file, then their total. A line counts once however
many tokens it holds; a statement or string spread over several lines counts
each of them. A docstring is the string that opens a module, class or
function body, as ``ast.get_docstring`` finds it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that are not code: layout, comments and the file's ends
_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The count of lines of ``path`` that hold code."""
    with path.open("rb") as fh:
        lines = {
            row
            for tok in tokenize.tokenize(fh.readline)
            if tok.type not in _SKIPPED
            for row in range(tok.start[0], tok.end[0] + 1)
        }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(args: list[str]) -> None:
    files = sorted(
        f for arg in map(Path, args) for f in (arg.rglob("*.py") if arg.is_dir() else [arg]))
    counts = [code_lines(f) for f in files]
    for f, count in zip(files, counts):
        print(f"{count:6d}  {f}")
    print(f"{sum(counts):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/gjb"])
