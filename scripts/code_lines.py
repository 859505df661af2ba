#!/usr/bin/env python3
"""Count the code lines of each ``src/logzeta`` module.

    python3 scripts/code_lines.py [SRC_DIR]

A code line is a physical line that holds part of a statement: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
a class or a function) are left out, and a statement spread over several
lines counts each of them.  One row per module is printed, sorted by name,
then the total, which is the sum of the rows.  ``SRC_DIR`` defaults to this
checkout's ``src/logzeta``, so another checkout's package can be counted the
same way.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "logzeta"

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    docs = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv: list[str]) -> int:
    src = pathlib.Path(argv[0]) if argv else SRC
    rows = [(path.name, code_lines(path.read_text())) for path in sorted(src.glob("*.py"))]
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(count for _, count in rows):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
