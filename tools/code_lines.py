"""Line counts of src/erconsensus: lines by `wc -l` beside code lines.

Usage: python3 tools/code_lines.py

A code line is a non-blank line that holds a token other than a comment,
outside string-expression statements (docstrings). Tokens come from
tokenize, string-expression statements from ast, so a docstring cut and
a code cut can be told apart. Prints one row per file and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "erconsensus"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - strings)


def main() -> int:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'file':<16}{'wc -l':>8}{'code':>8}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
