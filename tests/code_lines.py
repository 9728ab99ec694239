"""Print each module's total lines and code lines, and their sums.

Code lines are the lines that hold a token of code: docstrings (a string
that is the first statement of a module, class or function), comments
and blank lines do not count. Not a test module: pytest does not collect
it.

Usage: python tests/code_lines.py [PACKAGE_DIR]   (default: src/percolator)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv) -> int:
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "percolator")
    total = code = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines, body = source.count("\n"), code_lines(source)
        total, code = total + lines, code + body
        print(f"{path.name:16} {lines:6} {body:6}")
    print(f"{'total':16} {total:6} {code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
