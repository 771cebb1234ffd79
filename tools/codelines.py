"""Code lines per module of the package, the size every simplicity change reports.

    python3 tools/codelines.py

Prints ``<module> <n>`` for each ``src/entsched/*.py``, in name order, then
``src <total>``. A line counts when it holds a token other than a comment,
a blank-line NL, an INDENT or a DEDENT, and is not part of a docstring: the
leading string statement of a module, a class or a function. A token that
spans lines (a multi-line string or bracket) counts each line it touches.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entsched"
# the end marker sits on the line after the last, so it holds no line
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    held: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem} {n}")
    print(f"src {total}")


if __name__ == "__main__":
    main()
