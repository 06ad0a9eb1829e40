"""Count the code lines of a Python package, module by module.

A line counts when a token other than a comment, a line break, an indent or
a dedent lies on it; the lines of module, class and function docstrings do
not count. Standard library only.

    python tools/code_lines.py [PACKAGE_DIR]   # default: src/photonsim
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python `source`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_lines(package: str) -> dict[str, int]:
    """Each module of `package` (a directory) by name, with its code lines."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                counts[name[:-3]] = code_lines(fh.read())
    return counts


def main(argv: list[str]) -> int:
    package = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..", "src", "photonsim")
    counts = package_lines(package)
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
