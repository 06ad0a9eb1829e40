"""List the statements of a Python package that a pytest run never executes.

Runs pytest in this process with a line tracer on every thread
(`sys.settrace`, `threading.settrace`), then prints each statement of the
package's modules that no traced frame reached, as `path:line: source`, and
a count. A compound statement (if, for, try, def, ...) counts as run when a
line of its header ran. Not counted: module,
class and function docstrings, `global` and `nonlocal` declarations, and the
bodies of `if TYPE_CHECKING:` and `if __name__ == "__main__":`, which no
in-process run executes. Lines that run only in processes the tests start or
fork are not seen. A record, not a gate: the exit status is pytest's.
Standard library only, besides the pytest it runs.

    python tools/stmt_coverage.py [PACKAGE_DIR [PYTEST_ARG ...]]
    # default: src/photonsim, and pytest -q -p no:cacheprovider tests
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_NOT_RUN_IN_PROCESS = {"TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'"}


def _blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in `node`, less an if's body that no
    in-process run executes."""
    blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    if isinstance(node, ast.If) and ast.unparse(node.test) in _NOT_RUN_IN_PROCESS:
        blocks[0] = []
    clauses = getattr(node, "handlers", []) + getattr(node, "cases", [])
    return blocks + [clause.body for clause in clauses]


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _unrun(body: list[ast.stmt], ran: set[int], unrun: list[int],
           may_have_docstring: bool) -> int:
    """Append to `unrun` the first lines of the statements in `body`, nested
    ones included, that never ran, given the lines that did; return how many
    statements were counted."""
    counted = 0
    if may_have_docstring and body and _is_docstring(body[0]):
        body = body[1:]
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        counted += 1
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = getattr(node, "body", None)
        end = max(inner[0].lineno, start + 1) if inner else node.end_lineno + 1
        if ran.isdisjoint(range(start, end)):
            unrun.append(node.lineno)
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for block in _blocks(node):
            counted += _unrun(block, ran, unrun, defines and block is inner)
    return counted


def _tracer(ran: dict[str, set[int]]):
    """A trace function that adds each line run in a file of `ran` (by real
    path) to that file's set, and traces no frame of another file."""
    local = {}  # co_filename -> its line tracer, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local:
            lines = ran.get(os.path.realpath(name))
            local[name] = None if lines is None else _line_tracer(lines.add)
        return local[name]
    return trace


def _line_tracer(add):
    def line(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return line
    return line


def main(argv: list[str]) -> int:
    package = os.path.abspath(argv[0] if argv else os.path.join(ROOT, "src", "photonsim"))
    pytest_args = argv[1:] or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    modules = [os.path.realpath(os.path.join(package, name))
               for name in sorted(os.listdir(package)) if name.endswith(".py")]
    ran = {path: set() for path in modules}
    sys.path.insert(0, os.path.dirname(package))
    import pytest

    trace = _tracer(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        unrun = []
        total += _unrun(ast.parse(source).body, ran[path], unrun, True)
        missed += len(unrun)
        name = os.path.join(os.path.basename(package), os.path.basename(path))
        lines = source.splitlines()
        for line in unrun:
            print(f"{name}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
