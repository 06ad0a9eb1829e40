"""The repository's tools: the code-line count of a package, and the
statements of a package that a pytest run never executes."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"
STMT_COVERAGE = ROOT / "tools" / "stmt_coverage.py"

SAMPLE = '''"""A module docstring
over two lines."""
import os  # a comment on a code line

# a comment line


class Sample:
    """A class docstring."""

    sizes = [1,
             2,
             3]

    def text(self):
        """A function docstring
        over two lines."""
        text = """not a docstring:
        a string over two lines"""
        return text
'''


def _counts(package) -> dict[str, int]:
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(package)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name: int(count) for name, count in map(str.split, proc.stdout.splitlines())}


def test_code_lines_counts_tokens_but_not_docstrings_comments_or_blanks(tmp_path):
    # import, class, the three lines of sizes, def, the two of text, return
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n# and a comment\n',
                                       encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert _counts(tmp_path) == {"empty": 0, "sample": 9, "total": 9}


def test_code_lines_total_is_the_sum_of_the_modules():
    counts = _counts(ROOT / "src" / "photonsim")
    total = counts.pop("total")
    assert {"__init__", "cli", "optics", "txsim"} <= set(counts)
    assert total == sum(counts.values()) and all(count > 0 for count in counts.values())


TWO_FUNCTIONS = '''"""A package of two functions."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import os


def called(x):
    """Run by the test."""
    if x > 0:
        return x
    return -x


def never_called():
    total = 0
    for i in range(3):
        total += i
    return total


if __name__ == "__main__":
    never_called()
'''


def test_stmt_coverage_lists_the_statements_no_test_runs(tmp_path):
    # counted (12): the import, the two module-level ifs, the two defs and the
    # seven statements in their bodies; not the docstrings, nor the ifs' bodies
    (tmp_path / "twofuncs").mkdir()
    (tmp_path / "twofuncs" / "__init__.py").write_text(TWO_FUNCTIONS, encoding="utf-8")
    (tmp_path / "test_twofuncs.py").write_text(
        "from twofuncs import called\n\n\ndef test_called():\n    assert called(2) == 2\n",
        encoding="utf-8")
    proc = subprocess.run([sys.executable, str(STMT_COVERAGE), str(tmp_path / "twofuncs"),
                           "-q", "-p", "no:cacheprovider", str(tmp_path / "test_twofuncs.py")],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-6:] == [
        "twofuncs/__init__.py:12: return -x",
        "twofuncs/__init__.py:16: total = 0",
        "twofuncs/__init__.py:17: for i in range(3):",
        "twofuncs/__init__.py:18: total += i",
        "twofuncs/__init__.py:19: return total",
        "5 of 12 statements never ran",
    ]
