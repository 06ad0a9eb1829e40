"""The repository's tools: the code-line count of a package."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"

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
