"""The repository's tools: the code-line count of a package, the statements
of a package that a pytest run never executes, and the benchmark's
alternating pairs."""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_LINES = ROOT / "tools" / "code_lines.py"
STMT_COVERAGE = ROOT / "tools" / "stmt_coverage.py"
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"

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


FAKE_RUN = '''import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = os.path.basename(os.getcwd())
with open(os.path.join(os.path.dirname(os.getcwd()), "log"), "a") as fh:
    fh.write(f"{side} {args['--workload']} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
seed = int(args["--seed"])
if side == "change" and seed == int(os.environ.get("FAIL_SEED", -1)):
    sys.exit("perfbench: failed")
print("setup_in_process_s: 0.1 s")
print("machine: " + json.dumps({"cpu_count": 2, "python": "3"}))
# the change reads lower in every pair but the first
rss = seed % 100 + (0.5 if side == "parent" or seed % 100 == 0 else 0.0)
# setup_s: the change doubles it, beyond its bound
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": 0.25, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
    "setup_s": {"value": 0.5 if side == "change" else 0.25, "unit": "s"}}}))
'''


def _fake_checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "alpha"}, {"name": "beta"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                       {"name": "setup_s", "better": "lower", "bound": 0.25}]}),
        encoding="utf-8")


def _bench_pairs(tmp_path, env=None):
    return subprocess.run([sys.executable, str(BENCH_PAIRS), "--parent", str(tmp_path / "parent"),
                           "--change", str(tmp_path / "change"), "--out", str(tmp_path / "out.json"),
                           "--seed", "500"],
                          capture_output=True, text=True, env=dict(os.environ, **(env or {})))


def test_bench_pairs_alternates_the_checkouts_and_summarizes_the_pairs(tmp_path):
    _fake_checkouts(tmp_path)
    proc = _bench_pairs(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "log").read_text().splitlines() == [
        f"{side} {workload} {seed} 30 0"
        for workload, base in (("alpha", 500), ("beta", 600)) for j in range(10)
        for seed in [base + j]
        for side in (("parent", "change") if j % 2 == 0 else ("change", "parent"))]
    result = json.loads((tmp_path / "out.json").read_text())
    assert result["machine"] == {"cpu_count": 2, "python": "3"}
    alpha = result["workloads"]["alpha"]
    assert [(p["seed"], p["first"]) for p in alpha["pairs"]] == [
        (500 + j, "parent" if j % 2 == 0 else "change") for j in range(10)]
    assert alpha["pairs"][1]["parent"]["metrics"]["peak_rss_mb"]["value"] == 1.5
    # parent 0.5, 1.5, ..., 9.5; change 0.5, 1, 2, ..., 9
    assert alpha["summary"]["peak_rss_mb"] == {
        "parent": {"q1": 2.75, "median": 5.0, "q3": 7.25},
        "change": {"q1": 2.25, "median": 4.5, "q3": 6.75},
        "change_lower_in": "9/10", "median_gap": 0.5, "parent_iqr": 4.5,
        "beyond_bound": False, "unresolved": True}
    # equal on both sides: inside its bound
    assert alpha["summary"]["wall_s"] == {
        "parent": {"q1": 0.25, "median": 0.25, "q3": 0.25},
        "change": {"q1": 0.25, "median": 0.25, "q3": 0.25},
        "change_lower_in": "0/10", "median_gap": 0.0, "parent_iqr": 0.0,
        "beyond_bound": False, "unresolved": False}
    # 0.25 s worse against a margin of 0.25 x 0.25 s
    assert alpha["summary"]["setup_s"] == {
        "parent": {"q1": 0.25, "median": 0.25, "q3": 0.25},
        "change": {"q1": 0.5, "median": 0.5, "q3": 0.5},
        "change_lower_in": "0/10", "median_gap": -0.25, "parent_iqr": 0.0,
        "beyond_bound": True, "unresolved": False}
    assert list(result["workloads"]) == ["alpha", "beta"]


def test_bench_pairs_stops_on_a_failed_run_and_writes_nothing(tmp_path):
    _fake_checkouts(tmp_path)
    proc = _bench_pairs(tmp_path, env={"FAIL_SEED": "501"})
    assert proc.returncode == 1
    assert "exited 1" in proc.stderr and "perfbench: failed" in proc.stderr
    assert not (tmp_path / "out.json").exists()
    assert (tmp_path / "log").read_text().splitlines() == [
        "parent alpha 500 30 0", "change alpha 500 30 0", "change alpha 501 30 0"]
