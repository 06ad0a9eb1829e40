"""Run the benchmark in alternating pairs: a parent checkout against a change.

For each workload and each pair, runs `perfbench/run.py --workload W --seed S
--seconds SECONDS --trace 0` once in each checkout, one process at a time, the
parent first on even pair indices and the change first on odd ones. Pair j
of the i-th workload runs at seed SEED + 100 i + j on both sides. Each run's
last line of standard output (its JSON result) is kept as it is.

The result, written to OUT as indent-2 JSON, has the layout of the repo's
BENCH files: a description, the machine line the first run printed, and
per workload the pairs and a summary of each end-to-end metric: the
quartiles of both sides (inclusive method), the number of pairs in which
the change reads lower, the median gap (the parent's median minus the
change's, positive where the change reads lower) and the parent's IQR
(q3 - q1). A claimed gain needs a gap wider than that IQR. With the
metric's `bound` and `better` from the same BENCHMARK.json entry, each
summary also says whether the change's median is worse than the parent's
by more than bound x the parent's median (`beyond_bound`: a regression),
and whether the parent's IQR is wider than that margin (`unresolved`: the
runs spread too widely to tell). A run that exits non-zero, or prints no
JSON result or another machine, stops the tool with exit status 1 before
OUT is written.
Standard library only.

    python tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        --seed 23001

Every BENCH file follows one protocol: PAIRS pairs of SECONDS-second runs
of every workload and end-to-end metric the change's BENCHMARK.json
declares. The parent checkout can be a `git worktree` or a `git archive`
of the parent commit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 30


def _run(checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    """The JSON result and the machine line of one benchmark run in `checkout`."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    machines = [line for line in lines if line.startswith("machine: ")]
    try:
        return json.loads(lines[-1]), json.loads(machines[0][len("machine: "):])
    except (ValueError, IndexError):
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} printed no result and machine")


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, a BENCHMARK.json `end_to_end` entry: the quartiles of each
    side, how often the change reads lower, the median gap, the parent's IQR,
    and whether the change is worse beyond the metric's bound or the parent
    spreads wider than it."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry["change_lower_in"] = f"{lower}/{len(pairs)}"
        entry["median_gap"] = entry["parent"]["median"] - entry["change"]["median"]
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        margin = metric["bound"] * entry["parent"]["median"]
        worse = -entry["median_gap"] if metric["better"] == "lower" else entry["median_gap"]
        entry["beyond_bound"] = worse > margin
        entry["unresolved"] = entry["parent_iqr"] > margin
        out[name] = entry
    return out


def bench_pairs(parent: str, change: str, workloads: list[str], metrics: list[dict],
                seed: int) -> dict:
    checkouts = {"parent": parent, "change": change}
    seen_machine = None
    result = {}
    for i, workload in enumerate(workloads):
        runs = []
        for j in range(PAIRS):
            pair_seed = seed + 100 * i + j
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            pair = {"seed": pair_seed, "first": order[0], "parent": None, "change": None}
            for side in order:
                pair[side], machine = _run(checkouts[side], workload, pair_seed)
                if seen_machine is None:
                    seen_machine = machine
                elif machine != seen_machine:
                    raise RuntimeError(f"{side} {workload} seed {pair_seed} ran on "
                                       f"{machine}, not {seen_machine}")
            runs.append(pair)
            print(f"{workload} pair {j + 1}/{PAIRS} (seed {pair_seed}) done", file=sys.stderr)
        result[workload] = {"pairs": runs, "summary": summary(runs, metrics)}
    seeds = ", ".join(f"{seed + 100 * i}-{seed + 100 * i + PAIRS - 1} ({w})"
                      for i, w in enumerate(workloads))
    return {
        "description": (
            f"perfbench/run.py in a parent checkout and in the change, on one machine, "
            f"alternating which side runs first (the parent first on even pair indices). "
            f"Untraced runs: --seconds {SECONDS} --trace 0, one process each; each entry "
            f"is the run's final JSON line. Seeds {seeds}. Summaries are the quartiles "
            f"(inclusive method) of each end-to-end metric over the pairs, the number "
            f"of pairs in which the change reads lower, the median gap (parent median "
            f"minus change median), the parent's IQR (q3 - q1), whether the change's "
            f"median is worse than the parent's by more than the metric's bound times the "
            f"parent's median (beyond_bound) and whether the parent's IQR is wider than "
            f"that margin (unresolved)."),
        "machine": seen_machine,
        "workloads": result,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    try:
        result = bench_pairs(args.parent, args.change, workloads, metrics, args.seed)
    except RuntimeError as error:
        print(f"bench_pairs: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
