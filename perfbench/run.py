#!/usr/bin/env python3
"""photonsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through the real CLI entry point,
`photonsim.cli.main(argv)`, in this one process: a closed loop with one
client making sequential invocations, each writing into a fresh directory
under perfbench/.out with SOURCE_DATE_EPOCH pinned. A round is the
workload's fixed set of invocations; every round gets its own `--seed`,
drawn from the workload seed. Rounds repeat until S seconds have passed.

Every invocation is checked: exit status 0 and no `error:` line, every
file its manifest lists present, deviations finite and inside the bands in
expected.json, and the cost-model data files equal to their pinned
digests. After the timed rounds the first round runs again and must give
byte-identical files.

With --trace 0 the end-to-end metrics are printed: wall_s, the median
time of a round; op_p50_s and op_p90_s, percentiles of the time of one
invocation; peak_rss_mb, the ru_maxrss of this process; and setup_s, the
median wall time of fresh processes that import photonsim and make the
inputs. fail_frac, sim_gmacs_per_s (L x compute_breakdown MACs of every
forward pass a round stands for, per busy second) and reports_per_s are
printed as well but kept out of the JSON, being 0 or undefined on some
workloads.
With --trace 1 rounds alternate between untraced and traced, with every
layer wrapped (tracing.py), and the per-layer metrics of the traced rounds
are printed per round. The machine is printed with every result. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / ".out"
SETUP_SAMPLES = 5
SOURCE_DATE_EPOCH = "1700000000"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up the inputs and exit: used to time fresh-process set-ups
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def configure_environment() -> int:
    """Cap BLAS threads at the usable cores and pin timestamps; before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    os.environ.pop("PHOTONSIM_CATALOGUE", None)
    return threads


def import_program():
    """Import photonsim from this checkout's sources, and from nowhere else."""
    if not (SRC / "photonsim" / "__init__.py").is_file():
        sys.exit("perfbench: no photonsim sources in src/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    import photonsim.cli
    if not Path(photonsim.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: photonsim was imported from {photonsim.cli.__file__}")
    return photonsim.cli


def machine(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_build, "blas_threads": threads}


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import photonsim and make the inputs."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


class Runner:
    """Runs rounds of one workload's invocations and checks their outputs."""

    def __init__(self, cli, workload, inputs: dict, expected: dict, work: Path, seed: int):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.work = work
        self.seeds = random.Random(f"{workload.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.first_round = None  # [(argv, {file: sha256})]

    def invoke(self, argv: list[str], digest: bool = False, reference=None):
        """One CLI call into a fresh directory: (seconds, file digests or None)."""
        out = Path(tempfile.mkdtemp(dir=self.work, prefix="out-"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                status = self.cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:
                status = exc.code
            except Exception:  # a crash is a failed operation; keep measuring
                status = "exception"
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        problems = [] if status == 0 else [f"exit status {status}"]
        problems += [line for line in (stdout.getvalue() + stderr.getvalue()).splitlines()
                     if line.startswith("error:")]
        if not problems:
            try:
                problems += self.workload.check(argv, out, self.expected)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"reading outputs: {exc!r}")
        files = None
        if digest or reference is not None:
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
            if reference is not None and files != reference:
                problems.append("outputs differ from an identical earlier invocation")
        shutil.rmtree(out)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            if status == "exception":
                print(stderr.getvalue(), file=sys.stderr)
        return elapsed, files

    def round(self) -> list[float]:
        """One round of the workload's invocations: the time of each."""
        argvs = self.workload.invocations(self.inputs, self.seeds.randrange(2 ** 31))
        record = self.first_round is None
        results = [self.invoke(argv, digest=record) for argv in argvs]
        if record:
            self.first_round = [(argv, files) for argv, (_, files) in zip(argvs, results)]
        return [elapsed for elapsed, _ in results]

    def rerun_first_round(self) -> None:
        for argv, files in self.first_round:
            self.invoke(argv, reference=files)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("ns_per_mac"):
        return "ns"
    if name.endswith(("_frac", "_reuse", "_per_report", "_coverage")):
        return "ratio"
    return "count"


def run_untraced(runner: Runner, args) -> dict:
    setups = time_setups(args.workload, args.seed)
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    rounds, ops = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        times = runner.round()
        ops += times
        rounds.append(sum(times))
    rss = peak_rss_mb()
    runner.rerun_first_round()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_p90_s": (percentile(ops, 90), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"rounds": (len(rounds), "count"), "invocations": (len(ops), "count"),
            "fail_frac": (runner.failed / runner.attempted, "ratio")}
    workload, busy = runner.workload, sum(rounds)
    if hasattr(workload, "simulated_macs"):
        rate = workload.simulated_macs(runner.inputs) * len(rounds) / busy / 1e9
        info["sim_gmacs_per_s"] = (rate, "GMAC/s")
    if hasattr(workload, "report_rows"):
        info["reports_per_s"] = (workload.report_rows() * len(rounds) / busy, "1/s")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name}: {value:.6g} {unit}")
    return metrics


def run_traced(runner: Runner, args) -> tuple[dict, bool]:
    """Alternate untraced and traced rounds, so that drift in machine speed
    affects both alike; the per-layer metrics come from the traced ones."""
    import tracing
    tracer = tracing.Tracer()
    untraced, traced, traced_wall = [], [], 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(sum(runner.round()))
            continue
        tracer.install()
        round_start = time.perf_counter()
        try:
            traced.append(sum(runner.round()))
        finally:
            traced_wall += time.perf_counter() - round_start
            tracer.uninstall()
    runner.rerun_first_round()
    values = tracer.layer_metrics(len(traced))
    # the first round also pays one-time costs that no traced round sees
    base = statistics.median(untraced[1:] or untraced)
    values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    values["trace.span_coverage"] = tracer.span_seconds() / traced_wall
    for line in tracer.summary_lines():
        print(line)
    for name in tracer.missing:
        print(f"trace: {name} not found, not traced", file=sys.stderr)
    for error in sorted(set(tracer.crosscheck_errors)):
        print(f"CROSS-CHECK FAILED {error}", file=sys.stderr)
    metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}")
    return metrics, not tracer.crosscheck_errors


def main() -> int:
    args = parse_args()
    threads = configure_environment()
    cli = import_program()
    from workloads import WORKLOADS, load_expected  # imports numpy: after the BLAS setting
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{workload.name}-"))
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir()
        inputs = workload.setup(args.seed, inputs_dir)
        if args.setup_only:
            return 0
        print(f"setup_in_process_s: {time.perf_counter() - START:.6g} s")
        print(f"machine: {json.dumps(machine(threads))}")
        runner = Runner(cli, workload, inputs, load_expected(), work, args.seed)
        if args.trace:
            metrics, crosscheck_ok = run_traced(runner, args)
        else:
            metrics, crosscheck_ok = run_untraced(runner, args), True
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    print(json.dumps({
        "correct": runner.failed == 0 and crosscheck_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
