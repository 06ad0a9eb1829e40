#!/usr/bin/env python3
"""Print the pinned values the benchmark checks outputs against.

    python3 perfbench/pin.py [--samples N] > perfbench/expected.json

The digests are those of the data files of each energy_catalogue
invocation, which do not depend on the seed. Each deviation band spans the
deviations seen over N workload seeds (inputs and per-round seed both
drawn as in a benchmark run), widened by BAND_MARGIN on both sides.
"""
import argparse
import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import run

BAND_MARGIN = 1.5


def invoke(cli, argv: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv + ["--out", str(out)])
    if status != 0:
        raise SystemExit(f"pin: {' '.join(argv)} exited with {status}")


def band(values: list[float]) -> list[float]:
    return [float(f"{min(values) / BAND_MARGIN:.4g}"), float(f"{max(values) * BAND_MARGIN:.4g}")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=60)
    args = parser.parse_args()
    run.configure_environment()
    cli = run.import_program()
    from workloads import WORKLOADS, manifest_problems, sha256

    simulate, sweep = [], {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        for seed in range(args.samples):
            for name in ("simulate_shot_lut", "sweep_weight_lut"):
                workload = WORKLOADS[name]
                inputs_dir = tmp / f"{name}-{seed}"
                inputs_dir.mkdir()
                inputs = workload.setup(seed, inputs_dir)
                round_seed = random.Random(f"{name}:{seed}").randrange(2 ** 31)
                out = inputs_dir / "out"
                invoke(cli, workload.invocations(inputs, round_seed)[0], out)
                if name == "simulate_shot_lut":
                    doc = json.loads((out / "simulate_deviation.json").read_text())
                    simulate.append(doc["deviation"])
                else:
                    for row in json.loads((out / "sweep.json").read_text()):
                        cell = f"{row['ff_percent']:g},{row['attn_percent']:g}"
                        sweep.setdefault(cell, []).append(row["deviation"])
        digests = {}
        energy = WORKLOADS["energy_catalogue"]
        for argv in energy.invocations({"dir": tmp}, 0):
            out = tmp / argv[0]
            invoke(cli, argv, out)
            listed, problems = manifest_problems(out, argv[0])
            if problems:
                raise SystemExit(f"pin: {problems}")
            digests[argv[0]] = {name: sha256(out / name) for name in sorted(listed)}
    print(json.dumps({
        "simulate_deviation": band(simulate),
        "sweep_deviation": {cell: band(values) for cell, values in sweep.items()},
        "digests": digests,
    }, indent=2))


if __name__ == "__main__":
    main()
