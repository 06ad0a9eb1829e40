"""The benchmark's workloads.

Each workload makes its inputs from the workload seed (config JSON and LUT
CSVs, written with the program's own `lut_synthesize`/`save_lut`), lists
the CLI invocations of one round for a per-round seed, and checks the
outputs of one invocation. The program only ever sees the generated files.

Sizes are scaled down from the first probe sizes (simulate n=d=512, L=2;
sweep n=128, d=256, L=4) so that one 30-second run holds about twenty
rounds of the slower workloads.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from photonsim import builtin_catalogue, compute_breakdown, lut_synthesize, save_lut
from photonsim.arch import ModelConfig

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SIM_SHAPE = {"n": 128, "d": 256, "h": 8, "L": 2}
SWEEP_SHAPE = {"n": 128, "d": 128, "h": 8, "L": 1}
SWEEP_FF_GRID = ("0", "1", "2", "5")
SWEEP_ATTN_GRID = ("0", "1", "2", "5")
CHUNK_MEMORY = "1e8,1e10,1e12"
CHUNK_BATCH = "1,16,256,10000"

# LUT floors are drawn from the workload seed in [0, MAX_LUT_FLOOR).
MAX_LUT_FLOOR = 0.01


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, seed: int, shape: dict) -> ModelConfig:
    doc = {"name": f"bench-{seed}", **shape}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return ModelConfig(doc["name"], shape["n"], shape["d"], shape["h"], shape["L"])


def _write_lut(path: Path, rng: random.Random, unique: int, total: int) -> None:
    floor = round(rng.uniform(0.0, MAX_LUT_FLOOR), 6)
    save_lut(path, lut_synthesize(unique, total, floor=floor))


def manifest_problems(out: Path, command: str) -> tuple[list[str], list[str]]:
    """Outputs the manifest lists, and the problems found reading them."""
    path = out / f"{command}_manifest.json"
    if not path.is_file():
        return [], [f"{path.name} missing"]
    listed = json.loads(path.read_text(encoding="utf-8"))["outputs"]
    missing = [name for name in listed if not (out / name).is_file()]
    return listed, [f"manifest lists missing file {name}" for name in missing]


def _band_problem(label: str, value, band) -> list[str]:
    lo, hi = band
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"{label}: non-finite deviation {value!r}"]
    if not lo <= value <= hi:
        return [f"{label}: deviation {value} outside pinned band [{lo}, {hi}]"]
    return []


class SimulateShotLut:
    """One `simulate` with shot noise, systematic noise and both LUTs."""

    name = "simulate_shot_lut"

    def setup(self, seed: int, work: Path) -> dict:
        rng = random.Random(f"inputs:{seed}")
        config = _write_config(work / "config.json", seed, SIM_SHAPE)
        _write_lut(work / "input_lut.csv", rng, 32, 256)
        _write_lut(work / "weight_lut.csv", rng, 128, 256)
        return {"dir": work, "config": config}

    def invocations(self, inputs: dict, seed: int) -> list[list[str]]:
        work = inputs["dir"]
        return [["simulate", "--config", str(work / "config.json"), "--photons", "1000",
                 "--ff-noise", "1", "--attn-noise", "1",
                 "--input-lut", str(work / "input_lut.csv"),
                 "--weight-lut", str(work / "weight_lut.csv"), "--seed", str(seed)]]

    def simulated_macs(self, inputs: dict) -> int:
        # one digital and one optical forward pass per round
        return 2 * compute_breakdown(inputs["config"]).total_macs

    def check(self, argv: list[str], out: Path, expected: dict) -> list[str]:
        _, problems = manifest_problems(out, "simulate")
        if problems:
            return problems
        doc = json.loads((out / "simulate_deviation.json").read_text(encoding="utf-8"))
        return _band_problem("simulate", doc["deviation"], expected["simulate_deviation"])


class SweepWeightLut:
    """One 4x4-cell, two-seed `sweep` through a weight LUT, no shot noise."""

    name = "sweep_weight_lut"

    def setup(self, seed: int, work: Path) -> dict:
        rng = random.Random(f"inputs:{seed}")
        config = _write_config(work / "config.json", seed, SWEEP_SHAPE)
        _write_lut(work / "weight_lut.csv", rng, 128, 256)
        return {"dir": work, "config": config}

    def invocations(self, inputs: dict, seed: int) -> list[list[str]]:
        work = inputs["dir"]
        return [["sweep", "--config", str(work / "config.json"),
                 "--ff-grid", ",".join(SWEEP_FF_GRID), "--attn-grid", ",".join(SWEEP_ATTN_GRID),
                 "--seeds", f"{seed},{seed + 1}", "--photons", "inf",
                 "--weight-lut", str(work / "weight_lut.csv"), "--seed", str(seed)]]

    def simulated_macs(self, inputs: dict) -> int:
        # per sweep seed: one digital reference plus one optical pass per cell
        passes = 2 * (1 + len(SWEEP_FF_GRID) * len(SWEEP_ATTN_GRID))
        return passes * compute_breakdown(inputs["config"]).total_macs

    def check(self, argv: list[str], out: Path, expected: dict) -> list[str]:
        _, problems = manifest_problems(out, "sweep")
        if problems:
            return problems
        rows = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        cells = len(SWEEP_FF_GRID) * len(SWEEP_ATTN_GRID)
        if len(rows) != 2 * cells:
            return [f"sweep: {len(rows)} rows, expected {2 * cells}"]
        bands = expected["sweep_deviation"]
        for row in rows:
            cell = f"{row['ff_percent']:g},{row['attn_percent']:g}"
            problems += _band_problem(f"sweep cell {cell}", row["deviation"], bands[cell])
        return problems


class EnergyCatalogue:
    """`energy`, `chunking` and `requirements` over the whole catalogue."""

    name = "energy_catalogue"

    def setup(self, seed: int, work: Path) -> dict:
        return {"dir": work}

    def invocations(self, inputs: dict, seed: int) -> list[list[str]]:
        s = str(seed)
        return [["energy", "--all", "--format", "both", "--seed", s],
                ["chunking", "--all", "--memory", CHUNK_MEMORY, "--batch", CHUNK_BATCH,
                 "--seed", s],
                ["requirements", "--all", "--seed", s]]

    def report_rows(self) -> int:
        """Model and scenario rows costed in one round."""
        models = len(builtin_catalogue())
        scenarios = len(CHUNK_MEMORY.split(",")) * len(CHUNK_BATCH.split(","))
        return models + models * scenarios + models

    def check(self, argv: list[str], out: Path, expected: dict) -> list[str]:
        listed, problems = manifest_problems(out, argv[0])
        if problems:
            return problems
        digests = expected["digests"][argv[0]]
        if sorted(listed) != sorted(digests):
            return [f"{argv[0]}: outputs {sorted(listed)}, expected {sorted(digests)}"]
        return [f"{name}: digest differs from the pinned one"
                for name in listed if sha256(out / name) != digests[name]]


WORKLOADS = {w.name: w for w in (SimulateShotLut(), SweepWeightLut(), EnergyCatalogue())}
