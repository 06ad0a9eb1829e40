"""Smoke test of the benchmark harness: one traced round per workload.

No timing is asserted; the run must pass its own output checks and its
per-class cross-check, and the tracer must find every function it wraps.
On the LUT sweep, the weight snap count must match the resident weights:
12 d^2 elements per layer, once per sweep. On the cost-model workload the
output checks include the pinned sha256 of every energy, chunking and
requirements file.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep_weight_lut", "simulate_shot_lut",
                                      "energy_catalogue"])
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),  # Linux only
                    reason="perfbench/run.py sizes BLAS threads with os.sched_getaffinity")
def test_traced_round(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "CROSS-CHECK FAILED" not in proc.stderr
    assert "not found" not in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    metrics = result["metrics"]
    if workload == "sweep_weight_lut":
        d, layers = 128, 1  # SWEEP_SHAPE in perfbench/workloads.py
        assert metrics["optics.quantized_elems"]["value"] == 12 * d * d * layers
    elif workload == "simulate_shot_lut":
        # both traces and the deviation files pass through the traced writer
        assert metrics["cli.bytes_written"]["value"] > 0
