"""One table over every checked scalar input: the values each one accepts.

Every number photonsim reads from outside (a CLI flag, a field of a config,
profile, policy, scenario, noise or quantizer dataclass, a sizing or noise
argument) is checked against one of a few rules. Each input below is fed the
same values, and the set it accepts must be its rule's set; every other value
must end in a ValueError, or for a flag in `error:usage:` with exit status 2.
"""
import json
import math

import numpy as np
import pytest

from photonsim import (ChunkingScenario, HardwareProfile, ModelConfig, NoiseSpec, PhotonPolicy,
                       QuantizerSpec, advantage, apply_shot_noise, apply_systematic_noise,
                       derive_seed, hardware_requirements, lut_synthesize)
from photonsim.cli import main

TINY = {"name": "tiny", "n": 8, "d": 16, "h": 2, "L": 2}

VALUES = {
    "True": True, "False": False, "np.True_": np.True_, "text": "1", "None": None,
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "-1": -1, "0": 0, "0.5": 0.5, "1": 1, "1.0": 1.0, "2": 2, "100": 100, "101.0": 101.0,
    "np.float64": np.float64(1.0), "np.int64": np.int64(1),
}
# the values each rule accepts; a bool, text or None is no number under any rule
_COUNTS = {"1", "2", "100"}  # Python ints >= 1
_FINITE_AT_LEAST_ONE = _COUNTS | {"1.0", "101.0", "np.float64", "np.int64"}
_FINITE_POSITIVE = _FINITE_AT_LEAST_ONE | {"0.5"}
ACCEPTS = {
    "an integer >= 1": _COUNTS,
    "a non-negative integer": _COUNTS | {"0", "np.int64"},
    "finite and >= 0": _FINITE_POSITIVE | {"0"},
    "finite and > 0": _FINITE_POSITIVE,
    "finite and >= 1": _FINITE_AT_LEAST_ONE,
    "> 0 or inf": _FINITE_POSITIVE | {"inf"},
    "in (0, 100]": _FINITE_POSITIVE - {"101.0"},
    "in [0, 1)": {"0", "0.5"},
}


def _profile_field(name):
    return lambda v: HardwareProfile(**{name: v})


def _model_field(name):
    return lambda v: ModelConfig(**dict(TINY, **{name: v}))


LIBRARY_INPUTS = {  # input -> (call with the value, rule)
    **{f"ModelConfig.{f}": (_model_field(f), "an integer >= 1") for f in "ndhL"},
    **{f"HardwareProfile.{f}": (_profile_field(f), "finite and >= 0")
       for f in ("e_read_offchip", "e_read_sram", "e_write", "e_dac", "e_mod", "e_amp",
                 "e_adc", "e_maintain", "photon_energy")},
    **{f"HardwareProfile.{f}": (_profile_field(f), "an integer >= 1")
       for f in ("input_bits", "mem_bits_per_scalar")},
    "PhotonPolicy.reference_d": (lambda v: PhotonPolicy(reference_d=v), "an integer >= 1"),
    "PhotonPolicy.reference_photons_per_mac": (
        lambda v: PhotonPolicy(reference_photons_per_mac=v), "finite and > 0"),
    "PhotonPolicy.table key": (
        lambda v: PhotonPolicy(scaling="table", table={768: 500.0, v: 5.0}), "an integer >= 1"),
    "PhotonPolicy.table value": (
        lambda v: PhotonPolicy(scaling="table", table={768: v}), "finite and > 0"),
    "ChunkingScenario.memory_capacity_weights": (
        lambda v: ChunkingScenario(memory_capacity_weights=v), "finite and > 0"),
    "ChunkingScenario.batch_size": (
        lambda v: ChunkingScenario(memory_capacity_weights=1e8, batch_size=v), "finite and >= 1"),
    "NoiseSpec.systematic_percent_ff": (
        lambda v: NoiseSpec(systematic_percent_ff=v), "finite and >= 0"),
    "NoiseSpec.systematic_percent_attn": (
        lambda v: NoiseSpec(systematic_percent_attn=v), "finite and >= 0"),
    "NoiseSpec.photons_per_mac": (lambda v: NoiseSpec(photons_per_mac=v), "> 0 or inf"),
    "NoiseSpec.seed": (lambda v: NoiseSpec(seed=v), "a non-negative integer"),
    "QuantizerSpec.bits": (lambda v: QuantizerSpec(bits=v), "an integer >= 1"),
    "QuantizerSpec.clip_percentile": (lambda v: QuantizerSpec(clip_percentile=v), "in (0, 100]"),
    "hardware_requirements core_size": (
        lambda v: hardware_requirements(ModelConfig(**TINY), v), "finite and > 0"),
    "apply_systematic_noise percent": (
        lambda v: apply_systematic_noise(np.ones(3), v, seed=0), "finite and >= 0"),
    "apply_shot_noise photons_per_mac": (
        lambda v: apply_shot_noise(np.ones(3), v, 1, seed=0), "> 0 or inf"),
    "apply_shot_noise macs_per_output": (
        lambda v: apply_shot_noise(np.ones(3), 100.0, v, seed=0), "an integer >= 1"),
    "lut_synthesize unique_levels": (lambda v: lut_synthesize(v, 100), "an integer >= 1"),
    "lut_synthesize total_levels": (lambda v: lut_synthesize(1, v), "an integer >= 1"),
    "lut_synthesize floor": (lambda v: lut_synthesize(4, 8, v), "in [0, 1)"),
    "advantage digital_j_per_mac": (
        lambda v: advantage(ModelConfig(**TINY), digital_j_per_mac=v), "finite and > 0"),
    "derive_seed seed": (lambda v: derive_seed(v, 1), "a non-negative integer"),
    "derive_seed key": (lambda v: derive_seed(3, v), "a non-negative integer"),
}


@pytest.mark.parametrize("name", LIBRARY_INPUTS)
def test_library_inputs_accept_their_rule(name):
    call, rule = LIBRARY_INPUTS[name]
    accepted = set()
    for label, value in VALUES.items():
        try:
            call(value)
        except ValueError:
            continue
        accepted.add(label)
    assert accepted == ACCEPTS[rule]


CLI_VALUES = ["true", "nan", "inf", "-inf", "abc", "", "-1", "0", "0.5", "1", "1.0", "2"]
SIMULATE = ["simulate", "--config", "TINY"]
SWEEP = ["sweep", "--config", "TINY", "--ff-grid", "0", "--attn-grid", "0"]
CLI_INPUTS = {  # flag -> (the command it is given to, rule)
    "--seed": (["catalogue"], "a non-negative integer"),
    "--seeds": (SWEEP, "a non-negative integer"),
    "--core-size": (["requirements", "--config", "TINY"], "finite and > 0"),
    "--baseline": (["energy", "--config", "TINY"], "finite and > 0"),
    "--memory": (["chunking", "--config", "TINY"], "finite and > 0"),
    "--batch": (["chunking", "--config", "TINY"], "finite and >= 1"),
    "--dram-j-per-bit": (["chunking", "--config", "TINY"], "finite and >= 0"),
    "--ff-noise": (SIMULATE, "finite and >= 0"),
    "--attn-noise": (SIMULATE, "finite and >= 0"),
    "--photons": (SIMULATE, "> 0 or inf"),
    "--ff-grid": (["sweep", "--config", "TINY", "--attn-grid", "0"], "finite and >= 0"),
    "--attn-grid": (["sweep", "--config", "TINY", "--ff-grid", "0"], "finite and >= 0"),
}


@pytest.mark.parametrize("flag", CLI_INPUTS)
def test_cli_flags_accept_their_rule(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("PHOTONSIM_CATALOGUE", raising=False)  # --seed runs `catalogue`
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    argv, rule = CLI_INPUTS[flag]
    argv = [str(config) if a == "TINY" else a for a in argv]
    accepted = set()
    for i, text in enumerate(CLI_VALUES):
        # --flag=text: argparse would read a separate "-inf" as a flag
        out = str(tmp_path / str(i))
        status = main([*argv, f"{flag}={text}", "--format", "json", "--out", out])
        err = capsys.readouterr().err
        if status == 0:
            accepted.add(text)
        else:
            assert status == 2 and err.startswith("error:usage: ") and flag in err, (text, err)
    assert accepted == ACCEPTS[rule] & set(CLI_VALUES)  # the labels are their own texts
