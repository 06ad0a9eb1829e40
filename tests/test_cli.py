"""End-to-end CLI: outputs, manifests, determinism, error surfaces."""
import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import photonsim.optics
from photonsim import (ChunkingScenario, DIGITAL_BASELINES, HardwareProfile, ModelConfig,
                       advantage, builtin_catalogue, chunked_onn_energy, compute_breakdown,
                       find_model, future_profile, init_weights, lut_synthesize,
                       save_catalogue, save_lut, total_energy)
import photonsim.cli
import photonsim.txsim
from photonsim.cli import build_parser, main, write_json

TINY = {"name": "tiny", "n": 8, "d": 16, "h": 2, "L": 2}


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("PHOTONSIM_CATALOGUE", raising=False)


def write_tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# energy


def test_energy_single_model(tmp_path, capsys):
    out = tmp_path / "e"
    assert main(["energy", "--model", "GPT2-117M", "--out", str(out)]) == 0
    for name in ("energy.json", "energy.csv", "energy_summary.csv", "energy_manifest.json"):
        assert (out / name).exists(), name
    summary = read_csv(out / "energy_summary.csv")
    assert len(summary) == 1
    row = summary[0]
    rep = total_energy(find_model("GPT2-117M"))
    assert float(row["total_j"]) == pytest.approx(rep.total(), rel=1e-8)
    assert float(row["advantage_a100"]) == pytest.approx(rep.advantages()["a100"], rel=1e-8)
    assert int(row["total_macs"]) == rep.total_macs
    manifest = read_json(out / "energy_manifest.json")
    assert manifest["command"] == "energy"
    assert manifest["seed"] == 0
    assert sorted(manifest["outputs"]) == ["energy.csv", "energy.json", "energy_summary.csv"]
    assert manifest["version"]
    assert manifest["timestamp"] == "2023-11-14T22:13:20Z"
    cells = read_csv(out / "energy.csv")
    assert len(cells) == 7 * 5  # layer classes x categories
    total = sum(float(r["joules"]) for r in cells)
    assert total == pytest.approx(rep.total(), rel=1e-7)
    assert "GPT2-117M" in capsys.readouterr().out


def test_energy_all_and_future(tmp_path):
    out = tmp_path / "e"
    assert main(["energy", "--all", "--future", "--out", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / "energy_summary.csv")
    assert len(rows) == 32
    by_name = {r["model"]: r for r in rows}
    expected = total_energy(find_model("MT-NLG-530B"), future_profile()).total()
    assert float(by_name["MT-NLG-530B"]["total_j"]) == pytest.approx(expected, rel=1e-8)
    assert not (out / "energy.json").exists()  # csv-only run


def test_energy_custom_baseline(tmp_path):
    out = tmp_path / "e"
    assert main(["energy", "--model", "GPT2-117M", "--baseline", "300e-15",
                 "--out", str(out), "--format", "csv"]) == 0
    row = read_csv(out / "energy_summary.csv")[0]
    # 300 fJ/MAC equals the stock a100 baseline
    assert row["advantage_custom"] == row["advantage_a100"]


def test_energy_profile_and_policy_files(tmp_path):
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"e_dac": 5e-12}))
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"scaling": "constant",
                                       "reference_photons_per_mac": 100.0}))
    out = tmp_path / "e"
    assert main(["energy", "--model", "GPT2-117M", "--profile", str(profile_path),
                 "--policy", str(policy_path), "--out", str(out), "--format", "csv"]) == 0
    row = read_csv(out / "energy_summary.csv")[0]
    stock = total_energy(find_model("GPT2-117M")).total()
    assert float(row["total_j"]) < stock  # cheaper DAC dominates the change
    manifest = read_json(out / "energy_manifest.json")
    assert manifest["resolved"]["profile"] == str(profile_path)
    assert manifest["resolved"]["policy"] == str(policy_path)


# --------------------------------------------------------------------------
# requirements


def test_requirements_all(tmp_path):
    out = tmp_path / "r"
    assert main(["requirements", "--all", "--core-size", "1e7",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "requirements.csv")
    assert len(rows) == 32
    by_name = {r["model"]: r for r in rows}
    assert int(by_name["MT-NLG-530B"]["mvm_cores"]) == 168
    assert int(by_name["FUTURE-4q"]["input_vector_elements"]) == 2_621_440
    assert int(by_name["GPT3-175B"]["sram_bytes"]) == 4 * 2048 * 12288
    data = read_json(out / "requirements.json")
    assert len(data) == 32


# --------------------------------------------------------------------------
# chunking


def test_chunking_values(tmp_path):
    out = tmp_path / "c"
    assert main(["chunking", "--model", "GPT2-117M", "--memory", "1e6,1e8",
                 "--batch", "1,10", "--out", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / "chunking.csv")
    assert len(rows) == 4
    cfg = find_model("GPT2-117M")
    macs = compute_breakdown(cfg).total_macs
    for row in rows:
        sc = ChunkingScenario(memory_capacity_weights=float(row["memory_weights"]),
                              batch_size=float(row["batch_size"]))
        onn = chunked_onn_energy(cfg, scenario=sc).total()
        assert float(row["onn_j"]) == pytest.approx(onn, rel=1e-8)
        assert float(row["advantage_a100"]) == pytest.approx(
            macs * DIGITAL_BASELINES["a100"] / onn, rel=1e-8)
        assert int(row["chunks"]) == sc.chunks(12 * cfg.d * cfg.d)


def test_chunking_rejects_bad_lists(tmp_path):
    out = tmp_path / "c"
    assert main(["chunking", "--model", "GPT2-117M", "--memory", "0",
                 "--out", str(out)]) == 2
    assert main(["chunking", "--model", "GPT2-117M", "--memory", ",",
                 "--out", str(out)]) == 2
    assert main(["chunking", "--model", "GPT2-117M", "--batch", "0.5",
                 "--out", str(out)]) == 2


# --------------------------------------------------------------------------
# simulate


def test_simulate_tiny(tmp_path):
    out = tmp_path / "s"
    config = write_tiny_config(tmp_path)
    assert main(["simulate", "--config", config, "--ff-noise", "1.0",
                 "--photons", "1000", "--seed", "3", "--out", str(out)]) == 0
    dev = read_json(out / "simulate_deviation.json")
    assert dev["model"] == "tiny"
    assert dev["seed"] == 3
    assert 0 < dev["deviation"] < 1
    digital = read_json(out / "simulate_digital_trace.json")
    optical = read_json(out / "simulate_optical_trace.json")
    assert digital["config"]["n"] == 8
    assert digital["final"] != optical["final"]
    row = read_csv(out / "simulate_deviation.csv")[0]
    assert float(row["deviation"]) == pytest.approx(dev["deviation"], rel=1e-8)


def test_simulate_matches_monte_carlo_envelope(tmp_path):
    # 64-seed ensemble of this exact run (5%/5% systematic, no shot noise,
    # n=32 d=64 h=4 L=2) spans deviations 0.0725..0.1179; any seed must land
    # in a margined envelope around it
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"name": "mc", "n": 32, "d": 64, "h": 4, "L": 2}))
    for seed in (0, 7):
        out = tmp_path / f"mc{seed}"
        assert main(["simulate", "--config", str(config), "--ff-noise", "5",
                     "--attn-noise", "5", "--seed", str(seed), "--out", str(out),
                     "--format", "json"]) == 0
        dev = read_json(out / "simulate_deviation.json")["deviation"]
        assert 0.05 < dev < 0.15


def test_simulate_noiseless_deviation_is_zero(tmp_path):
    out = tmp_path / "s"
    config = write_tiny_config(tmp_path)
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert read_json(out / "simulate_deviation.json")["deviation"] == 0.0
    assert read_json(out / "simulate_deviation.json")["photons_per_mac"] is None


@pytest.mark.parametrize("photons", ["1e17", "1e308"])
def test_simulate_huge_photon_budget(tmp_path, photons):
    # Poisson draws at these budgets pass numpy's limit on the mean (about
    # 9.2e18); the Gaussian shot noise has none
    out = tmp_path / "s"
    assert main(["simulate", "--config", write_tiny_config(tmp_path), "--photons", photons,
                 "--ff-noise", "1", "--out", str(out)]) == 0
    assert math.isfinite(read_json(out / "simulate_deviation.json")["deviation"])


def test_simulate_over_limit(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["simulate", "--model", "MT-NLG-530B", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:over_limit:")
    assert err.count("\n") == 1  # single line
    assert not (out / "simulate_deviation.json").exists()


def test_simulate_out_of_memory_is_over_limit(tmp_path, capsys, monkeypatch):
    def no_memory(config, seed):
        raise MemoryError("Unable to allocate 9.38 GiB for an array")
    monkeypatch.setattr(photonsim.cli, "init_weights", no_memory)
    out = tmp_path / "s"
    assert main(["simulate", "--config", write_tiny_config(tmp_path), "--allow-large",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:over_limit: out of memory")
    assert err.count("\n") == 1  # single line, no traceback
    assert not (out / "simulate_manifest.json").exists()


def test_simulate_requires_model_or_config(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")


def test_simulate_with_luts(tmp_path):
    from photonsim import lut_synthesize, save_lut
    lut_path = tmp_path / "lut.csv"
    save_lut(lut_path, lut_synthesize(64, 64))
    out = tmp_path / "s"
    config = write_tiny_config(tmp_path)
    assert main(["simulate", "--config", config, "--input-lut", str(lut_path),
                 "--weight-lut", str(lut_path), "--out", str(out)]) == 0
    dev = read_json(out / "simulate_deviation.json")["deviation"]
    assert dev > 0  # quantization alone perturbs the output


# --------------------------------------------------------------------------
# sweep


def test_sweep_grid(tmp_path):
    out = tmp_path / "w"
    config = write_tiny_config(tmp_path)
    assert main(["sweep", "--config", config, "--ff-grid", "0,1", "--attn-grid", "0,1",
                 "--seeds", "0,1", "--out", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 8  # 2 x 2 x 2
    assert list(rows[0]) == ["ff_percent", "attn_percent", "seed", "deviation"]
    zero_rows = [r for r in rows if r["ff_percent"] == "0" and r["attn_percent"] == "0"]
    assert len(zero_rows) == 2
    assert all(float(r["deviation"]) == 0.0 for r in zero_rows)
    noisy = [float(r["deviation"]) for r in rows
             if r["ff_percent"] != "0" or r["attn_percent"] != "0"]
    assert all(v > 0 for v in noisy)


def test_sweep_manifest_records_luts(tmp_path):
    lut_path = tmp_path / "lut.csv"
    save_lut(lut_path, lut_synthesize(16, 32))
    config = write_tiny_config(tmp_path)
    base = ["sweep", "--config", config, "--ff-grid", "0", "--attn-grid", "1"]
    assert main(base + ["--weight-lut", str(lut_path), "--out", str(tmp_path / "w")]) == 0
    resolved = read_json(tmp_path / "w" / "sweep_manifest.json")["resolved"]
    assert (resolved["input_lut"], resolved["weight_lut"]) == (None, str(lut_path))
    assert main(base + ["--input-lut", str(lut_path), "--out", str(tmp_path / "i")]) == 0
    resolved = read_json(tmp_path / "i" / "sweep_manifest.json")["resolved"]
    assert (resolved["input_lut"], resolved["weight_lut"]) == (str(lut_path), None)


def test_sweep_snaps_each_weight_matrix_once(tmp_path, monkeypatch):
    seen = []
    original = photonsim.optics.quantize

    def quantize(values, *args, **kwargs):
        seen.append(np.array(values))
        return original(values, *args, **kwargs)

    monkeypatch.setattr(photonsim.optics, "quantize", quantize)
    lut_path = tmp_path / "lut.csv"
    save_lut(lut_path, lut_synthesize(16, 32))
    assert main(["sweep", "--config", write_tiny_config(tmp_path), "--ff-grid", "0,1",
                 "--attn-grid", "0,1", "--seeds", "0,1,2", "--weight-lut", str(lut_path),
                 "--out", str(tmp_path / "w")]) == 0
    # 12 optical passes, and each matrix went to the modulators once
    weights = init_weights(ModelConfig(**TINY), 0)
    programmed = [w.T for layer in weights.layers
                  for w in (layer.qkv, layer.out_proj, layer.ff1, layer.ff2)]
    assert len(seen) == len(programmed)
    for got, want in zip(seen, programmed):
        assert np.array_equal(got, want)


def test_sweep_rejects_empty_grid(tmp_path, capsys):
    config = write_tiny_config(tmp_path)
    assert main(["sweep", "--config", config, "--ff-grid", ",",
                 "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")


# --------------------------------------------------------------------------
# catalogue


def test_catalogue_export(tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["catalogue", "--out", str(out)]) == 0
    rows = read_csv(out / "catalogue.csv")
    assert len(rows) == 32
    assert "GPT2-117M" in capsys.readouterr().out
    data = read_json(out / "catalogue.json")
    assert data[0]["name"] == "GPT2-117M"


def test_catalogue_env_override(tmp_path, monkeypatch):
    custom = tmp_path / "custom.json"
    save_catalogue(custom, [ModelConfig("mine", 8, 16, 2, 1)])
    monkeypatch.setenv("PHOTONSIM_CATALOGUE", str(custom))
    out = tmp_path / "cat"
    assert main(["catalogue", "--out", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / "catalogue.csv")
    assert len(rows) == 1 and rows[0]["name"] == "mine"
    # named lookups resolve against the override
    out2 = tmp_path / "e"
    assert main(["energy", "--model", "mine", "--out", str(out2), "--format", "csv"]) == 0
    assert main(["energy", "--model", "GPT2-117M", "--out", str(out2),
                 "--format", "csv"]) == 1


def test_catalogue_env_parse_error(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    monkeypatch.setenv("PHOTONSIM_CATALOGUE", str(bad))
    assert main(["catalogue", "--out", str(tmp_path / "cat")]) == 1
    assert capsys.readouterr().err.startswith("error:parse:")


# --------------------------------------------------------------------------
# shared error surfaces


def test_unknown_model_error(tmp_path, capsys):
    assert main(["energy", "--model", "NOPE", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:unknown_model:")
    assert "GPT2-117M" in err  # the message lists valid names


def test_profile_parse_errors(tmp_path, capsys):
    bad = tmp_path / "profile.json"
    bad.write_text("{broken")
    assert main(["energy", "--model", "GPT2-117M", "--profile", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:parse:")
    bad.write_text(json.dumps({"e_nonexistent_field": 1.0}))
    assert main(["energy", "--model", "GPT2-117M", "--profile", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert "e_nonexistent_field" in err  # names the offending field
    bad.write_text(json.dumps({"e_dac": math.nan}))  # NaN is accepted by json.load
    assert main(["energy", "--model", "GPT2-117M", "--profile", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert "e_dac" in err
    for field in ("clock", "weight_bits", "output_bits"):  # removed: they priced nothing
        bad.write_text(json.dumps({field: 1}))
        assert main(["energy", "--model", "GPT2-117M", "--profile", str(bad),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:parse: profile file {bad}: unknown field '{field}'")
    bad.write_text("[1]")
    assert main(["energy", "--model", "GPT2-117M", "--profile", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert "must be a JSON object" in err
    assert not (tmp_path / "o" / "energy_manifest.json").exists()
    for doc in ("[1]", '{"scaling": "table", "table": [1]}'):  # a policy, too
        bad.write_text(doc)
        assert main(["energy", "--model", "GPT2-117M", "--policy", str(bad),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:parse: policy file {bad}: policy")
        assert "must be a JSON object" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "o" / "energy_manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("rows", ["0\n", "0,0.5\n\n", "zero,0.5\n", "0,half\n",
                                  "0,0\n1,0.5\n2,nan\n", "0,0\n1,nan\n2,1\n"],
                         ids=["short_row", "blank_row", "non_integer_index", "non_numeric_value",
                              "nan_last", "nan_middle"])
def test_malformed_lut_is_parse_error(tmp_path, capsys, command, rows):
    lut = tmp_path / "lut.csv"
    lut.write_text("level_index,value\n" + rows)
    out = tmp_path / "o"
    assert main([command, "--config", write_tiny_config(tmp_path), "--weight-lut", str(lut),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert err.count("\n") == 1
    assert not (out / f"{command}_manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "energy"])
@pytest.mark.parametrize("field", ["n", "L"])
def test_bool_config_field_is_parse_error(tmp_path, capsys, command, field):
    # json `true` is a Python bool, an int subclass; it must not be costed as 1
    config = tmp_path / "bool.json"
    config.write_text(json.dumps(dict(TINY, **{field: True})))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")
    assert err.count("\n") == 1
    assert not (out / f"{command}_manifest.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:io:")


# kind -> (name in the error line, argv that reads the file at FILE)
INPUT_FILES = {
    "config": ("config", ["energy", "--config", "FILE"]),
    "catalogue": ("catalogue", ["catalogue"]),  # named by PHOTONSIM_CATALOGUE
    "profile": ("profile", ["energy", "--model", "GPT2-117M", "--profile", "FILE"]),
    "policy": ("policy", ["chunking", "--model", "GPT2-117M", "--policy", "FILE"]),
    "lut": ("weight LUT", ["simulate", "--config", "TINY", "--weight-lut", "FILE"]),
}
NO_L = {k: v for k, v in TINY.items() if k != "L"}
BAD_CONTENTS = {  # failure -> contents per kind; profiles and policies need no field
    "list": dict.fromkeys(INPUT_FILES, "[1]"),
    "unknown_field": {"config": json.dumps(dict(TINY, bogus=1)),
                      "catalogue": json.dumps([dict(TINY, bogus=1)]),
                      "profile": '{"bogus": 1}', "policy": '{"bogus": 1}',
                      "lut": "level_index,bogus\n0,1\n"},
    "missing_field": {"config": json.dumps(NO_L), "catalogue": json.dumps([NO_L]),
                      "lut": "level_index\n0\n"},
}
BAD_CONTENTS.update({  # values out of range or of the wrong type; json reads NaN, Infinity
    **{f"table_{name}": {"policy": '{"scaling": "table", "table": {"768": %s}}' % value}
       for name, value in [("nan", "NaN"), ("inf", "Infinity"), ("minus_inf", "-Infinity"),
                           ("zero", "0"), ("negative", "-5"), ("bool", "true")]},
    "table_misses_d": {"policy": '{"scaling": "table", "table": {"192": 120}}'},  # d is 768
    "reference_d_fraction": {"policy": '{"reference_d": 5.5}'},
    "reference_photons_inf": {"policy": '{"reference_photons_per_mac": Infinity}'},
    "input_bits_fraction": {"profile": '{"input_bits": 5.5}'},
    "mem_bits_fraction": {"profile": '{"mem_bits_per_scalar": 7.5}'},
    **{f"bool_{f.name}": {"profile": json.dumps({f.name: True})}
       for f in dataclasses.fields(HardwareProfile)},
})
FILE_FAILURES = [("missing", "io"), ("directory", "io")] + [
    (failure, "parse") for failure in BAD_CONTENTS]


@pytest.mark.parametrize("kind, failure, err_class", [
    (kind, failure, err_class) for failure, err_class in FILE_FAILURES for kind in INPUT_FILES
    if failure not in BAD_CONTENTS or kind in BAD_CONTENTS[failure]])
def test_input_file_errors(tmp_path, capsys, monkeypatch, kind, failure, err_class):
    path = tmp_path / "input"
    if failure == "directory":
        path.mkdir()
    elif failure != "missing":
        path.write_text(BAD_CONTENTS[failure][kind])
    name, argv = INPUT_FILES[kind]
    if kind == "catalogue":
        monkeypatch.setenv("PHOTONSIM_CATALOGUE", str(path))
    replace = {"FILE": str(path), "TINY": write_tiny_config(tmp_path)}
    out = tmp_path / "o"
    assert main([replace.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:{err_class}: {name} file {path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_heads_that_do_not_divide_d_are_parse_errors(tmp_path, capsys, monkeypatch, command):
    # costing accepts such a model (the catalogue has two); a forward pass cannot split its heads
    config = tmp_path / "h3.json"
    config.write_text(json.dumps({"n": 4, "d": 8, "h": 3, "L": 1}))
    catalogue = tmp_path / "catalogue.json"
    catalogue.write_text(json.dumps([{"name": "odd", "n": 4, "d": 8, "h": 3, "L": 1}]))
    monkeypatch.setenv("PHOTONSIM_CATALOGUE", str(catalogue))
    out = tmp_path / "o"
    for source, argv in ((f"config file {config}", ["--config", str(config)]),
                         ("model odd", ["--model", "odd"])):
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error:parse: {source}: d must be divisible by h: d=8, h=3\n")
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["energy", "--model", "GPT2-117M", "--out", "FILE"],
    ["catalogue", "--out", "FILE/sub"],
    *([command, "--config", "CONFIG", "--out", "FILE/sub"]
      for command in ("requirements", "chunking", "simulate", "sweep")),
], ids=["out_is_file", "out_under_file", "requirements", "chunking", "simulate", "sweep"])
def test_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch, argv):
    # stdout shows only results whose files were written; and a forward pass
    # whose results cannot be written does not run
    def forward(*args, **kwargs):
        raise AssertionError("a forward pass ran before --out was checked")
    for module in (photonsim.cli, photonsim.txsim):
        monkeypatch.setattr(module, "forward", forward)
    taken = tmp_path / "taken"
    taken.write_text("")
    config = write_tiny_config(tmp_path)
    assert main([config if a == "CONFIG" else a.replace("FILE", str(taken)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:io: [Errno ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--ff-noise", "1e150"],
    ["simulate", "--attn-noise", "1e300", "--photons", "3"],
    ["sweep", "--ff-grid", "0,1e150", "--attn-grid", "0"],
], ids=["simulate", "simulate_shot", "sweep"])
def test_float64_overflow_is_over_limit(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--config", write_tiny_config(tmp_path), "--out", str(out)]) == 1
    assert not caught  # no numpy RuntimeWarning
    err = capsys.readouterr().err
    assert err.startswith("error:over_limit: the forward pass left the float64 range")
    assert err.count("\n") == 1
    assert not out.exists()  # no trace, data file or manifest


@pytest.mark.parametrize("failing_share", [0, 1], ids=["parent", "child"])
def test_parallel_sweep_overflow_is_one_error(tmp_path, capsys, monkeypatch, request,
                                             failing_share):
    # the cells run in this process and a forked child; the 1e150 cell fails in one of them
    ff_grid = ["0", "1", "2", "1e150"] if failing_share == 0 else ["0", "1", "1e150", "2"]
    costs = photonsim.txsim._cell_costs(ModelConfig(**TINY), [float(v) for v in ff_grid], [0.0], 1)
    assert ff_grid.index("1e150") in photonsim.txsim._deal(costs, 2)[failing_share]
    blas = photonsim.txsim._openblas_threads()
    if blas:  # a count other than the workers' one, which the sweep must restore
        request.addfinalizer(lambda threads=blas[0](): blas[1](threads))
        blas[1](3)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # a sweep this small is not worth a worker, which is a matter of speed only
    monkeypatch.setattr(photonsim.txsim, "_SHARE_OUTPUTS", 1)
    argv = ["sweep", "--config", write_tiny_config(tmp_path), "--ff-grid", ",".join(ff_grid),
            "--attn-grid", "0"]
    errors = []
    for cores in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        out = tmp_path / f"o{cores}"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:over_limit: the forward pass left the float64 range")
        assert captured.err.count("\n") == 1
        assert not out.exists()
        errors.append(captured.err)
    assert len(forks) == (1 if blas else 0)
    assert errors[0] == errors[1]  # the error of the serial sweep
    with pytest.raises(ChildProcessError):  # no child left behind
        os.waitpid(-1, os.WNOHANG)
    if blas:
        assert blas[0]() == 3


@pytest.mark.parametrize("argv", [
    ["requirements", "--model", "GPT2-117M", "--core-size", "5e-324"],
    ["chunking", "--model", "GPT2-117M", "--memory", "1e-310"],
    ["chunking", "--model", "GPT2-117M", "--memory", "1e-300"],
], ids=["core_size", "memory", "memory_gpu_traffic"])
def test_count_overflow_is_over_limit(tmp_path, capsys, argv):
    # tiny capacities ask for more cores or chunks than float64 can count
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:over_limit: a count left the float64 range")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,data_file", [
    (["energy", "--model", "GPT2-117M", "--baseline", "1e308"], "energy.json"),
    (["energy", "--model", "GPT2-117M", "--baseline", "1e308", "--format", "csv"],
     "energy_summary.csv"),
    (["chunking", "--config", "TINY", "--memory", "100", "--dram-j-per-bit", "1e308"],
     "chunking.csv"),
], ids=["energy_baseline", "energy_baseline_csv", "chunking_dram"])
def test_result_overflow_is_over_limit(tmp_path, capsys, argv, data_file):
    # finite flags whose products leave float64: an inf advantage or energy means nothing
    argv = [write_tiny_config(tmp_path) if a == "TINY" else a for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error:over_limit: a result left the float64 range: {data_file}\n"
    assert not out.exists()  # no data file and no manifest


@pytest.mark.parametrize("argv,data_file", [
    (["energy", "--model", "GPT2-117M"], "energy.json"),
    (["chunking", "--model", "GPT2-117M", "--memory", "1e6"], "chunking.csv"),
], ids=["energy", "chunking"])
def test_zero_energy_profile_is_over_limit(tmp_path, capsys, argv, data_file):
    # an optical system that costs nothing has an infinite advantage
    profile = tmp_path / "zero.json"
    profile.write_text(json.dumps({name: 0.0 if isinstance(value, float) else value
                                   for name, value in dataclasses.asdict(HardwareProfile()).items()}))
    out = tmp_path / "o"
    assert main(argv + ["--profile", str(profile), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error:over_limit: a result left the float64 range: {data_file}\n"
    assert captured.out == ""
    assert not out.exists()


def test_energy_prints_no_rejected_result(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["energy", "--model", "GPT2-117M", "--baseline", "1e308", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:over_limit:")


@pytest.mark.parametrize("command", ["energy", "requirements", "chunking", "simulate", "sweep"])
def test_config_runs_do_not_read_the_catalogue(tmp_path, capsys, monkeypatch, command):
    bad = tmp_path / "catalogue.json"
    bad.write_text("{broken")
    argv = [command, "--config", write_tiny_config(tmp_path), "--out", "OUT"]
    runs = []
    for catalogue in (None, str(bad)):
        if catalogue:
            monkeypatch.setenv("PHOTONSIM_CATALOGUE", catalogue)
        out = tmp_path / ("bad" if catalogue else "unset")
        assert main([str(out) if a == "OUT" else a for a in argv]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, captured.err,
                     {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    assert main([command, "--model", "GPT2-117M", "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err.startswith(f"error:parse: catalogue file {bad}: ")


@pytest.mark.parametrize("epoch", ["abc", "1e99", "99999999999999999", "-1", "1.5",
                                   "253402300800"])
def test_bad_source_date_epoch_is_usage_error(tmp_path, capsys, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "o"
    assert main(["catalogue", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error:usage: SOURCE_DATE_EPOCH must be an integer in [0, 253402300799], "
                   f"got {epoch}\n")
    assert not out.exists()


def test_last_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300799")
    assert main(["catalogue", "--format", "json", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "catalogue_manifest.json")["timestamp"] == "9999-12-31T23:59:59Z"


@pytest.mark.parametrize("argv", [
    ["simulate", "--photons", "abc"],
    ["simulate", "--ff-noise", "-1"],
    ["simulate", "--ff-noise", "nan"],
    ["simulate", "--attn-noise", "inf"],
    ["sweep", "--seeds", "1.5,2"],
    ["sweep", "--seeds", "-1"],
    ["sweep", "--attn-grid", "0,nan"],
    ["chunking", "--memory", "nan"],
    ["chunking", "--batch", "nan"],
    ["simulate", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["energy", "--seed", "2.5"],
    ["requirements", "--core-size", "0"],
    ["requirements", "--core-size", "nan"],
    ["requirements", "--core-size", "inf"],
    ["chunking", "--dram-j-per-bit", "nan"],
    ["chunking", "--dram-j-per-bit", "-1"],
    ["chunking", "--dram-j-per-bit", "inf"],
    ["energy", "--baseline", "nan"],
    ["energy", "--baseline", "-1"],
    ["energy", "--baseline", "0"],
    ["energy", "--baseline", "abc"],
    ["simulate", "--ff-noise", "abc"],
    ["simulate", "--attn-noise", "abc"],
    ["sweep", "--seeds", "1.0"],
    ["simulate", "--photons", "none"],
    ["simulate", "--photons", ""],
    ["chunking", "--memory", "0"],
    ["sweep", "--ff-grid", "0,abc"],
])
def test_bad_numeric_inputs_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--config", write_tiny_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:usage:")
    assert err.count("\n") == 1  # single line
    assert not (out / f"{argv[0]}_manifest.json").exists()


# per subcommand, each of its flags but --help and --out, mapped to whether it takes a value
KNOWN_FLAGS = {
    name: {flag: action.nargs != 0 for action in parser._actions
           for flag in action.option_strings if flag not in ("-h", "--help", "--out")}
    for name, parser in next(a for a in build_parser()._actions
                             if isinstance(a, argparse._SubParsersAction)).choices.items()}


EDGE_VALUES = ["0", "-1", "5e-324", "1e308", "inf", "nan", "abc", "",
               "0,1", "1,5e-324", "0,abc", "1e308,0", "2,nan"]
# as written for a NaN or an infinity, not "maintenance" or "info"
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
ERROR_LINE = re.compile(r"error:(usage|unknown_model|parse|over_limit|io): [^\n]*\n")


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """The paths that the TINY and LUT arguments of a command line stand for."""
    work = tmp_path_factory.mktemp("argv")
    (work / "tiny.json").write_text(json.dumps(TINY))
    save_lut(work / "lut.csv", lut_synthesize(8, 16, floor=0.05))
    return {"TINY": str(work / "tiny.json"), "LUT": str(work / "lut.csv")}


@st.composite
def command_lines(draw):
    """A subcommand with a model (the tiny config for simulate and sweep) and
    up to three of its flags, each valued from the edge pool or a valid value."""
    command = draw(st.sampled_from(sorted(KNOWN_FLAGS)))
    flags = KNOWN_FLAGS[command]
    valid = {"--model": ["GPT2-117M"], "--config": ["TINY"], "--input-lut": ["LUT"],
             "--weight-lut": ["LUT"], "--format": ["json", "csv", "both"]}
    argv = [command]
    if "--all" in flags:
        argv += draw(st.sampled_from([["--all"], ["--model", "GPT2-117M"],
                                      ["--config", "TINY"], []]))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)):
        if flag != "--allow-large":
            argv.append(flag)
            if flags[flag]:
                argv.append(draw(st.sampled_from(valid.get(flag, []) + EDGE_VALUES)))
    if command in ("simulate", "sweep"):  # the last --config is the one that counts
        argv += ["--config", "TINY"]
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=command_lines())
@example(argv=["requirements", "--config", "TINY", "--core-size", "5e-324"])
@example(argv=["chunking", "--model", "GPT2-117M", "--memory", "1,5e-324"])
@example(argv=["energy", "--model", "GPT2-117M", "--baseline", "1e308"])
def test_every_command_line_ends_in_outputs_or_one_error_line(tiny_inputs, argv):
    # each run writes every output its manifest lists, none with a NaN or an
    # infinity, or it prints one documented error line; never a traceback or
    # error:internal
    argv = [tiny_inputs.get(arg, arg) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a fault too
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = main(argv + ["--out", out])
            except SystemExit as exc:  # argparse's own exit, for a bad --format only
                fmt = argv[argv.index("--format") + 1] if "--format" in argv else "both"
                assert exc.code == 2 and fmt not in ("json", "csv", "both"), stderr.getvalue()
                assert "argument --format: invalid choice" in stderr.getvalue()
                return
        if status == 0:
            manifest = os.path.join(out, f"{argv[0]}_manifest.json")
            for name in read_json(manifest)["outputs"]:
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    assert not NON_FINITE.search(fh.read()), name
            return
    err = stderr.getvalue()
    assert ERROR_LINE.fullmatch(err), err
    assert status == (2 if err.startswith("error:usage:") else 1), err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_flag_prefixes_are_rejected(tmp_path, command):
    # `--all` must not be taken for --allow-large, which lifts the desk-scale limit
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--model", "MT-NLG-530B", "--all"])
    assert exc.value.code == 2
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_tiny_config(tmp_path), "--all", "--out", str(out)])
    assert exc.value.code == 2
    assert not (out / f"{command}_manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "requirements", "catalogue"])
@pytest.mark.parametrize("flag", ["--profile", "--policy"])
def test_pricing_flags_only_on_energy_and_chunking(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(tmp_path / "unused.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# emitted files


DATA_FILES = {
    "energy": {"json": ["energy.json"], "csv": ["energy.csv", "energy_summary.csv"]},
    "requirements": {"json": ["requirements.json"], "csv": ["requirements.csv"]},
    "chunking": {"json": ["chunking.json"], "csv": ["chunking.csv"]},
    "simulate": {"json": ["simulate_deviation.json"], "csv": ["simulate_deviation.csv"]},
    "sweep": {"json": ["sweep.json"], "csv": ["sweep.csv"]},
    "catalogue": {"json": ["catalogue.json"], "csv": ["catalogue.csv"]},
}


@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
@pytest.mark.parametrize("command", sorted(DATA_FILES))
def test_format_selects_the_manifest_outputs(tmp_path, command, fmt):
    out = tmp_path / "o"
    argv = [command, "--format", fmt, "--out", str(out)]
    if command != "catalogue":
        argv += ["--config", write_tiny_config(tmp_path)]
    if command == "sweep":
        argv += ["--ff-grid", "0,1", "--attn-grid", "0"]
    assert main(argv) == 0
    kinds = ["json", "csv"] if fmt == "both" else [fmt]
    expected = [name for kind in kinds for name in DATA_FILES[command][kind]]
    if command == "simulate":  # traces are written whatever the format
        expected += ["simulate_digital_trace.json", "simulate_optical_trace.json"]
    manifest = read_json(out / f"{command}_manifest.json")
    assert manifest["outputs"] == sorted(expected)
    # nothing else is left behind, temporary files included
    assert sorted(os.listdir(out)) == sorted(expected + [f"{command}_manifest.json"])


def test_artifacts_honour_umask(tmp_path):
    umask = 0o027
    old = os.umask(umask)
    try:
        assert main(["catalogue", "--out", str(tmp_path / "c")]) == 0
    finally:
        os.umask(old)
    for path in (tmp_path / "c").iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(OSError):
        write_json(str(target), {"a": 1})
    assert os.listdir(tmp_path) == ["taken"]


# --------------------------------------------------------------------------
# JSON writer


def round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj


def assert_written_like_reference(path, obj, written=None):
    """write_json of `written` (default `obj`) gives json.dumps(obj, indent=2)
    with floats at 9 significant digits."""
    write_json(str(path), obj if written is None else written)
    expected = json.dumps(round9(obj), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# where "%.9g" and repr part ways: integer values, -0.0, exponents 9-15, subnormals
GUARD_EDGES = [999999999.5, 1e9 - 0.4, 0.999999999951, 0.0, -0.0, 5e-324,
               9.99999999951e-5, 1e15, 1e16, -3.0, 123456789.0, 0.5]


WRITER_CASES = {
    "edge_rows": [[v] for v in GUARD_EDGES],
    "edge_first": [[v, 0.25, -1.5e-7] for v in GUARD_EDGES],
    "edge_last": [[0.25, v] for v in GUARD_EDGES],
    "edge_vector": GUARD_EDGES,
    "non_finite_in_rows": [[0.5, math.nan], [math.inf, -1.5], [-math.inf, 2.5]],
    "non_finite_alone": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
    "ints_in_rows": [[1, 2.5], [3.5, 4]],
    "scalars": [1, 2.5, 10 ** 12, True, False, None],
    "np_float64_rows": [[np.float64(1.0 / 3), 2.5], [np.float64(1e9 + 0.5), np.float64(math.nan)]],
    "np_float64_alone": np.float64(2.0 / 3),
    "ragged_rows": [[1.5], [2.5, 3.5], []],
    "empties": [[], {}, [[]], [{}], {"empty": []}],
    "empty_list": [],
    "empty_dict": {},
    "non_ascii": {"name": "Gr\u00fcn \u2192 \u5149", "nested": {"\u00e9": ["\u03bb", 0.1]}},
    "tuples": ((1.5, 2.5), (3.5, 4.5)),
}


@pytest.mark.parametrize("obj", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_write_json_matches_reference(tmp_path, obj):
    assert_written_like_reference(tmp_path / "doc.json", obj)


float_matrices = st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.floats(width=64), st.sampled_from(GUARD_EDGES)),
             min_size=width, max_size=width), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=float_matrices)
def test_write_json_float_matrices_match_reference(tmp_path, matrix):
    path = tmp_path / "doc.json"
    assert_written_like_reference(path, {"m": [matrix, matrix[0]]})
    c = np.array(matrix)
    spaced = np.zeros((2 * len(matrix), 3 * len(matrix[0])))
    spaced[::2, 1::3] = c
    for array in (c, np.asfortranarray(c), spaced[::2, 1::3]):
        assert_written_like_reference(path, {"m": [matrix, matrix[0]]},
                                      written={"m": [array, array[0]]})
        # one array object at several depths: formatted at the first, shifted at the others
        assert_written_like_reference(
            path, {"deep": [[matrix]], "top": matrix, "deeper": [[[matrix]]], "again": [[matrix]]},
            written={"deep": [[array]], "top": array, "deeper": [[[array]]], "again": [[array]]})


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# values at the edges of the numpy "%.9g": its scaled fraction next to a half,
# its exponent next to a power of ten, and the values it leaves to Python
edge_floats = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item()),
    st.builds(lambda digits, power, steps, sign: sign * _ulps_from((digits + 0.5) * 10.0 ** power, steps),
              st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-24, 0), st.integers(-3, 3),
              st.sampled_from([1, -1])),
    st.builds(lambda power, steps, sign: sign * _ulps_from(10.0 ** power, steps),
              st.integers(-20, 10), st.integers(-1, 1), st.sampled_from([1, -1])),
    st.sampled_from(GUARD_EDGES),
    st.floats(-sys.float_info.min, sys.float_info.min),  # ±0 and ±subnormals
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.builds(lambda v, sign: sign * v, st.floats(5e7, 1e20), st.sampled_from([1, -1])),
    st.builds(lambda n, steps: _ulps_from(float(n), steps), st.integers(-10 ** 9, 10 ** 9),
              st.integers(-3, 3)),
    st.floats(width=64),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(edge_floats, min_size=1, max_size=40), width=st.integers(1, 9),
       tall=st.booleans(), depth=st.integers(0, 3))
def test_vectorized_float_text_matches_reference(tmp_path, values, width, tall, depth):
    # a tall array spans two blocks of rows (artifacts._BLOCK elements each)
    rows = max(-(-len(values) // width), tall * (4096 // width + 1))
    matrix = np.resize(np.array(values), (rows, width))
    spaced = np.zeros((2 * rows, 3 * width))
    spaced[::2, 1::3] = matrix
    for array in (matrix, np.asfortranarray(matrix), spaced[::2, 1::3]):
        written, expected = array, matrix.tolist()
        for _ in range(depth):
            written, expected = [written], [expected]
        assert_written_like_reference(tmp_path / "doc.json", expected, written=written)


def test_trace_documents_keep_their_bytes(tmp_path):
    # the bytes of a trace as lists of Python floats, from which json.dumps and
    # the reference writer define the formats
    config = ModelConfig("t", 6, 12, 3, 2)
    trace = photonsim.txsim.forward(config, init_weights(config, 3),
                                    photonsim.txsim.make_input(config, 3))
    doc = photonsim.txsim.trace_to_json_dict(trace, config, 3)
    assert doc["final"] is doc["post_ff"][-1]
    as_lists = {key: ([a.tolist() for a in value] if key.startswith("post_") else
                      value.tolist() if key == "final" else value)
                for key, value in doc.items()}
    assert_written_like_reference(tmp_path / "written.json", as_lists, written=doc)
    photonsim.txsim.save_trace(tmp_path / "saved.json", trace, config, 3)
    saved = (tmp_path / "saved.json").read_bytes()
    assert saved == (json.dumps(as_lists) + "\n").encode("utf-8")


def test_unencodable_value_in_a_streamed_document_leaves_no_file(tmp_path):
    rows = np.random.default_rng(0).normal(size=(128, 256))  # formatted before the bad value
    target = tmp_path / "doc.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(str(target), {"rows": rows, "then": [1.5, object()]})
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------------
# determinism


def test_reruns_are_byte_identical(tmp_path):
    config = write_tiny_config(tmp_path)
    args = ["sweep", "--config", config, "--ff-grid", "0,1,2", "--attn-grid", "0,2",
            "--seeds", "0,1", "--photons", "5000", "--format", "both"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("sweep.csv", "sweep.json", "sweep_manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_csv_floats_are_nine_significant_digits(tmp_path):
    out = tmp_path / "e"
    assert main(["energy", "--model", "GPT2-117M", "--out", str(out),
                 "--format", "csv"]) == 0
    for row in read_csv(out / "energy.csv"):
        text = row["joules"]
        mantissa = text.replace("-", "").replace("+", "").split("e")[0].replace(".", "")
        assert len(mantissa.lstrip("0")) <= 9, text
    # LF line endings, no CR
    raw = (out / "energy.csv").read_bytes()
    assert b"\r" not in raw
