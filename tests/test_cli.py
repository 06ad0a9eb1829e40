"""End-to-end CLI: outputs, manifests, determinism, error surfaces."""
import csv
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import photonsim.optics
from photonsim import (ChunkingScenario, DIGITAL_BASELINES, ModelConfig, advantage,
                       builtin_catalogue, chunked_onn_energy, compute_breakdown,
                       find_model, future_profile, init_weights, lut_synthesize,
                       save_catalogue, save_lut, total_energy)
import photonsim.cli
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
@pytest.mark.parametrize("rows", ["0\n", "0,0.5\n\n", "zero,0.5\n", "0,half\n"],
                         ids=["short_row", "blank_row", "non_integer_index", "non_numeric_value"])
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
])
def test_bad_numeric_inputs_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--config", write_tiny_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:usage:")
    assert err.count("\n") == 1  # single line
    assert not (out / f"{argv[0]}_manifest.json").exists()


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


def assert_written_like_reference(path, obj):
    write_json(str(path), obj)
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
    assert_written_like_reference(tmp_path / "doc.json", {"m": [matrix, matrix[0]]})


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
