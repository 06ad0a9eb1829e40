"""Shape accounting: MAC/traffic counts, hardware sizing, model catalogue."""
import json
import math

import numpy as np
import pytest

from photonsim import (HardwareProfile, ModelConfig, PRODUCT_CLASSES, PhotonPolicy,
                       builtin_catalogue, compute_breakdown, find_model, hardware_requirements,
                       product_counts)
from photonsim.arch import catalogue_from_json
from photonsim.artifacts import write_json


# --------------------------------------------------------------------------
# independent loop-nest oracle: walk every scalar multiply of one layer


def brute_force_layer_counts(n, d, h):
    """Count MACs/loads/detects by enumerating each product's loop nest."""
    macs = loads = detects = 0

    def product(rows, inner, cols, left_loaded, right_loaded):
        nonlocal macs, loads, detects
        count = 0
        for _ in range(rows):
            for _ in range(inner):
                for _ in range(cols):
                    count += 1
        macs += count
        if left_loaded:
            loads += rows * inner
        if right_loaded:
            loads += inner * cols
        detects += rows * cols

    d_h = d // h
    product(n, d, 3 * d, True, False)       # qkv, weights resident
    for _ in range(h):
        product(n, d_h, n, True, True)      # q @ k^T, both streamed
        product(n, n, d_h, True, True)      # scores @ v, both streamed
    product(n, d, d, True, False)           # out_proj
    product(n, d, 4 * d, True, False)       # ff1
    product(n, 4 * d, d, True, False)       # ff2
    return macs, loads, detects


@pytest.mark.parametrize("n,d,h", [(1, 1, 1), (2, 4, 2), (3, 6, 3), (8, 8, 2), (5, 8, 4)])
def test_breakdown_matches_brute_force(n, d, h):
    macs, loads, detects = brute_force_layer_counts(n, d, h)
    bd = compute_breakdown(ModelConfig("t", n, d, h, 1))
    assert bd.macs_per_layer == macs
    assert sum(p.loads for p in bd.products.values()) == loads
    assert bd.detects_per_layer == detects


def test_closed_forms():
    for n, d, h, L in [(2, 4, 2, 3), (7, 14, 2, 2), (16, 32, 4, 5)]:
        bd = compute_breakdown(ModelConfig("t", n, d, h, L))
        assert bd.macs_per_layer == 12 * n * d * d + 2 * n * n * d
        assert bd.total_macs == L * bd.macs_per_layer
        assert sum(p.loads for p in bd.products.values()) == 10 * n * d + h * n * n
        assert bd.detects_per_layer == 10 * n * d + h * n * n
        assert bd.digital_elements_per_layer == h * n * n + 8 * n * d


def test_gpt2_frozen_total():
    bd = compute_breakdown(find_model("GPT2-117M"))
    assert bd.total_macs == 106_300_440_576


def test_unit_dimensions():
    bd = compute_breakdown(ModelConfig("t", 1, 1, 1, 1))
    assert bd.macs_per_layer == 14  # 12*1*1 + 2*1*1


def test_attention_qk_enumeration():
    # n^2 dot products of length d
    n, d = 2, 4
    bd = compute_breakdown(ModelConfig("t", n, d, 2, 1))
    assert bd.products["attn_qk"].macs == n * n * d == 16


def test_product_counts_modes():
    pc = product_counts(3, 4, 5)
    assert (pc.macs, pc.loads, pc.detects) == (60, 12 + 20, 15)
    pc = product_counts(3, 4, 5, weights_in_place=True)
    assert (pc.macs, pc.loads, pc.detects) == (60, 12, 15)


def test_per_class_counts():
    n, d, h = 4, 8, 2
    bd = compute_breakdown(ModelConfig("t", n, d, h, 1))
    p = bd.products
    assert p["qkv"].macs == 3 * n * d * d and p["qkv"].loads == n * d
    assert p["qkv"].detects == 3 * n * d
    assert p["attn_qk"].loads == 2 * n * d and p["attn_qk"].detects == h * n * n
    assert p["attn_av"].loads == h * n * n + n * d and p["attn_av"].detects == n * d
    assert p["out_proj"].macs == n * d * d
    assert p["ff1"].macs == p["ff2"].macs == 4 * n * d * d
    assert set(p) == set(PRODUCT_CLASSES)
    assert set(bd.digital_elements) == {"softmax", "layernorm", "activation", "residual"}
    assert bd.digital_elements["softmax"] == h * n * n
    assert bd.digital_elements["layernorm"] == 2 * n * d
    assert bd.digital_elements["activation"] == 4 * n * d
    assert bd.digital_elements["residual"] == 2 * n * d


def test_mac_fractions_sum_to_one():
    fr = compute_breakdown(find_model("GPT3-175B")).mac_fractions()
    assert math.isclose(sum(fr.values()), 1.0, rel_tol=1e-12)
    # feed-forward style products dominate at large d
    ff = fr["qkv"] + fr["out_proj"] + fr["ff1"] + fr["ff2"]
    assert ff > 0.5


# --------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig("t", 0, 8, 2, 1)
    with pytest.raises(ValueError):
        ModelConfig("t", 4, 8, 2, -1)
    with pytest.raises(ValueError):
        ModelConfig("t", 4, 8.0, 2, 1)
    for field in range(4):  # bool is an int subclass, but no shape
        shape = [4, 8, 2, 1]
        shape[field] = True
        with pytest.raises(ValueError, match="an integer >= 1"):
            ModelConfig("t", *shape)


def test_head_dim_requires_divisibility():
    assert ModelConfig("t", 4, 8, 2, 1).head_dim == 4
    bad = ModelConfig("t", 4, 8, 3, 1)  # constructible: counting never splits heads
    with pytest.raises(ValueError):
        bad.head_dim
    # the published tables contain two such rows; they must still be costed
    for name in ("GPT3-1.3B", "GPT3-13B"):
        bd = compute_breakdown(find_model(name))
        assert bd.total_macs > 0


def test_param_count():
    assert ModelConfig("t", 4, 8, 2, 3).param_count == 12 * 3 * 64
    assert find_model("GPT2-117M").param_count == 84_934_656


# --------------------------------------------------------------------------
# hardware requirements


def test_requirements_formulas():
    req = hardware_requirements(ModelConfig("t", 1, 1, 1, 1), core_size=1)
    assert (req.input_vector_elements, req.detectors, req.mvm_cores, req.sram_bytes) == (4, 4, 4, 4)


def test_requirements_frozen_rows():
    mt = hardware_requirements(find_model("MT-NLG-530B"), 1e7)
    assert mt.input_vector_elements == mt.detectors == 4 * 20480
    assert mt.mvm_cores == 168
    assert mt.sram_bytes == 4 * 2048 * 20480
    f4q = hardware_requirements(find_model("FUTURE-4q"), 1e7)
    assert f4q.input_vector_elements == 2_621_440
    assert f4q.mvm_cores == math.ceil(4 * 655360 ** 2 / 1e7) == 171_799
    assert f4q.sram_bytes == 5_368_709_120


def test_requirements_scaling():
    base = hardware_requirements(ModelConfig("t", 16, 64, 2, 1), core_size=8)
    twice = hardware_requirements(ModelConfig("t", 16, 128, 2, 1), core_size=8)
    assert twice.input_vector_elements == 2 * base.input_vector_elements
    assert twice.mvm_cores == 4 * base.mvm_cores  # quadratic in d (exact when divisible)
    assert twice.sram_bytes == 2 * base.sram_bytes


def test_requirements_core_size_validation():
    for core_size in (0, -1.0, math.nan, math.inf):  # inf used to size 0 cores
        with pytest.raises(ValueError):
            hardware_requirements(ModelConfig("t", 4, 8, 2, 1), core_size=core_size)


# --------------------------------------------------------------------------
# catalogue


def test_catalogue_contents():
    cat = builtin_catalogue()
    assert len(cat) == 32
    assert len({c.name for c in cat}) == 32
    g3 = find_model("GPT3-175B")
    assert (g3.n, g3.d, g3.h, g3.L) == (2048, 12288, 96, 96)
    f4 = find_model("FUTURE-4q")
    assert (f4.n, f4.d, f4.h, f4.L) == (2048, 655360, 512, 800)
    ch = find_model("Chinchilla-70B")
    assert (ch.n, ch.d, ch.h, ch.L) == (2048, 8192, 64, 80)


def test_find_model_case_insensitive():
    assert find_model("gpt2-117m").name == "GPT2-117M"
    with pytest.raises(KeyError) as err:
        find_model("nonexistent")
    assert "GPT2-117M" in str(err.value)  # error lists the known names


def test_catalogue_round_trip(tmp_path):
    path = tmp_path / "cat.json"
    for configs in (builtin_catalogue(), [ModelConfig("mine", 8, 16, 2, 1)]):
        write_json(path, [c.to_json_dict() for c in configs])
        assert catalogue_from_json(path.read_text(encoding="utf-8")) == configs


def test_save_catalogue_bytes(tmp_path):
    # a catalogue file as a PHOTONSIM_CATALOGUE override reads it
    path = tmp_path / "cat.json"
    configs = [ModelConfig("tiny", 8, 16, 2, 1), ModelConfig("Gr\u00fcn-\u5149", 1024, 768, 12, 12)]
    write_json(path, [c.to_json_dict() for c in configs])
    assert path.read_bytes() == (
        b'[\n  {\n    "name": "tiny",\n    "n": 8,\n    "d": 16,\n    "h": 2,\n    "L": 1\n  },\n'
        b'  {\n    "name": "Gr\\u00fcn-\\u5149",\n    "n": 1024,\n    "d": 768,\n    "h": 12,\n'
        b'    "L": 12\n  }\n]\n')


def test_load_catalogue_rejects_bad_shapes():
    with pytest.raises(ValueError, match="must be a JSON array"):
        catalogue_from_json('{"not": "a list"}')
    with pytest.raises(ValueError, match="missing field"):
        catalogue_from_json('[{"name": "x", "n": 4}]')


def test_compute_breakdown_is_shared_by_equal_configs():
    first = compute_breakdown(ModelConfig("t", 16, 64, 4, 2))
    assert compute_breakdown(ModelConfig("t", 16, 64, 4, 2)) is first
    assert compute_breakdown(ModelConfig("t", 16, 64, 4, 3)) is not first


# --------------------------------------------------------------------------
# JSON object readers

ROW = {"name": "x", "n": 4, "d": 8, "h": 2, "L": 1}


READERS = {
    "profile": HardwareProfile.from_json,
    "policy": PhotonPolicy.from_json,
    "model_config": ModelConfig.from_json,
}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("doc", ["[1]", "1", '"text"', "null", [ROW], 2.5],
                         ids=["list", "int", "string", "null", "parsed_list", "parsed_float"])
def test_json_readers_reject_non_objects(reader, doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        reader(doc)


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_json_readers_reject_unknown_fields(reader):
    for doc in ('{"bogus": 1}', {"bogus": 1}):
        with pytest.raises(ValueError, match="unknown field 'bogus'"):
            reader(doc)


@pytest.mark.parametrize("row, match", [
    ([1], "must be a JSON object"),
    (7, "must be a JSON object"),
    (dict(ROW, bogus=1), "unknown field 'bogus'"),
    ({"name": "x", "n": 4, "d": 8, "h": 2}, "missing field 'L'"),
    (dict(ROW, name=5), "name must be a string"),
    (dict(ROW, name="a\0b"), "name must not hold a NUL"),
], ids=["list", "int", "unknown", "missing", "name_not_string", "name_with_nul"])
def test_load_catalogue_rejects_bad_rows(row, match):
    with pytest.raises(ValueError, match=match):
        catalogue_from_json(json.dumps([row]))


def test_model_config_json_form():
    config = ModelConfig.from_json(json.dumps(ROW))
    assert config == ModelConfig("x", 4, 8, 2, 1)
    assert config.to_json_dict() == ROW
    assert list(config.to_json_dict()) == ["name", "n", "d", "h", "L"]
    # a default fills only a missing field
    assert ModelConfig.from_json({"n": 4, "d": 8, "h": 2, "L": 1}, name="f").name == "f"
    assert ModelConfig.from_json(ROW, name="f").name == "x"
    with pytest.raises(ValueError, match="missing field 'name'"):
        ModelConfig.from_json({"n": 4, "d": 8, "h": 2, "L": 1})
