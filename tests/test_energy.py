"""Energy model: profiles, photon policies, reports, chunking."""
import copy
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from photonsim import (CATEGORIES, ChunkingScenario, DIGITAL_BASELINES, HardwareProfile,
                       LAYER_CLASSES, ModelConfig, PhotonPolicy, advantage,
                       builtin_catalogue, chunked_gpu_energy, chunked_onn_energy,
                       clipped_policy, compute_breakdown, default_policy,
                       default_profile, find_model, future_profile,
                       product_counts, total_energy)
import photonsim.energy
from photonsim.cli import main

REL = 1e-12


# --------------------------------------------------------------------------
# hardware profile


def test_default_profile_scalar_costs():
    p = default_profile()
    # load: 8 bits of SRAM read + one DAC + 5 modulated bits
    assert p.load_cost == pytest.approx(12.405e-12, rel=REL)
    # detect: amplifier + ADC + 8 bits written back
    assert p.detect_cost == pytest.approx(7.97e-12, rel=REL)
    # digital element: one 8-bit read + one 8-bit write
    assert p.digital_element_cost == pytest.approx(4.8e-12, rel=REL)


def test_future_profile_scalar_costs():
    f = future_profile()
    assert f.e_maintain == 0.0
    assert f.e_adc == pytest.approx(3.17e-12 / 32, rel=REL)
    assert f.e_adc == pytest.approx(9.90625e-14, rel=REL)
    assert f.e_dac == pytest.approx(10e-12 / 32, rel=REL)
    assert f.e_read_sram == pytest.approx(0.06e-12, rel=REL)
    assert f.e_amp == pytest.approx(0.24e-12, rel=REL)
    assert f.load_cost == pytest.approx(0.7975e-12, rel=REL)
    assert f.detect_cost == pytest.approx(0.8190625e-12, rel=REL)
    assert f.digital_element_cost == pytest.approx(0.96e-12, rel=REL)
    # untouched fields carry over
    assert f.photon_energy == default_profile().photon_energy


def test_profile_validation_and_json():
    with pytest.raises(ValueError):
        HardwareProfile(e_dac=-1.0)
    with pytest.raises(ValueError):
        HardwareProfile(input_bits=0)
    p = HardwareProfile(e_dac=5e-12, input_bits=6)
    assert HardwareProfile.from_json(json.dumps(asdict(p))) == p


@pytest.mark.parametrize("field", ["e_dac", "photon_energy", "mem_bits_per_scalar", "input_bits"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_profile_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        HardwareProfile(**{field: value})


# --------------------------------------------------------------------------
# photon policy


def test_inverse_d_policy_values():
    policy = default_policy()
    expected = {192: 1500.0, 384: 750.0, 768: 375.0, 1536: 187.5}
    for d, photons in expected.items():
        assert policy.photons_per_mac(d) == photons
    # photons per dot product stay constant
    per_dot = {d: policy.photons_per_mac(d) * d for d in expected}
    assert len(set(per_dot.values())) == 1
    assert per_dot[192] == 288_000.0


def test_constant_and_table_policies():
    const = PhotonPolicy(scaling="constant", reference_photons_per_mac=30.0)
    assert const.photons_per_mac(999) == 30.0
    clip = clipped_policy()
    assert clip.photons_per_mac(192) == 120.0
    assert clip.photons_per_mac(384) == 40.0
    with pytest.raises(KeyError):
        clip.photons_per_mac(768)


def test_policy_validation_and_json():
    with pytest.raises(ValueError):
        PhotonPolicy(scaling="linear")
    with pytest.raises(ValueError):
        PhotonPolicy(reference_photons_per_mac=0.0)
    with pytest.raises(ValueError):
        PhotonPolicy(scaling="table", table=None)
    # JSON object keys are text: the table's dimensions are read as integers
    clip = '{"scaling": "table", "table": {"192": 120.0, "384": 40.0}}'
    assert PhotonPolicy.from_json(clip) == clipped_policy()
    assert PhotonPolicy.from_json(json.dumps(asdict(default_policy()))) == default_policy()


def test_policy_table_keys_are_model_dimensions():
    # a key that is no dimension d >= 1 could only ever miss photons_per_mac's lookup
    for key in (True, 0, -3, "192", 192.5):
        with pytest.raises(ValueError, match="table key"):
            PhotonPolicy(scaling="table", table={768: 500.0, key: 5.0})
    # a parsed key that is not text is checked as given
    for table in ({"768": 500, "0": 5}, {"768": 500, "-3": 1}, {"768": 500, True: 5}):
        with pytest.raises(ValueError, match="table key"):
            PhotonPolicy.from_json({"scaling": "table", "table": table})


# --------------------------------------------------------------------------
# report structure


def test_report_conservation():
    rep = total_energy(find_model("GPT2-117M"))
    cell_sum = sum(rep.cells[c][cat] for c in LAYER_CLASSES for cat in CATEGORIES)
    assert rep.total() == cell_sum  # canonical order: identical floats
    assert sum(rep.class_totals().values()) == pytest.approx(rep.total(), rel=REL)
    assert sum(rep.category_totals().values()) == pytest.approx(rep.total(), rel=REL)
    rows = rep.csv_rows()
    assert len(rows) == len(LAYER_CLASSES) * len(CATEGORIES)
    assert sum(r[3] for r in rows) == pytest.approx(rep.total(), rel=REL)
    doc = rep.to_json_dict()
    json.dumps(doc)
    assert doc["total_j"] == rep.total()


def test_report_json_layout():
    # to_json_dict's key tree, written out apart from json_header
    rep = total_energy(find_model("GPT2-117M"), baselines={**DIGITAL_BASELINES, "custom": 3e-13})
    doc = rep.to_json_dict()
    assert list(doc) == ["model", "total_macs", "cells", "class_totals", "category_totals",
                         "total_j", "baselines_j_per_mac", "advantages"]
    assert doc["model"] == "GPT2-117M" and doc["total_macs"] == rep.total_macs
    assert list(doc["cells"]) == list(LAYER_CLASSES)
    assert all(list(cats) == list(CATEGORIES) for cats in doc["cells"].values())
    assert doc["cells"] == rep.cells
    assert list(doc["class_totals"]) == list(LAYER_CLASSES)
    assert list(doc["category_totals"]) == list(CATEGORIES)
    names = [*DIGITAL_BASELINES, "custom"]
    assert list(doc["baselines_j_per_mac"]) == list(doc["advantages"]) == names
    assert doc["baselines_j_per_mac"] == rep.baselines
    # the same floats: exact equality
    assert doc["class_totals"] == rep.class_totals()
    assert doc["category_totals"] == rep.category_totals()
    assert doc["total_j"] == rep.total()
    assert doc["advantages"] == rep.advantages()


def test_electrical_energy_matches_closed_form():
    cfg = ModelConfig("t", n=32, d=64, h=4, L=3)
    p = default_profile()
    categories = total_energy(cfg, p).category_totals()
    electrical = sum(j for cat, j in categories.items() if cat != "optical")
    n, d, h, L = cfg.n, cfg.d, cfg.h, cfg.L
    loads = 10 * n * d + h * n * n
    detects = 10 * n * d + h * n * n
    digital = h * n * n + 8 * n * d
    macs = 12 * n * d * d + 2 * n * n * d
    expected = L * (loads * p.load_cost + detects * p.detect_cost
                    + digital * p.digital_element_cost + macs * p.e_maintain)
    assert electrical == pytest.approx(expected, rel=REL)


def test_total_energy_adds_optical_per_class():
    cfg = ModelConfig("t", n=32, d=64, h=4, L=3)
    policy = default_policy()
    rep = total_energy(cfg, policy=policy)
    ppm = policy.photons_per_mac(cfg.d)
    bd = compute_breakdown(cfg)
    for name, counts in bd.products.items():
        expected = cfg.L * counts.macs * ppm * default_profile().photon_energy
        assert rep.cells[name]["optical"] == pytest.approx(expected, rel=REL)
    assert rep.cells["digital_fns"]["optical"] == 0.0


def test_single_dot_product_costs():
    # anchor budget: 1500 photons per MAC at d = 192, so one MAC of light is
    # 1500 x 1.602e-19 J; a 1x1 product pays two scalars in, one out
    p = default_profile()
    policy = default_policy()
    assert policy.photons_per_mac(192) == pytest.approx(1500.0, rel=REL)
    assert policy.photons_per_mac(192) * p.photon_energy == pytest.approx(2.403e-16, rel=REL)
    counts = product_counts(1, 1, 1)  # both scalars streamed, one detected
    assert counts.loads * p.load_cost == pytest.approx(24.81e-12, rel=REL)
    assert counts.detects * p.detect_cost == pytest.approx(7.97e-12, rel=REL)


# --------------------------------------------------------------------------
# frozen totals (independent long-hand arithmetic)


FROZEN_DEFAULT_TOTALS = {
    "GPT2-117M": 0.006093110420648756,
    "MT-NLG-530B": 2.490264066220622,
    "FUTURE-4q": 320.7489861215217,
    "FUTURE-16T": 10.913251183883714,
}

FROZEN_FUTURE_TOTALS = {
    "MT-NLG-530B": 0.2527400722421514,
    "FUTURE-4q": 30.625333624900158,
}


def test_frozen_default_totals():
    for name, expected in FROZEN_DEFAULT_TOTALS.items():
        rep = total_energy(find_model(name))
        assert rep.total() == pytest.approx(expected, rel=1e-12), name


def test_frozen_future_totals():
    for name, expected in FROZEN_FUTURE_TOTALS.items():
        rep = total_energy(find_model(name), future_profile())
        assert rep.total() == pytest.approx(expected, rel=1e-12), name


def test_frozen_advantages():
    assert advantage(find_model("MT-NLG-530B")) == pytest.approx(132.5607154873166, rel=1e-9)
    assert advantage(find_model("FUTURE-4q")) == pytest.approx(7902.111351924765, rel=1e-9)
    assert advantage(find_model("MT-NLG-530B"), future_profile()) == pytest.approx(
        1306.1291921064224, rel=1e-9)
    assert advantage(find_model("FUTURE-4q"), future_profile()) == pytest.approx(
        82761.35814202084, rel=1e-9)


def test_advantage_consistency_and_scaling():
    cfg = find_model("GPT2-117M")
    rep = total_energy(cfg)
    assert advantage(cfg) == pytest.approx(rep.advantages()["a100"], rel=REL)
    assert advantage(cfg, digital_j_per_mac=600e-15) == pytest.approx(2 * advantage(cfg), rel=REL)
    assert rep.advantages()["next_gen_gpu"] == pytest.approx(
        advantage(cfg) * DIGITAL_BASELINES["next_gen_gpu"] / DIGITAL_BASELINES["a100"], rel=REL)
    with pytest.raises(ValueError):
        advantage(cfg, digital_j_per_mac=0.0)


def test_advantage_is_scale_invariant():
    # multiply every per-event energy and the digital J/MAC by one constant:
    # the ratio cannot move
    cfg = find_model("MT-NLG-530B")
    c = 7.3
    base = default_profile()
    scaled = HardwareProfile(
        e_read_offchip=c * base.e_read_offchip, e_read_sram=c * base.e_read_sram,
        e_write=c * base.e_write, e_dac=c * base.e_dac, e_mod=c * base.e_mod,
        e_amp=c * base.e_amp, e_adc=c * base.e_adc, e_maintain=c * base.e_maintain,
        photon_energy=c * base.photon_energy)
    assert advantage(cfg, scaled, digital_j_per_mac=c * DIGITAL_BASELINES["a100"]) \
        == pytest.approx(advantage(cfg), rel=REL)


def test_totals_grow_with_model_size():
    t = {name: total_energy(find_model(name)).total()
         for name in ("GPT2-117M", "MT-NLG-530B", "FUTURE-16T")}
    assert t["GPT2-117M"] < t["MT-NLG-530B"] < t["FUTURE-16T"]


def test_optical_fraction_below_one_percent():
    for cfg in builtin_catalogue():
        rep = total_energy(cfg)
        optical = rep.category_totals()["optical"]
        assert optical / rep.total() < 0.01, cfg.name


def test_attention_costs_more_per_mac_than_ff():
    for cfg in builtin_catalogue():
        rep = total_energy(cfg)
        bd = compute_breakdown(cfg)
        per_mac = {c: sum(rep.cells[c].values()) / (cfg.L * bd.products[c].macs)
                   for c in bd.products}
        attn = min(per_mac["attn_qk"], per_mac["attn_av"])
        ff = max(per_mac[c] for c in ("qkv", "out_proj", "ff1", "ff2"))
        assert attn > ff, cfg.name


def test_future_profile_dominates():
    for name in ("GPT2-117M", "MT-NLG-530B", "FUTURE-4q"):
        cfg = find_model(name)
        assert total_energy(cfg, future_profile()).total() < total_energy(cfg).total()


# --------------------------------------------------------------------------
# chunking


def test_chunk_count():
    sc = ChunkingScenario(memory_capacity_weights=1e7)
    assert sc.chunks(5_000_000) == 1
    assert sc.chunks(10_000_000) == 1
    assert sc.chunks(10_000_001) == 2
    assert sc.chunks(95_000_000) == 10
    # FUTURE-4q layer weights over a 1e12 capacity
    assert ChunkingScenario(memory_capacity_weights=1e12).chunks(12 * 655360 ** 2) == 6


def test_chunking_scenario_validation():
    with pytest.raises(ValueError):
        ChunkingScenario(memory_capacity_weights=0)
    with pytest.raises(ValueError):
        ChunkingScenario(memory_capacity_weights=1e6, batch_size=0.5)


@pytest.mark.parametrize("field", ["memory_capacity_weights", "batch_size"])
@pytest.mark.parametrize("value", [True, math.inf, math.nan])
def test_chunking_scenario_rejects_bools_and_non_finite(field, value):
    # as HardwareProfile does: True would be a capacity of one weight, and an
    # infinite batch would zero the weight stream
    with pytest.raises(ValueError, match=field):
        ChunkingScenario(**{"memory_capacity_weights": 1e8, field: value})


def test_chunked_energy_at_least_unchunked():
    cfg = find_model("GPT3-175B")
    base = total_energy(cfg).total()
    for capacity in (1e6, 1e8, 1e10, 1e12):
        sc = ChunkingScenario(memory_capacity_weights=capacity, batch_size=1)
        assert chunked_onn_energy(cfg, scenario=sc).total() >= base


def test_chunked_equals_unchunked_in_the_limit():
    # one chunk and an enormous batch: the weight stream amortizes away
    cfg = find_model("GPT2-117M")
    layer = 12 * cfg.d * cfg.d
    assert layer < 1e7 < cfg.param_count  # k = 1 but the model does not fit
    sc = ChunkingScenario(memory_capacity_weights=1e7, batch_size=1e18)
    chunked = chunked_onn_energy(cfg, scenario=sc).total()
    assert chunked == pytest.approx(total_energy(cfg).total(), rel=1e-6)


def test_resident_model_pays_no_weight_stream():
    # memory >= all weights: nothing to stream, report equals weights-in-place
    cfg = find_model("GPT2-117M")
    base = total_energy(cfg).total()
    resident = ChunkingScenario(memory_capacity_weights=cfg.param_count, batch_size=1)
    assert chunked_onn_energy(cfg, scenario=resident).total() == base
    # one scalar short of residency: the whole stream is paid
    p = default_profile()
    tight = ChunkingScenario(memory_capacity_weights=cfg.param_count - 1, batch_size=1)
    stream = cfg.param_count * 8 * p.e_read_offchip
    assert chunked_onn_energy(cfg, scenario=tight).total() == pytest.approx(
        base + stream, rel=1e-12)


def test_chunked_onn_closed_form():
    cfg = find_model("GPT2-117M")
    p = default_profile()
    sc = ChunkingScenario(memory_capacity_weights=1e6, batch_size=4)
    k = sc.chunks(12 * cfg.d * cfg.d)
    assert k == math.ceil(12 * 768 * 768 / 1e6) == 8
    rep = chunked_onn_energy(cfg, scenario=sc)
    base = total_energy(cfg)
    load_base = sum(base.cells[c]["electrical_load"] for c in base.cells)
    weight_stream = cfg.param_count * 8 * p.e_read_offchip / 4
    expected = base.total() - load_base + k * load_base + weight_stream
    assert rep.total() == pytest.approx(expected, rel=1e-12)


def test_chunked_advantage_monotone_in_batch():
    cfg = find_model("FUTURE-4q")
    macs = compute_breakdown(cfg).total_macs
    digital = macs * DIGITAL_BASELINES["a100"]
    prev = 0.0
    for batch in (1, 10, 100, 1000, 10_000):
        sc = ChunkingScenario(memory_capacity_weights=1e12, batch_size=batch)
        adv = digital / chunked_onn_energy(cfg, scenario=sc).total()
        assert adv >= prev
        prev = adv


def test_doubling_memory_never_decreases_advantage():
    cfg = find_model("GPT3-175B")
    macs = compute_breakdown(cfg).total_macs
    digital = macs * DIGITAL_BASELINES["a100"]
    capacities = [1e6 * 2 ** i for i in range(20)]  # crosses full residency
    assert capacities[-1] > cfg.param_count
    advs = [digital / chunked_onn_energy(
        cfg, scenario=ChunkingScenario(memory_capacity_weights=c)).total()
        for c in capacities]
    assert all(b >= a for a, b in zip(advs, advs[1:]))


def test_chunked_gpu_energy_closed_form():
    cfg = find_model("GPT2-117M")
    sc = ChunkingScenario(memory_capacity_weights=1e8)
    macs = compute_breakdown(cfg).total_macs
    expected = macs * 300e-15 + 1 * cfg.L * cfg.n * cfg.d * 8 * 1e-12
    assert chunked_gpu_energy(cfg, 300e-15, sc) == pytest.approx(expected, rel=1e-12)
    # smaller memory, more chunks, more DRAM traffic
    small = ChunkingScenario(memory_capacity_weights=1e6)
    assert chunked_gpu_energy(cfg, 300e-15, small) > chunked_gpu_energy(cfg, 300e-15, sc)


def test_chunked_weight_stream_respects_override():
    # streaming regime (model does not fit) but the stream itself is free
    cfg = find_model("GPT2-117M")
    free = ChunkingScenario(memory_capacity_weights=1e7, batch_size=1)
    assert free.chunks(12 * cfg.d * cfg.d) == 1
    rep = chunked_onn_energy(cfg, HardwareProfile(e_read_offchip=0.0), scenario=free)
    assert rep.total() == pytest.approx(total_energy(cfg).total(), rel=1e-12)


# --------------------------------------------------------------------------
# the priced-model memo: reports share one priced table per model and costs


def test_mutating_a_report_leaves_later_reports_unchanged():
    cfg = find_model("GPT2-117M")
    first = total_energy(cfg)
    expected = copy.deepcopy(first.cells)
    for cats in first.cells.values():  # as chunked_onn_energy scales its loads
        for cat in cats:
            cats[cat] *= 3
    first.cells["qkv"] = {}
    streamed = ChunkingScenario(memory_capacity_weights=1e3)
    before = chunked_onn_energy(cfg, scenario=streamed).total()
    later = total_energy(cfg)
    assert later.cells == expected
    assert chunked_onn_energy(cfg, scenario=streamed).total() == before
    assert all(later.cells[c] is not total_energy(cfg).cells[c] for c in LAYER_CLASSES)


def test_calls_given_no_profile_or_policy_build_none(monkeypatch):
    cfg = find_model("GPT2-117M")
    before = total_energy(cfg).to_json_dict()
    built = []
    for cls in (HardwareProfile, PhotonPolicy):
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__:
                            built.append(type(self)) or check(self))
    streamed = ChunkingScenario(memory_capacity_weights=1e3)
    total_energy(cfg)
    chunked_onn_energy(cfg, scenario=streamed)
    assert built == []
    future_profile()
    assert built == [HardwareProfile]  # the future profile itself
    monkeypatch.undo()
    # what default_profile() and default_policy() return is the caller's own
    profile, policy = default_profile(), default_policy()
    assert profile is not default_profile() and policy is not default_policy()
    profile.e_dac *= 2
    policy.reference_photons_per_mac *= 2
    assert total_energy(cfg).to_json_dict() == before


def test_profiles_never_share_a_priced_model(tmp_path, capsys):
    memo = photonsim.energy._priced_cells
    memo.cache_clear()
    (tmp_path / "tiny.json").write_text(json.dumps({"name": "tiny", "n": 8, "d": 16, "h": 2,
                                                    "L": 2}))
    (tmp_path / "profile.json").write_text(json.dumps({"e_adc": 1e-12}))
    base = ["energy", "--config", str(tmp_path / "tiny.json"), "--format", "json"]
    runs = {"default": [], "future": ["--future"],
            "file": ["--profile", str(tmp_path / "profile.json")]}
    texts = {}
    for name, flags in runs.items():
        assert main(base + flags + ["--out", str(tmp_path / name)]) == 0
        texts[name] = (tmp_path / name / "energy.json").read_text()
        assert memo.cache_info().currsize == len(texts)  # a new entry for each profile
    assert len(set(texts.values())) == 3
    for name, flags in runs.items():  # and each reads back its own
        assert main(base + flags + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "energy.json").read_text() == texts[name]
    assert memo.cache_info().currsize == 3


def test_priced_model_memo_is_exact_bounded_and_keyed_by_value():
    memo = photonsim.energy._priced_cells
    cfg = ModelConfig("memo", 8, 16, 2, 2)
    memo.cache_clear()
    # costs that compare equal but are written apart: an int, a float and a negative zero
    profiles = [HardwareProfile(e_maintain=zero) for zero in (0, 0.0, -0.0)]
    for _ in range(2):
        assert [repr(total_energy(cfg, p).cells["qkv"]["maintenance"]) for p in profiles] == [
            "0", "0.0", "-0.0"]
    assert memo.cache_info().currsize == 3
    # equal profiles that are distinct objects share an entry; a profile changed
    # in place is priced again
    memo.cache_clear()
    profile = default_profile()
    first = total_energy(cfg, profile).total()
    assert total_energy(cfg, default_profile()).total() == first
    assert memo.cache_info().hits == 1
    profile.e_dac *= 2
    assert total_energy(cfg, profile).total() > first
    assert memo.cache_info().currsize == 2
    limit = memo.cache_info().maxsize
    assert limit is not None
    for i in range(limit + 10):
        total_energy(cfg, policy=PhotonPolicy(reference_photons_per_mac=1000.0 + i))
    assert memo.cache_info().currsize == limit
