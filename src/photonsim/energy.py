"""Energy and advantage model for optical transformer inference.

Per-scalar electrical costs at the optical boundary:
    load   = mem read + DAC + modulation   (per scalar entering the optics)
    detect = amplifier + ADC + mem write   (per scalar leaving the optics)
Optical energy is photons/MAC times photon energy; digital functions are
billed as one memory read + write per element. All figures are per forward
pass of one sequence.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields, replace

from .arch import ModelConfig, compute_breakdown, PRODUCT_CLASSES, WEIGHT_MATRICES

LAYER_CLASSES = PRODUCT_CLASSES + ("digital_fns",)
CATEGORIES = ("electrical_load", "electrical_detect", "optical", "maintenance", "digital")

# Flat per-MAC digital baselines, J/MAC.
DIGITAL_BASELINES = {
    "a100": 300e-15,          # current datacenter GPU
    "next_gen_gpu": 10e-15,   # hypothetical next-generation digital accelerator
}


@dataclass
class HardwareProfile:
    """Per-event energy costs and precisions of the modeled hardware."""

    e_read_offchip: float = 1e-12   # J/bit, off-chip memory
    e_read_sram: float = 0.3e-12    # J/bit, on-chip SRAM
    e_write: float = 0.3e-12        # J/bit (taken equal to the SRAM read)
    e_dac: float = 10e-12           # J per input sample (5-bit)
    e_mod: float = 1e-15            # J/bit modulated
    e_amp: float = 2.4e-12          # J per detected sample
    e_adc: float = 3.17e-12         # J per output sample (7-bit)
    e_maintain: float = 2e-18       # J/MAC to hold weights in place
    photon_energy: float = 1.602e-19  # J (1 eV)
    input_bits: int = 5
    mem_bits_per_scalar: int = 8    # memory traffic billed at 8 bits/scalar

    def __post_init__(self) -> None:
        for name in ("e_read_offchip", "e_read_sram", "e_write", "e_dac", "e_mod",
                     "e_amp", "e_adc", "e_maintain", "photon_energy"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("input_bits", "mem_bits_per_scalar"):
            if not 1 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 1")

    @property
    def load_cost(self) -> float:
        # per scalar sent into the optics
        return self.mem_bits_per_scalar * self.e_read_sram + self.e_dac + self.input_bits * self.e_mod

    @property
    def detect_cost(self) -> float:
        # per scalar read out of the optics
        return self.e_amp + self.e_adc + self.mem_bits_per_scalar * self.e_write

    @property
    def digital_element_cost(self) -> float:
        # one memory read + write per element of a digital function
        return self.mem_bits_per_scalar * (self.e_read_sram + self.e_write)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, doc: str | dict) -> "HardwareProfile":
        data = json.loads(doc) if isinstance(doc, str) else doc
        if not isinstance(data, dict):
            raise ValueError(f"profile must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown field '{key}'")
        return cls(**data)


def default_profile() -> HardwareProfile:
    return HardwareProfile()


def future_profile(base: HardwareProfile | None = None) -> HardwareProfile:
    """Projected-electronics variant: free weight maintenance, 32x cheaper
    converters, 5x cheaper memory, 10x cheaper amplification."""
    base = base or default_profile()
    return replace(
        base,
        e_maintain=0.0,
        e_dac=base.e_dac / 32,
        e_adc=base.e_adc / 32,
        e_read_offchip=base.e_read_offchip / 5,
        e_read_sram=base.e_read_sram / 5,
        e_write=base.e_write / 5,
        e_amp=base.e_amp / 10,
    )


@dataclass
class PhotonPolicy:
    """Photon budget per MAC as a function of model dimension.

    inverse_d keeps photons per dot product constant (the shot-noise SNR
    depends only on the total photons per output); constant keeps photons
    per MAC fixed; table looks d up in an explicit map.
    """

    reference_d: int = 192
    reference_photons_per_mac: float = 1500.0
    scaling: str = "inverse_d"
    table: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.scaling not in ("inverse_d", "constant", "table"):
            raise ValueError(f"scaling must be inverse_d/constant/table, got {self.scaling!r}")
        if self.reference_d < 1:
            raise ValueError("reference_d must be >= 1")
        if not self.reference_photons_per_mac > 0:
            raise ValueError("reference_photons_per_mac must be > 0")
        if self.scaling == "table" and not self.table:
            raise ValueError("table scaling requires a non-empty table")

    def photons_per_mac(self, d: int) -> float:
        if self.scaling == "inverse_d":
            return self.reference_photons_per_mac * self.reference_d / d
        if self.scaling == "constant":
            return self.reference_photons_per_mac
        if d not in self.table:
            known = sorted(self.table)
            raise KeyError(f"no photon count tabulated for d={d}; table covers {known}")
        return self.table[d]

    def to_json(self) -> str:
        data = asdict(self)
        if data["table"] is not None:
            data["table"] = {str(k): v for k, v in data["table"].items()}
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, doc: str | dict) -> "PhotonPolicy":
        data = json.loads(doc) if isinstance(doc, str) else doc
        if not isinstance(data, dict):
            raise ValueError(f"policy must be a JSON object, got {type(data).__name__}")
        data = dict(data)  # "table" is rewritten below
        table = data.get("table")
        if table is not None:
            if not isinstance(table, dict):
                raise ValueError(f"policy table must be a JSON object, got {type(table).__name__}")
            data["table"] = {int(k): float(v) for k, v in table.items()}
        return cls(**data)


def default_policy() -> PhotonPolicy:
    return PhotonPolicy()


def clipped_policy() -> PhotonPolicy:
    """Alternative aggressive-clipping budgets measured at small d only."""
    return PhotonPolicy(scaling="table", table={192: 120.0, 384: 40.0})


@dataclass
class EnergyReport:
    """Energy per (layer class, cost category) cell, in joules."""

    model: str
    total_macs: int
    cells: dict[str, dict[str, float]]
    baselines: dict[str, float]

    def total(self) -> float:
        # canonical summation order; the reported total is this sum exactly
        return sum(self.cells[c][cat] for c in LAYER_CLASSES for cat in CATEGORIES)

    def class_totals(self) -> dict[str, float]:
        return {c: sum(self.cells[c][cat] for cat in CATEGORIES) for c in LAYER_CLASSES}

    def category_totals(self) -> dict[str, float]:
        return {cat: sum(self.cells[c][cat] for c in LAYER_CLASSES) for cat in CATEGORIES}

    def advantages(self) -> dict[str, float]:
        total = self.total()
        return {name: self.total_macs * j_per_mac / total
                for name, j_per_mac in self.baselines.items()}

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "total_macs": self.total_macs,
            "cells": {c: dict(cats) for c, cats in self.cells.items()},
            "class_totals": self.class_totals(),
            "category_totals": self.category_totals(),
            "total_j": self.total(),
            "baselines_j_per_mac": dict(self.baselines),
            "advantages": self.advantages(),
        }

    def csv_rows(self) -> list[tuple[str, str, str, float]]:
        return [(self.model, c, cat, self.cells[c][cat])
                for c in LAYER_CLASSES for cat in CATEGORIES]


def _empty_cells() -> dict[str, dict[str, float]]:
    return {c: {cat: 0.0 for cat in CATEGORIES} for c in LAYER_CLASSES}


def _energy_report(config: ModelConfig, profile: HardwareProfile, photons_per_mac: float,
                   baselines: dict[str, float] | None) -> EnergyReport:
    breakdown = compute_breakdown(config)
    cells = _empty_cells()
    L = config.L
    for name, counts in breakdown.products.items():
        cells[name]["electrical_load"] = L * counts.loads * profile.load_cost
        cells[name]["electrical_detect"] = L * counts.detects * profile.detect_cost
        cells[name]["optical"] = L * counts.macs * photons_per_mac * profile.photon_energy
        cells[name]["maintenance"] = L * counts.macs * profile.e_maintain
    cells["digital_fns"]["digital"] = (
        L * breakdown.digital_elements_per_layer * profile.digital_element_cost)
    return EnergyReport(model=config.name, total_macs=breakdown.total_macs,
                        cells=cells, baselines=dict(baselines or DIGITAL_BASELINES))


def electrical_energy(config: ModelConfig, profile: HardwareProfile | None = None,
                      baselines: dict[str, float] | None = None) -> EnergyReport:
    """Electrical cells only: load/detect per product class, weight
    maintenance per MAC, and the digital-function memory traffic."""
    return _energy_report(config, profile or default_profile(), 0.0, baselines)


def total_energy(config: ModelConfig, profile: HardwareProfile | None = None,
                 policy: PhotonPolicy | None = None,
                 baselines: dict[str, float] | None = None) -> EnergyReport:
    """Full per-inference report: electrical + optical + maintenance + digital."""
    policy = policy or default_policy()
    return _energy_report(config, profile or default_profile(),
                          policy.photons_per_mac(config.d), baselines)


def advantage(config: ModelConfig, profile: HardwareProfile | None = None,
              policy: PhotonPolicy | None = None,
              digital_j_per_mac: float = DIGITAL_BASELINES["a100"]) -> float:
    """Energy ratio of a flat per-MAC digital system to the optical system."""
    if not digital_j_per_mac > 0:
        raise ValueError("digital_j_per_mac must be > 0")
    report = total_energy(config, profile, policy)
    return report.total_macs * digital_j_per_mac / report.total()


@dataclass
class ChunkingScenario:
    """Weights exceeding the in-place memory are cycled in chunks; inputs are
    reloaded once per chunk, and weight loads amortize over the batch."""

    memory_capacity_weights: float  # weights resident at once (1 byte/weight)
    batch_size: float = 1.0
    weight_load_energy: float | None = None  # J/bit off-chip; None = profile value

    def __post_init__(self) -> None:
        if not self.memory_capacity_weights > 0:
            raise ValueError("memory_capacity_weights must be > 0")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")

    def chunks(self, layer_weight_count: int) -> int:
        return max(1, math.ceil(layer_weight_count / self.memory_capacity_weights))


def chunked_onn_energy(config: ModelConfig, profile: HardwareProfile | None = None,
                       policy: PhotonPolicy | None = None,
                       scenario: ChunkingScenario | None = None,
                       baselines: dict[str, float] | None = None) -> EnergyReport:
    """Per-inference energy when weights are streamed in k chunks per layer.

    If every weight fits in the in-place memory there is nothing to stream
    and the report equals the plain weights-in-place total. Otherwise every
    activation-load term is paid k times and the off-chip weight loading
    (all weights, once per batch) is added, attributed to the weight-bearing
    classes in proportion to their weight counts.
    """
    profile = profile or default_profile()
    if scenario is None:
        raise ValueError("chunked_onn_energy requires a ChunkingScenario")
    report = total_energy(config, profile, policy, baselines)
    if config.param_count <= scenario.memory_capacity_weights:
        return report  # whole model resident: degenerate chunking
    k = scenario.chunks(config.layer_weight_count)
    for name in PRODUCT_CLASSES:
        report.cells[name]["electrical_load"] *= k
    j_per_bit = scenario.weight_load_energy
    if j_per_bit is None:
        j_per_bit = profile.e_read_offchip
    weight_load = (config.param_count * profile.mem_bits_per_scalar * j_per_bit
                   / scenario.batch_size)
    for name, rows, cols in WEIGHT_MATRICES:
        fraction = rows * cols * config.d * config.d / config.layer_weight_count
        report.cells[name]["electrical_load"] += weight_load * fraction
    return report


def chunked_gpu_energy(config: ModelConfig, digital_j_per_mac: float,
                       scenario: ChunkingScenario, dram_j_per_bit: float = 1e-12,
                       mem_bits_per_scalar: int = 8) -> float:
    """Digital system split over chunks: per-MAC compute plus activations
    crossing DRAM once per chunk after every layer."""
    breakdown = compute_breakdown(config)
    k = scenario.chunks(config.layer_weight_count)
    activation_scalars = config.L * config.n * config.d
    return (breakdown.total_macs * digital_j_per_mac
            + k * activation_scalars * mem_bits_per_scalar * dram_j_per_bit)
