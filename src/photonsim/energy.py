"""Energy and advantage model for optical transformer inference.

Per-scalar electrical costs at the optical boundary:
    load   = mem read + DAC + modulation   (per scalar entering the optics)
    detect = amplifier + ADC + mem write   (per scalar leaving the optics)
Optical energy is photons/MAC times photon energy; digital functions are
billed as one memory read + write per element. All figures are per forward
pass of one sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .arch import (AT_LEAST_ONE, COUNT, NON_NEGATIVE, POSITIVE, ModelConfig, PRODUCT_CLASSES,
                   WEIGHT_MATRICES, check_number, compute_breakdown, json_fields)

LAYER_CLASSES = PRODUCT_CLASSES + ("digital_fns",)
CATEGORIES = ("electrical_load", "electrical_detect", "optical", "maintenance", "digital")
_BY_CATEGORY = itemgetter(*CATEGORIES)

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
        for f in fields(self):  # by declared type
            check_number(f.name, getattr(self, f.name), COUNT if f.type == "int" else NON_NEGATIVE)

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

    @classmethod
    def from_json(cls, doc: str | dict) -> "HardwareProfile":
        return cls(**json_fields(doc, cls, "profile"))


def default_profile() -> HardwareProfile:
    return HardwareProfile()


# what a call given no profile prices with; never modified
_DEFAULT_PROFILE = default_profile()


def future_profile(base: HardwareProfile | None = None) -> HardwareProfile:
    """Projected-electronics variant: free weight maintenance, 32x cheaper
    converters, 5x cheaper memory, 10x cheaper amplification."""
    base = base or _DEFAULT_PROFILE
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
        check_number("reference_d", self.reference_d, COUNT)
        check_number("reference_photons_per_mac", self.reference_photons_per_mac, POSITIVE)
        if self.scaling == "table" and not self.table:
            raise ValueError("table scaling requires a non-empty table")
        for d, photons in (self.table or {}).items():
            check_number("each table key", d, COUNT)
            check_number(f"table photons per MAC at d={d}", photons, POSITIVE)

    def photons_per_mac(self, d: int) -> float:
        if self.scaling == "inverse_d":
            return self.reference_photons_per_mac * self.reference_d / d
        if self.scaling == "constant":
            return self.reference_photons_per_mac
        if d not in self.table:
            known = sorted(self.table)
            raise KeyError(f"no photon count tabulated for d={d}; table covers {known}")
        return float(self.table[d])

    @classmethod
    def from_json(cls, doc: str | dict) -> "PhotonPolicy":
        data = json_fields(doc, cls, "policy")
        table = data.get("table")
        if table is not None:
            if not isinstance(table, dict):
                raise ValueError(f"policy table must be a JSON object, got {type(table).__name__}")
            # JSON object keys are text: plain decimal digits read as an integer,
            # and any other key is checked as given
            data["table"] = {int(k) if isinstance(k, str) and k.isascii() and k.isdigit()
                             else k: v for k, v in table.items()}
        return cls(**data)


def default_policy() -> PhotonPolicy:
    return PhotonPolicy()


# what a call given no policy prices with; never modified
_DEFAULT_POLICY = default_policy()


def clipped_policy() -> PhotonPolicy:
    """Alternative aggressive-clipping budgets measured at small d only."""
    return PhotonPolicy(scaling="table", table={192: 120.0, 384: 40.0})


def energy_ratio(joules: float, optical_joules: float) -> float:
    """The advantage `joules / optical_joules`: infinite for an optical system
    that costs nothing, as under a profile that prices every event at 0."""
    return joules / optical_joules if optical_joules else math.inf


@dataclass
class EnergyReport:
    """Energy per (layer class, cost category) cell, in joules."""

    model: str
    total_macs: int
    cells: dict[str, dict[str, float]]
    baselines: dict[str, float]

    def _rows(self):
        # each class's cells in CATEGORIES order, classes in LAYER_CLASSES order
        return map(_BY_CATEGORY, map(self.cells.__getitem__, LAYER_CLASSES))

    def total(self) -> float:
        # canonical summation order; the reported total is this sum exactly
        return sum(chain.from_iterable(self._rows()))

    def class_totals(self) -> dict[str, float]:
        return dict(zip(LAYER_CLASSES, map(sum, self._rows())))

    def category_totals(self) -> dict[str, float]:
        return dict(zip(CATEGORIES, map(sum, zip(*self._rows()))))

    def advantages(self) -> dict[str, float]:
        total = self.total()
        return {name: energy_ratio(self.total_macs * j_per_mac, total)
                for name, j_per_mac in self.baselines.items()}

    def to_json_dict(self) -> dict:
        """The report as a JSON object: each value of json_row at its key in
        json_header, the layout that energy.json's rows are written in."""
        doc = {}
        for path, value in zip(self.json_header(), self.json_row()):
            *parents, key = path if type(path) is tuple else (path,)
            node = doc
            for name in parents:
                node = node.setdefault(name, {})
            node[key] = value
        return doc

    def json_header(self) -> list:
        """The key of each value of to_json_dict in its order, as a tuple of
        keys where the value is in a nested object: the header of json_row.
        A class with no cells, or a report with no baselines, has no key here
        and no object in to_json_dict."""
        return (["model", "total_macs"]
                + [("cells", c, cat) for c, cats in self.cells.items() for cat in cats]
                + [("class_totals", c) for c in LAYER_CLASSES]
                + [("category_totals", cat) for cat in CATEGORIES] + ["total_j"]
                + [("baselines_j_per_mac", name) for name in self.baselines]
                + [("advantages", name) for name in self.baselines])

    def json_row(self) -> list:
        """The values of json_header's keys in its order."""
        rows = list(self._rows())
        return ([self.model, self.total_macs]
                + [v for cats in self.cells.values() for v in cats.values()]
                + list(map(sum, rows)) + list(map(sum, zip(*rows))) + [self.total()]
                + list(self.baselines.values()) + list(self.advantages().values()))

    def csv_rows(self) -> list[tuple[str, str, str, float]]:
        return [(self.model, c, cat, self.cells[c][cat])
                for c in LAYER_CLASSES for cat in CATEGORIES]


@lru_cache(maxsize=256, typed=True)  # typed: an int cost prices its cells as ints
def _priced_cells(config: ModelConfig, zero_signs: tuple, photons_per_mac: float,
                  load_cost: float, detect_cost: float, photon_energy: float,
                  e_maintain: float, element_cost: float) -> tuple[dict, int]:
    """The weights-in-place cells of `config` at these costs, and its MACs. Equal keys
    share one result: copy it. `zero_signs` tells -0.0 from 0.0, which compare equal."""
    breakdown = compute_breakdown(config)
    cells = {c: dict.fromkeys(CATEGORIES, 0.0) for c in LAYER_CLASSES}
    L = config.L
    for name, counts in breakdown.products.items():
        cells[name]["electrical_load"] = L * counts.loads * load_cost
        cells[name]["electrical_detect"] = L * counts.detects * detect_cost
        cells[name]["optical"] = L * counts.macs * photons_per_mac * photon_energy
        cells[name]["maintenance"] = L * counts.macs * e_maintain
    cells["digital_fns"]["digital"] = L * breakdown.digital_elements_per_layer * element_cost
    return cells, breakdown.total_macs


def total_energy(config: ModelConfig, profile: HardwareProfile | None = None,
                 policy: PhotonPolicy | None = None,
                 baselines: dict[str, float] | None = None) -> EnergyReport:
    """Full per-inference report: electrical + optical + maintenance + digital."""
    profile = profile or _DEFAULT_PROFILE
    costs = ((policy or _DEFAULT_POLICY).photons_per_mac(config.d), profile.load_cost,
             profile.detect_cost, profile.photon_energy, profile.e_maintain,
             profile.digital_element_cost)
    zero_signs = () if all(costs) else tuple([math.copysign(1.0, c) for c in costs if not c])
    cells, total_macs = _priced_cells(config, zero_signs, *costs)
    return EnergyReport(model=config.name, total_macs=total_macs,
                        cells={c: cats.copy() for c, cats in cells.items()},
                        baselines=dict(baselines or DIGITAL_BASELINES))


def advantage(config: ModelConfig, profile: HardwareProfile | None = None,
              policy: PhotonPolicy | None = None,
              digital_j_per_mac: float = DIGITAL_BASELINES["a100"]) -> float:
    """Energy ratio of a flat per-MAC digital system to the optical system."""
    check_number("digital_j_per_mac", digital_j_per_mac, POSITIVE)
    report = total_energy(config, profile, policy, baselines={"digital": digital_j_per_mac})
    return report.advantages()["digital"]


@dataclass
class ChunkingScenario:
    """Weights exceeding the in-place memory are cycled in chunks; inputs are
    reloaded once per chunk, and weight loads amortize over the batch."""

    memory_capacity_weights: float  # weights resident at once (1 byte/weight)
    batch_size: float = 1.0

    def __post_init__(self) -> None:
        check_number("memory_capacity_weights", self.memory_capacity_weights, POSITIVE)
        check_number("batch_size", self.batch_size, AT_LEAST_ONE)

    def chunks(self, layer_weight_count: int) -> int:
        return max(1, math.ceil(layer_weight_count / self.memory_capacity_weights))


def chunked_onn_energy(config: ModelConfig, profile: HardwareProfile | None = None,
                       policy: PhotonPolicy | None = None, *,
                       scenario: ChunkingScenario) -> EnergyReport:
    """Per-inference energy when weights are streamed in k chunks per layer.

    If every weight fits in the in-place memory there is nothing to stream
    and the report equals the plain weights-in-place total. Otherwise every
    activation-load term is paid k times and the off-chip weight loading
    (all weights, once per batch, at the profile's e_read_offchip) is added,
    attributed to the weight-bearing classes in proportion to their weight
    counts.
    """
    profile = profile or _DEFAULT_PROFILE
    report = total_energy(config, profile, policy)
    if config.param_count <= scenario.memory_capacity_weights:
        return report  # whole model resident: degenerate chunking
    k = scenario.chunks(config.layer_weight_count)
    for name in PRODUCT_CLASSES:
        report.cells[name]["electrical_load"] *= k
    weight_load = (config.param_count * profile.mem_bits_per_scalar * profile.e_read_offchip
                   / scenario.batch_size)
    for name, rows, cols in WEIGHT_MATRICES:
        fraction = rows * cols * config.d * config.d / config.layer_weight_count
        report.cells[name]["electrical_load"] += weight_load * fraction
    return report


def chunked_gpu_energy(config: ModelConfig, digital_j_per_mac: float,
                       scenario: ChunkingScenario, dram_j_per_bit: float = 1e-12) -> float:
    """Digital system split over chunks: per-MAC compute plus activations
    crossing DRAM, at 8 bits per scalar, once per chunk after every layer."""
    breakdown = compute_breakdown(config)
    k = scenario.chunks(config.layer_weight_count)
    activation_scalars = config.L * config.n * config.d
    return (breakdown.total_macs * digital_j_per_mac
            + k * activation_scalars * 8 * dram_j_per_bit)
