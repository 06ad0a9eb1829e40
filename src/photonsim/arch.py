"""Transformer shape accounting: MAC counts, scalar traffic, hardware sizing.

Counts cover one forward pass over a full context of n tokens for a
decoder-style model with pre-norm blocks and the feed-forward width of
WEIGHT_MATRICES. Embedding/unembedding lookups are excluded; only block
compute is billed.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property, lru_cache
from numbers import Integral, Real

# The weight matrices each layer keeps resident on the optical hardware, as
# (product class, rows, cols) with rows and cols in units of d, in the order
# init_weights draws them. Each is the right operand of its class's product.
WEIGHT_MATRICES = (("qkv", 1, 3), ("out_proj", 1, 1), ("ff1", 1, 4), ("ff2", 4, 1))

# The feed-forward width in units of d: the columns of ff1, which the
# activation runs over and ff2 reads back.
_FF_WIDTH = {name: cols for name, _, cols in WEIGHT_MATRICES}["ff1"]


# The rules of a number read from outside, each a (words, test) pair. A test
# sees only a real number that is not a bool; an int rule takes Python's ints
# alone, and a seed any integer, numpy's too.
NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)
POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
AT_LEAST_ONE = ("finite and >= 1", lambda v: 1 <= v < math.inf)
POSITIVE_OR_INF = ("> 0 or inf", lambda v: v > 0)  # NaN fails every test
COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
SEED = ("a non-negative integer", lambda v: isinstance(v, Integral) and v >= 0)


def check_number(name: str, value, rule: tuple) -> None:
    """Raise a ValueError naming `name` unless `value` is a real number, not a
    bool, that passes `rule`."""
    words, test = rule
    # int and float first: the ABC check costs more, and most values are one of them
    if type(value) is bool or not isinstance(value, (int, float, Real)) or not test(value):
        raise ValueError(f"{name} must be {words}, got {value!r}")


def json_fields(doc, cls, kind: str, **defaults) -> dict:
    """The fields of dataclass `cls` given by the JSON object `doc` (text or
    parsed) over `defaults`. A ValueError names a `doc` that is not an object
    (calling it `kind`), a key that is no field, and a field left without value."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown field '{key}'")
    data = {**defaults, **data}
    for name, f in known.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing field '{name}'")
    return data


@dataclass(frozen=True)
class ModelConfig:
    """Shape of one transformer model.

    Attributes:
        name: catalogue identifier.
        n: context length in tokens.
        d: model (embedding) dimension.
        h: number of attention heads.
        L: number of transformer layers.
    """

    name: str
    n: int
    d: int
    h: int
    L: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if "\0" in self.name:  # Python 3.10's csv.writer cannot write it
            raise ValueError(f"name must not hold a NUL, got {self.name!r}")
        for name in ("n", "d", "h", "L"):
            check_number(name, getattr(self, name), COUNT)

    @classmethod
    def from_json(cls, doc: str | dict, **defaults) -> "ModelConfig":
        """A config from the JSON object {name, n, d, h, L} (text or parsed);
        `defaults` give the value of a missing field."""
        return cls(**json_fields(doc, cls, "model config", **defaults))

    def to_json_dict(self) -> dict:
        """The JSON object that `from_json` reads."""
        return asdict(self)

    @property
    def head_dim(self) -> int:
        # Only simulation needs the per-head split; a few published shape
        # tables contain h values that do not divide d, and those models can
        # still be costed (counting never splits heads).
        if self.d % self.h != 0:
            raise ValueError(f"d must be divisible by h: d={self.d}, h={self.h}")
        return self.d // self.h

    @cached_property  # the chunking model asks for it once per scenario
    def layer_weight_count(self) -> int:
        """Weights in one layer's WEIGHT_MATRICES."""
        return sum(rows * cols for _, rows, cols in WEIGHT_MATRICES) * self.d * self.d

    @property
    def param_count(self) -> int:
        """Non-embedding weights of all L layers."""
        return self.L * self.layer_weight_count


@dataclass(frozen=True)
class ProductCounts:
    """Per-layer scalar accounting for one matrix product class."""

    macs: int
    loads: int    # scalars sent through memory read + DAC + modulator
    detects: int  # scalars through detector + amplifier + ADC + memory write


# Matrix product classes in execution order within one layer.
PRODUCT_CLASSES = ("qkv", "attn_qk", "attn_av", "out_proj", "ff1", "ff2")


@dataclass(frozen=True)
class ComputeBreakdown:
    """Per-layer operation counts for one model, by product class.

    `products` and `digital_elements` hold counts for a single layer;
    totals multiply by `layers`.
    """

    layers: int
    products: dict[str, ProductCounts]
    digital_elements: dict[str, int]

    @property
    def macs_per_layer(self) -> int:
        return sum(p.macs for p in self.products.values())

    @cached_property  # cost models ask for it once per report and per scenario
    def total_macs(self) -> int:
        return self.layers * self.macs_per_layer

    @property
    def detects_per_layer(self) -> int:
        return sum(p.detects for p in self.products.values())

    @property
    def digital_elements_per_layer(self) -> int:
        return sum(self.digital_elements.values())

    def mac_fractions(self) -> dict[str, float]:
        total = self.macs_per_layer
        return {k: p.macs / total for k, p in self.products.items()}


def product_counts(n: int, d: int, k: int, weights_in_place: bool = False) -> ProductCounts:
    """Accounting for a generic product A(n x d) @ B(d x k).

    Both operands are loaded scalar by scalar (n*d + d*k loads) unless the
    right operand is a weight matrix kept resident on the modulator array,
    in which case only the left operand is loaded. Every output is detected.
    """
    loads = n * d + (0 if weights_in_place else d * k)
    return ProductCounts(macs=n * d * k, loads=loads, detects=n * k)


@lru_cache(maxsize=256)  # a catalogue's reports and chunking scenarios ask per model
def compute_breakdown(config: ModelConfig) -> ComputeBreakdown:
    """Per-layer MAC and scalar-traffic counts for every product class.

    The WEIGHT_MATRICES stay in place on the optical hardware, so only their
    activations are loaded. Both attention products stream two activation
    operands; their counts are closed forms over all h heads, which need not
    divide d. Calls with equal configs share one result: do not modify it.
    """
    n, d, h = config.n, config.d, config.h
    products = dict.fromkeys(PRODUCT_CLASSES)  # fixes the key order
    for name, rows, cols in WEIGHT_MATRICES:
        products[name] = product_counts(n, rows * d, cols * d, weights_in_place=True)
    # per head Q K^T: h x [(n x d_h) @ (d_h x n)] = n^2 d MACs total
    products["attn_qk"] = ProductCounts(macs=n * n * d, loads=2 * n * d, detects=h * n * n)
    # per head (softmax scores) V: h x [(n x n) @ (n x d_h)] = n^2 d MACs
    products["attn_av"] = ProductCounts(macs=n * n * d, loads=h * n * n + n * d, detects=n * d)
    digital = {
        "softmax": h * n * n,   # one element per attention score
        "layernorm": 2 * n * d,  # two norms per layer
        "activation": _FF_WIDTH * n * d,  # relu6 over the ff1 output
        "residual": 2 * n * d,   # two residual adds per layer
    }
    return ComputeBreakdown(layers=config.L, products=products, digital_elements=digital)


@dataclass(frozen=True)
class HardwareRequirements:
    """Steady-state hardware needed to run one model layer-by-layer."""

    input_vector_elements: int
    detectors: int
    mvm_cores: int
    sram_bytes: int


def hardware_requirements(config: ModelConfig, core_size: float = 1e7) -> HardwareRequirements:
    """Size the optical hardware for one model.

    The widest vectors moved in one step are the feed-forward activations,
    so input modulators and detector counts are their width. Core count
    assumes the largest of the WEIGHT_MATRICES is tiled over MVM cores of
    `core_size` weights each. SRAM holds the n feed-forward activation
    vectors at one byte per scalar.
    """
    check_number("core_size", core_size, POSITIVE)
    d, width = config.d, _FF_WIDTH * config.d
    return HardwareRequirements(
        input_vector_elements=width,
        detectors=width,
        mvm_cores=math.ceil(max(r * c for _, r, c in WEIGHT_MATRICES) * d * d / core_size),
        sram_bytes=config.n * width,
    )


# Published decoder configurations: name -> (n, d, h, L).
_CATALOGUE_ROWS = [
    ("GPT2-117M", 1024, 768, 12, 12),
    ("GPT2-345M", 1024, 1024, 16, 24),
    ("GPT2-762M", 1024, 1280, 20, 36),
    ("GPT2-1.5B", 1024, 1600, 25, 48),
    ("Megatron-1.2B", 2048, 1536, 16, 40),
    ("Megatron-2.5B", 2048, 1920, 20, 54),
    ("Megatron-4.2B", 2048, 2304, 24, 64),
    ("Megatron-8.3B", 2048, 3072, 32, 72),
    ("GPT3-125M", 2048, 768, 12, 32),
    ("GPT3-350M", 2048, 1024, 16, 24),
    ("GPT3-760M", 2048, 1536, 16, 24),
    ("GPT3-1.3B", 2048, 2048, 24, 24),
    ("GPT3-2.7B", 2048, 2560, 32, 32),
    ("GPT3-6.7B", 2048, 4096, 32, 32),
    ("GPT3-13B", 2048, 5140, 40, 40),
    ("GPT3-175B", 2048, 12288, 96, 96),
    ("Turing-NLG-17B", 1024, 4256, 28, 78),
    ("MT-NLG-530B", 2048, 20480, 128, 105),
    ("Chinchilla-73M", 2048, 640, 10, 10),
    ("Chinchilla-305M", 2048, 1024, 16, 20),
    ("Chinchilla-552M", 2048, 1280, 10, 24),
    ("Chinchilla-1.1B", 2048, 1792, 14, 26),
    ("Chinchilla-1.6B", 2048, 2048, 16, 28),
    ("Chinchilla-6.8B", 2048, 3584, 28, 40),
    ("Chinchilla-70B", 2048, 8192, 64, 80),
    ("PaLM-like-8B", 2048, 4096, 16, 32),
    ("PaLM-like-62B", 2048, 8192, 32, 64),
    ("PaLM-like-540B", 2048, 18432, 48, 118),
    ("FUTURE-2.4T", 2048, 40960, 80, 120),
    ("FUTURE-16T", 2048, 81920, 128, 200),
    ("FUTURE-129T", 2048, 163840, 160, 400),
    ("FUTURE-4q", 2048, 655360, 512, 800),
]


def builtin_catalogue() -> list[ModelConfig]:
    """All built-in model configurations, smallest family first."""
    return [ModelConfig(name, n, d, h, L) for name, n, d, h, L in _CATALOGUE_ROWS]


def catalogue_from_json(text: str) -> list[ModelConfig]:
    """A catalogue from the text of a JSON array of {name, n, d, h, L} objects."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError(f"catalogue must be a JSON array, got {type(rows).__name__}")
    return [ModelConfig.from_json(row) for row in rows]


def find_model(name: str, catalogue: list[ModelConfig] | None = None) -> ModelConfig:
    """Look up a model by name (case-insensitive)."""
    configs = catalogue if catalogue is not None else builtin_catalogue()
    for config in configs:
        if config.name.lower() == name.lower():
            return config
    known = ", ".join(c.name for c in configs)
    raise KeyError(f"unknown model {name!r}; known models: {known}")
