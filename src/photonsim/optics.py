"""Simulated optical linear algebra.

Models the precision-limiting physics of an intensity-encoded optical
matrix multiplier: discrete modulation levels (lookup tables), signed
values split into four non-negative passes, Poisson shot noise at the
detector, and a mean-relative Gaussian systematic error.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, asdict, field

import numpy as np

QUANTIZER_MODES = ("ema", "percentile", "lut")
ROUNDING_MODES = ("deterministic", "stochastic")


def derive_seed(seed: int, *keys: int) -> int:
    """Stable 64-bit child seed for (seed, op-counter...) derivation."""
    state = np.random.SeedSequence([int(seed), *[int(k) for k in keys]]).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(k) for k in keys]]))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# Lookup tables


@dataclass
class LookupTable:
    """Representable transmission levels of a modulation device.

    Levels are fractions of the maximum transmission: sorted ascending,
    non-negative, normalized so the top level is exactly 1.0. `floor` is the
    minimum nonzero transmission (devices that cannot fully extinguish have
    no zero level and floor > 0).
    """

    levels: np.ndarray
    floor: float = 0.0

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D sequence")
        if np.any(np.diff(levels) < 0):
            raise ValueError("levels must be sorted ascending")
        if levels[0] < 0:
            raise ValueError("levels must be non-negative")
        if abs(levels[-1] - 1.0) > 1e-12:
            raise ValueError(f"levels must be normalized to max 1.0, got max {levels[-1]}")
        if not 0 <= self.floor < 1:
            raise ValueError(f"floor must be in [0, 1), got {self.floor}")
        nonzero = levels[levels > 0]
        if self.floor > 0 and nonzero.size and nonzero.min() < self.floor - 1e-12:
            raise ValueError("nonzero levels fall below the stated floor")
        levels.flags.writeable = False
        self.levels = levels

    @property
    def unique_levels(self) -> np.ndarray:
        return np.unique(self.levels)

    @property
    def unique_count(self) -> int:
        return int(self.unique_levels.size)


def lut_synthesize(unique_levels: int, total_levels: int, floor: float = 0.0) -> LookupTable:
    """Build an idealized LUT: `unique_levels` values uniformly spaced in
    [floor, 1], padded to `total_levels` entries by nearest-level duplicates.
    """
    if unique_levels < 1:
        raise ValueError("unique_levels must be >= 1")
    if total_levels < unique_levels:
        raise ValueError("total_levels must be >= unique_levels")
    if not 0 <= floor < 1:
        raise ValueError(f"floor must be in [0, 1), got {floor}")
    if unique_levels == 1:
        return LookupTable(levels=np.ones(total_levels), floor=floor)
    uniq = np.linspace(floor, 1.0, unique_levels)
    raw = np.linspace(floor, 1.0, total_levels)
    table = _snap_deterministic(raw, uniq)
    return LookupTable(levels=table, floor=floor)


def load_lut(path: str | os.PathLike) -> LookupTable:
    """Read a LUT CSV (`level_index,value` rows, ascending index)."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["level_index", "value"]:
            raise ValueError(f"{path}: expected header 'level_index,value'")
        for i, row in enumerate(reader):
            if len(row) < 2:
                raise ValueError(f"{path}: row {i} needs 'level_index,value', got {row}")
            if int(row[0]) != i:
                raise ValueError(f"{path}: level_index must ascend from 0, got {row[0]} at row {i}")
            values.append(float(row[1]))
    levels = np.asarray(values)
    if np.any(levels < 0) or np.any(levels > 1):
        raise ValueError(f"{path}: values must lie in [0, 1]")
    nonzero = levels[levels > 0]
    floor = float(nonzero.min()) if nonzero.size else 0.0
    return LookupTable(levels=levels, floor=floor)


def save_lut(path: str | os.PathLike, lut: LookupTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level_index", "value"])
        for i, value in enumerate(lut.levels):
            writer.writerow([i, f"{value:.9g}"])


# --------------------------------------------------------------------------
# Quantization


@dataclass
class QuantizerSpec:
    """How real values map onto representable levels.

    mode: "ema" (running min/max affine grid), "percentile" (symmetric grid
    clipped at a percentile of |values|), or "lut" (device levels).
    clip_percentile = 100 means clip at the max.
    """

    mode: str = "percentile"
    bits: int = 8
    ema_gamma: float = 0.999
    clip_percentile: float = 100.0
    rounding: str = "deterministic"

    def __post_init__(self) -> None:
        if self.mode not in QUANTIZER_MODES:
            raise ValueError(f"mode must be one of {QUANTIZER_MODES}, got {self.mode!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}, got {self.rounding!r}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if not 0 < self.ema_gamma < 1:
            raise ValueError(f"ema_gamma must be in (0, 1), got {self.ema_gamma}")
        if not 0 < self.clip_percentile <= 100:
            raise ValueError(f"clip_percentile must be in (0, 100], got {self.clip_percentile}")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, doc: str | dict) -> "QuantizerSpec":
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
        return cls(**data)


@dataclass
class EmaState:
    """Running min/max for the EMA quantizer. One state per simulation
    context; not safe to share across concurrent runs."""

    lo: float | None = None
    hi: float | None = None

    def update(self, batch_lo: float, batch_hi: float, gamma: float) -> None:
        if self.lo is None:
            self.lo, self.hi = batch_lo, batch_hi
        else:
            self.lo = gamma * self.lo + (1 - gamma) * batch_lo
            self.hi = gamma * self.hi + (1 - gamma) * batch_hi


def _snap_deterministic(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest level; exact ties go to the even level index."""
    if np.ndim(x) == 0:  # the in-place steps below need an array
        return _snap_deterministic(np.reshape(x, 1), levels).reshape(())
    # few temporaries: this runs on every element of every LUT operand
    hi_idx = np.searchsorted(levels, x, side="left")
    np.clip(hi_idx, 1, levels.size - 1, out=hi_idx)
    hi = levels[hi_idx]
    lo = levels[hi_idx - 1]
    d_lo = x - lo
    d_hi = hi - x
    pick_lo = d_lo < d_hi
    tie = np.equal(d_lo, d_hi)
    hi_idx &= 1  # an odd hi index means an even lo index
    np.logical_and(tie, hi_idx, out=tie)
    pick_lo |= tie
    np.copyto(hi, lo, where=pick_lo)
    return hi


def _snap_stochastic(x: np.ndarray, levels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bracketing levels chosen with probability proportional to proximity."""
    hi_idx = np.clip(np.searchsorted(levels, x, side="left"), 1, levels.size - 1)
    lo_idx = hi_idx - 1
    lo, hi = levels[lo_idx], levels[hi_idx]
    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        p_up = np.where(width > 0, (x - lo) / np.where(width > 0, width, 1.0), 0.0)
    p_up = np.clip(p_up, 0.0, 1.0)  # out-of-range values clamp deterministically
    return np.where(rng.random(x.shape) < p_up, hi, lo)


def _snap(x, levels, rounding, rng):
    if rounding == "stochastic":
        return _snap_stochastic(x, levels, rng)
    return _snap_deterministic(x, levels)


def _clip_scale(magnitudes: np.ndarray, percentile: float) -> float:
    # "higher" interpolation keeps the clip point on a representable value
    # after quantization, which makes deterministic quantization idempotent.
    if percentile >= 100:
        return float(magnitudes.max())
    return float(np.percentile(magnitudes, percentile, method="higher"))


def quantize(values, spec: QuantizerSpec, lut: LookupTable | None = None,
             state: EmaState | None = None, rng=None) -> np.ndarray:
    """Map values onto representable levels per `spec`.

    - lut mode: magnitudes normalized by the clip scale are snapped to LUT
      levels, sign restored; exact zeros stay zero.
    - percentile mode: uniform magnitude grid on [0, clip], sign restored;
      tensors that are entirely non-negative get the full 2^bits levels,
      signed tensors get 2^(bits-1) magnitude levels plus sign.
    - ema mode: affine grid over the (running) min/max range.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    if spec.rounding == "stochastic" and rng is None:
        raise ValueError("stochastic rounding requires an rng or seed")
    rng = _as_rng(rng) if spec.rounding == "stochastic" else None

    if spec.mode == "ema":
        batch_lo, batch_hi = float(values.min()), float(values.max())
        if state is not None:
            state.update(batch_lo, batch_hi, spec.ema_gamma)
            lo, hi = state.lo, state.hi
        else:
            lo, hi = batch_lo, batch_hi
        if lo == hi:
            return values.copy()
        grid = np.linspace(lo, hi, 2 ** spec.bits)
        return _snap(np.clip(values, lo, hi), grid, spec.rounding, rng)

    magnitudes = np.abs(values)
    scale = _clip_scale(magnitudes, spec.clip_percentile)
    if scale == 0.0:
        return np.zeros_like(values)
    if values.ndim == 0:  # the in-place steps below need an array
        return quantize(values.reshape(1), spec, lut, rng=rng)[0]
    normalized = np.divide(magnitudes, scale, out=magnitudes)
    np.minimum(normalized, 1.0, out=normalized)

    if spec.mode == "lut":
        if lut is None:
            raise ValueError("lut mode requires a LookupTable")
        levels = lut.unique_levels
    else:  # percentile
        n_levels = 2 ** spec.bits if values.min() >= 0 else 2 ** (spec.bits - 1)
        if n_levels < 2:
            n_levels = 2
        levels = np.linspace(0.0, 1.0, n_levels)

    snapped = _snap(normalized, levels, spec.rounding, rng)
    del normalized, magnitudes
    # out of place: numpy picks the layout from both operands, and the bits of
    # the matmuls downstream can depend on that layout
    out = np.sign(values) * snapped
    out *= scale
    return out


# --------------------------------------------------------------------------
# Four-pass decomposition


@dataclass(frozen=True)
class FourPassOperands:
    """Signed product split into four products of non-negative matrices:
    WX = W+X+ - |W-|X+ - W+|X-| + |W-||X-|, signs (+, -, -, +)."""

    w_pos: np.ndarray
    w_neg: np.ndarray  # |W-|
    x_pos: np.ndarray
    x_neg: np.ndarray  # |X-|

    def passes(self):
        """Yield (left, right, sign) for the four non-negative products."""
        return (
            (self.w_pos, self.x_pos, 1.0),
            (self.w_neg, self.x_pos, -1.0),
            (self.w_pos, self.x_neg, -1.0),
            (self.w_neg, self.x_neg, 1.0),
        )


def four_pass_decompose(w, x) -> FourPassOperands:
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"incompatible shapes {w.shape} @ {x.shape}")
    return FourPassOperands(
        w_pos=np.where(w > 0, w, 0.0),
        w_neg=np.where(w < 0, -w, 0.0),
        x_pos=np.where(x > 0, x, 0.0),
        x_neg=np.where(x < 0, -x, 0.0),
    )


def recombine(operands: FourPassOperands) -> np.ndarray:
    total = None
    for left, right, sign in operands.passes():
        term = sign * (left @ right)
        total = term if total is None else total + term
    return total


# --------------------------------------------------------------------------
# Noise


@dataclass
class NoiseSpec:
    """Noise configuration for one simulated run.

    photons_per_mac is the mean photon budget per multiply-accumulate;
    math.inf turns shot noise off. Percentages are mean-relative Gaussian
    systematic error per layer class.
    """

    systematic_percent_ff: float = 0.0
    systematic_percent_attn: float = 0.0
    photons_per_mac: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.systematic_percent_ff >= 0 and self.systematic_percent_attn >= 0):
            raise ValueError("systematic percentages must be >= 0")
        if not self.photons_per_mac > 0:
            raise ValueError(f"photons_per_mac must be > 0 or inf, got {self.photons_per_mac}")

    def to_json(self) -> str:
        data = asdict(self)
        if math.isinf(self.photons_per_mac):
            data["photons_per_mac"] = None  # JSON has no Infinity
        return json.dumps(data)

    @classmethod
    def from_json(cls, doc: str | dict) -> "NoiseSpec":
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
        if data.get("photons_per_mac") in (None, "inf"):
            data["photons_per_mac"] = math.inf
        return cls(**data)


def apply_shot_noise(outputs, photons_per_mac: float, macs_per_output: int, seed=None) -> np.ndarray:
    """Poisson-sample non-negative outputs at a mean photon budget.

    Outputs are scaled so their mean corresponds to
    photons_per_mac * macs_per_output photons, each value is used as the
    mean of a Poisson draw, and the samples are scaled back.
    """
    outputs = np.asarray(outputs, dtype=float)
    if np.any(outputs < 0):
        raise ValueError("shot noise is only defined on non-negative intensities")
    if not photons_per_mac > 0:
        raise ValueError(f"photons_per_mac must be > 0, got {photons_per_mac}")
    if macs_per_output < 1:
        raise ValueError(f"macs_per_output must be >= 1, got {macs_per_output}")
    if math.isinf(photons_per_mac):
        return outputs.copy()
    mean = outputs.mean()
    if mean == 0.0:
        return outputs.copy()  # Poisson(0) = 0 a.s.
    scale = (photons_per_mac * macs_per_output) / mean
    rng = _as_rng(seed)
    return rng.poisson(outputs * scale) / scale


def apply_systematic_noise(outputs, percent: float, seed=None) -> np.ndarray:
    """Add zero-mean Gaussian noise with std = (percent/100) * mean(|outputs|)."""
    outputs = np.asarray(outputs, dtype=float)
    if percent < 0:
        raise ValueError(f"percent must be >= 0, got {percent}")
    if percent == 0:
        return outputs.copy()
    sigma = (percent / 100.0) * np.abs(outputs).mean() if outputs.size else 0.0
    if sigma == 0.0:
        return outputs.copy()
    rng = _as_rng(seed)
    return outputs + rng.normal(0.0, sigma, outputs.shape)


_LUT_QUANTIZER = QuantizerSpec(mode="lut", rounding="deterministic")


def lut_snap(values, lut: LookupTable) -> np.ndarray:
    """Deterministic LUT quantization, as `optical_matmul` applies to its operands."""
    return quantize(values, _LUT_QUANTIZER, lut=lut)


def optical_matmul(w, x, noise: NoiseSpec | None = None,
                   input_lut: LookupTable | None = None,
                   weight_lut: LookupTable | None = None,
                   seed=None, *, kind: str = "ff",
                   photon_accounting: str = "per_pass") -> np.ndarray:
    """Full simulated pipeline for one product W @ X.

    Quantize operands through their LUTs, decompose into four non-negative
    passes, shot-noise each pass, recombine with signs, then add the
    systematic error for this layer class. kind selects which systematic
    percentage applies: "ff" for weight products, "attn" for
    activation-activation products (both operands then use the input LUT).

    photon_accounting: "per_pass" gives each pass the full per-MAC budget
    (each pass is a separate shot-noise-limited readout); "shared" splits
    one budget across the four passes.
    """
    if noise is None:
        noise = NoiseSpec()
    if kind not in ("ff", "attn"):
        raise ValueError(f"kind must be 'ff' or 'attn', got {kind!r}")
    if photon_accounting not in ("per_pass", "shared"):
        raise ValueError(f"photon_accounting must be 'per_pass' or 'shared', got {photon_accounting!r}")
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"incompatible shapes {w.shape} @ {x.shape}")

    rng = _as_rng(seed if seed is not None else noise.seed)
    w_side_lut = input_lut if kind == "attn" else weight_lut
    if w_side_lut is not None:
        w = lut_snap(w, w_side_lut)
    if input_lut is not None:
        x = lut_snap(x, input_lut)

    if math.isinf(noise.photons_per_mac):
        # no shot noise: the four passes recombine to the plain product, so
        # compute it directly (bit-identical to quantized digital matmul)
        product = w @ x
    else:
        budget = noise.photons_per_mac
        if photon_accounting == "shared":
            budget /= 4.0
        macs_per_output = w.shape[1]
        product = np.zeros((w.shape[0], x.shape[1]))
        for left, right, sign in four_pass_decompose(w, x).passes():
            term = apply_shot_noise(left @ right, budget, macs_per_output, seed=rng)
            product = product + sign * term

    percent = noise.systematic_percent_attn if kind == "attn" else noise.systematic_percent_ff
    return apply_systematic_noise(product, percent, seed=rng)


def empirical_snr(samples) -> float:
    """Element-wise mean/std over repeated samples, aggregated by mean.

    Returns math.inf when the samples are identical (noiseless sentinel).
    """
    if len(samples) < 2:
        raise ValueError("empirical_snr needs at least 2 samples")
    stack = np.stack([np.asarray(s, dtype=float) for s in samples])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(std > 0, np.abs(mean) / np.where(std > 0, std, 1.0), math.inf)
    return float(ratio.mean())
