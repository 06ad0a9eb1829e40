"""Simulated optical linear algebra.

Models the precision-limiting physics of an intensity-encoded optical
matrix multiplier: discrete modulation levels (lookup tables), signed
values split into four non-negative passes, Poisson shot noise at the
detector, and a mean-relative Gaussian systematic error.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .arch import COUNT, NON_NEGATIVE, POSITIVE_OR_INF, SEED, check_number
from .artifacts import Table, write_csv

QUANTIZER_MODES = ("percentile", "lut")
ROUNDING_MODES = ("deterministic", "stochastic")

# Mean photon count per output (photons per MAC x MACs per output) from which
# `optical_matmul` draws shot noise as one Gaussian per output, the large-count
# limit of Hamerly et al., PRX 2019 (arXiv:1812.07614). Below it each of the
# four passes is Poisson-sampled exactly, as the few-photon regime of Wang et
# al., Nat. Commun. 2022 (arXiv:2104.13467) needs. At 1000 photons an
# output's Poisson skewness is 1/sqrt(1000), about 3%.
GAUSSIAN_SHOT_PHOTONS = 1000.0

# Most bins a LookupTable's snap table may have. A LUT with three levels
# closer together than a bin (a loaded CSV can have them) snaps by binary
# search.
MAX_SNAP_BINS = 1 << 16

# Elements per block of a table snap, whose operand x = min(|v| / scale, 1)
# lies in [0, 1] at a finite scale: 256 KiB per float temporary, so that a
# block's temporaries stay in cache. Under glibc's default mmap threshold of
# 128 KiB each such temporary is a fresh mapping, whose pages fault in anew
# on every block; `simulate` and `sweep` raise the threshold
# (`cli._keep_freed_pages`).
_SNAP_BLOCK = 1 << 15


def _seed_sequence(seed: int, keys: tuple) -> np.random.SeedSequence:
    entropy = (seed, *keys)
    for value in entropy:  # int() would truncate a float
        check_number("each seed and key", value, SEED)
    return np.random.SeedSequence([int(value) for value in entropy])


def derive_seed(seed: int, *keys: int) -> int:
    """Stable 64-bit child seed for (seed, op-counter...) derivation."""
    state = _seed_sequence(seed, keys).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(seed, keys))


# --------------------------------------------------------------------------
# Lookup tables


@dataclass(frozen=True)
class LookupTable:
    """Representable transmission levels of a modulation device.

    Levels are fractions of the maximum transmission: sorted ascending,
    non-negative, normalized so the top level is exactly 1.0. The table is
    immutable, so what is derived from its levels is computed once.
    """

    levels: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        if not np.isfinite(levels).all():  # NaN slips through every comparison below
            raise ValueError("levels must be finite")
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D sequence")
        if np.any(np.diff(levels) < 0):
            raise ValueError("levels must be sorted ascending")
        if levels[0] < 0:
            raise ValueError("levels must be non-negative")
        if abs(levels[-1] - 1.0) > 1e-12:
            raise ValueError(f"levels must be normalized to max 1.0, got max {levels[-1]}")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)

    @cached_property
    def unique_levels(self) -> np.ndarray:
        levels = np.unique(self.levels)
        levels.flags.writeable = False
        return levels

    @cached_property
    def snap_table(self) -> _SnapTable | None:
        """`_SnapTable` of `unique_levels`, or None when their breakpoints are
        too close for MAX_SNAP_BINS bins."""
        return _snap_table(self.unique_levels)


def lut_synthesize(unique_levels: int, total_levels: int, floor: float = 0.0) -> LookupTable:
    """Build an idealized LUT: `unique_levels` values uniformly spaced in
    [floor, 1], padded to `total_levels` entries by nearest-level duplicates.
    """
    check_number("unique_levels", unique_levels, COUNT)
    check_number("total_levels", total_levels, COUNT)
    if total_levels < unique_levels:
        raise ValueError("total_levels must be >= unique_levels")
    check_number("floor", floor, ("in [0, 1)", lambda v: 0 <= v < 1))
    if unique_levels == 1:
        return LookupTable(levels=np.ones(total_levels))
    uniq = np.linspace(floor, 1.0, unique_levels)
    raw = np.linspace(floor, 1.0, total_levels)
    return LookupTable(levels=_snap_deterministic(raw, uniq))


def lut_from_csv(text: str) -> LookupTable:
    """A LUT from CSV text: a `level_index,value` header, then rows of
    ascending index."""
    values = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [c.strip() for c in header[:2]] != ["level_index", "value"]:
        raise ValueError("expected header 'level_index,value'")
    for i, row in enumerate(reader):
        if len(row) < 2:
            raise ValueError(f"row {i} needs 'level_index,value', got {row}")
        if int(row[0]) != i:
            raise ValueError(f"level_index must ascend from 0, got {row[0]} at row {i}")
        values.append(float(row[1]))
    levels = np.asarray(values)
    if np.any(levels < 0) or np.any(levels > 1):
        raise ValueError("values must lie in [0, 1]")
    return LookupTable(levels=levels)


def save_lut(path: str | os.PathLike, lut: LookupTable) -> None:
    write_csv(path, Table(["level_index", "value"], list(enumerate(lut.levels))))


# --------------------------------------------------------------------------
# Quantization


@dataclass
class QuantizerSpec:
    """How real values map onto representable levels.

    mode: "percentile" (symmetric grid clipped at a percentile of |values|)
    or "lut" (device levels). clip_percentile = 100 means clip at the max.
    """

    mode: str = "percentile"
    bits: int = 8
    clip_percentile: float = 100.0
    rounding: str = "deterministic"

    def __post_init__(self) -> None:
        if self.mode not in QUANTIZER_MODES:
            raise ValueError(f"mode must be one of {QUANTIZER_MODES}, got {self.mode!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}, got {self.rounding!r}")
        check_number("bits", self.bits, COUNT)
        check_number("clip_percentile", self.clip_percentile,
                     ("in (0, 100]", lambda v: 0 < v <= 100))


def _bracket(x: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each x, the index of the upper of the two levels around it, and
    those two levels, lower then upper."""
    hi_idx = np.clip(np.searchsorted(levels, x, side="left"), 1, levels.size - 1)
    return hi_idx, levels[hi_idx - 1], levels[hi_idx]


def _snap_deterministic(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest level; exact ties go to the even level index."""
    hi_idx, lo, hi = _bracket(x, levels)
    d_lo, d_hi = x - lo, hi - x
    # an odd hi index means an even lo index
    return np.where((d_lo < d_hi) | ((d_lo == d_hi) & (hi_idx % 2 == 1)), lo, hi)


class _SnapTable(NamedTuple):
    """`_snap_deterministic` of some levels, for x in [0, 1], as a table lookup.

    That snap is monotone in x, so each level after the first is the result
    from its breakpoint, the smallest float snapped to it, up to the next
    breakpoint: the result is levels[number of breakpoints <= x]. With M =
    2^k uniform bins over [0, 1] that put no two breakpoints in one bin, x
    lies in bin (x * M).astype(int), and that number is `index_at[b] - (x <
    breakpoint[b])` for x in bin b. The per-bin arrays have one entry more, a
    copy of bin M - 1, for x = 1.0, whose x * M is M.
    """

    index_at: np.ndarray    # per bin: 1 + the number of breakpoints below the bin
    breakpoint: np.ndarray  # per bin: the first breakpoint at or above it, or inf

    @property
    def bins(self) -> int:
        return self.breakpoint.size - 1


def _breakpoints(levels: np.ndarray) -> np.ndarray:
    """For each level after the first, the smallest float that the binary
    search snaps to it. It lies within a few floats of the midpoint between
    the level and the one below, so it is found by stepping from there."""
    lo, hi = levels[:-1], levels[1:]
    at = lo + (hi - lo) / 2
    up = _snap_deterministic(at, levels) == hi
    while not up.all():  # up to the first float snapped to the level
        at = np.where(up, at, np.nextafter(at, np.inf))
        up = _snap_deterministic(at, levels) == hi
    while True:  # down while the float below is snapped to it too
        below = np.nextafter(at, -np.inf)
        down = _snap_deterministic(below, levels) == hi
        if not down.any():
            return at
        at = np.where(down, below, at)


def _snap_table(levels: np.ndarray) -> _SnapTable | None:
    """The `_SnapTable` of sorted unique levels with the fewest bins, or None
    if that would take more than MAX_SNAP_BINS."""
    breakpoints = _breakpoints(levels)
    bins = 1
    while bins <= MAX_SNAP_BINS:
        # breakpoints lie in (0, 1]: only 1.0 needs the clamp to the last bin
        if np.all(np.diff(np.minimum(breakpoints * bins, bins - 1).astype(np.intp)) > 0):
            edges = np.append(np.arange(bins) / bins, (bins - 1) / bins)
            below = np.searchsorted(breakpoints, edges, side="left")
            table = _SnapTable(below + 1, np.append(breakpoints, np.inf)[below])
            for array in table:
                array.flags.writeable = False
            return table
        bins *= 2
    return None


def _snap_by_table(x: np.ndarray, table: _SnapTable, levels: np.ndarray,
                   values: np.ndarray, scale: float) -> np.ndarray:
    """np.sign(values) * _snap_deterministic(x, levels) * scale through the
    `_SnapTable` of `levels`, for x = min(|values| / scale, 1) at a finite
    scale, which puts x in [0, 1].

    Each element is written once, as np.sign(value) * (level * scale): the
    same bits, as multiplying by +-1 or +-0 is exact. The result has the
    layout that numpy gives that product: C order below 256 KiB, and from
    there the order of x, as numpy computes it in place in the np.sign
    temporary.
    """
    out = np.empty_like(x) if x.nbytes >= 1 << 18 else np.empty(x.shape)
    if x.flags.f_contiguous and not x.flags.c_contiguous:
        x, view, values = x.T, out.T, values.T  # walk x in its memory order
    else:
        x, view = np.ascontiguousarray(x), out
    levels, bins = levels * scale, table.bins
    # in blocks of rows, so that the temporaries stay in cache
    rows = max(1, _SNAP_BLOCK // x[0].size)
    for start in range(0, len(x), rows):
        block = x[start:start + rows]
        bin_of = (block * bins).astype(np.intp)
        index = table.index_at[bin_of]
        index -= block < table.breakpoint[bin_of]
        np.multiply(np.sign(values[start:start + rows]), levels[index],
                    out=view[start:start + rows])
    return out


def _snap_stochastic(x: np.ndarray, levels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bracketing levels chosen with probability proportional to proximity."""
    _, lo, hi = _bracket(x, levels)
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
             rng=None) -> np.ndarray:
    """Map values onto representable levels per `spec`.

    - lut mode: magnitudes normalized by the clip scale are snapped to LUT
      levels, sign restored; exact zeros stay zero.
    - percentile mode: uniform magnitude grid on [0, clip], sign restored;
      tensors that are entirely non-negative get the full 2^bits levels,
      signed tensors get 2^(bits-1) magnitude levels plus sign.

    Raises ValueError where the clip scale is not finite (an operand holding
    inf or NaN). Under a clip percentile that leaves the scale finite, +-inf
    saturates at +-scale.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    if spec.rounding == "stochastic" and rng is None:
        raise ValueError("stochastic rounding requires an rng or seed")
    rng = np.random.default_rng(rng) if spec.rounding == "stochastic" else None

    magnitudes = np.abs(values)
    scale = _clip_scale(magnitudes, spec.clip_percentile)
    if not math.isfinite(scale):
        raise ValueError(f"cannot quantize values whose clip scale {scale} is not finite")
    if scale == 0.0:
        return np.zeros_like(values)
    if values.ndim == 0:  # the in-place steps below need an array
        return quantize(values.reshape(1), spec, lut, rng=rng)[0]
    normalized = np.divide(magnitudes, scale, out=magnitudes)
    np.minimum(normalized, 1.0, out=normalized)

    if spec.mode == "lut":
        if lut is None:
            raise ValueError("lut mode requires a LookupTable")
        levels, table = lut.unique_levels, lut.snap_table
        if table is not None and spec.rounding == "deterministic":
            return _snap_by_table(normalized, table, levels, values, scale)
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


def _sign_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a+, |a-|): a where a > 0 and -a where a < 0, +0.0 elsewhere (NaN too)."""
    pos = np.fmax(a, 0.0)  # fmax, unlike maximum, maps NaN to 0
    pos += 0.0  # -0.0 + 0.0 is +0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        neg = np.subtract(pos, a)  # -a where a < 0, +0.0 where a >= 0
    np.fmax(neg, 0.0, out=neg)  # NaN and inf - inf to 0
    return pos, neg


def four_pass_decompose(w, x) -> FourPassOperands:
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"incompatible shapes {w.shape} @ {x.shape}")
    w_pos, w_neg = _sign_split(w)
    x_pos, x_neg = _sign_split(x)
    return FourPassOperands(w_pos=w_pos, w_neg=w_neg, x_pos=x_pos, x_neg=x_neg)


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
        check_number("systematic_percent_ff", self.systematic_percent_ff, NON_NEGATIVE)
        check_number("systematic_percent_attn", self.systematic_percent_attn, NON_NEGATIVE)
        check_number("photons_per_mac", self.photons_per_mac, POSITIVE_OR_INF)
        check_number("seed", self.seed, SEED)


def apply_shot_noise(outputs, photons_per_mac: float, macs_per_output: int, seed=None) -> np.ndarray:
    """Poisson-sample non-negative outputs at a mean photon budget.

    Outputs are scaled so their mean corresponds to
    photons_per_mac * macs_per_output photons, each value is used as the
    mean of a Poisson draw, and the samples are scaled back.
    """
    outputs = np.asarray(outputs, dtype=float)
    if np.any(outputs < 0):
        raise ValueError("shot noise is only defined on non-negative intensities")
    check_number("photons_per_mac", photons_per_mac, POSITIVE_OR_INF)
    check_number("macs_per_output", macs_per_output, COUNT)
    if math.isinf(photons_per_mac):
        return outputs.copy()
    mean = outputs.mean()
    if mean == 0.0:
        return outputs.copy()  # Poisson(0) = 0 a.s.
    photons = photons_per_mac * macs_per_output
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        scale = photons / mean
    if math.isinf(scale) and math.isfinite(photons):
        # a mean below about 1e-305: the same draw, scaled through the mean
        return rng.poisson(outputs / mean * photons) * (mean / photons)
    return rng.poisson(outputs * scale) / scale


def _gaussian_shot_product(operands: list, photons_per_mac: float,
                           rng: np.random.Generator) -> np.ndarray:
    """W @ X with the shot noise of the four passes drawn as one Gaussian per output.

    `apply_shot_noise` reads pass i, p_i = W(+/-) @ X(+/-), at p_i * N / mean(p_i)
    photons, N being photons_per_mac times the MACs per output, so the pass
    has variance c_i * p_i with c_i = mean(p_i) / N. The four passes sum to
    p1 - p2 - p3 + p4 = W @ X with variance
        c1 W+X+ + c2 W-X+ + c3 W+X- + c4 W-X-
          = [|W|  W] @ [(c1 + c2) X+ + (c3 + c4) X-; (c1 - c2) X+ + (c3 - c4) X-] / 2,
    as W+ = (|W| + W) / 2 and W- = (|W| - W) / 2. Each mean(p_i) is the
    column sums of its left operand dotted with the row sums of its right.

    `operands` is the list [W, X], which this takes over and empties, so
    that each array is freed after its last read unless the caller holds
    it elsewhere.
    """
    w, x = operands
    operands.clear()
    (m, macs_per_output), p = w.shape, x.shape[1]
    product = w @ x
    x_pos, x_neg = _sign_split(x)
    del x
    left = np.empty_like(w, shape=(m, 2 * macs_per_output))  # [|W|  W], in w's memory order
    abs_w, signed_w = left[:, :macs_per_output], left[:, macs_per_output:]
    np.abs(w, out=abs_w)
    signed_w[...] = w
    del w
    col_abs, col_signed = abs_w.sum(axis=0), signed_w.sum(axis=0)
    cols = ((col_abs + col_signed) / 2, (col_abs - col_signed) / 2)  # of W+ and W-
    rows = (x_pos.sum(axis=1), x_neg.sum(axis=1))  # of X+ and X-
    photons = m * p * photons_per_mac * macs_per_output  # N times the outputs
    (c1, c3), (c2, c4) = [[col @ row / photons for row in rows] for col in cols]
    right = np.empty((2 * macs_per_output, p))
    top, bottom = right[:macs_per_output], right[macs_per_output:]
    np.multiply(x_pos, (c1 + c2) / 2, out=top)
    np.multiply(x_pos, (c1 - c2) / 2, out=bottom)
    # x_pos, then x_neg, are reused as scratch for the X- terms; x_neg * s has
    # the same bits as s * x_neg
    top += np.multiply(x_neg, (c3 + c4) / 2, out=x_pos)
    bottom += np.multiply(x_neg, (c3 - c4) / 2, out=x_neg)
    del x_pos, x_neg
    noise = left @ right  # the variance
    del left, right, abs_w, signed_w
    np.fmax(noise, 0.0, out=noise)  # rounding can take a zero variance below 0
    np.sqrt(noise, out=noise)
    noise *= rng.standard_normal(noise.shape)
    product += noise
    return product


def apply_systematic_noise(outputs, percent: float, seed=None) -> np.ndarray:
    """Add zero-mean Gaussian noise with std = (percent/100) * mean(|outputs|)."""
    outputs = np.asarray(outputs, dtype=float)
    check_number("percent", percent, NON_NEGATIVE)
    if percent == 0:
        return outputs.copy()
    sigma = (percent / 100.0) * np.abs(outputs).mean() if outputs.size else 0.0
    if sigma == 0.0:
        return outputs.copy()
    # rng.normal(0.0, sigma, shape) is 0.0 + sigma * z: drawn, scaled and
    # added in one array, the same bits (+ 0.0 turns a -0.0 product into 0.0)
    noisy = np.random.default_rng(seed).standard_normal(outputs.shape)
    noisy *= sigma
    noisy += 0.0
    noisy += outputs
    return noisy


_LUT_QUANTIZER = QuantizerSpec(mode="lut", rounding="deterministic")


def lut_snap(values, lut: LookupTable) -> np.ndarray:
    """Deterministic LUT quantization, as `optical_matmul` applies to its operands."""
    return quantize(values, _LUT_QUANTIZER, lut=lut)


def optical_matmul(w, x, noise: NoiseSpec | None = None,
                   input_lut: LookupTable | None = None,
                   weight_lut: LookupTable | None = None,
                   seed=None, *, kind: str = "ff") -> np.ndarray:
    """Full simulated pipeline for one product W @ X.

    Quantize operands through their LUTs, decompose into four non-negative
    passes, shot-noise each pass, recombine with signs, then add the
    systematic error for this layer class. From GAUSSIAN_SHOT_PHOTONS mean
    photons per output up, the shot noise of the four passes is drawn as one
    Gaussian per output of the same mean and variance. kind selects which
    systematic percentage applies: "ff" for weight products, "attn" for
    activation-activation products (both operands then use the input LUT).

    Each of the four passes is read out at the full `noise.photons_per_mac`;
    a budget split across the passes is a quarter of it.
    """
    if noise is None:
        noise = NoiseSpec()
    if kind not in ("ff", "attn"):
        raise ValueError(f"kind must be 'ff' or 'attn', got {kind!r}")
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"incompatible shapes {w.shape} @ {x.shape}")

    rng = np.random.default_rng(seed if seed is not None else noise.seed)
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
        macs_per_output = w.shape[1]
        if budget * macs_per_output >= GAUSSIAN_SHOT_PHOTONS:
            operands = [w, x]
            del w, x  # so that the product frees each after its last read
            product = _gaussian_shot_product(operands, budget, rng)
        else:
            # apply_shot_noise's largest Poisson mean is N = budget *
            # macs_per_output < GAUSSIAN_SHOT_PHOTONS times the pass's max
            # over its mean, which is at most the pass's size: far below
            # numpy's limit (about 9.2e18) for any array that fits in memory.
            product = np.zeros((w.shape[0], x.shape[1]))
            for left, right, sign in four_pass_decompose(w, x).passes():
                term = apply_shot_noise(left @ right, budget, macs_per_output, seed=rng)
                product = product + sign * term

    percent = noise.systematic_percent_attn if kind == "attn" else noise.systematic_percent_ff
    if percent == 0:  # apply_systematic_noise would only copy this fresh array
        return product
    return apply_systematic_noise(product, percent, seed=rng)
