"""Desk-scale GPT-style forward pass with a pluggable linear-op backend.

All matrix products route through the backend (exact digital, or the
simulated optical pipeline); softmax, layernorm, ReLU6 and residual adds
are computed exactly in float64 (the hybrid scheme). No training, no
tokenization: inputs are raw n x d matrices.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .arch import PRODUCT_CLASSES, WEIGHT_MATRICES, ModelConfig, compute_breakdown
from .optics import (LookupTable, NoiseSpec, derive_rng, derive_seed, lut_snap,
                     optical_matmul)

LN_EPS = 1e-5

_KIND = {name: "attn" for name in PRODUCT_CLASSES} | {name: "ff" for name, _, _ in WEIGHT_MATRICES}


@dataclass
class LayerWeights:
    """One layer's WEIGHT_MATRICES, named by product class, and its layernorms."""

    qkv: np.ndarray
    out_proj: np.ndarray
    ff1: np.ndarray
    ff2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class TransformerWeights:
    layers: list[LayerWeights]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_weights(config: ModelConfig, seed: int = 0) -> TransformerWeights:
    """Xavier-uniform projection matrices, unit layernorm gains, zero biases."""
    d = config.d
    layers = []
    for layer_idx in range(config.L):
        rng = derive_rng(seed, layer_idx)
        layers.append(LayerWeights(
            **{name: _xavier(rng, rows * d, cols * d) for name, rows, cols in WEIGHT_MATRICES},
            ln1_gain=np.ones(d), ln1_bias=np.zeros(d),
            ln2_gain=np.ones(d), ln2_bias=np.zeros(d),
        ))
    return TransformerWeights(layers=layers)


@dataclass
class ForwardTrace:
    post_attention: list[np.ndarray]  # per layer, after the attention residual
    post_ff: list[np.ndarray]         # per layer, after the FF residual
    final: np.ndarray                 # (n, d)

    def mean_abs(self) -> list[dict[str, float]]:
        return [
            {"post_attention": float(np.abs(a).mean()), "post_ff": float(np.abs(f).mean())}
            for a, f in zip(self.post_attention, self.post_ff)
        ]


class DigitalBackend:
    """Exact float64 matrix products."""

    def matmul(self, a, b, product: str, op: int) -> np.ndarray:
        return a @ b


@dataclass(frozen=True, eq=False)
class OpticalBackend:
    """Routes products through the simulated optical pipeline.

    Products are row-activation oriented (activations @ weights); the
    pipeline runs in the weights-left convention, so operands are transposed
    in and the result transposed back. With every non-ideality disabled
    (infinite photons, 0% systematic, no LUTs) the product is computed
    directly, keeping the noiseless trace identical to the digital backend.

    A product's PRODUCT_CLASSES name sets its noise kind (_KIND): the classes
    of the resident WEIGHT_MATRICES are "ff", the attention products "attn".
    Per-product RNG streams derive from (noise.seed, op-counter), so traces
    are reproducible regardless of scheduling or backend reuse.

    With weights_snapped, the weight matrices handed to `matmul` have been
    through `weight_lut` already (`noise_sweep` snaps them), so passes that
    share them snap them once, as hardware with resident weights programs
    them once.
    """

    noise: NoiseSpec
    input_lut: LookupTable | None = None
    weight_lut: LookupTable | None = None
    weights_snapped: bool = False

    def _noiseless(self) -> bool:
        return (math.isinf(self.noise.photons_per_mac)
                and self.noise.systematic_percent_ff == 0
                and self.noise.systematic_percent_attn == 0
                and self.input_lut is None and self.weight_lut is None)

    def matmul(self, a, b, product: str, op: int) -> np.ndarray:
        if self._noiseless():
            return a @ b
        # weight_lut still counts in _noiseless(): snapped weights must take
        # the same path as weights snapped here
        out = optical_matmul(
            np.asarray(b).T, np.asarray(a).T, self.noise, input_lut=self.input_lut,
            weight_lut=None if self.weights_snapped else self.weight_lut,
            seed=derive_rng(self.noise.seed, op), kind=_KIND[product])
        return out.T


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0)


def forward(config: ModelConfig, weights: TransformerWeights, x, backend=None) -> ForwardTrace:
    """Pre-norm block sequence: x += Attn(LN(x)); x += FF(LN(x))."""
    if backend is None:
        backend = DigitalBackend()
    x = np.asarray(x, dtype=float)
    if x.shape != (config.n, config.d):
        raise ValueError(f"input must be shape ({config.n}, {config.d}), got {x.shape}")
    d_h = config.head_dim
    op = 0
    post_attention, post_ff = [], []
    for layer in weights.layers:
        h = _layernorm(x, layer.ln1_gain, layer.ln1_bias)
        qkv = backend.matmul(h, layer.qkv, "qkv", op); op += 1
        q, k, v = np.split(qkv, 3, axis=1)
        heads = []
        for head in range(config.h):
            sl = slice(head * d_h, (head + 1) * d_h)
            scores = backend.matmul(q[:, sl], k[:, sl].T, "attn_qk", op); op += 1
            attn = _softmax(scores / math.sqrt(d_h))
            heads.append(backend.matmul(attn, v[:, sl], "attn_av", op)); op += 1
        context = np.concatenate(heads, axis=1)
        x = x + backend.matmul(context, layer.out_proj, "out_proj", op); op += 1
        post_attention.append(x)  # x is rebound, never written in place

        h = _layernorm(x, layer.ln2_gain, layer.ln2_bias)
        f = backend.matmul(h, layer.ff1, "ff1", op); op += 1
        f = _relu6(f)
        x = x + backend.matmul(f, layer.ff2, "ff2", op); op += 1
        post_ff.append(x)
    return ForwardTrace(post_attention=post_attention, post_ff=post_ff, final=x)


# the callables an instrumented run replaces; noise_sweep then keeps every
# cell in this process, where the instrumentation sees it
_UNINSTRUMENTED = (forward, OpticalBackend.matmul)


def make_input(config: ModelConfig, seed: int = 0) -> np.ndarray:
    """Seeded Gaussian n x d input at the embedding init scale."""
    return derive_rng(seed, 0xD0).normal(0.0, 0.02, size=(config.n, config.d))


def deviation(noisy: np.ndarray, clean: np.ndarray) -> float:
    """Mean |noisy - clean| relative to the mean magnitude of clean."""
    noisy = np.asarray(noisy, dtype=float)
    clean = np.asarray(clean, dtype=float)
    return float(np.abs(noisy - clean).mean() / (np.abs(clean).mean() + 1e-12))


def noise_sweep(config: ModelConfig, weights: TransformerWeights, x,
                ff_grid, attn_grid, photons: float = math.inf, seeds: Sequence[int] = (0,),
                input_lut: LookupTable | None = None,
                weight_lut: LookupTable | None = None) -> np.ndarray:
    """Deviation of the noisy forward vs the digital baseline, per grid cell
    and seed, indexed [seed][ff][attn].

    Each cell uses an RNG stream derived from (seed, ff index, attn index),
    so cells are independent. Every cell of every seed shares one digital
    reference and one snap of the weights through `weight_lut`. Where
    `_sweep_workers` allows it, the cells run in processes forked from this
    one, on the usable cores, with the same results bit for bit. An
    instrumented sweep must replace `forward` or `OpticalBackend.matmul`,
    which keeps every cell in this process: what is patched below them
    (`deviation`, `optical_matmul`, the optics functions) does not see the
    cells of forked workers.
    """
    seeds = list(seeds)
    ff_grid = list(ff_grid)
    attn_grid = list(attn_grid)
    if not ff_grid or not attn_grid:
        raise ValueError("sweep grids must be non-empty")
    clean = forward(config, weights, x, DigitalBackend()).final
    if weight_lut is not None:
        # the weights as programmed into the modulators, for the backends'
        # weights_snapped=True below: each matrix snapped in optical_matmul's
        # weights-left orientation and transposed back, so that the backend's
        # transpose hands it that very array
        weights = replace(weights, layers=[
            replace(layer, **{name: lut_snap(getattr(layer, name).T, weight_lut).T
                              for name, _, _ in WEIGHT_MATRICES})
            for layer in weights.layers])
    shape = (len(seeds), len(ff_grid), len(attn_grid))
    cells = [(s, i, j) for s in range(shape[0]) for i in range(shape[1]) for j in range(shape[2])]

    def cell(k: int) -> float:
        s, i, j = cells[k]
        noise = NoiseSpec(systematic_percent_ff=ff_grid[i], systematic_percent_attn=attn_grid[j],
                          photons_per_mac=photons, seed=derive_seed(seeds[s], i, j))
        backend = OpticalBackend(noise, input_lut=input_lut, weight_lut=weight_lut,
                                 weights_snapped=True)
        return deviation(forward(config, weights, x, backend).final, clean)

    costs = _cell_costs(config, ff_grid, attn_grid, len(seeds))
    workers, blas = _sweep_workers(config, costs)
    values = _fork_cells(cell, _deal(costs, workers), *blas) if workers > 1 else [None] * len(cells)
    # what no worker delivered, in order: all of a serial sweep; or the rest
    # of a child's share, from where the child was lost or from a cell that
    # failed there, which then raises here as it would in a serial sweep
    return np.array([cell(k) if v is None else v for k, v in enumerate(values)]).reshape(shape)


# Measured on a 2-core x86-64 KVM guest (BENCH_14.json). A forked worker
# costs the sweep 6-14 ms: the fork, and the copy-on-write faults that
# follow it in both processes. That is what about 0.75M outputs of a forward
# pass take to compute. A forward pass took 4-25 bytes of memory per
# output of one layer (n = 128-1024, d = 128-768); 48 allows twice that.
_SHARE_OUTPUTS = 750_000
_WORKER_BYTES_PER_OUTPUT = 48


def _cell_costs(config: ModelConfig, ff_grid, attn_grid, seeds: int) -> list[int]:
    """The cost of each cell of a sweep, numbered in [seed][ff][attn] order:
    the outputs of its forward pass, plus those of the products it adds
    systematic noise to."""
    outputs = {"ff": 0, "attn": 0}
    for name, counts in compute_breakdown(config).products.items():
        outputs[_KIND[name]] += config.L * counts.detects
    return [outputs["ff"] * (1 + (ff > 0)) + outputs["attn"] * (1 + (attn > 0))
            for _ in range(seeds) for ff in ff_grid for attn in attn_grid]


def _sweep_workers(config: ModelConfig, costs: list[int]):
    """The processes for a sweep whose cells cost `costs`, and the OpenBLAS
    thread getter and setter: no more than the usable cores, the cells, the
    shares of _SHARE_OUTPUTS outputs, or this process and the workers that
    free memory holds at _WORKER_BYTES_PER_OUTPUT per output of one layer.
    One process, this one, also without os.fork, os.sched_getaffinity, the
    free-memory count or an OpenBLAS thread setter; where another Python
    thread runs, which a fork could leave holding a lock in the child; or
    with `forward` or `OpticalBackend.matmul` replaced, as an instrumented
    run does, which must see every cell."""
    import threading
    if (not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and "SC_AVPHYS_PAGES" in os.sysconf_names)
            or threading.active_count() > 1
            or (forward, OpticalBackend.matmul) != _UNINSTRUMENTED):
        return 1, None
    layer_outputs = compute_breakdown(config).detects_per_layer
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    workers = min(len(os.sched_getaffinity(0)), len(costs), sum(costs) // _SHARE_OUTPUTS,
                  1 + free // (_WORKER_BYTES_PER_OUTPUT * layer_outputs))
    blas = _openblas_threads() if workers > 1 else None
    return (1, None) if blas is None else (workers, blas)


def _openblas_threads():
    """The thread-count getter and setter of numpy's OpenBLAS, looked up
    through numpy's own extension module, which links it: the
    scipy_openblas names of numpy 2's wheels, or the openblas names of
    numpy 1's. None where neither is found."""
    import ctypes
    import sys
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get, set_ = (getattr(lib, f"{prefix}_{verb}_num_threads64_") for verb in ("get", "set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _deal(costs: list[int], shares: int) -> list[list[int]]:
    """The indices of `costs` dealt into `shares` ascending lists of
    near-equal cost: each, the costliest first, to the share that costs
    least so far."""
    dealt, loads = [[] for _ in range(shares)], [0] * shares
    for k in sorted(range(len(costs)), key=lambda k: -costs[k]):
        least = loads.index(min(loads))
        dealt[least].append(k)
        loads[least] += costs[k]
    return [sorted(share) for share in dealt]


def _fork_cells(cell, shares: list[list[int]], get_threads, set_threads) -> list[float | None]:
    """cell(k) per cell k of `shares`, None where a child did not deliver it.
    This process computes the first share, raising where a cell raises; one
    forked child each other share, sending its values over a pipe as it goes
    and stopping at a cell that raises. OpenBLAS runs one thread meanwhile,
    as each process has a core to itself. Every child is reaped, on every path."""
    import signal
    values = [None] * sum(map(len, shares))
    children = []  # (pid, read end of its pipe, share)
    threads = get_threads()
    set_threads(1)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: its cells are computed later, here
                os.close(r)
                os.close(w)
                continue
            if pid == 0:  # the child, which never returns into the caller's stack
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        for k in share:
                            fh.write(np.float64(cell(k)).tobytes())
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb"), share))
        for k in shares[0]:
            values[k] = cell(k)
        for _, reader, share in children:
            data = reader.read()  # up to the child's exit; a lost child's values stop short
            for k, value in zip(share, np.frombuffer(data[:len(data) // 8 * 8]).tolist()):
                values[k] = value
    finally:
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)  # a no-op on a child that has exited
            os.waitpid(pid, 0)
        set_threads(threads)
    return values


def trace_to_json_dict(trace: ForwardTrace, config: ModelConfig, seed: int) -> dict:
    """The trace as a JSON document whose activations are the trace's own
    float64 arrays, which `artifacts.write_json` formats as the CLI's traces."""
    return {
        "config": config.to_json_dict(),
        "seed": seed,
        "post_attention": list(trace.post_attention),
        "post_ff": list(trace.post_ff),
        "final": trace.final,
        "mean_abs": trace.mean_abs(),
    }
