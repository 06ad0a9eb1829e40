"""Hybrid forward pass: weights, trace, backends, noise sweeps."""
import json
import math
import os
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonsim import (DigitalBackend, ModelConfig, NoiseSpec, OpticalBackend,
                       compute_breakdown, derive_rng, derive_seed, deviation, forward,
                       init_weights, lut_synthesize, make_input, noise_sweep,
                       trace_to_json_dict)
from photonsim.arch import PRODUCT_CLASSES, WEIGHT_MATRICES
from photonsim.artifacts import write_json
import photonsim.artifacts
import photonsim.cli
import photonsim.txsim
from photonsim.txsim import _layernorm, _relu6, _softmax

DATA = pathlib.Path(__file__).parent / "data"

TINY = ModelConfig("tiny", n=4, d=8, h=2, L=2)


# the forked sweep needs os.sched_getaffinity, which only Linux has: elsewhere
# a sweep runs in one process, and these tests of how it forks do not apply
forked_sweep = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                  reason="no os.sched_getaffinity: sweeps stay serial")


# --------------------------------------------------------------------------
# weight init


def test_xavier_bounds():
    cfg = ModelConfig("t", n=2, d=4, h=2, L=1)
    wts = init_weights(cfg, 0)
    layer = wts.layers[0]
    bound = math.sqrt(6.0 / (4 + 16))  # ff1 fans: d=4 in, 4d=16 out
    assert np.abs(layer.ff1).max() <= bound
    assert layer.ff1.shape == (4, 16)
    assert layer.qkv.shape == (4, 12)
    assert layer.out_proj.shape == (4, 4)
    assert layer.ff2.shape == (16, 4)
    assert np.abs(layer.qkv).max() <= math.sqrt(6.0 / 16)
    assert np.array_equal(layer.ln1_gain, np.ones(4))
    assert np.array_equal(layer.ln1_bias, np.zeros(4))


@pytest.mark.parametrize("shape", [(4, 8, 2, 2), (3, 12, 3, 1), (5, 6, 1, 3), (16, 32, 4, 2)])
def test_init_weights_match_the_billed_weights(shape):
    # the matrices the simulator draws are the ones the cost model bills
    cfg = ModelConfig("t", *shape)
    weights = init_weights(cfg, 0)
    assert len(weights.layers) == cfg.L
    total = 0
    for layer in weights.layers:
        for name, rows, cols in WEIGHT_MATRICES:
            assert getattr(layer, name).shape == (rows * cfg.d, cols * cfg.d)
            total += getattr(layer, name).size
    assert total == cfg.param_count
    assert total == cfg.L * cfg.layer_weight_count


def test_init_weights_deterministic():
    a = init_weights(TINY, 5)
    b = init_weights(TINY, 5)
    c = init_weights(TINY, 6)
    assert np.array_equal(a.layers[1].ff2, b.layers[1].ff2)
    assert not np.array_equal(a.layers[0].qkv, c.layers[0].qkv)
    # layers draw from separate streams
    assert not np.array_equal(a.layers[0].qkv, a.layers[1].qkv)


def test_make_input_shape_and_scale():
    x = make_input(TINY, 3)
    assert x.shape == (4, 8)
    big = make_input(ModelConfig("t", n=64, d=128, h=2, L=1), 3)
    assert big.std() == pytest.approx(0.02, rel=0.1)
    assert np.array_equal(x, make_input(TINY, 3))


@pytest.mark.parametrize("bad", [2.5, 1.9, True, np.float64(1.0), "3"],
                         ids=["float", "float-near-2", "bool", "numpy-float", "str"])
def test_seeds_and_keys_must_be_integers(bad):
    # int() would truncate them: 2.5 drew the weights of seed 2, and True the
    # input of seed 1
    wts, x = init_weights(TINY, 0), make_input(TINY, 0)
    for call in (lambda: init_weights(TINY, bad), lambda: make_input(TINY, bad),
                 lambda: noise_sweep(TINY, wts, x, [0.0], [0.0], seeds=[bad]),
                 lambda: derive_seed(bad, 1), lambda: derive_seed(3, bad),
                 lambda: derive_rng(bad), lambda: derive_rng(3, 1, bad)):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            call()
    assert derive_seed(np.uint64(3), np.int32(1)) == derive_seed(3, 1)
    assert np.array_equal(make_input(TINY, np.int64(3)), make_input(TINY, 3))


# --------------------------------------------------------------------------
# elementwise pieces


def test_softmax_rows_sum_to_one():
    rng = derive_rng(21)
    s = _softmax(rng.normal(size=(50, 17)) * 30)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(s >= 0)
    # large logits do not overflow
    assert np.isfinite(_softmax(np.array([[1e4, 0.0]]))).all()


def test_relu6_clamps():
    x = np.array([-3.0, 0.0, 2.5, 6.0, 100.0])
    assert np.array_equal(_relu6(x), [0.0, 0.0, 2.5, 6.0, 6.0])


def test_layernorm_normalizes():
    rng = derive_rng(22)
    x = rng.normal(3.0, 5.0, size=(10, 32))
    out = _layernorm(x, np.ones(32), np.zeros(32))
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)


# --------------------------------------------------------------------------
# forward pass vs an independent straight-line implementation


def straight_line_forward(cfg, wts, x):
    """Re-derivation with explicit per-head loops, sharing no forward code."""
    d, H = cfg.d, cfg.h
    dh = d // H

    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5)

    def softmax_rows(s):
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    cur = np.array(x, dtype=float)
    for lay in wts.layers:
        hN = ln(cur)
        qkv = hN @ lay.qkv
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        ctx = np.zeros_like(cur)
        for head in range(H):
            sl = slice(head * dh, (head + 1) * dh)
            att = softmax_rows((q[:, sl] @ k[:, sl].T) / np.sqrt(dh))
            ctx[:, sl] = att @ v[:, sl]
        cur = cur + ctx @ lay.out_proj
        f = np.clip(ln(cur) @ lay.ff1, 0.0, 6.0)
        cur = cur + f @ lay.ff2
    return cur


def test_forward_matches_straight_line_oracle():
    for cfg, seed in [(TINY, 42), (ModelConfig("t", 6, 12, 3, 1), 1),
                      (ModelConfig("t", 3, 16, 4, 3), 2)]:
        wts = init_weights(cfg, seed)
        x = make_input(cfg, seed)
        trace = forward(cfg, wts, x, DigitalBackend())
        expected = straight_line_forward(cfg, wts, x)
        assert np.allclose(trace.final, expected, rtol=1e-12, atol=1e-14)


def test_forward_matches_golden_trace():
    cfg = ModelConfig("golden", n=4, d=8, h=2, L=2)
    golden = json.loads((DATA / "golden_trace_n4d8h2L2.json").read_text(encoding="utf-8"))
    trace = forward(cfg, init_weights(cfg, 42), make_input(cfg, 42))
    assert np.allclose(trace.final, golden["final"], rtol=1e-9, atol=1e-12)
    for mine, theirs in zip(trace.post_attention, golden["post_attention"]):
        assert np.allclose(mine, theirs, rtol=1e-9, atol=1e-12)
    for mine, theirs in zip(trace.post_ff, golden["post_ff"]):
        assert np.allclose(mine, theirs, rtol=1e-9, atol=1e-12)


def test_forward_trace_structure():
    wts = init_weights(TINY, 0)
    trace = forward(TINY, wts, make_input(TINY, 0))
    assert len(trace.post_attention) == len(trace.post_ff) == TINY.L
    assert trace.final.shape == (TINY.n, TINY.d)
    assert np.array_equal(trace.final, trace.post_ff[-1])
    stats = trace.mean_abs()
    assert len(stats) == TINY.L
    assert all(s["post_attention"] > 0 and s["post_ff"] > 0 for s in stats)


def test_forward_zero_weights_is_identity():
    wts = init_weights(TINY, 0)
    for layer in wts.layers:
        layer.qkv[:] = 0.0
        layer.out_proj[:] = 0.0
        layer.ff1[:] = 0.0
        layer.ff2[:] = 0.0
    x = make_input(TINY, 0)
    trace = forward(TINY, wts, x)
    assert np.array_equal(trace.final, x)  # both residual branches contribute 0


def test_forward_zero_input_gives_uniform_attention():
    # all-equal queries/keys give uniform attention; with zero input the
    # residual stream stays at the attention output of a constant context
    wts = init_weights(TINY, 1)
    x = np.zeros((TINY.n, TINY.d))
    trace = forward(TINY, wts, x)
    post = trace.post_attention[0]
    # every row saw the same uniform mixture, so rows are identical
    assert np.allclose(post, post[0], atol=1e-12)


def test_forward_input_validation():
    wts = init_weights(TINY, 0)
    with pytest.raises(ValueError):
        forward(TINY, wts, np.zeros((3, 8)))
    bad = ModelConfig("bad", n=4, d=8, h=3, L=1)
    with pytest.raises(ValueError):
        forward(bad, init_weights(bad, 0), np.zeros((4, 8)))


# --------------------------------------------------------------------------
# backends


class RecordingBackend:
    """DigitalBackend's products, each logged as (class, left shape, right shape)."""

    def __init__(self):
        self.inner = DigitalBackend()
        self.products = []

    def matmul(self, a, b, product, op):
        self.products.append((product, np.shape(a), np.shape(b)))
        return self.inner.matmul(a, b, product, op)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), head_dim=st.integers(1, 4), h=st.integers(1, 4), L=st.integers(1, 3))
def test_forward_products_match_compute_breakdown(n, head_dim, h, L):
    # the simulator's products are the ones the cost model counts, class by
    # class: ff products keep their weights resident and load m*k, attn
    # products load m*k + k*p
    cfg = ModelConfig("drawn", n=n, d=head_dim * h, h=h, L=L)
    backend = RecordingBackend()
    forward(cfg, init_weights(cfg, 0), make_input(cfg, 0), backend)
    assert len(backend.products) == L * (2 * h + 4)
    kinds = {"ff": [name for name, _, _ in WEIGHT_MATRICES], "attn": ["attn_qk", "attn_av"]}
    kind_of = {c: kind for kind, classes in kinds.items() for c in classes}
    totals = {"ff": [0, 0, 0], "attn": [0, 0, 0]}
    class_totals = {c: [0, 0, 0] for c in PRODUCT_CLASSES}
    for product, (m, k), (_, p) in backend.products:
        kind = kind_of[product]
        loads = m * k + (k * p if kind == "attn" else 0)
        for i, count in enumerate((m * k * p, loads, m * p)):
            totals[kind][i] += count
            class_totals[product][i] += count
    products = compute_breakdown(cfg).products
    fields = ("macs", "loads", "detects")
    for kind, classes in kinds.items():
        assert totals[kind] == [L * sum(getattr(products[c], field) for c in classes)
                                for field in fields], kind
    for c in PRODUCT_CLASSES:
        assert class_totals[c] == [L * getattr(products[c], field) for field in fields], c


def test_optical_backend_noiseless_equals_digital_exactly():
    wts = init_weights(TINY, 7)
    x = make_input(TINY, 7)
    digital = forward(TINY, wts, x, DigitalBackend())
    optical = forward(TINY, wts, x, OpticalBackend(NoiseSpec()))
    assert np.array_equal(optical.final, digital.final)
    assert deviation(optical.final, digital.final) == 0.0


def test_optical_backend_noisy_is_deterministic():
    wts = init_weights(TINY, 7)
    x = make_input(TINY, 7)
    noise = NoiseSpec(systematic_percent_ff=2.0, photons_per_mac=500.0, seed=3)
    a = forward(TINY, wts, x, OpticalBackend(noise))
    b = forward(TINY, wts, x, OpticalBackend(noise))
    assert np.array_equal(a.final, b.final)
    c = forward(TINY, wts, x, OpticalBackend(replace(noise, seed=4)))
    assert not np.array_equal(a.final, c.final)


def test_optical_backend_with_luts_quantizes():
    wts = init_weights(TINY, 7)
    x = make_input(TINY, 7)
    lut = lut_synthesize(4, 4)  # very coarse: must perturb the result
    digital = forward(TINY, wts, x, DigitalBackend())
    coarse = forward(TINY, wts, x, OpticalBackend(NoiseSpec(), input_lut=lut, weight_lut=lut))
    dev = deviation(coarse.final, digital.final)
    assert 0 < dev < 1.0
    # identical rerun: quantization is deterministic
    again = forward(TINY, wts, x, OpticalBackend(NoiseSpec(), input_lut=lut, weight_lut=lut))
    assert np.array_equal(coarse.final, again.final)


def test_noise_increases_deviation():
    wts = init_weights(TINY, 7)
    x = make_input(TINY, 7)
    clean = forward(TINY, wts, x, DigitalBackend()).final
    mild = forward(TINY, wts, x, OpticalBackend(NoiseSpec(photons_per_mac=1e6, seed=1))).final
    harsh = forward(TINY, wts, x, OpticalBackend(NoiseSpec(photons_per_mac=10.0, seed=1))).final
    assert deviation(mild, clean) < deviation(harsh, clean)


# --------------------------------------------------------------------------
# deviation metric


def test_deviation_known_values():
    clean = np.array([1.0, -1.0])
    assert deviation(clean, clean) == 0.0
    noisy = np.array([1.5, -0.5])
    assert deviation(noisy, clean) == pytest.approx(0.5, rel=1e-9)


# --------------------------------------------------------------------------
# noise sweep


def test_noise_sweep_shape_and_zero_cell():
    wts = init_weights(TINY, 1)
    x = make_input(TINY, 1)
    surface, = noise_sweep(TINY, wts, x, [0.0, 1.0, 2.0], [0.0, 1.0], seeds=[5])
    assert surface.shape == (3, 2)
    assert surface[0, 0] == 0.0  # no systematic, infinite photons: exact
    assert np.all(surface[1:, :] > 0)
    with pytest.raises(ValueError):
        noise_sweep(TINY, wts, x, [], [0.0])


def test_noise_sweep_deterministic():
    wts = init_weights(TINY, 1)
    x = make_input(TINY, 1)
    a = noise_sweep(TINY, wts, x, [1.0], [1.0], seeds=[5])
    b = noise_sweep(TINY, wts, x, [1.0], [1.0], seeds=[5])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("photons", [math.inf, 1000.0])
@pytest.mark.parametrize("with_input_lut", [False, True])
def test_lut_sweep_equals_fresh_passes(photons, with_input_lut):
    # the sweep snaps the weights once; every cell must still match a pass
    # that snaps them itself, bit for bit, the noiseless cell (0, 0) included
    cfg = ModelConfig("t", n=8, d=16, h=2, L=2)
    wts = init_weights(cfg, 3)
    x = make_input(cfg, 3)
    weight_lut = lut_synthesize(16, 32, floor=0.01)
    input_lut = lut_synthesize(8, 16) if with_input_lut else None
    ff_grid, attn_grid, seeds = [0.0, 1.0], [0.0, 2.0], [4, 9]
    surfaces = noise_sweep(cfg, wts, x, ff_grid, attn_grid, photons=photons, seeds=seeds,
                           input_lut=input_lut, weight_lut=weight_lut)
    assert surfaces.shape == (2, 2, 2)
    clean = forward(cfg, wts, x, DigitalBackend()).final
    for s, seed in enumerate(seeds):
        for i, ff in enumerate(ff_grid):
            for j, attn in enumerate(attn_grid):
                noise = NoiseSpec(systematic_percent_ff=ff, systematic_percent_attn=attn,
                                  photons_per_mac=photons, seed=derive_seed(seed, i, j))
                backend = OpticalBackend(noise, input_lut=input_lut, weight_lut=weight_lut)
                fresh = deviation(forward(cfg, wts, x, backend).final, clean)
                assert surfaces[s, i, j] == fresh, (seed, ff, attn)
        single, = noise_sweep(cfg, wts, x, ff_grid, attn_grid, photons=photons, seeds=[seed],
                              input_lut=input_lut, weight_lut=weight_lut)
        assert np.array_equal(single, surfaces[s])


def _sweep_on(monkeypatch, cores, *args, **kwargs):
    """noise_sweep as run with `cores` usable cores and every cell worth a
    worker, and the os.fork calls it made."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)  # before the fork: only this process's list counts it
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(os, "fork", counted_fork)
    # the share a worker must be worth is a matter of speed, not of results:
    # these sweeps are far too small to be worth one
    monkeypatch.setattr(photonsim.txsim, "_SHARE_OUTPUTS", 1)
    try:
        return noise_sweep(*args, **kwargs), len(forks)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("photons", [math.inf, 1000.0, 3.0], ids=["inf", "gaussian", "poisson"])
@pytest.mark.parametrize("with_input_lut", [False, True])
@pytest.mark.parametrize("seeds", [[7], [7, 8, 9]], ids=["1seed", "3seeds"])
@pytest.mark.parametrize("ff_grid, attn_grid", [([0.0, 1.0], [0.0, 2.0]),
                                                ([0.0, 1.0, 5.0], [0.0, 2.0]),
                                                ([0.0, 1.0, 2.0, 5.0], [0.0, 1.0, 2.0, 5.0])],
                         ids=["2x2", "3x2", "4x4"])
@forked_sweep
def test_parallel_sweep_is_bit_identical(monkeypatch, photons, with_input_lut, seeds,
                                         ff_grid, attn_grid):
    photonsim.cli._keep_freed_pages()  # as `sweep` runs them; the forked workers inherit it
    cfg = ModelConfig("t", n=8, d=16, h=2, L=2)
    wts = init_weights(cfg, 3)
    x = make_input(cfg, 3)
    kwargs = dict(photons=photons, seeds=seeds, weight_lut=lut_synthesize(16, 32, floor=0.01),
                  input_lut=lut_synthesize(8, 16) if with_input_lut else None)
    serial, serial_forks = _sweep_on(monkeypatch, 1, cfg, wts, x, ff_grid, attn_grid, **kwargs)
    parallel, forks = _sweep_on(monkeypatch, 2, cfg, wts, x, ff_grid, attn_grid, **kwargs)
    assert serial_forks == 0
    # one child beside this process, where numpy's OpenBLAS can be held to one thread
    assert forks == (1 if photonsim.txsim._openblas_threads() else 0)
    assert parallel.tobytes() == serial.tobytes()


@forked_sweep
def test_sweep_cells_run_with_openblas_at_one_thread(monkeypatch, request):
    # each process has a core to itself; the caller's count comes back after
    blas = photonsim.txsim._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count setter")
    request.addfinalizer(lambda threads=blas[0](): blas[1](threads))
    blas[1](3)
    for cores, threads in ((2, 1), (1, 3)):
        # each cell's value: the thread count of the process that computed it
        monkeypatch.setattr(photonsim.txsim, "deviation", lambda noisy, clean: float(blas[0]()))
        surfaces, forks = _sweep_on(monkeypatch, cores, TINY, init_weights(TINY, 1),
                                    make_input(TINY, 1), [0.0, 1.0], [0.0, 1.0], seeds=[5])
        assert forks == (cores - 1)
        assert surfaces.tolist() == [[[threads] * 2] * 2]
    assert blas[0]() == 3


@pytest.mark.parametrize("ff_grid, forks", [([0.0, 1.0, 2.0], 0), ([0.0, 1.0, 2.0, 5.0], 1)],
                         ids=["3_cells_serial", "4_cells_forked"])
@forked_sweep
def test_sweep_forks_only_where_its_cells_pay_for_a_worker(monkeypatch, ff_grid, forks):
    # at n=d=128, h=8 a pass computes 294,912 outputs and ff noise adds
    # 147,456: 3 cells cost 1.18M outputs, short of the two shares of 0.75M
    # that two workers need, and ran faster in one process (28 ms against
    # 30 ms on 2 cores); 4 cells cost 1.62M and ran faster in two (34 ms
    # against 39 ms)
    cfg = ModelConfig("t", n=128, d=128, h=8, L=1)
    costs = photonsim.txsim._cell_costs(cfg, ff_grid, [0.0], 1)
    assert sum(costs) == 294_912 * len(ff_grid) + 147_456 * (len(ff_grid) - 1)
    wts = init_weights(cfg, 2)
    x = make_input(cfg, 2)
    fork, made = os.fork, []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    surfaces = noise_sweep(cfg, wts, x, ff_grid, [0.0], seeds=[5])
    monkeypatch.undo()
    reference = noise_sweep(cfg, wts, x, ff_grid, [0.0], seeds=[5])
    assert len(made) == (forks if photonsim.txsim._openblas_threads() else 0)
    assert surfaces.tobytes() == reference.tobytes()


@forked_sweep
def test_sweep_workers_are_bounded_by_cores_cells_cost_and_free_memory(monkeypatch):
    cfg = ModelConfig("t", n=16, d=16, h=2, L=1)
    worker_bytes = 48 * (9 * 16 * 16 + 3 * 16 * 16)  # per output of one layer
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    page = os.sysconf("SC_PAGE_SIZE")
    free_pages = [10 ** 6]
    monkeypatch.setattr(os, "sysconf", lambda name: free_pages[0] if name == "SC_AVPHYS_PAGES"
                        else page)
    share = photonsim.txsim._SHARE_OUTPUTS

    def workers(costs):
        return photonsim.txsim._sweep_workers(cfg, costs)[0]
    if photonsim.txsim._openblas_threads() is None:
        assert workers([share] * 16) == 1
        return
    assert workers([share] * 16) == 8    # the usable cores
    assert workers([share * 9] * 3) == 3  # the cells
    assert workers([share] * 5 + [share - 1]) == 5  # the shares worth a worker
    assert workers([share - 1] * 2) == 1
    free_pages[0] = (3 * worker_bytes + worker_bytes - 1) // page
    assert workers([share] * 16) == 4    # this process and the workers free memory holds
    free_pages[0] = 0
    assert workers([share] * 16) == 1


def test_openblas_threads_without_numpys_extension_module(monkeypatch):
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert photonsim.txsim._openblas_threads() is None


@pytest.mark.parametrize("exported,found", [
    (("openblas",), "openblas"),  # numpy 1's names
    (("scipy_openblas", "openblas"), "scipy_openblas"),
    ((), None),
    (None, None),  # the extension module cannot be loaded
], ids=["openblas", "both", "neither", "no-library"])
def test_openblas_threads_finds_the_names_the_library_exports(monkeypatch, exported, found):
    import ctypes
    import types

    def cdll(path):
        if exported is None:
            raise OSError(path)
        return types.SimpleNamespace(**{f"{prefix}_{verb}_num_threads64_":
                                        types.SimpleNamespace(name=f"{prefix}_{verb}")
                                        for prefix in exported for verb in ("get", "set")})
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    blas = photonsim.txsim._openblas_threads()
    if found is None:
        assert blas is None
        return
    get, set_ = blas
    assert (get.name, set_.name) == (f"{found}_get", f"{found}_set")
    assert (get.argtypes, get.restype) == ([], ctypes.c_int)
    assert (set_.argtypes, set_.restype) == ([ctypes.c_int], None)


@forked_sweep
def test_sweep_beside_another_thread_stays_in_one_process(monkeypatch):
    # a fork could leave the other thread's locks held in the child
    import threading
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        surfaces, forks = _sweep_on(monkeypatch, 2, TINY, init_weights(TINY, 1),
                                    make_input(TINY, 1), [0.0, 1.0], [0.0, 1.0], seeds=[5])
    finally:
        release.set()
        other.join()
    assert forks == 0
    assert surfaces.shape == (1, 2, 2)


def test_sweep_cells_are_dealt_by_their_noise():
    # a noise-free cell costs a forward pass; noise on either product kind
    # adds that kind's outputs, which at n=d=16, h=2 are 9*16*16 and 2*16*16+16*16
    cfg = ModelConfig("t", n=16, d=16, h=2, L=1)
    costs = photonsim.txsim._cell_costs(cfg, [0.0, 1.0], [0.0, 1.0, 2.0], 2)
    assert costs == [3072, 3840, 3840, 5376, 6144, 6144] * 2
    assert photonsim.txsim._cell_costs(replace(cfg, L=3), [1.0], [1.0], 1) == [3 * 6144]
    shares = photonsim.txsim._deal(costs, 2)
    assert sorted(k for share in shares for k in share) == list(range(12))
    assert all(share == sorted(share) for share in shares)
    loads = [sum(costs[k] for k in share) for share in shares]
    assert loads[0] == loads[1]  # the strided split, cells[k::2], gives 26112 and 30720


@pytest.mark.parametrize("replaced", ["forward", "matmul"])
@forked_sweep
def test_instrumented_sweep_stays_in_one_process(monkeypatch, replaced):
    # an instrumented run must see the forward pass of every cell
    cfg = ModelConfig("t", n=8, d=16, h=2, L=1)
    wts = init_weights(cfg, 3)
    x = make_input(cfg, 3)
    grid = [0.0, 1.0, 2.0, 5.0]
    reference, _ = _sweep_on(monkeypatch, 1, cfg, wts, x, grid, grid, seeds=[4])
    passes = []
    if replaced == "forward":
        original = photonsim.txsim.forward

        def counted(*args, **kwargs):
            passes.append(isinstance(args[3], OpticalBackend))
            return original(*args, **kwargs)
        monkeypatch.setattr(photonsim.txsim, "forward", counted)
    else:
        original = OpticalBackend.matmul

        def counted(self, a, b, product, op):
            passes.append(op == 0)  # the first product of a pass
            return original(self, a, b, product, op)
        monkeypatch.setattr(OpticalBackend, "matmul", counted)
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(photonsim.txsim, "_SHARE_OUTPUTS", 1)  # as in _sweep_on, which forks
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    surfaces = noise_sweep(cfg, wts, x, grid, grid, seeds=[4])
    monkeypatch.undo()
    assert not forks
    if replaced == "forward":
        assert passes == [False] + [True] * 16  # the digital reference, then every cell
    else:
        assert sum(passes) == 16
    assert surfaces.tobytes() == reference.tobytes()


@pytest.mark.parametrize("lost", ["fork_fails", "child_dies"])
@forked_sweep
def test_sweep_share_no_child_delivers_is_computed_here(monkeypatch, lost):
    cfg = ModelConfig("t", n=8, d=16, h=2, L=1)
    wts = init_weights(cfg, 3)
    x = make_input(cfg, 3)
    grid = [0.0, 1.0, 2.0, 5.0]
    reference, _ = _sweep_on(monkeypatch, 1, cfg, wts, x, grid, grid, seeds=[4, 5])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(photonsim.txsim, "_SHARE_OUTPUTS", 1)
    if lost == "fork_fails":
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        parent, original = os.getpid(), photonsim.txsim.deviation

        def dying(*args):
            if os.getpid() != parent:  # a child ends in its first cell, sending nothing
                os._exit(1)
            return original(*args)
        monkeypatch.setattr(photonsim.txsim, "deviation", dying)
    surfaces = noise_sweep(cfg, wts, x, grid, grid, seeds=[4, 5])
    monkeypatch.undo()
    assert surfaces.tobytes() == reference.tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_noise_sweep_ff_trend_monotone():
    # deviation grows with the ff noise percent; average over 8 seeds and
    # allow at most one inversion from sampling jitter
    cfg = ModelConfig("t", n=16, d=32, h=4, L=2)
    wts = init_weights(cfg, 11)
    x = make_input(cfg, 11)
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    surfaces = noise_sweep(cfg, wts, x, grid, [0.0], seeds=range(8))
    means = np.mean([s[:, 0] for s in surfaces], axis=0)
    assert means[0] == 0.0
    inversions = int(np.sum(np.diff(means) < 0))
    assert inversions <= 1
    assert means[-1] > means[1]


def test_ff_noise_hurts_more_than_attn_noise():
    # feed-forward products carry most of the compute, so the same
    # systematic percent applied there deviates the output more
    cfg = ModelConfig("t", n=16, d=32, h=4, L=2)
    wts = init_weights(cfg, 11)
    x = make_input(cfg, 11)
    clean = forward(cfg, wts, x, DigitalBackend()).final
    ff, attn = [], []
    for s in range(16):
        nf = NoiseSpec(systematic_percent_ff=2.0, seed=derive_seed(100, s))
        na = NoiseSpec(systematic_percent_attn=2.0, seed=derive_seed(200, s))
        ff.append(deviation(forward(cfg, wts, x, OpticalBackend(nf)).final, clean))
        attn.append(deviation(forward(cfg, wts, x, OpticalBackend(na)).final, clean))
    assert np.mean(ff) > np.mean(attn)


# --------------------------------------------------------------------------
# trace serialization


@pytest.mark.parametrize("bad", [np.array([object()]), np.array([1j])],
                         ids=["mean_abs_fails", "encoding_fails"])
def test_save_trace_that_fails_leaves_no_file(tmp_path, bad):
    # as the CLI saves a trace: write_json of trace_to_json_dict
    def save_trace(path, trace):
        write_json(path, trace_to_json_dict(trace, TINY, 9))

    trace = forward(TINY, init_weights(TINY, 9), make_input(TINY, 9))
    broken = replace(trace, post_ff=[bad] * TINY.L)
    path = tmp_path / "trace.json"
    with pytest.raises(TypeError):
        save_trace(path, broken)
    assert list(tmp_path.iterdir()) == []
    save_trace(path, trace)
    saved = path.read_bytes()
    with pytest.raises(TypeError):
        save_trace(path, broken)
    assert path.read_bytes() == saved
    assert list(tmp_path.iterdir()) == [path]


def test_trace_write_that_fails_part_way_leaves_no_file(tmp_path, monkeypatch):
    # a trace is formatted as it is written: the third block of rows fails
    # once the temporary file is open and two blocks have gone to it
    def save_trace(path):
        write_json(path, trace_to_json_dict(trace, TINY, 9))

    def failing_rows_text(*args):
        calls.append(sorted(p.name[:5] for p in tmp_path.iterdir()))
        if len(calls) == 3:
            raise RuntimeError("third block")
        return rows_text(*args)

    trace = forward(TINY, init_weights(TINY, 9), make_input(TINY, 9))
    path = tmp_path / "trace.json"
    rows_text = photonsim.artifacts._rows_text
    monkeypatch.setattr(photonsim.artifacts, "_rows_text", failing_rows_text)
    calls = []
    with pytest.raises(RuntimeError, match="third block"):
        save_trace(path)
    assert calls == [[".tmp-"]] * 3
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(photonsim.artifacts, "_rows_text", rows_text)
    save_trace(path)
    saved = path.read_bytes()
    monkeypatch.setattr(photonsim.artifacts, "_rows_text", failing_rows_text)
    calls = []
    with pytest.raises(RuntimeError, match="third block"):
        save_trace(path)
    assert path.read_bytes() == saved
    assert list(tmp_path.iterdir()) == [path]


def test_trace_round_trip(tmp_path):
    wts = init_weights(TINY, 9)
    trace = forward(TINY, wts, make_input(TINY, 9))
    path = tmp_path / "trace.json"
    doc = trace_to_json_dict(trace, TINY, 9)
    write_json(path, doc)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["config"] == {"name": "tiny", "n": 4, "d": 8, "h": 2, "L": 2}
    assert loaded["seed"] == 9
    assert np.allclose(loaded["final"], trace.final, rtol=1e-8, atol=0)  # 9 digits
    assert len(loaded["post_attention"]) == TINY.L
    assert doc["mean_abs"] == trace.mean_abs()
