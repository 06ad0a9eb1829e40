"""Physics layer: LUTs, quantization, four-pass products, shot/systematic noise."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonsim import (EmaState, LookupTable, NoiseSpec, QuantizerSpec, apply_shot_noise,
                       apply_systematic_noise, derive_rng, derive_seed, empirical_snr,
                       four_pass_decompose, load_lut, lut_synthesize, optical_matmul,
                       quantize, recombine, save_lut)
from photonsim.optics import (GAUSSIAN_SHOT_PHOTONS, MAX_SNAP_BINS, _breakpoints,
                              _snap_by_table, _snap_deterministic, lut_snap)


# --------------------------------------------------------------------------
# seeded RNG derivation


def test_derive_rng_deterministic_and_keyed():
    a = derive_rng(7, 1).normal(size=4)
    b = derive_rng(7, 1).normal(size=4)
    c = derive_rng(7, 2).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)


# --------------------------------------------------------------------------
# lookup tables


def test_lut_synthesize_binary():
    lut = lut_synthesize(2, 2, floor=0.0)
    assert np.array_equal(lut.unique_levels, [0.0, 1.0])


def test_lut_synthesize_slm_like():
    lut = lut_synthesize(128, 256, floor=0.02)
    assert lut.levels.size == 256
    assert lut.unique_count == 128
    assert lut.levels[0] == 0.02
    assert lut.levels[-1] == 1.0
    assert lut.unique_levels.min() >= 0.02


def test_lut_single_level():
    lut = lut_synthesize(1, 4)
    assert np.array_equal(lut.levels, np.ones(4))


def test_lut_validation():
    with pytest.raises(ValueError):
        LookupTable(levels=np.array([0.5, 0.2, 1.0]))  # unsorted
    with pytest.raises(ValueError):
        LookupTable(levels=np.array([0.0, 0.5]))  # max != 1
    with pytest.raises(ValueError):
        LookupTable(levels=np.array([-0.1, 1.0]))
    with pytest.raises(ValueError):
        LookupTable(levels=np.array([0.01, 1.0]), floor=0.05)  # below floor
    with pytest.raises(ValueError):
        lut_synthesize(8, 4)
    lut = lut_synthesize(4, 4)
    with pytest.raises(ValueError):
        lut.levels[0] = 0.5  # frozen


def test_lut_csv_round_trip(tmp_path):
    lut = lut_synthesize(16, 32, floor=0.02)
    path = tmp_path / "lut.csv"
    save_lut(path, lut)
    loaded = load_lut(path)
    assert np.allclose(loaded.levels, lut.levels, atol=1e-9)
    assert loaded.floor == pytest.approx(0.02, abs=1e-9)
    # a second save of the loaded table is byte-stable
    path2 = tmp_path / "lut2.csv"
    save_lut(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_load_lut_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n0,0.5\n")
    with pytest.raises(ValueError):
        load_lut(path)
    path.write_text("level_index,value\n0,0.0\n2,1.0\n")  # gap in index
    with pytest.raises(ValueError):
        load_lut(path)
    path.write_text("level_index,value\n0,0.0\n1,1.5\n")  # out of range
    with pytest.raises(ValueError):
        load_lut(path)


# --------------------------------------------------------------------------
# quantization


def test_quantize_frozen_example():
    q = quantize(np.array([0.5, 1.0]), QuantizerSpec())
    # 0.5*255 = 127.5 is an exact tie; half-even picks level 128
    assert q[0] == 128 / 255
    assert q[1] == 1.0
    # alone, 0.5 is the max and normalizes to itself
    assert quantize(np.array([0.5]), QuantizerSpec())[0] == 0.5


def test_quantize_idempotent():
    rng = derive_rng(3)
    x = rng.normal(size=100_000)
    for pct in (100.0, 99.5):
        spec = QuantizerSpec(clip_percentile=pct)
        q = quantize(x, spec)
        assert np.array_equal(quantize(q, spec), q)


def test_quantize_monotone():
    rng = derive_rng(4)
    x = np.sort(rng.normal(size=100_000))
    q = quantize(x, QuantizerSpec())
    assert np.all(np.diff(q) >= 0)


def test_quantize_preserves_sign_and_zero():
    x = np.array([-1.0, -0.25, 0.0, 0.25, 1.0])
    q = quantize(x, QuantizerSpec())
    assert q[2] == 0.0
    assert np.all(np.sign(q) == np.sign(x))
    assert np.array_equal(quantize(np.zeros(5), QuantizerSpec()), np.zeros(5))


def test_quantize_signed_grid_is_coarser():
    # signed tensors spend one bit on sign: 2^(bits-1) magnitude levels
    spec = QuantizerSpec(bits=3)
    pos = quantize(np.linspace(0, 1, 1000), spec)
    sgn = quantize(np.linspace(-1, 1, 1000), spec)
    assert len(np.unique(pos)) == 8
    assert len(np.unique(np.abs(sgn))) == 4


def test_quantize_percentile_clips():
    x = np.concatenate([np.full(999, 0.1), [10.0]])
    spec = QuantizerSpec(clip_percentile=99.0)
    q = quantize(x, spec)
    assert q.max() < 10.0  # the outlier is clipped to the percentile scale
    assert q.max() == np.percentile(np.abs(x), 99.0, method="higher") == 0.1


def test_quantize_tie_half_even():
    # one magnitude bit: levels {0, 1}; 0.5 ties and rounds to even index 0
    q = quantize(np.array([0.5, 1.0]), QuantizerSpec(bits=1))
    assert q[0] == 0.0 and q[1] == 1.0


def _snap_reference(x, levels):
    """The nearest-level rule written plainly: ties to the even level index."""
    hi_idx = np.clip(np.searchsorted(levels, x, side="left"), 1, levels.size - 1)
    lo_idx = hi_idx - 1
    d_lo = x - levels[lo_idx]
    d_hi = levels[hi_idx] - x
    pick_lo = (d_lo < d_hi) | ((d_lo == d_hi) & (lo_idx % 2 == 0))
    return np.where(pick_lo, levels[lo_idx], levels[hi_idx])


@pytest.mark.parametrize("levels", [
    np.linspace(0.0, 1.0, 9),
    lut_synthesize(128, 256, floor=0.004).unique_levels,
    np.sort(np.append(derive_rng(8).uniform(0.0, 1.0, 40), 1.0)),
    np.array([1.0]),
], ids=["uniform", "synthesized", "random", "single"])
def test_snap_deterministic_matches_reference(levels):
    rng = derive_rng(9)
    midpoints = (levels[:-1] + levels[1:]) / 2  # exact ties where representable
    cases = [rng.uniform(0.0, 1.0, 5000), midpoints, levels,
             rng.uniform(-2.0, 3.0, (40, 60)), rng.uniform(-2.0, 3.0, (60, 40)).T,
             np.array([-np.inf, -1.0, -0.0, 1.5, np.inf, np.nan])]
    for x in cases:
        want = _snap_reference(x, levels)
        got = _snap_deterministic(x, levels)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert _snap_deterministic(np.float64(0.3), levels) == _snap_reference(0.3, levels)


def _snap_inputs(levels, breakpoints, bins, extra):
    """Values that probe every branch of the snap: the levels, their midpoints,
    the breakpoints, bin edges, the floats next to each, specials and values
    outside [0, 1]."""
    edges = np.arange(0, bins, max(1, bins // 512)) / bins
    midpoints = (levels[:-1] + levels[1:]) / 2
    base = np.concatenate([levels, midpoints, breakpoints, edges, np.asarray(extra, dtype=float),
                           [-np.inf, -1.0, -0.0, 0.0, 1.0, 1.5, np.inf, np.nan]])
    return np.concatenate([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)])


def _assert_same_snap(got, want):
    assert got.tobytes() == want.tobytes()
    assert got.shape == want.shape and got.strides == want.strides


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.floats(0.0, 1.0), max_size=40),
       close=st.lists(st.floats(0.0, 1.0), max_size=3),
       extra=st.lists(st.floats(-0.5, 1.5), max_size=20))
def test_binned_snap_matches_binary_search(points, close, extra):
    # `close` adds runs of three levels one ulp apart, whose two breakpoints
    # no table of at most MAX_SNAP_BINS bins separates: those LUTs fall back
    # to the binary search
    close = np.asarray(close)
    levels = np.concatenate([points, close, np.nextafter(close, 2.0),
                             np.nextafter(np.nextafter(close, 2.0), 2.0), [1.0]])
    lut = LookupTable(levels=np.unique(levels[levels <= 1.0]))
    levels, table = lut.unique_levels, lut.snap_table
    breakpoints = _breakpoints(levels)
    # each breakpoint is the first value snapped to its level
    assert np.array_equal(_snap_deterministic(breakpoints, levels), levels[1:])
    assert np.all(_snap_deterministic(np.nextafter(breakpoints, -1.0), levels) < levels[1:])
    if table is None:
        assert np.diff(breakpoints).min() < 1.0 / MAX_SNAP_BINS
        return
    bins = table.breakpoint.size
    assert bins & (bins - 1) == 0 and bins <= MAX_SNAP_BINS
    x = _snap_inputs(levels, breakpoints, bins, extra)
    _assert_same_snap(_snap_by_table(x, table), _snap_deterministic(x, levels))
    assert _snap_by_table(x, table).tobytes() == _snap_reference(x, levels).tobytes()
    square = x[: (x.size // 6) * 6].reshape(6, -1)
    for layout in (square, np.asfortranarray(square), square[:, ::2], square.T):
        _assert_same_snap(_snap_by_table(layout, table),
                          _snap_deterministic(layout, levels))
    for value in (x[0], x[-1], np.float64(np.nan), np.float64(-np.inf)):
        got = _snap_by_table(value, table)
        _assert_same_snap(got, _snap_deterministic(value, levels))
        assert got.shape == ()


@pytest.mark.parametrize("lut,has_table", [
    (lut_synthesize(128, 256, floor=0.004), True),
    (lut_synthesize(32, 256, floor=0.0), True),
    (lut_synthesize(1, 4), True),
    (LookupTable(levels=np.array([0.0, 0.25, 0.25 + 1e-12, 0.25 + 2e-12, 1.0])), False),
], ids=["synthesized", "no-floor", "single", "fallback"])
def test_quantize_lut_matches_binary_search(lut, has_table):
    # the LUT path of quantize, through the snap table, against the binary
    # search on the same layout
    spec = QuantizerSpec(mode="lut")
    assert (lut.snap_table is not None) == has_table
    rng = derive_rng(21)
    for values in (rng.normal(size=(40, 30)), rng.normal(size=(30, 40)).T,
                   rng.normal(size=(40, 60))[:, ::2], np.array([[0.0, -0.0, 1e-300, -2.0]]),
                   np.array([[1.0, np.inf, -1.0]]), np.array([[np.nan, 1.0]])):
        magnitudes = np.abs(values)
        scale = magnitudes.max()
        with np.errstate(invalid="ignore"):  # inf / inf and NaN
            normalized = np.minimum(magnitudes / scale, 1.0)
            want = np.sign(values) * _snap_deterministic(normalized, lut.unique_levels)
            want *= scale
            got = quantize(values, spec, lut=lut)
        _assert_same_snap(got, want)


def test_quantize_scalar_input():
    lut = lut_synthesize(8, 8)
    assert quantize(0.0, QuantizerSpec(mode="lut"), lut=lut) == 0.0
    assert quantize(-0.3, QuantizerSpec(mode="lut"), lut=lut) == -0.3  # its own scale
    state = EmaState(lo=0.0, hi=1.0)
    assert quantize(0.4, QuantizerSpec(mode="ema", bits=1), state=state) == state.lo


def test_quantize_stochastic_unbiased():
    rng = derive_rng(5)
    n = 100_000
    for value in (0.3, 0.5, 0.7):
        x = np.full(n, value)
        x = np.append(x, 1.0)  # pin the scale
        spec = QuantizerSpec(bits=4, rounding="stochastic")
        q = quantize(x, spec, rng=rng)[:-1]
        width = 1 / 15  # 2^4 levels on [0, 1]
        lo = math.floor(value / width) * width
        p_up = (value - lo) / width
        sigma = width * math.sqrt(p_up * (1 - p_up) / n)
        assert abs(q.mean() - value) < 3 * sigma + 1e-12


def test_quantize_stochastic_requires_rng():
    with pytest.raises(ValueError):
        quantize(np.array([0.5]), QuantizerSpec(rounding="stochastic"))


def test_quantize_lut_mode_respects_floor():
    lut = lut_synthesize(128, 256, floor=0.02)
    rng = derive_rng(6)
    x = rng.normal(size=10_000)
    q = quantize(x, QuantizerSpec(mode="lut"), lut=lut)
    scale = np.abs(x).max()
    nonzero = np.abs(q[q != 0.0]) / scale
    assert nonzero.min() >= 0.02 - 1e-12


def test_quantize_lut_requires_table():
    with pytest.raises(ValueError):
        quantize(np.array([0.5]), QuantizerSpec(mode="lut"))


def test_quantize_ema_mode():
    spec = QuantizerSpec(mode="ema", bits=2)
    x = np.array([0.0, 1.0, 2.0, 3.0])
    q = quantize(x, spec)  # grid over [0, 3] with 4 levels: exact
    assert np.array_equal(q, x)
    state = EmaState()
    quantize(x, spec, state=state)
    assert (state.lo, state.hi) == (0.0, 3.0)
    quantize(np.array([0.0, 30.0]), QuantizerSpec(mode="ema", ema_gamma=0.9), state=state)
    assert state.hi == pytest.approx(0.9 * 3.0 + 0.1 * 30.0)
    # constant input maps to itself
    assert np.array_equal(quantize(np.full(3, 5.0), spec), np.full(3, 5.0))


def test_ema_state_update():
    s = EmaState()
    s.update(-1.0, 2.0, 0.999)
    assert (s.lo, s.hi) == (-1.0, 2.0)
    s.update(-3.0, 4.0, 0.5)
    assert s.lo == pytest.approx(-2.0) and s.hi == pytest.approx(3.0)


def test_quantizer_spec_validation_and_json():
    with pytest.raises(ValueError):
        QuantizerSpec(mode="nope")
    with pytest.raises(ValueError):
        QuantizerSpec(bits=0)
    with pytest.raises(ValueError):
        QuantizerSpec(ema_gamma=1.0)
    with pytest.raises(ValueError):
        QuantizerSpec(clip_percentile=0.0)
    with pytest.raises(ValueError):
        QuantizerSpec(rounding="sometimes")
    spec = QuantizerSpec(mode="ema", bits=6, ema_gamma=0.99, clip_percentile=99.9)
    assert QuantizerSpec.from_json(spec.to_json()) == spec


# --------------------------------------------------------------------------
# four-pass decomposition


def test_four_pass_frozen_example():
    ops = four_pass_decompose([[1.0, -2.0]], [[3.0], [4.0]])
    assert np.array_equal(ops.w_pos, [[1.0, 0.0]])
    assert np.array_equal(ops.w_neg, [[0.0, 2.0]])
    assert np.array_equal(ops.x_pos, [[3.0], [4.0]])
    assert np.array_equal(ops.x_neg, [[0.0], [0.0]])
    assert np.array_equal(recombine(ops), [[-5.0]])


def test_four_pass_operands_non_negative():
    rng = derive_rng(8)
    ops = four_pass_decompose(rng.normal(size=(5, 7)), rng.normal(size=(7, 3)))
    for left, right, sign in ops.passes():
        assert np.all(left >= 0) and np.all(right >= 0)
        assert sign in (1.0, -1.0)
    signs = [s for _, _, s in ops.passes()]
    assert signs == [1.0, -1.0, -1.0, 1.0]


def test_four_pass_recombines_exactly():
    rng = derive_rng(9)
    for _ in range(200):
        m, k, p = rng.integers(1, 17, size=3)
        w = rng.normal(size=(m, k))
        x = rng.normal(size=(k, p))
        assert np.allclose(recombine(four_pass_decompose(w, x)), w @ x,
                           rtol=1e-12, atol=1e-12)


def test_four_pass_split_matches_where():
    # the sign split gives +0.0 for zeros of either sign and for NaN, like
    # np.where, and keeps the operand's layout
    a = np.array([[-0.0, 0.0, np.nan, np.inf], [-np.inf, 1.5, -2.5, 5e-324]])
    for layout in (a, np.asfortranarray(a), a[:, ::-1], a[:, ::2]):
        ops = four_pass_decompose(layout, layout.T)
        for got, want in ((ops.w_pos, np.where(layout > 0, layout, 0.0)),
                          (ops.w_neg, np.where(layout < 0, -layout, 0.0)),
                          (ops.x_pos, np.where(layout.T > 0, layout.T, 0.0)),
                          (ops.x_neg, np.where(layout.T < 0, -layout.T, 0.0))):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides


def test_four_pass_shape_validation():
    with pytest.raises(ValueError):
        four_pass_decompose(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        four_pass_decompose(np.ones(3), np.ones((3, 2)))


# --------------------------------------------------------------------------
# shot noise


def test_shot_noise_snr_sqrt_law():
    n_trials = 10_000
    outputs = np.ones(n_trials)
    for photons in (100.0, 1000.0):
        noisy = apply_shot_noise(outputs, photons, 1, seed=derive_rng(10, int(photons)))
        snr = noisy.mean() / noisy.std(ddof=1)
        assert snr == pytest.approx(math.sqrt(photons), rel=0.05)


def test_shot_noise_snr_invariant_under_length():
    # halving per-MAC photons while doubling the dot-product length keeps
    # the photons per output, hence the SNR, unchanged
    outputs = np.ones(20_000)
    a = apply_shot_noise(outputs, 200.0, 1, seed=derive_rng(11, 0))
    b = apply_shot_noise(outputs, 100.0, 2, seed=derive_rng(11, 1))
    snr_a = a.mean() / a.std(ddof=1)
    snr_b = b.mean() / b.std(ddof=1)
    assert snr_a == pytest.approx(snr_b, rel=0.05)


def test_shot_noise_unbiased():
    rng = derive_rng(12)
    outputs = rng.uniform(0.5, 2.0, size=50_000)
    noisy = apply_shot_noise(outputs, 50.0, 4, seed=rng)
    assert noisy.mean() == pytest.approx(outputs.mean(), rel=0.01)


def test_shot_noise_edge_cases():
    outputs = np.array([1.0, 2.0])
    assert np.array_equal(apply_shot_noise(outputs, math.inf, 3), outputs)
    zeros = np.zeros(4)
    assert np.array_equal(apply_shot_noise(zeros, 100.0, 1), zeros)
    with pytest.raises(ValueError):
        apply_shot_noise(np.array([-1.0]), 100.0, 1)
    with pytest.raises(ValueError):
        apply_shot_noise(outputs, 0.0, 1)
    with pytest.raises(ValueError):
        apply_shot_noise(outputs, 100.0, 0)


def test_shot_noise_tiny_intensities():
    # with a mean below about 1e-305, photons / mean overflows; the draw is
    # then scaled through the mean, and stays within numpy's Poisson limit
    outputs = np.array([1e-310, 3e-310, 0.0, 2e-310])
    noisy = apply_shot_noise(outputs, 100.0, 1, seed=derive_rng(31))
    assert np.all(np.isfinite(noisy)) and noisy[2] == 0.0
    assert 0 < noisy.sum() < 10 * outputs.sum()
    w = np.full((3, 4), 1e-160)
    out = optical_matmul(w, w.T, NoiseSpec(photons_per_mac=10.0), seed=derive_rng(32))
    assert np.all(np.isfinite(out)) and np.all(out >= 0)


def test_shot_noise_deterministic_with_seed():
    outputs = np.ones(100)
    a = apply_shot_noise(outputs, 10.0, 1, seed=derive_rng(13))
    b = apply_shot_noise(outputs, 10.0, 1, seed=derive_rng(13))
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# systematic noise


def test_systematic_noise_calibration():
    rng = derive_rng(14)
    outputs = np.abs(rng.normal(size=100_000)) + 0.1
    noisy = apply_systematic_noise(outputs, 5.0, seed=rng)
    err = noisy - outputs
    target = 0.05 * np.abs(outputs).mean()
    assert err.std(ddof=1) == pytest.approx(target, rel=0.02)
    assert abs(err.mean()) < 4 * target / math.sqrt(err.size)


def test_systematic_noise_zero_percent():
    outputs = np.array([1.0, -2.0])
    assert np.array_equal(apply_systematic_noise(outputs, 0.0), outputs)
    with pytest.raises(ValueError):
        apply_systematic_noise(outputs, -1.0)


# --------------------------------------------------------------------------
# NoiseSpec


def test_noise_spec_defaults_and_json():
    spec = NoiseSpec()
    assert spec.systematic_percent_ff == 0.0
    assert spec.systematic_percent_attn == 0.0
    assert math.isinf(spec.photons_per_mac)
    round_trip = NoiseSpec.from_json(spec.to_json())
    assert math.isinf(round_trip.photons_per_mac)
    spec = NoiseSpec(systematic_percent_ff=1.5, photons_per_mac=500.0, seed=9)
    assert NoiseSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        NoiseSpec(systematic_percent_ff=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(systematic_percent_attn=math.nan)
    with pytest.raises(ValueError):
        NoiseSpec(photons_per_mac=0.0)


# --------------------------------------------------------------------------
# full optical product


def test_optical_matmul_noiseless_is_exact():
    rng = derive_rng(15)
    w = rng.normal(size=(6, 8))
    x = rng.normal(size=(8, 5))
    out = optical_matmul(w, x)  # defaults: no noise, no LUTs
    assert np.array_equal(out, w @ x)


def test_optical_matmul_noiseless_with_luts_matches_quantized_digital():
    rng = derive_rng(16)
    w = rng.normal(size=(6, 8))
    x = rng.normal(size=(8, 5))
    in_lut = lut_synthesize(64, 64)
    w_lut = lut_synthesize(128, 128, floor=0.02)
    out = optical_matmul(w, x, input_lut=in_lut, weight_lut=w_lut)
    spec = QuantizerSpec(mode="lut")
    expected = quantize(w, spec, lut=w_lut) @ quantize(x, spec, lut=in_lut)
    assert np.array_equal(out, expected)


def test_optical_matmul_attn_kind_uses_input_lut_for_both():
    rng = derive_rng(17)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 4))
    in_lut = lut_synthesize(8, 8)
    out = optical_matmul(w, x, input_lut=in_lut, kind="attn")
    spec = QuantizerSpec(mode="lut")
    expected = quantize(w, spec, lut=in_lut) @ quantize(x, spec, lut=in_lut)
    assert np.array_equal(out, expected)


def test_optical_matmul_systematic_kind_selection():
    rng = derive_rng(18)
    w = np.abs(rng.normal(size=(4, 4)))
    x = np.abs(rng.normal(size=(4, 4)))
    noise = NoiseSpec(systematic_percent_ff=5.0, systematic_percent_attn=0.0)
    ff = optical_matmul(w, x, noise, seed=derive_rng(18, 1), kind="ff")
    attn = optical_matmul(w, x, noise, seed=derive_rng(18, 1), kind="attn")
    assert not np.array_equal(ff, w @ x)      # ff percent applies
    assert np.array_equal(attn, w @ x)        # attn percent is zero


def test_optical_matmul_shot_noise_scales_with_budget():
    rng = derive_rng(19)
    w = np.abs(rng.normal(size=(8, 16)))
    x = np.abs(rng.normal(size=(16, 8)))
    clean = w @ x

    def mean_err(photons, accounting):
        trials = [optical_matmul(w, x, NoiseSpec(photons_per_mac=photons),
                                 seed=derive_rng(19, accounting == "shared", t),
                                 photon_accounting=accounting)
                  for t in range(30)]
        return np.mean([np.abs(t - clean).mean() for t in trials])

    rich = mean_err(1000.0, "per_pass")
    poor = mean_err(10.0, "per_pass")
    shared = mean_err(1000.0, "shared")
    assert poor > 3 * rich       # ~sqrt(100)x noisier
    assert shared > rich         # splitting the budget always hurts


def _four_pass_poisson(w, x, photons_per_mac, rng):
    """optical_matmul's shot noise written out plainly: four sign-split passes,
    each Poisson-sampled, recombined with signs (the reference path)."""
    w_pos, w_neg = np.where(w > 0, w, 0.0), np.where(w < 0, -w, 0.0)
    x_pos, x_neg = np.where(x > 0, x, 0.0), np.where(x < 0, -x, 0.0)
    product = np.zeros((w.shape[0], x.shape[1]))
    for left, right, sign in ((w_pos, x_pos, 1.0), (w_neg, x_pos, -1.0),
                              (w_pos, x_neg, -1.0), (w_neg, x_neg, 1.0)):
        term = apply_shot_noise(left @ right, photons_per_mac, w.shape[1], seed=rng)
        product = product + sign * term
    return product


@pytest.mark.parametrize("photons,percent,luts,shape", [
    (0.5, 0.0, False, (6, 8, 5)),
    (10.0, 2.0, True, (12, 64, 9)),
    (GAUSSIAN_SHOT_PHOTONS / 16 * (1 - 1e-12), 1.0, True, (5, 16, 7)),
    (1.0, 0.0, True, (40, 128, 30)),
])
def test_optical_matmul_below_threshold_is_the_poisson_path(photons, percent, luts, shape):
    m, k, p = shape
    assert photons * k < GAUSSIAN_SHOT_PHOTONS
    rng = derive_rng(22, k)
    w = rng.normal(size=(k, m)).T  # F order, as the backend hands operands over
    x = rng.normal(size=(p, k)).T
    w[0] = 0.0
    x[:, 0] = -0.0
    in_lut = lut_synthesize(32, 256, floor=0.004) if luts else None
    w_lut = lut_synthesize(128, 256, floor=0.002) if luts else None
    noise = NoiseSpec(systematic_percent_ff=percent, photons_per_mac=photons)
    got_rng, want_rng = derive_rng(23, k), derive_rng(23, k)
    got = optical_matmul(w, x, noise, input_lut=in_lut, weight_lut=w_lut, seed=got_rng)
    if luts:
        w, x = lut_snap(w, w_lut), lut_snap(x, in_lut)
    want = apply_systematic_noise(_four_pass_poisson(w, x, photons, want_rng), percent,
                                  seed=want_rng)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_optical_matmul_gaussian_matches_poisson_statistics():
    # 64x128 @ 128x96: 1280 to 128000 photons per output, all on the Gaussian
    # path; the Poisson reference runs at the same budgets
    rng = derive_rng(24)
    w = rng.normal(size=(64, 128))
    x = rng.normal(size=(128, 96))
    clean = w @ x
    trials = 60
    scaled_std = []
    for photons in (10.0, 100.0, 1000.0):
        assert photons * 128 >= GAUSSIAN_SHOT_PHOTONS
        noise = NoiseSpec(photons_per_mac=photons)
        gauss = np.stack([optical_matmul(w, x, noise, seed=derive_rng(25, int(photons), t))
                          - clean for t in range(trials)])
        poisson = np.stack([_four_pass_poisson(w, x, photons, derive_rng(26, int(photons), t))
                            - clean for t in range(trials)])
        for err in (gauss, poisson):
            assert abs(err.mean()) < 5 * err.std() / math.sqrt(err.size)
        assert gauss.std() == pytest.approx(poisson.std(), rel=0.02)
        scaled_std.append(gauss.std() * math.sqrt(photons))
    # SNR grows as the square root of the photon budget
    assert scaled_std[0] == pytest.approx(scaled_std[1], rel=0.02)
    assert scaled_std[0] == pytest.approx(scaled_std[2], rel=0.02)


def test_optical_matmul_gaussian_variance_per_output():
    # each output's variance is sum(p_i * mean(p_i)) / (photons * K) over the
    # four non-negative passes, as for four independent Poisson readouts
    rng = derive_rng(27)
    w = rng.normal(size=(8, 32))
    x = rng.normal(size=(32, 6))
    photons = 50.0
    ops = four_pass_decompose(w, x)
    passes = [left @ right for left, right, _ in ops.passes()]
    expected = sum(p * p.mean() for p in passes) / (photons * 32)
    noise = NoiseSpec(photons_per_mac=photons)
    samples = np.stack([optical_matmul(w, x, noise, seed=derive_rng(28, t))
                        for t in range(4000)])
    assert samples.mean(axis=0) == pytest.approx(w @ x, abs=5 * math.sqrt(expected.max() / 4000))
    ratio = samples.var(axis=0, ddof=1) / expected
    assert ratio.mean() == pytest.approx(1.0, rel=0.02)
    assert np.all(np.abs(ratio - 1.0) < 0.15)


@pytest.mark.parametrize("photons", [1e17, 1e308])
def test_optical_matmul_huge_photon_budget(photons):
    # numpy's Poisson sampler rejects means above about 9.2e18; the Gaussian
    # path has no such limit, and its noise vanishes as the budget grows
    rng = derive_rng(29)
    w = rng.normal(size=(16, 64))
    x = rng.normal(size=(64, 8))
    out = optical_matmul(w, x, NoiseSpec(photons_per_mac=photons), seed=derive_rng(30))
    assert np.all(np.isfinite(out))
    assert out == pytest.approx(w @ x, rel=1e-6, abs=1e-6)


def test_optical_matmul_validation():
    with pytest.raises(ValueError):
        optical_matmul(np.ones((2, 3)), np.ones((2, 3)), kind="nope")
    with pytest.raises(ValueError):
        optical_matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        optical_matmul(np.ones((2, 3)), np.ones((3, 2)), photon_accounting="half")


# --------------------------------------------------------------------------
# empirical SNR helper


def test_empirical_snr_poisson():
    rng = derive_rng(20)
    samples = [rng.poisson(100.0, size=500).astype(float) for _ in range(200)]
    assert empirical_snr(samples) == pytest.approx(10.0, rel=0.05)
    samples = [rng.poisson(1.0, size=500).astype(float) for _ in range(400)]
    assert empirical_snr(samples) == pytest.approx(1.0, rel=0.1)


def test_empirical_snr_edge_cases():
    same = [np.ones(4), np.ones(4)]
    assert math.isinf(empirical_snr(same))
    with pytest.raises(ValueError):
        empirical_snr([np.ones(4)])
