"""Physics layer: LUTs, quantization, four-pass products, shot/systematic noise."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import photonsim.optics
from photonsim import (LookupTable, NoiseSpec, QuantizerSpec, apply_shot_noise,
                       apply_systematic_noise, derive_rng, derive_seed, four_pass_decompose,
                       lut_synthesize, optical_matmul, quantize, recombine, save_lut)
from photonsim.optics import (GAUSSIAN_SHOT_PHOTONS, MAX_SNAP_BINS, _breakpoints,
                              _snap_deterministic, lut_from_csv, lut_snap)


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
    assert lut.unique_levels.size == 128
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
    for levels in ([0.0, 0.5, math.nan], [0.0, math.nan, 1.0]):  # NaN fails every comparison
        with pytest.raises(ValueError, match="levels must be finite"):
            LookupTable(levels=np.array(levels))
    with pytest.raises(ValueError, match="non-empty"):
        LookupTable(levels=np.array([]))
    with pytest.raises(ValueError):
        lut_synthesize(8, 4)
    with pytest.raises(ValueError, match="unique_levels"):
        lut_synthesize(0, 4)
    with pytest.raises(ValueError, match="floor"):
        lut_synthesize(4, 4, floor=1.0)
    lut = lut_synthesize(4, 4)
    with pytest.raises(ValueError):
        lut.levels[0] = 0.5  # frozen


def test_lut_csv_round_trip(tmp_path):
    lut = lut_synthesize(16, 32, floor=0.02)
    path = tmp_path / "lut.csv"
    save_lut(path, lut)
    loaded = lut_from_csv(path.read_text(encoding="utf-8"))
    assert np.allclose(loaded.levels, lut.levels, atol=1e-9)
    assert loaded.levels[0] == pytest.approx(0.02, abs=1e-9)
    # a second save of the loaded table is byte-stable
    path2 = tmp_path / "lut2.csv"
    save_lut(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("unique, floor, least", [(32, 0.0, 1 / 31), (16, 0.02, 0.02),
                                                  (1, 0.0, 1.0)],
                         ids=["floor_0", "floor_0.02", "single_level"])
def test_lut_floor_is_its_least_nonzero_level(tmp_path, unique, floor, least):
    # a save and load keeps it to the CSV's 9 digits; a single level loads back too
    def least_nonzero(lut):
        return lut.levels[lut.levels > 0].min()

    lut = lut_synthesize(unique, 2 * unique, floor=floor)
    assert least_nonzero(lut) == pytest.approx(least, rel=1e-15)
    save_lut(tmp_path / "lut.csv", lut)
    loaded = lut_from_csv((tmp_path / "lut.csv").read_text(encoding="utf-8"))
    assert f"{least_nonzero(loaded):.9g}" == f"{least_nonzero(lut):.9g}"


def test_save_lut_bytes(tmp_path):
    path = tmp_path / "lut.csv"
    save_lut(path, LookupTable(levels=np.array([0.0, 1 / 3, 2 / 3, 1.0])))
    assert path.read_bytes() == b"level_index,value\n0,0\n1,0.333333333\n2,0.666666667\n3,1\n"


def test_load_lut_rejects_bad_files():
    with pytest.raises(ValueError, match="header"):
        lut_from_csv("wrong,header\n0,0.5\n")
    with pytest.raises(ValueError, match="ascend"):
        lut_from_csv("level_index,value\n0,0.0\n2,1.0\n")  # gap in index
    with pytest.raises(ValueError, match="lie in"):
        lut_from_csv("level_index,value\n0,0.0\n1,1.5\n")  # out of range


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
    assert quantize(np.array([]), QuantizerSpec()).shape == (0,)


def test_quantize_signed_grid_is_coarser():
    # signed tensors spend one bit on sign: 2^(bits-1) magnitude levels
    spec = QuantizerSpec(bits=3)
    pos = quantize(np.linspace(0, 1, 1000), spec)
    sgn = quantize(np.linspace(-1, 1, 1000), spec)
    assert len(np.unique(pos)) == 8
    assert len(np.unique(np.abs(sgn))) == 4
    # one bit leaves no magnitude bit: a signed tensor still gets levels {0, 1}
    sgn = quantize(np.linspace(-1, 1, 1000), QuantizerSpec(bits=1))
    assert np.array_equal(np.unique(np.abs(sgn)), [0.0, 1.0])


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
@example(points=[0.0, 5e-324, 1e-310, 2.2250738585072014e-308], close=[], extra=[5e-324])
@example(points=[0.5, float(np.nextafter(0.5, 1.0)), 0.25, float(np.nextafter(0.25, 0.0))],
         close=[], extra=[])
@example(points=[0.0, 5e-324, 0.75], close=[], extra=[5e-324, 1e-323])
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
    bins = table.bins
    assert bins & (bins - 1) == 0 and bins <= MAX_SNAP_BINS
    # the probes in [0, 1] with alternating signs: the largest magnitude is
    # the top level, 1.0, so lut_snap's scale is 1 and its table snaps |v|
    x = _snap_inputs(levels, breakpoints, bins, extra)
    x = x[(x >= 0.0) & (x <= 1.0)]
    values = np.where(np.arange(x.size) % 2 == 1, -x, x)
    assert np.abs(values).max() == 1.0
    got = lut_snap(values, lut)
    assert got.tobytes() == (np.sign(values) * _snap_deterministic(x, levels)).tobytes()
    _assert_same_snap(got, _lut_snap_plain(values, lut))
    square = values[: (values.size // 6) * 6].reshape(6, -1)
    square.flat[0] = 1.0
    for layout in (square, np.asfortranarray(square), square[:, ::2], square.T):
        _assert_same_snap(lut_snap(layout, lut), _lut_snap_plain(layout, lut))


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
    # 256x160 float64 is 320 KiB: numpy then writes the sign product in place
    large = [rng.normal(size=(256, 160)) for _ in range(3)]
    large[1][0, :2], large[2][5, 7] = (np.inf, -np.inf), np.nan
    for values in (rng.normal(size=(40, 30)), rng.normal(size=(30, 40)).T,
                   rng.normal(size=(40, 60))[:, ::2], np.array([[0.0, -0.0, 1e-300, -2.0]]),
                   np.array([[1.0, np.inf, -1.0]]), np.array([[np.nan, 1.0]]),
                   *large, *map(np.asfortranarray, large)):
        magnitudes = np.abs(values)
        scale = magnitudes.max()
        if not math.isfinite(scale):  # an inf or NaN operand has no scale to snap by
            with pytest.raises(ValueError, match="clip scale"):
                quantize(values, spec, lut=lut)
            continue
        normalized = np.minimum(magnitudes / scale, 1.0)
        want = np.sign(values) * _snap_deterministic(normalized, lut.unique_levels)
        want *= scale
        _assert_same_snap(quantize(values, spec, lut=lut), want)


def _quantize_in_given_order(values, spec, lut=None, rng=None):
    """quantize's lut and percentile modes with the snap always run on
    `values` in its own layout: the reference for the transposed snap."""
    values = np.asarray(values, dtype=float)
    magnitudes = np.abs(values)
    scale = photonsim.optics._clip_scale(magnitudes, spec.clip_percentile)
    if scale == 0.0:
        return np.zeros_like(values)
    if values.ndim == 0:
        return _quantize_in_given_order(values.reshape(1), spec, lut, rng)[0]
    normalized = np.minimum(np.divide(magnitudes, scale, out=magnitudes), 1.0, out=magnitudes)
    if spec.mode == "lut":
        levels = lut.unique_levels
    else:
        levels = np.linspace(0.0, 1.0, max(2, 2 ** (spec.bits - (values.min() < 0))))
    out = np.sign(values) * photonsim.optics._snap(normalized, levels, spec.rounding, rng)
    out *= scale
    return out


@pytest.mark.parametrize("spec,lut", [
    (QuantizerSpec(mode="lut"), lut_synthesize(128, 256, floor=0.004)),
    (QuantizerSpec(mode="percentile", bits=6), None),
    (QuantizerSpec(mode="percentile", bits=4, clip_percentile=99.0), None),
    (QuantizerSpec(mode="percentile", rounding="stochastic"), None),
], ids=["lut", "percentile", "percentile-clipped", "stochastic"])
@pytest.mark.parametrize("shape", [(40, 30), (256, 160)], ids=["small", "elided"])
@pytest.mark.parametrize("special", [(), (0.0, -0.0), (np.nan,), (np.inf, -np.inf)],
                         ids=["finite", "zeros", "nan", "inf"])
def test_quantize_keeps_bits_and_strides_of_snapping_in_given_order(spec, lut, shape, special):
    # 256x160 float64 is 320 KiB: numpy then writes the sign product in place
    base = derive_rng(23).normal(size=(shape[0], 2 * shape[1]))
    base.flat[:len(special)] = special
    for values in (base[:, :shape[1]].copy(), np.asfortranarray(base[:, :shape[1]]),
                   base[:, ::2], base[:, ::2].T, np.float64(base[0, 0]), np.array(-0.0)):
        scale = np.percentile(np.abs(values), spec.clip_percentile, method="higher")
        if not math.isfinite(scale):  # NaN, or inf at clip 100
            with pytest.raises(ValueError, match="clip scale"):
                quantize(values, spec, lut=lut, rng=derive_rng(24))
            continue
        # a clip percentile below 100 saturates +-inf at +-scale
        want = _quantize_in_given_order(values, spec, lut, derive_rng(24))
        got = quantize(values, spec, lut=lut, rng=derive_rng(24))
        assert type(got) is type(want)
        _assert_same_snap(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_quantize_rejects_an_operand_it_cannot_scale(bad):
    lut = lut_synthesize(32, 256, floor=0.004)
    values = np.array([0.5, bad, -0.5])
    for spec in (QuantizerSpec(mode="lut"), QuantizerSpec(mode="lut", rounding="stochastic"),
                 QuantizerSpec(mode="percentile", bits=4)):
        with pytest.raises(ValueError, match="clip scale"):
            quantize(values, spec, lut=lut, rng=derive_rng(1))
    with pytest.raises(ValueError, match="clip scale"):
        lut_snap(values, lut)
    clipped = QuantizerSpec(mode="percentile", bits=4, clip_percentile=50.0)
    if math.isnan(bad):
        with pytest.raises(ValueError, match="clip scale"):
            quantize(values, clipped)
    else:  # the scale is 0.5, at which +-inf saturates
        assert quantize(values, clipped).tolist() == [0.5, math.copysign(0.5, bad), -0.5]

    # optical_matmul snaps each operand through its LUT
    w, x = derive_rng(2).normal(size=(3, 4)), derive_rng(3).normal(size=(4, 2))
    bad_w, bad_x = w.copy(), x.copy()
    bad_w[1, 2], bad_x[0, 1] = bad, bad
    for args in ({"w": bad_w, "x": x, "weight_lut": lut}, {"w": w, "x": bad_x, "input_lut": lut},
                 {"w": bad_w, "x": x, "input_lut": lut, "kind": "attn"}):
        with pytest.raises(ValueError, match="clip scale"):
            optical_matmul(noise=NoiseSpec(photons_per_mac=1000, seed=4), **args)


def test_quantize_scalar_input():
    lut = lut_synthesize(8, 8)
    assert quantize(0.0, QuantizerSpec(mode="lut"), lut=lut) == 0.0
    assert quantize(-0.3, QuantizerSpec(mode="lut"), lut=lut) == -0.3  # its own scale


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


def test_quantizer_spec_validation_and_json():
    with pytest.raises(ValueError):
        QuantizerSpec(mode="nope")
    with pytest.raises(ValueError):
        QuantizerSpec(bits=0)
    with pytest.raises(ValueError):
        QuantizerSpec(clip_percentile=0.0)
    with pytest.raises(ValueError):
        QuantizerSpec(rounding="sometimes")
    # bits by declared type: an int >= 1, not a bool; a bool is no percentile either
    for bad in ({"bits": 2.5}, {"bits": 8.0}, {"bits": True}, {"clip_percentile": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            QuantizerSpec(mode="percentile", **bad)


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


_SYSTEMATIC_VALUES = st.one_of(
    st.floats(-1e300, 1e300, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-320, -1.0]))


@st.composite
def _systematic_outputs(draw):
    """Float64 outputs of 1 to 3 dimensions in C, F or strided layout."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    base = np.array(draw(st.lists(_SYSTEMATIC_VALUES, min_size=4 * math.prod(shape),
                                  max_size=4 * math.prod(shape))))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        return base.reshape(shape + (4,))[..., 1]
    return np.array(base[:math.prod(shape)].reshape(shape), order=layout)


@settings(max_examples=200, deadline=None)
@given(outputs=_systematic_outputs(),
       percent=st.one_of(st.floats(1e-300, 1e3), st.sampled_from([1e-310, 5.0])),
       seed=st.integers(0, 2 ** 32))
# sigma is one subnormal step: -0.0 outputs meet -0.0 products of the draw
@example(outputs=np.array([-0.0] * 7 + [4e-321]), percent=1.0, seed=0)
def test_systematic_noise_matches_normal_draw_bit_for_bit(outputs, percent, seed):
    before = outputs.copy()
    got = apply_systematic_noise(outputs, percent, seed=np.random.default_rng(seed))
    sigma = (percent / 100.0) * np.abs(outputs).mean()
    want = (outputs.copy() if sigma == 0.0 else
            outputs + np.random.default_rng(seed).normal(0.0, sigma, outputs.shape))
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()  # signed zeros included
    assert before.tobytes() == outputs.tobytes() and not np.shares_memory(got, outputs)


def test_systematic_noise_zero_percent():
    outputs = np.array([1.0, -2.0])
    copy = apply_systematic_noise(outputs, 0.0)
    assert np.array_equal(copy, outputs) and not np.shares_memory(copy, outputs)
    with pytest.raises(ValueError):
        apply_systematic_noise(outputs, -1.0)


@pytest.mark.parametrize("percent", [math.nan, math.inf, -math.inf, True])
def test_systematic_noise_rejects_a_percent_that_is_no_finite_number(percent):
    # a NaN or inf percent would make every output NaN or inf
    with pytest.raises(ValueError, match="percent must be finite and >= 0"):
        apply_systematic_noise(np.ones(3), percent, seed=0)


# --------------------------------------------------------------------------
# NoiseSpec


def test_noise_spec_defaults_and_json():
    spec = NoiseSpec()
    assert spec.systematic_percent_ff == 0.0
    assert spec.systematic_percent_attn == 0.0
    assert math.isinf(spec.photons_per_mac)
    with pytest.raises(ValueError):
        NoiseSpec(systematic_percent_ff=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(systematic_percent_attn=math.nan)
    with pytest.raises(ValueError):
        NoiseSpec(photons_per_mac=0.0)


@pytest.mark.parametrize("field", ["systematic_percent_ff", "systematic_percent_attn"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_noise_spec_rejects_non_finite_percent(field, value):
    with pytest.raises(ValueError, match="finite and >= 0"):
        NoiseSpec(**{field: value})


@pytest.mark.parametrize("fields, match", [
    ({"photons_per_mac": True}, "photons_per_mac"),
    ({"systematic_percent_ff": True}, "systematic_percent_ff"),
    ({"systematic_percent_attn": False}, "systematic_percent_attn"),
    ({"photons_per_mac": True, "systematic_percent_ff": True, "seed": 2.5},
     "systematic_percent_ff"),
    ({"photons_per_mac": 10, "seed": 2.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": "3"}, "seed"),
], ids=["bool-photons", "bool-ff", "bool-attn", "all-three", "float-seed", "bool-seed",
        "negative-seed", "str-seed"])
def test_noise_spec_checks_types(fields, match):
    # bool is an int subclass, and a float seed used to reach SeedSequence
    with pytest.raises(ValueError, match=match):
        NoiseSpec(**fields)
    assert NoiseSpec(photons_per_mac=10, seed=np.int64(3)).seed == 3
    assert NoiseSpec(photons_per_mac=10, seed=2 ** 64).seed == 2 ** 64


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


@pytest.mark.parametrize("photons", [math.inf, 1000.0, 1.0])  # direct, Gaussian, Poisson
def test_optical_matmul_draws_no_systematic_noise_at_zero_percent(monkeypatch, photons):
    # the product is fresh, so a 0% class returns it as it is, without a copy
    calls = []

    def counted(outputs, percent, seed=None):
        calls.append(percent)
        return apply_systematic_noise(outputs, percent, seed=seed)

    monkeypatch.setattr(photonsim.optics, "apply_systematic_noise", counted)
    rng = derive_rng(25)
    w, x = rng.normal(size=(6, 8)), rng.normal(size=(8, 5))
    noise = NoiseSpec(systematic_percent_attn=3.0, photons_per_mac=photons)
    optical_matmul(w, x, noise, seed=1, kind="ff")
    assert calls == []
    optical_matmul(w, x, noise, seed=1, kind="attn")
    assert calls == [3.0]


def test_optical_matmul_shot_noise_scales_with_budget():
    rng = derive_rng(19)
    w = np.abs(rng.normal(size=(8, 16)))
    x = np.abs(rng.normal(size=(16, 8)))
    clean = w @ x

    def mean_err(photons, stream):
        trials = [optical_matmul(w, x, NoiseSpec(photons_per_mac=photons),
                                 seed=derive_rng(19, stream, t))
                  for t in range(30)]
        return np.mean([np.abs(t - clean).mean() for t in trials])

    rich = mean_err(1000.0, 0)
    poor = mean_err(10.0, 0)
    shared = mean_err(1000.0 / 4, 1)  # one budget of 1000 split across the four passes
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


def _lut_snap_plain(v, lut):
    """lut_snap written plainly: np.sign(v) * snap * scale, C order below
    256 KiB and in v's order from there."""
    magnitudes = np.abs(v)
    scale = magnitudes.max()
    out = np.sign(v) * _snap_reference(np.minimum(magnitudes / scale, 1.0), lut.unique_levels)
    out = out * scale
    return out if out.nbytes >= 1 << 18 else np.ascontiguousarray(out)


def _gaussian_plain(w, x, photons_per_mac, rng):
    """optical_matmul's Gaussian shot noise written plainly: the variance
    [|W| W] @ right, with [|W| W] in w's order, then one standard normal per
    output."""
    (m, k), p = w.shape, x.shape[1]
    x_pos, x_neg = np.where(x > 0, x, 0.0), np.where(x < 0, -x, 0.0)
    left = np.concatenate([np.abs(w), w], axis=1)
    if w.flags.f_contiguous and not w.flags.c_contiguous:
        left = np.asfortranarray(left)
    col_abs, col_signed = left[:, :k].sum(axis=0), left[:, k:].sum(axis=0)
    col_pos, col_neg = (col_abs + col_signed) / 2, (col_abs - col_signed) / 2
    row_pos, row_neg = x_pos.sum(axis=1), x_neg.sum(axis=1)
    photons = m * p * photons_per_mac * k
    c1, c2 = col_pos @ row_pos / photons, col_neg @ row_pos / photons
    c3, c4 = col_pos @ row_neg / photons, col_neg @ row_neg / photons
    right = np.concatenate([x_pos * ((c1 + c2) / 2) + ((c3 + c4) / 2) * x_neg,
                            x_pos * ((c1 - c2) / 2) + ((c3 - c4) / 2) * x_neg])
    noise = np.sqrt(np.maximum(left @ right, 0.0)) * rng.standard_normal((m, p))
    return w @ x + noise


@pytest.mark.parametrize("luts", [False, True], ids=["no-lut", "luts"])
@pytest.mark.parametrize("percent", [0.0, 2.0])
@pytest.mark.parametrize("kind", ["ff", "attn"])
@pytest.mark.parametrize("shape", [(24, 40, 16), (256, 160, 192)], ids=["small", "large"])
def test_optical_matmul_gaussian_path_matches_plain_formulas(luts, percent, kind, shape):
    # 256x160 float64 is 320 KiB, past numpy's in-place threshold
    m, k, p = shape
    assert 1000.0 * k >= GAUSSIAN_SHOT_PHOTONS
    rng = derive_rng(33, k)
    w = rng.normal(size=(k, m)).T  # F order, as the backend hands operands over
    x = rng.normal(size=(p, k)).T
    w[0] = 0.0
    x[:, 0] = -0.0
    in_lut = lut_synthesize(32, 256, floor=0.004) if luts else None
    w_lut = lut_synthesize(128, 256, floor=0.0) if luts else None
    noise = NoiseSpec(systematic_percent_ff=percent, systematic_percent_attn=percent / 2,
                      photons_per_mac=1000.0)
    got_rng, want_rng = derive_rng(34, k), derive_rng(34, k)
    got = optical_matmul(w, x, noise, input_lut=in_lut, weight_lut=w_lut, seed=got_rng,
                         kind=kind)
    if luts:
        snapped = [(v, lut, _lut_snap_plain(v, lut))
                   for v, lut in ((w, in_lut if kind == "attn" else w_lut), (x, in_lut))]
        for v, lut, plain in snapped:
            _assert_same_snap(lut_snap(v, lut), plain)
        (_, _, w), (_, _, x) = snapped
    want = _gaussian_plain(w, x, 1000.0, want_rng)
    percent = percent / 2 if kind == "attn" else percent
    if percent:
        sigma = percent / 100 * np.abs(want).mean()
        want = want + (sigma * want_rng.standard_normal(want.shape) + 0.0)
    assert got.tobytes() == want.tobytes() and got.strides == want.strides
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_optical_matmul_gaussian_path_frees_each_operand_after_its_last_read():
    # the ff2 product of the benchmark's simulate (n=128, d=256), as the
    # backend hands it over: weights-left, both operands in F order. Holding
    # the snapped operands, [|W| W] and the right operand at once reads 6x
    # w.nbytes; freeing each after its last read, about 4.2x
    rng = derive_rng(35)
    w = rng.normal(size=(1024, 256)).T
    x = rng.normal(size=(128, 1024)).T
    in_lut, w_lut = lut_synthesize(32, 256, floor=0.004), lut_synthesize(128, 256, floor=0.002)
    noise = NoiseSpec(systematic_percent_ff=1.0, photons_per_mac=1000.0)
    optical_matmul(w, x, noise, input_lut=in_lut, weight_lut=w_lut, seed=0)  # builds the tables
    tracemalloc.start()
    try:
        optical_matmul(w, x, noise, input_lut=in_lut, weight_lut=w_lut, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * w.nbytes, peak / w.nbytes


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
