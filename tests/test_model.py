import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tiadc_cal import (ChannelCapture, ConfigError, MismatchProfile, ShapeError,
                       TiadcConfig, ToneSpec, dequantize_stream,
                       interleave_channels, quantize_stream, sample_channels,
                       simulate_capture)
from tiadc_cal import model
from tiadc_cal.model import _CHUNK, _SPLIT, _quantize_in_place, _sample_row
from tiadc_cal.scenarios import BUILTIN_SCENARIOS, load_scenario, with_seed

CFG12 = TiadcConfig(n_channels=2, bits=12)


class TestConfigValidation:
    def test_channel_count_floor(self):
        with pytest.raises(ConfigError):
            TiadcConfig(n_channels=1)

    def test_channel_count_fits_the_capture_header(self):
        # capture files store M as a u16
        TiadcConfig(n_channels=65535)
        with pytest.raises(ConfigError, match="65535"):
            TiadcConfig(n_channels=65536)

    @pytest.mark.parametrize("bits", [1, 0, 25, 30])
    def test_bits_range(self, bits):
        with pytest.raises(ConfigError):
            TiadcConfig(n_channels=2, bits=bits)

    @pytest.mark.parametrize("field,bad", [
        ("n_channels", 2.5), ("n_channels", 2.0), ("n_channels", True),
        ("bits", 12.5), ("bits", float("nan")), ("bits", "12")])
    def test_counts_must_be_integers(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            TiadcConfig(**{"n_channels": 2, "bits": 12, field: bad})

    def test_numpy_integer_counts_are_stored_as_ints(self):
        # a numpy integer's width would reach the code range: in int8,
        # 1 << 11 is 0
        config = TiadcConfig(n_channels=np.uint16(3), bits=np.int8(12))
        assert type(config.n_channels) is int and type(config.bits) is int
        assert config.code_half_range == 2048

    def test_bits_bounds_accepted(self):
        TiadcConfig(n_channels=2, bits=2)
        TiadcConfig(n_channels=2, bits=24)

    def test_fs_positive(self):
        with pytest.raises(ConfigError):
            TiadcConfig(n_channels=2, fs=0.0)

    def test_tone_frequency_band(self):
        with pytest.raises(ConfigError):
            ToneSpec(amplitude=0.5, freq_rel=0.5)
        with pytest.raises(ConfigError):
            ToneSpec(amplitude=0.5, freq_rel=0.0)

    def test_profile_mismatch_bounds(self):
        with pytest.raises(ConfigError):
            MismatchProfile((0, 0), (0, 0.5), (0, 0))
        with pytest.raises(ConfigError):
            MismatchProfile((0, 0), (0, 0), (0, -0.5))

    def test_profile_ragged(self):
        with pytest.raises(ConfigError):
            MismatchProfile((0, 0), (0, 0, 0), (0, 0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["offsets", "gains", "skews"])
    def test_profile_rejects_non_finite(self, field, bad):
        values = {"offsets": (0.0, 0.0), "gains": (0.0, 0.0),
                  "skews": (0.0, 0.0)}
        values[field] = (0.0, bad)
        with pytest.raises(ConfigError):
            MismatchProfile(**values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["amplitude", "phase", "dc"])
    def test_tone_rejects_non_finite(self, field, bad):
        values = {"amplitude": 0.5, "freq_rel": 0.1, "phase": 0.0, "dc": 0.0}
        values[field] = bad
        with pytest.raises(ConfigError):
            ToneSpec(**values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["fs", "full_scale"])
    def test_config_rejects_non_finite(self, field, bad):
        with pytest.raises(ConfigError):
            TiadcConfig(n_channels=2, **{field: bad})

    @pytest.mark.parametrize("bits", [2, 12, 24])
    def test_the_lsb_must_be_a_normal_float(self, bits):
        # a subnormal LSB dequantizes codes with fewer bits, and one of 0.0
        # (full_scale 5e-324) maps every code to 0.0
        smallest = math.ldexp(sys.float_info.min, bits - 1)
        config = TiadcConfig(n_channels=2, bits=bits, full_scale=smallest)
        assert config.lsb == sys.float_info.min
        for bad in (np.nextafter(smallest, 0.0), 1e-320, 5e-324):
            with pytest.raises(ConfigError,
                               match="below the smallest normal float"):
                TiadcConfig(n_channels=2, bits=bits, full_scale=bad)


def long_double_samples(tone, profile, m, k):
    """Channel m's samples k by the model's formula (1 + dg) * (dc + A *
    sin(2*pi*f*(k*M + m + dt) + phase)) + do, evaluated in np.longdouble
    from the same float64 parameters, and the most that a float64
    evaluation of it may differ from them.

    The bound: with u = 2^-53, let X = |2*pi*f*(k*M + m + dt)| + |phase|,
    which bounds every angle the float64 argument is built from. np.sin's
    route rounds omega = 2*pi*f twice (pi and the product), then the sum
    with dt, the product with omega and the sum with the phase: its
    argument is off by at most 5*u*X. Angle addition (k = 256q + r)
    rounds its coarse angle at 256q the same five ways and its fine angle
    (omega*M)*r four ways (omega's two, omega*M and the product with r):
    at most 9*u*X. sin and cos, within 4 ulp each, and angle addition's
    two products and their sum add at most 14*u to the sine, and the four
    affine steps at most 4*u of (1 + |dg|) * (|dc| + A) + |do|. The
    reference's own error is the same expression in np.longdouble's unit
    roundoff."""
    L = np.longdouble
    M = len(profile)
    pi = L("3.141592653589793238462643383279502884")
    t = np.asarray(k, dtype=L) * M + m + L(profile.skews[m])
    angle = 2 * pi * L(tone.freq_rel) * t
    gain = 1 + L(profile.gains[m])
    sine = np.sin(angle + L(tone.phase))
    want = (gain * (L(tone.dc) + L(tone.amplitude) * sine)
            + L(profile.offsets[m]))
    x = np.abs(angle) + abs(tone.phase)
    affine = (abs(gain) * (abs(tone.dc) + tone.amplitude)
              + abs(profile.offsets[m]))
    u = 2.0 ** -53 + float(np.finfo(L).eps) / 2
    bound = u * (abs(gain) * tone.amplitude * (9 * x + 14) + 4 * affine)
    return want, bound


class TestSampleChannels:
    def test_quarter_rate_zero_mismatch_closed_form(self):
        # f = 0.25, phase 0: channel 0 hits sin(pi*k) = 0, channel 1
        # hits sin(pi/2 * odd) = +1, -1, +1, ...
        tone = ToneSpec(amplitude=1.0, freq_rel=0.25)
        chs = sample_channels(tone, CFG12, MismatchProfile.zero(2), 6)
        np.testing.assert_allclose(chs[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(chs[1], [1, -1, 1, -1, 1, -1], atol=1e-12)

    def test_gain_and_skew_shift_formula(self):
        tone = ToneSpec(amplitude=0.8, freq_rel=0.07, phase=0.4, dc=0.02)
        profile = MismatchProfile((0, 0), (0, 0.01), (0, 0.01))
        chs = sample_channels(tone, CFG12, profile, 16)
        # 1.01 * (0.02 + 0.8 * sin(2*pi*0.07*(2k + 1.01) + 0.4))
        want, bound = long_double_samples(tone, profile, 1, np.arange(16))
        assert np.all(np.abs(chs[1] - want) <= bound)

    def test_offset_only_shifts_constant(self):
        # negligible tone stands in for a zero input (amplitude must be > 0)
        tone = ToneSpec(amplitude=1e-30, freq_rel=0.1)
        profile = MismatchProfile((0.0, 0.1), (0, 0), (0, 0))
        chs = sample_channels(tone, CFG12, profile, 8)
        np.testing.assert_allclose(chs[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(chs[1], 0.1, atol=1e-15)

    def test_profile_length_checked(self):
        tone = ToneSpec(amplitude=0.5, freq_rel=0.1)
        with pytest.raises(ConfigError):
            sample_channels(tone, CFG12, MismatchProfile.zero(3), 8)

    @pytest.mark.parametrize("count", [10.5, 22.0, True, np.float64(22)])
    def test_a_sample_count_must_be_an_integer(self, count):
        tone = ToneSpec(amplitude=0.5, freq_rel=0.1)
        profile = MismatchProfile.zero(2)
        with pytest.raises(ConfigError, match="must be an integer, got"):
            sample_channels(tone, CFG12, profile, count)
        with pytest.raises(ConfigError, match="must be an integer, got"):
            simulate_capture(tone, CFG12, profile, count)

    def test_numpy_integer_counts_are_accepted(self):
        tone = ToneSpec(amplitude=0.5, freq_rel=0.1)
        profile = MismatchProfile.zero(2)
        assert sample_channels(tone, CFG12, profile, np.int32(11)).shape \
            == (2, 11)
        assert simulate_capture(tone, CFG12, profile,
                                np.int64(22)).n_per_channel == 11

    def test_zero_mismatch_equals_uniform_sampling(self):
        tone = ToneSpec(amplitude=0.7, freq_rel=0.123, phase=1.1, dc=-0.05)
        cfg = TiadcConfig(n_channels=3, bits=12)
        chs = sample_channels(tone, cfg, MismatchProfile.zero(3), 32)
        merged = interleave_channels(chs)
        # -0.05 + 0.7 * sin(2*pi*0.123*t + 1.1) at t = 0..95: channel m's
        # sample k is the uniform grid's sample t = 3k + m
        t = np.arange(96)
        want, bound = long_double_samples(tone, MismatchProfile.zero(1), 0, t)
        assert np.all(np.abs(merged - want) <= bound)

    def test_gain_linearity(self):
        tone = ToneSpec(amplitude=0.6, freq_rel=0.09, phase=0.2)
        ideal = sample_channels(tone, CFG12, MismatchProfile.zero(2), 64)
        one = sample_channels(tone, CFG12,
                              MismatchProfile((0, 0), (0, 0.01), (0, 0)), 64)
        two = sample_channels(tone, CFG12,
                              MismatchProfile((0, 0), (0, 0.02), (0, 0)), 64)
        np.testing.assert_allclose(two[1] - ideal[1], 2 * (one[1] - ideal[1]),
                                   rtol=0, atol=1e-15)


class TestQuantizer:
    def test_zero_maps_to_zero(self):
        assert quantize_stream([0.0], CFG12)[0] == 0

    def test_positive_full_scale_saturates(self):
        assert quantize_stream([1.0], CFG12)[0] == 2047

    def test_half_scale(self):
        assert quantize_stream([0.5], CFG12)[0] == 1024

    def test_rounds_half_away_from_zero(self):
        # 2.5 LSB rounds to 3, not to even; mirrored for negatives
        assert quantize_stream([2.5 / 2048], CFG12)[0] == 3
        assert quantize_stream([-2.5 / 2048], CFG12)[0] == -3

    def test_negative_saturation(self):
        assert quantize_stream([-2.0], CFG12)[0] == -2048

    def test_a_nan_sample_is_rejected_and_inf_saturates(self):
        with pytest.raises(ConfigError,
                           match=r"^sample 1 is not finite: nan$"):
            quantize_stream([0.0, np.nan, 1.0], CFG12)
        np.testing.assert_array_equal(
            quantize_stream([np.inf, -np.inf], CFG12), [2047, -2048])

    def test_a_sample_past_the_float_range_in_lsbs_saturates(self):
        # 1e308 over an LSB of 0.75 / 2048 overflows to inf, silently
        np.testing.assert_array_equal(
            quantize_stream([1e308, -1e308],
                            TiadcConfig(2, bits=12, full_scale=0.75)),
            [2047, -2048])

    def test_any_memory_layout(self):
        # ties at k + 0.5 LSB round away from zero in a transposed
        # (Fortran-ordered) array and in a strided view as in a row
        k = np.arange(-12, 12).reshape(4, 6)
        x = (k + 0.5) / 2048
        want = np.where(k >= 0, k + 1, k)
        np.testing.assert_array_equal(quantize_stream(x, CFG12), want)
        np.testing.assert_array_equal(quantize_stream(x.T, CFG12), want.T)
        np.testing.assert_array_equal(quantize_stream(x[:, ::2], CFG12),
                                      want[:, ::2])

    @given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False),
                    min_size=2, max_size=64))
    def test_monotone(self, values):
        ordered = np.sort(values)
        codes = quantize_stream(ordered, CFG12)
        assert np.all(np.diff(codes) >= 0)

    def test_dequantize_scale(self):
        np.testing.assert_allclose(dequantize_stream([2048, -2048, 1], CFG12),
                                   [1.0, -1.0, 1 / 2048])


def reference_quantize(samples, config):
    """The quantizer as it was written before the copysign rounding: scale
    by 1/full_scale then 2^(bits-1), round |x| + 0.5 down, negate where the
    sign bit was set (a masked ufunc), clip. quantize_stream is held to it
    code for code."""
    x = np.array(samples, dtype=float)
    half = config.code_half_range
    x /= config.full_scale
    x *= half
    negative = np.signbit(x)
    np.abs(x, out=x)
    x += 0.5
    np.floor(x, out=x)
    np.negative(x, out=x, where=negative)
    return np.clip(x, -half, half - 1, out=x).astype(np.int64)


def near_ties(config):
    """Samples at and next to the decision levels k + 0.5 LSB, with k over
    the whole code range and a few codes past each end (at most about
    8 000 levels), and the corner cases of rounding half away from zero:
    0.49999999999999994 LSB, signed zeros, infinities and samples far out
    of range."""
    half = config.code_half_range
    k = np.arange(-half - 3, half + 3, max(1, half // 4096))
    levels = np.concatenate([(k + 0.5) * config.lsb, -(k + 0.5) * config.lsb])
    below = np.nextafter(0.5, 0.0) * config.lsb
    corners = [below, -below, 0.5 * config.lsb, -0.5 * config.lsb, 0.0, -0.0,
               np.inf, -np.inf, 1e300, -1e300, 7.5 * config.full_scale,
               -7.5 * config.full_scale]
    return np.concatenate([levels, np.nextafter(levels, np.inf),
                           np.nextafter(levels, -np.inf), corners])


def near_level(k, side, lsb):
    """The decision level k + 0.5 LSB (side 0), or the float next to it
    below (side -1) or above (side 1)."""
    level = (k + 0.5) * lsb
    return np.nextafter(level, side * np.inf) if side else level


class TestQuantizerOracle:
    """quantize_stream rounds by trunc(x + copysign(0.5, x)) after a clip,
    in sub-blocks of its scratch; reference_quantize is the masked-negate
    quantizer it replaced."""

    @pytest.mark.parametrize("full_scale", [0.75, 1.0, 3.0])
    @pytest.mark.parametrize("bits", [2, 12, 16, 24])
    def test_codes_equal_the_reference(self, bits, full_scale):
        config = TiadcConfig(n_channels=2, bits=bits, full_scale=full_scale)
        x = near_ties(config)
        np.testing.assert_array_equal(quantize_stream(x, config),
                                      reference_quantize(x, config))

    # lengths around the 8 192-float scratch, in three memory layouts
    @pytest.mark.parametrize("n", [0, 1, 8191, 8193, (1 << 16) + 3])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed",
                                        "strided"])
    def test_every_length_and_layout(self, n, layout):
        config = TiadcConfig(n_channels=2, bits=12, full_scale=0.75)
        rng = np.random.default_rng(n)
        base = rng.choice(near_ties(config), size=(n, 3))
        x = {"contiguous": base[:, 0].copy(), "transposed": base.T,
             "strided": base[:, 1]}[layout]
        codes = quantize_stream(x, config)
        assert codes.shape == x.shape
        np.testing.assert_array_equal(codes, reference_quantize(x, config))

    @given(st.sampled_from([2, 12, 16, 24]), st.sampled_from([0.75, 1.0, 3.0]),
           st.lists(st.one_of(
               st.floats(min_value=-1e300, max_value=1e300),
               st.sampled_from([np.inf, -np.inf, -0.0]),
               # a decision level k + 0.5 LSB, or a float next to it
               st.tuples(st.integers(-(1 << 24), 1 << 24),
                         st.sampled_from([-1, 0, 1]))),
               max_size=64))
    def test_any_samples_match_the_reference(self, bits, full_scale, values):
        config = TiadcConfig(n_channels=2, bits=bits, full_scale=full_scale)
        x = np.array([v if isinstance(v, float) else
                      near_level(*v, config.lsb) for v in values])
        np.testing.assert_array_equal(quantize_stream(x, config),
                                      reference_quantize(x, config))

    def test_the_in_place_quantizer_refuses_a_strided_array(self):
        # its sub-blocks are slices of a flat view, which a strided array
        # would give only as a copy, and the codes would be lost
        x = np.full((4, 6), 2.5 / 2048)
        for view in (x.T, x[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous"):
                _quantize_in_place(view, CFG12)
        assert np.all(x == 2.5 / 2048)
        np.testing.assert_array_equal(_quantize_in_place(x, CFG12), 3.0)


class TestDequantizeInto:
    """dequantize_stream's out= buffer holds the bits of a fresh result."""

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_out_equals_a_fresh_array(self, dtype):
        config = TiadcConfig(n_channels=2, bits=12, full_scale=0.75)
        codes = np.arange(-2048, 2048, dtype=dtype).reshape(64, 64)
        out = np.full(codes.shape, np.nan)
        got = dequantize_stream(codes, config, out=out)
        assert got is out
        assert out.tobytes() == (codes.astype(float) * config.lsb).tobytes()
        assert (dequantize_stream(codes, config).tobytes()
                == out.tobytes())


class TestInterleave:
    def test_two_channel_example(self):
        np.testing.assert_array_equal(
            interleave_channels([np.array([1, 3]), np.array([2, 4])]),
            [1, 2, 3, 4])

    def test_three_channel_single(self):
        np.testing.assert_array_equal(
            interleave_channels([np.array([7]), np.array([8]), np.array([9])]),
            [7, 8, 9])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            interleave_channels([np.array([1, 3]), np.array([2])])

    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2 ** 31))
    def test_roundtrip(self, m, k, seed):
        # a capture's per_channel view inverts interleave_channels
        rng = np.random.default_rng(seed)
        chs = [rng.integers(-2048, 2048, size=k) for _ in range(m)]
        cap = ChannelCapture(TiadcConfig(n_channels=m),
                             interleave_channels(chs))
        np.testing.assert_array_equal(cap.per_channel, chs)

    def test_capture_length_check(self):
        with pytest.raises(ShapeError, match="not divisible"):
            ChannelCapture(CFG12, np.array([1, 2, 3]))
        with pytest.raises(ShapeError, match="not divisible"):
            ChannelCapture(TiadcConfig(n_channels=3),
                           np.zeros(10, dtype=np.int64))


class TestCaptures:
    def test_indivisible_total_rejected(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=0.1)
        with pytest.raises(ShapeError):
            simulate_capture(tone, CFG12, MismatchProfile.zero(2), 7)

    def test_interleaved_matches_per_channel(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=0.1, phase=0.5)
        profile = MismatchProfile((0, 0.01), (0, 0.02), (0, -0.01))
        cap = simulate_capture(tone, CFG12, profile, 64)
        for m in range(2):
            np.testing.assert_array_equal(cap.interleaved[m::2],
                                          cap.per_channel[m])
        assert cap.n_per_channel == 32

    def test_codes_within_range(self):
        tone = ToneSpec(amplitude=1.0, freq_rel=0.2, phase=0.1)
        profile = MismatchProfile((0, 0.1), (0, 0.3), (0, 0.3))
        cap = simulate_capture(tone, CFG12, profile, 256)
        assert cap.interleaved.max() <= 2047
        assert cap.interleaved.min() >= -2048

    # a capture is its config plus one 1-D integer code array; per_channel
    # is an (M, K) view of that array
    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_rows_are_strided_views(self, M):
        codes = np.arange(7 * M, dtype=np.int64) - 3
        cap = ChannelCapture(TiadcConfig(n_channels=M), codes)
        # a read-only view of the codes, not a copy
        assert cap.interleaved.base is codes
        assert not cap.interleaved.flags.writeable
        assert cap.per_channel.shape == (M, 7) and cap.n_per_channel == 7
        for m in range(M):
            np.testing.assert_array_equal(cap.per_channel[m], codes[m::M])
            assert np.shares_memory(cap.per_channel[m], codes)

    def test_capture_shape_invariants(self):
        with pytest.raises(ShapeError, match="1-D"):
            ChannelCapture(CFG12, np.zeros((2, 4), dtype=np.int64))

    def test_rejects_float_codes(self):
        with pytest.raises(ConfigError, match="integers"):
            ChannelCapture(CFG12, np.zeros(8))

    def test_zero_samples(self):
        cap = ChannelCapture(TiadcConfig(n_channels=3),
                             np.zeros(0, dtype=np.int16))
        assert cap.per_channel.shape == (3, 0)
        assert cap.n_per_channel == 0


CODE_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint16, np.uint64)


def held(dtype, codes):
    """The codes that dtype can hold."""
    info = np.iinfo(dtype)
    return [c for c in codes if info.min <= c <= info.max]


class TestCodeWord:
    """A capture's codes lie in its config's word, [-2^(bits-1),
    2^(bits-1) - 1], whatever their dtype: ConfigError names the first
    that does not."""

    @pytest.mark.parametrize("bits,dtype,code", [
        (bits, dtype, code) for bits in (2, 12, 16, 24) for dtype in CODE_DTYPES
        for code in held(dtype, (-(1 << (bits - 1)) - 1, 1 << (bits - 1)))],
        ids=lambda v: getattr(v, "__name__", str(v)))
    def test_one_past_each_edge_raises(self, bits, dtype, code):
        codes = np.zeros(12, dtype=dtype)
        codes[7] = codes[10] = code
        with pytest.raises(ConfigError, match=f"^code {code} at sample 7 "
                                              f"outside {bits}-bit range$"):
            ChannelCapture(TiadcConfig(n_channels=2, bits=bits), codes)

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    @pytest.mark.parametrize("bits", [2, 12, 16, 24])
    def test_the_edges_and_an_empty_capture_are_accepted(self, bits, dtype):
        # the word's edges, or the dtype's own where the word is wider
        config = TiadcConfig(n_channels=2, bits=bits)
        half, info = 1 << (bits - 1), np.iinfo(dtype)
        codes = np.array([max(-half, info.min), min(half - 1, info.max)] * 2,
                         dtype=dtype)
        assert ChannelCapture(config, codes).interleaved.base is codes
        empty = ChannelCapture(config, np.zeros(0, dtype=dtype))
        assert empty.n_per_channel == 0

    def test_with_config_scans_nothing(self, monkeypatch):
        codes = np.array([-2048, 2047, 5, -7], dtype=np.int16)
        cap = ChannelCapture(CFG12, codes)
        scans = []
        monkeypatch.setattr(model, "_first_code_outside",
                            lambda *args: scans.append(args))
        scaled = cap.with_config(replace(CFG12, full_scale=2.0))
        assert scans == []
        assert scaled.interleaved is cap.interleaved
        assert scaled.interleaved.base is codes
        assert scaled.config.full_scale == 2.0
        assert cap.config == CFG12


def out_of_place_codes(tone, config, profile, n_total):
    """Reference: each channel sampled and quantized with fresh arrays at
    every step, in the order the model's formula is written."""
    M, half = config.n_channels, config.code_half_range
    k = np.arange(n_total // M, dtype=float)
    channels = []
    for m in range(M):
        t = k * M + m + profile.skews[m]
        x = tone.dc + tone.amplitude * np.sin(
            2.0 * np.pi * tone.freq_rel * t + tone.phase)
        scaled = ((1.0 + profile.gains[m]) * x + profile.offsets[m]) \
            / config.full_scale * half
        codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        channels.append(np.clip(codes, -half, half - 1).astype(np.int64))
    return channels


class TestInPlaceSimulation:
    @pytest.mark.parametrize("seed", range(6))
    def test_codes_identical_to_out_of_place_formula(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 7))
        config = TiadcConfig(n_channels=M, bits=int(rng.integers(2, 17)),
                             full_scale=float(rng.uniform(0.5, 2.0)))
        profile = MismatchProfile(rng.uniform(-0.1, 0.1, M),
                                  rng.uniform(-0.3, 0.3, M),
                                  rng.uniform(-0.4, 0.4, M))
        tone = ToneSpec(float(rng.uniform(0.1, 1.5)),
                        float(rng.uniform(0.001, 0.499)),
                        float(rng.uniform(-3, 3)), float(rng.uniform(-0.3, 0.3)))
        n_total = M * int(rng.integers(1, 3000))
        want = out_of_place_codes(tone, config, profile, n_total)
        cap = simulate_capture(tone, config, profile, n_total)
        for m in range(M):
            np.testing.assert_array_equal(cap.per_channel[m], want[m])
            assert np.shares_memory(cap.per_channel[m], cap.interleaved)
            np.testing.assert_array_equal(quantize_stream(
                sample_channels(tone, config, profile, n_total // M)[m],
                config), want[m])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_codes_equal_the_np_sin_reference(name, seed):
    # angle addition rounds the sine's argument otherwise than np.sin, by
    # some 1e-15; no sample of these captures lies that near a decision
    # level
    scenario = with_seed(load_scenario(name), seed)
    M = scenario.config.n_channels
    n_total = M * ((1 << 17) // M)
    cap = simulate_capture(scenario.tone, scenario.config, scenario.profile,
                           n_total)
    want = out_of_place_codes(scenario.tone, scenario.config,
                              scenario.profile, n_total)
    np.testing.assert_array_equal(cap.per_channel, want)


class TestChunkIndependence:
    """A sample depends only on the tone, the profile, its channel and its
    index k: the angle-addition grid is anchored at absolute k, not at the
    first sample of a row."""

    TONE = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4, dc=0.01)
    PROFILE = MismatchProfile((0, 0.003, -0.002), (0, 0.02, -0.01),
                              (0, 0.03, -0.02))

    def row(self, m, start, stop):
        return _sample_row(self.TONE, self.PROFILE, m, start,
                           np.empty(stop - start))

    # cuts off the grid of _SPLIT, rows of one sample, and a row reaching
    # past 4M samples, where the angles are near 3e6
    @pytest.mark.parametrize("cuts", [
        (77, 78, 333, 600, 1023, 1025, 2001, 2002, 3077),
        (1, 255, 257, 511, 513, 700),
        (4_000_003, 4_000_004, 4_001_000, 4_065_537, 4_070_001)])
    def test_a_split_row_equals_the_whole_row(self, cuts):
        assert not any(c % _SPLIT == 0 for c in cuts)
        for m in range(3):
            whole = self.row(m, cuts[0], cuts[-1])
            pieces = [self.row(m, a, b) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(pieces).tobytes() == whole.tobytes()


class TestChunkedSimulation:
    """simulate_capture makes its codes _CHUNK samples per channel at a
    time, in their narrowest integer type."""

    TONE = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4, dc=0.01)
    PROFILE = MismatchProfile((0, 0.003, -0.002), (0, 0.02, -0.01),
                              (0, 0.03, -0.02))

    @pytest.mark.parametrize("K", [1000, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
    def test_codes_equal_the_whole_array_reference(self, K):
        config = TiadcConfig(n_channels=3, bits=12)
        cap = simulate_capture(self.TONE, config, self.PROFILE, 3 * K)
        want = quantize_stream(
            sample_channels(self.TONE, config, self.PROFILE, K), config)
        np.testing.assert_array_equal(cap.per_channel, want)

    @pytest.mark.parametrize("bits,dtype", [(12, np.int16), (16, np.int16),
                                            (24, np.int32)])
    def test_code_dtype(self, bits, dtype):
        config = TiadcConfig(n_channels=3, bits=bits)
        K = _CHUNK + 5
        cap = simulate_capture(self.TONE, config, self.PROFILE, 3 * K)
        assert cap.interleaved.dtype == dtype
        want = quantize_stream(
            sample_channels(self.TONE, config, self.PROFILE, K), config)
        np.testing.assert_array_equal(cap.per_channel, want)

    @pytest.mark.parametrize("n_total", [1 << 20, 1 << 22])
    def test_memory_beyond_the_codes_stays_small(self, n_total):
        # one float64 row of _CHUNK samples and the quantizer's scratch of
        # _CHUNK // 8 floats, and angle tables of a few float64 entries per
        # coarse and fine angle; a whole-record float64 pass would take 8
        # bytes per sample more
        tables = 8 * 8 * (_CHUNK // _SPLIT + _SPLIT)
        tracemalloc.start()
        try:
            cap = simulate_capture(self.TONE, CFG12, MismatchProfile(
                (0, 0.003), (0, 0.02), (0, 0.03)), n_total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - cap.interleaved.nbytes < 9 * _CHUNK + tables
