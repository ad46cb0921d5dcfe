import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (BlockConvolver, ConfigError, FilterSpec,
                       NumericError, ShapeError, TiadcConfig, convolve_serial,
                       decompose, parallel_convolve, parallel_convolve_stream,
                       recompose)
from tiadc_cal.filterbank import _chunk_sums


def naive_convolve(codes, taps):
    """Independent reference: direct double loop, Python ints (no overflow)."""
    out = []
    for k in range(len(codes)):
        acc = 0
        for i, h in enumerate(taps):
            if 0 <= k - i < len(codes):
                acc += int(h) * int(codes[k - i])
        out.append(acc)
    return np.array(out, dtype=np.int64)


class TestSerial:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-2048, 2048, size=50)
        taps = rng.integers(-(1 << 22), 1 << 22, size=7)
        np.testing.assert_array_equal(convolve_serial(codes, taps),
                                      naive_convolve(codes, taps))

    def test_zero_history(self):
        # first outputs only see the samples that exist so far
        out = convolve_serial([1, 0, 0, 0], [5, 7, 9])
        np.testing.assert_array_equal(out, [5, 7, 9, 0])

    def test_empty_stream(self):
        assert len(convolve_serial(np.array([], dtype=np.int64), [1, 2])) == 0

    def test_float_input_rejected(self):
        with pytest.raises(ConfigError):
            convolve_serial([1.5, 2.0], [1])

    def test_overflow_guarded(self):
        with pytest.raises(NumericError):
            convolve_serial([1 << 40], [1 << 30])


class TestDecomposeRecompose:
    def test_even_split(self):
        a, b = decompose([1, 2, 3, 4, 5, 6], 2)
        np.testing.assert_array_equal(a, [1, 3, 5])
        np.testing.assert_array_equal(b, [2, 4, 6])

    def test_identity_single_lane(self):
        (only,) = decompose([9, 8, 7], 1)
        np.testing.assert_array_equal(only, [9, 8, 7])

    def test_uneven_split(self):
        a, b, c = decompose([1, 2, 3, 4, 5], 3)
        np.testing.assert_array_equal(a, [1, 4])
        np.testing.assert_array_equal(b, [2, 5])
        np.testing.assert_array_equal(c, [3])

    def test_recompose_examples(self):
        np.testing.assert_array_equal(
            recompose([np.array([1, 3, 5]), np.array([2, 4, 6])]),
            [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(
            recompose([np.array([1, 4]), np.array([2, 5]), np.array([3])]),
            [1, 2, 3, 4, 5])

    def test_bad_lane_lengths_rejected(self):
        with pytest.raises(ShapeError):
            recompose([np.array([1]), np.array([2, 4, 6])])

    def test_lanes_floor(self):
        with pytest.raises(ConfigError):
            decompose([1, 2], 0)

    @given(st.lists(st.integers(-2048, 2047), max_size=64), st.integers(1, 8))
    def test_roundtrip(self, values, lanes):
        stream = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(recompose(decompose(stream, lanes)), stream)


class TestParallelConvolve:
    def test_identity_taps_pass_through(self):
        subs = decompose(np.arange(10, dtype=np.int64), 2)
        outs = parallel_convolve(subs, np.array([1], dtype=np.int64))
        for got, want in zip(outs, subs):
            np.testing.assert_array_equal(got, want)

    def test_small_case_vs_naive(self):
        codes = np.array([3, -1, 4, 1, -5, 9, 2, -6, 5], dtype=np.int64)
        taps = np.array([2, -3, 5, 7], dtype=np.int64)
        want = naive_convolve(codes, taps)
        for lanes in (1, 2, 3, 4, 8):
            got = parallel_convolve_stream(codes, taps, lanes)
            np.testing.assert_array_equal(got, want, err_msg=f"lanes={lanes}")

    def test_at_least_one_lane(self):
        taps = np.array([1], dtype=np.int64)
        with pytest.raises(ConfigError):
            parallel_convolve_stream(np.arange(8, dtype=np.int64), taps, 0)
        with pytest.raises(ConfigError):
            parallel_convolve([], taps)

    def test_inconsistent_lane_lengths_rejected(self):
        subs = [np.array([1, 2], dtype=np.int64), np.array([], dtype=np.int64)]
        with pytest.raises(ShapeError):
            parallel_convolve(subs, np.array([1]))

    @given(st.integers(0, 2 ** 31), st.integers(1, 8),
           st.integers(0, 120), st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_bit_exact_vs_serial(self, seed, lanes, length, n_taps):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-(1 << 15), 1 << 15, size=length)
        taps = rng.integers(-(1 << 28), 1 << 28, size=n_taps)
        want = convolve_serial(codes, taps)
        got = parallel_convolve_stream(codes, taps, lanes)
        np.testing.assert_array_equal(got, want)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(-2048, 2048, size=1000)
        taps = rng.integers(-(1 << 27), 1 << 27, size=30)
        first = parallel_convolve_stream(codes, taps, 8)
        for _ in range(3):
            np.testing.assert_array_equal(
                parallel_convolve_stream(codes, taps, 8), first)


class TestBlockConvolver:
    def test_blocks_match_whole_stream(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(-2048, 2048, size=500)
        taps = rng.integers(-(1 << 27), 1 << 27, size=30)
        want = convolve_serial(codes, taps)
        conv = BlockConvolver(30)
        got = np.concatenate([conv.process(codes[a:b], taps)
                              for a, b in [(0, 97), (97, 130), (130, 500)]])
        np.testing.assert_array_equal(got, want)

    def test_tap_swap_applies_from_block_start(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(-2048, 2048, size=256)
        taps_a = rng.integers(-(1 << 20), 1 << 20, size=8)
        taps_b = rng.integers(-(1 << 20), 1 << 20, size=8)
        conv = BlockConvolver(8)
        out_a = conv.process(codes[:128], taps_a)
        out_b = conv.process(codes[128:], taps_b)
        np.testing.assert_array_equal(out_a, convolve_serial(codes[:128], taps_a))
        # block 2 sees block 1's raw samples as history, with the new taps
        want_b = np.convolve(codes, taps_b)[128:256]
        np.testing.assert_array_equal(out_b, want_b)

    def test_single_tap(self):
        conv = BlockConvolver(1)
        out = conv.process(np.array([1, 2, 3], dtype=np.int64),
                           np.array([4], dtype=np.int64))
        np.testing.assert_array_equal(out, [4, 8, 12])

    def test_tap_length_must_stay_fixed(self):
        conv = BlockConvolver(8)
        with pytest.raises(ConfigError):
            conv.process(np.arange(16), np.arange(4))


def chunk_kernel_route(codes, taps):
    """The chunk kernel over a two-channel capture of these values on both
    channels, as one chunk, with a hand-built bank whose slot 0 is a plain
    convolution of channel 0 with these L taps; returns slot 0's
    accumulators. Of its 2L-1 taps, tap j sits at position 2j of channel
    D % 2, the channel that slot 0 corrects, so each reads channel 0.

    Each sample is a block of its own, and value v is the 24-bit code
    w = clip(v) less the offset code w - v. The kernel bounds a block's
    samples from the word, 2^23 plus the largest |offset code| they read:
    that is |v| for v <= -2^23, but v + 1 for v >= 2^23, whose code is the
    word's largest, 2^23 - 1."""
    spec = FilterSpec(n_taps=2 * len(taps) - 1, coeff_bits=32)
    n = len(codes)
    fixed = np.zeros((n, 2, spec.n_taps), dtype=np.int64)
    fixed[:, spec.group_delay % 2, 0::2] = taps
    words = np.clip(codes, -(1 << 23), (1 << 23) - 1)
    offsets = [(int(w) - int(v)) / (1 << 23) for v, w in zip(codes, words)]
    return _chunk_sums(np.stack((words, words)),
                       TiadcConfig(n_channels=2, bits=24), spec, 0, n, fixed,
                       np.array([offsets, offsets]).T, 0, 1)[0]


class TestOneOverflowRule:
    """Every integer route rejects exactly the inputs whose bound, largest
    |code| times the sum of |taps|, reaches 2^62; the chunk kernel's
    largest |code| is its word's bound (chunk_kernel_route)."""

    ROUTES = {
        "convolve_serial": convolve_serial,
        "parallel_convolve_stream":
            lambda codes, taps: parallel_convolve_stream(codes, taps, 3),
        "BlockConvolver.process":
            lambda codes, taps: BlockConvolver(len(taps)).process(codes, taps),
        "_chunk_sums": chunk_kernel_route,
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_bound_just_below_the_limit_passes(self, route):
        # (2^31 - 1) * (2^31 + 1) = 2^62 - 1, with the peak on a negative
        # code (a positive peak's word bound in the chunk kernel is one
        # more)
        peak = (1 << 31) - 1
        codes = np.array([3, -peak, peak - 1, 0, 1, -5, peak - 1],
                         dtype=np.int64)
        taps = np.array([1 << 30, -(1 << 30) - 1], dtype=np.int64)
        np.testing.assert_array_equal(self.ROUTES[route](codes, taps),
                                      naive_convolve(codes, taps))

    @pytest.mark.parametrize("route", ROUTES)
    def test_bound_at_the_limit_raises(self, route):
        # 2^31 * 2^31 = 2^62; |-2^31| is the peak
        codes = np.array([3, -(1 << 31), 7, 0, 1, -5, 2], dtype=np.int64)
        taps = np.array([1 << 30, -(1 << 30)], dtype=np.int64)
        with pytest.raises(NumericError):
            self.ROUTES[route](codes, taps)

    @pytest.mark.parametrize("codes,taps", [
        ([3, 1], [-(1 << 63), 5]),     # int64 abs leaves this tap negative
        ([1, 1], [1 << 62, 1 << 62]),  # the int64 sum of |taps| wraps
        ([-(1 << 63), 5], [1, 0]),     # int64 abs leaves this code negative
    ], ids=["most-negative-tap", "tap-sum-wraps", "most-negative-code"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_int64_extremes_raise(self, route, codes, taps):
        # the chunk kernel refuses the two tap cases itself, with
        # TapOverflowError
        with pytest.raises(NumericError):
            self.ROUTES[route](np.array(codes, dtype=np.int64),
                               np.array(taps, dtype=np.int64))
