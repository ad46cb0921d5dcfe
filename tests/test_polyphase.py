import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (BlockConvolver, ConfigError, FilterBank, FilterSpec,
                       NumericError, PolyphasePlan, ShapeError, TiadcConfig,
                       convolve_serial, decompose, parallel_convolve,
                       parallel_convolve_stream, recompose)
from tiadc_cal.filterbank import StreamCalibrator


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


class TestPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PolyphasePlan(lanes=0)

    def test_for_filter(self):
        assert PolyphasePlan.for_filter(4, 30) == PolyphasePlan(4)


class TestParallelConvolve:
    def test_identity_taps_pass_through(self):
        subs = decompose(np.arange(10, dtype=np.int64), 2)
        plan = PolyphasePlan.for_filter(2, 1)
        outs = parallel_convolve(subs, np.array([1], dtype=np.int64), plan)
        for got, want in zip(outs, subs):
            np.testing.assert_array_equal(got, want)

    def test_small_case_vs_naive(self):
        codes = np.array([3, -1, 4, 1, -5, 9, 2, -6, 5], dtype=np.int64)
        taps = np.array([2, -3, 5, 7], dtype=np.int64)
        want = naive_convolve(codes, taps)
        for lanes in (1, 2, 3, 4, 8):
            got = parallel_convolve_stream(codes, taps, PolyphasePlan(lanes))
            np.testing.assert_array_equal(got, want, err_msg=f"lanes={lanes}")

    def test_lane_count_must_match_plan(self):
        subs = decompose(np.arange(8, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            parallel_convolve(subs, np.array([1]), PolyphasePlan(3))

    def test_inconsistent_lane_lengths_rejected(self):
        subs = [np.array([1, 2], dtype=np.int64), np.array([], dtype=np.int64)]
        with pytest.raises(ShapeError):
            parallel_convolve(subs, np.array([1]), PolyphasePlan(2))

    @given(st.integers(0, 2 ** 31), st.integers(1, 8),
           st.integers(0, 120), st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_bit_exact_vs_serial(self, seed, lanes, length, n_taps):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-(1 << 15), 1 << 15, size=length)
        taps = rng.integers(-(1 << 28), 1 << 28, size=n_taps)
        want = convolve_serial(codes, taps)
        got = parallel_convolve_stream(codes, taps, PolyphasePlan(lanes))
        np.testing.assert_array_equal(got, want)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(-2048, 2048, size=1000)
        taps = rng.integers(-(1 << 27), 1 << 27, size=30)
        plan = PolyphasePlan.for_filter(8, 30)
        first = parallel_convolve_stream(codes, taps, plan)
        for _ in range(3):
            np.testing.assert_array_equal(
                parallel_convolve_stream(codes, taps, plan), first)


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


def stream_calibrator_route(codes, taps):
    """StreamCalibrator with a hand-built two-channel sub-rate bank whose
    channels both carry these taps; returns channel 0's accumulators."""
    spec = FilterSpec(n_taps=len(taps), coeff_bits=32)
    fixed = (np.asarray(taps, dtype=np.int64),) * 2
    bank = FilterBank(spec=spec, taps_real=(np.zeros(len(taps)),) * 2,
                      taps_fixed=fixed, offsets=(0.0, 0.0))
    stream = StreamCalibrator(TiadcConfig(n_channels=2, bits=24), spec)
    return stream.process([codes, codes], bank)[0]


class TestOneOverflowRule:
    """Every integer route rejects exactly the inputs whose bound, largest
    |code| times the sum of |taps|, reaches 2^62."""

    ROUTES = {
        "convolve_serial": convolve_serial,
        "parallel_convolve_stream":
            lambda codes, taps: parallel_convolve_stream(codes, taps,
                                                         PolyphasePlan(3)),
        "BlockConvolver.process":
            lambda codes, taps: BlockConvolver(len(taps)).process(codes, taps),
        "StreamCalibrator.process": stream_calibrator_route,
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_bound_just_below_the_limit_passes(self, route):
        # (2^31 - 1) * (2^31 + 1) = 2^62 - 1, with the peak on a negative code
        peak = (1 << 31) - 1
        codes = np.array([3, -peak, peak - 1, 0, 1, -5, peak], dtype=np.int64)
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
