import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (ConfigError, FilterBank, FilterSpec, MismatchProfile,
                       NumericError, ShapeError, TapOverflowError,
                       TiadcConfig, ToneSpec, calibrate_capture,
                       convolve_serial, design_taps, dequantize_stream,
                       filter_frequency_response, ideal_frequency_response,
                       quantize_taps, sinad, simulate_capture, tap_indices)
from tiadc_cal.filterbank import (_chunk_sums, design_banks,
                                  write_coefficients_csv)
from tiadc_cal.model import _CHUNK, ChannelCapture, interleave_channels
from tiadc_cal.polyphase import parallel_convolve_stream
from tiadc_cal.scenarios import BUILTIN_SCENARIOS

SPEC30 = FilterSpec(n_taps=30, coeff_bits=30)
CFG12 = TiadcConfig(n_channels=2, bits=12)


def calibrated_stream(capture, bank):
    """The whole output of calibrate_capture, read from its pieces."""
    return np.concatenate(list(calibrate_capture(capture, bank)))


def acc_scale(config, spec):
    """Amplitude units per unit of an accumulator: the one final scaling."""
    return 2.0 ** -(spec.coeff_bits - 2) * config.lsb


def one_bank(bank):
    """A FilterBank's taps and offsets as the chunk kernel takes them: a
    stack of one bank, (1, M, N) and (1, M)."""
    return np.asarray(bank.taps_fixed)[None], np.asarray(bank.offsets)[None]


def whole_sums(capture, spec, taps, offsets, block_len=None):
    """The chunk kernel run once over the whole capture, with one bank of
    taps (B, M, N) and offsets (B, M) per block_len samples (default: the
    whole capture is one block): the (M, n) accumulators."""
    n = capture.n_per_channel
    return _chunk_sums(capture.per_channel, capture.config, spec, 0, n, taps,
                       offsets, 0, block_len or n)


def response_by_loop(taps, omega):
    """Independent route: plain Python summation of the defining series."""
    acc = 0j
    for n, w in zip(tap_indices(len(taps)), taps):
        acc += w * complex(math.cos(omega * n), -math.sin(omega * n))
    return acc


class TestSpecAndIndices:
    def test_group_delay(self):
        assert FilterSpec(n_taps=30).group_delay == 14
        assert FilterSpec(n_taps=31).group_delay == 15
        assert FilterSpec(n_taps=1).group_delay == 0
        assert FilterSpec(n_taps=2).group_delay == 0

    def test_index_range(self):
        np.testing.assert_array_equal(tap_indices(30), np.arange(-14, 16))
        np.testing.assert_array_equal(tap_indices(1), [0])
        np.testing.assert_array_equal(tap_indices(2), [0, 1])
        np.testing.assert_array_equal(tap_indices(5), np.arange(-2, 3))

    def test_validation(self):
        with pytest.raises(ConfigError):
            FilterSpec(n_taps=0)
        with pytest.raises(ConfigError):
            FilterSpec(n_taps=4, coeff_bits=7)
        with pytest.raises(ConfigError):
            FilterSpec(n_taps=4, coeff_bits=33)
        with pytest.raises(ConfigError):
            FilterSpec(n_taps=4, variant="mul")

    @pytest.mark.parametrize("field,bad", [
        ("n_taps", 30.5), ("n_taps", float("nan")), ("n_taps", 30.0),
        ("n_taps", True), ("coeff_bits", 24.5), ("coeff_bits", "24")])
    def test_counts_must_be_integers(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            FilterSpec(**{"n_taps": 30, "coeff_bits": 24, field: bad})

    def test_numpy_integer_counts_are_stored_as_ints(self):
        spec = FilterSpec(n_taps=np.int64(30), coeff_bits=np.int8(24))
        assert spec == FilterSpec(n_taps=30, coeff_bits=24)
        assert type(spec.n_taps) is int and type(spec.coeff_bits) is int
        assert FilterBank.identity(2, spec).spec == spec


class TestDesignTaps:
    def test_two_channel_values(self):
        taps = design_taps(0.01, 0.01, 2, SPEC30)
        by_index = dict(zip(tap_indices(30), taps))
        assert by_index[0] == pytest.approx(0.99, abs=0)
        assert by_index[1] == pytest.approx(0.005, abs=0)
        assert by_index[-1] == pytest.approx(-0.005, abs=0)
        assert by_index[2] == pytest.approx(-0.0025, abs=0)

    def test_zero_mismatch_is_unit_impulse(self):
        taps = design_taps(0.0, 0.0, 2, SPEC30)
        by_index = dict(zip(tap_indices(30), taps))
        assert by_index[0] == 1.0
        assert sum(abs(v) for n, v in by_index.items() if n != 0) == 0.0

    def test_divide_gain_variant(self):
        taps = design_taps(0.01, 0.0, 2, FilterSpec(n_taps=5, variant="div"))
        by_index = dict(zip(tap_indices(5), taps))
        assert by_index[0] == pytest.approx(1 / 1.01, rel=1e-15)
        assert all(v == 0 for n, v in by_index.items() if n != 0)

    def test_mismatch_bounds(self):
        with pytest.raises(ConfigError):
            design_taps(0.5, 0.0, 2, SPEC30)
        with pytest.raises(ConfigError):
            design_taps(0.0, -0.6, 2, SPEC30)

    @pytest.mark.parametrize("gain, skew", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_mismatch_rejected(self, gain, skew):
        # NaN fails every magnitude comparison, so it must not pass as < 0.5
        with pytest.raises(ConfigError):
            design_taps(gain, skew, 2, FilterSpec(n_taps=4))

    @given(st.floats(-0.4, 0.4), st.integers(2, 6), st.integers(2, 40))
    def test_timing_part_antisymmetric(self, skew, m, n_taps):
        taps = design_taps(0.0, skew, m, FilterSpec(n_taps=n_taps))
        by_index = dict(zip(tap_indices(n_taps), taps))
        for n in by_index:
            if n != 0 and -n in by_index:
                assert by_index[n] + by_index[-n] == 0.0

    def test_skew_scales_taps_linearly(self):
        one = design_taps(0.0, 0.01, 2, SPEC30)
        two = design_taps(0.0, 0.02, 2, SPEC30)
        idx = tap_indices(30) != 0
        np.testing.assert_allclose(two[idx], 2 * one[idx], rtol=0, atol=1e-18)


class TestQuantizeTaps:
    def test_examples(self):
        assert quantize_taps([0.99], 24)[0] == 4152361
        assert quantize_taps([0.0], 16)[0] == 0
        assert quantize_taps([1.0], 8)[0] == 64

    def test_half_away_from_zero(self):
        # 0.5/64 * 2^6 = 0.5 exactly: rounds away, both signs
        assert quantize_taps([0.5 / 64], 8)[0] == 1
        assert quantize_taps([-0.5 / 64], 8)[0] == -1

    def test_overflow(self):
        with pytest.raises(TapOverflowError):
            quantize_taps([2.0], 16)
        with pytest.raises(TapOverflowError):
            quantize_taps([-2.5], 16)
        # rounds up to the power of two just out of range
        with pytest.raises(TapOverflowError):
            quantize_taps([2.0 - 2.0 ** -10], 8)

    def test_nan_rejected(self):
        with pytest.raises(TapOverflowError):
            quantize_taps([math.nan, 0.1], 30)

    @given(st.lists(st.floats(-1.9, 1.9), min_size=1, max_size=32),
           st.integers(8, 32))
    def test_dequantize_within_half_lsb(self, taps, bits):
        fx = quantize_taps(taps, bits)
        back = fx / (1 << (bits - 2))
        np.testing.assert_allclose(back, taps, rtol=0,
                                   atol=0.5 * 2.0 ** -(bits - 2) + 1e-18)


class TestBankWordLength:
    """A hand-built bank takes only taps that quantize_taps could give it:
    each fits coeff_bits two's complement."""

    @staticmethod
    def bank(taps):
        return FilterBank(spec=FilterSpec(n_taps=2, coeff_bits=8),
                          taps_real=(np.zeros(2),) * 2,
                          taps_fixed=(taps, [0, 0]), offsets=(0.0, 0.0))

    def test_extremes_of_the_word_fit(self):
        assert self.bank(np.array([-128, 127])).taps_fixed[0].tolist() == \
            [-128, 127]

    @pytest.mark.parametrize("taps", [[128, 0], [0, -129],
                                      np.array([-(1 << 63), 0]),
                                      [1 << 70, 0]],
                             ids=["128", "-129", "-2^63", "2^70"])
    def test_outside_the_word_raises(self, taps):
        with pytest.raises(TapOverflowError):
            self.bank(taps)


class TestFrequencyResponse:
    def test_unit_impulse_flat(self):
        taps = design_taps(0.0, 0.0, 2, FilterSpec(n_taps=9))
        for omega in np.linspace(-np.pi, np.pi, 17):
            assert filter_frequency_response(taps, omega) == pytest.approx(1 + 0j)

    def test_gain_only_flat(self):
        taps = design_taps(0.01, 0.0, 2, SPEC30)
        for omega in (0.0, 0.3, -2.0, np.pi):
            assert filter_frequency_response(taps, omega) == pytest.approx(0.99 + 0j)

    def test_pinned_truncation_example(self):
        # dg=0, dt=0.02, M=2, N=30 at omega=0.2*pi. The imaginary part sits
        # within 5e-4 of the target -0.2*pi*0.01. The real part cannot: the
        # asymmetric index range leaves tap n=+15 unpaired, and with
        # cos(15*0.2*pi) = -1 it contributes exactly -0.01/15 = -6.67e-4.
        taps = design_taps(0.0, 0.02, 2, SPEC30)
        got = filter_frequency_response(taps, 0.2 * np.pi)
        ideal = ideal_frequency_response(0.0, 0.02, 2, 0.2 * np.pi)
        assert ideal == pytest.approx(1 - 0.006283185307j, abs=1e-9)
        assert abs(got.imag - ideal.imag) < 5e-4
        assert got.real == pytest.approx(1 - 0.01 / 15, abs=1e-12)
        assert abs(got.real - 1.0) < 1e-3
        assert got == pytest.approx(response_by_loop(taps, 0.2 * np.pi), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        taps = design_taps(0.01, 0.015, 2, FilterSpec(n_taps=14))
        omegas = np.linspace(-np.pi, np.pi, 9)
        vec = filter_frequency_response(taps, omegas)
        for om, v in zip(omegas, vec):
            assert v == pytest.approx(filter_frequency_response(taps, om))

    def test_passband_convergence(self):
        # worst-case error over |omega| <= 0.9*pi; single-frequency error is
        # not monotone in N because ripple nulls move as the length changes
        omegas = np.linspace(-0.9 * np.pi, 0.9 * np.pi, 721)
        ideal = ideal_frequency_response(0.01, 0.02, 2, omegas)
        errs = []
        for n_taps in (6, 14, 30, 62):
            taps = design_taps(0.01, 0.02, 2, FilterSpec(n_taps=n_taps))
            got = filter_frequency_response(taps, omegas)
            errs.append(np.abs(got - ideal).max())
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.10  # shrinking, allowing 10% ripple excursions


class TestCalibrateChannel:
    """One channel's fixed-point rule, run through calibrate_capture."""

    def test_identity_is_pure_delay(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=0.11, phase=0.4)
        cap = simulate_capture(tone, CFG12, MismatchProfile.zero(2), 256)
        bank = FilterBank.identity(2, SPEC30)
        out = calibrated_stream(cap, bank)
        want = dequantize_stream(cap.interleaved, CFG12)
        d = SPEC30.group_delay
        # output j is input j + D*(M-1): the interleaved stream is delayed
        # by D aggregate samples, and D*M are trimmed from the front
        assert len(out) == len(want) - 2 * d * 2
        np.testing.assert_array_equal(out, want[d: d + len(out)])
        # the trimmed transient: with zero history, the first D sums are 0
        acc = interleave_channels(whole_sums(cap, SPEC30, *one_bank(bank)))
        np.testing.assert_array_equal(acc[:d], 0)
        np.testing.assert_array_equal(acc[d:] * acc_scale(CFG12, SPEC30),
                                      want[:len(want) - d])

    def test_offset_subtraction_nulls_constant(self):
        # exactly 100 and -37 codes on the two channels
        cap = ChannelCapture(CFG12, interleave_channels(
            (np.full(64, 100, dtype=np.int64),
             np.full(64, -37, dtype=np.int64))))
        bank = FilterBank.design(MismatchProfile((100 / 2048, -37 / 2048),
                                                 (0, 0), (0, 0)), 2, SPEC30)
        np.testing.assert_array_equal(calibrated_stream(cap, bank), 0.0)
        # an offset that does not match leaves the difference, exactly
        bank = FilterBank.design(MismatchProfile((0, -40 / 2048), (0, 0),
                                                 (0, 0)), 2, SPEC30)
        out = calibrated_stream(cap, bank)
        np.testing.assert_array_equal(out[0::2], 100 * CFG12.lsb)
        np.testing.assert_array_equal(out[1::2], 3 * CFG12.lsb)

    def test_short_stream_rejected(self):
        bank = FilterBank.identity(2, SPEC30)
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            calibrate_capture(random_capture(rng, 2, 10), bank)
        with pytest.raises(ShapeError):
            calibrate_capture(random_capture(rng, 2, 29), bank)
        assert len(calibrated_stream(random_capture(rng, 2, 30), bank)) == 4


class TestCalibrateCapture:
    def make_fig6_like(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=77 / 4096, phase=1.234)
        profile = MismatchProfile((0, 0), (0, 0.01), (0, 0.01))
        return simulate_capture(tone, CFG12, profile, 16384), tone, profile

    def test_zero_mismatch_identity_bank_pure_delay(self):
        # three channels and an odd N: output j is input j + D*(M-1)
        tone = ToneSpec(amplitude=0.9, freq_rel=77 / 4096, phase=0.2)
        config = TiadcConfig(n_channels=3, bits=12)
        spec = FilterSpec(n_taps=7)
        cap = simulate_capture(tone, config, MismatchProfile.zero(3), 4095)
        out = calibrated_stream(cap, FilterBank.identity(3, spec))
        d = spec.group_delay
        want = dequantize_stream(cap.interleaved, config)
        assert len(out) == len(want) - 2 * d * 3
        np.testing.assert_allclose(out, want[2 * d: 2 * d + len(out)],
                                   rtol=0, atol=0)

    def test_two_channel_correction_raises_sinad(self):
        cap, tone, profile = self.make_fig6_like()
        uncal = dequantize_stream(cap.interleaved, CFG12)
        bank = FilterBank.design(profile, 2, SPEC30)
        cal = calibrated_stream(cap, bank)
        before = sinad(uncal, tone.freq_rel, 4096)
        after = sinad(cal, tone.freq_rel, 4096)
        assert 43.0 <= before <= 47.0
        assert after >= 66.0

    def test_channel_count_checked(self):
        cap, _, _ = self.make_fig6_like()
        with pytest.raises(ConfigError):
            calibrate_capture(cap, FilterBank.identity(3, SPEC30))

    @pytest.mark.parametrize("tail, n_pieces", [(5, 2), (123, 3)])
    def test_pieces_are_chunks_of_the_whole_stream(self, tail, n_pieces):
        # three chunks per channel; a 5-sample last chunk lies wholly in
        # the trimmed tail, and the trim reaches into the chunk before it
        rng = np.random.default_rng(tail)
        cap = random_capture(rng, 3, 2 * _CHUNK + tail)
        spec = FilterSpec(n_taps=31, coeff_bits=24)
        bank = FilterBank.design(TestFullRateBank.PROFILE, 3, spec)
        pieces = list(calibrate_capture(cap, bank))
        assert len(pieces) == n_pieces
        for a, piece in enumerate(pieces):
            assert piece.dtype == np.float64 and len(piece) <= _CHUNK * 3
            assert not any(np.shares_memory(piece, b) for b in pieces[a + 1:])
        merged = (interleave_channels(whole_sums(cap, spec, *one_bank(bank)))
                  * acc_scale(cap.config, spec))
        trim = spec.group_delay * 3
        np.testing.assert_array_equal(np.concatenate(pieces),
                                      merged[trim:-trim])

    def test_fixed_point_tracks_real_within_tenth_db(self):
        cap, tone, profile = self.make_fig6_like()
        bank = FilterBank.design(profile, 2, SPEC30)
        fixed = calibrated_stream(cap, bank)
        # real-coefficient route, built independently of the bank plumbing:
        # a float convolution of the interleaved stream with each channel's
        # real taps, keeping that channel's positions
        vals = dequantize_stream(cap.interleaved, CFG12)
        d = SPEC30.group_delay
        y = np.empty(len(vals))
        for m in range(2):
            full = np.convolve(vals, bank.taps_real[m])  # full[q + d]: q
            y[m::2] = full[d + m: d + len(vals): 2]
        real = y[d: d + len(fixed)]
        diff = abs(sinad(fixed, tone.freq_rel, 4096)
                   - sinad(real, tone.freq_rel, 4096))
        assert diff <= 0.1

    def test_word_length_24_equivalent_here(self):
        cap, tone, profile = self.make_fig6_like()
        vals = []
        for w in (24, 30):
            bank = FilterBank.design(profile, 2, FilterSpec(30, coeff_bits=w))
            vals.append(sinad(calibrated_stream(cap, bank), tone.freq_rel, 4096))
        assert abs(vals[0] - vals[1]) <= 1.0


class TestCoefficientsCsv:
    def test_export_layout(self, tmp_path):
        profile = MismatchProfile((0, 0.01), (0, 0.02), (0, -0.01))
        bank = FilterBank.design(profile, 2, FilterSpec(n_taps=4, coeff_bits=16))
        path = tmp_path / "coeffs.csv"
        write_coefficients_csv(path, bank)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("channel,tap_index,real_value,fixed_point_integer,"
                            "coeff_bits,format_tag")
        assert len(lines) == 1 + 2 * 4
        ch, n, real, fx, bits, tag = lines[1].split(",")
        assert (ch, bits, tag) == ("0", "16", "Q2.14")
        assert int(fx) == round(float(real) * (1 << 14))


def random_capture(rng, n_channels, n_per_channel, bits=12):
    half = 1 << (bits - 1)
    per_channel = tuple(rng.integers(-half, half, size=n_per_channel)
                        for _ in range(n_channels))
    return ChannelCapture(TiadcConfig(n_channels=n_channels, bits=bits),
                          interleave_channels(per_channel))


def offset_codes(offsets, config):
    """Offsets (an array in full-scale units) in codes, rounded half away
    from zero, in Python integers."""
    return np.array([int(np.sign(v) * np.floor(abs(v) + 0.5)) for v in
                     np.ravel(offsets) / config.full_scale
                     * config.code_half_range]).reshape(np.shape(offsets))


def direct_fullrate(capture, taps, offsets, block_len=None):
    """Independent route: convolve the whole interleaved stream, each sample
    minus its own block's offset code, with every bank's taps of every
    channel, and keep the positions that channel and bank correct.

    Block b, block_len samples per channel from sample 0 (default: the
    whole capture), runs bank b of taps (B, M, N) and offsets (B, M) in
    full-scale units. The bank runs causally, so it corrects the aggregate
    samples whose output, D samples later, lies in its block. Returns y[q],
    the integer correction of aggregate sample q, for q < len - D (the rest
    is 0)."""
    config = capture.config
    M = config.n_channels
    d = (taps.shape[-1] + 1) // 2 - 1
    block_len = block_len or capture.n_per_channel
    x = np.asarray(capture.interleaved, dtype=np.int64)
    k = np.arange(len(x)) // M  # each sample's sub-rate index
    x = x - offset_codes(offsets, config)[k // block_len, np.arange(len(x)) % M]
    y = np.zeros(len(x), dtype=np.int64)
    q = np.arange(len(x) - d)
    for b, bank in enumerate(taps):
        for c in range(M):
            full = np.convolve(x, bank[c])  # full[q + d] = sum t[n] x[q-n]
            sel = q[(q % M == c) & ((q + d) // M // block_len == b)]
            y[sel] = full[sel + d]
    return y


class TestFullRateBank:
    PROFILE = MismatchProfile((0.0, 0.003, -0.002), (0.0, 0.01, -0.02),
                              (0.0, 0.01, 0.02))

    def test_tap_formula(self):
        # channel 1 of 3, N=30 (K=14): tap n reads channel (1 - n) mod 3
        taps = FilterBank.design(self.PROFILE, 3, SPEC30).taps_real[1]
        by_index = dict(zip(tap_indices(30), taps))
        trim = {0: 1.0, 1: 0.99, 2: 1.02}
        assert by_index[0] == pytest.approx(0.99, abs=1e-15)
        for n in (1, -1, 2, 7, -14, 14):
            hann = 0.5 * (1 + math.cos(math.pi * n / 15))
            want = 0.01 * trim[(1 - n) % 3] * (-1) ** (n + 1) / n * hann
            assert by_index[n] == pytest.approx(want, rel=1e-12, abs=0)
        assert by_index[15] == 0.0  # the unpaired tap of an even N

    def test_unpaired_tap_zero_and_taps_antisymmetric(self):
        profile = MismatchProfile((0, 0), (0, 0), (0, 0.02))
        for n_taps in (2, 6, 7, 30, 31):
            spec = FilterSpec(n_taps=n_taps)
            taps = FilterBank.design(profile, 2, spec).taps_real[1]
            by_index = dict(zip(tap_indices(n_taps), taps))
            k = spec.group_delay
            assert by_index.get(k + 1, 0.0) == 0.0
            for n in range(1, k + 1):  # odd in n: a pure differentiator
                assert by_index[n] == -by_index[-n]

    def test_identity_bank_is_pure_delay(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=77 / 4096, phase=0.2)
        cap = simulate_capture(tone, CFG12, MismatchProfile.zero(2), 4096)
        out = calibrated_stream(cap, FilterBank.identity(2, SPEC30))
        want = dequantize_stream(cap.interleaved, CFG12)
        # output j is input sample j + D*(M-1)
        shift = SPEC30.group_delay
        np.testing.assert_array_equal(out, want[shift: shift + len(out)])

    @pytest.mark.parametrize("n_channels,n_taps", [(2, 30), (3, 7), (3, 8),
                                                   (4, 2), (5, 13)])
    def test_matches_direct_fullrate_convolution(self, n_channels, n_taps):
        rng = np.random.default_rng(n_channels * 100 + n_taps)
        cap = random_capture(rng, n_channels, 97)
        profile = MismatchProfile(
            offsets=rng.uniform(-0.01, 0.01, n_channels),
            gains=rng.uniform(-0.03, 0.03, n_channels),
            skews=rng.uniform(-0.03, 0.03, n_channels))
        spec = FilterSpec(n_taps=n_taps, coeff_bits=26)
        bank = FilterBank.design(profile, n_channels, spec)
        got = calibrated_stream(cap, bank)
        want = direct_fullrate(cap, *one_bank(bank)) * acc_scale(cap.config,
                                                                 spec)
        d = spec.group_delay
        start = d * (n_channels - 1)
        np.testing.assert_array_equal(got, want[start: start + len(got)])

    def test_at_most_n_macs_per_output(self):
        for n_taps in (1, 2, 7, 30, 31):
            spec = FilterSpec(n_taps=n_taps)
            bank = FilterBank.design(self.PROFILE, 3, spec)
            for terms in bank.convolution_terms():
                assert sum(len(taps) for _, _, taps in terms) <= n_taps
                for _, lag, taps in terms:
                    assert lag >= 0 and lag + len(taps) <= n_taps

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_terms_hold_only_nonzero_taps(self, name):
        """All-zero sub-filters are left out and the rest trimmed to their
        nonzero taps: a slot spends one multiply-accumulate per nonzero tap
        of the channel it corrects, not N."""
        scenario = BUILTIN_SCENARIOS[name]()
        M = scenario.config.n_channels
        spec = scenario.filter_spec
        bank = FilterBank.design(scenario.profile, M, spec)
        lengths = [[len(taps) for _, _, taps in terms]
                   for terms in bank.convolution_terms()]
        for m, slot in enumerate(lengths):
            channel = (m - spec.group_delay) % M
            assert sum(slot) == np.count_nonzero(bank.taps_fixed[channel])
        if name == "fig6":
            # channel 0 has no skew: one tap; channel 1's unpaired tap is 0
            assert lengths[0] == [1] and sum(lengths[1]) == 29

    def test_blockwise_lanes_and_whole_stream_bit_identical(self):
        """A fixed bank run by the chunk kernel over the chunks of any split
        of a capture reproduces the whole-stream output; so do the
        polyphase lanes of the hardware model, summed over each slot's
        convolutions."""
        rng = np.random.default_rng(7)
        cap = random_capture(rng, 3, 600)
        for spec in (FilterSpec(n_taps=14, coeff_bits=24),
                     FilterSpec(n_taps=9, coeff_bits=24)):
            bank = FilterBank.design(self.PROFILE, 3, spec)
            taps, offsets = one_bank(bank)
            whole = whole_sums(cap, spec, taps, offsets)
            # chunks shorter than the N-1 samples of history, and chunk
            # edges anywhere
            for edges in ((0, 5, 6, 200, 600), (0, 13, 14, 15, 599, 600),
                          (0, 300, 600)):
                pieces = [_chunk_sums(cap.per_channel, cap.config, spec, a, b,
                                      taps, offsets, 0, 600)
                          for a, b in zip(edges, edges[1:])]
                np.testing.assert_array_equal(np.concatenate(pieces, axis=1),
                                              whole)
            sources = [c - off for c, off in
                       zip(cap.per_channel, offset_codes(offsets[0],
                                                         cap.config))]
            for m, terms in enumerate(bank.convolution_terms()):
                lanes = np.zeros(600, dtype=np.int64)
                for s, lag, taps in terms:
                    conv = parallel_convolve_stream(sources[s], taps, 3)
                    lanes[lag:] += conv[: 600 - lag]
                np.testing.assert_array_equal(lanes, whole[m])

    def test_corrects_above_quarter_rate(self):
        # 0.399 fs: the paper's sub-rate bank's differentiator takes the
        # wrong branch there, the library's bank does not
        tone = ToneSpec(amplitude=0.9, freq_rel=1635 / 4096, phase=0.3)
        profile = MismatchProfile((0, 0), (0, 0.01), (0, 0.01))
        cap = simulate_capture(tone, CFG12, profile, 16384)
        before = sinad(dequantize_stream(cap.interleaved, CFG12),
                       tone.freq_rel, 4096)
        bank = FilterBank.design(profile, 2, SPEC30)
        fullrate = sinad(calibrated_stream(cap, bank), tone.freq_rel, 4096)
        # the paper's bank by the reference rule: convolve_serial of each
        # channel's codes (its offsets are zero), scaled once
        paper = quantize_taps(design_taps(profile.gains, profile.skews, 2,
                                          SPEC30), SPEC30.coeff_bits)
        scale = 2.0 ** -(SPEC30.coeff_bits - 2) * CFG12.lsb
        chans = [convolve_serial(codes, taps) * scale
                 for codes, taps in zip(cap.per_channel, paper)]
        d = SPEC30.group_delay * 2
        subrate = sinad(interleave_channels(chans)[d:-d], tone.freq_rel, 4096)
        assert fullrate >= before + 30.0
        assert subrate < before + 10.0

    def test_overflow_guard_covers_the_sum_of_terms(self):
        # samples that no single sub-rate convolution of the slot can
        # wrap, but their sum can: 24-bit codes of -2^23 less an offset
        # code that takes the word's bound, 2^23 plus that code, to code
        spec = FilterSpec(n_taps=8, coeff_bits=32)
        sums = [[int(np.sum(np.abs(taps))) for _, _, taps in terms]
                for terms in FilterBank.design(MismatchProfile(
                    (0, 0), (0, -0.4), (0, 0.4)), 2, spec).convolution_terms()]
        limit = 1 << 62
        code = (limit - 1) // max(max(s) for s in sums)
        assert max(code * sum(s) for s in sums) >= limit
        offset = (code - (1 << 23)) / (1 << 23)
        bank = FilterBank.design(MismatchProfile((offset, offset), (0, -0.4),
                                                 (0, 0.4)), 2, spec)
        capture = ChannelCapture(TiadcConfig(n_channels=2, bits=24),
                                 np.full(128, -(1 << 23), dtype=np.int32))
        with pytest.raises(NumericError):
            whole_sums(capture, spec, *one_bank(bank))


def paper_taps_fullrate(gains, skews, spec):
    """The paper's sub-rate taps (design_taps, quantized) laid out as a
    full-rate bank of spec.n_taps taps, shape (..., M, N): its tap n_s on
    channel m's own fs/M stream reads the aggregate sample M*n_s back, so
    it sits at tap index M*n_s. It keeps the most sub-rate taps that fit;
    every other tap is zero, and each slot reads only its own channel."""
    M = gains.shape[-1]
    n = tap_indices(spec.n_taps)
    lo, hi = -n[0] // M, n[-1] // M
    sub = FilterSpec(n_taps=2 * lo + 1 + (hi > lo), coeff_bits=spec.coeff_bits,
                     variant=spec.variant)
    fixed = np.zeros(gains.shape + (spec.n_taps,), dtype=np.int64)
    fixed[..., M * tap_indices(sub.n_taps) - n[0]] = quantize_taps(
        design_taps(gains, skews, M, sub), spec.coeff_bits)
    return fixed


TAP_SOURCES = {
    "fullrate": lambda gains, skews, spec: design_banks(gains, skews, spec)[1],
    "subrate": paper_taps_fullrate,
}


def random_banks(rng, n_banks, n_channels, spec, source="fullrate"):
    """Fixed-point taps (B, M, N) and offsets (B, M) of banks of
    independent random mismatches: every block differs. The taps are
    design_banks' ("fullrate") or the paper's ("subrate", see
    paper_taps_fullrate)."""
    offsets, gains, skews = np.array(
        [(rng.uniform(-0.01, 0.01, n_channels),
          rng.uniform(-0.03, 0.03, n_channels),
          rng.uniform(-0.03, 0.03, n_channels))
         for _ in range(n_banks)]).swapaxes(0, 1)
    return TAP_SOURCES[source](gains, skews, spec), offsets


class TestMultiBankStep:
    """The chunk kernel with a bank of its own in every block, split over
    chunks, against direct_fullrate's convolution of the whole stream."""

    @staticmethod
    def chunk(capture, spec, start, stop, taps, offsets, block_len):
        """The kernel over samples start to stop, given every block's taps
        and offsets: it takes the banks of the blocks the chunk touches and
        the offsets from the block of its first history sample on."""
        first = max(start - spec.n_taps + 1, 0) // block_len
        return _chunk_sums(capture.per_channel, capture.config, spec, start,
                           stop, taps[start // block_len:
                                      (stop - 1) // block_len + 1],
                           offsets[first:], first, block_len)

    # the paper's taps leave most (slot, source) pairs without a live term,
    # the library's bank leaves none
    @pytest.mark.parametrize("source", ["subrate", "fullrate"])
    @pytest.mark.parametrize("n_channels", [2, 3, 5])
    @pytest.mark.parametrize("n_taps", [1, 2, 7, 30, 31])
    @pytest.mark.parametrize("block_len", [4, 16])
    def test_matches_block_by_block(self, source, n_channels, n_taps,
                                    block_len):
        rng = np.random.default_rng(1000 * n_taps + 10 * n_channels + block_len)
        spec = FilterSpec(n_taps=n_taps, coeff_bits=26)
        # chunk edges that are not block edges, and a short final block;
        # the N-1 samples of history cross block and chunk edges
        edges = (0, 37, 38, 38 + 4 * block_len, 197)
        cap = random_capture(rng, n_channels, edges[-1])
        taps, offsets = random_banks(rng, -(-edges[-1] // block_len),
                                     n_channels, spec, source)
        got = np.concatenate([self.chunk(cap, spec, a, b, taps, offsets,
                                         block_len)
                              for a, b in zip(edges, edges[1:])], axis=1)
        want = direct_fullrate(cap, taps, offsets, block_len)
        d = spec.group_delay
        np.testing.assert_array_equal(interleave_channels(got)[d:],
                                      want[:len(want) - d])

    def test_one_bank_is_one_block(self):
        # a bank repeated in every block gives the sums of one block
        rng = np.random.default_rng(11)
        cap = random_capture(rng, 3, 100)
        taps, offsets = random_banks(rng, 1, 3, SPEC30)
        one = whole_sums(cap, SPEC30, taps, offsets)
        repeated = whole_sums(cap, SPEC30, np.repeat(taps, 15, axis=0),
                              np.repeat(offsets, 15, axis=0), 7)
        np.testing.assert_array_equal(one, repeated)

    def test_bank_count_must_match_blocks(self):
        rng = np.random.default_rng(12)
        cap = random_capture(rng, 2, 40)
        taps, offsets = random_banks(rng, 3, 2, SPEC30)
        with pytest.raises(ConfigError, match="3 banks for 4 blocks"):
            whole_sums(cap, SPEC30, taps, offsets, 10)

    # a bank whose slot sums of |taps| reach well above the identity's 2^30
    WIDE = FilterSpec(n_taps=8, coeff_bits=32)
    CONFIG = TiadcConfig(n_channels=2, bits=24)

    def guard_case(self):
        """The wide bank and the identity, as one_bank pairs, and an offset
        in full scales whose code takes the word's bound on 24-bit codes,
        2^23 plus that code, to a size that wraps with the wide bank and
        not with the identity."""
        big = FilterBank.design(MismatchProfile((0, 0), (0, -0.4), (0, 0.4)),
                                2, self.WIDE)
        ident = FilterBank.identity(2, self.WIDE)
        worst = max(sum(int(np.abs(taps).sum()) for _, _, taps in terms)
                    for terms in big.convolution_terms())
        size = (1 << 62) // worst + 1
        assert size * (1 << 30) < 1 << 62 <= size * worst
        return one_bank(big), one_bank(ident), (size - (1 << 23)) / (1 << 23)

    @staticmethod
    def stack(*banks):
        """(B, M, N) taps of one_bank pairs."""
        return np.concatenate([taps for taps, _ in banks])

    def test_guard_trips_on_the_one_block_that_can_wrap(self):
        # every block's codes of -2^23 less its offset code reach the bound
        big, ident, offset = self.guard_case()
        capture = ChannelCapture(self.CONFIG,
                                 np.full(96, -(1 << 23), dtype=np.int32))
        offsets = np.full((3, 2), offset)
        whole_sums(capture, self.WIDE, self.stack(ident, ident, ident),
                   offsets, 16)
        taps = self.stack(ident, big, ident)
        with pytest.raises(NumericError):
            whole_sums(capture, self.WIDE, taps, offsets, 16)
        # a chunk of that block alone trips it; the next block's chunk,
        # whose history lies in it, runs the identity and does not
        with pytest.raises(NumericError):
            _chunk_sums(capture.per_channel, self.CONFIG, self.WIDE, 16, 32,
                        taps[1:2], offsets, 0, 16)
        _chunk_sums(capture.per_channel, self.CONFIG, self.WIDE, 32, 48,
                    taps[2:], offsets, 0, 16)

    def test_guard_bounds_each_block_on_its_own(self):
        # the large offset code sits in block 0, which runs the identity
        # bank, and block 1, which runs it too, puts more than N-1 samples
        # between it and block 2, which runs the wide bank: no block can
        # wrap, although the largest offset code times the widest bank
        # would
        big, ident, offset = self.guard_case()
        capture = ChannelCapture(self.CONFIG, interleave_channels(
            [np.concatenate((np.full(16, -(1 << 23)), np.ones(32)))
             .astype(np.int32) for _ in range(2)]))
        taps = self.stack(ident, ident, big)
        offsets = np.array([[offset, offset], [0.0, 0.0], [0.0, 0.0]])
        got = whole_sums(capture, self.WIDE, taps, offsets, 16)
        want = direct_fullrate(capture, taps, offsets, 16)
        d = self.WIDE.group_delay
        np.testing.assert_array_equal(interleave_channels(got)[d:],
                                      want[:len(want) - d])


class TestProcessArguments:
    """A calibration's taps and offsets are checked: a hand-built bank's
    when it is built (its channel count when calibrate_capture is
    called), and the chunk kernel's block length, bank count and word
    length when it runs."""

    SPEC = FilterSpec(n_taps=4, coeff_bits=8)
    CAPTURE = ChannelCapture(CFG12, np.zeros(16, dtype=np.int16))

    def calibrate(self, taps_fixed, offsets):
        """Build a bank and call calibrate_capture on a two-channel capture
        with it, without reading the iterator."""
        bank = FilterBank(spec=self.SPEC,
                          taps_real=np.zeros(np.shape(taps_fixed)),
                          taps_fixed=taps_fixed, offsets=offsets)
        calibrate_capture(self.CAPTURE, bank)

    def run(self, taps, offsets, block_len):
        """The chunk kernel over 8 samples of two channels."""
        return _chunk_sums(np.zeros((2, 8), dtype=np.int64), CFG12, self.SPEC,
                           0, 8, taps, offsets, 0, block_len)

    @pytest.mark.parametrize("taps_shape,offsets_shape", [
        ((2, 5), (2,)),          # N does not fit the spec
        ((3, 4), (3,)),          # M does not fit the capture
        ((4,), ()),              # one channel's taps
        ((2, 4), (3,)),          # offsets of another M
        ((2, 4), (1, 2)),        # one bank's taps, a stack's offsets
        ((2, 2, 4), (2,)),       # a stack's taps, one bank's offsets
        ((2, 2, 4), (3, 2)),     # stacks of different depths
        ((1, 1, 2, 4), (1, 1, 2)),
    ])
    def test_shapes_that_do_not_fit_raise(self, taps_shape, offsets_shape):
        with pytest.raises(ConfigError):
            self.calibrate(np.zeros(taps_shape, dtype=np.int64),
                           np.zeros(offsets_shape))

    def test_taps_must_be_integers(self):
        with pytest.raises(ConfigError, match="integers"):
            self.calibrate(np.zeros((2, 4)), np.zeros(2))

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_offsets_must_be_finite(self, offset):
        # a NaN offset once became the offset code INT64_MIN
        with pytest.raises(ConfigError, match="finite"):
            self.calibrate(np.zeros((2, 4), dtype=np.int64), (offset, 0.0))

    @pytest.mark.parametrize("offset", [3.0, 1e15, 1e30],
                             ids=["3", "1e15", "1e30"])
    def test_offset_codes_must_be_exact(self, offset):
        # a 1e30 offset's code once reached the int64 cast in a chunk
        # task: numpy's invalid-value warning, or INT64_MIN without it
        identity = FilterBank.identity(2, self.SPEC)
        bank = FilterBank(spec=self.SPEC, taps_real=identity.taps_real,
                          taps_fixed=identity.taps_fixed,
                          offsets=(offset, 0.0))
        if offset == 1e30:  # 2^101 codes at 12 bits: not below 2^62
            with pytest.raises(ConfigError, match="too large"):
                calibrate_capture(self.CAPTURE, bank)
            return
        pieces = calibrate_capture(self.CAPTURE, bank)
        if offset == 1e15:  # exact codes, but the guard's bound trips
            with pytest.raises(NumericError):
                list(pieces)
            return
        # output sample j corrects input sample j + 1: channel 1 first
        np.testing.assert_array_equal(np.concatenate(list(pieces)),
                                      np.tile([0.0, -3.0], 6))

    @pytest.mark.parametrize("field", ["taps_real", "taps_fixed"])
    def test_ragged_taps_raise(self, field):
        fields = {"taps_real": (np.zeros(4), np.zeros(4)),
                  "taps_fixed": (np.zeros(4, dtype=np.int64),) * 2}
        fields[field] = (fields[field][0], fields[field][1][:3])
        with pytest.raises(ConfigError):
            FilterBank(spec=self.SPEC, offsets=(0.0, 0.0), **fields)

    @pytest.mark.parametrize("block_len", [0, -3])
    def test_block_len_below_one_raises(self, block_len):
        # 0 once meant "the whole chunk", and -3 was reported as a bank
        # count that did not fit
        with pytest.raises(ConfigError,
                           match=f"^block_len must be >= 1, got {block_len}$"):
            self.run(np.zeros((1, 2, 4), dtype=np.int64), np.zeros((1, 2)),
                     block_len)

    @pytest.mark.parametrize("tap", [128, -129, 1 << 40],
                             ids=["128", "-129", "2^40"])
    def test_taps_outside_the_word_raise(self, tap):
        taps = np.zeros((2, 2, 4), dtype=np.int64)
        taps[1, 0, 1] = tap
        with pytest.raises(TapOverflowError):
            self.run(taps, np.zeros((2, 2)), 4)


class TestDesignBanks:
    def test_each_bank_is_its_one_profile_design(self):
        rng = np.random.default_rng(13)
        spec = FilterSpec(n_taps=31, coeff_bits=24, variant="div")
        profiles = [MismatchProfile(rng.uniform(-0.01, 0.01, 4),
                                    rng.uniform(-0.03, 0.03, 4),
                                    rng.uniform(-0.03, 0.03, 4))
                    for _ in range(6)]
        real, fixed = design_banks([p.gains for p in profiles],
                                   [p.skews for p in profiles], spec)
        assert real.shape == fixed.shape == (6, 4, 31)
        for r, f, profile in zip(real, fixed, profiles):
            one = FilterBank.design(profile, 4, spec)
            np.testing.assert_array_equal(r, one.taps_real)
            np.testing.assert_array_equal(f, one.taps_fixed)

    def test_channel_count_checked(self):
        with pytest.raises(ConfigError):
            FilterBank.design(MismatchProfile.zero(3), 2, SPEC30)
        with pytest.raises(ConfigError):
            design_banks([0.0, 0.0, 0.0], [0.0, 0.0], SPEC30)
        with pytest.raises(ConfigError):
            design_banks([0.0], [0.0], SPEC30)

    @pytest.mark.parametrize("field", ["gains", "skews"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       0.5, -0.5, 0.7],
                             ids=["nan", "+inf", "-inf", "0.5", "-0.5", "0.7"])
    def test_mismatches_outside_the_model_raise(self, field, value):
        arrays = {"gains": np.zeros((3, 2)), "skews": np.zeros((3, 2))}
        arrays[field][2, 1] = value
        with pytest.raises(ConfigError):
            design_banks(arrays["gains"], arrays["skews"], SPEC30)
