import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (CoherenceError, ConfigError, MismatchProfile, ShapeError,
                       TiadcConfig, ToneSpec, dequantize_stream, enob,
                       fold_frequency, power_spectrum, simulate_capture, sinad,
                       spectrum_report, spur_levels, worst_image_spur)
from tiadc_cal.metrics import write_spectrum_csv

N_FFT = 4096
F77 = 77 / N_FFT


def coherent_sine(amplitude, freq_rel, phase=0.0, n=N_FFT):
    return amplitude * np.sin(2 * np.pi * freq_rel * np.arange(n) + phase)


class TestPowerSpectrum:
    def test_full_scale_sine_peaks_at_zero_dbfs(self):
        spec = power_spectrum(coherent_sine(1.0, F77, 0.3), N_FFT)
        assert abs(spec[77]) <= 0.01
        assert spec[77] == spec.max()

    def test_all_zero_floors(self):
        spec = power_spectrum(np.zeros(N_FFT), N_FFT)
        assert np.all(spec == -300.0)

    def test_half_scale_sine_minus_six_db(self):
        spec = power_spectrum(coherent_sine(0.5, F77), N_FFT)
        assert spec[77] == pytest.approx(20 * np.log10(0.5), abs=0.01)

    def test_stream_too_short(self):
        with pytest.raises(ShapeError):
            power_spectrum(np.zeros(100), N_FFT)

    def test_n_fft_power_of_two_required(self):
        with pytest.raises(ConfigError):
            power_spectrum(np.zeros(5000), 5000)

    def test_mismatch_makes_image_visible(self):
        tone = ToneSpec(amplitude=0.9, freq_rel=F77, phase=0.7)
        cfg = TiadcConfig(n_channels=2, bits=12)
        profile = MismatchProfile((0, 0), (0, 0.01), (0, 0.01))
        cap = simulate_capture(tone, cfg, profile, 2 * N_FFT)
        spec = power_spectrum(dequantize_stream(cap.interleaved, cfg), N_FFT)
        image_bin = round((0.5 - F77) * N_FFT)
        assert spec[image_bin] > -60.0  # far above the -100 dBFS noise floor

    def test_parseval(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=N_FFT)
        spec_db = power_spectrum(x, N_FFT)
        amps = 10 ** (spec_db / 20)
        # one-sided amplitudes: middle bins carry half their squared
        # amplitude on each side of the spectrum
        power = N_FFT * (amps[0] ** 2 + amps[-1] ** 2
                         + 0.5 * np.sum(amps[1:-1] ** 2))
        assert power == pytest.approx(np.sum(x ** 2), rel=1e-9)


class TestSinad:
    def test_two_tone_ratio_known_exactly(self):
        x = coherent_sine(0.9, F77, 0.2) + 0.0009 * coherent_sine(1.0, 500 / N_FFT, 1.0)
        expected = 20 * np.log10(0.9 / 0.0009)
        assert sinad(x, F77, N_FFT) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("window", ["rect", "bh4"])
    def test_nyquist_spur_weighted_by_its_power(self, window):
        # a tone at fs/2 has power B^2, half that of an interior tone of
        # the same amplitude: the M=2 offset spur falls exactly there
        a, b = 0.9, 0.0142
        x = coherent_sine(a, F77, 0.4) + b * (-1.0) ** np.arange(N_FFT)
        expected = 10 * np.log10((a ** 2 / 2) / b ** 2)
        assert sinad(x, F77, N_FFT, window=window) == pytest.approx(
            expected, abs=0.01)

    def test_non_coherent_raises(self):
        x = coherent_sine(0.9, 0.12341)
        with pytest.raises(CoherenceError):
            sinad(x, 0.12341, N_FFT)

    def test_windowed_mode_handles_non_coherent(self):
        # a 12-bit quantized tone at 0.9 FS and 0.12341 (non-coherent)
        # measures its quantization noise: 6.02*12 + 1.76 + 20 log10 0.9 =
        # 73.08 dB. Over 60 phases of this tone the reading spans 72.76 to
        # 73.10 dB (standard deviation 0.09 dB); 0.5 dB holds that with
        # margin, and a main lobe cut to +/- 3 bins reads 58.3 dB
        x = np.round(coherent_sine(0.9, 0.12341, 0.3) * 2048).clip(-2048, 2047) / 2048
        val = sinad(x, 0.12341, N_FFT, window="bh4")
        assert val == pytest.approx(6.02 * 12 + 1.76 + 20 * np.log10(0.9),
                                    abs=0.5)

    def test_scale_invariance(self):
        x = coherent_sine(0.4, F77, 0.9) + 0.001 * coherent_sine(1.0, 0.25, 0.1)
        assert abs(sinad(3.7 * x, F77, N_FFT) - sinad(x, F77, N_FFT)) < 1e-9

    def test_added_spur_strictly_decreases_sinad(self):
        base = coherent_sine(0.9, F77, 0.5)
        noise = np.random.default_rng(3).normal(scale=1e-4, size=N_FFT)
        values = []
        for amp in (0.0, 1e-4, 3e-4, 1e-3, 3e-3):
            x = base + noise + coherent_sine(amp if amp else 0.0, 901 / N_FFT)
            values.append(sinad(x, F77, N_FFT))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dc_excluded_from_noise(self):
        x = coherent_sine(0.9, F77) + 0.5  # huge dc must not count as noise
        clean = coherent_sine(0.9, F77)
        assert sinad(x, F77, N_FFT) == pytest.approx(sinad(clean, F77, N_FFT),
                                                     abs=1e-9)

    def test_enob_formula(self):
        assert enob(74.0) == pytest.approx((74.0 - 1.76) / 6.02)

    @pytest.mark.parametrize("freq", [float("nan"), float("inf"),
                                      float("-inf"), 1e308])
    def test_non_finite_signal_bin_rejected(self, freq):
        x = coherent_sine(0.5, F77)
        with pytest.raises(ConfigError, match="not finite"):
            sinad(x, freq, N_FFT)
        with pytest.raises(ConfigError, match="not finite"):
            spectrum_report(x, freq, N_FFT, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_sample_is_rejected(self, bad):
        x = coherent_sine(0.5, F77)
        x[5] = bad
        match = rf"^sample 5 is not finite: {bad}$"
        with pytest.raises(ConfigError, match=match):
            sinad(x, F77, N_FFT)
        with pytest.raises(ConfigError, match=match):
            power_spectrum(x, N_FFT)

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigError):
            sinad(coherent_sine(0.9, F77), F77, N_FFT, window="hann")


def time_domain_sinad(x, k):
    """10*log10(sum s^2 / sum (x - mean - s)^2), s the projection of x onto
    the sine and cosine of bin k: no transform and no bin weights."""
    n = len(x)
    arg = 2 * np.pi * k * np.arange(n) / n
    s = sum(2 / n * (x @ b) * b for b in (np.sin(arg), np.cos(arg)))
    return 10 * np.log10(np.sum(s ** 2) / np.sum((x - x.mean() - s) ** 2))


@st.composite
def coherent_records(draw):
    """(x, k, n): a tone in bin k of n = 2^3..2^12 samples, with dc,
    Gaussian noise and a (-1)^n term in the Nyquist bin."""
    n = 1 << draw(st.integers(3, 12))
    k = draw(st.integers(1, n // 2 - 1))
    amplitude = draw(st.floats(1e-3, 10.0))
    phase = draw(st.floats(-np.pi, np.pi))
    dc, nyquist = (amplitude * draw(st.floats(-1.0, 1.0)) for _ in range(2))
    noise = amplitude * draw(st.floats(1e-3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.arange(n)
    x = (dc + amplitude * np.sin(2 * np.pi * k * t / n + phase)
         + nyquist * (-1.0) ** t + rng.normal(scale=noise, size=n))
    return x, k, n


@given(coherent_records())
@settings(max_examples=200, deadline=None)
def test_sinad_equals_time_domain_definition(record):
    x, k, n = record
    assert sinad(x, k / n, n) == pytest.approx(time_domain_sinad(x, k),
                                               abs=1e-8)


class TestSpurLevels:
    def test_two_channel_low_tone(self):
        spec = power_spectrum(coherent_sine(0.9, F77), N_FFT)
        spurs = spur_levels(spec, 2, F77)
        freqs = {s.kind: s.freq_rel for s in spurs}
        assert freqs["image"] == pytest.approx(0.5 - F77)
        assert freqs["offset"] == pytest.approx(0.5)
        assert len(spurs) == 2  # the two image aliases fold onto one bin

    def test_two_channel_high_tone_images_low(self):
        f = 1885 / N_FFT  # about 0.46
        spec = power_spectrum(coherent_sine(0.9, f), N_FFT)
        spurs = spur_levels(spec, 2, f)
        image = [s for s in spurs if s.kind == "image"][0]
        assert image.freq_rel == pytest.approx(0.5 - f)
        assert image.freq_rel == pytest.approx(0.039795, abs=1e-6)

    def test_five_channel_images(self):
        spec = power_spectrum(coherent_sine(0.9, F77), N_FFT)
        spurs = spur_levels(spec, 5, F77)
        images = sorted(s.freq_rel for s in spurs if s.kind == "image")
        want = sorted([0.2 - F77, 0.2 + F77, 0.4 - F77, 0.4 + F77])
        np.testing.assert_allclose(images, want, atol=1e-12)
        offsets = sorted(s.freq_rel for s in spurs if s.kind == "offset")
        np.testing.assert_allclose(offsets, [0.2, 0.4], atol=1e-12)

    def test_collision_flagged(self):
        f = 1024 / N_FFT  # exactly 0.25: its image lands on itself
        spec = power_spectrum(coherent_sine(0.9, f), N_FFT)
        spurs = spur_levels(spec, 2, f)
        image = [s for s in spurs if s.kind == "image"][0]
        assert image.collides_with_signal

    def test_worst_image_prefers_non_colliding(self):
        spec = power_spectrum(coherent_sine(0.9, F77), N_FFT)
        spurs = spur_levels(spec, 5, F77)
        worst = worst_image_spur(spurs)
        assert worst.kind == "image"
        assert worst.level_dbfs == max(s.level_dbfs for s in spurs
                                       if s.kind == "image")

    def test_fold(self):
        assert fold_frequency(0.7) == pytest.approx(0.3)
        assert fold_frequency(1.2) == pytest.approx(0.2)
        assert fold_frequency(0.481) == pytest.approx(0.481)


class TestReportAndCsv:
    def test_report_bundles(self):
        x = coherent_sine(0.9, F77, 0.1)
        rep = spectrum_report(x, F77, N_FFT, 2)
        assert rep.signal_bin == 77
        assert rep.n_fft == N_FFT
        assert rep.sinad_db > 200  # noiseless float sine: near-infinite
        assert len(rep.spurs) == 2

    @pytest.mark.parametrize("window", ["rect", "bh4"])
    def test_sinad_and_enob_are_python_floats(self, window):
        x = coherent_sine(0.9, F77, 0.1)
        x = x + np.random.default_rng(3).normal(scale=1e-3, size=N_FFT)
        rep = spectrum_report(x, F77, N_FFT, 2, window=window)
        assert type(sinad(x, F77, N_FFT, window=window)) is float
        assert type(rep.sinad_db) is float and type(rep.enob) is float

    def test_csv_layout(self, tmp_path):
        spec = power_spectrum(coherent_sine(1.0, 4 / 64, 0.0, n=64), 64)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_index,freq_rel,magnitude_dbfs"
        assert len(lines) == 1 + 33  # header + n_fft/2 + 1 bins
        bin4 = lines[5].split(",")
        assert bin4[0] == "4"
        assert float(bin4[1]) == pytest.approx(4 / 64)
        assert float(bin4[2]) == pytest.approx(0.0, abs=0.01)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_sinad_matches_manual_power_sum(self, seed):
        rng = np.random.default_rng(seed)
        x = coherent_sine(0.8, F77, rng.uniform(-np.pi, np.pi))
        x = x + rng.normal(scale=1e-3, size=N_FFT)
        spec = np.abs(np.fft.rfft(x[:N_FFT])) ** 2
        spec[N_FFT // 2] /= 2  # the Nyquist bin has no negative twin
        want = 10 * np.log10(spec[77] / (spec[1:].sum() - spec[77]))
        assert sinad(x, F77, N_FFT) == pytest.approx(want, abs=1e-12)
