"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test states its criterion in the docstring and asserts the exact
numbers the release is gated on. Nothing here is tuned to pass; a red
test means the implementation genuinely does not meet that line.
"""

import math
import os
import struct

import numpy as np
import pytest

from tiadc_cal import (FilterSpec, MismatchProfile, TiadcConfig, ToneSpec,
                       convolve_serial, design_taps, parallel_convolve_stream,
                       read_capture, sample_channels, simulate_capture,
                       write_capture)
from tiadc_cal.capture_io import HEADER_SIZE
from tiadc_cal.cli import main as cli_main
from tiadc_cal.experiments import run_scenario, run_sweep
from tiadc_cal.metrics import worst_image_spur
from tiadc_cal.scenarios import coherent_freq, load_scenario
from tiadc_cal.sinefit import estimate_from_capture


def fmt_rows(rows):
    return "; ".join(f"{r.value:g}: {r.sinad_cal_db:.2f} dB" for r in rows)


def test_c01_two_channel_correction_reaches_target():
    """Two channels, 12 bits, low-band tone, gain+skew 1%: uncalibrated
    SINAD 45 +/- 2 dB, calibrated >= 66 dB, image spur down >= 20 dB."""
    result = run_scenario(load_scenario("fig6"))
    assert result.sinad_uncal_db == pytest.approx(45.0, abs=2.0), \
        f"uncalibrated SINAD {result.sinad_uncal_db:.2f} dB not in 45 +/- 2"
    assert result.sinad_cal_db >= 66.0, \
        f"calibrated SINAD {result.sinad_cal_db:.2f} dB < 66"
    worst = worst_image_spur(result.report_uncal.spurs)
    f = result.scenario.tone.freq_rel
    assert worst.freq_rel == pytest.approx(0.5 - f, abs=1e-9)
    reduction = result.largest_image_reduction_db()
    assert reduction >= 20.0, f"image spur reduction {reduction:.1f} dB < 20"


def test_c02_five_channel_correction_reaches_target():
    """Five channels with mixed 1-2% gain and skew errors: uncalibrated
    SINAD 36 +/- 2 dB, calibrated >= 66 dB."""
    result = run_scenario(load_scenario("fig7"))
    assert result.sinad_uncal_db == pytest.approx(36.0, abs=2.0), \
        f"uncalibrated SINAD {result.sinad_uncal_db:.2f} dB not in 36 +/- 2"
    assert result.sinad_cal_db >= 66.0, \
        f"calibrated SINAD {result.sinad_cal_db:.2f} dB < 66"


def test_c03_24_bit_coefficients_suffice_for_12_bit_data():
    """Coefficient word-length sweep: W=24 lands within 1 dB of W=30."""
    rows = run_sweep(load_scenario("fig9"), values=(24, 30))
    diff = abs(rows[0].sinad_cal_db - rows[1].sinad_cal_db)
    assert diff <= 1.0, \
        f"W=24 at {rows[0].sinad_cal_db:.2f} dB vs W=30 at " \
        f"{rows[1].sinad_cal_db:.2f} dB: {diff:.2f} dB apart"


def test_c04_tap_count_sweep_rises_to_plateau():
    """Tap-count sweep at 2% skew: calibrated SINAD non-decreasing up to a
    plateau, and N=30 within 1 dB of N=62."""
    rows = run_sweep(load_scenario("fig10"))
    cal = {int(r.value): r.sinad_cal_db for r in rows}
    values = [r.sinad_cal_db for r in rows]
    top = max(values)
    plateau_at = next(i for i, v in enumerate(values) if v >= top - 1.0)
    for i in range(plateau_at):
        assert values[i + 1] >= values[i] - 0.25, \
            f"SINAD drops before the plateau: {fmt_rows(rows)}"
    for v in values[plateau_at:]:
        assert v >= top - 1.0, \
            f"curve leaves the plateau after reaching it: {fmt_rows(rows)}"
    assert abs(cal[30] - cal[62]) <= 1.0, \
        f"N=30 at {cal[30]:.2f} dB vs N=62 at {cal[62]:.2f} dB: " \
        f"{abs(cal[30] - cal[62]):.2f} dB apart ({fmt_rows(rows)})"


def test_c05_wideband_spur_reduction():
    """Frequency sweep over {0.019, 0.133, 0.266, 0.399} of fs: the largest
    mismatch spur drops by >= 20 dB at every point."""
    rows = run_sweep(load_scenario("fig8"))
    failures = []
    for row in rows:
        reduction = row.worst_image_uncal_dbfs - row.worst_image_cal_dbfs
        if reduction < 20.0:
            failures.append(f"f={row.value:g}: {reduction:+.1f} dB")
    assert not failures, "spur reduction < 20 dB at " + ", ".join(failures)


def test_c06_correction_never_hurts_across_mismatch_sweeps():
    """Gain sweep at 0.46 fs and skew sweep at 0.19 fs: calibrated SINAD >=
    uncalibrated at every point with mismatch >= 1e-3."""
    for name in ("fig11", "fig12"):
        rows = run_sweep(load_scenario(name))
        scenario = load_scenario(name)
        for row in rows:
            if row.value < 1e-3:
                continue
            assert row.sinad_cal_db >= row.sinad_uncal_db, \
                f"{scenario.sweep_axis}={row.value:g}: calibration lowered " \
                f"SINAD {row.sinad_uncal_db:.2f} -> {row.sinad_cal_db:.2f} dB"


def test_c07_residual_image_scales_quadratically_without_quantization():
    """On unquantized data the corrected image amplitude scales as skew^2
    (log-log slope 2.0 +/- 0.15) while the uncorrected image scales as
    skew^1 (slope 1.0 +/- 0.05)."""
    n_fft = 65536
    freq = coherent_freq(0.19, n_fft)
    j = int(round(freq * n_fft))
    image_bin = n_fft // 2 - j
    n_total = 2 * n_fft
    config = TiadcConfig(n_channels=2, bits=12)  # bits unused: no quantizer
    tone = ToneSpec(amplitude=0.9, freq_rel=freq, phase=0.7)
    spec = FilterSpec(n_taps=16385)
    d = spec.group_delay

    def fft_convolve(values, taps):
        # float convolution trimmed like np.convolve(values, taps)[:len]
        n = len(values) + len(taps) - 1
        size = 1 << (n - 1).bit_length()
        prod = np.fft.rfft(values, size) * np.fft.rfft(taps, size)
        return np.fft.irfft(prod, size)[:len(values)]

    def image_amplitude(stream, start):
        window = stream[start:start + n_fft]
        return 2.0 * abs(np.fft.rfft(window)[image_bin]) / n_fft

    skews = (0.002, 0.004, 0.008, 0.016)
    amp_uncal, amp_cal = [], []
    for dt in skews:
        profile = MismatchProfile((0, 0), (0, 0), (0, dt))
        v0, v1 = sample_channels(tone, config, profile, n_total // 2)
        raw = np.empty(n_total)
        raw[0::2], raw[1::2] = v0, v1
        amp_uncal.append(image_amplitude(raw, 2 * d))
        y0 = np.concatenate([np.zeros(d), v0[:len(v0) - d]])
        y1 = fft_convolve(v1, design_taps(0.0, dt, 2, spec))
        cal = np.empty(n_total)
        cal[0::2], cal[1::2] = y0, y1
        amp_cal.append(image_amplitude(cal, 2 * d))

    slope_uncal = np.polyfit(np.log(skews), np.log(amp_uncal), 1)[0]
    slope_cal = np.polyfit(np.log(skews), np.log(amp_cal), 1)[0]
    assert slope_uncal == pytest.approx(1.0, abs=0.05), \
        f"uncalibrated image slope {slope_uncal:.3f} not 1.0 +/- 0.05"
    assert slope_cal == pytest.approx(2.0, abs=0.15), \
        f"calibrated image slope {slope_cal:.3f} not 2.0 +/- 0.15"


def test_c08_estimator_round_trip_over_seeded_phases():
    """Injected offset/gain/skew recovered within 5e-4 absolute at 12 bits
    and 1e-4 at 16 bits, across >= 100 seeded phases."""
    freq = 77 / 4096
    for bits, tol, n_cases in ((12, 5e-4, 100), (16, 1e-4, 100)):
        config = TiadcConfig(n_channels=2, bits=bits)
        worst = 0.0
        for case in range(n_cases):
            rng = np.random.default_rng(10_000 * bits + case)
            profile = MismatchProfile(
                offsets=(0.0, rng.uniform(-0.005, 0.005)),
                gains=(0.0, rng.uniform(-0.02, 0.02)),
                skews=(0.0, rng.uniform(-0.02, 0.02)))
            tone = ToneSpec(amplitude=0.9, freq_rel=freq,
                            phase=rng.uniform(-math.pi, math.pi))
            capture = simulate_capture(tone, config, profile, 16384)
            est = estimate_from_capture(capture, tone_freq_rel=freq)
            errs = (abs(est.offsets[1] - profile.offsets[1]),
                    abs(est.gains[1] - profile.gains[1]),
                    abs(est.skews[1] - profile.skews[1]))
            worst = max(worst, *errs)
        assert worst <= tol, \
            f"{bits}-bit worst estimate error {worst:.2e} exceeds {tol:.0e}"


def test_c09_parallel_convolution_is_bit_exact():
    """For lane counts 1, 2, 3, 4, 8 over random integer streams and taps,
    the polyphase path equals serial convolution exactly (>= 1000 cases)."""
    rng = np.random.default_rng(909)
    cases = 0
    for lanes in (1, 2, 3, 4, 8):
        for _ in range(200):
            n_codes = int(rng.integers(lanes, 200))
            n_taps = int(rng.integers(1, 41))
            codes = rng.integers(-(1 << 15), 1 << 15, size=n_codes, dtype=np.int64)
            taps = rng.integers(-(1 << 28), 1 << 28, size=n_taps, dtype=np.int64)
            got = parallel_convolve_stream(codes, taps, lanes)
            want = convolve_serial(codes, taps)
            assert np.array_equal(got, want), \
                f"lanes={lanes} n_codes={n_codes} n_taps={n_taps} mismatch"
            cases += 1
    assert cases >= 1000


def test_c10_zero_mismatch_invariance_and_ideal_floor():
    """Calibrating a mismatch-free capture moves SINAD by <= 0.1 dB, and an
    ideal coherent 12-bit sine measures 74.0 +/- 1.0 dB."""
    zero = run_scenario(load_scenario("zero"))
    delta = abs(zero.sinad_cal_db - zero.sinad_uncal_db)
    assert delta <= 0.1, f"zero-mismatch calibration moved SINAD {delta:.3f} dB"
    ideal = run_scenario(load_scenario("ideal"))
    assert ideal.sinad_uncal_db == pytest.approx(74.0, abs=1.0), \
        f"ideal 12-bit SINAD {ideal.sinad_uncal_db:.2f} dB not in 74 +/- 1"


def test_c11_capture_round_trip_and_malformed_rejection(tmp_path, capsys):
    """Capture files survive write-then-read byte-identically; malformed
    files make the CLI exit with code 3."""
    config = TiadcConfig(n_channels=2, bits=12)
    tone = ToneSpec(amplitude=0.9, freq_rel=77 / 4096, phase=0.3)
    capture = simulate_capture(tone, config, MismatchProfile.zero(2), 16384)
    first = tmp_path / "first.bin"
    second = tmp_path / "second.bin"
    write_capture(capture, first)
    write_capture(read_capture(first), second)
    assert first.read_bytes() == second.read_bytes()

    raw = first.read_bytes()
    bad_magic = bytearray(raw)
    bad_magic[0:4] = b"XXXX"
    bad_version = bytearray(raw)
    bad_version[4:6] = struct.pack("<H", 42)
    for i, payload in enumerate([bytes(bad_magic), bytes(bad_version),
                                 raw[:HEADER_SIZE - 4], raw[:HEADER_SIZE + 33]]):
        path = tmp_path / f"broken{i}.bin"
        path.write_bytes(payload)
        code = cli_main(["spectrum", str(path)])
        capsys.readouterr()
        assert code == 3, f"malformed file {i} exited {code}, want 3"
