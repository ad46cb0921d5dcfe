import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tiadc_cal import (ChannelCapture, ConfigError, DegenerateFitError,
                       FilterBank, MismatchProfile, cli, experiments,
                       filterbank)
from tiadc_cal.capture_io import write_capture
from tiadc_cal.experiments import (calibrate_scenario, run_scenario, run_sweep,
                                   simulate_scenario)
from tiadc_cal.filterbank import _chunk_sums, calibrate_capture
from tiadc_cal.metrics import spectrum_report
from tiadc_cal.scenarios import (BUILTIN_SCENARIOS, MODE_EST, MODE_TRUTH,
                                 build_scenario, load_scenario,
                                 scenario_settings)
from tiadc_cal.model import _CHUNK, dequantize_stream, interleave_channels
from tiadc_cal.sinefit import (EST_BLOCK_PER_CHANNEL, _fit_rows,
                               alias_to_subrate, detect_tone_freq,
                               estimate_blocks, estimate_from_capture)


def background_stream(capture, scenario, tone_freq=None):
    """Read experiments._calibrate_background to its end: (the whole
    calibrated stream, the last bank, the last estimate)."""
    replay, bank, estimate = experiments._calibrate_background(
        capture, scenario, tone_freq)
    return np.concatenate(list(replay())), bank, estimate


def assert_same_bank(a, b):
    assert a.spec == b.spec and a.offsets == b.offsets
    for x, y in zip(a.taps_fixed + a.taps_real, b.taps_fixed + b.taps_real):
        np.testing.assert_array_equal(x, y)


class TestRunScenario:
    def test_two_channel_truth_mode(self):
        result = run_scenario(load_scenario("fig6"))
        assert 43.0 <= result.sinad_uncal_db <= 47.0
        assert result.sinad_cal_db >= 66.0
        assert result.largest_image_reduction_db() >= 20.0
        assert result.estimate is None

    def test_estimated_mode_tracks_truth(self):
        base = load_scenario("fig6")
        truth = run_scenario(base)
        est = run_scenario(replace(base, mode=MODE_EST))
        assert est.estimate is not None
        assert est.estimate.skews[1] == pytest.approx(0.01, abs=5e-4)
        assert abs(est.sinad_cal_db - truth.sinad_cal_db) <= 1.0

    def test_estimated_mode_runs_one_block(self):
        # one block per channel, which runs its own estimate
        truth = replace(load_scenario("fig6"), n_samples=8192)
        capture = simulate_scenario(truth)
        est = calibrate_scenario(capture, replace(truth, mode=MODE_EST))
        assert est.estimate == estimate_from_capture(capture)
        truth_db = calibrate_scenario(capture, truth).sinad_cal_db
        assert abs(est.sinad_cal_db - truth_db) <= 1.0

    def test_capture_shorter_than_one_block(self):
        # 1000 samples per channel: one short block, estimated from all
        # its samples
        scenario = build_scenario(dict(scenario_settings(load_scenario(
            "fig6")), n_samples=2000, n_fft=1024, freq=0.019, coherent=True,
            mode=MODE_EST))
        capture = simulate_scenario(scenario)
        est = calibrate_scenario(capture, scenario)
        assert est.estimate == estimate_from_capture(capture)
        d = scenario.filter_spec.group_delay
        assert len(np.concatenate(list(est.replay()))) == (1000 - 2 * d) * 2
        truth = calibrate_scenario(capture, replace(scenario, mode=MODE_TRUTH))
        assert est.sinad_cal_db >= 66.0
        assert abs(est.sinad_cal_db - truth.sinad_cal_db) <= 1.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_builtin_runs_in_estimated_mode(self, name):
        # fig7 at its own 4096 samples per channel too; C08's tolerance
        truth = load_scenario(name)
        est = run_scenario(replace(truth, mode=MODE_EST))
        assert abs(est.sinad_cal_db - run_scenario(truth).sinad_cal_db) <= 1.0
        for what in ("offsets", "gains", "skews"):
            np.testing.assert_allclose(getattr(est.estimate, what),
                                       getattr(truth.profile, what),
                                       rtol=0, atol=5e-4)

    def test_deterministic_repeat(self):
        a = run_scenario(load_scenario("fig6"))
        b = run_scenario(load_scenario("fig6"))
        assert a.sinad_cal_db == b.sinad_cal_db
        assert a.sinad_uncal_db == b.sinad_uncal_db

    def test_output_files(self, tmp_path):
        import os
        result = run_scenario(load_scenario("fig6"), out_dir=str(tmp_path))
        assert set(result.outputs) == {"spectrum_uncal", "spectrum_cal",
                                       "summary", "coefficients"}
        for path in result.outputs.values():
            assert os.path.exists(path)
        summary = (tmp_path / "fig6_summary.csv").read_text().splitlines()
        assert summary[0].startswith("name,mode,freq_rel")
        fields = summary[1].split(",")
        assert fields[0] == "fig6"
        assert float(fields[4]) >= 66.0
        coeff_lines = (tmp_path / "fig6_coefficients.csv").read_text().splitlines()
        assert len(coeff_lines) == 1 + 2 * 30

    def test_result_carries_bank_and_stream(self):
        scenario = load_scenario("fig6")
        M, spec = scenario.config.n_channels, scenario.filter_spec
        config, n_fft = scenario.config, scenario.n_fft
        truth = run_scenario(scenario)
        assert_same_bank(truth.bank,
                         FilterBank.design(scenario.profile, M, spec))
        stream = np.concatenate(list(calibrate_capture(
            simulate_scenario(scenario), truth.bank)))
        trim = 2 * spec.group_delay * M
        assert len(stream) == scenario.n_samples - trim
        # the result keeps exactly the window it measured
        np.testing.assert_array_equal(truth.calibrated, stream[:n_fft])
        again = spectrum_report(truth.calibrated, scenario.tone.freq_rel,
                                n_fft, M, config.full_scale)
        np.testing.assert_array_equal(again.magnitudes_dbfs,
                                      truth.report_cal.magnitudes_dbfs)
        assert replace(again, magnitudes_dbfs=None) == replace(
            truth.report_cal, magnitudes_dbfs=None)
        est = run_scenario(replace(scenario, mode=MODE_EST))
        assert_same_bank(est.bank,
                         FilterBank.design(est.estimate, M, spec))
        worst, after = truth.worst_image()
        assert worst.kind == "image"
        assert truth.largest_image_reduction_db() == worst.level_dbfs - after

    def test_channel_count_must_match_capture(self):
        capture = simulate_scenario(load_scenario("fig7"))
        with pytest.raises(ConfigError, match="channels"):
            calibrate_scenario(capture, load_scenario("fig6"))

    def test_simulate_scenario_shape(self):
        capture = simulate_scenario(load_scenario("fig7"))
        assert capture.config.n_channels == 5
        assert len(capture.interleaved) == 20480


class TestShortFinalBlock:
    """Estimated mode on captures whose last block is shorter than
    EST_BLOCK_PER_CHANNEL: it is corrected, with the last full block's
    estimate, but not estimated from; the stream loses D*M samples at each
    end, as in truth mode."""

    n_full = 65536

    @pytest.fixture(scope="class")
    def longest(self):
        scenario = replace(load_scenario("fig6"), mode=MODE_EST,
                           n_samples=2 * (self.n_full + 4095))
        return scenario, simulate_scenario(scenario)

    def shortened(self, longest, n):
        scenario, capture = longest
        M = scenario.config.n_channels
        short = ChannelCapture(capture.config, capture.interleaved[:n * M])
        return short, replace(scenario, n_samples=n * M)

    @pytest.mark.parametrize("t", [0, 1, 2047, 4095])
    def test_length_and_prefix(self, longest, t):
        scenario, _ = longest
        M, d = scenario.config.n_channels, scenario.filter_spec.group_delay
        n = self.n_full + t
        stream, _, _ = background_stream(*self.shortened(longest, n))
        assert len(stream) == (n - 2 * d) * M
        whole, _, _ = background_stream(*self.shortened(longest, self.n_full))
        np.testing.assert_array_equal(stream[:len(whole)], whole)
        result = calibrate_scenario(*self.shortened(longest, n))
        assert result.sinad_cal_db >= 66.0


class TestEstimationErrors:
    """Est mode estimates every block before any chunk runs, and an
    estimation error names the block by its index in the capture."""

    @pytest.fixture
    def constant_block(self):
        # 40 blocks, fitted 16 at a time: block 20 is row 4 of its batch
        scenario = replace(load_scenario("fig6"), mode=MODE_EST,
                           n_samples=2 * 40 * EST_BLOCK_PER_CHANNEL)
        # a capture's own codes are read-only: the fault goes into a copy
        codes = simulate_scenario(scenario).interleaved.copy()
        codes[2 * 20 * EST_BLOCK_PER_CHANNEL + 1:
              2 * 21 * EST_BLOCK_PER_CHANNEL:2] = 17
        return scenario, ChannelCapture(scenario.config, codes)

    def test_error_names_the_capture_block(self, constant_block):
        scenario, capture = constant_block
        with pytest.raises(DegenerateFitError) as err:
            calibrate_scenario(capture, scenario)
        assert str(err.value) == ("block 20 channel 1 is constant and has "
                                  "no sine component")

    def test_raised_when_called_before_any_chunk(self, constant_block,
                                                 monkeypatch):
        scenario, capture = constant_block
        calls = []
        monkeypatch.setattr(filterbank, "_chunk_sums",
                            lambda *args: calls.append(1) or _chunk_sums(*args))
        with pytest.raises(DegenerateFitError, match="block 20 channel 1"):
            experiments._calibrate_background(capture, scenario)
        assert calls == []


class TestRunSweep:
    def test_rows_follow_values(self, tmp_path):
        scenario = load_scenario("fig12")
        rows = run_sweep(scenario, values=(0.005, 0.02), out_dir=str(tmp_path))
        assert [r.value for r in rows] == [0.005, 0.02]
        assert all(r.sinad_cal_db >= r.sinad_uncal_db for r in rows)
        lines = (tmp_path / "fig12_sweep_skew.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "skew"
        assert len(lines) == 3

    def test_sinad_values_are_python_floats(self):
        scenario = load_scenario("fig12")
        result = run_scenario(scenario)
        assert type(result.sinad_uncal_db) is float
        assert type(result.sinad_cal_db) is float
        row, = run_sweep(scenario, values=(0.005,))
        assert type(row.sinad_uncal_db) is float
        assert type(row.sinad_cal_db) is float

    def test_defaults_to_scenario_sweep(self):
        rows = run_sweep(load_scenario("fig8"))
        assert len(rows) == 4

    def test_missing_axis_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(load_scenario("fig6"))

    @pytest.mark.parametrize("name, mode, simulations", [
        ("fig9", "truth", 1), ("fig10", "truth", 1), ("fig9", MODE_EST, 1),
        ("fig8", "truth", 3), ("fig11", "truth", 3)])
    def test_simulates_each_distinct_capture_once(self, monkeypatch, name,
                                                  mode, simulations):
        # the coeff_bits and n_taps axes leave the capture unchanged
        scenario = replace(load_scenario(name), mode=mode)
        axis, values = scenario.sweep_axis, scenario.sweep_values[:3]
        one_by_one = [run_sweep(scenario, axis, [v])[0] for v in values]
        calls = []
        real = experiments.simulate_capture
        monkeypatch.setattr(experiments, "simulate_capture",
                            lambda *args: calls.append(args) or real(*args))
        assert run_sweep(scenario, axis, values) == one_by_one
        assert len(calls) == simulations


def background_by_block(capture, scenario):
    """Reference for the background loop: one single-block estimate_blocks
    and one FilterBank.design per block, then one chunk kernel call over
    the whole capture with every block's bank. Returns the calibrated
    stream, the last bank and every block's estimate as (B, M) arrays
    (offsets, gains, skews)."""
    config, spec = capture.config, scenario.filter_spec
    M, block = config.n_channels, EST_BLOCK_PER_CHANNEL
    n = capture.n_per_channel
    tone_freq = detect_tone_freq(capture)
    banks, estimates = [], []
    for start in range(0, n - block + 1, block):
        blocks = capture.per_channel[:, start:start + block]
        estimates.append([v[0] for v in estimate_blocks(
            blocks[None], config, tone_freq)])
        banks.append(FilterBank.design(MismatchProfile(*estimates[-1]), M,
                                       spec))
    # one bank per block, block 0 under its own estimate's: a final full
    # block's estimate applies to none
    banks = banks[:1] + banks
    n_blocks = -(-n // block)
    acc = _chunk_sums(capture.per_channel, config, spec, 0, n,
                      np.array([b.taps_fixed for b in banks[:n_blocks]]),
                      np.array([b.offsets for b in banks[:n_blocks]]), 0,
                      block)
    out = interleave_channels(acc) * (2.0 ** -(spec.coeff_bits - 2)
                                      * config.lsb)
    offsets, gains, skews = np.array(estimates).swapaxes(0, 1)
    trim = spec.group_delay * M
    return out[trim:n * M - trim], banks[-1], (offsets, gains, skews)


class TestBackgroundSteps:
    """The chunked background loop against the block-by-block reference,
    on a capture whose blocks all differ: simulated fig7 codes plus seeded
    +/-1 LSB dither, over two whole chunks, one more full block and a
    short block."""

    @pytest.fixture(scope="class")
    def dithered(self):
        n_per_channel = 2 * 65536 + EST_BLOCK_PER_CHANNEL + 1000
        scenario = replace(load_scenario("fig7"), mode=MODE_EST,
                           n_samples=5 * n_per_channel)
        clean = simulate_scenario(scenario)
        half = clean.config.code_half_range
        rng = np.random.default_rng(2024)
        codes = np.clip(clean.interleaved + rng.integers(-1, 2, len(clean.interleaved)),
                        -half, half - 1)
        capture = ChannelCapture(clean.config, codes)
        return scenario, capture

    def test_stream_bit_identical(self, dithered):
        scenario, capture = dithered
        got, bank, estimate = background_stream(capture, scenario)
        want, want_bank, (offsets, gains, skews) = background_by_block(
            capture, scenario)
        assert gains.shape == (2 * 16 + 1, 5)
        assert len(np.unique(gains, axis=0)) == len(gains)
        np.testing.assert_array_equal(got, want)
        assert_same_bank(bank, want_bank)
        # the last chunk holds one full block, so its estimate is the same
        # one-block solve as the reference's
        assert estimate == MismatchProfile(offsets[-1], gains[-1], skews[-1])

    def test_block_estimates_within_a_few_ulps(self, dithered):
        scenario, capture = dithered
        block, M = EST_BLOCK_PER_CHANNEL, 5
        n_full = capture.n_per_channel // block
        blocks = np.stack([c[:n_full * block].reshape(n_full, block)
                           for c in capture.per_channel], axis=1)
        f_sub, _ = alias_to_subrate(detect_tone_freq(capture), M)
        codes = dequantize_stream(blocks, capture.config)
        batched = _fit_rows(codes, f_sub)
        assert batched[0].shape == (n_full, M)
        one = np.concatenate([_fit_rows(codes[b:b + 1], f_sub)
                              for b in range(n_full)], axis=1)
        assert_close_fits(batched, one)

    @staticmethod
    def run_cli(scenario, capture, tmp_path, capsys, *flags):
        """calibrate --mode est on the capture written to a file, with the
        scenario's filter: (exit code, stdout)."""
        path = tmp_path / "dithered_capture.bin"
        write_capture(capture, str(path))
        spec = scenario.filter_spec
        code = cli.main(["calibrate", str(path), "--mode", "est",
                         "--taps", str(spec.n_taps),
                         "--coeff-bits", str(spec.coeff_bits),
                         "--variant", spec.variant, *flags])
        return code, capsys.readouterr().out

    def test_cli_writes_the_library_stream(self, dithered, tmp_path, capsys):
        scenario, capture = dithered
        code, _ = self.run_cli(scenario, capture, tmp_path, capsys,
                               "--out", str(tmp_path))
        assert code == 0
        want, _, _ = background_stream(capture, scenario)
        lines = (tmp_path / "dithered_capture_calibrated.csv").read_text(
        ).splitlines()
        assert lines[0] == "index,value"
        assert lines[1:] == [f"{i},{v:.12g}" for i, v in enumerate(want)]

    def test_cli_freq_reaches_the_estimator(self, dithered, tmp_path, capsys,
                                            monkeypatch):
        scenario, capture = dithered
        block, M = EST_BLOCK_PER_CHANNEL, 5
        n_full = capture.n_per_channel // block
        blocks = capture.per_channel[:, :n_full * block].reshape(
            M, n_full, block).swapaxes(0, 1)

        def last_estimate(freq):
            return MismatchProfile(*(v[-1] for v in estimate_blocks(
                blocks, capture.config, freq)))

        # off the detected tone, but within the spectrum's coherence check
        freq = float(detect_tone_freq(capture)) * (1 + 1e-9)
        assert last_estimate(freq) != last_estimate(detect_tone_freq(capture))

        def no_detection(capture):
            raise AssertionError("the tone was detected")

        monkeypatch.setattr(cli, "detect_tone_freq", no_detection)
        monkeypatch.setattr(experiments, "detect_tone_freq", no_detection)
        results = []
        real = cli.calibrate_scenario
        monkeypatch.setattr(cli, "calibrate_scenario", lambda *args: (
            results.append(real(*args)) or results[-1]))
        code, out = self.run_cli(scenario, capture, tmp_path, capsys,
                                 f"--freq={freq!r}")
        assert code == 0
        assert out.startswith(f"tone freq_rel = {freq:.10g} (est ")
        assert results[0].estimate == last_estimate(freq)


def assert_close_fits(a, b, ulps=16):
    """Fits, (amplitude, phase, dc) arrays of one shape, equal to a few
    units in the last place of the scale each parameter is computed at:
    the amplitude itself, pi for the phase and the amplitude for the dc.
    The batched and the one-block products sum the same 4096 terms per
    parameter, but BLAS may block the sums differently."""
    eps = ulps * np.finfo(float).eps
    (amp_a, phase_a, dc_a), (amp_b, phase_b, dc_b) = a, b
    assert amp_a.shape == amp_b.shape
    assert np.all(np.abs(amp_a - amp_b) <= eps * amp_b)
    assert np.all(np.abs(phase_a - phase_b) <= eps * np.pi)
    assert np.all(np.abs(dc_a - dc_b) <= eps * amp_b)


def test_estimation_blocks_tile_a_chunk():
    # the background loop's chunks must hold whole estimation blocks
    assert _CHUNK % EST_BLOCK_PER_CHANNEL == 0


class TestStreamedOutput:
    """calibrate_scenario reads the calibrated stream a chunk at a time:
    its memory does not grow with the capture, and every chunk of the
    capture still runs through the chunk kernel and its overflow guard."""

    @pytest.fixture(scope="class")
    def fig6_4m(self):
        scenario = replace(load_scenario("fig6"), n_samples=1 << 22)
        return scenario, simulate_scenario(scenario)

    def test_peak_memory_independent_of_length(self, fig6_4m):
        scenario, capture = fig6_4m
        calibrate_scenario(capture, scenario)  # first-call caches
        peaks = []
        tracemalloc.start()
        try:
            for n in (1 << 20, 1 << 22):
                short = ChannelCapture(capture.config, capture.interleaved[:n])
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                calibrate_scenario(short, replace(scenario, n_samples=n))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # the whole float64 stream would add 3 * 2^20 * 8 bytes = 24 MiB
        assert peaks[1] - peaks[0] <= 2 << 20

    @pytest.mark.parametrize("mode", ["truth", MODE_EST])
    def test_every_chunk_runs_through_the_calibrator(self, monkeypatch, mode):
        n_per_channel = 3 * _CHUNK + 100
        scenario = replace(load_scenario("fig6"), mode=mode,
                           n_samples=2 * n_per_channel)
        capture = simulate_scenario(scenario)
        calls = []
        monkeypatch.setattr(filterbank, "_chunk_sums",
                            lambda *args: calls.append(1) or _chunk_sums(*args))
        calibrate_scenario(capture, scenario)
        assert len(calls) == -(-n_per_channel // _CHUNK)
