"""calibrate_scenario runs the chunk kernel's products only for the window
it measures, the first n_fft calibrated samples, while every chunk after
it still reads its codes and every block's overflow bound is evaluated.
The window is the first n_fft samples of the whole stream replay()
yields, byte for byte, and a guard error, past the window or in one
bank's bound, is the one a pass over the whole stream raises."""

from dataclasses import replace

import numpy as np
import pytest

from tiadc_cal import (ChannelCapture, FilterBank, FilterSpec,
                       MismatchProfile, NumericError, TiadcConfig,
                       calibrate_capture, experiments, filterbank)
from tiadc_cal.experiments import (calibrate_scenario, run_scenario,
                                   simulate_scenario)
from tiadc_cal.filterbank import _chunk_sums
from tiadc_cal.metrics import spectrum_report
from tiadc_cal.model import _CHUNK
from tiadc_cal.scenarios import MODE_EST, MODE_TRUTH, load_scenario
from tiadc_cal.sinefit import EST_BLOCK_PER_CHANNEL


@pytest.mark.parametrize("mode", [MODE_TRUTH, MODE_EST])
@pytest.mark.parametrize("n_samples, n_fft", [
    (1 << 19, 1 << 18),  # the window crosses two chunk edges
    (20000, 4096),       # a capture shorter than one chunk
])
def test_the_window_is_the_start_of_replay(monkeypatch, mode, n_samples,
                                           n_fft):
    scenario = replace(load_scenario("fig6"), mode=mode, n_samples=n_samples,
                       n_fft=n_fft)
    calls = []
    monkeypatch.setattr(filterbank, "_chunk_sums",
                        lambda *args: calls.append(1) or _chunk_sums(*args))
    result = run_scenario(scenario)
    whole = np.concatenate(list(result.replay()))
    assert len(whole) > n_fft
    assert result.calibrated.tobytes() == whole[:n_fft].tobytes()
    config = scenario.config
    report = spectrum_report(whole[:n_fft], scenario.tone.freq_rel, n_fft,
                             config.n_channels, config.full_scale)
    assert result.sinad_cal_db == report.sinad_db
    # products for the chunks the window and the leading trim span, then
    # for every chunk of the replay
    M = config.n_channels
    chunks = -(-(n_samples // M) // _CHUNK)
    trim = scenario.filter_spec.group_delay * M
    assert len(calls) == -(-(n_fft + trim) // (_CHUNK * M)) + chunks


def test_a_guard_error_in_the_last_block_is_the_whole_streams(monkeypatch):
    # three chunks of 16 blocks each, and block 47, the last, runs block
    # 46's estimate, whose offset code on channel 1 is 2^40: only the last
    # chunk's sums read it, far past the 4 096-sample window
    scenario = replace(load_scenario("fig6"), mode=MODE_EST,
                       n_samples=2 * 3 * _CHUNK)
    config = scenario.config
    M = config.n_channels
    n_blocks = 3 * _CHUNK // EST_BLOCK_PER_CHANNEL
    rng = np.random.default_rng(11)
    offs = rng.uniform(-0.01, 0.01, (n_blocks, M))
    offs[-2, 1] = 2.0 ** 40 / config.code_half_range * config.full_scale
    estimates = (offs, rng.uniform(-0.01, 0.01, (n_blocks, M)),
                 rng.uniform(-0.01, 0.01, (n_blocks, M)))

    def estimate_batches(batches, config, tone_freq):
        assert sum(map(len, batches)) == n_blocks
        return estimates

    monkeypatch.setattr(experiments, "estimate_batches", estimate_batches)
    capture = simulate_scenario(scenario)
    freq = scenario.tone.freq_rel
    replay = experiments._calibrate_background(capture, scenario, freq)[0]
    pieces = replay()
    assert len(next(pieces)) > scenario.n_fft  # the window is clean
    with pytest.raises(NumericError) as whole:
        list(pieces)
    with pytest.raises(NumericError) as window:
        calibrate_scenario(capture, scenario, freq)
    assert type(window.value) is type(whole.value)
    assert str(window.value) == str(whole.value)
    assert str(whole.value).startswith("worst-case accumulator ")


def test_a_one_bank_guard_error_comes_before_any_piece(monkeypatch):
    # 24-bit codes at W = 32, and an offset code that takes the word's
    # bound, 2^23 plus that code, past 2^62 over the wide bank's largest
    # slot sum: one bank's bound is every chunk's, and chunk 0's kernel
    # raises it before any piece of a capture of several chunks
    spec = FilterSpec(n_taps=8, coeff_bits=32)
    config = TiadcConfig(n_channels=2, bits=24)
    shape = MismatchProfile((0, 0), (0, -0.4), (0, 0.4))
    worst = max(sum(int(np.abs(taps).sum()) for _, _, taps in terms)
                for terms in FilterBank.design(shape, 2, spec)
                .convolution_terms())
    offset = ((1 << 62) // worst + 1 - (1 << 23)) / (1 << 23)
    profile = MismatchProfile((offset, offset), shape.gains, shape.skews)
    capture = ChannelCapture(config, np.full(2 * (3 * _CHUNK + 100),
                                             -(1 << 23), dtype=np.int32))
    pieces = []
    with pytest.raises(NumericError) as whole:
        for piece in calibrate_capture(capture,
                                       FilterBank.design(profile, 2, spec)):
            pieces.append(piece)
    assert pieces == []
    calls = []
    monkeypatch.setattr(filterbank, "_chunk_sums", lambda *args: (
        calls.append(args[3]) or _chunk_sums(*args)))
    scenario = replace(load_scenario("fig6"), config=config, profile=profile,
                       filter_spec=spec, n_samples=len(capture.interleaved))
    with pytest.raises(NumericError) as window:
        calibrate_scenario(capture, scenario)
    assert calls == [0]  # raised in chunk 0's kernel, before its piece
    assert type(window.value) is type(whole.value)
    assert str(window.value) == str(whole.value)
    assert str(whole.value).startswith("worst-case accumulator ")
