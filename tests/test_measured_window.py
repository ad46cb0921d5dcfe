"""calibrate_scenario runs the chunk kernel's products only for the window
it measures, the first n_fft calibrated samples, while every chunk after
it still reads its codes and runs the kernel's overflow bound. The window
is the first n_fft samples of the whole stream replay() yields, byte for
byte, and a guard error past the window is the one a pass over the whole
stream raises."""

from dataclasses import replace

import numpy as np
import pytest

from tiadc_cal import NumericError, experiments, filterbank
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
