"""Scenario execution: simulate, calibrate (truth or background-estimated
coefficients), measure, and export CSV results.

calibrate_scenario is the one calibrate-and-measure step; run_scenario
feeds it a simulated capture, the CLI's calibrate command a capture file.

Truth mode designs the correctors straight from the scenario's mismatch
profile, which isolates the corrector itself; this is the mode the headline
numbers use. Estimated mode is the full loop: the mismatches of every data
block are estimated, and each block's refreshed correctors apply from the
next block on, the way a background-calibrated converter would run. Block 0,
which has no block before it, runs its own estimate, and a capture shorter
than one block is one block, estimated from all its samples. Both modes run
the same chunk driver, filterbank._calibrated_pieces: truth mode with one
bank for the whole capture, estimated mode with one bank per block, and
both trim D*M samples at each end of the calibrated stream.
"""

import csv
import functools
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .filterbank import (FilterBank, _calibrated_pieces, calibrate_capture,
                         design_banks, write_coefficients_csv)
from .metrics import (SpectrumReport, spectrum_report, worst_image_spur,
                      write_spectrum_csv)
from .model import (ChannelCapture, MismatchProfile, dequantize_stream,
                    simulate_capture)
from .scenarios import MODE_TRUTH, Scenario, apply_sweep_value
from .sinefit import (_FIT_BLOCKS, EST_BLOCK_PER_CHANNEL, detect_tone_freq,
                      estimate_batches)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one calibrate-and-measure step. bank is the corrector (in
    estimated mode, the one designed from the last estimate); estimate is
    None in truth mode. calibrated is the window report_cal measures: the
    first n_fft samples of the calibrated stream, in amplitude units (the
    whole stream if it is shorter). The rest of the stream is not kept:
    replay() yields the whole stream again, in either mode, as
    filterbank.calibrate_capture's pieces, from the banks the step ran,
    with nothing estimated again."""

    scenario: Scenario
    report_uncal: SpectrumReport
    report_cal: SpectrumReport
    estimate: MismatchProfile
    bank: FilterBank
    calibrated: np.ndarray
    replay: object
    outputs: dict = field(default_factory=dict)

    @property
    def sinad_uncal_db(self) -> float:
        return self.report_uncal.sinad_db

    @property
    def sinad_cal_db(self) -> float:
        return self.report_cal.sinad_db

    def worst_image(self) -> tuple:
        """(largest uncalibrated image spur, calibrated dBFS in its bin)."""
        worst = worst_image_spur(self.report_uncal.spurs)
        after = {(s.kind, s.bin_index): s.level_dbfs for s in self.report_cal.spurs}
        return worst, after[("image", worst.bin_index)]

    def largest_image_reduction_db(self) -> float:
        """Level drop of the biggest uncalibrated image spur, same bin."""
        worst, after = self.worst_image()
        return worst.level_dbfs - after


def simulate_scenario(scenario: Scenario) -> ChannelCapture:
    return simulate_capture(scenario.tone, scenario.config, scenario.profile,
                            scenario.n_samples)


def _calibrate_background(capture: ChannelCapture, scenario: Scenario,
                          tone_freq: float = None):
    """Feed-forward estimate-then-apply calibration over blocks of
    EST_BLOCK_PER_CHANNEL samples per channel, at tone_freq (detected from
    the capture when it is None).

    Block 0 runs the bank and offsets estimated from itself, block b >= 1
    block b-1's, and a short final block, not estimated from, the last
    full block's; a capture shorter than one block is one block, estimated
    from all its samples. When called, it estimates every full block
    (estimate_batches, its batches read through capture.codes: one pass over
    a capture file), checks every estimate by MismatchProfile's rules
    and designs every block's bank in one design_banks call, so an
    estimation error is raised here, before any tap design or chunk. The
    fixed-point taps of all B blocks are held at once, about N/1024 of
    the int16 codes (3 % at N = 30).

    Returns (replay, bank, estimate): replay() runs those banks through
    the chunk driver filterbank._calibrated_pieces, whose pieces are
    trimmed as calibrate_capture's; bank is the FilterBank designed from
    the last estimate, and estimate that estimate as a MismatchProfile.
    """
    config = capture.config
    M = config.n_channels
    spec = scenario.filter_spec
    n = capture.n_per_channel
    block = min(EST_BLOCK_PER_CHANNEL, n)
    if tone_freq is None:
        tone_freq = detect_tone_freq(capture)
    n_full = n // block
    # the full blocks, _FIT_BLOCKS at a time, each batch a (b, M, block)
    # view of the codes that capture.codes read: one pass over a file
    step = _FIT_BLOCKS * block
    offs, gains, skews = estimate_batches(
        (capture.codes(lo, min(lo + step, n_full * block)).reshape(-1, M).T
         .reshape(M, -1, block).swapaxes(0, 1)
         for lo in range(0, n_full * block, step)), config, tone_freq)
    # MismatchProfile's checks, and errors, on every block's estimate at once
    MismatchProfile(offs.ravel(), gains.ravel(), skews.ravel())
    # the mismatches each block runs with: block 0's own estimate, then
    # the estimate of the block before
    offsets, run_gains, run_skews = (
        np.concatenate((v[:1], v))[:-(-n // block)]
        for v in (offs, gains, skews))
    taps = design_banks(run_gains, run_skews, spec)[1]
    estimate = MismatchProfile(offs[-1], gains[-1], skews[-1])
    return (functools.partial(_calibrated_pieces, capture, spec, taps, offsets,
                              block),
            FilterBank.design(estimate, M, spec), estimate)


def calibrate_scenario(capture: ChannelCapture, scenario: Scenario,
                       freq: float = None) -> ScenarioResult:
    """Calibrate a capture with the scenario's filter and coefficient mode,
    and measure its first n_fft samples before and after at freq (default:
    the scenario's tone). In estimated mode freq is also the tone the
    estimator fits, detected from the capture when it is None.

    The scenario's config scales the codes: a capture file does not store
    full_scale, so only the scenario knows it. The capture's channel count
    and bits must equal the scenario's (ConfigError otherwise).
    """
    config = scenario.config
    M = config.n_channels
    capture = capture.with_config(config)
    # checked before any tap design, whose arrays grow with the tap count
    if capture.n_per_channel < scenario.filter_spec.n_taps:
        raise ShapeError(f"channel length {capture.n_per_channel} shorter "
                         f"than {scenario.filter_spec.n_taps} taps")
    # the banks first, so an estimation error comes before any spectrum
    if scenario.mode == MODE_TRUTH:
        bank = FilterBank.design(scenario.profile, M, scenario.filter_spec)
        replay, estimate = functools.partial(calibrate_capture, capture,
                                             bank), None
    else:
        replay, bank, estimate = _calibrate_background(capture, scenario, freq)
    f = scenario.tone.freq_rel if freq is None else freq
    n_fft = scenario.n_fft
    uncal = dequantize_stream(capture.codes(0, -(-n_fft // M))[:n_fft],
                              config)
    report_uncal = spectrum_report(uncal, f, n_fft, M, config.full_scale)
    cal = _first_samples(replay(), n_fft)
    report_cal = spectrum_report(cal, f, n_fft, M, config.full_scale)
    return ScenarioResult(scenario=scenario, report_uncal=report_uncal,
                          report_cal=report_cal, estimate=estimate,
                          bank=bank, calibrated=cal, replay=replay)


def _first_samples(pieces, n: int) -> np.ndarray:
    """Read the iterator pieces of sample arrays to its end. Returns the
    first n samples of their concatenation (all of them if there are
    fewer)."""
    kept, have = [], 0
    for piece in pieces:
        if have < n:  # a copy, so the rest of the piece can go
            kept.append(piece[:n - have].copy())
            have += len(kept[-1])
        del piece  # so it is gone while the next pieces are made
    return np.concatenate(kept or [np.empty(0)])


def run_scenario(scenario: Scenario, out_dir=None) -> ScenarioResult:
    """Simulate, calibrate, and measure one scenario.

    Deterministic for a given scenario (the tone phase comes from the seed).
    With out_dir set, writes before/after spectra, the coefficient table,
    and a one-line summary CSV.
    """
    result = calibrate_scenario(simulate_scenario(scenario), scenario)
    if out_dir is None:
        return result
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, scenario.name)
    outputs = {name: f"{base}_{name}.csv" for name in
               ("spectrum_uncal", "spectrum_cal", "summary", "coefficients")}
    report_uncal, report_cal = result.report_uncal, result.report_cal
    write_spectrum_csv(outputs["spectrum_uncal"], report_uncal.magnitudes_dbfs)
    write_spectrum_csv(outputs["spectrum_cal"], report_cal.magnitudes_dbfs)
    write_coefficients_csv(outputs["coefficients"], result.bank)
    with open(outputs["summary"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "mode", "freq_rel", "sinad_uncal_db",
                         "sinad_cal_db", "enob_uncal", "enob_cal"])
        writer.writerow([scenario.name, scenario.mode,
                         f"{scenario.tone.freq_rel:.10g}"]
                        + [f"{v:.4f}" for v in (
                            report_uncal.sinad_db, report_cal.sinad_db,
                            report_uncal.enob, report_cal.enob)])
    return replace(result, outputs=outputs)


@dataclass(frozen=True)
class SweepRow:
    value: float
    sinad_uncal_db: float
    sinad_cal_db: float
    worst_image_uncal_dbfs: float
    worst_image_cal_dbfs: float


def run_sweep(scenario: Scenario, axis: str = None, values=None,
              out_dir=None) -> list:
    """Run the scenario once per axis value; one SweepRow each. Points that
    share the previous point's simulation inputs reuse its capture.

    axis/values default to the scenario's own sweep definition. With
    out_dir set, writes <name>_sweep_<axis>.csv.
    """
    axis = axis if axis is not None else scenario.sweep_axis
    values = values if values is not None else scenario.sweep_values
    if axis is None or values is None or not len(values):
        raise ConfigError("sweep needs an axis and a non-empty value list")
    rows = []
    capture, inputs = None, None
    # every point is built, and so checked, before any of them runs
    points = [apply_sweep_value(scenario, axis, value) for value in values]
    for value, point in zip(values, points):
        # a point whose simulation inputs equal the previous point's (the
        # coeff_bits and n_taps axes) calibrates the same capture again
        point_inputs = (point.tone, point.config, point.profile, point.n_samples)
        if point_inputs != inputs:
            capture, inputs = simulate_scenario(point), point_inputs
        result = calibrate_scenario(capture, point)
        worst, after = result.worst_image()
        rows.append(SweepRow(
            value=float(value),
            sinad_uncal_db=result.sinad_uncal_db,
            sinad_cal_db=result.sinad_cal_db,
            worst_image_uncal_dbfs=worst.level_dbfs,
            worst_image_cal_dbfs=after,
        ))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{scenario.name}_sweep_{axis}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([axis, "sinad_uncal_db", "sinad_cal_db",
                             "worst_image_uncal_dbfs", "worst_image_cal_dbfs"])
            for row in rows:
                writer.writerow([f"{row.value:.10g}",
                                 f"{row.sinad_uncal_db:.4f}",
                                 f"{row.sinad_cal_db:.4f}",
                                 f"{row.worst_image_uncal_dbfs:.4f}",
                                 f"{row.worst_image_cal_dbfs:.4f}"])
    return rows
