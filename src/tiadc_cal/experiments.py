"""Scenario execution: simulate, calibrate (truth or background-estimated
coefficients), measure, and export CSV results.

calibrate_scenario is the one calibrate-and-measure step; run_scenario
feeds it a simulated capture, the CLI's calibrate command a capture file.

Truth mode designs the correctors straight from the scenario's mismatch
profile, which isolates the corrector itself; this is the mode the headline
numbers use. Estimated mode is the full loop: the mismatches of every data
block are estimated, and each block's refreshed correctors apply from the
next block on, the way a background-calibrated converter would run. Its
SINAD is measured from the second block onward (the first block passes
through the identity bank and is still uncorrected). Both modes run the
same chunk driver, filterbank._calibrated_pieces: truth mode with one bank
for the whole capture, estimated mode with one bank per block.
"""

import csv
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
from .sinefit import EST_BLOCK_PER_CHANNEL, detect_tone_freq, estimate_blocks


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one calibrate-and-measure step. bank is the corrector (in
    estimated mode, the one designed from the last estimate); estimate is
    None in truth mode. calibrated is the window report_cal measures: the
    first n_fft samples of the calibrated stream, in amplitude units (the
    whole stream if it is shorter). The rest of the stream is not kept;
    in truth mode filterbank.calibrate_capture(capture, bank) yields it
    again."""

    scenario: Scenario
    report_uncal: SpectrumReport
    report_cal: SpectrumReport
    estimate: MismatchProfile
    bank: FilterBank
    calibrated: np.ndarray
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


def _calibrate_background(capture: ChannelCapture, scenario: Scenario):
    """Feed-forward estimate-then-apply calibration over blocks of
    EST_BLOCK_PER_CHANNEL samples per channel.

    When called, it estimates every full block (estimate_blocks) and
    designs every block's bank in one design_banks call: block b runs the
    bank and offsets estimated from block b-1, block 0 the identity, and a
    short final block, corrected but not estimated from, the last full
    block's estimate. So an estimation error is raised here, before any
    chunk runs. The fixed-point taps of all B blocks are held at once,
    (n/4096)*M*N*8 bytes for n samples per channel: about N/1024 of the
    int16 codes, 3 % at N = 30.

    Returns (pieces, bank, estimate). pieces, an iterator from the chunk
    driver filterbank._calibrated_pieces, yields the calibrated stream
    from the second block on, its untrimmed tail included, as consecutive
    fresh float64 arrays of at most _CHUNK*M samples. bank is the
    FilterBank designed from the last estimate, and estimate that estimate
    as a MismatchProfile.
    """
    config = capture.config
    M = config.n_channels
    spec = scenario.filter_spec
    block = EST_BLOCK_PER_CHANNEL
    n = capture.n_per_channel
    if n < 2 * block:
        raise ConfigError(
            f"estimated mode needs >= {2 * block} samples/channel "
            f"(two estimation blocks), got {n}")
    tone_freq = detect_tone_freq(capture)
    n_full = n // block
    # (n_full, M, block) view: block b of every channel
    offs, gains, skews = estimate_blocks(
        capture.per_channel[:, :n_full * block].reshape(M, n_full, block)
        .swapaxes(0, 1), config, tone_freq)
    # the mismatches each block runs with: the estimate of the block before
    offsets, run_gains, run_skews = (
        np.concatenate((np.zeros((1, M)), v))[:-(-n // block)]
        for v in (offs, gains, skews))
    taps = design_banks(run_gains, run_skews, spec)[1]
    estimate = MismatchProfile(offs[-1], gains[-1], skews[-1])
    pieces = _calibrated_pieces(capture, spec, taps, offsets, block,
                                (block + spec.group_delay) * M, n * M)
    return pieces, FilterBank.design(estimate, M, spec), estimate


def calibrate_scenario(capture: ChannelCapture, scenario: Scenario,
                       freq: float = None) -> ScenarioResult:
    """Calibrate a capture with the scenario's filter and coefficient mode,
    and measure its first n_fft samples before and after at freq (default:
    the scenario's tone).

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
    f = scenario.tone.freq_rel if freq is None else freq
    n_fft = scenario.n_fft
    uncal = dequantize_stream(capture.interleaved[:n_fft], config)
    report_uncal = spectrum_report(uncal, f, n_fft, M, config.full_scale)
    if scenario.mode == MODE_TRUTH:
        bank = FilterBank.design(scenario.profile, M, scenario.filter_spec)
        pieces, estimate = calibrate_capture(capture, bank), None
    else:
        pieces, bank, estimate = _calibrate_background(capture, scenario)
    cal = _first_samples(pieces, n_fft)
    report_cal = spectrum_report(cal, f, n_fft, M, config.full_scale)
    return ScenarioResult(scenario=scenario, report_uncal=report_uncal,
                          report_cal=report_cal, estimate=estimate,
                          bank=bank, calibrated=cal)


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
