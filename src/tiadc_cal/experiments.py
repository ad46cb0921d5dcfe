"""Scenario execution: simulate, calibrate (truth or background-estimated
coefficients), measure, and export CSV results.

calibrate_scenario is the one calibrate-and-measure step; run_scenario
feeds it a simulated capture, the CLI's calibrate command a capture file.

Truth mode designs the correctors straight from the scenario's mismatch
profile, which isolates the corrector itself; this is the mode the headline
numbers use. Estimated mode is the full loop: mismatches are estimated from
one data block and the refreshed correctors apply from the next block on,
the way a background-calibrated converter would run. Its SINAD is measured
from the second block onward (the first block passes through the identity
bank and is still uncorrected).
"""

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .filterbank import (FilterBank, _chunk_piece, _piece_bytes,
                         calibrate_capture, design_banks,
                         write_coefficients_csv)
from .metrics import (SpectrumReport, spectrum_report, worst_image_spur,
                      write_spectrum_csv)
from .model import (_CHUNK, ChannelCapture, MismatchProfile, _chunk_map,
                    dequantize_stream, simulate_capture)
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
    """Feed-forward estimate-then-apply loop over blocks of
    EST_BLOCK_PER_CHANNEL samples per channel.

    The bank estimated from each full block applies to the next block; the
    first block passes through the identity bank, and a short final block
    is corrected but not estimated from. Each estimate reads raw codes
    only, so the capture runs in whole steps of _CHUNK samples per channel
    (a whole number of blocks, so temporary memory stays bounded): one fit
    of every block of the chunk and one design of their taps, in chunk
    order on the calling thread, then one StreamCalibrator step with the
    stacked taps and offsets of one bank per block, on the chunk pool
    (filterbank._chunk_piece). A generator: it yields the calibrated
    stream from the second block on as consecutive fresh float64 arrays
    of at most _CHUNK*M samples, and returns (the FilterBank designed
    from the last estimate, that estimate as a MismatchProfile).
    """
    config = capture.config
    M = config.n_channels
    spec = scenario.filter_spec
    block = EST_BLOCK_PER_CHANNEL
    n_per_channel = capture.n_per_channel
    if n_per_channel < 2 * block:
        raise ConfigError(
            f"estimated mode needs >= {2 * block} samples/channel "
            f"(two estimation blocks), got {n_per_channel}")
    tone_freq = detect_tone_freq(capture)
    skip = (block + spec.group_delay) * M  # merged samples not yielded
    last = None

    def chunks():
        """Estimate and design a chunk's banks; yield its _chunk_piece
        arguments."""
        nonlocal last
        # taps[-1:] is the bank of the block before the chunk (the
        # identity before the first block); offsets[b] is block row0 + b's
        taps = design_banks(np.zeros((1, M)), np.zeros((1, M)), spec)[1]
        offsets, row0 = np.zeros((1, M)), 0
        for start in range(0, n_per_channel, _CHUNK):
            codes = capture.per_channel[:, start: start + _CHUNK]
            width = codes.shape[1]
            n_full = width // block
            # (n_full, M, block) view: block b of every channel
            offs, gains, skews = estimate_blocks(
                codes[:, :n_full * block].reshape(M, n_full, block)
                .swapaxes(0, 1), config, tone_freq)
            # each block runs the bank estimated from the block before it
            taps = np.concatenate((taps[-1:],
                                   design_banks(gains, skews, spec)[1]))
            offsets = np.concatenate((offsets, offs))
            # keep the rows from the block of the chunk's first history
            # sample on: no later chunk reads further back
            first = max(start - spec.n_taps + 1, 0) // block
            offsets, row0 = offsets[first - row0:], first
            if n_full:  # always in the first chunk, which has >= 2 blocks
                last = offs[-1], gains[-1], skews[-1]
            yield (start, start + width, taps[:-(-width // block)], offsets,
                   row0, block, slice(max(skip - start * M, 0), None))

    # filter keeps no piece alive while the next ones are made
    yield from filter(len, _chunk_map(
        lambda args: _chunk_piece(capture, spec, *args), chunks(),
        _piece_bytes(M, _CHUNK)))
    estimate = MismatchProfile(*last)
    return FilterBank.design(estimate, M, spec), estimate


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
        cal, _ = _first_samples(calibrate_capture(capture, bank), n_fft)
        estimate = None
    else:
        cal, (bank, estimate) = _first_samples(
            _calibrate_background(capture, scenario), n_fft)
    report_cal = spectrum_report(cal, f, n_fft, M, config.full_scale)
    return ScenarioResult(scenario=scenario, report_uncal=report_uncal,
                          report_cal=report_cal, estimate=estimate,
                          bank=bank, calibrated=cal)


def _first_samples(pieces, n: int) -> tuple:
    """Read the iterator pieces of sample arrays to its end. Returns the
    first n samples of their concatenation (all of them if there are
    fewer) and the iterator's return value."""
    kept, have = [], 0
    while True:
        try:
            piece = next(pieces)
        except StopIteration as stop:
            return np.concatenate(kept or [np.empty(0)]), stop.value
        if have < n:  # a copy, so the rest of the piece can go
            kept.append(piece[:n - have].copy())
            have += len(kept[-1])
        del piece  # so it is gone while the next pieces are made


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
