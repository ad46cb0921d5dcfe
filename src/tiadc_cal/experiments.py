"""Scenario execution: simulate, calibrate (truth or background-estimated
coefficients), measure, and export CSV results.

Truth mode designs the correctors straight from the injected mismatch
profile, which isolates the corrector itself; this is the mode the headline
numbers use. Estimated mode is the full loop: mismatches are estimated from
one data block and the refreshed correctors apply from the next block on,
the way a background-calibrated converter would run. Its SINAD is measured
from the second block onward (the first block passes through the identity
bank and is still uncorrected).
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .filterbank import (FilterBank, StreamCalibrator, calibrate_capture,
                         merge_accumulators, write_coefficients_csv)
from .metrics import SpectrumReport, spectrum_report, worst_image_spur, write_spectrum_csv
from .model import (ChannelCapture, MismatchProfile, dequantize_stream,
                    simulate_capture)
from .scenarios import (EST_BLOCK_PER_CHANNEL, MODE_EST, MODE_TRUTH, Scenario,
                        apply_sweep_value)
from .sinefit import (MismatchEstimate, alias_to_subrate, derive_mismatches,
                      detect_tone_freq, sine_fit_four_param)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    report_uncal: SpectrumReport
    report_cal: SpectrumReport
    estimate: MismatchEstimate
    outputs: dict

    @property
    def sinad_uncal_db(self) -> float:
        return self.report_uncal.sinad_db

    @property
    def sinad_cal_db(self) -> float:
        return self.report_cal.sinad_db

    def largest_image_reduction_db(self) -> float:
        """Level drop of the biggest uncalibrated image spur, same bin."""
        worst = worst_image_spur(self.report_uncal.spurs)
        after = {(s.kind, s.bin_index): s.level_dbfs for s in self.report_cal.spurs}
        return worst.level_dbfs - after[("image", worst.bin_index)]


def simulate_scenario(scenario: Scenario) -> ChannelCapture:
    return simulate_capture(scenario.tone, scenario.config, scenario.profile,
                            scenario.n_samples)


def _calibrate_truth(capture: ChannelCapture, scenario: Scenario) -> np.ndarray:
    bank = FilterBank.design(scenario.profile, scenario.config.n_channels,
                             scenario.filter_spec)
    return calibrate_capture(capture, bank)


def _calibrate_background(capture: ChannelCapture, scenario: Scenario):
    """Blockwise estimate-then-apply loop.

    The bank estimated from each full block applies from the next block on;
    the first block passes through the identity bank. Returns (calibrated
    stream in amplitude units, full capture length; measure_start index
    past the identity-bank first block; last estimate).
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
    f_sub, _ = alias_to_subrate(tone_freq, M)
    f_sub = min(max(f_sub, 1e-6), 0.5 - 1e-6)

    bank = FilterBank.identity(M, spec)
    stream = StreamCalibrator(config, spec)
    accs = [[] for _ in range(M)]
    estimate = None
    for start in range(0, n_per_channel, block):
        stop = min(start + block, n_per_channel)
        blocks = [codes[start:stop] for codes in capture.per_channel]
        for m, acc in enumerate(stream.process(blocks, bank)):
            accs[m].append(acc)
        if stop - start >= block:  # full block: refresh coefficients from it
            fits = [sine_fit_four_param(dequantize_stream(codes, config), f_sub)
                    for codes in blocks]
            estimate = derive_mismatches(fits, config, tone_freq)
            profile = MismatchProfile(offsets=estimate.offsets,
                                      gains=estimate.gains,
                                      skews=estimate.skews)
            bank = FilterBank.design(profile, M, spec)
    merged = merge_accumulators([np.concatenate(a) for a in accs], stream.scale)
    measure_start = (block + spec.group_delay) * M
    return merged, measure_start, estimate


def run_scenario(scenario: Scenario, out_dir=None) -> ScenarioResult:
    """Simulate, calibrate, and measure one scenario.

    Deterministic for a given scenario (the tone phase comes from the seed).
    With out_dir set, writes before/after spectra, the coefficient table,
    and a one-line summary CSV.
    """
    capture = simulate_scenario(scenario)
    config = scenario.config
    uncal = dequantize_stream(capture.interleaved, config)
    if scenario.mode == MODE_TRUTH:
        cal = _calibrate_truth(capture, scenario)
        estimate = None
    else:
        cal_full, measure_start, estimate = _calibrate_background(capture, scenario)
        cal = cal_full[measure_start:]
    f = scenario.tone.freq_rel
    report_uncal = spectrum_report(uncal, f, scenario.n_fft,
                                   config.n_channels, config.full_scale)
    report_cal = spectrum_report(cal, f, scenario.n_fft,
                                 config.n_channels, config.full_scale)

    outputs = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, scenario.name)
        outputs["spectrum_uncal"] = base + "_spectrum_uncal.csv"
        outputs["spectrum_cal"] = base + "_spectrum_cal.csv"
        outputs["summary"] = base + "_summary.csv"
        outputs["coefficients"] = base + "_coefficients.csv"
        write_spectrum_csv(outputs["spectrum_uncal"], report_uncal.magnitudes_dbfs)
        write_spectrum_csv(outputs["spectrum_cal"], report_cal.magnitudes_dbfs)
        profile = scenario.profile
        if estimate is not None:
            profile = MismatchProfile(offsets=estimate.offsets,
                                      gains=estimate.gains, skews=estimate.skews)
        write_coefficients_csv(
            outputs["coefficients"],
            FilterBank.design(profile, config.n_channels, scenario.filter_spec))
        with open(outputs["summary"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "mode", "freq_rel", "sinad_uncal_db",
                             "sinad_cal_db", "enob_uncal", "enob_cal"])
            writer.writerow([scenario.name, scenario.mode, f"{f:.10g}",
                             f"{report_uncal.sinad_db:.4f}",
                             f"{report_cal.sinad_db:.4f}",
                             f"{report_uncal.enob:.4f}",
                             f"{report_cal.enob:.4f}"])
    return ScenarioResult(scenario=scenario, report_uncal=report_uncal,
                          report_cal=report_cal, estimate=estimate,
                          outputs=outputs)


@dataclass(frozen=True)
class SweepRow:
    value: float
    sinad_uncal_db: float
    sinad_cal_db: float
    worst_image_uncal_dbfs: float
    worst_image_cal_dbfs: float


def run_sweep(scenario: Scenario, axis: str = None, values=None,
              out_dir=None) -> list:
    """Run the scenario once per axis value; one SweepRow each.

    axis/values default to the scenario's own sweep definition. With
    out_dir set, writes <name>_sweep_<axis>.csv.
    """
    axis = axis if axis is not None else scenario.sweep_axis
    values = values if values is not None else scenario.sweep_values
    if axis is None or values is None or not len(values):
        raise ConfigError("sweep needs an axis and a non-empty value list")
    rows = []
    for value in values:
        point = apply_sweep_value(scenario, axis, value)
        result = run_scenario(point)
        worst_u = worst_image_spur(result.report_uncal.spurs)
        cal_levels = {(s.kind, s.bin_index): s.level_dbfs
                      for s in result.report_cal.spurs}
        rows.append(SweepRow(
            value=float(value),
            sinad_uncal_db=result.sinad_uncal_db,
            sinad_cal_db=result.sinad_cal_db,
            worst_image_uncal_dbfs=worst_u.level_dbfs,
            worst_image_cal_dbfs=cal_levels[("image", worst_u.bin_index)],
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
