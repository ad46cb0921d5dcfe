"""Command-line harness.

Subcommands:
    simulate   scenario -> capture file (+ resolved scenario sidecar)
    estimate   capture  -> per-channel mismatch table
    calibrate  capture  -> before/after SINAD (+ calibrated CSV)
    sweep      scenario -> one CSV row per sweep value
    spectrum   capture  -> spectrum CSV / summary

Exit codes: 0 success, 2 configuration/usage error, 3 data-format error,
4 numeric failure.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

from .capture_io import check_bits, read_capture, write_capture
from .errors import ConfigError, DataFormatError, NumericError, TiadcError
from .experiments import calibrate_scenario, run_sweep, simulate_scenario
from .metrics import spectrum_report, write_spectrum_csv
from .model import dequantize_stream
from .scenarios import (DEFAULTS, MODE_TRUTH, SWEEP_AXES, build_scenario,
                        load_scenario, scenario_settings, scenario_to_text)
from .sinefit import detect_tone_freq, estimate_from_capture

_CSV_CHUNK = 1 << 16  # calibrated samples formatted per write


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiadc-cal",
        description="Simulate, estimate, and calibrate channel mismatches of "
                    "a time-interleaved ADC.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p, help_text):
        p.add_argument("--config",
                       help=help_text + "; defaults to the capture's .cfg "
                            "sidecar, then to the header alone (full scale "
                            "1.0)")

    def add_filter_flags(p):
        p.add_argument("--taps", type=int, help="FIR tap count N")
        p.add_argument("--coeff-bits", type=int,
                       help="coefficient word length W (Q2.(W-2))")
        p.add_argument("--variant", choices=["sub", "div"],
                       help="center-tap gain rule: 1-dg or 1/(1+dg)")

    sim = sub.add_parser("simulate", help="synthesize a capture file")
    sim.add_argument("--config", required=True,
                     help="builtin scenario name or config file path")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--out", default=".", help="output directory")

    est = sub.add_parser("estimate", help="estimate mismatches from a capture")
    est.add_argument("capture", help="capture file path")
    add_config_flag(est, "scenario supplying the converter's full scale")
    est.add_argument("--freq", type=float,
                     help="tone frequency relative to fs; detected if omitted")
    est.add_argument("--out", help="output directory for the estimate CSV")

    cal = sub.add_parser("calibrate", help="calibrate a capture file")
    cal.add_argument("capture", help="capture file path")
    add_config_flag(cal, "scenario supplying the converter's full scale "
                         "and, in truth mode, the profile and filter")
    cal.add_argument("--mode", choices=["truth", "est"], default="truth",
                     help="coefficient source: injected profile, or each "
                          "block's background estimate")
    cal.add_argument("--freq", type=float,
                     help="tone frequency relative to fs; est mode detects "
                          "it if omitted")
    add_filter_flags(cal)
    cal.add_argument("--out", help="output directory for CSVs")

    sw = sub.add_parser("sweep", help="run a parameter sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", choices=SWEEP_AXES,
                    help="sweep axis; defaults to the scenario's")
    sw.add_argument("--values",
                    help="comma list or inclusive a:b integer range")
    sw.add_argument("--seed", type=int)
    sw.add_argument("--mode", choices=["truth", "est"])
    add_filter_flags(sw)
    sw.add_argument("--out", default=".")

    spec = sub.add_parser("spectrum", help="spectrum and SINAD of a capture")
    spec.add_argument("capture")
    spec.add_argument("--n-fft", type=int, default=4096)
    spec.add_argument("--freq", type=float,
                      help="signal frequency relative to fs; detected if omitted")
    spec.add_argument("--window", choices=["rect", "bh4"], default="rect")
    spec.add_argument("--out", help="output directory for the spectrum CSV")
    return parser


# CLI flag -> the scenario setting it overrides
_FLAG_SETTINGS = {"seed": "seed", "taps": "taps", "coeff_bits": "coeff_bits",
                  "variant": "variant", "mode": "mode", "axis": "sweep_axis",
                  "values": "sweep_values"}


def _apply_overrides(settings: dict, args):
    """Build the scenario of settings with every given flag copied in; a
    new seed re-draws the tone phase, as with_seed does."""
    for flag, key in _FLAG_SETTINGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "seed", None) is not None:
        settings["phase"] = "auto"
    return build_scenario(settings)


def _sidecar_path(capture_path: str) -> str:
    stem, _ = os.path.splitext(capture_path)
    return stem + ".cfg"


def _cmd_simulate(args) -> int:
    settings = scenario_settings(load_scenario(args.config))
    scenario = _apply_overrides(settings, args)
    check_bits(scenario.config.bits, ConfigError)
    capture = simulate_scenario(scenario)
    os.makedirs(args.out, exist_ok=True)
    capture_path = os.path.join(args.out, f"{scenario.name}_capture.bin")
    write_capture(capture, capture_path)
    with open(_sidecar_path(capture_path), "w") as fh:
        fh.write(scenario_to_text(scenario))
    print(f"wrote {capture_path} ({len(capture.interleaved)} samples, "
          f"{scenario.config.n_channels} channels, {scenario.config.bits} bits)")
    print(f"tone freq_rel = {scenario.tone.freq_rel:.10g}, "
          f"sidecar = {_sidecar_path(capture_path)}")
    return 0


def _load_capture(args):
    """The capture file args.capture under the config that scales its
    codes, and the scenario that config came from, as loaded: --config
    wins, then the capture's .cfg sidecar. With neither, the scenario is
    None and the header's config (full scale 1.0) stays. A scenario whose
    channel count or bits differ from the header's raises ConfigError."""
    capture = read_capture(args.capture)
    source = args.config
    if source is None and os.path.exists(_sidecar_path(args.capture)):
        source = _sidecar_path(args.capture)
    if source is None:
        return capture, None
    scenario = load_scenario(source)
    return capture.with_config(scenario.config), scenario


def _cmd_estimate(args) -> int:
    capture, _ = _load_capture(args)
    estimate = estimate_from_capture(capture, args.freq)
    print(f"{'channel':>7} {'offset':>12} {'gain':>12} {'skew (Ts)':>12}")
    for m in range(capture.config.n_channels):
        print(f"{m:7d} {estimate.offsets[m]:12.6e} {estimate.gains[m]:12.6e} "
              f"{estimate.skews[m]:12.6e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.capture))[0]
        path = os.path.join(args.out, stem + "_estimate.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "offset", "gain", "skew_ts"])
            for m in range(capture.config.n_channels):
                writer.writerow([m, f"{estimate.offsets[m]:.12g}",
                                 f"{estimate.gains[m]:.12g}",
                                 f"{estimate.skews[m]:.12g}"])
        print(f"estimate written to {path}")
    return 0


def _write_calibrated_csv(path: str, pieces) -> None:
    """index,value rows with CRLF line ends, the csv module's dialect, of
    the samples of the arrays in pieces, one after the other; formatted
    and written at most _CSV_CHUNK samples at a time."""
    index = 0
    with open(path, "w", newline="") as fh:
        fh.write("index,value\r\n")
        for piece in pieces:
            for start in range(0, len(piece), _CSV_CHUNK):
                chunk = piece[start:start + _CSV_CHUNK].tolist()
                fh.write("".join(f"{i},{v:.12g}\r\n"
                                 for i, v in enumerate(chunk, index)))
                index += len(chunk)


def _cmd_calibrate(args) -> int:
    capture, scenario = _load_capture(args)
    if args.mode == MODE_TRUTH:
        if scenario is None:
            raise ConfigError(
                f"no --config given and no sidecar at "
                f"{_sidecar_path(args.capture)}; supply --config or use "
                "--mode est")
        scenario = _apply_overrides(scenario_settings(scenario), args)
        freq = args.freq if args.freq is not None else scenario.tone.freq_rel
    else:
        # no profile: the background loop with the default filter under the
        # loaded config's full scale; the default tone is a placeholder
        config = capture.config
        scenario = replace(_apply_overrides(dict(
            DEFAULTS, channels=config.n_channels, bits=config.bits,
            fs=config.fs), args), config=config)
        freq = args.freq if args.freq is not None else detect_tone_freq(capture)
    result = calibrate_scenario(capture, scenario, freq)
    spec = scenario.filter_spec
    rep_u, rep_c = result.report_uncal, result.report_cal
    print(f"tone freq_rel = {freq:.10g} ({args.mode} coefficients, "
          f"N={spec.n_taps}, W={spec.coeff_bits})")
    print(f"SINAD uncalibrated = {rep_u.sinad_db:.2f} dB (ENOB {rep_u.enob:.2f})")
    print(f"SINAD calibrated   = {rep_c.sinad_db:.2f} dB (ENOB {rep_c.enob:.2f})")
    worst, after = result.worst_image()
    print(f"largest image spur at {worst.freq_rel:.6g} fs: "
          f"{worst.level_dbfs:.1f} -> {after:.1f} dBFS "
          f"({worst.level_dbfs - after:.1f} dB reduction)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.capture))[0]
        cal_path = os.path.join(args.out, stem + "_calibrated.csv")
        _write_calibrated_csv(cal_path, result.replay())
        write_spectrum_csv(os.path.join(args.out, stem + "_spectrum_cal.csv"),
                           rep_c.magnitudes_dbfs)
        write_spectrum_csv(os.path.join(args.out, stem + "_spectrum_uncal.csv"),
                           rep_u.magnitudes_dbfs)
        print(f"calibrated samples written to {cal_path}")
    return 0


def _cmd_sweep(args) -> int:
    settings = scenario_settings(load_scenario(args.config))
    scenario = _apply_overrides(settings, args)
    axis = scenario.sweep_axis
    if axis is None:
        raise ConfigError("no sweep axis: pass --axis or use a sweep scenario")
    rows = run_sweep(scenario, out_dir=args.out)
    print(f"{axis:>12} {'SINAD uncal':>12} {'SINAD cal':>12} "
          f"{'image uncal':>12} {'image cal':>12}")
    for row in rows:
        print(f"{row.value:12.6g} {row.sinad_uncal_db:12.2f} "
              f"{row.sinad_cal_db:12.2f} {row.worst_image_uncal_dbfs:12.1f} "
              f"{row.worst_image_cal_dbfs:12.1f}")
    if args.out:
        print(f"sweep CSV written to "
              f"{os.path.join(args.out, f'{scenario.name}_sweep_{axis}.csv')}")
    return 0


def _cmd_spectrum(args) -> int:
    capture = read_capture(args.capture)
    config = capture.config
    stream = dequantize_stream(capture.interleaved[:args.n_fft], config)
    freq = args.freq if args.freq is not None else detect_tone_freq(capture)
    report = spectrum_report(stream, freq, args.n_fft, config.n_channels,
                             config.full_scale, window=args.window)
    print(f"signal bin {report.signal_bin} of {args.n_fft} "
          f"(freq_rel {freq:.10g})")
    print(f"SINAD = {report.sinad_db:.2f} dB, ENOB = {report.enob:.2f}")
    for spur in report.spurs:
        note = " (collides with signal)" if spur.collides_with_signal else ""
        print(f"  {spur.kind:>6} spur at {spur.freq_rel:.6g} fs: "
              f"{spur.level_dbfs:.1f} dBFS{note}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.capture))[0]
        path = os.path.join(args.out, stem + "_spectrum.csv")
        write_spectrum_csv(path, report.magnitudes_dbfs)
        print(f"spectrum written to {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except TiadcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
