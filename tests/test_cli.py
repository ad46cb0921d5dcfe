import contextlib
import io
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (ChannelCapture, TiadcConfig, calibrate_capture,
                       capture_io, cli, interleave_channels, model)
from tiadc_cal.cli import main
from tiadc_cal.capture_io import HEADER_SIZE, read_capture, write_capture
from tiadc_cal.experiments import run_scenario
from tiadc_cal.model import _CHUNK
from tiadc_cal.scenarios import load_scenario, scenario_to_text
from tiadc_cal.sinefit import EST_BLOCK_PER_CHANNEL, detect_tone_freq


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_fig6(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--config", "fig6",
                       "--out", str(tmp_path))
    assert code == 0
    return tmp_path / "fig6_capture.bin"


class TestSimulate:
    def test_writes_capture_and_sidecar(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        assert path.exists()
        assert (tmp_path / "fig6_capture.cfg").exists()
        assert path.stat().st_size == HEADER_SIZE + 2 * 16384

    def test_seed_override_changes_payload(self, tmp_path, capsys):
        run(capsys, "simulate", "--config", "fig6", "--out", str(tmp_path / "a"))
        run(capsys, "simulate", "--config", "fig6", "--seed", "99",
            "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "fig6_capture.bin").read_bytes()
        b = (tmp_path / "b" / "fig6_capture.bin").read_bytes()
        assert a != b

    def test_deterministic(self, tmp_path, capsys):
        run(capsys, "simulate", "--config", "fig6", "--out", str(tmp_path / "a"))
        run(capsys, "simulate", "--config", "fig6", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "fig6_capture.bin").read_bytes() == \
               (tmp_path / "b" / "fig6_capture.bin").read_bytes()

    @pytest.mark.parametrize("line", ["gains = 0,nan", "amplitude = nan"])
    def test_non_finite_config_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"name = bad\n{line}\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err
        assert not (tmp_path / "bad_capture.bin").exists()

    def test_codes_wider_than_the_format_exit_2_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("the capture was simulated")

        monkeypatch.setattr(cli, "simulate_chunks", no_simulation)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("name = deep\nbits = 20\n")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "simulate", "--config", str(cfg),
                                "--out", str(out))
        assert code == 2
        assert err == ("config error: 20-bit codes do not fit the 16-bit "
                       "payload format\n")
        assert stdout == "" and not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", "fig6",
                           "--seed", "-1", "--out", str(tmp_path))
        assert code == 2
        assert "seed" in err

    def test_channel_count_above_u16_exit_2(self, tmp_path, capsys):
        # rejected while parsing, before anything is simulated
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("channels = 70000\nn_samples = 70000\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 2
        assert "channel count" in err
        assert not (tmp_path / "wide_capture.bin").exists()

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", "nope",
                           "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err


class TestEstimate:
    def test_recovers_profile(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        code, out, _ = run(capsys, "estimate", str(path), "--out", str(tmp_path))
        assert code == 0
        rows = [line.split() for line in out.splitlines()
                if re.match(r"\s*\d+\s", line)]
        assert len(rows) == 2
        gain1, skew1 = float(rows[1][2]), float(rows[1][3])
        assert gain1 == pytest.approx(0.01, abs=5e-4)
        assert skew1 == pytest.approx(0.01, abs=5e-4)
        csv_text = (tmp_path / "fig6_capture_estimate.csv").read_text()
        assert csv_text.splitlines()[0] == "channel,offset,gain,skew_ts"

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", str(tmp_path / "absent.bin"))
        assert code == 3


class TestCalibratedCsv:
    """The calibrated CSV writer formats a few rows at a time: the same
    bytes as one join over every row, in a fraction of one chunk's rows."""

    @pytest.fixture
    def pieces(self):
        rng = np.random.default_rng(3)
        return [rng.standard_normal(n) * 0.3 for n in (_CHUNK + 5, 7,
                                                       _CHUNK - 3)]

    def test_bytes_are_one_join_over_every_row(self, tmp_path, pieces):
        path = tmp_path / "cal.csv"
        cli._write_calibrated_csv(path, iter(pieces))
        rows = np.concatenate(pieces).tolist()
        want = "index,value\r\n" + "".join(f"{i},{v:.12g}\r\n"
                                            for i, v in enumerate(rows))
        assert path.read_bytes() == want.encode()

    def test_peak_is_far_below_a_chunk_of_rows(self, tmp_path, pieces):
        cli._write_calibrated_csv(tmp_path / "warm.csv", iter(pieces[:1]))
        tracemalloc.start()
        try:
            cli._write_calibrated_csv(tmp_path / "cal.csv", iter(pieces))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 65 536 rows formatted at once held about 4 MiB
        assert peak < 1 << 20, peak


class TestCalibrate:
    def parse_sinads(self, out):
        uncal = float(re.search(r"uncalibrated = ([-\d.]+) dB", out).group(1))
        cal = float(re.search(r"calibrated   = ([-\d.]+) dB", out).group(1))
        return uncal, cal

    def test_truth_mode_via_sidecar(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        code, out, _ = run(capsys, "calibrate", str(path), "--out", str(tmp_path))
        assert code == 0
        uncal, cal = self.parse_sinads(out)
        assert cal > uncal + 20
        assert "reduction" in out
        assert (tmp_path / "fig6_capture_calibrated.csv").exists()
        assert (tmp_path / "fig6_capture_spectrum_cal.csv").exists()

    def test_est_mode_takes_the_repr_of_a_detected_tone(self, tmp_path,
                                                        capsys):
        path = simulate_fig6(tmp_path, capsys)
        freq = detect_tone_freq(read_capture(path))
        code, out, _ = run(capsys, "calibrate", str(path), "--mode", "est",
                           "--freq", repr(freq))
        assert code == 0
        assert out.startswith(f"tone freq_rel = {freq:.10g} (est ")

    @pytest.mark.parametrize("mode", ["truth", "est"])
    def test_calibrated_csv_is_the_whole_stream(self, tmp_path, capsys,
                                                monkeypatch, mode):
        # two chunks per channel, so the stream arrives in two pieces
        scenario = replace(load_scenario("fig6"), n_samples=2 * (_CHUNK + 999))
        config = tmp_path / "long.cfg"
        config.write_text(scenario_to_text(scenario))
        assert run(capsys, "simulate", "--config", str(config),
                   "--out", str(tmp_path))[0] == 0
        seen = []
        real = cli.calibrate_scenario

        def recording(capture, scenario, freq):
            result = real(capture, scenario, freq)
            seen.append((scenario.config, result))
            return result

        monkeypatch.setattr(cli, "calibrate_scenario", recording)
        path = tmp_path / "fig6_capture.bin"
        code, _, _ = run(capsys, "calibrate", str(path),
                         "--mode", mode, "--out", str(tmp_path / "out"))
        assert code == 0
        (config, result), = seen
        # the command's capture file is closed: the same codes, in memory
        capture = read_capture(path).with_config(config)
        pieces = list(calibrate_capture(capture, result.bank))
        assert len(pieces) == 2
        want = np.concatenate(pieces)
        lines = (tmp_path / "out" / "fig6_capture_calibrated.csv").read_text(
        ).splitlines()
        assert lines[0] == "index,value"
        index, value = zip(*(line.split(",") for line in lines[1:]))
        assert list(map(int, index)) == list(range(len(want)))
        assert list(value) == [f"{v:.12g}" for v in want]

    def test_est_mode_close_to_truth(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        _, out_truth, _ = run(capsys, "calibrate", str(path))
        code, out_est, _ = run(capsys, "calibrate", str(path), "--mode", "est")
        assert code == 0
        _, cal_truth = self.parse_sinads(out_truth)
        _, cal_est = self.parse_sinads(out_est)
        assert cal_est == pytest.approx(cal_truth, abs=1.0)

    def test_explicit_config_overrides_sidecar(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        cfg = (tmp_path / "fig6_capture.cfg").read_text()
        alt = tmp_path / "alt.cfg"
        alt.write_text(cfg.replace("taps = 30", "taps = 14"))
        code, out, _ = run(capsys, "calibrate", str(path),
                           "--config", str(alt))
        assert code == 0
        assert "N=14" in out

    def test_no_sidecar_no_config_exit_2(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        (tmp_path / "fig6_capture.cfg").unlink()
        code, _, err = run(capsys, "calibrate", str(path))
        assert code == 2
        assert "sidecar" in err

    def test_taps_override_applies(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        code, out, _ = run(capsys, "calibrate", str(path), "--taps", "14",
                           "--coeff-bits", "24")
        assert code == 0
        assert "N=14, W=24" in out

    @pytest.mark.parametrize("mode", ["truth", "est"])
    def test_zero_taps_exit_2_in_both_modes(self, tmp_path, capsys, mode):
        path = simulate_fig6(tmp_path, capsys)
        code, out, err = run(capsys, "calibrate", str(path), "--mode", mode,
                             "--taps", "0")
        assert code == 2
        assert "n_taps" in err and out == ""

    def test_est_mode_applies_filter_flags(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        code, out, _ = run(capsys, "calibrate", str(path), "--mode", "est",
                           "--taps", "14", "--coeff-bits", "24")
        assert code == 0
        assert "(est coefficients, N=14, W=24)" in out

    def test_est_mode_five_channels(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--config", "fig7",
                         "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "calibrate",
                           str(tmp_path / "fig7_capture.bin"), "--mode", "est")
        assert code == 0
        _, cal = self.parse_sinads(out)
        assert cal >= 66.0

    def test_corrupt_capture_exit_3(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        code, _, err = run(capsys, "calibrate", str(path))
        assert code == 3
        assert "data format error" in err

    def test_truncated_capture_exit_3(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        path.write_bytes(path.read_bytes()[:HEADER_SIZE + 101])
        code, _, err = run(capsys, "calibrate", str(path))
        assert code == 3

    def test_noncoherent_tone_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "nc.cfg"
        cfg.write_text("freq = 0.0191234\ncoherent = false\n"
                       "gains = 0,0.01\nskews = 0,0.01\nn_samples = 16384\n")
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 0
        code, _, err = run(capsys, "calibrate", str(tmp_path / "nc_capture.bin"))
        assert code == 4
        assert "numeric failure" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["calibrate", "spectrum"])
def test_non_finite_freq_exit_2(tmp_path, capsys, command, value):
    path = simulate_fig6(tmp_path, capsys)
    code, out, err = run(capsys, command, str(path), f"--freq={value}")
    assert code == 2
    assert "not finite" in err and out == ""


@pytest.mark.parametrize("command", [["estimate"], ["calibrate", "--mode", "est"],
                                     ["spectrum"]])
def test_zero_sample_capture_exit_2(tmp_path, capsys, command):
    """A valid header with a sample count of 0 and no payload: tone
    detection has nothing to look at."""
    path = simulate_fig6(tmp_path, capsys)
    header = bytearray(path.read_bytes()[:HEADER_SIZE])
    header[18:26] = struct.pack("<Q", 0)
    path.write_bytes(bytes(header))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert "too short for frequency detection: 0 samples" in err
    assert out == ""


def test_zero_sample_capture_truth_mode_exit_2(tmp_path, capsys):
    path = simulate_fig6(tmp_path, capsys)
    path.write_bytes(path.read_bytes()[:18] + struct.pack("<Q", 0))
    code, out, err = run(capsys, "calibrate", str(path))
    assert code == 2
    assert "channel length 0 shorter than" in err and out == ""


def test_simulate_config_whose_stem_is_not_a_name_exit_2(tmp_path, capsys):
    """run#2.cfg without a name key would name the scenario run#2, which
    its sidecar would write as a comment."""
    simulate_fig6(tmp_path, capsys)
    text = (tmp_path / "fig6_capture.cfg").read_text()
    config = tmp_path / "run#2.cfg"
    config.write_text(text.replace("name = fig6\n", ""))
    code, out, err = run(capsys, "simulate", "--config", str(config),
                         "--out", str(tmp_path / "out"))
    assert code == 2
    assert "add a 'name' key" in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../esc", "a/b", "a\\b"])
def test_simulate_name_with_a_path_separator_exit_2(tmp_path, capsys, name):
    """simulate names its files after the scenario, so a separator in the
    name would write them outside --out."""
    config = tmp_path / "cfg" / "sep.cfg"
    config.parent.mkdir()
    config.write_text(f"name = {name}\n")
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "simulate", "--config", str(config),
                         "--out", str(out_dir))
    assert code == 2
    assert "add a 'name' key" in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]


FULL_SCALE_2 = ("name = fs2\nfull_scale = 2.0\namplitude = 1.8\n"
                "offsets = 0,0.02\ngains = 0,0.01\nskews = 0,0.01\n"
                "n_samples = 16384\n")


def test_calibrate_scales_codes_by_the_sidecar_full_scale(tmp_path, capsys):
    """The capture file stores no full_scale; calibrate takes it from the
    sidecar, so the CLI run measures what run_scenario measures."""
    config = tmp_path / "fs2.cfg"
    config.write_text(FULL_SCALE_2)
    want = run_scenario(load_scenario(str(config)))
    code, _, _ = run(capsys, "simulate", "--config", str(config),
                     "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "calibrate", str(tmp_path / "fs2_capture.bin"))
    assert code == 0
    assert (f"SINAD uncalibrated = {want.sinad_uncal_db:.2f} dB" in out
            and f"SINAD calibrated   = {want.sinad_cal_db:.2f} dB" in out)
    assert want.sinad_cal_db > want.sinad_uncal_db + 20


@pytest.mark.parametrize("mode", ["truth", "est"])
def test_calibrate_scans_the_codes_once(tmp_path, capsys, monkeypatch, mode):
    # the payload reader range-checks exactly the codes it reads, and a
    # pass reads each code once, keeping a chunk's history from the chunk
    # before: truth mode calibrates in one pass; est mode estimates from
    # the full blocks in one and calibrates in a second. The sidecar's
    # config keeps the codes without a scan of its own.
    n = 2 * _CHUNK + 999  # per channel: two chunks and a short block
    scenario = replace(load_scenario("fig6"), n_samples=2 * n)
    config = tmp_path / "long.cfg"
    config.write_text(scenario_to_text(scenario))
    assert run(capsys, "simulate", "--config", str(config),
               "--out", str(tmp_path))[0] == 0
    reads, scans, memory_scans = [], [], []
    read = capture_io._Payload.readinto
    monkeypatch.setattr(capture_io._Payload, "readinto", lambda self, first,
                        out: reads.append((first, len(out)))
                        or read(self, first, out))
    scan = model._first_code_outside
    monkeypatch.setattr(capture_io, "_first_code_outside", lambda codes, bits:
                        scans.append(len(codes)) or scan(codes, bits))
    monkeypatch.setattr(model, "_first_code_outside", lambda codes, bits:
                        memory_scans.append(len(codes)) or scan(codes, bits))
    path = tmp_path / "fig6_capture.bin"
    assert run(capsys, "calibrate", str(path), "--mode", mode)[0] == 0
    assert scans == [length for _, length in reads] and memory_scans == []
    passes = []  # runs of reads, each starting where the one before stopped
    for first, length in reads:
        if not passes or passes[-1][1] != first:
            passes.append([first, first])
        passes[-1][1] = first + length
    full_blocks = 2 * (n // EST_BLOCK_PER_CHANNEL * EST_BLOCK_PER_CHANNEL)
    assert passes == ([[0, 2 * n]] if mode == "truth" else
                      [[0, full_blocks], [0, 2 * n]])


def test_calibrate_config_with_other_bits_exit_2(tmp_path, capsys):
    path = simulate_fig6(tmp_path, capsys)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text((tmp_path / "fig6_capture.cfg").read_text()
                   .replace("bits = 12", "bits = 14"))
    code, out, err = run(capsys, "calibrate", str(path), "--config", str(cfg))
    assert code == 2
    assert "bits" in err and out == ""


def simulate_full_scale_2(tmp_path, capsys):
    config = tmp_path / "fs2.cfg"
    config.write_text(FULL_SCALE_2)
    code, _, _ = run(capsys, "simulate", "--config", str(config),
                     "--out", str(tmp_path))
    assert code == 0
    return tmp_path / "fs2_capture.bin", config


def estimated_offset(out, channel):
    row = out.splitlines()[1 + channel].split()
    assert int(row[0]) == channel
    return float(row[1])


@pytest.mark.parametrize("source", ["sidecar", "config"])
def test_estimate_scales_offsets_by_the_full_scale(tmp_path, capsys, source):
    """Offsets are in full-scale units, so estimate needs the full scale
    the header does not store: from the sidecar, or from --config."""
    path, config = simulate_full_scale_2(tmp_path, capsys)
    flags = []
    if source == "config":
        path.with_suffix(".cfg").unlink()
        flags = ["--config", str(config)]
    code, out, _ = run(capsys, "estimate", str(path), *flags)
    assert code == 0
    assert estimated_offset(out, 1) == pytest.approx(0.02, abs=1e-4)


def test_spectrum_levels_agree_with_calibrate(tmp_path, capsys):
    """dBFS is relative to the full scale, so spectrum, which reads the
    header alone, reports the image spur that calibrate measures under the
    sidecar's full scale 2.0."""
    path, _ = simulate_full_scale_2(tmp_path, capsys)
    _, out_cal, _ = run(capsys, "calibrate", str(path))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    level = re.search(r"image spur at [\d.]+ fs: ([-\d.]+) dBFS", out).group(1)
    assert re.search(rf"largest image spur at [\d.]+ fs: {level} ->", out_cal)


@pytest.mark.parametrize("command", [["estimate"], ["calibrate"],
                                     ["calibrate", "--mode", "est"]])
@pytest.mark.parametrize("text", ["bits = 14\n", "channels = 4\n"],
                         ids=["bits", "channels"])
def test_config_that_does_not_match_the_header_exit_2(tmp_path, capsys,
                                                      command, text):
    path = simulate_fig6(tmp_path, capsys)
    cfg = tmp_path / "other.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *command, str(path), "--config", str(cfg))
    assert code == 2
    assert "config error: scenario has" in err and out == ""


@pytest.mark.parametrize("command", [["estimate"],
                                     ["calibrate", "--mode", "est"]])
def test_full_scale_1_outputs_do_not_depend_on_the_sidecar(tmp_path, capsys,
                                                           command):
    """With full scale 1.0, reading the sidecar changes nothing: stdout and
    every CSV equal those of the header alone."""
    path = simulate_fig6(tmp_path, capsys)
    outputs = []
    for run_dir in ("with", "without"):
        if run_dir == "without":
            (tmp_path / "fig6_capture.cfg").unlink()
        code, out, _ = run(capsys, *command, str(path),
                           "--out", str(tmp_path / run_dir))
        assert code == 0
        files = sorted((tmp_path / run_dir).iterdir())
        outputs.append((out.replace(run_dir, "DIR"),
                        [(f.name, f.read_bytes()) for f in files]))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


@pytest.mark.parametrize("command", [["estimate"],
                                     ["calibrate", "--mode", "est"]])
def test_sidecar_that_does_not_load_exit_2_unless_config_given(tmp_path, capsys,
                                                               command):
    """The sidecar supplies the full scale, so one that does not parse stops
    the command; --config wins over it."""
    path = simulate_fig6(tmp_path, capsys)
    (tmp_path / "fig6_capture.cfg").write_text("not a setting\n")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert "config error: line 1" in err and out == ""
    code, _, _ = run(capsys, *command, str(path), "--config", "fig6")
    assert code == 0


def test_spectrum_reads_the_header_alone(tmp_path, capsys):
    """dBFS needs no full scale, so spectrum neither takes --config nor
    reads the sidecar."""
    path = simulate_fig6(tmp_path, capsys)
    _, before, _ = run(capsys, "spectrum", str(path))
    (tmp_path / "fig6_capture.cfg").write_text("not a setting\n")
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0 and out == before
    code, _, err = run(capsys, "spectrum", str(path), "--config", "fig6")
    assert code == 2 and "--config" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["estimate"], ["calibrate", "--mode", "est"]])
def test_non_finite_tone_freq_exit_2_in_estimation(tmp_path, capsys, command,
                                                   value):
    path = simulate_fig6(tmp_path, capsys)
    code, out, err = run(capsys, *command, str(path), f"--freq={value}")
    assert code == 2
    assert f"tone frequency must be in (0, 0.5) of fs, got {value}" in err
    assert out == ""


@pytest.mark.parametrize("command", [["estimate"], ["calibrate", "--mode", "est"]])
def test_estimated_gain_outside_the_model_exit_2(tmp_path, capsys, command):
    """A hand-made 12-bit capture whose channels see amplitudes 0.5 and 0.8
    estimates a gain of 0.6: both estimating commands refuse it."""
    k = np.arange(8192)
    channels = [np.round(2048 * amp * np.sin(2 * np.pi * 77 / 4096 * (2 * k + m)))
                .astype(np.int16) for m, amp in enumerate((0.5, 0.8))]
    path = tmp_path / "gain_capture.bin"
    write_capture(ChannelCapture(TiadcConfig(n_channels=2, bits=12),
                                 interleave_channels(channels)), str(path))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert "gain mismatch magnitude must be < 0.5" in err and out == ""


@pytest.mark.parametrize("offsets", ["0,1e300", "0,0.5"])
def test_offset_beyond_full_scale_exit_2(tmp_path, capsys, offsets):
    """With the default amplitude of 0.9, either offset would clip the
    channel: simulate and calibrate --config both refuse the config."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"name = bad\noffsets = {offsets}\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(tmp_path))
    assert code == 2
    assert "would clip" in err and out == ""
    assert not (tmp_path / "bad_capture.bin").exists()
    path = simulate_fig6(tmp_path, capsys)
    code, out, err = run(capsys, "calibrate", str(path), "--config", str(cfg))
    assert code == 2
    assert "would clip" in err and out == ""


@pytest.mark.parametrize("full_scale", ["5e-324", "1e-320"])
def test_full_scale_with_a_subnormal_lsb_exit_2(tmp_path, capsys, full_scale):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"name = tiny\nfull_scale = {full_scale}\n"
                   "amplitude = 4e-324\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(tmp_path))
    assert code == 2
    assert "below the smallest normal float" in err and out == ""
    assert not (tmp_path / "tiny_capture.bin").exists()
    path = simulate_fig6(tmp_path, capsys)
    code, out, err = run(capsys, "calibrate", str(path), "--config", str(cfg))
    assert code == 2
    assert "below the smallest normal float" in err and out == ""


class TestSweep:
    def test_range_values_row_count(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--config", "fig9",
                           "--axis", "coeff_bits", "--values", "12:30",
                           "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "fig9_sweep_coeff_bits.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 19

    def test_deterministic_csv_bytes(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run(capsys, "sweep", "--config", "fig12",
                             "--values", "0.005,0.02", "--out",
                             str(tmp_path / sub))
            assert code == 0
        assert (tmp_path / "a" / "fig12_sweep_skew.csv").read_bytes() == \
               (tmp_path / "b" / "fig12_sweep_skew.csv").read_bytes()

    def test_no_axis_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--config", "fig6",
                           "--out", str(tmp_path))
        assert code == 2
        assert "axis" in err


class TestSpectrum:
    def test_summary_and_csv(self, tmp_path, capsys):
        path = simulate_fig6(tmp_path, capsys)
        code, out, _ = run(capsys, "spectrum", str(path), "--out", str(tmp_path))
        assert code == 0
        assert "signal bin 77" in out
        assert "image spur" in out or "image" in out
        csv_lines = (tmp_path / "fig6_capture_spectrum.csv").read_text().splitlines()
        assert csv_lines[0] == "bin_index,freq_rel,magnitude_dbfs"
        assert len(csv_lines) == 1 + 2049

    def test_windowed_mode_on_noncoherent_tone(self, tmp_path, capsys):
        cfg = tmp_path / "nc.cfg"
        cfg.write_text("freq = 0.0191234\ncoherent = false\nn_samples = 16384\n")
        run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        path = str(tmp_path / "nc_capture.bin")
        code, _, err = run(capsys, "spectrum", path)
        assert code == 4  # rectangular analysis refuses non-coherent data
        code, out, _ = run(capsys, "spectrum", path, "--window", "bh4")
        assert code == 0
        sinad = float(re.search(r"SINAD = ([-\d.]+) dB", out).group(1))
        assert 50.0 < sinad < 74.0  # plausible for clean 12-bit data


class TestUsage:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_args_exit_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_module_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        import tiadc_cal
        # the child finds the package where this process imported it from
        src = os.path.dirname(os.path.dirname(tiadc_cal.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "tiadc_cal", "simulate", "--config", "zero",
             "--out", str(tmp_path)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert (tmp_path / "zero_capture.bin").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "CFG"],
    ["sweep", "--config", "fig6", "--axis", "gain", "--values", "0.01,0.2"],
])
def test_gain_that_clips_exit_2(tmp_path, capsys, argv):
    """A gain of 0.2 at the default amplitude of 0.9 drives channel 1 past
    full scale, whether a config file or a sweep value sets it."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("name = bad\ngains = 0,0.2\n")
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert "would clip" in err
    assert list(tmp_path.iterdir()) == [cfg]


# each flag takes a valid value, three times in four, or one of every other
# kind: negative, zero, huge, non-numeric, non-finite or empty
_MUTANT = st.sampled_from(["-1", "0", "0.3", "1e400", str(1 << 70), "nan",
                           "inf", "-inf", "abc", ""])
_VALID = {
    "--config": ["fig6", "fig7", "fig12", "nope"],
    "--seed": ["1", "7", "123"],
    "--mode": ["truth", "est", "offline"],
    "--freq": ["0.018798828125", "0.25", "0.5"],
    "--taps": ["2", "14", "31"],
    "--coeff-bits": ["12", "24", "32"],
    "--variant": ["sub", "div", "mul"],
    "--axis": ["coeff_bits", "n_taps", "gain", "skew", "freq", "phase"],
    "--values": ["0.001,0.01", "12:14", "2,6", "3:1", "0,nan", "0.2"],
}
_COMMAND_FLAGS = {
    "simulate": ("--config", "--seed", "--bogus"),
    "calibrate": ("--config", "--mode", "--freq", "--taps", "--coeff-bits",
                  "--variant", "--bogus"),
    "sweep": ("--config", "--axis", "--values", "--seed", "--mode", "--taps",
              "--coeff-bits", "--variant", "--bogus"),
}


@st.composite
def mutated_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]),
                          unique=True, max_size=4))
    if command != "calibrate" and "--config" not in flags:
        flags.insert(0, "--config")
    argv = [command]
    for flag in flags:
        valid = st.sampled_from(_VALID.get(flag, ["1"]))
        value = draw(valid if draw(st.integers(0, 3)) else _MUTANT)
        argv.append(f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def fig6_capture(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", "fig6", "--out", str(out)]) == 0
    return out / "fig6_capture.bin"


@given(mutated_argv())
@settings(max_examples=60, deadline=None)
def test_mutated_argv_keeps_the_exit_code_contract(fig6_capture, argv):
    """Whatever the flags, main returns a documented exit code, and a
    failure says why on stderr instead of raising."""
    if argv[0] == "calibrate":
        argv.insert(1, str(fig6_capture))
    argv += ["--out", str(fig6_capture.parent / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert code == 0 or err.getvalue().strip(), argv
