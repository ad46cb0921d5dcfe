import re
import struct

import pytest

from tiadc_cal.cli import main
from tiadc_cal.capture_io import HEADER_SIZE


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["estimate"], ["calibrate", "--mode", "est"]])
def test_non_finite_tone_freq_exit_2_in_estimation(tmp_path, capsys, command,
                                                   value):
    path = simulate_fig6(tmp_path, capsys)
    code, out, err = run(capsys, *command, str(path), f"--freq={value}")
    assert code == 2
    assert f"tone frequency must be in (0, 0.5) of fs, got {value}" in err
    assert out == ""


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
