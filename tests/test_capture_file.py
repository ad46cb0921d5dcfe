"""Capture files read a chunk at a time: CaptureFile and the commands that
use it give the bytes of the in-memory path, range-check every code they
read, and hold one chunk of the capture, whatever its length."""

import contextlib
import io
import os
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tiadc_cal import (ChannelCapture, DataFormatError, calibrate_capture,
                       cli, experiments, filterbank, open_capture, read_capture,
                       write_capture)
from tiadc_cal.capture_io import HEADER_SIZE
from tiadc_cal.cli import main
from tiadc_cal.experiments import calibrate_scenario, simulate_scenario
from tiadc_cal.model import _CHUNK
from tiadc_cal.scenarios import (MODE_EST, MODE_TRUTH, load_scenario,
                                 scenario_to_text)


def scenario_of(name, n_per_channel, mode=MODE_TRUTH):
    scenario = load_scenario(name)
    M = scenario.config.n_channels
    return replace(scenario, mode=mode, n_samples=M * n_per_channel,
                   n_fft=min(scenario.n_fft, 1 << (M * n_per_channel)
                             .bit_length() - 1))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def simulate_file(tmp_path, scenario):
    """The capture file and sidecar of scenario, written by the CLI."""
    config = tmp_path / "scenario.cfg"
    config.write_text(scenario_to_text(scenario))
    assert run("simulate", "--config", config, "--out", tmp_path)[0] == 0
    return tmp_path / f"{scenario.name}_capture.bin"


def result_bytes(result):
    return (result.calibrated.tobytes(), result.sinad_uncal_db,
            result.sinad_cal_db, result.estimate,
            [p.tobytes() for p in result.replay()])


class TestSameBytesAsInMemory:
    """calibrate_scenario of a CaptureFile gives the bytes of the same
    capture in memory, replay() included, in both modes."""

    @pytest.mark.parametrize("mode", [MODE_TRUTH, MODE_EST])
    @pytest.mark.parametrize("name,n_per_channel", [
        ("fig6", _CHUNK + 999),      # not a multiple of the chunk
        ("fig7", 2 * _CHUNK + 77),   # five channels, a short last block
        ("fig6", 3000),              # shorter than a chunk and a block
    ])
    def test_edges(self, tmp_path, name, n_per_channel, mode):
        scenario = scenario_of(name, n_per_channel, mode)
        path = simulate_file(tmp_path, scenario)
        memory = simulate_scenario(scenario)
        assert path.read_bytes()[HEADER_SIZE:] == memory.interleaved.tobytes()
        want = result_bytes(calibrate_scenario(memory, scenario))
        with open_capture(path) as capture:
            assert result_bytes(calibrate_scenario(capture, scenario)) == want

    def test_blocks_across_chunk_edges(self, tmp_path, monkeypatch):
        # chunks of 700 samples and blocks of 512: the estimation batches
        # of 16 blocks and the calibration chunks cross each other's edges
        monkeypatch.setattr(filterbank, "_CHUNK", 700)
        monkeypatch.setattr(experiments, "EST_BLOCK_PER_CHANNEL", 512)
        scenario = scenario_of("fig7", 16 * 512 + 3 * 700 + 5, MODE_EST)
        memory = simulate_scenario(scenario)
        write_capture(memory, tmp_path / "cap.bin")
        want = result_bytes(calibrate_scenario(memory, scenario))
        with open_capture(tmp_path / "cap.bin") as capture:
            assert result_bytes(calibrate_scenario(capture, scenario)) == want

    def test_codes_and_read_capture_agree(self, tmp_path):
        memory = simulate_scenario(scenario_of("fig7", _CHUNK + 10))
        path = tmp_path / "cap.bin"
        write_capture(memory, path)
        back = read_capture(path)
        assert back.interleaved.tobytes() == memory.interleaved.tobytes()
        with open_capture(path) as capture:
            for lo, hi in [(0, 5), (3, 100), (50, _CHUNK + 10), (0, None),
                           (_CHUNK, 10 ** 9), (7, 7)]:
                got = capture.codes(lo, hi)
                assert not got.flags.writeable
                assert got.tobytes() == memory.codes(lo, hi).tobytes()


def test_a_pipe_is_read_whole(tmp_path):
    """A pipe, whose size cannot be checked against the header, is read
    whole when it is opened: the commands give the file's output."""
    path = simulate_file(tmp_path, scenario_of("fig6", _CHUNK + 999))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    want = run("calibrate", path)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        got = run("calibrate", fifo, "--config", path.with_suffix(".cfg"))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == want


class TestRangeErrors:
    """A code outside the word anywhere in the payload is exit 3 with the
    reader's message and byte offset, and nothing on stdout."""

    N = 2 * _CHUNK + 999  # samples per channel: the last chunk is short

    @pytest.fixture(scope="class")
    def capture_file(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("range")
        return simulate_file(tmp_path, scenario_of("fig6", self.N))

    @pytest.mark.parametrize("command", [
        ("calibrate", "--mode", "truth"), ("calibrate", "--mode", "est"),
        ("calibrate", "--mode", "truth", "--out"), ("spectrum",),
        ("estimate",)], ids=lambda c: "-".join(c).replace("--", ""))
    @pytest.mark.parametrize("where", ["first", "last", "history"])
    def test_exit_3_names_the_code(self, tmp_path, capture_file, command,
                                   where):
        # the first chunk's sample 5; the last sample, in the short last
        # block; the last sample of the first chunk, which the second
        # chunk reads as history
        sample = {"first": 5, "last": 2 * self.N - 1,
                  "history": 2 * _CHUNK - 1}[where]
        path = tmp_path / capture_file.name
        raw = bytearray(capture_file.read_bytes())
        offset = HEADER_SIZE + 2 * sample
        raw[offset:offset + 2] = struct.pack("<h", -2049)
        path.write_bytes(bytes(raw))
        (tmp_path / "fig6_capture.cfg").write_text(
            capture_file.with_suffix(".cfg").read_text())
        argv = list(command)
        if argv[-1] == "--out":
            argv.append(tmp_path / "out")
        code, out, err = run(argv[0], path, *argv[1:])
        assert (code, out) == (3, "")
        assert err == (f"data format error: code -2049 at sample {sample} "
                       f"outside 12-bit range (byte offset {offset})\n")


    @pytest.mark.parametrize("flags", [
        ("--config", "fig7"),               # five channels, not two
        ("--taps", 10 ** 6),                # more taps than samples
        ("--mode", "est", "--freq", 0.25),  # the alias on a band edge
    ], ids=["channels", "taps", "freq"])
    def test_a_bad_code_comes_before_any_other_error(self, tmp_path,
                                                     capture_file, flags):
        # calibrate reads the rest of the file for a bad code before it
        # reports an error found without it, as when it read the file
        # whole first
        sample = 2 * self.N - 1
        path = tmp_path / capture_file.name
        (tmp_path / "fig6_capture.cfg").write_text(
            capture_file.with_suffix(".cfg").read_text())
        raw = bytearray(capture_file.read_bytes())
        path.write_bytes(bytes(raw))
        assert run("calibrate", path, *flags)[0] == 2  # the other error
        raw[-2:] = struct.pack("<h", 2048)
        path.write_bytes(bytes(raw))
        code, out, err = run("calibrate", path, *flags)
        assert (code, out) == (3, "")
        assert err == (f"data format error: code 2048 at sample {sample} "
                       f"outside 12-bit range (byte offset "
                       f"{HEADER_SIZE + 2 * sample})\n")

    def test_a_fit_error_before_a_bad_code(self, tmp_path, capture_file):
        # est mode fits block 3 before it reads the bad last code: the
        # code's error is still the one reported
        codes = np.frombuffer(capture_file.read_bytes()[HEADER_SIZE:],
                              dtype="<i2").copy()
        codes[2 * 4096 * 3 + 1:2 * 4096 * 4:2] = 17  # channel 1, block 3
        path = tmp_path / capture_file.name
        header = capture_file.read_bytes()[:HEADER_SIZE]
        path.write_bytes(header + codes.tobytes())
        code, _, err = run("calibrate", path, "--mode", "est")
        assert (code, err) == (4, "numeric failure: block 3 channel 1 is "
                                  "constant and has no sine component\n")
        codes[-1] = -4000
        path.write_bytes(header + codes.tobytes())
        code, out, err = run("calibrate", path, "--mode", "est")
        assert (code, out) == (3, "")
        assert err.startswith("data format error: code -4000 at sample ")


class TestChangedFile:
    def test_a_size_change_between_passes_is_a_format_error(self, tmp_path):
        memory = simulate_scenario(scenario_of("fig6", 2 * _CHUNK))
        path = tmp_path / "cap.bin"
        write_capture(memory, path)
        with open_capture(path) as capture:
            pieces = calibrate_capture(capture, filterbank.FilterBank.identity(
                2, filterbank.FilterSpec(30)))
            next(pieces)
            with open(path, "ab") as fh:
                fh.write(b"\0\0")
            with pytest.raises(DataFormatError, match=(
                    rf"^payload: expected {2 * len(memory.interleaved)} "
                    rf"bytes, got {2 * len(memory.interleaved) + 2} \(byte "
                    rf"offset {HEADER_SIZE}\)$")):
                next(pieces)

    def test_a_truncated_file_is_a_format_error(self, tmp_path):
        memory = simulate_scenario(scenario_of("fig6", 2 * _CHUNK))
        path = tmp_path / "cap.bin"
        write_capture(memory, path)
        with open_capture(path) as capture:
            capture.codes(0, 10)
            os.truncate(path, HEADER_SIZE + 100)
            with pytest.raises(DataFormatError, match="^payload: expected "):
                capture.codes(_CHUNK, _CHUNK + 10)

    def test_the_codes_are_not_writable(self, tmp_path):
        memory = simulate_scenario(scenario_of("fig6", 4096))
        write_capture(memory, tmp_path / "cap.bin")
        with open_capture(tmp_path / "cap.bin") as capture:
            with pytest.raises(ValueError, match="read-only"):
                capture.codes(0, 10)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            memory.interleaved[1000] = 2 ** 11

    def test_a_capture_holds_a_read_only_view(self):
        codes = np.zeros(4096, dtype=np.int64)
        capture = ChannelCapture(load_scenario("fig6").config, codes)
        with pytest.raises(ValueError, match="read-only"):
            capture.interleaved[1000] = 2 ** 55 + 1
        assert capture.interleaved.base is codes


class TestCommandMemory:
    """Every command that makes or reads a capture file holds the same
    memory, within 1 MiB, at 1M and at 4M samples: the capture is never
    held whole."""

    SIZES = (1 << 20, 1 << 22)

    @pytest.fixture(scope="class")
    def captures(self, tmp_path_factory):
        paths = {}
        for n in self.SIZES:
            tmp_path = tmp_path_factory.mktemp(f"n{n}")
            paths[n] = simulate_file(tmp_path, replace(
                load_scenario("fig6"), n_samples=n))
        return paths

    @staticmethod
    def peak(argv) -> int:
        """tracemalloc's peak of one command beyond what was held before."""
        run(*argv)  # first-call caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, _, err = run(*argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0, err
        return peak

    @pytest.mark.parametrize("command", [
        ("calibrate", "--mode", "truth"), ("calibrate", "--mode", "est"),
        ("spectrum",), ("estimate",)],
        ids=lambda c: "-".join(c).replace("--", ""))
    def test_reading_commands(self, tmp_path, captures, monkeypatch,
                              command):
        # calibrate --out replays the whole calibrated stream from the
        # file; formatting it as text, _CSV_CHUNK samples at a time, would
        # take most of a minute under tracemalloc, so the pieces are read
        # and dropped instead
        monkeypatch.setattr(cli, "_write_calibrated_csv",
                            lambda path, pieces: all(map(len, pieces)))
        peaks = [self.peak([command[0], captures[n], *command[1:], "--out",
                            tmp_path / str(n)]) for n in self.SIZES]
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks

    def test_simulate(self, tmp_path):
        peaks = []
        for n in self.SIZES:
            config = tmp_path / f"n{n}.cfg"
            config.write_text(scenario_to_text(replace(
                load_scenario("fig6"), n_samples=n)))
            peaks.append(self.peak(["simulate", "--config", config, "--out",
                                    tmp_path / str(n)]))
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
