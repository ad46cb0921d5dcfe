import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiadc_cal import (ConfigError, DataFormatError, MismatchProfile,
                       TiadcConfig, ToneSpec, read_capture, simulate_capture,
                       write_capture)
from tiadc_cal.capture_io import HEADER_SIZE, MAGIC, VERSION


def sample_capture(bits=12, n_channels=2, n_total=64, fs=1.0):
    cfg = TiadcConfig(n_channels=n_channels, bits=bits, fs=fs)
    tone = ToneSpec(amplitude=0.8, freq_rel=0.11, phase=0.3)
    return simulate_capture(tone, cfg, MismatchProfile.zero(n_channels), n_total)


def valid_bytes(path, **kwargs):
    cap = sample_capture(**kwargs)
    write_capture(cap, path)
    return path.read_bytes(), cap


class TestRoundTrip:
    def test_fields_survive(self, tmp_path):
        path = tmp_path / "cap.bin"
        _, cap = valid_bytes(path, bits=12, n_channels=4, n_total=128, fs=1.8e9)
        back = read_capture(path)
        assert back.config.n_channels == 4
        assert back.config.bits == 12
        assert back.config.fs == 1.8e9
        np.testing.assert_array_equal(back.interleaved, cap.interleaved)
        np.testing.assert_array_equal(back.per_channel, cap.per_channel)

    def test_write_read_write_byte_identical(self, tmp_path):
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        raw, _ = valid_bytes(p1, bits=14, n_channels=2, n_total=200)
        write_capture(read_capture(p1), p2)
        assert p2.read_bytes() == raw

    def test_header_layout(self, tmp_path):
        path = tmp_path / "cap.bin"
        raw, cap = valid_bytes(path, bits=12, n_channels=2, n_total=10, fs=2.5)
        assert len(raw) == HEADER_SIZE + 2 * 10
        magic, version, m, bits, fs, count = struct.unpack("<4sHHHdQ", raw[:HEADER_SIZE])
        assert (magic, version, m, bits, count) == (MAGIC, VERSION, 2, 12, 10)
        assert fs == 2.5
        codes = np.frombuffer(raw[HEADER_SIZE:], dtype="<i2")
        np.testing.assert_array_equal(codes, cap.interleaved)

    def test_sixteen_bit_extremes(self, tmp_path):
        # a built capture's codes are read-only: the extremes go into the
        # codes a new capture is built from
        cap = sample_capture(bits=16, n_total=32)
        codes = cap.interleaved.copy()
        codes[:2] = (-32768, 32767)
        cap = type(cap)(config=cap.config, interleaved=codes)
        path = tmp_path / "cap.bin"
        write_capture(cap, path)
        back = read_capture(path)
        assert back.interleaved[0] == -32768
        assert back.interleaved[1] == 32767

    @given(bits=st.integers(2, 16), n_ch=st.sampled_from([2, 3, 5]),
           blocks=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_round_trip(self, tmp_path_factory, bits, n_ch, blocks):
        path = tmp_path_factory.mktemp("rt") / "cap.bin"
        raw, _ = valid_bytes(path, bits=bits, n_channels=n_ch, n_total=n_ch * blocks * 4)
        p2 = path.with_name("again.bin")
        write_capture(read_capture(path), p2)
        assert p2.read_bytes() == raw


class TestMemory:
    """Codes stay int16 from file to capture and back: the payload is read
    once, into the capture's array, and written from it."""

    N_TOTAL = 1 << 20

    @staticmethod
    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_read_peak_is_the_payload(self, tmp_path):
        path = tmp_path / "cap.bin"
        write_capture(sample_capture(n_total=self.N_TOTAL), path)
        cap, peak = self.peak_of(lambda: read_capture(path))
        assert peak - 2 * self.N_TOTAL < 1 << 20

    def test_read_returns_read_only_int16_codes(self, tmp_path):
        # the chunk kernel bounds its sums from the word alone, so a code
        # must not change once the capture's range check has passed
        path = tmp_path / "cap.bin"
        raw, want = valid_bytes(path, n_total=256)
        codes = read_capture(path).interleaved
        assert codes.dtype == np.dtype("<i2") and not codes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            codes[0] += 1
        np.testing.assert_array_equal(codes, want.interleaved)
        assert path.read_bytes() == raw

    def test_pipe_is_read_whole(self, tmp_path):
        """A pipe has no size to check the header against: its payload
        is read to learn it."""
        path = tmp_path / "cap.bin"
        raw, cap = valid_bytes(path, n_total=4096)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,),
                                  daemon=True)
        writer.start()
        try:
            back = read_capture(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(back.interleaved, cap.interleaved)
        assert not back.interleaved.flags.writeable

    def test_write_makes_no_copy_of_int16_codes(self, tmp_path):
        cap = sample_capture(n_total=self.N_TOTAL)
        assert cap.interleaved.dtype == np.int16
        _, peak = self.peak_of(lambda: write_capture(cap, tmp_path / "c.bin"))
        assert peak < 1 << 20


class TestWriteErrors:
    def test_wide_samples_rejected(self, tmp_path):
        cap = sample_capture(bits=16)
        wide = TiadcConfig(n_channels=2, bits=17)
        cap = type(cap)(config=wide, interleaved=cap.interleaved)
        with pytest.raises(DataFormatError):
            write_capture(cap, tmp_path / "cap.bin")

    @pytest.mark.parametrize("bits,code", [(16, 40000), (12, 3000),
                                           (12, -2049)])
    def test_code_outside_bit_range_rejected(self, bits, code):
        # a 16-bit 40000 would wrap to -25536 in the payload: no capture
        # holds it, so none can be written
        cap = sample_capture(bits=bits)
        codes = cap.interleaved.astype(np.int64)
        codes[5] = code
        with pytest.raises(ConfigError, match=f"^code {code} at sample 5 "
                                              f"outside {bits}-bit range$"):
            type(cap)(config=cap.config, interleaved=codes)

    def test_codes_at_the_range_edges_written(self, tmp_path):
        cap = sample_capture(bits=12)
        codes = cap.interleaved.copy()
        codes[:2] = (-2048, 2047)
        path = tmp_path / "cap.bin"
        write_capture(type(cap)(config=cap.config, interleaved=codes), path)
        np.testing.assert_array_equal(read_capture(path).interleaved, codes)


class TestReadErrors:
    def corrupt(self, tmp_path, mutate):
        path = tmp_path / "cap.bin"
        raw, _ = valid_bytes(path)
        path.write_bytes(mutate(bytearray(raw)))
        return path

    def test_bad_magic(self, tmp_path):
        def mutate(raw):
            raw[0:4] = b"JUNK"
            return bytes(raw)
        with pytest.raises(DataFormatError, match="offset 0"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_bad_version(self, tmp_path):
        def mutate(raw):
            raw[4:6] = struct.pack("<H", 9)
            return bytes(raw)
        with pytest.raises(DataFormatError, match="version"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="header"):
            read_capture(self.corrupt(tmp_path, lambda raw: bytes(raw[:12])))

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(DataFormatError, match="128.*(90|bytes)"):
            read_capture(self.corrupt(tmp_path, lambda raw: bytes(raw[:HEADER_SIZE + 90])))

    def test_count_not_divisible_by_channels(self, tmp_path):
        def mutate(raw):
            raw[18:26] = struct.pack("<Q", 63)
            return bytes(raw[:HEADER_SIZE + 2 * 63])
        with pytest.raises(DataFormatError, match="channel"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_code_out_of_range(self, tmp_path):
        def mutate(raw):
            # sample 5 of a 12-bit capture forced to 2048 (max is 2047)
            off = HEADER_SIZE + 2 * 5
            raw[off:off + 2] = struct.pack("<h", 2048)
            return bytes(raw)
        with pytest.raises(DataFormatError,
                           match=r"^code 2048 at sample 5 outside 12-bit "
                                 r"range \(byte offset 36\)$"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_bad_bits_field(self, tmp_path):
        def mutate(raw):
            raw[8:10] = struct.pack("<H", 17)
            return bytes(raw)
        with pytest.raises(DataFormatError, match="bits"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_bad_channel_count(self, tmp_path):
        def mutate(raw):
            raw[6:8] = struct.pack("<H", 1)
            return bytes(raw)
        with pytest.raises(DataFormatError):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_nonpositive_fs(self, tmp_path):
        def mutate(raw):
            raw[10:18] = struct.pack("<d", 0.0)
            return bytes(raw)
        with pytest.raises(DataFormatError, match="fs"):
            read_capture(self.corrupt(tmp_path, mutate))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            read_capture(path)


class TestReaderFuzz:
    """Whatever the bytes, read_capture returns a capture, which writes
    back to the same bytes, or raises DataFormatError; nothing else."""

    @staticmethod
    def valid(tmp_path_factory):
        path = tmp_path_factory.mktemp("valid") / "cap.bin"
        return valid_bytes(path, bits=10, n_channels=3, n_total=24)[0]

    @staticmethod
    def read_or_format_error(tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "cap.bin"
        path.write_bytes(raw)
        try:
            cap = read_capture(path)
        except DataFormatError:
            return
        again = path.with_name("again.bin")
        write_capture(cap, again)
        assert again.read_bytes() == raw

    @given(raw=st.one_of(st.binary(max_size=128),
                         st.binary(max_size=128).map(lambda b: MAGIC + b)))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes(self, tmp_path_factory, raw):
        self.read_or_format_error(tmp_path_factory, raw)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncations(self, tmp_path_factory, data):
        raw = self.valid(tmp_path_factory)
        cut = data.draw(st.integers(0, len(raw)))
        self.read_or_format_error(tmp_path_factory, raw[:cut])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_byte_corruptions(self, tmp_path_factory, data):
        raw = bytearray(self.valid(tmp_path_factory))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
            st.integers(0, 255))
        self.read_or_format_error(tmp_path_factory, bytes(raw))
