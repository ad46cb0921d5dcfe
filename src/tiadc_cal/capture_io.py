"""Binary capture-file format for interleaved converter data.

Layout (little-endian, 26-byte header):

    offset 0   4 bytes  magic "TIAD"
    offset 4   u16      format version (currently 1)
    offset 6   u16      channel count M
    offset 8   u16      quantizer bits B (2..16 in this format)
    offset 10  f64      aggregate sample rate fs
    offset 18  u64      total sample count (interleaved)
    offset 26  payload  signed 16-bit codes, interleaved channel order

The payload is exactly 2*sample_count bytes. Codes must lie within the
B-bit two's-complement range, which every ChannelCapture's codes do: its
constructor checks them, and the payload reader reports a code outside the
range with its byte offset. Captures with B > 16 cannot be stored in this
format.

The payload is read by one reader, _Payload, a range of channel samples at
a time: it reads the codes of every channel from one sample to another
into one reused int16 buffer, and range-checks exactly the codes it read.
A range that starts inside the one it read last keeps that overlap, such
as a calibration chunk's N-1 samples of history, and reads only the rest,
so a pass over the file reads and checks each code once. It checks the
file's size before every read: a file whose size has changed since its
header was checked raises DataFormatError.

open_capture gives a CaptureFile, a capture whose codes stay in the file:
its codes(lo, hi), the accessor ChannelCapture shares, reads them through
the reader, so a command that calibrates or measures a capture file holds
one chunk of it, whatever its length. read_capture builds the in-memory
ChannelCapture, whose codes are a read-only int16 array in the file's
interleaved order, read through the same reader straight into that array.
A pipe, which has no size to check the header against, is read whole
first, either way.

The header holds no full_scale, so the capture's config has the default
1.0; a caller that knows the converter's full scale (the estimate and
calibrate commands, from --config or the scenario sidecar) scales the
codes with its own config, through with_config.
"""

import os
import stat
import struct

import numpy as np

from .errors import DataFormatError
from .model import (ChannelCapture, TiadcConfig, _check_same_word,
                    _first_code_outside)

MAGIC = b"TIAD"
VERSION = 1
_HEADER = struct.Struct("<4sHHHdQ")
HEADER_SIZE = _HEADER.size  # 26
MAX_BITS = 16  # the payload's codes are signed 16-bit


def check_bits(bits: int, error=DataFormatError) -> None:
    """Raise error unless bits-bit codes fit the payload."""
    if bits > MAX_BITS:
        raise error(f"{bits}-bit codes do not fit the {MAX_BITS}-bit "
                    "payload format")


def write_capture(capture: ChannelCapture, path) -> None:
    """Serialize a capture; inverse of read_capture. A capture of more
    than MAX_BITS bits raises DataFormatError, and no file is written."""
    codes = capture.interleaved
    write_chunks(path, capture.config, len(codes), [codes])


def write_chunks(path, config: TiadcConfig, count: int, chunks) -> None:
    """Write a capture file of count codes under config: the interleaved
    codes of the arrays in chunks, count in all, one after the other, such
    as model.simulate_chunks' reused buffer, each written before the next
    is read. Codes of more than MAX_BITS bits raise DataFormatError, and
    no file is written."""
    check_bits(config.bits)
    header = _HEADER.pack(MAGIC, VERSION, config.n_channels, config.bits,
                          float(config.fs), count)
    with open(path, "wb") as fh:
        fh.write(header)
        for codes in chunks:
            # no copy for contiguous int16 codes, the simulator's and reader's
            fh.write(np.ascontiguousarray(codes, dtype="<i2"))


class CaptureFile:
    """A capture whose codes stay in its file: the config from the header
    (or a scenario's, through with_config) and codes(lo, hi), the accessor
    that ChannelCapture shares, read through the file's payload reader.

    Every codes() call range-checks the codes it reads (DataFormatError
    with the byte offset of the first outside the word), and the view it
    returns is the reader's one buffer: read-only, and valid until the
    next call on this file. A pass reads the file again, so the file must
    stay open and unchanged while the capture is read: a ScenarioResult's
    replay() of a CaptureFile reads it once more. Close it, or use it as a
    context manager; one thread at a time reads it.
    """

    def __init__(self, config: TiadcConfig, payload: "_Payload"):
        self.config = config
        self._payload = payload

    @property
    def n_per_channel(self) -> int:
        return self._payload.n_per_channel

    def with_config(self, config: TiadcConfig) -> "CaptureFile":
        """The same file under config, which must have this capture's
        channel count and bits (ConfigError otherwise)."""
        _check_same_word(self.config, config)
        return CaptureFile(config, self._payload)

    def codes(self, lo: int = 0, hi: int = None) -> np.ndarray:
        """The interleaved codes of channel samples lo to hi (default: to
        the end), as ChannelCapture.codes gives them."""
        n = self.n_per_channel
        lo = min(lo, n)
        return self._payload.codes(lo, n if hi is None else
                                   min(max(hi, lo), n))

    def close(self) -> None:
        self._payload.close()

    def __enter__(self) -> "CaptureFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Payload:
    """The payload reader of one capture file: reads the codes of channel
    samples lo to hi into one reused int16 buffer and range-checks exactly
    the codes it read. A pipe's payload, read whole when the file is
    opened, is held as the buffer instead and checked once."""

    def __init__(self, fh, n_channels: int, bits: int, count: int,
                 whole: np.ndarray = None):
        self._fh = fh
        self._M = n_channels
        self._bits = bits
        self._count = count
        self.n_per_channel = count // n_channels
        if whole is not None:
            self._check(whole, 0)
            self._buffer, self._span = whole, (0, self.n_per_channel)
        else:
            self._buffer, self._span = np.empty(0, dtype="<i2"), (0, 0)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def read_all(self) -> np.ndarray:
        """Every code, range-checked: read straight into a fresh array,
        or a pipe's payload, already read and checked."""
        if self._fh is None:
            return self._buffer
        codes = np.empty(self._count, dtype="<i2")
        self.readinto(0, codes)
        return codes

    def codes(self, lo: int, hi: int) -> np.ndarray:
        """The interleaved codes of channel samples lo to hi, a read-only
        view of the buffer. A range within the one read last is not read
        again; one that starts within it keeps the overlap and reads the
        rest."""
        M = self._M
        start, stop = self._span
        if not start <= lo <= hi <= stop:
            # the samples from lo on that the buffer holds already
            keep = max(stop - lo, 0) if start <= lo else 0
            old = self._buffer
            if len(old) < (hi - lo) * M:
                self._buffer = np.empty((hi - lo) * M, dtype="<i2")
            self._buffer[:keep * M] = old[(lo - start) * M:
                                          (lo - start + keep) * M]
            self._span = (0, 0)  # nothing is held until the read is checked
            self.readinto((lo + keep) * M,
                          self._buffer[keep * M:(hi - lo) * M])
            self._span = (lo, hi)
            start = lo
        view = self._buffer[(lo - start) * M:(hi - start) * M].view()
        view.flags.writeable = False
        return view

    def readinto(self, first: int, out: np.ndarray) -> None:
        """Read the len(out) codes from interleaved sample first into out,
        a contiguous int16 array, and range-check them."""
        size = os.fstat(self._fh.fileno()).st_size - HEADER_SIZE
        _check_size(2 * self._count, size)
        self._fh.seek(HEADER_SIZE + 2 * first)
        view = memoryview(out).cast("B")
        got = 0
        while got < len(view):
            n = self._fh.readinto(view[got:])
            if not n:
                raise DataFormatError(
                    f"payload changed while it was read (byte offset "
                    f"{HEADER_SIZE})")
            got += n
        self._check(out, first)

    def _check(self, codes: np.ndarray, first: int) -> None:
        """DataFormatError naming the first of codes, from interleaved
        sample first, outside the bits-bit word, with its byte offset."""
        i = _first_code_outside(codes, self._bits)
        if i is not None:
            k = first + i
            raise DataFormatError(
                f"code {codes[i]} at sample {k} outside {self._bits}-bit "
                f"range (byte offset {HEADER_SIZE + 2 * k})")


def _check_size(expected: int, actual: int) -> None:
    if actual != expected:
        raise DataFormatError(
            f"payload: expected {expected} bytes, got {actual} "
            f"(byte offset {HEADER_SIZE})")


def open_capture(path) -> CaptureFile:
    """Open a capture file, validating its header and payload size
    byte-exactly; the codes are read, and range-checked, as the returned
    CaptureFile's codes() asks for them. A pipe is read, and checked,
    whole here."""
    fh = open(path, "rb", buffering=0)
    try:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise DataFormatError(
                f"truncated header: need {HEADER_SIZE} bytes, got "
                f"{len(header)} (byte offset 0)")
        magic, version, n_channels, bits, fs, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataFormatError(f"bad magic {magic!r} (byte offset 0)")
        if version != VERSION:
            raise DataFormatError(
                f"unsupported version {version} (byte offset 4)")
        if n_channels < 2:
            raise DataFormatError(
                f"channel count {n_channels} must be >= 2 (byte offset 6)")
        if not 2 <= bits <= MAX_BITS:
            raise DataFormatError(
                f"bits {bits} outside 2..{MAX_BITS} (byte offset 8)")
        if not (fs > 0 and np.isfinite(fs)):
            raise DataFormatError(
                f"sample rate {fs} not positive (byte offset 10)")
        info = os.fstat(fh.fileno())
        # a pipe has no size: its payload is read whole to learn it
        rest = None if stat.S_ISREG(info.st_mode) else fh.readall()
        _check_size(2 * count, info.st_size - HEADER_SIZE if rest is None
                    else len(rest))
        if count % n_channels:
            raise DataFormatError(
                f"sample count {count} not divisible by {n_channels} channels "
                "(byte offset 18)")
        if rest is not None:
            fh.close()
            fh, rest = None, np.frombuffer(rest, dtype="<i2")
        config = TiadcConfig(n_channels=n_channels, fs=fs, bits=bits)
        return CaptureFile(config, _Payload(fh, n_channels, bits, count,
                                            rest))
    except BaseException:
        if fh is not None:
            fh.close()
        raise


def read_capture(path) -> ChannelCapture:
    """Parse a capture file into an in-memory capture, validating header
    and payload byte-exactly. A regular file's payload is read once,
    through the payload reader, straight into the capture's code array."""
    with open_capture(path) as capture:
        codes = capture._payload.read_all()
    return ChannelCapture._of_checked_codes(capture.config, codes)
