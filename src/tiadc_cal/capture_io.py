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
constructor checks them, and read_capture reports a code outside the range
with its byte offset. Captures with B > 16 cannot be stored in this
format. read_capture reads a regular file's payload once, straight into
the capture's one code array: a writable little-endian int16 array in the
file's interleaved order, which nothing widens before the calibrator. A
pipe, which has no size to check the header against, is read whole first.

The header holds no full_scale, so read_capture's config has the default
1.0; a caller that knows the converter's full scale (the estimate and
calibrate commands, from --config or the scenario sidecar) scales the
codes with its own config, through ChannelCapture.with_config.
"""

import os
import stat
import struct

import numpy as np

from .errors import ConfigError, DataFormatError
from .model import ChannelCapture, TiadcConfig, _first_code_outside

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
    config = capture.config
    check_bits(config.bits)
    codes = capture.interleaved
    header = _HEADER.pack(MAGIC, VERSION, config.n_channels, config.bits,
                          float(config.fs), len(codes))
    with open(path, "wb") as fh:
        fh.write(header)
        # no copy for contiguous int16 codes, the simulator's and reader's
        fh.write(np.ascontiguousarray(codes, dtype="<i2"))


def read_capture(path) -> ChannelCapture:
    """Parse a capture file, validating header and payload byte-exactly.
    A regular file's payload is read once, straight into the capture's
    code array."""
    with open(path, "rb") as fh:
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
        expected = 2 * count
        info = os.fstat(fh.fileno())
        # a pipe has no size: its payload is read whole to learn it
        rest = None if stat.S_ISREG(info.st_mode) else fh.read()
        actual = info.st_size - HEADER_SIZE if rest is None else len(rest)
        if actual != expected:
            raise DataFormatError(
                f"payload: expected {expected} bytes, got {actual} "
                f"(byte offset {HEADER_SIZE})")
        if count % n_channels:
            raise DataFormatError(
                f"sample count {count} not divisible by {n_channels} channels "
                "(byte offset 18)")
        if rest is not None:
            codes = np.frombuffer(rest, dtype="<i2").copy()
        else:
            codes = np.empty(count, dtype="<i2")
            if fh.readinto(codes) != expected:
                raise DataFormatError(
                    f"payload changed while it was read (byte offset "
                    f"{HEADER_SIZE})")
    config = TiadcConfig(n_channels=n_channels, fs=fs, bits=bits)
    try:  # the constructor's one scan is the payload's range check
        return ChannelCapture(config=config, interleaved=codes)
    except ConfigError as err:
        i = _first_code_outside(codes, bits)
        raise DataFormatError(
            f"{err} (byte offset {HEADER_SIZE + 2 * i})") from None
