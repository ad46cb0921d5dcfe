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
B-bit two's-complement range: write_capture checks them before it opens
the file, and read_capture after it reads it. Captures with B > 16 cannot
be stored in this format. read_capture returns the payload as the
capture's one int64 code array, in the file's interleaved order.

The header holds no full_scale, so read_capture's config has the default
1.0; a caller that knows the converter's full scale (the calibrate
command, from the scenario sidecar) scales the codes with its own config.
"""

import struct

import numpy as np

from .errors import DataFormatError
from .model import ChannelCapture, TiadcConfig

MAGIC = b"TIAD"
VERSION = 1
_HEADER = struct.Struct("<4sHHHdQ")
HEADER_SIZE = _HEADER.size  # 26


def _check_code_range(codes: np.ndarray, bits: int) -> None:
    """DataFormatError naming the first code outside the bits-bit
    two's-complement range; one min/max pass when every code fits."""
    half = 1 << (bits - 1)
    if len(codes) == 0 or (codes.min() >= -half and codes.max() < half):
        return
    i = int(np.argmax((codes < -half) | (codes >= half)))
    raise DataFormatError(
        f"code {codes[i]} at sample {i} outside {bits}-bit range "
        f"(byte offset {HEADER_SIZE + 2 * i})")


def write_capture(capture: ChannelCapture, path) -> None:
    """Serialize a capture; inverse of read_capture. Codes outside the
    config's bit range raise DataFormatError, and no file is written."""
    config = capture.config
    if config.bits > 16:
        raise DataFormatError(
            f"{config.bits}-bit codes do not fit the 16-bit payload format")
    codes = np.asarray(capture.interleaved, dtype=np.int64)
    _check_code_range(codes, config.bits)
    header = _HEADER.pack(MAGIC, VERSION, config.n_channels, config.bits,
                          float(config.fs), len(codes))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(codes.astype("<i2").tobytes())


def read_capture(path) -> ChannelCapture:
    """Parse a capture file, validating header and payload byte-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_SIZE:
        raise DataFormatError(
            f"truncated header: need {HEADER_SIZE} bytes, got {len(blob)} "
            "(byte offset 0)")
    magic, version, n_channels, bits, fs, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r} (byte offset 0)")
    if version != VERSION:
        raise DataFormatError(f"unsupported version {version} (byte offset 4)")
    if n_channels < 2:
        raise DataFormatError(
            f"channel count {n_channels} must be >= 2 (byte offset 6)")
    if not 2 <= bits <= 16:
        raise DataFormatError(f"bits {bits} outside 2..16 (byte offset 8)")
    if not (fs > 0 and np.isfinite(fs)):
        raise DataFormatError(f"sample rate {fs} not positive (byte offset 10)")
    expected = 2 * count
    actual = len(blob) - HEADER_SIZE
    if actual != expected:
        raise DataFormatError(
            f"payload: expected {expected} bytes, got {actual} "
            f"(byte offset {HEADER_SIZE})")
    if count % n_channels:
        raise DataFormatError(
            f"sample count {count} not divisible by {n_channels} channels "
            "(byte offset 18)")
    codes = np.frombuffer(blob, dtype="<i2", offset=HEADER_SIZE).astype(np.int64)
    _check_code_range(codes, bits)
    config = TiadcConfig(n_channels=n_channels, fs=fs, bits=bits)
    return ChannelCapture(config=config, interleaved=codes)
