"""Channel-level model of an M-way time-interleaved ADC (TIADC).

An M-channel TIADC realizes an aggregate rate fs by rotating through M
sub-ADCs, each converting at fs/M. Real converter channels disagree slightly:
channel m applies a gain error (1 + dg_m), samples at a skewed instant
(k*M + m + dt_m)*Ts instead of the nominal grid point, and adds a constant
offset do_m. This module synthesizes such captures with a saturating
mid-rise quantizer. A capture keeps its codes in one interleaved array of
their narrowest integer type (int16 up to 16 bits, int32 above); channel m
is its stride-M slice, and ChannelCapture.per_channel shows all M of them as
the rows of one view. Only the chunk kernel filterbank._chunk_sums widens
codes, a window of one batch of its frames at a time, for its exact
accumulation.

A row's sine comes by angle addition (_angle_sum, which sinefit's
four-parameter fit shares): sample k = _SPLIT*q + r takes sin(a_q + b_r) =
sin a_q cos b_r + cos a_q sin b_r from a coarse angle a_q, the model's
argument at the absolute sample k = _SPLIT*q, and a fine angle b_r =
(omega*M)*r. Two tables of sin and cos and two outer products replace a
sine per sample, and every sample depends only on the tone, the profile,
the channel and k, so the codes do not depend on how a capture is cut into
chunks.

The simulation has one chunk loop and two sinks: simulate_capture runs it
straight into the capture's code array, and simulate_chunks yields each
chunk from one reused buffer, which the simulate command writes to its
capture file (capture_io.write_chunks) before the next chunk overwrites
it, so that command never holds the capture. A capture is read through
one accessor, codes(lo, hi), which ChannelCapture and the file-backed
capture_io.CaptureFile share, so every code reader takes either.

The simulation and the calibration driver (filterbank._calibrated_pieces)
run their chunks one after another on the calling thread, so the memory
beyond the codes is one chunk's: a float64 row of _CHUNK samples, the
quantizer's scratch of an eighth of it, and the smaller angle tables. A
pool of worker threads gained the end-to-end benchmarks nothing on a
2-vCPU host and spent more CPU time than one thread, since every numpy
call of a worker releases and retakes the GIL; the calibration's
matrix-product kernel ran no faster on two workers than on one.
"""

import copy
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

MAX_CHANNELS = 0xFFFF  # the capture header's u16 channel count

# samples per channel that simulate_capture and filterbank.calibrate_capture
# handle at a time: the working set stays in cache and temporary memory does
# not grow with the capture
_CHUNK = 1 << 16
# the most multiply-adds of one matrix product: OpenBLAS runs a product of
# up to 2^18 on the calling thread alone and spreads a larger one over
# threads of its own, which made 1024-frame products five times slower on
# a 2-vCPU host
_PRODUCT_MACS = 1 << 18
# angle addition (_angle_sum): sample k = _SPLIT*q + r takes its sine from
# a coarse angle a_q and a fine angle b_r
_SPLIT = 256


def _integer(name: str, value) -> int:
    """value as a Python int: ConfigError unless it is a Python or numpy
    integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_integers(record, *names) -> None:
    """Store the named fields of a frozen dataclass record as Python ints
    (_integer)."""
    for name in names:
        object.__setattr__(record, name, _integer(name, getattr(record, name)))


@dataclass(frozen=True)
class TiadcConfig:
    """Static converter description.

    n_channels is M, fs the aggregate rate (Ts = 1/fs), bits the quantizer
    word length B, full_scale the input amplitude mapped to the top code.
    The LSB, full_scale / 2^(B-1), must be a normal float, so that it
    scales codes without losing bits.
    """

    n_channels: int
    fs: float = 1.0
    bits: int = 12
    full_scale: float = 1.0

    def __post_init__(self):
        _require_integers(self, "n_channels", "bits")
        if not 2 <= self.n_channels <= MAX_CHANNELS:
            raise ConfigError(f"channel count must be in 2..{MAX_CHANNELS}, "
                              f"got {self.n_channels}")
        if not 2 <= self.bits <= 24:
            raise ConfigError(f"bits must be in 2..24, got {self.bits}")
        if not 0 < self.fs < math.inf:
            raise ConfigError(f"fs must be positive and finite, got {self.fs}")
        if not 0 < self.full_scale < math.inf:
            raise ConfigError(
                f"full_scale must be positive and finite, got {self.full_scale}")
        # full_scale / 2^(bits-1) at or above the smallest normal float,
        # compared exactly: a quotient that only rounds up to it is not exact
        if self.full_scale < math.ldexp(sys.float_info.min, self.bits - 1):
            raise ConfigError(
                f"full_scale {self.full_scale} at {self.bits} bits puts the "
                f"LSB, full_scale / 2^{self.bits - 1}, below the smallest "
                f"normal float {sys.float_info.min}")

    @property
    def code_half_range(self) -> int:
        return 1 << (self.bits - 1)

    @property
    def lsb(self) -> float:
        return self.full_scale / self.code_half_range


@dataclass(frozen=True)
class ToneSpec:
    """Single-tone test input x(t) = dc + A*sin(2*pi*f*t + phase)."""

    amplitude: float
    freq_rel: float
    phase: float = 0.0
    dc: float = 0.0

    def __post_init__(self):
        if not 0 < self.freq_rel < 0.5:
            raise ConfigError(f"freq_rel must be in (0, 0.5), got {self.freq_rel}")
        if not 0 < self.amplitude < math.inf:
            raise ConfigError(
                f"amplitude must be positive and finite, got {self.amplitude}")
        if not (math.isfinite(self.phase) and math.isfinite(self.dc)):
            raise ConfigError(
                f"phase and dc must be finite, got {self.phase}, {self.dc}")


@dataclass(frozen=True)
class MismatchProfile:
    """Per-channel ground-truth (or estimated) mismatch triplet.

    offsets in full-scale units, gains dimensionless, skews in units of Ts.
    """

    offsets: tuple
    gains: tuple
    skews: tuple

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(float(v) for v in self.offsets))
        object.__setattr__(self, "gains", tuple(float(v) for v in self.gains))
        object.__setattr__(self, "skews", tuple(float(v) for v in self.skews))
        n = len(self.offsets)
        if len(self.gains) != n or len(self.skews) != n:
            raise ConfigError("offsets, gains, skews must have equal length")
        if not all(map(math.isfinite, self.offsets + self.gains + self.skews)):
            raise ConfigError("offsets, gains and skews must be finite")
        # |dg|, |dt| < 0.5 keeps the mismatch model (and phase unwrap) valid
        if any(abs(g) >= 0.5 for g in self.gains):
            raise ConfigError("gain mismatch magnitude must be < 0.5")
        if any(abs(t) >= 0.5 for t in self.skews):
            raise ConfigError("skew mismatch magnitude must be < 0.5")

    @classmethod
    def zero(cls, n_channels: int) -> "MismatchProfile":
        z = (0.0,) * n_channels
        return cls(z, z, z)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class ChannelCapture:
    """A converter's interleaved integer codes and the config they came from.

    interleaved is the 1-D code array, sample k*M + m from channel m, of
    any integer type: simulate_capture and read_capture give int16 (int32
    for more than 16 bits), and nothing widens it before the chunk kernel
    filterbank._chunk_sums. The capture stores a read-only view of the
    codes it is given, so writing through interleaved raises ValueError.
    per_channel is not stored: it is the (M, n_per_channel) view of the
    same memory, row m being channel m.

    Every code must lie in the config's word, [-2^(bits-1), 2^(bits-1) - 1]
    (ConfigError naming the first that does not, after one min/max pass).
    The chunk kernel bounds its sums from that word alone, so the codes
    must not be changed once the capture is built: the view is read-only,
    and the array it was built from must not be written either. with_config
    keeps the codes and the bits, and checks nothing again.

    codes(lo, hi) is how the library reads a capture: it is the accessor
    that capture_io.CaptureFile, a capture whose codes stay in its file,
    shares, so every code reader takes either.
    """

    config: TiadcConfig
    interleaved: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.interleaved)
        if codes.dtype.kind not in "iu":
            raise ConfigError(f"codes must be integers, got dtype {codes.dtype}")
        if codes.ndim != 1:
            raise ShapeError(f"interleaved codes must be 1-D, got shape "
                             f"{codes.shape}")
        if len(codes) % self.config.n_channels:
            raise ShapeError(f"{len(codes)} codes not divisible by "
                             f"{self.config.n_channels} channels")
        bad = _first_code_outside(codes, self.config.bits)
        if bad is not None:
            raise ConfigError(f"code {codes[bad]} at sample {bad} outside "
                              f"{self.config.bits}-bit range")
        object.__setattr__(self, "interleaved", _read_only(codes))

    @classmethod
    def _of_checked_codes(cls, config: TiadcConfig,
                          codes: np.ndarray) -> "ChannelCapture":
        """The capture of codes, a 1-D int16 array of a multiple of
        config's channel count that a reader has already checked against
        config's word, built without a second scan."""
        capture = object.__new__(cls)
        object.__setattr__(capture, "config", config)
        object.__setattr__(capture, "interleaved", _read_only(codes))
        return capture

    def with_config(self, config: TiadcConfig) -> "ChannelCapture":
        """The same codes under config, which must have this capture's
        channel count and bits (ConfigError otherwise). A capture file
        stores no full_scale: a scenario's config supplies it."""
        _check_same_word(self.config, config)
        capture = copy.copy(self)  # the codes are not scanned again
        object.__setattr__(capture, "config", config)
        return capture

    def codes(self, lo: int = 0, hi: int = None) -> np.ndarray:
        """The interleaved codes of channel samples lo to hi (default: to
        the end), interleaved[lo*M:hi*M]: a read-only view, code k*M + m
        being channel m's sample lo + k. Its .reshape(-1, M).T is the
        (M, hi - lo) per-channel view."""
        M = self.config.n_channels
        return self.interleaved[lo * M:None if hi is None else hi * M]

    @property
    def per_channel(self) -> np.ndarray:
        """(M, n_per_channel) view of interleaved: row m is channel m."""
        return self.interleaved.reshape(-1, self.config.n_channels).T

    @property
    def n_per_channel(self) -> int:
        return len(self.interleaved) // self.config.n_channels


def _read_only(codes: np.ndarray) -> np.ndarray:
    """A read-only view of codes."""
    view = codes.view()
    view.flags.writeable = False
    return view


def _check_same_word(mine: TiadcConfig, config: TiadcConfig) -> None:
    """ConfigError unless config has mine's channel count and bits: the
    rule of a capture's with_config."""
    if (config.n_channels, config.bits) != (mine.n_channels, mine.bits):
        raise ConfigError(
            f"scenario has {config.n_channels} channels of {config.bits} "
            f"bits, capture has {mine.n_channels} of {mine.bits}")


def _first_code_outside(codes: np.ndarray, bits: int):
    """The index of the first code outside the bits-bit two's-complement
    range, or None after one min/max pass when every code fits."""
    half = 1 << (bits - 1)
    if len(codes) == 0 or (codes.min() >= -half and codes.max() < half):
        return None
    return int(np.argmax((codes < -half) | (codes >= half)))


def sample_channels(tone: ToneSpec, config: TiadcConfig,
                    profile: MismatchProfile, n_per_channel: int) -> np.ndarray:
    """Sample the tone through the mismatched channel model, pre-quantization.

    Parameters
    ----------
    tone : ToneSpec
        Input sine definition; freq_rel is a fraction of fs.
    config : TiadcConfig
        Converter geometry (only n_channels is used here).
    profile : MismatchProfile
        Per-channel offset/gain/skew triplets, length n_channels.
    n_per_channel : int
        Samples to produce for each channel.

    Returns
    -------
    ndarray of shape (n_channels, n_per_channel)
        Row m is channel m: sample k equals
        (1 + dg_m) * x((k*M + m + dt_m)*Ts) + do_m. Each row is the
        whole-record case of the rows that simulate_capture samples a
        chunk at a time (_sample_row), so the two agree bit for bit.
    """
    _check_sampling(config, profile, n_per_channel)
    out = np.empty((config.n_channels, n_per_channel))
    for m, row in enumerate(out):
        _sample_row(tone, profile, m, 0, row)
    return out


def _check_sampling(config: TiadcConfig, profile: MismatchProfile,
                    count) -> None:
    """ConfigError unless profile has config's channel count and count, a
    number of samples, is a positive integer (_integer)."""
    M = config.n_channels
    if len(profile) != M:
        raise ConfigError(
            f"profile has {len(profile)} channels, config expects {M}")
    if _integer("sample count", count) < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")


def _sample_row(tone: ToneSpec, profile: MismatchProfile, m: int,
                first: int, row: np.ndarray) -> np.ndarray:
    """Write channel m's samples k = first, first + 1, ... into row, a
    contiguous float array whose contents are not read.

    The sine comes by angle addition (_angle_sum) over k = _SPLIT*q + r:
    coarse angles at every _SPLIT-th absolute k, by the formula below,
    and fine angles (omega*M)*r. So every sample depends only on the
    tone, the profile, m and k, not on where a chunk of the row starts
    or ends."""
    M = len(profile)
    omega = 2.0 * np.pi * tone.freq_rel
    q, lead = divmod(first, _SPLIT)
    # the operations, in order, of
    # (1 + dg) * (dc + A * sin(omega * (k*M + m + dt) + phase)) + do,
    # the sine's argument taken at k = _SPLIT*q only
    coarse = np.arange(q, -(-(first + len(row)) // _SPLIT), dtype=float)
    coarse *= _SPLIT * M
    coarse += m
    coarse += profile.skews[m]  # t in units of Ts
    coarse *= omega
    coarse += tone.phase
    _angle_sum(coarse, (omega * M) * np.arange(_SPLIT, dtype=float), lead,
               row)
    row *= tone.amplitude
    row += tone.dc
    row *= 1.0 + profile.gains[m]
    row += profile.offsets[m]
    return row


def _angle_sum(a, b, lead: int, sin_out, cos_out=None) -> None:
    """Write sin(a[q] + b[r]) into sin_out[i], and cos(a[q] + b[r]) into
    cos_out[i] when it is given, for lead + i = q*len(b) + r, by angle
    addition: sin a_q cos b_r + cos a_q sin b_r and cos a_q cos b_r -
    sin a_q sin b_r, two outer products each. The outputs are contiguous
    1-D float arrays of one length n, and a has one entry for each row q
    of the (q, r) grid that they reach, ceil((lead + n)/len(b)) in all.

    An output's two outer products and their sum are one einsum
    contraction of a (q, 2) table of a's sines and cosines with the
    (2, r) table of b's cosines and sines, written straight into the
    grid rows that lie wholly inside the output; a row that an end of
    the output cuts is made in a row of its own and copied in. So no
    scratch of the output's size is needed. einsum rounds each product
    and then their sum, as np.multiply.outer and np.add do, where
    numpy's SIMD baseline has no fused multiply-add (x86-64-v2, say); a
    build whose baseline fuses them rounds the sum once instead."""
    sin_a, cos_a = np.sin(a), np.cos(a)
    fine = np.array([np.cos(b), np.sin(b)])
    terms = [(sin_out, np.stack([sin_a, cos_a], axis=1))]
    if cos_out is not None:
        terms.append((cos_out, np.stack([cos_a, -sin_a], axis=1)))
    span, n = len(b), len(sin_out)
    cut = np.empty((1, span))
    whole = range(-(-lead // span), (lead + n) // span)
    edges = sorted({0, len(a), *whole[:1], whole.stop})
    for q0, q1 in zip(edges, edges[1:]):
        lo, hi = q0 * span - lead, q1 * span - lead  # output indices
        for out, coarse in terms:
            rows = (out[lo:hi].reshape(q1 - q0, span)
                    if q0 in whole else cut)
            np.einsum("qk,kr->qr", coarse[q0:q1], fine, out=rows)
            if q0 not in whole:
                out[max(lo, 0):min(hi, n)] = \
                    cut[0, max(-lo, 0):min(hi, n) - lo]


def _quantize_in_place(samples: np.ndarray, config: TiadcConfig) -> np.ndarray:
    """quantize_stream's codes as integral floats, computed in the
    C-contiguous float array samples, which they overwrite.

    One division by the LSB scales a sample to LSB units: the LSB is a
    normal float (TiadcConfig's rule) and full_scale over a power of two,
    so this gives the codes of x / full_scale * 2^(bits-1): the same
    float where x / full_scale is a normal float, and code 0 where it is
    subnormal (both values are then far below half an LSB). The clip to
    the integer bounds comes first, which gives the codes that clipping
    after the rounding would. Rounding half away from zero is trunc(x +
    copysign(0.5, x)), which is sign(x) * floor(|x| + 0.5) exactly, since
    a float sum rounds the same at either sign; the copysign is taken
    through a scratch of _CHUNK // 8 floats, one sub-block at a time. No
    ufunc runs under a where= mask: a masked pass took about ten times as
    long as a plain one."""
    if not samples.flags.c_contiguous:
        raise ValueError("the quantizer works in a C-contiguous array")
    half = config.code_half_range
    with np.errstate(over="ignore"):  # a sample past the float range clips
        samples /= config.lsb
    np.clip(samples, -half, half - 1, out=samples)
    flat = samples.reshape(-1)  # a view, since samples is C-contiguous
    scratch = np.empty(min(flat.size, _CHUNK // 8))
    for i in range(0, flat.size, len(scratch) or 1):
        part = flat[i:i + len(scratch)]
        part += np.copysign(0.5, part, out=scratch[:len(part)])
    return np.trunc(samples, out=samples)


def quantize_stream(samples, config: TiadcConfig) -> np.ndarray:
    """Mid-rise saturating quantizer, round half away from zero. An
    infinite sample saturates; a NaN sample is a ConfigError naming its
    index in the flattened samples."""
    x = np.array(samples, dtype=float, order="C")
    bad = np.flatnonzero(np.isnan(x))
    if bad.size:
        raise ConfigError(f"sample {bad[0]} is not finite: {x.flat[bad[0]]}")
    return _quantize_in_place(x, config).astype(np.int64)


def dequantize_stream(codes, config: TiadcConfig, out=None) -> np.ndarray:
    """Map integer codes back to amplitude units (inverse of the code scale).

    out, if given, is a float64 array of codes' shape that receives the
    amplitudes (the same bits as a fresh result) and is returned."""
    return np.multiply(codes, config.lsb, out=out, dtype=float)


def interleave_channels(per_channel) -> np.ndarray:
    """Merge M equal-length streams into one, sample k*M+m from channel m."""
    lengths = {len(c) for c in per_channel}
    if len(lengths) != 1:
        raise ShapeError(f"ragged channel lengths: {sorted(len(c) for c in per_channel)}")
    M = len(per_channel)
    K = lengths.pop()
    first = np.asarray(per_channel[0])
    out = np.empty(M * K, dtype=first.dtype)
    for m, ch in enumerate(per_channel):
        out[m::M] = ch
    return out


def simulate_capture(tone: ToneSpec, config: TiadcConfig,
                     profile: MismatchProfile, n_total: int) -> ChannelCapture:
    """Full capture: sample through the mismatch model, quantize, interleave.

    The codes are int16 for up to 16 bits and int32 above. simulate_chunks'
    loop makes them straight in the interleaved array, so the memory beyond
    the codes is one chunk's row, the quantizer's scratch of _CHUNK // 8
    floats and the angle tables, whatever the capture's length.
    """
    n = _simulated_length(config, profile, n_total)
    interleaved = np.empty(n_total, dtype=_code_dtype(config.bits))
    for _ in _chunks(tone, config, profile, n, interleaved, reuse=False):
        pass
    return ChannelCapture(config, interleaved)


def simulate_chunks(tone: ToneSpec, config: TiadcConfig,
                    profile: MismatchProfile, n_total: int):
    """simulate_capture's codes, one chunk at a time, in one reused buffer:
    yields the interleaved codes of each _CHUNK samples per channel in
    turn, int16 for up to 16 bits and int32 above, every chunk in the
    buffer that the next one overwrites. A caller writes each chunk out
    before it asks for the next (capture_io.write_chunks), so the memory
    does not grow with the capture. The arguments are checked when this
    is called (ConfigError, ShapeError)."""
    n = _simulated_length(config, profile, n_total)
    buffer = np.empty(min(_CHUNK, n) * config.n_channels,
                      dtype=_code_dtype(config.bits))
    return _chunks(tone, config, profile, n, buffer, reuse=True)


def _simulated_length(config: TiadcConfig, profile: MismatchProfile,
                      n_total) -> int:
    """The samples per channel of a simulated capture of n_total samples;
    ConfigError or ShapeError unless it is one."""
    M = config.n_channels
    _check_sampling(config, profile, n_total)
    if n_total % M:
        raise ShapeError(f"n_total {n_total} not divisible by {M} channels")
    return n_total // M


def _code_dtype(bits: int):
    """The narrowest integer type of bits-bit codes: int16 or int32."""
    return np.int16 if bits <= 16 else np.int32


def _chunks(tone: ToneSpec, config: TiadcConfig, profile: MismatchProfile,
            n: int, out: np.ndarray, reuse: bool):
    """The one simulation loop: make the codes of n samples per channel,
    _CHUNK samples per channel at a time, and yield each chunk's
    interleaved codes, made in out: at the chunk's own place in out, the
    whole capture's array, or at the start of out, a buffer of one chunk,
    when reuse is set.

    The chunks are made on the calling thread, one channel at a time, in
    one float64 row that is quantized in place and written into the
    chunk's codes. A row's sine comes by angle addition from a grid
    anchored at absolute samples (see the module docstring), so the codes
    are the same for any chunk size."""
    M = config.n_channels
    row = np.empty(min(_CHUNK, n))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        first = 0 if reuse else start * M
        codes = out[first:first + (stop - start) * M]
        rows = codes.reshape(-1, M).T
        for m in range(M):
            rows[m] = _quantize_in_place(_sample_row(
                tone, profile, m, start, row[:stop - start]), config)
        yield codes
