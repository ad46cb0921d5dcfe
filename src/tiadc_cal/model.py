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
chunks or on how many workers make them. A chunk task holds one float64
row of _CHUNK samples and the quantizer's sign mask over it; the angle
tables are smaller.

Chunks are independent: simulate_capture hands them to _chunk_map, which
runs them on a persistent pool of one worker thread per CPU the process
may use and gives back their results in chunk order. numpy's ufunc loops
release the GIL, so the chunks' arithmetic can use every core. The chunks
in flight together hold at most _IN_FLIGHT_BYTES, so temporary memory
does not grow with the CPU count either; where the process has one CPU,
the chunks run on the calling thread. The calibration driver
(filterbank._calibrated_pieces) runs its chunks on the calling thread: its
matrix-product kernel ran no faster on two workers than on one, and used
more CPU time.
"""

import math
import numbers
import os
import threading
from collections import deque
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

# _chunk_map's worker threads: one per CPU the process may use
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1
# the memory the chunks in flight may hold together, on any number of
# CPUs: the 4 MiB that simulate_capture's temporaries stay within
_IN_FLIGHT_BYTES = 4 << 20
_POOL = None  # (process id, executor), made on first use
_POOL_LOCK = threading.Lock()


def _require_integers(record, *names) -> None:
    """Store the named fields of a frozen dataclass record as Python ints:
    ConfigError unless each is a Python or numpy integer, not a bool."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(record, name, int(value))


def _executor():
    """The chunk map's thread pool of _WORKERS threads. It is made when
    first asked for, so importing the package starts no thread, and made
    afresh in a forked child, whose copy of the pool has no threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            # imported here: only a run that maps chunks pays for it
            from concurrent.futures import ThreadPoolExecutor
            _POOL = os.getpid(), ThreadPoolExecutor(
                _WORKERS, thread_name_prefix="tiadc-chunk")
        return _POOL[1]


def _chunk_map(task, items, task_bytes: int):
    """Yield task(item) for each item, in item order, computed on the
    chunk pool, or on the calling thread when one task is in flight: the
    same results, and the same errors, as the serial loop over items.

    task_bytes is the most memory one task holds while it runs. At most
    one task per worker is in flight, and no more than fit together in
    _IN_FLIGHT_BYTES, but always one. items, a range of chunk starts in
    every caller, is read on the calling thread, up to one item per task
    in flight ahead of the result being yielded. An error from task(item)
    is raised where its result would have been yielded. Closing the
    iterator cancels the tasks not yet started. task may run on a worker
    thread, so it must call nothing that perfbench's tracer wraps: the
    tracer counts calls and nests spans per calling thread.
    """
    in_flight = max(1, min(_WORKERS, _IN_FLIGHT_BYTES // task_bytes))
    if in_flight == 1:
        # nothing would overlap: a worker would only add two thread
        # switches per task and move its working set to another core
        yield from map(task, items)
        return
    pool = _executor()
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(task, item))
            if len(pending) == in_flight:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


@dataclass(frozen=True)
class TiadcConfig:
    """Static converter description.

    n_channels is M, fs the aggregate rate (Ts = 1/fs), bits the quantizer
    word length B, full_scale the input amplitude mapped to the top code.
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
    filterbank._chunk_sums. per_channel is not stored: it is the
    (M, n_per_channel) view of the same memory, row m being channel m.
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
        object.__setattr__(self, "interleaved", codes)

    def with_config(self, config: TiadcConfig) -> "ChannelCapture":
        """The same codes under config, which must have this capture's
        channel count and bits (ConfigError otherwise). A capture file
        stores no full_scale: a scenario's config supplies it."""
        mine = self.config
        if (config.n_channels, config.bits) != (mine.n_channels, mine.bits):
            raise ConfigError(
                f"scenario has {config.n_channels} channels of {config.bits} "
                f"bits, capture has {mine.n_channels} of {mine.bits}")
        return ChannelCapture(config, self.interleaved)

    @property
    def per_channel(self) -> np.ndarray:
        """(M, n_per_channel) view of interleaved: row m is channel m."""
        return self.interleaved.reshape(-1, self.config.n_channels).T

    @property
    def n_per_channel(self) -> int:
        return len(self.interleaved) // self.config.n_channels


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
    M = config.n_channels
    out = np.tile(np.arange(n_per_channel, dtype=float) * M, (M, 1))
    for m, row in enumerate(out):
        _sample_row(tone, profile, m, row)
    return out


def _check_sampling(config: TiadcConfig, profile: MismatchProfile,
                    n_per_channel: int) -> None:
    M = config.n_channels
    if len(profile) != M:
        raise ConfigError(
            f"profile has {len(profile)} channels, config expects {M}")
    if n_per_channel < 1:
        raise ConfigError("n_per_channel must be >= 1")


def _sample_row(tone: ToneSpec, profile: MismatchProfile, m: int,
                row: np.ndarray) -> np.ndarray:
    """Turn row, a contiguous float array of k*M for consecutive samples
    k, into channel m's samples k, in place.

    The sine comes by angle addition (_angle_sum) over k = _SPLIT*q + r:
    coarse angles at every _SPLIT-th absolute k, by the formula below,
    and fine angles (omega*M)*r. So every sample depends only on the
    tone, the profile, m and k, not on where a chunk of the row starts
    or ends."""
    M = len(profile)
    omega = 2.0 * np.pi * tone.freq_rel
    first = int(row[0]) // M
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
    """quantize_stream's codes as integral floats, computed in the float
    array samples, which they overwrite."""
    half = config.code_half_range
    samples /= config.full_scale
    samples *= half
    negative = np.signbit(samples)
    np.abs(samples, out=samples)
    samples += 0.5
    np.floor(samples, out=samples)
    np.negative(samples, out=samples, where=negative)
    return np.clip(samples, -half, half - 1, out=samples)


def quantize_stream(samples, config: TiadcConfig) -> np.ndarray:
    """Mid-rise saturating quantizer, round half away from zero."""
    return _quantize_in_place(np.array(samples, dtype=float),
                              config).astype(np.int64)


def dequantize_stream(codes, config: TiadcConfig) -> np.ndarray:
    """Map integer codes back to amplitude units (inverse of the code scale)."""
    return np.asarray(codes, dtype=float) * (config.full_scale / config.code_half_range)


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

    The codes are int16 for up to 16 bits and int32 above. They are made
    _CHUNK samples per channel at a time, the chunks side by side on the
    chunk pool (_chunk_map), each one channel at a time in a float row of
    its own, and written straight into the interleaved array, so the
    memory beyond the codes does not grow with the capture. A row's sine
    comes by angle addition from a grid anchored at absolute samples (see
    the module docstring), so the codes are the same for any chunk size
    and worker count. A task holds its float64 row and the quantizer's
    one-byte sign mask over it.
    """
    M = config.n_channels
    if n_total % M:
        raise ShapeError(f"n_total {n_total} not divisible by {M} channels")
    n = n_total // M
    _check_sampling(config, profile, n)
    interleaved = np.empty(n_total,
                           dtype=np.int16 if config.bits <= 16 else np.int32)
    rows = interleaved.reshape(-1, M).T

    def fill(start):
        stop = min(start + _CHUNK, n)
        for m in range(M):  # one float row of k*M at a time
            rows[m, start:stop] = _quantize_in_place(_sample_row(
                tone, profile, m, np.arange(start * M, stop * M, M,
                                            dtype=float)), config)

    # a task holds one float64 row and its quantizer's sign mask
    for _ in _chunk_map(fill, range(0, n, _CHUNK), 9 * _CHUNK):
        pass
    return ChannelCapture(config, interleaved)
