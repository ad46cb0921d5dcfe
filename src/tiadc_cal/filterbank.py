"""First-order FIR calibration filter banks.

Channel m of an M-way interleaved converter with gain error dg and sampling
skew dt (units of the aggregate period Ts) is corrected, to first order in
the mismatches, by a gain trim c = 1 - dg ("sub" variant) or 1/(1 + dg)
("div" variant) plus a fractional-delay differentiator scaled by dt. Two
structures realize this; FilterSpec.structure selects one.

"subrate", the paper's per-channel bank, filters channel m's own fs/M
stream with

    w[0] = c_m,   w[n] = (-1)^(n+1) / n * dt_m / M      for n != 0

truncated rectangularly to n in [-ceil(N/2)+1, floor(N/2)]. Its response
approximates c - j*omega*dt/M, but only for input frequencies below
fs/(2M): above that the sub-rate stream is aliased and the differentiator
takes the wrong branch.

"fullrate" differentiates the interleaved stream at the aggregate rate, so
output channel m also uses the other channels' samples. Tap n of channel m
acts on the aggregate sample n positions earlier, from channel
s = (m - n) mod M, whose gain it trims:

    t_m[0] = c_m
    t_m[n] = dt_m * c_s * (-1)^(n+1) / n * (1 + cos(pi*n/(K+1))) / 2

for 0 < |n| <= K = ceil(N/2) - 1. The Hann window removes the Gibbs ripple
of the truncated 1/n series, and the tap at n = N/2 of an even N, which has
no partner, is zero. This is the windowed differentiator of Laakso et al.,
"Splitting the unit delay" (IEEE SPM 1996), in the differentiator-multiplier
cascade of Matsuno et al. (IEEE TCAS-I 2013), with each source channel's
gain trimmed inside the differentiator.

Both structures index taps by n in tap_indices(N) and run causally: the
sub-rate bank delays every channel by D = ceil(N/2)-1 of its own samples,
the full-rate bank the interleaved stream by D aggregate samples, and a
calibrated capture loses D*M samples at each end either way. Coefficients
are quantized to two's-complement Q2.(W-2); a bank runs as a sum of sub-rate
integer convolutions (FilterBank.convolution_terms) with one final scaling,
so results are bit-reproducible and at most N multiply-accumulates are
spent per output sample.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TapOverflowError
from .model import ChannelCapture, MismatchProfile, TiadcConfig
from .polyphase import _guard_sum, _max_abs, convolve_serial

SUBTRACT_GAIN = "sub"
DIVIDE_GAIN = "div"

SUBRATE = "subrate"    # the paper's per-channel bank
FULLRATE = "fullrate"  # windowed cross-channel bank at the aggregate rate


@dataclass(frozen=True)
class FilterSpec:
    """Corrector shape: tap count N, coefficient word length W, gain variant
    and bank structure."""

    n_taps: int
    coeff_bits: int = 30
    variant: str = SUBTRACT_GAIN
    structure: str = SUBRATE

    def __post_init__(self):
        if self.n_taps < 1:
            raise ConfigError(f"n_taps must be >= 1, got {self.n_taps}")
        if not 8 <= self.coeff_bits <= 32:
            raise ConfigError(f"coeff_bits must be in 8..32, got {self.coeff_bits}")
        if self.variant not in (SUBTRACT_GAIN, DIVIDE_GAIN):
            raise ConfigError(f"variant must be 'sub' or 'div', got {self.variant!r}")
        if self.structure not in (SUBRATE, FULLRATE):
            raise ConfigError(f"structure must be {SUBRATE!r} or {FULLRATE!r}, "
                              f"got {self.structure!r}")

    @property
    def group_delay(self) -> int:
        """D = ceil(N/2)-1: the sub-rate bank's delay in each channel's own
        samples, and the full-rate bank's in aggregate samples."""
        return (self.n_taps + 1) // 2 - 1

    @property
    def frac_bits(self) -> int:
        return self.coeff_bits - 2


def tap_indices(n_taps: int) -> np.ndarray:
    """Tap index range n in [-ceil(N/2)+1, floor(N/2)], length N."""
    return np.arange(-((n_taps + 1) // 2) + 1, n_taps // 2 + 1)


def _gain_trim(gain, variant: str):
    return 1.0 - gain if variant == SUBTRACT_GAIN else 1.0 / (1.0 + gain)


def design_taps(gain: float, skew: float, n_channels: int,
                spec: FilterSpec) -> np.ndarray:
    """The paper's real-valued sub-rate corrector taps for one channel.

    Parameters
    ----------
    gain, skew : float
        The channel's mismatches dg (dimensionless) and dt (units of Ts),
        both magnitude < 0.5.
    n_channels : int
        M; the skew term is dt/M because the channel runs at fs/M.
    spec : FilterSpec
        Tap count and gain variant; coeff_bits and structure are not used
        here.

    Returns
    -------
    ndarray, length spec.n_taps, ordered by tap_indices(spec.n_taps).
    """
    if abs(gain) >= 0.5 or abs(skew) >= 0.5:
        raise ConfigError(f"|gain| and |skew| must be < 0.5, got {gain}, {skew}")
    if n_channels < 2:
        raise ConfigError(f"n_channels must be >= 2, got {n_channels}")
    n = tap_indices(spec.n_taps)
    w = np.zeros(spec.n_taps)
    nz = n != 0
    w[nz] = ((-1.0) ** (n[nz] + 1)) / n[nz] * (skew / n_channels)
    w[n == 0] = _gain_trim(gain, spec.variant)
    return w


def design_fullrate_taps(profile: MismatchProfile, channel: int,
                         spec: FilterSpec) -> np.ndarray:
    """Real-valued full-rate corrector taps for one output channel.

    Tap n multiplies the aggregate sample n positions before the output,
    which channel (channel - n) mod M took, so the differentiator taps carry
    that source channel's gain trim as well as this channel's skew.

    Returns
    -------
    ndarray, length spec.n_taps, ordered by tap_indices(spec.n_taps); the
    tap at n = N/2 of an even N is zero.
    """
    M = len(profile)
    if M < 2:
        raise ConfigError(f"n_channels must be >= 2, got {M}")
    if not 0 <= channel < M:
        raise ConfigError(f"channel {channel} out of range for {M} channels")
    n = tap_indices(spec.n_taps)
    half = spec.group_delay + 1
    trims = _gain_trim(np.asarray(profile.gains), spec.variant)
    w = np.zeros(spec.n_taps)
    inner = (n != 0) & (np.abs(n) < half)
    ni = n[inner]
    window = 0.5 * (1.0 + np.cos(np.pi * ni / half))
    w[inner] = (profile.skews[channel] * trims[(channel - ni) % M]
                * ((-1.0) ** (ni + 1)) / ni * window)
    w[n == 0] = trims[channel]
    return w


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_taps(taps, coeff_bits: int) -> np.ndarray:
    """Round taps half-away-from-zero into Q2.(W-2) integers."""
    taps = np.asarray(taps, dtype=float)
    if np.any(np.abs(taps) >= 2.0):
        worst = taps[np.argmax(np.abs(taps))]
        raise TapOverflowError(f"tap {worst} outside Q2 range (-2, 2)")
    fx = _round_half_away(taps * (1 << (coeff_bits - 2))).astype(np.int64)
    limit = 1 << (coeff_bits - 1)
    if np.any(fx >= limit) or np.any(fx < -limit):
        raise TapOverflowError(
            f"quantized tap exceeds {coeff_bits}-bit two's complement")
    return fx


def dequantize_taps(taps_fx, coeff_bits: int) -> np.ndarray:
    return np.asarray(taps_fx, dtype=float) / (1 << (coeff_bits - 2))


def filter_frequency_response(taps, omega):
    """Response sum_n w[n] * exp(-j*omega*n) of truncated taps.

    omega may be a scalar or array in [-pi, pi]; taps are ordered by
    tap_indices(len(taps)).
    """
    taps = np.asarray(taps, dtype=float)
    n = tap_indices(len(taps))
    omega = np.asarray(omega, dtype=float)
    resp = np.exp(-1j * np.multiply.outer(omega, n)) @ taps
    return complex(resp) if resp.ndim == 0 else resp


def ideal_frequency_response(gain: float, skew: float, n_channels: int, omega,
                             variant: str = SUBTRACT_GAIN):
    """Untruncated target response: gain trim minus j*omega*dt/M."""
    omega = np.asarray(omega, dtype=float)
    resp = _gain_trim(gain, variant) - 1j * omega * (skew / n_channels)
    return complex(resp) if resp.ndim == 0 else resp


@dataclass(frozen=True)
class FilterBank:
    """Immutable per-channel corrector set (real + fixed-point views)."""

    spec: FilterSpec
    taps_real: tuple
    taps_fixed: tuple
    offsets: tuple

    def __post_init__(self):
        if not (len(self.taps_real) == len(self.taps_fixed) == len(self.offsets)):
            raise ConfigError("per-channel field lengths disagree")

    @property
    def n_channels(self) -> int:
        return len(self.taps_real)

    @property
    def group_delay(self) -> int:
        return self.spec.group_delay

    @classmethod
    def design(cls, profile: MismatchProfile, n_channels: int,
               spec: FilterSpec) -> "FilterBank":
        """Build correctors from a mismatch profile (truth or estimate)."""
        if len(profile) != n_channels:
            raise ConfigError(
                f"profile has {len(profile)} channels, expected {n_channels}")
        if spec.structure == FULLRATE:
            real = tuple(design_fullrate_taps(profile, m, spec)
                         for m in range(n_channels))
        else:
            real = tuple(design_taps(profile.gains[m], profile.skews[m],
                                     n_channels, spec)
                         for m in range(n_channels))
        fixed = tuple(quantize_taps(w, spec.coeff_bits) for w in real)
        return cls(spec=spec, taps_real=real, taps_fixed=fixed,
                   offsets=profile.offsets)

    @classmethod
    def identity(cls, n_channels: int, spec: FilterSpec) -> "FilterBank":
        return cls.design(MismatchProfile.zero(n_channels), n_channels, spec)

    def convolution_terms(self) -> tuple:
        """The bank as sums of causal sub-rate integer convolutions.

        Entry m lists (source channel s, lag, taps) triples for output slot
        m, the aggregate positions k*M + m. The slot's accumulator at
        sub-rate index k is the sum over its triples of
        sum_i taps[i] * x_s[k - lag - i], where x_s is source channel s's
        offset-corrected code stream. It holds the correction of aggregate
        sample k*M + m - D*M for the sub-rate bank and k*M + m - D for the
        full-rate bank. Zero taps at either end of a triple are dropped and
        all-zero triples are left out, so each output sample costs at most
        N multiply-accumulates. Every lag + len(taps) is at most N: N-1
        samples of history per channel are enough.
        """
        spec = self.spec
        M = self.n_channels
        n = tap_indices(spec.n_taps)
        d = spec.group_delay
        slot = np.arange(M)[:, None]
        if spec.structure == FULLRATE:
            # slot m holds aggregate sample q = k*M + m - D, corrected by
            # its own channel's taps; tap n reads sample q - n
            channel = (slot - d) % M
            source = (slot - d - n) % M
            lag = (d + n + source - slot) // M
        else:
            channel = slot
            source = np.broadcast_to(slot, (M, len(n)))
            lag = np.broadcast_to(n + d, (M, len(n)))
        dense = np.zeros((M, M, spec.n_taps), dtype=np.int64)
        dense[np.broadcast_to(slot, source.shape), source, lag] = \
            np.asarray(self.taps_fixed, dtype=np.int64)[channel[:, 0]]
        used = dense != 0
        first = used.argmax(axis=2).tolist()
        stop = (spec.n_taps - used[..., ::-1].argmax(axis=2)).tolist()
        live = used.any(axis=2).tolist()
        return tuple(tuple((s, first[m][s], dense[m, s, first[m][s]:stop[m][s]])
                           for s in range(M) if live[m][s])
                     for m in range(M))


def _offset_code(offset: float, config: TiadcConfig) -> int:
    return int(_round_half_away(offset / config.full_scale
                                * config.code_half_range))


def calibrate_channel(stream_codes, taps_fx, offset: float, spec: FilterSpec,
                      config: TiadcConfig) -> np.ndarray:
    """Correct one channel's code stream with the paper's sub-rate taps;
    output in amplitude units.

    Subtracts the quantized offset code, convolves with the fixed-point taps
    in exact integer arithmetic, then applies the single combined scaling
    2^-(W-2) * full_scale / 2^(B-1). Output sample k corresponds to input
    sample k - D; the first and last D samples are filter transient and are
    excluded from metrics by the capture-level wrapper.
    """
    codes = np.asarray(stream_codes, dtype=np.int64)
    if len(codes) < spec.n_taps:
        raise ShapeError(
            f"stream length {len(codes)} shorter than {spec.n_taps} taps")
    off_code = _offset_code(offset, config)
    acc = convolve_serial(codes - off_code, np.asarray(taps_fx, dtype=np.int64))
    scale = 2.0 ** -(spec.coeff_bits - 2) * config.lsb
    return acc * scale


class StreamCalibrator:
    """Runs filter banks over a capture block by block.

    process() takes one block of every channel's codes and returns that
    block's integer accumulators. Each channel carries its last N-1
    offset-corrected samples into the next block, so feeding blocks
    b0, b1, ... gives exactly the accumulators of one whole-stream pass,
    even if the bank changes between blocks: a new bank applies from the
    first sample of the new block, and history samples keep the offset
    correction they were fed with. Every convolution is convolve_serial;
    the polyphase lanes are bit-exact with it but only model hardware.
    """

    def __init__(self, config: TiadcConfig, spec: FilterSpec):
        self.config = config
        self.spec = spec
        self.scale = 2.0 ** -(spec.coeff_bits - 2) * config.lsb
        self._history = [np.zeros(0, dtype=np.int64)] * config.n_channels

    def process(self, blocks, bank: FilterBank) -> list:
        """Accumulators of one block: M int64 arrays, one per output slot
        (see FilterBank.convolution_terms)."""
        M = self.config.n_channels
        if bank.n_channels != M or len(blocks) != M:
            raise ConfigError(f"bank has {bank.n_channels} channels and "
                              f"{len(blocks)} blocks were given, expected {M}")
        if bank.spec != self.spec:
            raise ConfigError(f"bank spec {bank.spec} differs from the "
                              f"calibrator's {self.spec}")
        width = len(blocks[0])
        if any(len(b) != width for b in blocks):
            raise ShapeError(f"ragged blocks: {[len(b) for b in blocks]}")
        # ext[s][j] is channel s's sample (block start) + j - len(history)
        ext = [np.concatenate((h, np.subtract(b, _offset_code(off, self.config),
                                              dtype=np.int64)))
               for h, b, off in zip(self._history, blocks, bank.offsets)]
        peaks = [_max_abs(e) for e in ext]
        terms = bank.convolution_terms()
        accs = []
        for m in range(M):
            _guard_sum([(peaks[s], taps) for s, _, taps in terms[m]])
            acc = np.zeros(width, dtype=np.int64)
            for s, lag, taps in terms[m]:
                lo = len(self._history[s]) - lag
                conv = convolve_serial(ext[s], taps)
                if lo >= 0:
                    acc += conv[lo: lo + width]
                else:  # reaches before the stream start: zero history
                    acc[-lo:] += conv[: width + lo]
            accs.append(acc)
        keep = self.spec.n_taps - 1
        self._history = [e[max(len(e) - keep, 0):].copy() for e in ext]
        return accs


def merge_accumulators(accs, scale: float, out: np.ndarray) -> np.ndarray:
    """Scale per-channel accumulators to amplitude units and interleave
    them into out."""
    M = len(accs)
    for m, acc in enumerate(accs):
        np.multiply(acc, scale, out=out[m::M])
    return out


# samples per channel that calibrate_capture feeds through at a time: the
# working set stays in cache and temporary memory does not grow with the
# capture
_CHUNK = 1 << 16


def calibrate_capture(capture: ChannelCapture, bank: FilterBank) -> np.ndarray:
    """Correct every channel and re-interleave, trimming the transient.

    D*M samples are trimmed from both ends of the merged output. Output
    sample j is then the correction of input sample j for the sub-rate
    bank, whose first floor(N/2)*M outputs still lack part of their
    history, and of input sample j + D*(M-1) for the full-rate bank, whose
    output is free of filter transients. The capture runs through one
    StreamCalibrator, a chunk of samples at a time.
    """
    spec = bank.spec
    M = capture.config.n_channels
    if bank.n_channels != M:
        raise ConfigError(
            f"bank has {bank.n_channels} channels, capture has {M}")
    if capture.n_per_channel < spec.n_taps:
        raise ShapeError(f"channel length {capture.n_per_channel} shorter "
                         f"than {spec.n_taps} taps")
    stream = StreamCalibrator(capture.config, spec)
    n = capture.n_per_channel
    merged = np.empty(n * M)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        accs = stream.process([c[start:stop] for c in capture.per_channel], bank)
        merge_accumulators(accs, stream.scale, out=merged[start * M: stop * M])
    trim = spec.group_delay * M
    return merged[trim: len(merged) - trim] if trim else merged


def write_coefficients_csv(path, bank: FilterBank) -> None:
    """Export taps as (channel, tap_index, real_value, fixed_point_integer,
    coeff_bits, format_tag) rows."""
    w = bank.spec.coeff_bits
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "tap_index", "real_value",
                         "fixed_point_integer", "coeff_bits", "format_tag"])
        for m in range(bank.n_channels):
            for n, real, fx in zip(tap_indices(bank.spec.n_taps),
                                   bank.taps_real[m], bank.taps_fixed[m]):
                writer.writerow([m, n, f"{real:.18g}", int(fx),
                                 w, f"Q2.{w - 2}"])
