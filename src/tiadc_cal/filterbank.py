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
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TapOverflowError
from .model import ChannelCapture, MismatchProfile, TiadcConfig
from .polyphase import _guard_sums

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


def design_taps(gain, skew, n_channels: int, spec: FilterSpec) -> np.ndarray:
    """The paper's real-valued sub-rate corrector taps.

    Parameters
    ----------
    gain, skew : float or array
        The channel's mismatches dg (dimensionless) and dt (units of Ts),
        both magnitude < 0.5. Arrays broadcast together, one channel per
        element.
    n_channels : int
        M; the skew term is dt/M because the channel runs at fs/M.
    spec : FilterSpec
        Tap count and gain variant; coeff_bits and structure are not used
        here.

    Returns
    -------
    ndarray of shape (..., spec.n_taps): the broadcast shape of gain and
    skew, then the taps ordered by tap_indices(spec.n_taps).
    """
    gain, skew = np.broadcast_arrays(np.asarray(gain, dtype=float),
                                     np.asarray(skew, dtype=float))
    if np.any(np.abs(gain) >= 0.5) or np.any(np.abs(skew) >= 0.5):
        raise ConfigError(f"|gain| and |skew| must be < 0.5, got {gain}, {skew}")
    if n_channels < 2:
        raise ConfigError(f"n_channels must be >= 2, got {n_channels}")
    n = tap_indices(spec.n_taps)
    w = np.zeros(gain.shape + (spec.n_taps,))
    nz = n != 0
    w[..., nz] = ((-1.0) ** (n[nz] + 1)) / n[nz] * (skew[..., None] / n_channels)
    w[..., n == 0] = _gain_trim(gain, spec.variant)[..., None]
    return w


def _fullrate_taps(gains, skews, spec: FilterSpec) -> np.ndarray:
    """Full-rate taps of every output channel: gains and skews of shape
    (..., M) give taps of shape (..., M, N)."""
    M = gains.shape[-1]
    n = tap_indices(spec.n_taps)
    half = spec.group_delay + 1
    trims = _gain_trim(gains, spec.variant)
    w = np.zeros(gains.shape + (spec.n_taps,))
    inner = (n != 0) & (np.abs(n) < half)
    ni = n[inner]
    window = 0.5 * (1.0 + np.cos(np.pi * ni / half))
    source = (np.arange(M)[:, None] - ni) % M
    w[..., inner] = (skews[..., None] * trims[..., source]
                     * ((-1.0) ** (ni + 1)) / ni * window)
    w[..., n == 0] = trims[..., None]
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
    return _fullrate_taps(np.asarray(profile.gains), np.asarray(profile.skews),
                          spec)[channel]


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_taps(taps, coeff_bits: int) -> np.ndarray:
    """Round taps (an array of any shape) half-away-from-zero into Q2.(W-2)
    integers."""
    taps = np.asarray(taps, dtype=float)
    if np.any(np.abs(taps) >= 2.0):
        worst = taps.flat[np.argmax(np.abs(taps))]
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
        """Build correctors from a mismatch profile (truth or estimate); the
        one-profile case of design_banks."""
        return design_banks((profile,), n_channels, spec)[0]

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
        dense = _dense_taps(np.asarray(self.taps_fixed, dtype=np.int64)[None],
                            self.spec)[0]
        terms = _live_terms(dense != 0)
        return tuple(tuple((s, lo, dense[m, s, lo:hi])
                           for slot, s, lo, hi in terms if slot == m)
                     for m in range(self.n_channels))


def design_banks(profiles, n_channels: int, spec: FilterSpec) -> list:
    """One bank per mismatch profile, all of them designed and quantized
    in one vectorized pass; FilterBank.design is the one-profile case."""
    profiles = tuple(profiles)
    for profile in profiles:
        if len(profile) != n_channels:
            raise ConfigError(
                f"profile has {len(profile)} channels, expected {n_channels}")
    shape = (len(profiles), n_channels)
    gains = np.array([p.gains for p in profiles]).reshape(shape)
    skews = np.array([p.skews for p in profiles]).reshape(shape)
    if spec.structure == FULLRATE:
        if n_channels < 2:
            raise ConfigError(f"n_channels must be >= 2, got {n_channels}")
        real = _fullrate_taps(gains, skews, spec)
    else:
        real = design_taps(gains, skews, n_channels, spec)
    fixed = quantize_taps(real, spec.coeff_bits)
    return [FilterBank(spec=spec, taps_real=tuple(r), taps_fixed=tuple(f),
                       offsets=p.offsets)
            for r, f, p in zip(real, fixed, profiles)]


@functools.lru_cache(maxsize=8)
def _term_layout(spec: FilterSpec, n_channels: int) -> tuple:
    """Where each tap of a bank lands among the sub-rate convolutions:
    read-only (channel, source, lag). Output slot m holds the correction
    by channel[m]'s taps, and that channel's tap j multiplies source
    channel source[m, j]'s sample lag[m, j] sub-rate steps back. Built
    once per spec and channel count."""
    M = n_channels
    n = tap_indices(spec.n_taps)
    d = spec.group_delay
    slot = np.broadcast_to(np.arange(M)[:, None], (M, len(n)))
    if spec.structure == FULLRATE:
        # slot m holds aggregate sample q = k*M + m - D, corrected by
        # its own channel's taps; tap n reads sample q - n
        source = (slot - d - n) % M
        layout = ((slot[:, 0] - d) % M, source, (d + n + source - slot) // M)
    else:
        layout = (slot[:, 0], slot, np.broadcast_to(n + d, (M, len(n))))
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _dense_taps(taps_fixed, spec: FilterSpec) -> np.ndarray:
    """(B, M, N) fixed-point taps of B banks as (B, slot, source, lag)
    integer arrays: entry [b, m, s, j] multiplies source s's sample j
    sub-rate steps back in slot m's accumulator."""
    B, M, N = taps_fixed.shape
    channel, source, lag = _term_layout(spec, M)
    dense = np.zeros((B, M, M, N), dtype=np.int64)
    dense[:, np.arange(M)[:, None], source, lag] = taps_fixed[:, channel]
    return dense


def _live_terms(used) -> list:
    """(slot, source, first lag, stop lag) of every (slot, source) pair
    with a nonzero tap in the (M, M, N) mask used, trimmed to the span of
    nonzero lags."""
    N = used.shape[2]
    first = used.argmax(axis=2).tolist()
    stop = (N - used[..., ::-1].argmax(axis=2)).tolist()
    return [(m, s, first[m][s], stop[m][s])
            for m, s in zip(*(i.tolist() for i in np.nonzero(used.any(axis=2))))]


def _offset_codes(offsets, config: TiadcConfig) -> np.ndarray:
    """Offsets in full-scale units, quantized to int64 codes."""
    return _round_half_away(np.asarray(offsets, dtype=float) / config.full_scale
                            * config.code_half_range).astype(np.int64)


class StreamCalibrator:
    """Runs filter banks over a capture a chunk of samples at a time.

    process() takes a chunk of every channel's codes and one bank per block
    of that chunk, and returns the chunk's integer accumulators. Each
    channel carries its last N-1 offset-corrected samples into the next
    chunk, so feeding chunks c0, c1, ... gives exactly the accumulators of
    one whole-stream pass, wherever the chunk and block edges fall and even
    if every block has a bank of its own: a bank applies from the first
    sample of its block, and history samples keep the offset correction
    they were fed with. This is the one place the fixed-point rule runs:
    subtract each channel's offset code, convolve in exact int64 behind
    polyphase._guard_sums, and let the caller scale once by self.scale.
    Each block's sums are np.convolve, the rule of
    polyphase.convolve_serial; the polyphase lanes are bit-exact with it
    but only model hardware.
    """

    def __init__(self, config: TiadcConfig, spec: FilterSpec):
        self.config = config
        self.spec = spec
        self.scale = 2.0 ** -(spec.coeff_bits - 2) * config.lsb
        # zeros before the stream start: the same sums as no history
        self._history = np.zeros((config.n_channels, spec.n_taps - 1),
                                 dtype=np.int64)
        self._banks, self._plan = (), None

    def _prepare(self, banks: tuple) -> tuple:
        """Dense taps, per-(slot, source) sums of |taps|, offset codes and
        live terms of the banks; reused while the same bank objects come
        back, as they do for every chunk of a one-bank capture."""
        if len(banks) == len(self._banks) and all(
                a is b for a, b in zip(banks, self._banks)):
            return self._plan
        M = self.config.n_channels
        for bank in banks:
            if bank.n_channels != M:
                raise ConfigError(f"bank has {bank.n_channels} channels, "
                                  f"expected {M}")
            if bank.spec != self.spec:
                raise ConfigError(f"bank spec {bank.spec} differs from the "
                                  f"calibrator's {self.spec}")
        dense = _dense_taps(np.array([bank.taps_fixed for bank in banks],
                                     dtype=np.int64), self.spec)
        offsets = _offset_codes([bank.offsets for bank in banks], self.config)
        self._plan = (dense, np.abs(dense).sum(axis=3), offsets,
                      _live_terms((dense != 0).any(axis=0)))
        self._banks = banks
        return self._plan

    def process(self, chunk, banks, block_len: int = None) -> np.ndarray:
        """Accumulators of one chunk: an (M, width) int64 array, row m for
        output slot m (see FilterBank.convolution_terms).

        chunk holds M equal-length code arrays, one per channel. banks is
        one FilterBank, or one per block_len samples of the chunk (the last
        block may be shorter); block_len defaults to the chunk length.
        """
        M = self.config.n_channels
        if len(chunk) != M:
            raise ConfigError(f"{len(chunk)} channels were given, expected {M}")
        width = len(chunk[0])
        if any(len(c) != width for c in chunk):
            raise ShapeError(f"ragged chunk: {[len(c) for c in chunk]}")
        banks = (banks,) if isinstance(banks, FilterBank) else tuple(banks)
        block_len = block_len or max(width, 1)
        starts = range(0, max(width, 1), block_len)
        if len(banks) != len(starts):
            raise ConfigError(f"{len(banks)} banks for {len(starts)} blocks of "
                              f"{block_len} in {width} samples")
        dense, tap_sums, offsets, terms = self._prepare(banks)
        if width == 0:
            return np.zeros((M, 0), dtype=np.int64)
        hist = self.spec.n_taps - 1
        # x[s, hist + j] is channel s's offset-corrected sample j of the chunk
        x = np.empty((M, hist + width), dtype=np.int64)
        x[:, :hist] = self._history
        for s, codes in enumerate(chunk):
            x[s, hist:] = codes
        for b, a in enumerate(starts):
            x[:, hist + a: hist + a + block_len] -= offsets[b][:, None]
        # largest |code| each block's sums read: its samples and history
        edges = np.empty(2 * len(starts) - 1, dtype=np.intp)
        edges[0::2] = starts
        edges[1::2] = np.add(starts[1:], hist)
        peaks = np.maximum.reduceat(np.abs(x), edges, axis=1)[:, 0::2]
        _guard_sums(peaks.T, tap_sums)
        acc = np.zeros((M, width), dtype=np.int64)
        for b, a in enumerate(starts):
            e = min(a + block_len, width)
            for m, s, lo, hi in terms:
                acc[m, a:e] += np.convolve(x[s, hist + a + 1 - hi: hist + e - lo],
                                           dense[b, m, s, lo:hi], "valid")
        self._history = x[:, width:].copy()
        return acc


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
    StreamCalibrator, a chunk of samples at a time, with the one bank.
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
