"""First-order FIR calibration filter banks.

Channel m of an M-way interleaved converter with gain error dg and sampling
skew dt (units of the aggregate period Ts) is corrected, to first order in
the mismatches, by a gain trim c = 1 - dg ("sub" variant) or 1/(1 + dg)
("div" variant) plus a fractional-delay differentiator scaled by dt.

The library designs and runs one bank. It differentiates the interleaved
stream at the aggregate rate, so output channel m also uses the other
channels' samples. Tap n of channel m acts on the aggregate sample n
positions earlier, from channel s = (m - n) mod M, whose gain it trims:

    t_m[0] = c_m
    t_m[n] = dt_m * c_s * (-1)^(n+1) / n * (1 + cos(pi*n/(K+1))) / 2

for 0 < |n| <= K = ceil(N/2) - 1. The Hann window removes the Gibbs ripple
of the truncated 1/n series, and the tap at n = N/2 of an even N, which has
no partner, is zero. This is the windowed differentiator of Laakso et al.,
"Splitting the unit delay" (IEEE SPM 1996), in the differentiator-multiplier
cascade of Matsuno et al. (IEEE TCAS-I 2013), with each source channel's
gain trimmed inside the differentiator.

The paper's own bank, which filters channel m's own fs/M stream with

    w[0] = c_m,   w[n] = (-1)^(n+1) / n * dt_m / M      for n != 0,

is kept as a reference formula, design_taps. Its response approximates
c - j*omega*dt/M only below fs/(2M): above that the sub-rate stream is
aliased and the differentiator takes the wrong branch. It runs by the
reference rule: quantize_taps, then polyphase.convolve_serial on each
channel's offset-corrected codes, then one scaling.

Taps are indexed by n in tap_indices(N), and the bank runs causally,
delaying the interleaved stream by D = ceil(N/2)-1 aggregate samples; a
calibrated capture loses D*M samples at each end. Coefficients are
quantized to two's-complement Q2.(W-2); a bank runs as a sum of sub-rate
integer convolutions (FilterBank.convolution_terms) with one final scaling,
so results are bit-reproducible and at most N multiply-accumulates are
spent per output sample. design_banks and the chunk kernel _chunk_sums
work on tap and offset arrays; FilterBank is the record of one bank, and
where a hand-built bank's taps and offsets are checked.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TapOverflowError
from .model import (_CHUNK, ChannelCapture, MismatchProfile, TiadcConfig,
                    _chunk_map)
from .polyphase import _ACC_LIMIT, _guard_sums, _magnitudes

SUBTRACT_GAIN = "sub"
DIVIDE_GAIN = "div"


@dataclass(frozen=True)
class FilterSpec:
    """Corrector shape: tap count N, coefficient word length W and gain
    variant."""

    n_taps: int
    coeff_bits: int = 30
    variant: str = SUBTRACT_GAIN

    def __post_init__(self):
        if self.n_taps < 1:
            raise ConfigError(f"n_taps must be >= 1, got {self.n_taps}")
        if not 8 <= self.coeff_bits <= 32:
            raise ConfigError(f"coeff_bits must be in 8..32, got {self.coeff_bits}")
        if self.variant not in (SUBTRACT_GAIN, DIVIDE_GAIN):
            raise ConfigError(f"variant must be 'sub' or 'div', got {self.variant!r}")

    @property
    def group_delay(self) -> int:
        """D = ceil(N/2)-1: the bank's delay in aggregate samples."""
        return (self.n_taps + 1) // 2 - 1


def tap_indices(n_taps: int) -> np.ndarray:
    """Tap index range n in [-ceil(N/2)+1, floor(N/2)], length N."""
    return np.arange(-((n_taps + 1) // 2) + 1, n_taps // 2 + 1)


def _gain_trim(gain, variant: str):
    return 1.0 - gain if variant == SUBTRACT_GAIN else 1.0 / (1.0 + gain)


def design_taps(gain, skew, n_channels: int, spec: FilterSpec) -> np.ndarray:
    """The paper's real-valued sub-rate corrector taps: the reference
    formula, which filters each channel's own fs/M stream. The library's
    bank is design_banks'; these taps run by the reference rule (see the
    module docstring).

    Parameters
    ----------
    gain, skew : float or array
        The channel's mismatches dg (dimensionless) and dt (units of Ts),
        both magnitude < 0.5. Arrays broadcast together, one channel per
        element.
    n_channels : int
        M; the skew term is dt/M because the channel runs at fs/M.
    spec : FilterSpec
        Tap count and gain variant; coeff_bits is not used here.

    Returns
    -------
    ndarray of shape (..., spec.n_taps): the broadcast shape of gain and
    skew, then the taps ordered by tap_indices(spec.n_taps).
    """
    gain, skew = np.broadcast_arrays(np.asarray(gain, dtype=float),
                                     np.asarray(skew, dtype=float))
    # NaN fails the comparison too
    if not (np.all(np.abs(gain) < 0.5) and np.all(np.abs(skew) < 0.5)):
        raise ConfigError(f"|gain| and |skew| must be < 0.5, got {gain}, {skew}")
    if n_channels < 2:
        raise ConfigError(f"n_channels must be >= 2, got {n_channels}")
    n = tap_indices(spec.n_taps)
    w = np.zeros(gain.shape + (spec.n_taps,))
    nz = n != 0
    w[..., nz] = ((-1.0) ** (n[nz] + 1)) / n[nz] * (skew[..., None] / n_channels)
    w[..., n == 0] = _gain_trim(gain, spec.variant)[..., None]
    return w


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_taps(taps, coeff_bits: int) -> np.ndarray:
    """Round taps (an array of any shape) half-away-from-zero into Q2.(W-2)
    integers."""
    taps = np.asarray(taps, dtype=float)
    if not np.all(np.abs(taps) < 2.0):  # NaN fails the comparison too
        worst = taps.flat[np.argmax(np.abs(taps))]
        raise TapOverflowError(f"tap {worst} outside Q2 range (-2, 2)")
    fx = _round_half_away(taps * (1 << (coeff_bits - 2))).astype(np.int64)
    _check_word_length(fx, coeff_bits)
    return fx


def _check_word_length(taps_fx, coeff_bits: int) -> None:
    limit = 1 << (coeff_bits - 1)
    if np.any(taps_fx >= limit) or np.any(taps_fx < -limit):
        raise TapOverflowError(
            f"fixed-point tap exceeds {coeff_bits}-bit two's complement")


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
    """One bank as an immutable record: per-channel real and fixed-point
    taps and offsets; every fixed-point tap fits spec.coeff_bits two's
    complement. Truth mode, ScenarioResult.bank, the coefficient CSV and
    convolution_terms use it; the chunk kernel itself takes arrays.

    A hand-built bank is checked here, where it enters the program: M rows
    of spec.n_taps taps each, integer fixed-point taps and M finite
    offsets (ConfigError), every fixed-point tap within the word
    (TapOverflowError)."""

    spec: FilterSpec
    taps_real: tuple
    taps_fixed: tuple
    offsets: tuple

    def __post_init__(self):
        try:
            real = np.asarray(self.taps_real, dtype=float)
            fixed = np.asarray(self.taps_fixed)
            offsets = np.asarray(self.offsets, dtype=float)
        except (TypeError, ValueError) as err:  # ragged or not numbers
            raise ConfigError(f"bank fields must be numeric arrays: {err}") from None
        N = self.spec.n_taps
        if (offsets.ndim != 1 or real.shape != (len(offsets), N)
                or fixed.shape != real.shape):
            raise ConfigError(
                f"taps {real.shape} and {fixed.shape} and offsets "
                f"{offsets.shape} do not fit (M, {N}) and (M,)")
        _check_word_length(fixed, self.spec.coeff_bits)
        if fixed.dtype.kind not in "iu":
            raise ConfigError(f"fixed-point taps must be integers, got dtype "
                              f"{fixed.dtype}")
        if not np.all(np.isfinite(offsets)):
            raise ConfigError(f"offsets must be finite, got {offsets}")

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
        if len(profile) != n_channels:
            raise ConfigError(
                f"profile has {len(profile)} channels, expected {n_channels}")
        real, fixed = design_banks(profile.gains, profile.skews, spec)
        return cls(spec=spec, taps_real=tuple(real), taps_fixed=tuple(fixed),
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
        sample k*M + m - D. Zero taps at either end of a triple are dropped
        and all-zero triples are left out, so each output sample costs at
        most N multiply-accumulates. Every lag + len(taps) is at most N: N-1
        samples of history per channel are enough.
        """
        dense = _dense_taps(np.asarray(self.taps_fixed,
                                       dtype=np.int64)[None])[0]
        terms = _live_terms(dense != 0)
        return tuple(tuple((s, lo, dense[m, s, lo:hi])
                           for slot, s, lo, hi in terms if slot == m)
                     for m in range(self.n_channels))


def design_banks(gains, skews, spec: FilterSpec) -> tuple:
    """Real and fixed-point taps of the banks for gains and skews of shape
    (..., M): two arrays of shape (..., M, N), taps ordered by
    tap_indices(N). FilterBank.design is the one-profile case.

    Every gain and skew must be finite with magnitude < 0.5, and M >= 2
    (ConfigError otherwise).
    """
    gains = np.asarray(gains, dtype=float)
    skews = np.asarray(skews, dtype=float)
    if gains.ndim == 0 or gains.shape != skews.shape:
        raise ConfigError(f"gains {gains.shape} and skews {skews.shape} must "
                          "be arrays of one shape (..., M)")
    M = gains.shape[-1]
    if M < 2:
        raise ConfigError(f"n_channels must be >= 2, got {M}")
    for name, v in (("gains", gains), ("skews", skews)):
        if not np.all(np.abs(v) < 0.5):  # NaN fails the comparison too
            raise ConfigError(f"{name} must be finite with magnitude < 0.5")
    n = tap_indices(spec.n_taps)
    half = spec.group_delay + 1
    trims = _gain_trim(gains, spec.variant)
    real = np.zeros(gains.shape + (spec.n_taps,))
    inner = (n != 0) & (np.abs(n) < half)
    ni = n[inner]
    window = 0.5 * (1.0 + np.cos(np.pi * ni / half))
    source = (np.arange(M)[:, None] - ni) % M
    real[..., inner] = (skews[..., None] * trims[..., source]
                        * ((-1.0) ** (ni + 1)) / ni * window)
    real[..., n == 0] = trims[..., None]
    return real, quantize_taps(real, spec.coeff_bits)


def _term_layout(n_channels: int, n_taps: int) -> tuple:
    """Where each tap of a bank lands among the sub-rate convolutions:
    (channel, source, lag). Output slot m holds aggregate sample
    q = k*M + m - D, corrected by channel[m]'s taps; that channel's tap j
    (tap index n) reads sample q - n, which is source channel
    source[m, j]'s sample lag[m, j] sub-rate steps back."""
    M = n_channels
    d = (n_taps + 1) // 2 - 1
    n = np.arange(n_taps) - d  # tap_indices(n_taps), off the traced name
    slot = np.arange(M)[:, None]
    source = (slot - d - n) % M
    return (slot[:, 0] - d) % M, source, (d + n + source - slot) // M


def _dense_taps(taps_fixed) -> np.ndarray:
    """(B, M, N) fixed-point taps of B banks as (B, slot, source, lag)
    integer arrays: entry [b, m, s, j] multiplies source s's sample j
    sub-rate steps back in slot m's accumulator."""
    B, M, N = taps_fixed.shape
    channel, source, lag = _term_layout(M, N)
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


def calibrate_capture(capture: ChannelCapture, bank: FilterBank):
    """Correct every channel and re-interleave, trimming the transient.

    D*M samples are trimmed from both ends of the merged output. Output
    sample j is then the correction of input sample j + D*(M-1), and the
    output is free of filter transients. The arguments are checked when
    this is called (ConfigError, ShapeError), offsets whose code would
    reach the accumulator bound polyphase._ACC_LIMIT too; the correction
    runs as the returned iterator is read. It yields the output as
    consecutive fresh float64 arrays of at most _CHUNK*M samples, one per
    chunk of the capture that holds output samples, so no step holds the
    whole stream: np.concatenate(list(...)) is the whole output. It is the
    one-block case of the chunk driver _calibrated_pieces.
    """
    spec = bank.spec
    config = capture.config
    M = config.n_channels
    if bank.n_channels != M:
        raise ConfigError(
            f"bank has {bank.n_channels} channels, capture has {M}")
    if capture.n_per_channel < spec.n_taps:
        raise ShapeError(f"channel length {capture.n_per_channel} shorter "
                         f"than {spec.n_taps} taps")
    offsets = np.asarray(bank.offsets)
    # the int64 cast of a larger code is not exact, or not defined
    if not np.all(np.abs(offsets) / config.full_scale
                  * config.code_half_range < _ACC_LIMIT):
        raise ConfigError(f"offsets {offsets} are too large for "
                          f"{config.bits}-bit codes of full scale "
                          f"{config.full_scale}")
    n = capture.n_per_channel
    trim = bank.group_delay * M
    return _calibrated_pieces(capture, spec, np.asarray(bank.taps_fixed)[None],
                              offsets[None], n, trim, n * M - trim)


def _calibrated_pieces(capture: ChannelCapture, spec: FilterSpec, taps,
                       offsets, block_len: int, skip: int, end: int):
    """The chunk driver of calibrate_capture and the background loop: yield
    the merged calibrated samples skip to end of the capture, as
    consecutive fresh float64 arrays, one per chunk of _CHUNK samples per
    channel that holds some of them.

    taps (B, M, N) and offsets (B, M) hold one bank per block of block_len
    samples, from sample 0. Every chunk, the samples outside skip to end
    too, runs through the chunk kernel _chunk_sums with the rows of the
    blocks its samples and its N-1 history samples lie in, so the
    overflow guard sees every sample. The chunks run on the chunk pool
    (model._chunk_map), each from the capture alone, and an error is
    raised after the pieces of the chunks before the one that raised it.
    """
    M = capture.config.n_channels
    n = capture.n_per_channel
    hist = spec.n_taps - 1
    scale = 2.0 ** -(spec.coeff_bits - 2) * capture.config.lsb

    def piece(start):
        stop = min(start + _CHUNK, n)
        first = max(start - hist, 0) // block_len
        rows = slice(start // block_len, (stop - 1) // block_len + 1)
        acc = _chunk_sums(capture.per_channel, capture.config, spec, start,
                          stop, taps[rows], offsets[first:rows.stop], first,
                          block_len)
        # the part of merged samples [start*M, stop*M) from skip to end
        lo = max(skip - start * M, 0)
        hi = min(end - start * M, (stop - start) * M)
        return _scale_in_place(acc, scale)[lo:max(lo, hi)]

    # a task holds its int64 accumulators, one widened source row and one
    # convolution's output; filter keeps no piece alive while the next
    # ones are made
    yield from filter(len, _chunk_map(piece, range(0, n, _CHUNK),
                                      (M + 2) * 8 * _CHUNK))


def _chunk_sums(codes, config: TiadcConfig, spec: FilterSpec, start: int,
                stop: int, taps, offsets, first_block: int,
                block_len: int) -> np.ndarray:
    """The integer accumulators of samples start to stop of every channel,
    computed from the capture alone: an (M, stop - start) int64 array, row
    m for output slot m (see FilterBank.convolution_terms), whose rows lie
    interleaved in memory, sample k of row m at k*M + m.

    This is the one place the fixed-point rule runs: subtract each block's
    offset code, convolve in int64, return the sums only if
    polyphase._guard_sums finds every block's exact, and let the caller
    scale once. The sums are np.convolve, the rule of
    polyphase.convolve_serial, one call per block and sub-rate term; the
    polyphase lanes are bit-exact with it but only model hardware.

    codes is the (M, n) per-channel view of a capture, of any integer
    type. Each channel is widened to int64 once, from the N-1 samples
    before start (zeros before sample 0) to stop, so only one row of one
    chunk is ever wide. The capture runs in blocks of block_len samples
    from sample 0. taps (B, M, N) are the banks of the B blocks the chunk
    touches, and row b of offsets (full-scale units) is block
    first_block + b's, for every block from the one of sample
    max(start - N + 1, 0) to the chunk's last. A bank applies from the
    first sample of its block, and every sample keeps its own block's
    offset in each sum that reads it, so the chunk's sums are those of
    one pass over the whole capture wherever the chunk and block edges
    fall. Taps outside the spec's coeff_bits raise TapOverflowError.

    It runs on chunk-pool threads, so it calls no public layer function
    (see model._chunk_map).
    """
    M = config.n_channels
    hist = spec.n_taps - 1
    width = stop - start
    if block_len < 1:
        raise ConfigError(f"block_len must be >= 1, got {block_len}")
    # where each block's samples of the chunk start and stop
    starts = np.arange(-(start % block_len), width, block_len)
    starts[0] = 0
    ends = np.append(starts[1:], width)
    if len(taps) != len(starts):
        raise ConfigError(f"{len(taps)} banks for {len(starts)} blocks of "
                          f"{block_len} in {width} samples")
    # taps within the word keep |taps| <= 2^31, so the uint64 sums of
    # |taps| below cannot wrap
    _check_word_length(taps, spec.coeff_bits)
    dense = _dense_taps(np.asarray(taps, dtype=np.int64))
    tap_sums = _magnitudes(dense).sum(axis=3)
    sources = [[] for _ in range(M)]  # (slot, first lag, stop lag)
    for m, s, lo, hi in _live_terms((dense != 0).any(axis=0)):
        sources[s].append((m, lo, hi))
    # x[hist + j] is a channel's sample start + j; the first pad entries
    # lie before sample 0 and stay zero, the same sums as no history
    first = max(start - hist, 0)
    pad = hist - (start - first)
    x = np.zeros(hist + width, dtype=np.int64)
    # every block from first's on: its entries of x and its offset code
    blocks = np.arange(first // block_len, (stop - 1) // block_len + 2)
    bounds = np.clip(blocks * block_len - start + hist, pad,
                     hist + width).tolist()
    codes_off = _offset_codes(
        offsets[blocks[0] - first_block: blocks[-1] - first_block], config)
    # each block's sums read its samples and the hist before them
    edges = np.empty(2 * len(starts) - 1, dtype=np.intp)
    edges[0::2] = starts
    edges[1::2] = starts[1:] + hist
    # row m is slot m, its samples M apart in memory: the rows lie
    # interleaved, as _scale_in_place needs them
    acc = np.zeros((width, M), dtype=np.int64).T
    peaks = np.empty((len(starts), M), dtype=object)
    spans = list(enumerate(zip(starts.tolist(), ends.tolist())))
    for s in range(M):
        x[pad:] = codes[s, first:stop]
        for lo, hi, code in zip(bounds, bounds[1:], codes_off[:, s].tolist()):
            x[lo:hi] -= code
        # the largest |code| each block's sums read, in Python integers
        top = np.maximum.reduceat(x, edges)[0::2].astype(object)
        bottom = np.minimum.reduceat(x, edges)[0::2].astype(object)
        peaks[:, s] = np.maximum(top, -bottom)
        for b, (a, e) in spans:
            for m, lo, hi in sources[s]:
                acc[m, a:e] += np.convolve(x[hist + a + 1 - hi: hist + e - lo],
                                           dense[b, m, s, lo:hi], "valid")
    # the sums are exact only within the bound: nothing is returned unless
    # every block meets it
    _guard_sums(peaks, tap_sums)
    return acc


def _scale_in_place(acc, scale: float) -> np.ndarray:
    """The interleaved float64 stream of acc, an (M, width) result of
    _chunk_sums scaled to amplitude units, written over acc's memory,
    where its rows lie interleaved: a chunk holds one array, not two."""
    flat = acc.T.reshape(-1)
    merged = flat.view(np.float64)
    # a cast, then the multiply: one np.multiply casting int64 as it goes
    # runs about five times slower on 10^5 samples, to the same values
    np.copyto(merged, flat, casting="unsafe")
    merged *= scale
    return merged


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
