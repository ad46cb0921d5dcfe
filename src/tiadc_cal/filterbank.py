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
quantized to two's-complement Q2.(W-2); a bank is a sum of sub-rate
integer convolutions with one final scaling, so results are
bit-reproducible. FilterBank.convolution_terms alone keeps that polyphase
view, which hardware runs in parallel. The chunk kernel _chunk_sums
computes those sums exactly as float64 matrix products over frames of the
interleaved stream: a frame of P outputs costs P + N - 1 multiply-adds an
output where the convolutions cost one per nonzero tap, but BLAS runs
them about four times faster than one np.convolve call per block and
sub-filter. Its guard's tap sums come straight from the taps, and its
peaks from the converter's word and the offset codes alone, never from a
scan of the codes: a ChannelCapture holds only codes within its word,
and a capture_io.CaptureFile range-checks every code it reads.
Its int64 limbs are sized from the chunk's largest bound on a |sample|,
since a block's last frame may read the next block. The chunk driver
lays one bank out (_bank_layout: frame matrices and tap sums) once per
call, and a bank per block once per chunk. design_banks and the chunk
kernel work on tap and offset arrays; FilterBank is the record of one
bank, and where a hand-built bank's taps and offsets are checked.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TapOverflowError
from .model import (_CHUNK, _PRODUCT_MACS, ChannelCapture, MismatchProfile,
                    TiadcConfig, _require_integers)
from .polyphase import _ACC_LIMIT, _guard_sums

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
        _require_integers(self, "n_taps", "coeff_bits")
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
        sample k*M + m - D by channel (m - D) % M, whose tap j reads source
        (m - j) % M: a triple's taps are the stride-M slice of that
        channel's taps from tap (m - s) % M (the polyphase decomposition).
        Zero taps at either end of a triple are dropped and all-zero triples
        left out: an output costs one multiply-accumulate per nonzero tap
        of its channel, at most N. Every lag + len(taps) is at most N: N-1
        samples of history per channel are enough.
        """
        taps = np.asarray(self.taps_fixed, dtype=np.int64)
        M = self.n_channels
        terms = [[] for _ in range(M)]
        for m, s in np.ndindex(M, M):
            h = taps[(m - self.group_delay) % M, (m - s) % M::M]
            live = np.flatnonzero(h)
            if len(live):
                lo, hi = int(live[0]), int(live[-1]) + 1
                terms[m].append((s, int(m < s) + lo, h[lo:hi]))
        return tuple(map(tuple, terms))


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
    return _calibrated_pieces(capture, spec, np.asarray(bank.taps_fixed)[None],
                              offsets[None], capture.n_per_channel)


def _calibrated_pieces(capture: ChannelCapture, spec: FilterSpec, taps,
                       offsets, block_len: int):
    """The chunk driver of calibrate_capture and the background loop: yield
    the merged calibrated samples, D*M trimmed at each end, as consecutive
    fresh float64 arrays, one per chunk of _CHUNK samples per channel that
    holds some of them.

    taps (B, M, N) and offsets (B, M) hold one bank per block of block_len
    samples, from sample 0. Every chunk, the trimmed samples too, runs
    through the chunk kernel _chunk_sums with the rows of the blocks its
    samples and its N-1 history samples lie in, so the overflow guard sees
    every sample. The chunks run one after another on the calling thread,
    each from the capture alone: its codes and their N-1 samples of
    history come from capture.codes, the accessor of a ChannelCapture and
    a capture_io.CaptureFile alike, so a capture file is read one chunk at
    a time. An error is raised after the pieces of the chunks before the
    one that raised it.

    One bank (B = 1: truth mode, or a capture of one block) is laid out
    once per call (_bank_layout) and every chunk runs that layout; the
    kernel lays out a chunk's own banks when there are more, so memory
    does not grow with the number of blocks.
    """
    M = capture.config.n_channels
    n = capture.n_per_channel
    hist = spec.n_taps - 1
    trim = spec.group_delay * M
    scale = 2.0 ** -(spec.coeff_bits - 2) * capture.config.lsb
    layout = _bank_layout(taps, spec, M) if len(taps) == 1 else None

    def piece(start):
        stop = min(start + _CHUNK, n)
        lo = max(start - hist, 0)
        first = lo // block_len
        rows = slice(start // block_len, (stop - 1) // block_len + 1)
        codes = capture.codes(lo, stop).reshape(-1, M).T
        acc = _chunk_sums(codes, capture.config, spec, start, stop,
                          taps[rows], offsets[first:rows.stop], first,
                          block_len, layout, lo)
        # the part of merged samples [start*M, stop*M) inside the trim,
        # scaled over the accumulators' own memory
        lo = max(trim - start * M, 0)
        hi = min((n - start) * M - trim, (stop - start) * M)
        merged = acc.T.reshape(-1)[lo:max(lo, hi)]
        merged *= scale
        return merged

    # filter keeps no piece alive while the next ones are made
    yield from filter(len, map(piece, range(0, n, _CHUNK)))


# a frame holds at least min(N - 1, _FRAME_REACH) samples: a frame of P
# outputs costs P + N - 1 multiply-adds an output, and a bank's frame
# matrices hold about (N + 2P)*P floats
_FRAME_REACH = 64
# the aggregate samples of a batch of frames: each of a batch's products is
# one numpy call for all its frames
_BATCH_SAMPLES = 1 << 15


def _frame_index(M: int, N: int, P: int) -> np.ndarray:
    """Where the frame matrices of a bank of M*N taps take their taps: an
    index (T+1, P, P), T = ceil((N-1)/P), into the bank's taps, row-major,
    followed by one zero. Frame matrix A[t, u, r] is the tap by which
    output r of a frame of P aggregate samples reads sample u of the frame
    t frames earlier, taps[(r - D) % M, r - u + t*P], or zero outside the
    taps (P is a multiple of M). Rows u below t*P - N + 1 of A[t] are all
    zero."""
    r = np.arange(P)
    j = r - r[:, None] + P * np.arange(-(-(N - 1) // P) + 1)[:, None, None]
    return np.where((j >= 0) & (j < N), (r - ((N + 1) // 2 - 1)) % M * N + j,
                    M * N)


def _fir_frames(z, at: int, mats, out, scratch) -> None:
    """Write frames of a periodically time-varying FIR's output into out,
    (..., g, P), frame f of it at samples at + f*P .. of the stream z:
    frame f = sum_t z's frame f - t times mats[t], a frame matrix A[t]
    without its zero rows (_frame_index). A (g, P) stack of frames is one
    BLAS product, and one numpy call runs all of out's stacks. scratch, of
    out's size at least, holds the products for t > 0. z holds the N-1
    samples before at."""
    P = out.shape[-1]
    for t, a in enumerate(mats):
        lo = P - len(a)
        base = at - t * P + lo
        frames = z[base:base + out.size].reshape(out.shape)[..., :P - lo]
        if t == 0:
            np.matmul(frames, a, out=out)
        else:
            part = scratch[:out.size].reshape(out.shape)
            np.matmul(frames, a, out=part)
            out += part


def _limb_frames(z, at: int, mats, out, scratch, bits: int,
                 limbs: int) -> None:
    """_fir_frames over z, an int64 stream, for exact sums of any size
    below 2^62: z runs as limbs of bits bits each, every limb in
    [-2^(bits-1), 2^(bits-1)], and the limbs' sums are recombined in int64
    before the one cast into out."""
    half = 1 << (bits - 1)
    parts = []
    for _ in range(limbs - 1):
        parts.append(((z + half) & ((1 << bits) - 1)) - half)
        z = (z - parts[-1]) >> bits
    sums = 0
    for part in [z] + parts[::-1]:
        _fir_frames(part.astype(np.float64), at, mats, out, scratch)
        sums = (sums << bits) + out.astype(np.int64)
    np.copyto(out, sums, casting="unsafe")


def _offset_stream(z, codes, origin: int, first: int, stop: int,
                   block_len: int, block0: int, block_codes) -> None:
    """Fill z, (K, M), with samples first to first + K of every channel of
    codes, whose column 0 is sample origin, less their block's offset
    code, block_codes[b - block0] for block b, and zeros outside samples 0
    to stop: row k of z is the interleaved stream's samples M*k to
    M*k + M - 1 from sample first."""
    lo, hi = max(first, 0), min(first + len(z), stop)
    z[:lo - first] = 0
    z[hi - first:] = 0
    np.copyto(z[lo - first:hi - first], codes[:, lo - origin:hi - origin].T,
              casting="unsafe")
    for b in range(lo // block_len, (hi - 1) // block_len + 1):
        rows = slice(max(b * block_len, lo) - first,
                     min((b + 1) * block_len, hi) - first)
        for s, code in enumerate(block_codes[b - block0].tolist()):
            if code:
                z[rows, s] -= code


@dataclass(frozen=True)
class _Layout:
    """What the chunk kernel needs of B banks, whatever the codes:
    tap_sums[b, m, s], the sum of |taps| by which source s feeds slot m
    in bank b; s_max, the largest slot sum of |taps|; the frame size P;
    and mats[b], bank b's frame matrices without their zero rows
    (_frame_index, _fir_frames)."""

    tap_sums: np.ndarray
    s_max: int
    P: int
    mats: list


def _bank_layout(taps, spec: FilterSpec, M: int) -> _Layout:
    """Lay out the (B, M, N) banks taps for the chunk kernel, with one
    gather for all B banks' frame matrices. Taps outside the spec's
    coeff_bits raise TapOverflowError."""
    N = spec.n_taps
    hist = N - 1
    # taps within the word keep |taps| <= 2^31, so their int64 abs and
    # sums are exact, and float64 holds them; slot m runs channel
    # (m - D) % M, whose tap j reads source (m - j) % M
    _check_word_length(taps, spec.coeff_bits)
    taps = np.asarray(taps, dtype=np.int64)
    slots = np.arange(M)
    feeds = (slots[:, None] - np.arange(N)) % M == slots[:, None, None]
    tap_sums = np.einsum("bmj,smj->bms",
                         np.abs(taps[:, (slots - spec.group_delay) % M]), feeds)
    P = M
    while P < min(hist, _FRAME_REACH):
        P *= 2
    flat = np.zeros((len(taps), M * N + 1))
    flat[:, :-1] = taps.reshape(len(taps), -1)
    mats = [[A[t, max(0, t * P - hist):] for t in range(len(A))]
            for A in flat[:, _frame_index(M, N, P)]]
    return _Layout(tap_sums, int(tap_sums.sum(axis=2).max()), P, mats)


def _chunk_sums(codes, config: TiadcConfig, spec: FilterSpec, start: int,
                stop: int, taps, offsets, first_block: int,
                block_len: int, layout: _Layout = None,
                origin: int = 0) -> np.ndarray:
    """The exact accumulators of samples start to stop of every channel,
    computed from the capture alone: an (M, stop - start) float64 array,
    row m for output slot m (see FilterBank.convolution_terms), whose rows
    lie interleaved in memory, sample k of row m at k*M + m. Each is an
    integer, the int64 sum of convolve_serial's rule cast to float64.

    This is the one place the fixed-point rule runs: subtract each block's
    offset code, multiply-accumulate exactly, return the sums only if
    polyphase._guard_sums finds every block's exact, and let the caller
    scale once. The guard's tap sums come straight from the taps, and its
    peaks from config and the offset codes alone, as a hardware designer
    sizes an accumulator from the converter's word: every code lies in
    [-2^(bits-1), 2^(bits-1) - 1] (ChannelCapture's rule), so block b's
    peak for source s is 2^(bits-1) plus the largest |offset code| of s
    in the blocks that b's sums read, b itself and those its N-1 samples
    of history lie in. No code is scanned.

    The bank is a periodically time-varying FIR on the interleaved
    offset-corrected stream z: output p = sum_j taps[(p - D) % M, j] *
    z[p - j]. Cut into frames of P aggregate samples, P a multiple of M
    and at least N-1 up to _FRAME_REACH, a frame of output is a sum of
    float64 matrix products of the frames before it with the bank's frame
    matrices (_frame_index, _fir_frames). Every product and partial sum is
    an integer no larger than 2^(bits-1) plus the chunk's largest |offset
    code|, times the largest slot's sum of |taps|; below 2^53 float64
    holds each exactly in any BLAS summation order. A chunk where that
    bound is larger builds z in int64 and runs every block as limbs whose
    sums stay below 2^53 (_limb_frames), exact for banks of fewer than
    2^22 taps a channel. The limbs are sized for the whole chunk, not a
    block's own peaks: a block's last frame may read the next block.

    codes is the (M, n) per-channel view of a capture's samples from
    sample origin on, of any integer type, every code within config's
    word: the sums of a code outside it may be wrong. It holds samples
    max(start - N + 1, 0) to stop at least. The capture runs in blocks of
    block_len samples from sample 0.
    taps (B, M, N) are the banks of the B blocks the chunk touches, and
    row b of offsets (full-scale units) is block first_block + b's, for
    every block from the one of sample max(start - N + 1, 0) to the
    chunk's last. A bank applies from the first sample of its block, and
    every sample keeps its own block's offset in each sum that reads it,
    so the chunk's sums are those of one pass over the whole capture
    wherever the chunk and block edges fall. layout is _bank_layout of
    taps, laid out by the caller once for many chunks, or None to lay the
    chunk's banks out here. Taps outside the spec's coeff_bits raise
    TapOverflowError.
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
    if layout is None:
        layout = _bank_layout(taps, spec, M)
    s_max = layout.s_max

    blocks = np.arange(max(start - hist, 0) // block_len,
                       (stop - 1) // block_len + 1)
    block_codes = _offset_codes(np.asarray(offsets)[blocks - first_block],
                                config)
    # every code lies in the word (ChannelCapture's rule), so no sum reads
    # a |code - offset code| above largest, 2^(bits-1) plus the chunk's
    # largest |offset code|: limbs of bits bits, sized from it, keep each
    # limb's sums below 2^53 and cover every block's reads, since a
    # block's last frame may read the next block
    half = config.code_half_range
    mags = np.abs(block_codes).tolist()
    largest = half + max(map(max, mags))
    # the sums are exact only within the bound: nothing is computed unless
    # every block meets it. Below the limit, largest times the largest
    # slot sum bounds every block; otherwise block b's peak for source s
    # is 2^(bits-1) plus s's largest |offset code| in the blocks b's sums
    # read, its own and those its first N-1 samples of history lie in
    if largest * s_max >= _ACC_LIMIT:
        own = start // block_len - blocks[0]
        reads = (np.maximum(starts + start - hist, 0) // block_len
                 - blocks[0]).tolist()
        _guard_sums([[half + max(col) for col in zip(*mags[r:own + i + 1])]
                     for i, r in enumerate(reads)], layout.tap_sums.tolist())
    exact = largest * s_max < 1 << 53
    bits = 54 - s_max.bit_length()
    limbs = -(-(largest.bit_length() + 2) // bits)
    P = layout.P
    # stacks of frames a product, batches of stacks a numpy call, each
    # batch over a window of z: lead >= N-1 samples of history, then the
    # batch's own, built over one scratch array
    stack = max(1, min(_PRODUCT_MACS // (P * P), _BATCH_SAMPLES // P))
    batch = max(1, _BATCH_SAMPLES // (stack * P)) * stack
    lead = -(-hist // M) * M
    window = np.empty(((lead + batch * P) // M, M),
                      dtype=np.float64 if exact else np.int64)
    scratch = np.empty(batch * P)
    acc = np.empty(width * M + P)
    for mats, a, e in zip(layout.mats, starts.tolist(), ends.tolist()):
        # the block's frames; its last may run past the block, into
        # outputs the next block then writes over
        n_frames = -(-(e - a) * M // P)
        for f in range(0, n_frames, batch):
            q = a * M + f * P
            g = min(batch, n_frames - f)
            z = window[:(lead + g * P) // M]
            _offset_stream(z, codes, origin, start + (q - lead) // M,
                           stop, block_len, blocks[0], block_codes)
            whole = g // stack * stack
            for f0, n, shape in ((0, whole, (g // stack, stack, P)),
                                 (whole, g - whole, (g - whole, P))):
                if n:
                    out = acc[q + f0 * P:q + (f0 + n) * P].reshape(shape)
                    if exact:
                        _fir_frames(z.reshape(-1), lead + f0 * P, mats, out,
                                    scratch)
                    else:
                        _limb_frames(z.reshape(-1), lead + f0 * P, mats, out,
                                     scratch, bits, limbs)
    return acc[:width * M].reshape(width, M).T


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
