"""Sine fitting and per-channel mismatch estimation.

Each sub-channel of an M-way interleaved converter sees the common test tone
aliased to its own rate: a tone at relative frequency f (fraction of the
aggregate rate) appears in channel data at f_sub = (f*M) mod 1, reflected
about the sub-rate Nyquist when that alias lands above 0.5. Tone detection
pins f once, with a four-parameter fit (A*sin + B*cos + C with frequency
refinement) of channel 0. Every estimation block then needs only one linear
three-parameter solve at that shared f_sub: a cached pseudo-inverse of the
[sin, cos, 1] basis gives all channels' amplitude, phase, and dc in one
matrix product. Mismatches follow by comparing against channel 0, which is
defined to be the reference (all its mismatches are zero), as arrays with
one row of M channels per block.

The skew estimate comes from the phase difference: channel m's carrier phase
leads channel 0's by 2*pi*f*(m + dt_m), known only modulo 2*pi, so the branch
is chosen to make |dt_m| smallest; mismatches are assumed well below one
sample period.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ConvergenceError, DegenerateFitError,
                     PhaseAmbiguityError, ShapeError)
from .model import ChannelCapture, MismatchProfile, TiadcConfig, dequantize_stream

_OMEGA_TOL = 1e-12
_MAX_ITERATIONS = 50

EST_BLOCK_PER_CHANNEL = 4096  # samples per channel in one estimation block
_DETECT_SAMPLES = 1 << 16  # prefix read by tone detection's DFT and fit


@dataclass(frozen=True)
class SineFitResult:
    """Least-squares parameters of one channel's record.

    freq_rel is a fraction of the fitted record's own rate (the sub-channel
    rate when fitting channel data). phase is in (-pi, pi] for the model
    amplitude * sin(2*pi*freq_rel*n + phase) + dc.
    """

    amplitude: float
    freq_rel: float
    phase: float
    dc: float
    rms_residual: float
    iterations: int


def _three_param_solve(y, n, omega):
    m3 = np.column_stack([np.sin(omega * n), np.cos(omega * n), np.ones_like(n)])
    sol, res, rank, _ = np.linalg.lstsq(m3, y, rcond=None)
    if rank < 3:
        raise DegenerateFitError("normal equations singular in 3-parameter solve")
    model = m3 @ sol
    return sol, float(np.sum((y - model) ** 2))


def _result(a, b, c, omega, y, n, iterations) -> SineFitResult:
    amplitude = math.hypot(a, b)
    phase = math.atan2(b, a)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    resid = y - (a * np.sin(omega * n) + b * np.cos(omega * n) + c)
    return SineFitResult(amplitude=amplitude, freq_rel=omega / (2.0 * math.pi),
                         phase=phase, dc=float(c),
                         rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                         iterations=iterations)


@functools.lru_cache(maxsize=4)
def _shared_pinv(length: int, freq_rel: float) -> np.ndarray:
    """Read-only pseudo-inverse of the [sin, cos, 1] basis (length x 3) at
    freq_rel cycles per sample. Every block of a run has the same length
    and frequency, so it is built once."""
    n = np.arange(length, dtype=float)
    omega = 2.0 * math.pi * freq_rel
    basis = np.column_stack([np.sin(omega * n), np.cos(omega * n),
                             np.ones(length)])
    u, s, vt = np.linalg.svd(basis, full_matrices=False)
    # the rank cut-off np.linalg.lstsq applies with rcond=None
    if np.count_nonzero(s > s[0] * length * np.finfo(float).eps) < 3:
        raise DegenerateFitError("normal equations singular in 3-parameter solve")
    pinv = (vt.T / s) @ u.T
    pinv.setflags(write=False)
    return pinv


def _row_name(index: int, shape: tuple) -> str:
    """'channel m', or 'block b channel m', for a flat index into an array
    of shape (M,) or (B, M)."""
    *block, m = np.unravel_index(index, shape)
    return "".join(f"block {b} " for b in block) + f"channel {m}"


def _fit_rows(y, freq_rel: float) -> tuple:
    """Fit A*sin + B*cos + C at one known frequency to every row of y, an
    (M, L) array of channels or a (B, M, L) array of blocks: one matrix
    product gives all rows' (A, B, C). Returns (amplitude, phase, dc),
    arrays of shape y.shape[:-1], in SineFitResult's convention."""
    length = y.shape[-1]
    if length < 16:
        raise ConfigError(f"need at least 16 samples, got {length}")
    if not 0.0 < freq_rel < 0.5:
        raise ConfigError(f"sub-rate frequency must be in (0, 0.5), got {freq_rel}")
    rows_shape = y.shape[:-1]
    # C-ordered rows: BLAS sums a strided view's products in another order
    rows = np.ascontiguousarray(y.reshape(-1, length))
    span = np.max(rows, axis=1) - np.min(rows, axis=1)
    if np.any(span == 0.0):
        raise DegenerateFitError(
            f"{_row_name(np.flatnonzero(span == 0.0)[0], rows_shape)} "
            "is constant and has no sine component")
    a, b, c = (rows @ _shared_pinv(length, freq_rel).T).T
    amplitude = np.hypot(a, b)
    if np.any(amplitude <= 1e-12 * span):
        raise DegenerateFitError(
            f"{_row_name(np.flatnonzero(amplitude <= 1e-12 * span)[0], rows_shape)}"
            ": fitted amplitude is zero")
    phase = np.arctan2(b, a)
    phase[phase <= -math.pi] += 2.0 * math.pi
    return (amplitude.reshape(rows_shape), phase.reshape(rows_shape),
            c.reshape(rows_shape))


def sine_fit_four_param(samples, freq_guess_rel: float) -> SineFitResult:
    """Fit amplitude, frequency, phase, and dc of a sampled sine.

    Parameters
    ----------
    samples : sequence of reals
        At least 16 samples of one sine plus noise.
    freq_guess_rel : float
        Starting frequency in (0, 0.5), within one DFT bin (1/len) of truth.

    Returns
    -------
    SineFitResult

    Raises
    ------
    DegenerateFitError
        Constant or zero input, or singular fit equations.
    ConvergenceError
        Frequency refinement did not settle in 50 iterations; the error
        carries the last iterate in .last_fit.

    Notes
    -----
    Gauss-Newton on (A, B, C, omega): each iteration solves the linearized
    least-squares with the extra column n*(A*cos - B*sin) and updates omega
    by the resulting correction; stops when |d_omega|/omega < 1e-12. The
    guess is first refined by a small residual scan over +/- one bin, which
    widens the practical basin to the documented precondition.
    """
    y = np.asarray(samples, dtype=float)
    if len(y) < 16:
        raise ConfigError(f"need at least 16 samples, got {len(y)}")
    if not 0.0 < freq_guess_rel < 0.5:
        raise ConfigError(f"freq_guess_rel must be in (0, 0.5), got {freq_guess_rel}")
    span = float(np.max(y) - np.min(y)) if len(y) else 0.0
    if span == 0.0:
        raise DegenerateFitError("constant input has no sine component")

    n = np.arange(len(y), dtype=float)
    bin_width = 1.0 / len(y)
    # residual scan: the Gauss-Newton basin is about +/- half a bin, the
    # documented precondition is a full bin; the best solve seeds it
    best = (math.inf, 2.0 * math.pi * freq_guess_rel, None)
    for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
        f = freq_guess_rel + step * bin_width
        if not 1e-9 < f < 0.5 - 1e-9:
            continue
        sol, rss = _three_param_solve(y, n, 2.0 * math.pi * f)
        if rss < best[0]:
            best = (rss, 2.0 * math.pi * f, sol)
    _, omega, sol = best
    # only a guess at a band edge can leave every scan point out of band
    a, b, c = sol if sol is not None else _three_param_solve(y, n, omega)[0]
    iterations = 0
    for i in range(_MAX_ITERATIONS):
        iterations = i + 1
        m4 = np.column_stack([
            np.sin(omega * n), np.cos(omega * n), np.ones_like(n),
            n * (a * np.cos(omega * n) - b * np.sin(omega * n)),
        ])
        sol, _, rank, _ = np.linalg.lstsq(m4, y, rcond=None)
        if rank < 4:
            raise DegenerateFitError("normal equations singular in 4-parameter solve")
        a, b, c, d_omega = sol
        omega += d_omega
        if not 0.0 < omega < math.pi:
            raise ConvergenceError(
                f"frequency iterate left (0, 0.5): {omega / (2 * math.pi)}",
                last_fit=_result(a, b, c, omega, y, n, iterations))
        if abs(d_omega) / abs(omega) < _OMEGA_TOL:
            fit = _result(a, b, c, omega, y, n, iterations)
            if fit.amplitude <= 1e-12 * span:
                raise DegenerateFitError("fitted amplitude is zero")
            return fit
    raise ConvergenceError(
        f"no convergence after {_MAX_ITERATIONS} iterations",
        last_fit=_result(a, b, c, omega, y, n, iterations))


def alias_to_subrate(freq_rel: float, n_channels: int) -> tuple:
    """Where a tone at freq_rel (aggregate units) lands in channel data.

    Returns (f_sub, reflected): the sub-rate frequency in (0, 0.5) and
    whether the alias is spectrally reflected (which negates phase).
    """
    if not 0.0 < freq_rel < 0.5:
        raise ConfigError(f"tone frequency must be in (0, 0.5) of fs, got {freq_rel}")
    a = (freq_rel * n_channels) % 1.0
    if min(a, 1.0 - a, abs(a - 0.5)) < 1e-9:
        raise ConfigError(
            "tone at %.9g of fs aliases onto a channel band edge for M=%d; "
            "per-channel sine fits are degenerate there" % (freq_rel, n_channels))
    if a < 0.5:
        return a, False
    return 1.0 - a, True


def derive_mismatches(amplitudes, phases, dcs, tone_freq_rel: float) -> tuple:
    """Turn per-channel sine fits into offset/gain/skew estimates.

    Parameters
    ----------
    amplitudes, phases, dcs : arrays of shape (..., M)
        Fitted parameters of M channels (a SineFitResult's amplitude, phase
        and dc), each row fitted on captures of the same tone: (M,) for one
        block, (B, M) for B blocks.
    tone_freq_rel : float
        The tone frequency as a fraction of the aggregate rate, in (0, 0.5).

    Returns
    -------
    (offsets, gains, skews), arrays of shape (..., M)
        Channel-0 entries are exactly zero. Gains are amplitude ratios minus
        one, offsets are dc differences, skews come from phase differences
        with the 2*pi branch chosen to minimize |dt|.

    Raises
    ------
    PhaseAmbiguityError
        Every phase-unwrap branch puts |dt| at or beyond 0.5 Ts; the message
        names the first such block and channel.
    """
    amps = np.asarray(amplitudes, dtype=float)
    phases = np.asarray(phases, dtype=float)
    dcs = np.asarray(dcs, dtype=float)
    if amps.ndim == 0 or not amps.shape == phases.shape == dcs.shape:
        raise ShapeError(f"amplitudes {amps.shape}, phases {phases.shape} and "
                         f"dcs {dcs.shape} must be arrays of one shape (..., M)")
    M = amps.shape[-1]
    _, reflected = alias_to_subrate(tone_freq_rel, M)
    if np.any(amps[..., 0] <= 0.0):
        raise DegenerateFitError("reference channel amplitude is zero")
    # a reflected alias maps carrier phase theta to pi - theta; undo it
    carrier = (math.pi - phases) if reflected else phases

    gains = amps / amps[..., :1] - 1.0
    offsets = dcs - dcs[..., :1]
    dphi = carrier - carrier[..., :1]
    m = np.arange(M)
    # channel m's phase leads by 2*pi*f*(m + dt); the branch j nearest to
    # f*m - dphi/(2*pi) gives the dt nearest zero
    j = np.rint(tone_freq_rel * m - dphi / (2.0 * math.pi))
    skews = (dphi + 2.0 * math.pi * j) / (2.0 * math.pi * tone_freq_rel) - m
    bad = np.flatnonzero(np.abs(skews) >= 0.5)
    if bad.size:
        raise PhaseAmbiguityError(
            f"{_row_name(bad[0], skews.shape)}: nearest skew branch is "
            f"{skews.flat[bad[0]]:.4f} Ts (>= 0.5); phase difference is ambiguous")
    return offsets, gains, skews


def detect_tone_freq(capture: ChannelCapture) -> float:
    """Recover the tone frequency (aggregate units) from a capture alone.

    A windowed-DFT peak of the first 65 536 interleaved samples gives a
    coarse value (good to a small fraction of a bin); a four-parameter fit
    of the first 65 536 samples of channel 0 then pins the sub-rate alias,
    and the coarse value selects which aggregate-band copy that alias came
    from. Longer captures cost no more.
    """
    config = capture.config
    seg = dequantize_stream(capture.interleaved[:_DETECT_SAMPLES], config)
    n = len(seg)
    if n // 2 + 1 < 4:  # the peak and both its neighbours, off the dc bin
        raise ConfigError(f"capture too short for frequency detection: "
                          f"{n} samples")
    mags = np.abs(np.fft.rfft(seg * np.hanning(n)))
    k = 1 + int(np.argmax(mags[1:-1]))
    lo, mid, hi = (math.log(mags[k - 1] + 1e-300), math.log(mags[k] + 1e-300),
                   math.log(mags[k + 1] + 1e-300))
    denom = lo - 2.0 * mid + hi
    frac = 0.5 * (lo - hi) / denom if denom != 0.0 else 0.0
    coarse = (k + frac) / n
    if not 0.0 < coarse < 0.5:
        raise DegenerateFitError(f"detected peak at {coarse}, outside (0, 0.5)")

    M = config.n_channels
    alias_coarse = (coarse * M) % 1.0
    reflected = alias_coarse > 0.5
    guess_sub = 1.0 - alias_coarse if reflected else alias_coarse
    guess_sub = min(max(guess_sub, 1e-6), 0.5 - 1e-6)
    ch0 = dequantize_stream(capture.per_channel[0][:_DETECT_SAMPLES], config)
    fit = sine_fit_four_param(ch0, guess_sub)
    alias_fine = 1.0 - fit.freq_rel if reflected else fit.freq_rel
    band = round(coarse * M - alias_fine)
    freq = (band + alias_fine) / M
    if not 0.0 < freq < 0.5:
        raise DegenerateFitError(f"reconstructed frequency {freq} out of band")
    return freq


def estimate_blocks(blocks, config: TiadcConfig,
                    tone_freq_rel: float) -> tuple:
    """Estimate all mismatches from each of B blocks at once.

    blocks is a (B, M, L) array of codes: B blocks of one equal-length
    block per channel. One matrix product fits every channel of every block
    at the tone's sub-rate alias, and each block's fits are compared with
    its channel 0. Returns (offsets, gains, skews), (B, M) arrays whose row
    b is block b's estimate.

    The solve does not refine the frequency, so tone_freq_rel must be
    accurate (detect_tone_freq's value is). Background calibration runs it
    on every chunk of its capture, and estimate_from_capture on a capture's
    first block.
    """
    M = config.n_channels
    f_sub, _ = alias_to_subrate(tone_freq_rel, M)
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != M:
        raise ShapeError(f"need a (blocks, {M}, length) array of codes, got "
                         f"shape {blocks.shape}")
    fits = _fit_rows(dequantize_stream(blocks, config), f_sub)
    return derive_mismatches(*fits, tone_freq_rel)


def estimate_from_capture(capture: ChannelCapture,
                          tone_freq_rel: float = None) -> MismatchProfile:
    """Estimate all mismatches once, from the start of a capture.

    Uses the first EST_BLOCK_PER_CHANNEL samples of each channel (or the
    whole channel if shorter): one block of estimate_blocks, read straight
    from the capture's per_channel view. When tone_freq_rel is omitted it
    is detected from the data. The estimate is a validated MismatchProfile,
    so a |gain| at or above 0.5 raises ConfigError.
    """
    if tone_freq_rel is None:
        tone_freq_rel = detect_tone_freq(capture)
    estimate = estimate_blocks(capture.per_channel[None, :, :EST_BLOCK_PER_CHANNEL],
                               capture.config, tone_freq_rel)
    return MismatchProfile(*(v[0] for v in estimate))
