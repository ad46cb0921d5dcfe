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

The four-parameter fit (IEEE Std 1241/1057) solves 3 x 3 and 4 x 4 normal
equations, decides rank from their Gram matrix's eigenvalues, and builds sin
and cos once a frequency by angle addition (see sine_fit_four_param's Notes).
Its BLAS products are at most model._PRODUCT_MACS multiply-adds and none is
a 1-D dot over the record, so OpenBLAS keeps them on the calling thread:
1024-frame products ran five times slower on a 2-vCPU host once OpenBLAS
spread them over threads of its own.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ConvergenceError, DegenerateFitError,
                     PhaseAmbiguityError, ShapeError)
from .model import (_CHUNK, _PRODUCT_MACS, _SPLIT, ChannelCapture,
                    MismatchProfile, TiadcConfig, _angle_sum,
                    dequantize_stream)

_OMEGA_TOL = 1e-12
_MAX_ITERATIONS = 50

EST_BLOCK_PER_CHANNEL = 4096  # samples per channel in one estimation block
_DETECT_SAMPLES = 1 << 16  # prefix read by tone detection's DFT and fit
# blocks that estimate_blocks dequantizes and fits at once: _CHUNK samples
# per channel, so its temporary memory does not grow with the capture
_FIT_BLOCKS = _CHUNK // EST_BLOCK_PER_CHANNEL


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


def _set_frequency(work, length: int, omega: float) -> None:
    """Write sin(omega*n) and cos(omega*n), n < length, into rows 1 and 2
    of work, by model._angle_sum over n = q*_SPLIT + r with a_q =
    omega*(q*_SPLIT) and b_r = omega*r. The padding of rows 1 and 2 stays
    0."""
    a = omega * (_SPLIT * np.arange(work.shape[1] // _SPLIT, dtype=float))
    _angle_sum(a, omega * np.arange(_SPLIT, dtype=float), 0, work[1], work[2])
    work[1:3, length:] = 0.0


def _gram(rows) -> np.ndarray:
    """rows @ rows.T for a (k, W) array, summed over column blocks of at
    most _PRODUCT_MACS multiply-adds, so that OpenBLAS runs each product
    on the calling thread."""
    k, width = rows.shape
    step = _PRODUCT_MACS // (k * k)
    return sum(rows[:, i:i + step] @ rows[:, i:i + step].T
               for i in range(0, width, step))


def _solve(gram, rhs, length: int, what: str) -> np.ndarray:
    """Solve the normal equations gram @ x = rhs of a length-row basis.
    DegenerateFitError when gram, scaled to a unit diagonal, has an
    eigenvalue at or below length*eps times its largest: the rounding of
    the Gram's sums leaves nothing below that to resolve."""
    scale = np.sqrt(np.diagonal(gram))
    scale[scale == 0.0] = 1.0  # a zero column leaves a zero eigenvalue
    eig, vec = np.linalg.eigh(gram / scale / scale[:, None])
    if not eig[0] > eig[-1] * length * np.finfo(float).eps:
        raise DegenerateFitError(f"normal equations singular in {what}")
    return vec @ (vec.T @ (rhs / scale) / eig) / scale


def _three_param_solve(work, length: int, omega: float) -> tuple:
    """(A, B, C) of the least-squares A*sin + B*cos + C at omega for the
    record in row 0 of sine_fit_four_param's work array, and its residual
    sum of squares y'y - sol'B'y. Leaves the sin and cos rows at omega."""
    _set_frequency(work, length, omega)
    p = _gram(work[:4])
    sol = _solve(p[1:, 1:], p[1:, 0], length, "3-parameter solve")
    return sol, float(p[0, 0] - sol @ p[1:, 0])


def _result(a, b, c, omega, work, length: int, iterations,
            exp: int) -> SineFitResult:
    """The fit at (a, b, c, omega), whose sin and cos rows work holds, of
    the record in row 0 scaled by 2^-exp: a, b, c and the residual are
    scaled back by 2^exp."""
    y, sin, cos = work[:3, :length]
    resid = y - (a * sin + b * cos + c)
    a, b, c = (math.ldexp(v, exp) for v in (a, b, c))
    amplitude = math.hypot(a, b)
    phase = math.atan2(b, a)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return SineFitResult(amplitude=amplitude,
                         freq_rel=float(omega) / (2.0 * math.pi), phase=phase, dc=float(c),
                         rms_residual=math.ldexp(
                             float(np.sqrt(np.mean(resid ** 2))), exp),
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


@functools.lru_cache(maxsize=4)
def _detect_window(length: int) -> np.ndarray:
    """Read-only Hann window of detect_tone_freq's DFT, built once per
    length."""
    window = np.hanning(length)
    window.setflags(write=False)
    return window


def _row_name(index: int, shape: tuple, first_block: int = 0) -> str:
    """'channel m', or 'block b channel m', for a flat index into an array
    of shape (M,) or (B, M) whose row 0 is block first_block."""
    *block, m = np.unravel_index(index, shape)
    return ("".join(f"block {b + first_block} " for b in block)
            + f"channel {m}")


def _fit_rows(y, freq_rel: float, first_block: int = 0) -> tuple:
    """Fit A*sin + B*cos + C at one known frequency to every row of y, an
    (M, L) array of channels or a (B, M, L) array of blocks, the first of
    them block first_block (the number errors name): one matrix product
    gives all rows' (A, B, C). Returns (amplitude, phase, dc), arrays of
    shape y.shape[:-1], in SineFitResult's convention."""
    length = y.shape[-1]
    if length < 16:
        raise ConfigError(f"need at least 16 samples, got {length}")
    if not 0.0 < freq_rel < 0.5:
        raise ConfigError(f"sub-rate frequency must be in (0, 0.5), got {freq_rel}")
    rows_shape = y.shape[:-1]
    # C-ordered rows: BLAS sums a strided view's products in another order
    rows = np.ascontiguousarray(y.reshape(-1, length))
    span = np.max(rows, axis=1) - np.min(rows, axis=1)
    constant = span == 0.0
    if np.any(constant):
        raise DegenerateFitError(
            f"{_row_name(np.flatnonzero(constant)[0], rows_shape, first_block)}"
            " is constant and has no sine component")
    a, b, c = (rows @ _shared_pinv(length, freq_rel).T).T
    amplitude = np.hypot(a, b)
    zero = amplitude <= 1e-12 * span
    if np.any(zero):
        raise DegenerateFitError(
            f"{_row_name(np.flatnonzero(zero)[0], rows_shape, first_block)}"
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
    ConfigError
        Fewer than 16 samples, a guess outside (0, 0.5), or a NaN or
        infinite sample (the message names the first).
    DegenerateFitError
        Constant or zero input, or singular fit equations.
    ConvergenceError
        Frequency refinement did not settle in 50 iterations; the error
        carries the last iterate in .last_fit.

    Notes
    -----
    Gauss-Newton on (A, B, C, omega): each iteration solves the linearized
    least-squares with the extra column (n - n0)*(A*cos - B*sin), n0 the
    record's centre, and updates omega by the resulting correction; stops
    when |d_omega|/omega < 1e-12. The centred column keeps the 4 x 4
    normal equations well conditioned; it moves the phase origin to n0,
    which A <- A' + d_omega*n0*B and B <- B' - d_omega*n0*A undo. The guess
    is first refined by a small residual scan over +/- one bin, which
    widens the practical basin to the documented precondition; each scan
    point solves the 3 x 3 normal equations and scores y'y - sol'B'y. A
    scan point other than the guess whose equations are singular is passed
    over; a singular guess raises DegenerateFitError.

    Every solve is a Gram matrix and B'y, both from one product of the
    (k, L) basis with the record appended, in blocks of at most
    model._PRODUCT_MACS multiply-adds, so OpenBLAS never leaves the calling
    thread. A system is singular when the Gram, scaled to a unit diagonal,
    has an eigenvalue at or below L*eps times its largest: the rounding of
    the Gram's sums resolves nothing finer. That is np.linalg.lstsq's cut
    applied to squared singular values, so it is stricter: a scan point
    within about 0.003 bins of frequency 0 is singular here, where lstsq
    resolves down to 5e-6 bins. sin and cos of omega*n are built once a
    frequency by angle addition (n = 256*q + r) from a 256-entry and a
    ceil(L/256)-entry table, by model._angle_sum, the helper that makes
    the simulation's sine as well. The fit runs on the record scaled by the
    power of two that takes its largest |sample| into [0.5, 1), and
    scales amplitude, dc and residual back: every step carries a power of
    two exactly, so the fit is the same at any amplitude in the float
    range, where the Gram's squares of the raw record would overflow
    above about 1e154 and underflow below about 1e-155.
    """
    y = np.asarray(samples, dtype=float)
    if len(y) < 16:
        raise ConfigError(f"need at least 16 samples, got {len(y)}")
    if not 0.0 < freq_guess_rel < 0.5:
        raise ConfigError(f"freq_guess_rel must be in (0, 0.5), got {freq_guess_rel}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ConfigError(f"sample {bad[0]} is not finite: {y[bad[0]]}")
    # the fit runs on the record scaled by 2^-exp, its largest |sample| in
    # [0.5, 1) (see Notes); span is in those units
    exp = int(np.frexp(np.max(np.abs(y)))[1])
    y = np.ldexp(y, -exp)
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        raise DegenerateFitError("constant input has no sine component")

    length = len(y)
    # rows y, sin, cos, ones and the Gauss-Newton derivative column, zero
    # past length: every product sums the record alone
    work = np.zeros((5, -(-length // _SPLIT) * _SPLIT))
    work[0, :length] = y
    work[3, :length] = 1.0
    # residual scan: the Gauss-Newton basin is about +/- half a bin, the
    # documented precondition is a full bin; the best solve seeds it
    best = (math.inf, 2.0 * math.pi * freq_guess_rel, None)
    built = None  # the frequency of work's sin and cos rows
    for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
        f = freq_guess_rel + step / length
        if not 1e-9 < f < 0.5 - 1e-9:
            continue
        built = 2.0 * math.pi * f
        try:
            sol, rss = _three_param_solve(work, length, built)
        except DegenerateFitError:
            if step == 0.0:  # the guess itself: the fit is degenerate
                raise
            continue  # a neighbour the rank rule cannot resolve
        if rss < best[0]:
            best = (rss, built, sol)
    _, omega, sol = best
    # only a guess at a band edge can leave no scan point solved
    if sol is None:
        sol = _three_param_solve(work, length, omega)[0]
    elif omega != built:
        _set_frequency(work, length, omega)
    a, b, c = sol
    n0 = 0.5 * (length - 1)
    centred = np.zeros(work.shape[1])
    centred[:length] = np.arange(length) - n0
    iterations = 0
    for i in range(_MAX_ITERATIONS):
        iterations = i + 1
        deriv = np.multiply(work[2], a, out=work[4])
        deriv -= b * work[1]
        deriv *= centred
        p = _gram(work)
        a_c, b_c, c, d_omega = _solve(p[1:, 1:], p[1:, 0], length,
                                      "4-parameter solve")
        a, b = a_c + d_omega * n0 * b, b_c - d_omega * n0 * a
        omega += d_omega
        # the new frequency's rows serve the result and the next iteration
        _set_frequency(work, length, omega)
        if not 0.0 < omega < math.pi:
            raise ConvergenceError(
                f"frequency iterate left (0, 0.5): {omega / (2 * math.pi)}",
                last_fit=_result(a, b, c, omega, work, length, iterations,
                                 exp))
        if abs(d_omega) / abs(omega) < _OMEGA_TOL:
            fit = _result(a, b, c, omega, work, length, iterations, exp)
            if fit.amplitude <= math.ldexp(1e-12 * span, exp):
                raise DegenerateFitError("fitted amplitude is zero")
            return fit
    raise ConvergenceError(
        f"no convergence after {_MAX_ITERATIONS} iterations",
        last_fit=_result(a, b, c, omega, work, length, iterations, exp))


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
    mags = np.abs(np.fft.rfft(seg * _detect_window(n)))
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
    block per channel, such as a view of a capture's codes. One matrix
    product per _FIT_BLOCKS blocks fits every channel of those blocks at
    the tone's sub-rate alias, and each block's fits are compared with its
    channel 0. Returns (offsets, gains, skews), (B, M) arrays whose row b
    is block b's estimate; an error names the block by its index in
    blocks.

    The solve does not refine the frequency, so tone_freq_rel must be
    accurate (detect_tone_freq's value is). Background calibration runs it
    once on every full block of its capture, and estimate_from_capture on
    a capture's first block.
    """
    M = config.n_channels
    f_sub, _ = alias_to_subrate(tone_freq_rel, M)
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != M:
        raise ShapeError(f"need a (blocks, {M}, length) array of codes, got "
                         f"shape {blocks.shape}")
    if blocks.dtype.kind not in "iu":
        raise ConfigError(f"codes must be integers, got dtype {blocks.dtype}")
    # one batch at least, so the length checks run on no blocks too
    fits = [_fit_rows(dequantize_stream(blocks[b:b + _FIT_BLOCKS], config),
                      f_sub, b)
            for b in range(0, len(blocks) or 1, _FIT_BLOCKS)]
    return derive_mismatches(*map(np.concatenate, zip(*fits)), tone_freq_rel)


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
