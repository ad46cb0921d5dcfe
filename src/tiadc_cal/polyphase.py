"""Exact integer convolution: the serial rule every calibration runs, and
the polyphase lane decomposition that models a parallel hardware realization.

The calibration filters run as sub-rate FIRs under convolve_serial's rule:
filterbank.StreamCalibrator applies it with np.convolve, one call per
block and sub-rate term, behind the range guard defined here; that is the
only execution path. The paper notes that the filter bank can be
computed in parallel in hardware by splitting a sub-channel stream into L
interleaved lanes (samples at indices j mod L), convolving each lane
independently and merging the lane outputs. parallel_convolve models that
decomposition; its merge is bit-exact with the serial integer convolution
for every L, which is what makes the decomposition safe under fixed-point
rules. It is a model to check that claim against, not a faster path: in
software L lanes cost about L times the per-output overhead of one serial
numpy convolution. The lane count L is a plain integer: decompose and
parallel_convolve_stream take it, and parallel_convolve reads it from the
number of lanes it is given; each rejects L < 1 with ConfigError.

Software parallelism works a level up, on whole chunks of 65 536 samples
per channel: a chunk's calibrator history can be rebuilt from the
capture, so the chunks are independent, and model._chunk_map runs them
on one thread per core, as many at once as fit in its memory budget. A
chunk is a few milliseconds of np.convolve, which releases the GIL,
against microseconds of Python to hand it out; a lane is a short
convolution whose start-up costs as much as its work, so threads per
lane ran slower than one serial pass.

All convolutions here are exact int64 multiply-accumulate. Every integer
route, StreamCalibrator's included, states its overflow bound through
_guard_sums alone: summed over the sources of one accumulator, the largest
|code| times the sum of |taps| must stay below 2^62.
"""

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# max |code| * sum|taps| must stay below this for exact int64 accumulation
_ACC_LIMIT = 1 << 62


def _as_int64(arr, what: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.dtype.kind not in "iu":
        raise ConfigError(f"{what} must be integers, got dtype {out.dtype}")
    return out.astype(np.int64, copy=False)


def _max_abs(codes: np.ndarray) -> int:
    return max(int(codes.max()), -int(codes.min())) if len(codes) else 0


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|values| of an int64 array as uint64: exact even for -2^63, which
    int64 abs wraps to itself."""
    bits = values.view(np.uint64)
    return np.where(values < 0, -bits, bits)


def _abs_sum(taps: np.ndarray) -> int:
    """Exact sum of |taps|, in Python integers."""
    return int(_magnitudes(taps).sum(dtype=object))


def _guard_sums(peaks, tap_sums) -> None:
    """Reject accumulations whose sums could wrap 64-bit integers: the one
    statement of the bound, checked in exact integers.

    peaks[..., s] is source s's largest |code| and tap_sums[..., k, s] the
    sum of |taps| by which source s feeds accumulator k; accumulator k's
    bound is the sum over s of their products, and it must stay below
    _ACC_LIMIT. Both must be exact (see _max_abs and _magnitudes): int64
    abs wraps -2^63 to itself, and an int64 sum of |taps| can wrap.
    """
    bound = (np.asarray(tap_sums, dtype=object)
             * np.asarray(peaks, dtype=object)[..., None, :]).sum(axis=-1)
    peak = max(bound.flat, default=0)
    if peak >= _ACC_LIMIT:
        raise NumericError(
            f"worst-case accumulator {peak} would overflow 64-bit integers")


def convolve_serial(codes, taps_fx) -> np.ndarray:
    """Causal FIR with zero initial history: y[k] = sum_i h[i]*x[k-i].

    Output length equals input length. This is the reference rule every
    other execution path (polyphase, blockwise) must match bit for bit.
    """
    codes = _as_int64(codes, "codes")
    taps = _as_int64(taps_fx, "taps")
    _guard_sums([_max_abs(codes)], [[_abs_sum(taps)]])
    if len(codes) == 0:
        return codes
    return np.convolve(codes, taps)[: len(codes)]


def decompose(stream, lanes: int) -> list:
    """Split into L lanes: lane j holds samples at indices j mod L."""
    if lanes < 1:
        raise ConfigError(f"lanes must be >= 1, got {lanes}")
    stream = np.asarray(stream)
    return [stream[j::lanes] for j in range(lanes)]


def _expected_lengths(total: int, lanes: int) -> list:
    return [-(-(total - j) // lanes) for j in range(lanes)]


def recompose(substreams) -> np.ndarray:
    """Exact inverse of decompose."""
    subs = [np.asarray(s) for s in substreams]
    lanes = len(subs)
    if lanes == 0:
        raise ShapeError("no substreams to recompose")
    total = sum(len(s) for s in subs)
    lens = [len(s) for s in subs]
    if lens != _expected_lengths(total, lanes):
        raise ShapeError(
            f"lane lengths {lens} not a mod-{lanes} split of {total} samples")
    out = np.empty(total, dtype=np.result_type(*subs) if total else np.int64)
    for j, s in enumerate(subs):
        out[j::lanes] = s
    return out


def parallel_convolve(substreams, taps_fx) -> list:
    """Convolve the L = len(substreams) lanes of decompose so that
    recompose(output) matches the serial rule.

    Output lane r collects y[qL+r] = sum_u (h_u * x_u)[q] where h_u is the
    u-th phase of the taps (h_u[p] = h[pL+u]) and x_u is lane (r-u) mod L,
    delayed one sample when u > r (that lane's contributing samples then
    come from the previous aggregate index block). Lanes are independent;
    they are evaluated in turn.
    """
    subs = [_as_int64(s, "substream") for s in substreams]
    lanes = len(subs)
    if lanes < 1:
        raise ConfigError("no substreams: lanes must be >= 1")
    total = sum(len(s) for s in subs)
    if [len(s) for s in subs] != _expected_lengths(total, lanes):
        raise ShapeError(f"inconsistent lane lengths {[len(s) for s in subs]}")
    taps = _as_int64(taps_fx, "taps")
    _guard_sums([max(map(_max_abs, subs), default=0)], [[_abs_sum(taps)]])
    phases = [taps[u::lanes] for u in range(lanes)]

    def one_lane(r: int) -> np.ndarray:
        out_len = len(subs[r])
        acc = np.zeros(out_len, dtype=np.int64)
        if out_len == 0:
            return acc
        for u in range(lanes):
            h_u = phases[u]
            if len(h_u) == 0:
                continue
            x = subs[(r - u) % lanes]
            lead = int(u > r)  # the delayed lane starts one output later
            if len(x) == 0 or lead >= out_len:
                continue
            full = np.convolve(x, h_u)
            take = min(out_len - lead, len(full))
            acc[lead: lead + take] += full[:take]
        return acc

    return [one_lane(r) for r in range(lanes)]


def parallel_convolve_stream(codes, taps_fx, lanes: int) -> np.ndarray:
    """One-call parallel path: decompose into lanes, convolve, recompose."""
    return recompose(parallel_convolve(decompose(codes, lanes), taps_fx))


class BlockConvolver:
    """Streaming convolution that carries N-1 history samples across blocks.

    Feeding blocks b0, b1, ... produces exactly convolve_serial(b0+b1+...)
    split at the same boundaries, even if the taps change between blocks
    (new taps apply from the first sample of the new block, history samples
    are raw input, so a tap swap never reaches back into old output).
    """

    def __init__(self, n_taps: int):
        if n_taps < 1:
            raise ConfigError(f"n_taps must be >= 1, got {n_taps}")
        self._history = np.zeros(n_taps - 1, dtype=np.int64)

    def process(self, codes, taps_fx) -> np.ndarray:
        codes = _as_int64(codes, "codes")
        taps = _as_int64(taps_fx, "taps")
        if len(codes) == 0:
            return codes
        if len(taps) != len(self._history) + 1:
            raise ConfigError(
                f"taps length {len(taps)} does not match convolver history "
                f"({len(self._history) + 1} expected)")
        ext = np.concatenate((self._history, codes))
        _guard_sums([_max_abs(ext)], [[_abs_sum(taps)]])
        hist = len(self._history)
        out = np.convolve(ext, taps)[hist: hist + len(codes)]
        if hist:
            self._history = ext[len(ext) - hist:].copy()
        return out
