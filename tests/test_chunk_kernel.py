"""The chunk kernel (filterbank._chunk_sums) against a Python-integer
reference of the fixed-point rule, over seeded random banks, captures,
blocks and chunk edges, with overflow bounds below 2^53, between 2^53 and
2^62, and at 2^62 and above."""

import math

import numpy as np
import pytest

from tiadc_cal import FilterSpec, NumericError, TiadcConfig
from tiadc_cal import filterbank
from tiadc_cal.filterbank import _chunk_sums

LIMIT = 1 << 62


def offset_code(offset, config):
    """One offset in full-scale units as a code, rounded half away from
    zero, as a Python integer."""
    v = offset / config.full_scale * config.code_half_range
    return int(math.copysign(math.floor(abs(v) + 0.5), v))


def reference(codes, config, n_taps, start, stop, taps, offsets, first_block,
              block_len):
    """The rule in Python integers: the (M, stop - start) sums of the chunk,
    or None when some block's bound reaches 2^62.

    Aggregate sample q is channel q % M's code at sample q // M less the
    offset code of that sample's block (zero before sample 0). Output slot
    m at sample k runs the bank of k's block: the sum over j of
    taps[(m - D) % M, j] times sample k*M + m - j. A block's bound is the
    largest over slots of the sum over sources s of the |taps| by which s
    feeds the slot, times the largest |sample| of s that the block's sums
    read: its own and the N-1 before each source's first."""
    M = config.n_channels
    d = (n_taps + 1) // 2 - 1
    x = np.array([[int(c) - offset_code(offsets[k // block_len - first_block]
                                        [s], config)
                   for s, c in enumerate(codes[:, k])]
                  for k in range(max(start - n_taps + 1, 0), stop)],
                 dtype=object).reshape(-1)
    base = max(start - n_taps + 1, 0) * M  # the aggregate sample of x[0]
    block0 = start // block_len
    for b in range(block0, (stop - 1) // block_len + 1):
        bank = taps[b - block0]
        lo, hi = max(b * block_len, start), min((b + 1) * block_len, stop)
        read = x[max(lo - n_taps + 1, 0) * M - base:hi * M - base]
        peaks = [max((abs(v) for v in read[s::M]), default=0)
                 for s in range(M)]
        bound = max(sum(abs(int(bank[(m - d) % M, j])) * peaks[(m - j) % M]
                        for j in range(n_taps))
                    for m in range(M))
        if bound >= LIMIT:
            return None
    p = np.arange(start * M, stop * M)
    sums = np.zeros(len(p), dtype=object)
    coeffs = taps[p // M // block_len - block0, (p % M - d) % M].astype(object)
    for j in range(n_taps):
        live = p - j >= 0
        sums[live] += coeffs[live, j] * x[p[live] - j - base]
    return sums.reshape(-1, M).T


def random_case(rng, regime):
    """A chunk kernel call's arguments: M 2-6, N 1-80, W 8-32, blocks of 1
    to 59 samples, chunk edges anywhere. Regime 0 takes codes of 8 to 24
    bits and offsets up to 2 % of full scale; regimes 1 to 3 take int64
    codes, no offsets, and a peak c on every channel's first chunk sample,
    sized from the banks' largest slot sum S of |taps| so that the bound is
    just below 2^53 (1), at most a random size in [2^53, 2^62) (2), or at
    least 2^62 (3)."""
    M = int(rng.integers(2, 7))
    N = int(rng.integers(1, 81))
    W = int(rng.integers(8, 33))
    bits = int(rng.integers(8, 25))
    block_len = int(rng.integers(1, 60))
    n = int(rng.integers(1, 160))
    start = int(rng.integers(0, n))
    stop = int(rng.integers(start + 1, n + 1))
    n_blocks = -(-n // block_len)
    taps = rng.integers(-(1 << (W - 1)), 1 << (W - 1), (n_blocks, M, N))
    taps[rng.random(taps.shape) < 0.3] = 0
    offsets = rng.uniform(-0.02, 0.02, (n_blocks, M))
    config = TiadcConfig(n_channels=M, bits=bits)
    half = 1 << (bits - 1)
    if regime == 0:
        codes = rng.integers(-half, half, (M, n)).astype(
            np.int16 if bits <= 16 else np.int32)
    else:
        offsets[:] = 0
        d = (N + 1) // 2 - 1
        slot_sums = [max(int(np.abs(bank[(m - d) % M]).sum())
                         for m in range(M)) for bank in taps]
        if regime == 3:
            reach = max(slot_sums[start // block_len], 1)
            peak = -(-LIMIT // reach)
        else:
            target = ((1 << 53) - 1 if regime == 1
                      else int(rng.integers(1 << 53, LIMIT)))
            peak = max(target // max(max(slot_sums), 1), 1)
        codes = rng.integers(-peak, peak + 1, (M, n), dtype=np.int64)
        codes[:, start] = peak * rng.choice([-1, 1], M)
    first = max(start - N + 1, 0) // block_len
    rows = slice(start // block_len, (stop - 1) // block_len + 1)
    return (codes, config, FilterSpec(n_taps=N, coeff_bits=W), start, stop,
            taps[rows], offsets[first:rows.stop], first, block_len)


@pytest.mark.parametrize("seed", range(4))
def test_matches_the_integer_reference(seed, monkeypatch):
    limbs = []
    limb_frames = filterbank._limb_frames
    monkeypatch.setattr(filterbank, "_limb_frames", lambda *args: (
        limbs.append(1) or limb_frames(*args)))
    rng = np.random.default_rng(2000 + seed)
    raised = 0
    for case in range(100):
        args = random_case(rng, case % 4)
        codes, config, spec = args[:3]
        want = reference(codes, config, spec.n_taps, *args[3:])
        if want is None:
            raised += 1
            with pytest.raises(NumericError):
                _chunk_sums(*args)
            continue
        got = _chunk_sums(*args)
        assert got.dtype == np.float64, case
        assert got.shape == want.shape, case
        # the exact integer, rounded once to float64 where it needs more
        # than 53 bits
        assert got.tolist() == [[float(v) for v in row] for row in want], case
    # every regime's bounds occur: the float64 products, the limbs and
    # the guard all run
    assert raised >= 20 and len(limbs) >= 20


@pytest.mark.parametrize("n_taps,n_channels", [(80, 2), (70, 4), (66, 2)])
def test_history_longer_than_a_frame(n_taps, n_channels):
    # frames of 64 samples: N-1 reaches back over two of them
    rng = np.random.default_rng(n_taps)
    config = TiadcConfig(n_channels=n_channels, bits=14)
    codes = rng.integers(-8192, 8192, (n_channels, 300)).astype(np.int16)
    taps = rng.integers(-(1 << 29), 1 << 29, (7, n_channels, n_taps))
    offsets = rng.uniform(-0.01, 0.01, (7, n_channels))
    args = (codes, config, FilterSpec(n_taps=n_taps, coeff_bits=30), 130,
            290, taps[2:6], offsets, 0, 50)
    want = reference(codes, config, n_taps, *args[3:])
    assert _chunk_sums(*args).tolist() == [[float(v) for v in row]
                                           for row in want]


@pytest.mark.parametrize("n_channels,n_taps", [(2, 1), (3, 30), (5, 80)])
@pytest.mark.parametrize("excess", [0, -1])
def test_a_bound_of_exactly_2_62_raises(n_channels, n_taps, excess):
    # slot 0 reads source 0 through one tap of -2^31, and a code of 2^31
    # in the chunk: the bound is 2^62 + excess
    d = (n_taps + 1) // 2 - 1
    taps = np.zeros((1, n_channels, n_taps), dtype=np.int64)
    taps[0, -d % n_channels, 0] = -(1 << 31)
    codes = np.ones((n_channels, 40), dtype=np.int64)
    codes[:, 25] = (1 << 31) + excess
    config = TiadcConfig(n_channels=n_channels, bits=24)
    args = (codes, config, FilterSpec(n_taps=n_taps, coeff_bits=32), 20, 40,
            taps, np.zeros((1, n_channels)), 0, 40)
    want = reference(codes, config, n_taps, *args[3:])
    if excess == 0:
        assert want is None
        with pytest.raises(NumericError, match=f"accumulator {1 << 62} "):
            _chunk_sums(*args)
    else:
        assert _chunk_sums(*args).tolist() == [[float(v) for v in row]
                                               for row in want]


def test_a_frame_past_the_block_fits_the_limbs():
    # 74 samples of two channels are not a whole number of 4-sample
    # frames, so block 0's last frame reads block 1's codes of up to 2^58
    # through block 0's taps of up to 2^30; block 1 writes over those
    # outputs, and block 0's limbs must still hold the codes they read
    rng = np.random.default_rng(22)
    M, N, block_len = 2, 5, 37
    codes = np.concatenate(
        [rng.integers(-1000, 1001, (M, block_len)),
         rng.integers(-(1 << 58), (1 << 58) + 1, (M, block_len))], axis=1)
    taps = np.ones((2, M, N), dtype=np.int64)
    taps[0] = rng.integers(-(1 << 30), (1 << 30) + 1, (M, N))
    config = TiadcConfig(n_channels=M, bits=24)
    args = (codes, config, FilterSpec(n_taps=N, coeff_bits=32), 0,
            2 * block_len, taps, np.zeros((2, M)), 0, block_len)
    want = reference(codes, config, N, *args[3:])
    assert _chunk_sums(*args).tolist() == [[float(v) for v in row]
                                           for row in want]
