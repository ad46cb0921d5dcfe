"""Spectral figures of merit for interleaved-converter captures.

Everything here assumes coherent capture by default: the tone frequency times
n_fft is an integer, so a rectangular window puts the tone in a single DFT
bin. Non-coherent data can be analyzed with the 4-term Blackman-Harris
windowed mode, which counts the window's main lobe, the peak +/- 4 bins,
as signal: wider leakage exclusion around the signal.

SINAD is signal-bin power over the sum of every other non-DC bin's power,
the Nyquist bin weighted half so that the sum obeys Parseval. The DC bin is
excluded because constant offsets are corrected separately and would
otherwise dominate the "noise" sum.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CoherenceError, ConfigError, ShapeError

DBFS_FLOOR = -300.0

# 4-term Blackman-Harris coefficients, used only in windowed (non-coherent) mode
_BH4 = (0.35875, 0.48829, 0.14128, 0.01168)
# the window's main lobe, peak +/- 4 bins (Harris, Proc. IEEE 1978), is
# counted as signal, and bins 0..4 as DC leakage
_BH4_SIGNAL_HALF_WIDTH = 4


@dataclass(frozen=True)
class SpurLevel:
    """One expected mismatch spur: where it is and how big it measured."""

    freq_rel: float
    level_dbfs: float
    kind: str  # "image" (gain/skew alias) or "offset"
    bin_index: int
    collides_with_signal: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum, SINAD/ENOB, and the mismatch-spur table for one stream."""

    n_fft: int
    magnitudes_dbfs: np.ndarray
    signal_bin: int
    sinad_db: float
    enob: float
    spurs: tuple


def _check_fft_args(stream, n_fft: int) -> np.ndarray:
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise ConfigError(f"n_fft must be a power of two >= 2, got {n_fft}")
    stream = np.asarray(stream, dtype=float)
    if len(stream) < n_fft:
        raise ShapeError(f"stream length {len(stream)} < n_fft {n_fft}")
    x = stream[:n_fft]
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ConfigError(f"sample {bad[0]} is not finite: {x[bad[0]]}")
    return x


def power_spectrum(stream, n_fft: int, full_scale: float = 1.0) -> np.ndarray:
    """Rectangular-window one-sided magnitude spectrum in dBFS.

    Parameters
    ----------
    stream : sequence of reals
        Amplitude-unit samples; only the first n_fft are used.
    n_fft : int
        Transform length, a power of two.
    full_scale : float
        Amplitude that maps to 0 dBFS.

    Returns
    -------
    ndarray of length n_fft/2 + 1
        Bin magnitudes in dBFS, floored at -300. A full-scale coherent sine
        peaks at 0 dBFS; DC and Nyquist bins are single-sided (no doubling).
    """
    x = _check_fft_args(stream, n_fft)
    spec = np.abs(np.fft.rfft(x)) / n_fft
    spec[1:-1] *= 2.0  # fold negative frequencies except DC/Nyquist
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(spec / full_scale)
    return np.maximum(db, DBFS_FLOOR)


def _signal_bin(signal_freq_rel: float, n_fft: int) -> int:
    k = signal_freq_rel * n_fft
    if not np.isfinite(k):
        raise ConfigError(f"signal frequency {signal_freq_rel} is not finite "
                          f"in {n_fft} bins")
    k_int = int(round(k))
    if not 0 < k_int < n_fft // 2:
        raise ConfigError(
            f"signal frequency {signal_freq_rel} maps to bin {k_int}, "
            f"outside (0, {n_fft // 2})")
    return k_int

def _is_coherent(signal_freq_rel: float, n_fft: int) -> bool:
    k = signal_freq_rel * n_fft
    return abs(k - round(k)) < 1e-6


def _power_bins(x) -> np.ndarray:
    """One-sided rfft power, each bin weighted by the share of the signal's
    energy it holds: bins 1..n/2-1 each stand for a positive and a negative
    frequency, the Nyquist bin n/2 for one, so it counts half (Parseval)."""
    p = np.abs(np.fft.rfft(x)) ** 2
    p[-1] /= 2.0
    return p


def sinad(stream, signal_freq_rel: float, n_fft: int, window: str = "rect") -> float:
    """SINAD in dB: signal-bin power over all other non-DC power.

    Rectangular mode requires coherence (signal_freq_rel * n_fft integral)
    and raises CoherenceError otherwise. window="bh4" handles non-coherent
    data with the 4-term Blackman-Harris window, counting its main lobe,
    the peak +/- 4 bins, as signal and bins 0..4 as DC leakage.
    """
    x = _check_fft_args(stream, n_fft)
    k = _signal_bin(signal_freq_rel, n_fft)
    if window == "rect":
        if not _is_coherent(signal_freq_rel, n_fft):
            raise CoherenceError(
                f"freq {signal_freq_rel} not coherent in {n_fft} bins "
                f"(got {signal_freq_rel * n_fft:.6f}); re-plan or use window='bh4'")
        p = _power_bins(x)
        p_signal = p[k]
        p_noise = p[1:].sum() - p_signal
    elif window == "bh4":
        n = np.arange(n_fft)
        w = sum(((-1) ** i) * c * np.cos(2 * np.pi * i * n / n_fft)
                for i, c in enumerate(_BH4))
        p = _power_bins(x * w)
        half = _BH4_SIGNAL_HALF_WIDTH
        lo = max(k - half, 0)
        peak = lo + int(np.argmax(p[lo:k + half + 1]))
        keep = np.ones(len(p), dtype=bool)
        keep[:half + 1] = False  # DC leakage
        sig = np.zeros(len(p), dtype=bool)
        sig[max(peak - half, 0):peak + half + 1] = True
        p_signal = p[sig].sum()
        p_noise = p[keep & ~sig].sum()
    else:
        raise ConfigError(f"unknown window {window!r}")
    if p_signal <= 0:
        return DBFS_FLOOR
    if p_noise <= 0:
        return float("inf")
    return float(10.0 * np.log10(p_signal / p_noise))


def enob(sinad_db: float) -> float:
    """Effective number of bits from SINAD."""
    return (sinad_db - 1.76) / 6.02


def fold_frequency(freq_rel: float) -> float:
    """Alias a relative frequency into the first Nyquist zone [0, 0.5]."""
    f = freq_rel % 1.0
    return 1.0 - f if f > 0.5 else f


def spur_levels(spectrum_dbfs, n_channels: int, signal_freq_rel: float) -> tuple:
    """Measure the expected mismatch-spur bins of an M-way interleave.

    Gain/skew mismatches image the tone to k/M +/- f (k = 1..M-1); offset
    mismatches put tones at k/M. All folded into [0, 0.5]. Entries whose bin
    collides with the signal bin are flagged rather than dropped.
    """
    spectrum_dbfs = np.asarray(spectrum_dbfs, dtype=float)
    n_fft = 2 * (len(spectrum_dbfs) - 1)
    sig_bin = _signal_bin(signal_freq_rel, n_fft)
    out = []
    seen = set()
    for k in range(1, n_channels):
        base = k / n_channels
        candidates = [(fold_frequency(base - signal_freq_rel), "image"),
                      (fold_frequency(base + signal_freq_rel), "image"),
                      (fold_frequency(base), "offset")]
        for f, kind in candidates:
            b = int(round(f * n_fft))
            if (kind, b) in seen:
                continue
            seen.add((kind, b))
            out.append(SpurLevel(freq_rel=f, level_dbfs=float(spectrum_dbfs[b]),
                                 kind=kind, bin_index=b,
                                 collides_with_signal=(b == sig_bin)))
    return tuple(out)


def worst_image_spur(spurs) -> SpurLevel:
    """Largest non-colliding image spur; falls back to any image entry."""
    images = [s for s in spurs if s.kind == "image" and not s.collides_with_signal]
    if not images:
        images = [s for s in spurs if s.kind == "image"]
    if not images:
        raise ConfigError("spur table contains no image entries")
    return max(images, key=lambda s: s.level_dbfs)


def spectrum_report(stream, signal_freq_rel: float, n_fft: int,
                    n_channels: int, full_scale: float = 1.0,
                    window: str = "rect") -> SpectrumReport:
    """Bundle spectrum, SINAD, ENOB, and spur table for one stream."""
    mags = power_spectrum(stream, n_fft, full_scale)
    s = sinad(stream, signal_freq_rel, n_fft, window=window)
    return SpectrumReport(
        n_fft=n_fft,
        magnitudes_dbfs=mags,
        signal_bin=_signal_bin(signal_freq_rel, n_fft),
        sinad_db=s,
        enob=enob(s),
        spurs=spur_levels(mags, n_channels, signal_freq_rel),
    )


def write_spectrum_csv(path, magnitudes_dbfs) -> None:
    """Export a spectrum as (bin_index, freq_rel, magnitude_dbfs) rows."""
    magnitudes_dbfs = np.asarray(magnitudes_dbfs, dtype=float)
    n_fft = 2 * (len(magnitudes_dbfs) - 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_index", "freq_rel", "magnitude_dbfs"])
        for i, mag in enumerate(magnitudes_dbfs):
            writer.writerow([i, f"{i / n_fft:.10g}", f"{mag:.6f}"])
