import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dataclasses import replace

from tiadc_cal import (ChannelCapture, ConfigError, ConvergenceError,
                       DegenerateFitError, MismatchProfile,
                       PhaseAmbiguityError, ShapeError, SineFitResult,
                       TiadcConfig, TiadcError,
                       ToneSpec, alias_to_subrate, derive_mismatches,
                       dequantize_stream, detect_tone_freq, estimate_blocks,
                       estimate_from_capture, interleave_channels,
                       sine_fit_four_param, simulate_capture)
from tiadc_cal import experiments, scenarios, sinefit
from tiadc_cal.sinefit import EST_BLOCK_PER_CHANNEL, _FIT_BLOCKS, _fit_rows

CFG12 = TiadcConfig(n_channels=2, bits=12)
CFG16 = TiadcConfig(n_channels=2, bits=16)


def make_sine(n, amp, freq, phase, dc):
    k = np.arange(n)
    return dc + amp * np.sin(2 * np.pi * freq * k + phase)


def lstsq_fit(samples, freq_guess_rel):
    """The four-parameter fit written with np.linalg.lstsq on the full
    (L, 3) and (L, 4) bases: the same five-point scan, Gauss-Newton steps,
    convergence rule and errors as sine_fit_four_param, solved by SVD. It
    is the oracle sine_fit_four_param's normal-equation solves are held
    to."""
    y = np.asarray(samples, dtype=float)
    if len(y) < 16:
        raise ConfigError(f"need at least 16 samples, got {len(y)}")
    if not 0.0 < freq_guess_rel < 0.5:
        raise ConfigError(f"freq_guess_rel must be in (0, 0.5), got "
                          f"{freq_guess_rel}")
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        raise DegenerateFitError("constant input has no sine component")
    n = np.arange(len(y), dtype=float)

    def solve3(omega):
        m3 = np.column_stack([np.sin(omega * n), np.cos(omega * n),
                              np.ones_like(n)])
        sol, _, rank, _ = np.linalg.lstsq(m3, y, rcond=None)
        if rank < 3:
            raise DegenerateFitError("3-parameter solve singular")
        return sol, float(np.sum((y - m3 @ sol) ** 2))

    def result(a, b, c, omega, iterations):
        phase = math.atan2(b, a)
        if phase <= -math.pi:
            phase += 2.0 * math.pi
        resid = y - (a * np.sin(omega * n) + b * np.cos(omega * n) + c)
        return SineFitResult(math.hypot(a, b), omega / (2.0 * math.pi), phase,
                             float(c), float(np.sqrt(np.mean(resid ** 2))),
                             iterations)

    best = (math.inf, 2.0 * math.pi * freq_guess_rel, None)
    for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
        f = freq_guess_rel + step / len(y)
        if not 1e-9 < f < 0.5 - 1e-9:
            continue
        sol, rss = solve3(2.0 * math.pi * f)
        if rss < best[0]:
            best = (rss, 2.0 * math.pi * f, sol)
    _, omega, sol = best
    a, b, c = sol if sol is not None else solve3(omega)[0]
    for i in range(50):
        m4 = np.column_stack([
            np.sin(omega * n), np.cos(omega * n), np.ones_like(n),
            n * (a * np.cos(omega * n) - b * np.sin(omega * n))])
        sol, _, rank, _ = np.linalg.lstsq(m4, y, rcond=None)
        if rank < 4:
            raise DegenerateFitError("4-parameter solve singular")
        a, b, c, d_omega = sol
        omega += d_omega
        if not 0.0 < omega < math.pi:
            raise ConvergenceError("frequency left the band",
                                   last_fit=result(a, b, c, omega, i + 1))
        if abs(d_omega) / abs(omega) < 1e-12:
            fit = result(a, b, c, omega, i + 1)
            if fit.amplitude <= 1e-12 * span:
                raise DegenerateFitError("fitted amplitude is zero")
            return fit
    raise ConvergenceError("no convergence", last_fit=result(a, b, c, omega, 50))


def outcome(fit, *args):
    """fit(*args), or the type of the library error it raised."""
    try:
        return fit(*args)
    except TiadcError as err:
        return type(err)


def other_threads_cpu_ticks():
    """CPU ticks of every thread of this process but the calling one."""
    me = threading.get_native_id()
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks


class TestSineFit:
    def test_exact_recovery(self):
        data = make_sine(4096, 0.9, 0.1, 0.3, 0.05)
        fit = sine_fit_four_param(data, 0.1 + 0.3 / 4096)
        assert fit.amplitude == pytest.approx(0.9, rel=1e-10)
        assert fit.freq_rel == pytest.approx(0.1, rel=1e-10)
        assert fit.phase == pytest.approx(0.3, rel=1e-10)
        assert fit.dc == pytest.approx(0.05, rel=1e-10)
        assert fit.rms_residual < 1e-10

    def test_quantized_recovery(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            phase = rng.uniform(-math.pi, math.pi)
            data = make_sine(4096, 0.9, 545 / 4096, phase, 0.0)
            codes = np.round(data * 2048).clip(-2048, 2047)
            fit = sine_fit_four_param(codes / 2048, 545 / 4096)
            assert fit.amplitude == pytest.approx(0.9, rel=1e-3)
            d = (fit.phase - phase + math.pi) % (2 * math.pi) - math.pi
            assert abs(d) <= 1e-3

    def test_guess_basin_half_bin(self):
        n = 4096
        data = make_sine(n, 0.5, 0.2, -1.0, 0.0)
        for off in (-1.0, -0.5, 0.49, 1.0):
            fit = sine_fit_four_param(data, 0.2 + off / n)
            assert fit.freq_rel == pytest.approx(0.2, rel=1e-9)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateFitError):
            sine_fit_four_param(np.zeros(64), 0.1)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateFitError):
            sine_fit_four_param(np.full(64, 3.7), 0.1)

    def test_preconditions(self):
        data = make_sine(64, 1, 0.1, 0, 0)
        with pytest.raises(ConfigError):
            sine_fit_four_param(data[:15], 0.1)
        with pytest.raises(ConfigError):
            sine_fit_four_param(data, 0.0)
        with pytest.raises(ConfigError):
            sine_fit_four_param(data, 0.5)

    def test_convergence_error_carries_last_fit(self):
        # two beating tones close in frequency keep the omega update hunting
        k = np.arange(64)
        data = (np.sin(2 * np.pi * 0.102 * k) + np.sin(2 * np.pi * 0.126 * k)
                + 0.8 * np.sin(2 * np.pi * 0.3 * k + 1.0))
        try:
            fit = sine_fit_four_param(data, 0.11)
        except ConvergenceError as err:
            assert isinstance(err.last_fit, SineFitResult)
            assert 0 < err.last_fit.freq_rel < 0.5
        else:
            assert fit.iterations <= 50  # converged anyway: acceptable

    def test_result_is_least_squares_optimum(self):
        rng = np.random.default_rng(5)
        k = np.arange(1024)
        data = make_sine(1024, 0.7, 0.13, 0.9, -0.1) + 0.01 * rng.standard_normal(1024)
        fit = sine_fit_four_param(data, 0.13)

        def rss(amp, freq, phase, dc):
            model = dc + amp * np.sin(2 * np.pi * freq * k + phase)
            return float(((data - model) ** 2).sum())

        best = rss(fit.amplitude, fit.freq_rel, fit.phase, fit.dc)
        for d_amp in (-1e-6, 1e-6):
            assert best <= rss(fit.amplitude + d_amp, fit.freq_rel, fit.phase, fit.dc) + 1e-12
        for d_f in (-1e-9, 1e-9):
            assert best <= rss(fit.amplitude, fit.freq_rel + d_f, fit.phase, fit.dc) + 1e-12
        for d_ph in (-1e-6, 1e-6):
            assert best <= rss(fit.amplitude, fit.freq_rel, fit.phase + d_ph, fit.dc) + 1e-12

    def test_scan_solution_seeds_the_refinement(self, monkeypatch):
        # five scan solves and no sixth at the frequency they picked
        calls = []
        real = sinefit._three_param_solve
        monkeypatch.setattr(sinefit, "_three_param_solve",
                            lambda *args: calls.append(args) or real(*args))
        fit = sine_fit_four_param(make_sine(2048, 0.7, 0.123, 0.2, 0.01), 0.123)
        assert len(calls) == 5
        assert fit.freq_rel == pytest.approx(0.123, abs=1e-12)

    def test_phase_convention_range(self):
        for phase in (3.0, -3.0, 0.0, 1.5):
            data = make_sine(2048, 1.0, 0.07, phase, 0.0)
            fit = sine_fit_four_param(data, 0.07)
            assert -math.pi < fit.phase <= math.pi
            assert fit.phase == pytest.approx(phase, abs=1e-9)

    def test_negative_amplitude_normalized(self):
        # -A*sin(wn+p) == A*sin(wn+p-pi): amplitude comes back positive
        data = -0.4 * np.sin(2 * np.pi * 0.09 * np.arange(2048) + 0.5)
        fit = sine_fit_four_param(data, 0.09)
        assert fit.amplitude == pytest.approx(0.4, rel=1e-10)
        assert fit.phase == pytest.approx(0.5 - math.pi, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(16, 1 << 16),
           where=st.floats(0.0, 1.0), offset=st.floats(-1.0, 1.0),
           amplitude=st.floats(0.1, 1.0), phase=st.floats(-3.14, 3.14),
           dc=st.floats(-0.5, 0.5), noise=st.floats(0.0, 1e-2),
           seed=st.integers(0, 2 ** 32 - 1))
    # the step -1 scan point lands about 1e-5 bins from frequency 0, where
    # the rank rule finds it singular: the scan passes over it
    @example(length=16, where=0.0, offset=-0.99999, amplitude=1.0, phase=0.0,
             dc=0.0, noise=0.0, seed=0)
    def test_agrees_with_the_lstsq_fit(self, length, where, offset,
                                       amplitude, phase, dc, noise, seed):
        # a tone at least two bins from either band edge, the guess within
        # the documented one bin of it
        freq = (2.0 + where * (length / 2 - 4.0)) / length
        data = (make_sine(length, amplitude, freq, phase, dc)
                + noise * np.random.default_rng(seed).standard_normal(length))
        guess = freq + offset / length
        got = outcome(sine_fit_four_param, data, guess)
        want = outcome(lstsq_fit, data, guess)
        if isinstance(want, type):
            assert got is want
        else:
            assert isinstance(got, SineFitResult)
            assert got.freq_rel == pytest.approx(want.freq_rel, rel=1e-12)
            assert got.amplitude == pytest.approx(want.amplitude, rel=1e-10)

    @pytest.mark.parametrize("guess", [1e-8, 1e-6, 0.5 - 1e-8])
    def test_guess_at_a_band_edge_is_degenerate(self, guess):
        with pytest.raises(DegenerateFitError):
            sine_fit_four_param(make_sine(64, 0.9, 0.1, 0.3, 0.05), guess)

    def test_guess_near_a_band_edge_fits_or_raises_a_library_error(self):
        # never numpy's LinAlgError, never a NaN
        try:
            fit = sine_fit_four_param(make_sine(64, 0.9, 0.1, 0.3, 0.05), 1e-4)
        except TiadcError:
            return
        assert fit.freq_rel == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("bad,index", [(math.nan, 0), (math.inf, 17),
                                           (-math.inf, 63)])
    def test_non_finite_samples_rejected(self, bad, index):
        data = make_sine(64, 0.9, 0.1, 0.3, 0.05)
        data[index] = bad
        data[-1] = bad
        with pytest.raises(ConfigError, match=f"sample {index} is not finite"):
            sine_fit_four_param(data, 0.1)

    @pytest.mark.parametrize("amp", [1e200, 1e-200, 1e-300, 1e155, 1e-160])
    def test_fits_at_any_amplitude(self, amp):
        # the Gram's squares of the raw record overflow above about 1e154
        # and lose the fit below about 1e-155
        data = make_sine(1024, 1.0, 0.1234, 0.3, 0.01)
        unit = sine_fit_four_param(data, 0.1234)
        fit = sine_fit_four_param(amp * data, 0.1234)
        assert fit.freq_rel == unit.freq_rel
        assert fit.amplitude == pytest.approx(amp * unit.amplitude, rel=1e-12)
        assert fit.dc == pytest.approx(amp * unit.dc, rel=1e-12)
        assert fit.phase == pytest.approx(unit.phase, abs=1e-12)

    @pytest.mark.parametrize("exp", [-900, -1, 3, 700])
    def test_a_power_of_two_scales_the_fit_exactly(self, exp):
        data = make_sine(1024, 0.9, 0.1234, 0.3, 0.01)
        unit = sine_fit_four_param(data, 0.1234)
        fit = sine_fit_four_param(np.ldexp(data, exp), 0.1234)
        assert fit == replace(unit, amplitude=math.ldexp(unit.amplitude, exp),
                              dc=math.ldexp(unit.dc, exp),
                              rms_residual=math.ldexp(unit.rms_residual, exp))

    def test_fit_runs_no_blas_thread(self):
        # a BLAS call over the whole record would wake OpenBLAS's threads,
        # which then compete with the simulation pool
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("per-thread CPU times need /proc")
        data = make_sine(1 << 16, 0.9, 0.0123, 0.3, 0.05)
        sine_fit_four_param(data, 0.0123)
        # wait out threads still busy from earlier tests
        ticks, deadline = other_threads_cpu_ticks(), time.monotonic() + 5.0
        while True:
            time.sleep(0.2)
            now = other_threads_cpu_ticks()
            if now == ticks:
                break
            if time.monotonic() > deadline:
                pytest.skip("other threads of this process keep running")
            ticks = now
        for _ in range(10):
            sine_fit_four_param(data, 0.0123)
        time.sleep(0.2)  # let a thread woken by the fits spin
        assert other_threads_cpu_ticks() == ticks


class TestSharedSolve:
    NOISE = 1e-3

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    @pytest.mark.parametrize("freq", [0.013, 0.2, 0.47])
    def test_agrees_with_four_param_fit_at_true_frequency(self, n, freq):
        rng = np.random.default_rng(n + int(1e4 * freq))
        truth = [(rng.uniform(0.2, 0.9), rng.uniform(-3, 3), rng.uniform(-0.1, 0.1))
                 for _ in range(3)]
        rows = np.stack([make_sine(n, a, freq, p, c)
                         + rng.normal(0.0, self.NOISE, n) for a, p, c in truth])
        # both fits see the same noise; only the four-parameter fit moves
        # the frequency, by an amount that shrinks with the record length
        tol = 50 * self.NOISE / math.sqrt(n)
        amplitudes, phases, dcs = _fit_rows(rows, freq)
        assert amplitudes.shape == phases.shape == dcs.shape == (3,)
        for row, amp, phase, dc in zip(rows, amplitudes, phases, dcs):
            ref = sine_fit_four_param(row, freq)
            assert amp == pytest.approx(ref.amplitude, abs=tol)
            assert phase == pytest.approx(ref.phase, abs=tol)
            assert dc == pytest.approx(ref.dc, abs=tol)
            # the frequency is one more parameter to absorb noise with
            resid = row - make_sine(n, amp, freq, phase, dc)
            excess = np.mean(resid ** 2) - ref.rms_residual ** 2
            assert -1e-15 <= excess <= 25 * self.NOISE ** 2 / n

    def test_constant_channel_degenerate(self):
        cap = simulate_capture(ToneSpec(0.9, 77 / 4096, 0.4), CFG12,
                               MismatchProfile.zero(2), 8192)
        blocks = np.stack([cap.per_channel[0], np.full(4096, 17)])[None]
        with pytest.raises(DegenerateFitError, match="channel 1"):
            estimate_blocks(blocks, CFG12, 77 / 4096)

    @pytest.mark.parametrize("fault,error,message", [
        ("constant", DegenerateFitError,
         "block 20 channel 1 is constant and has no sine component"),
        ("orthogonal", DegenerateFitError,
         "block 20 channel 1: fitted amplitude is zero"),
        ("late", PhaseAmbiguityError,
         "block 20 channel 1: nearest skew branch is "),
    ], ids=["constant", "orthogonal", "late"])
    def test_errors_name_the_block_of_the_whole_stack(self, fault, error,
                                                      message):
        # 40 blocks are fitted 16 at a time: block 20 is row 4 of its batch
        L = EST_BLOCK_PER_CHANNEL
        cap = simulate_capture(ToneSpec(0.9, 77 / 4096, 0.4), CFG12,
                               MismatchProfile.zero(2), 2 * 40 * L)
        codes = cap.per_channel.copy()  # a capture's own codes are read-only
        block = slice(20 * L, 21 * L)
        if fault == "constant":
            codes[1, block] = 17
        elif fault == "orthogonal":  # no component at the tone's bin
            codes[1, block] = 5 + 100 * (-1) ** np.arange(L)
        else:  # 10 samples late: a skew of -20 Ts
            codes[1, block] = codes[1, block.start - 10:block.stop - 10].copy()
        with pytest.raises(error) as err:
            estimate_blocks(codes.reshape(2, 40, L).swapaxes(0, 1), CFG12,
                            77 / 4096)
        assert str(err.value).startswith(message)

    def test_block_preconditions(self):
        cap = simulate_capture(ToneSpec(0.9, 77 / 4096, 0.4), CFG12,
                               MismatchProfile.zero(2), 8192)
        with pytest.raises(ConfigError, match="at least 16"):
            estimate_blocks(cap.per_channel[None, :, :15], CFG12, 77 / 4096)
        with pytest.raises(ShapeError):
            estimate_blocks(cap.per_channel, CFG12, 77 / 4096)
        with pytest.raises(ShapeError):
            estimate_blocks(cap.per_channel[None, :1], CFG12, 77 / 4096)

    def test_float_codes_rejected(self):
        cap = simulate_capture(ToneSpec(0.9, 77 / 4096, 0.4), CFG12,
                               MismatchProfile.zero(2), 8192)
        blocks = cap.per_channel[None].astype(float)
        blocks[0, 1, 100] = np.nan
        with pytest.raises(ConfigError,
                           match="codes must be integers, got dtype float64"):
            estimate_blocks(blocks, CFG12, 77 / 4096)

    def fig7_background(self, monkeypatch):
        scenario = replace(scenarios.load_scenario("fig7"),
                           mode=scenarios.MODE_EST,
                           n_samples=5 * 4 * EST_BLOCK_PER_CHANNEL)
        calls = []
        real = sinefit.sine_fit_four_param
        monkeypatch.setattr(sinefit, "sine_fit_four_param",
                            lambda *args: calls.append(args) or real(*args))
        return scenario, experiments.run_scenario(scenario), calls

    def test_background_loop_makes_one_four_param_fit(self, monkeypatch):
        # tone detection's; every block is one shared three-parameter solve
        _, _, calls = self.fig7_background(monkeypatch)
        assert len(calls) == 1

    def test_background_estimate_within_c08_tolerance(self, monkeypatch):
        scenario, result, _ = self.fig7_background(monkeypatch)
        for what in ("offsets", "gains", "skews"):
            np.testing.assert_allclose(getattr(result.estimate, what),
                                       getattr(scenario.profile, what),
                                       rtol=0, atol=5e-4)


def per_batch_estimate(blocks, config, tone_freq_rel):
    """estimate_blocks written with a fresh dequantize_stream array for
    every batch of _FIT_BLOCKS blocks: the reference for its one reused
    buffer."""
    f_sub, _ = alias_to_subrate(tone_freq_rel, config.n_channels)
    fits = [_fit_rows(dequantize_stream(blocks[b:b + _FIT_BLOCKS], config),
                      f_sub, b)
            for b in range(0, len(blocks) or 1, _FIT_BLOCKS)]
    return derive_mismatches(*map(np.concatenate, zip(*fits)), tone_freq_rel)


class TestEstimateBuffer:
    """estimate_blocks dequantizes every batch into one buffer of
    min(B, _FIT_BLOCKS) blocks."""

    L = EST_BLOCK_PER_CHANNEL
    TONE = ToneSpec(0.7, 77 / 4096, 0.4, 0.01)
    PROFILE = MismatchProfile((0, 0.002, -0.001), (0, 0.01, -0.02),
                              (0, 0.03, -0.01))

    def blocks(self, bits, n_blocks, M=3):
        # full scale 0.75: an LSB that is not a power of two
        config = TiadcConfig(n_channels=M, bits=bits, full_scale=0.75)
        profile = (self.PROFILE if M == 3 else MismatchProfile.zero(M))
        cap = simulate_capture(self.TONE, config, profile,
                               M * n_blocks * self.L)
        return (cap.per_channel.reshape(M, n_blocks, self.L).swapaxes(0, 1),
                config)

    @pytest.mark.parametrize("bits,dtype", [(12, np.int16), (20, np.int32)])
    @pytest.mark.parametrize("n_blocks", [1, 15, 16, 17, 33])
    def test_equals_a_fresh_array_per_batch(self, n_blocks, bits, dtype):
        blocks, config = self.blocks(bits, n_blocks)
        assert blocks.dtype == dtype
        got = estimate_blocks(blocks, config, 77 / 4096)
        want = per_batch_estimate(blocks, config, 77 / 4096)
        for g, w in zip(got, want):
            assert g.shape == (n_blocks, 3)
            assert g.tobytes() == w.tobytes()

    def test_an_error_in_a_short_second_batch_names_its_block(self):
        blocks, config = self.blocks(12, _FIT_BLOCKS + 1)
        blocks = blocks.copy()  # a capture's own codes are read-only
        blocks[_FIT_BLOCKS, 1] = 17
        with pytest.raises(DegenerateFitError,
                           match=f"^block {_FIT_BLOCKS} channel 1 is "
                                 "constant"):
            estimate_blocks(blocks, config, 77 / 4096)

    def test_memory_is_one_batch_buffer(self):
        blocks, config = self.blocks(12, 128, M=5)
        estimate_blocks(blocks[:1], config, 77 / 4096)  # caches the basis
        tracemalloc.start()
        try:
            estimate_blocks(blocks, config, 77 / 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fresh float array per batch, and its scaled copy, would hold
        # two buffers at once
        assert peak <= _FIT_BLOCKS * 5 * self.L * 8 + (128 << 10)


class TestAliasToSubrate:
    def test_low_band_two_channels(self):
        f, reflected = alias_to_subrate(0.019, 2)
        assert f == pytest.approx(0.038)
        assert not reflected

    def test_reflected_two_channels(self):
        f, reflected = alias_to_subrate(0.46, 2)
        assert f == pytest.approx(0.08)
        assert reflected

    def test_five_channels(self):
        f, reflected = alias_to_subrate(0.26, 5)
        assert f == pytest.approx(0.3)
        assert not reflected

    def test_integer_band_edges_rejected(self):
        with pytest.raises(ConfigError):
            alias_to_subrate(0.25, 2)


def argmin_skews(phases, tone_freq_rel, reflected):
    """The per-channel branch rule, written out: for each block and channel
    m >= 1, the least-magnitude skew among the branches j in
    [-(m+2), m+2]."""
    carrier = (math.pi - phases) if reflected else phases
    skews = np.zeros(phases.shape)
    for b in range(phases.shape[0]):
        for m in range(1, phases.shape[1]):
            dphi = carrier[b, m] - carrier[b, 0]
            j = np.arange(-(m + 2), m + 3)
            candidates = ((dphi + 2.0 * math.pi * j)
                          / (2.0 * math.pi * tone_freq_rel) - m)
            skews[b, m] = candidates[np.argmin(np.abs(candidates))]
    return skews


class TestDeriveMismatches:
    def test_gain_ratio(self):
        _, gains, _ = derive_mismatches([1.0, 1.01], [0.0, 2 * math.pi * 0.1],
                                        [0.0, 0.0], 0.1)
        assert gains[0] == 0.0
        assert gains[1] == pytest.approx(0.01, rel=1e-12)

    def test_skew_from_phase(self):
        _, _, skews = derive_mismatches(
            [1.0, 1.0], [0.0, 2 * math.pi * 0.1 * 1.01], [0.0, 0.0], 0.1)
        assert skews[1] == pytest.approx(0.01, rel=1e-9)

    def test_offset_difference(self):
        offsets, _, _ = derive_mismatches(
            [1.0, 1.0], [0.0, 2 * math.pi * 0.1], [0.002, 0.0035], 0.1)
        assert offsets[1] == pytest.approx(0.0015, rel=1e-12)

    def test_ambiguous_phase_rejected(self):
        # branches at f=0.2 are 5 apart; put channel 1 at 2.5, dead between
        with pytest.raises(PhaseAmbiguityError):
            derive_mismatches([1.0, 1.0], [0.0, 2 * math.pi * 0.2 * (1 + 2.5)],
                              [0.0, 0.0], 0.2)

    def test_ambiguity_names_block_and_channel(self):
        # three blocks of three channels; only block 2 channel 1 is 0.7 Ts
        # off, which at f=0.1 is 9.3 Ts from the next branch
        dt = np.zeros((3, 3))
        dt[2, 1] = 0.7
        phases = 2 * math.pi * 0.1 * (np.arange(3) + dt)
        with pytest.raises(PhaseAmbiguityError, match="block 2 channel 1"):
            derive_mismatches(np.ones((3, 3)), phases, np.zeros((3, 3)), 0.1)

    def test_channel_count_checked(self):
        with pytest.raises(ConfigError):
            derive_mismatches([1.0], [0.0, 0.2], [0.0, 0.0], 0.1)
        with pytest.raises(ConfigError):
            derive_mismatches(1.0, 0.0, 0.0, 0.1)

    def test_blocks_derive_row_by_row(self):
        rng = np.random.default_rng(8)
        amps = rng.uniform(0.8, 0.9, (4, 3))
        phases = 2 * math.pi * 0.1 * (np.arange(3) + rng.uniform(-0.1, 0.1, (4, 3)))
        dcs = rng.uniform(-0.01, 0.01, (4, 3))
        batched = derive_mismatches(amps, phases, dcs, 0.1)
        for b in range(4):
            for got, want in zip(batched,
                                 derive_mismatches(amps[b], phases[b], dcs[b], 0.1)):
                np.testing.assert_array_equal(got[b], want)

    @pytest.mark.parametrize("reflected", [False, True])
    @pytest.mark.parametrize("M", range(2, 9))
    def test_nearest_branch_is_the_argmin_branch(self, M, reflected):
        rng = np.random.default_rng(10 * M + reflected)
        freq = rng.uniform(0.01, 0.49)
        while alias_to_subrate(freq, M)[1] != reflected:
            freq = rng.uniform(0.01, 0.49)
        B = 64
        # skews of up to 0.55 Ts, so some blocks have no valid branch
        dt = rng.uniform(-0.55, 0.55, (B, M))
        dt[:, 0] = 0.0
        carrier = (rng.uniform(-math.pi, math.pi, (B, 1))
                   + 2 * math.pi * freq * (np.arange(M) + dt))
        # fitted phases in (-pi, pi]; a reflected alias sees pi - carrier
        phases = np.angle(np.exp(1j * ((math.pi - carrier) if reflected
                                       else carrier)))
        want = argmin_skews(phases, freq, reflected)
        valid = np.all(np.abs(want) < 0.5, axis=1)
        assert 0 < np.count_nonzero(valid) < B
        amps, dcs = np.ones((B, M)), np.zeros((B, M))
        _, _, skews = derive_mismatches(amps[valid], phases[valid],
                                        dcs[valid], freq)
        np.testing.assert_array_equal(skews, want[valid])
        np.testing.assert_allclose(skews, dt[valid], rtol=0, atol=1e-9)
        for b in np.flatnonzero(~valid):
            with pytest.raises(PhaseAmbiguityError):
                derive_mismatches(amps[b], phases[b], dcs[b], freq)


class TestEndToEnd:
    def capture(self, cfg, profile, freq, n, phase=0.9, amp=0.9):
        tone = ToneSpec(amplitude=amp, freq_rel=freq, phase=phase)
        return simulate_capture(tone, cfg, profile, n)

    def test_detect_tone_freq_fine(self):
        freq = 77 / 4096
        profile = MismatchProfile((0, 0.001), (0, 0.01), (0, 0.01))
        cap = self.capture(CFG12, profile, freq, 16384)
        assert detect_tone_freq(cap) == pytest.approx(freq, abs=1e-8)

    def test_fitted_and_detected_frequencies_are_python_floats(self):
        # their repr is a plain number, fit to be passed back as --freq
        profile = MismatchProfile((0, 0.001), (0, 0.01), (0, 0.01))
        cap = self.capture(CFG12, profile, 77 / 4096, 16384)
        fit = sine_fit_four_param(cap.per_channel[0] / 2048, 77 / 2048)
        assert type(fit.freq_rel) is float
        freq = detect_tone_freq(cap)
        assert type(freq) is float and float(repr(freq)) == freq

    @pytest.mark.parametrize("name", ["fig6", "fig7"])
    def test_detection_agrees_with_the_lstsq_fit(self, name, monkeypatch):
        scenario = scenarios.load_scenario(name)
        capture = experiments.simulate_scenario(replace(
            scenario, n_samples=(1 << 16) * scenario.config.n_channels))
        got = detect_tone_freq(capture)
        monkeypatch.setattr(sinefit, "sine_fit_four_param", lstsq_fit)
        want = detect_tone_freq(capture)
        assert abs(got - want) <= 4 * np.spacing(want)

    def test_detect_tone_freq_reflected_band(self):
        freq = 1885 / 4096  # 0.46... lands above fs/4, image below tone
        profile = MismatchProfile((0, 0.0), (0, 0.005), (0, 0.005))
        cap = self.capture(CFG16, profile, freq, 16384)
        assert detect_tone_freq(cap) == pytest.approx(freq, abs=1e-8)

    def test_detect_tone_freq_reads_only_a_prefix(self):
        # channel 0 of b differs from a only after sample 65 536
        freq = 77 / 4096
        profile = MismatchProfile((0, 0.001), (0, 0.01), (0, 0.01))
        a = self.capture(CFG12, profile, freq, 2 * 70000)
        ch0 = a.per_channel[0].copy()
        tail = 70000 - (1 << 16)
        ch0[1 << 16:] += np.random.default_rng(5).integers(-2, 3, tail)
        b = ChannelCapture(CFG12, interleave_channels((ch0, a.per_channel[1])))
        assert detect_tone_freq(b) == detect_tone_freq(a)
        assert detect_tone_freq(a) == pytest.approx(freq, abs=1e-8)

    def test_estimate_from_capture_is_one_block_estimate(self):
        # the one-shot estimate reads the first block of each channel only
        profile = MismatchProfile((0, 0.003), (0, 0.01), (0, 0.01))
        cap = self.capture(CFG12, profile, 77 / 4096, 16384)
        # a C-ordered copy: the fits must not depend on the view's strides
        first = np.stack([c[:EST_BLOCK_PER_CHANNEL] for c in cap.per_channel])
        est = estimate_from_capture(cap, 77 / 4096)
        block = estimate_blocks(first[None], CFG12, 77 / 4096)
        assert est == MismatchProfile(*(v[0] for v in block))
        other = ChannelCapture(CFG12, interleave_channels(
            [np.concatenate((c[:EST_BLOCK_PER_CHANNEL],
                             -c[EST_BLOCK_PER_CHANNEL:]))
             for c in cap.per_channel]))
        assert estimate_from_capture(other, 77 / 4096) == est

    def test_estimate_profile(self):
        profile = MismatchProfile((0, 0.003), (0, 0.01), (0, 0.01))
        est = estimate_from_capture(self.capture(CFG12, profile, 77 / 4096,
                                                 16384))
        # a validated profile: test_cli's estimated-gain case shows the check
        assert isinstance(est, MismatchProfile)

    def test_estimate_recovers_profile_12bit(self):
        profile = MismatchProfile((0, 0.003), (0, 0.01), (0, 0.01))
        cap = self.capture(CFG12, profile, 77 / 4096, 16384)
        est = estimate_from_capture(cap)
        assert est.gains[1] == pytest.approx(0.01, abs=5e-4)
        assert est.skews[1] == pytest.approx(0.01, abs=5e-4)
        assert est.offsets[1] == pytest.approx(0.003, abs=5e-4)

    def test_estimate_reflected_band_16bit(self):
        profile = MismatchProfile((0, -0.002), (0, -0.008), (0, 0.007))
        cap = self.capture(CFG16, profile, 1885 / 4096, 16384)
        est = estimate_from_capture(cap)
        assert est.gains[1] == pytest.approx(-0.008, abs=1e-4)
        assert est.skews[1] == pytest.approx(0.007, abs=1e-4)
        assert est.offsets[1] == pytest.approx(-0.002, abs=1e-4)

    def test_estimate_five_channels(self):
        cfg = TiadcConfig(n_channels=5, bits=16)
        profile = MismatchProfile((0, 0.001, -0.001, 0.002, -0.002),
                                  (0, 0.01, -0.01, 0.02, -0.02),
                                  (0, 0.01, 0.02, -0.01, -0.02))
        cap = self.capture(cfg, profile, 779 / 4096, 20480)
        est = estimate_from_capture(cap)
        np.testing.assert_allclose(est.gains, profile.gains, atol=1e-4)
        np.testing.assert_allclose(est.skews, profile.skews, atol=1e-4)
        np.testing.assert_allclose(est.offsets, profile.offsets, atol=1e-4)

    def test_skew_estimate_amplitude_invariant(self):
        profile = MismatchProfile((0, 0.0), (0, 0.0), (0, 0.012))
        a = estimate_from_capture(self.capture(CFG16, profile, 77 / 4096, 16384, amp=0.9))
        b = estimate_from_capture(self.capture(CFG16, profile, 77 / 4096, 16384, amp=0.45))
        assert a.skews[1] == pytest.approx(b.skews[1], abs=1e-4)

    def test_explicit_tone_freq_accepted(self):
        profile = MismatchProfile.zero(2)
        cap = self.capture(CFG12, profile, 77 / 4096, 8192)
        est = estimate_from_capture(cap, tone_freq_rel=77 / 4096)
        assert est.gains[1] == pytest.approx(0.0, abs=5e-4)
