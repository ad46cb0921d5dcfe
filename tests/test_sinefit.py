import math

import numpy as np
import pytest

from dataclasses import replace

from tiadc_cal import (ChannelCapture, ConfigError, ConvergenceError,
                       DegenerateFitError, MismatchProfile,
                       PhaseAmbiguityError, ShapeError, SineFitResult,
                       TiadcConfig,
                       ToneSpec, alias_to_subrate, derive_mismatches,
                       detect_tone_freq, estimate_blocks,
                       estimate_from_capture, interleave_channels,
                       sine_fit_four_param, simulate_capture)
from tiadc_cal import experiments, scenarios, sinefit
from tiadc_cal.sinefit import EST_BLOCK_PER_CHANNEL, _fit_rows

CFG12 = TiadcConfig(n_channels=2, bits=12)
CFG16 = TiadcConfig(n_channels=2, bits=16)


def make_sine(n, amp, freq, phase, dc):
    k = np.arange(n)
    return dc + amp * np.sin(2 * np.pi * freq * k + phase)


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
        codes = cap.per_channel
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
