"""The chunk kernel's fixed cost: its guard's peaks come from the
config's word and the blocks' offset codes alone, so calibrating scans no
code, and a chunk runs as int64 limbs only where that bound times the
largest slot sum of |taps| reaches 2^53; a chunk driver running one bank
lays it out (filterbank._bank_layout) once per call, and one with a bank
per block once per chunk at most."""

from dataclasses import replace

import numpy as np
import pytest

from tiadc_cal import (FilterBank, FilterSpec, TiadcConfig, calibrate_capture,
                       experiments, filterbank, model)
from tiadc_cal.filterbank import _chunk_sums
from tiadc_cal.model import _CHUNK
from tiadc_cal.scenarios import MODE_EST, load_scenario
from test_chunk_kernel import reference


@pytest.fixture
def scans(monkeypatch):
    """The dtypes of the codes of every code-range scan."""
    calls = []
    scan = model._first_code_outside

    def counted(codes, bits):
        calls.append(codes.dtype)
        return scan(codes, bits)

    monkeypatch.setattr(model, "_first_code_outside", counted)
    return calls


@pytest.fixture
def limbs(monkeypatch):
    """The chunk kernel's calls of its int64 limb route."""
    calls = []
    limb_frames = filterbank._limb_frames
    monkeypatch.setattr(filterbank, "_limb_frames", lambda *args: (
        calls.append(1) or limb_frames(*args)))
    return calls


@pytest.fixture
def layouts(monkeypatch):
    """The number of banks of each layout the chunk drivers build."""
    calls = []
    layout = filterbank._bank_layout

    def counted(taps, *args):
        calls.append(len(taps))
        return layout(taps, *args)

    monkeypatch.setattr(filterbank, "_bank_layout", counted)
    return calls


def as_floats(sums):
    return [[float(v) for v in row] for row in sums]


class TestDtypeBound:
    """The guard's bound is the word's, whatever the codes' dtype: the
    codes are not scanned, and the limbs run where the word and the
    offset codes call for them."""

    @pytest.mark.parametrize("name", ["fig6", "fig7"])
    def test_a_designed_bank_on_int16_codes_scans_nothing(self, name, scans,
                                                           limbs):
        scenario = load_scenario(name)
        capture = experiments.simulate_scenario(scenario)
        assert capture.interleaved.dtype == np.int16
        assert scans == []  # the simulation's quantizer clips to the word
        bank = FilterBank.design(scenario.profile, scenario.config.n_channels,
                                 scenario.filter_spec)
        assert len(np.concatenate(list(calibrate_capture(capture, bank))))
        assert scans == [] and limbs == []

    def test_the_background_loop_on_int16_codes_scans_nothing(self, scans,
                                                              limbs):
        result = experiments.run_scenario(replace(load_scenario("fig7"),
                                                  mode=MODE_EST))
        scans.clear()
        assert len(np.concatenate(list(result.replay())))
        assert scans == [] and limbs == []

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_wide_codes_at_32_bit_taps_run_as_limbs(self, dtype, scans,
                                                    limbs):
        # 2^23 times a slot sum of about 2^30 reaches 2^53
        rng = np.random.default_rng(7)
        config = TiadcConfig(n_channels=2, bits=24)
        codes = rng.integers(-(1 << 23), 1 << 23, (2, 300)).astype(dtype)
        spec = FilterSpec(n_taps=30, coeff_bits=32)
        bank = FilterBank.design(load_scenario("fig6").profile, 2, spec)
        taps = np.asarray(bank.taps_fixed)[None]
        offsets = np.asarray(bank.offsets)[None]
        args = (codes, config, spec, 100, 300, taps, offsets, 0, 300)
        assert _chunk_sums(*args).tolist() == as_floats(
            reference(codes, config, spec.n_taps, *args[3:]))
        assert scans == [] and limbs

    @staticmethod
    def edge_case(slot_sum, offset=0.0):
        """16-bit codes of two channels in int16, with a run of -2^15 on
        both, and a 128-tap bank whose channel-0 row sums to slot_sum in
        |taps| of about -2^31 each (channel 1's is smaller): the word
        bounds every sum by (2^15 + |offset code|) * slot_sum, and the run
        reaches it."""
        rng = np.random.default_rng(slot_sum % 1000)
        M, N = 2, 128
        config = TiadcConfig(n_channels=M, bits=16)
        codes = rng.integers(-(1 << 15), 1 << 15, (M, 400)).astype(np.int16)
        codes[:, 200:280] = -(1 << 15)
        deficit = (1 << 38) - slot_sum
        taps = np.empty((1, M, N), dtype=np.int64)
        taps[0, 0] = -(1 << 31) + deficit // N
        taps[0, 0, :deficit % N] += 1
        taps[0, 1] = rng.integers(-(1 << 30), 1 << 30, N)
        offsets = np.array([[offset, 0.0]])
        args = (codes, config, FilterSpec(n_taps=N, coeff_bits=32), 150, 400,
                taps, offsets, 0, 400)
        assert int(np.abs(taps[0, 0]).sum()) == slot_sum
        return args

    def test_a_bound_just_below_2_53_is_not_scanned(self, scans, limbs):
        args = self.edge_case((1 << 38) - 1)
        assert _chunk_sums(*args).tolist() == as_floats(
            reference(args[0], args[1], 128, *args[3:]))
        # the float64 products hold every sum
        assert scans == [] and limbs == []

    def test_a_bound_of_2_53_runs_as_limbs(self, scans, limbs):
        args = self.edge_case(1 << 38)
        assert _chunk_sums(*args).tolist() == as_floats(
            reference(args[0], args[1], 128, *args[3:]))
        # the run of -2^15 meets the bound
        assert scans == [] and limbs

    def test_an_offset_code_counts_in_the_bound(self, limbs):
        # 2^15 times 2^38 - 2^22 is below 2^53, 2^15 + 1 times it above:
        # an offset code of one LSB takes the bound past 2^53
        args = self.edge_case((1 << 38) - (1 << 22), offset=1.0 / (1 << 15))
        assert _chunk_sums(*args).tolist() == as_floats(
            reference(args[0], args[1], 128, *args[3:]))
        assert limbs


class TestLayout:
    def test_one_bank_is_laid_out_once_a_call(self, layouts, monkeypatch):
        chunks = []
        chunk_sums = filterbank._chunk_sums
        monkeypatch.setattr(filterbank, "_chunk_sums", lambda *args: (
            chunks.append(1) or chunk_sums(*args)))
        scenario = replace(load_scenario("fig6"), n_samples=16 * _CHUNK)
        result = experiments.run_scenario(scenario)
        # run_scenario and each replay() run the chunk driver once over 8
        # chunks; run_scenario's products run only for the chunk that holds
        # its n_fft window, and each replay() runs them for all 8
        assert layouts == [1] and len(chunks) == 1
        first = np.concatenate(list(result.replay()))
        second = np.concatenate(list(result.replay()))
        assert layouts == [1, 1, 1] and len(chunks) == 1 + 2 * 8
        assert first.tobytes() == second.tobytes()

    def test_banks_per_block_are_laid_out_once_a_chunk_at_most(
            self, layouts, monkeypatch):
        chunks = []
        chunk_sums = filterbank._chunk_sums
        monkeypatch.setattr(filterbank, "_chunk_sums", lambda *args: (
            chunks.append(len(args[5])) or chunk_sums(*args)))
        scenario = replace(load_scenario("fig7"), mode=MODE_EST,
                           n_samples=5 * (2 * _CHUNK + 4096))
        result = experiments.run_scenario(scenario)
        chunks.clear()
        layouts.clear()
        list(result.replay())
        # 3 chunks of 16, 16 and 1 blocks of 4 096 samples, each laid out
        # by the kernel
        assert chunks == [16, 16, 1] and layouts == chunks
