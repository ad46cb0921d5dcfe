"""Chunked simulation and calibration: simulate_capture and
calibrate_capture run their chunks one after another on the calling
thread, with the bytes of one pass over the whole capture, the errors of
the serial loop over the chunks, and no thread of their own. A caller
that runs them on threads of its own, the workers here, gets the same
bytes and errors on every thread."""

import importlib
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

import tiadc_cal
from tiadc_cal import (FilterBank, FilterSpec, MismatchProfile, NumericError,
                       TiadcConfig, ToneSpec, calibrate_capture,
                       quantize_stream, sample_channels, simulate_capture)
from tiadc_cal import experiments, filterbank, model
from tiadc_cal.filterbank import _chunk_sums, design_banks
from tiadc_cal.model import _CHUNK, ChannelCapture, interleave_channels
from tiadc_cal.scenarios import MODE_EST, load_scenario

SPEC30 = FilterSpec(n_taps=30, coeff_bits=30)
PROFILE3 = MismatchProfile((0.0, 0.003, -0.002), (0.0, 0.01, -0.02),
                           (0.0, 0.02, -0.015))


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}workers")
def workers(request):
    return request.param


def on_threads(n_workers, run):
    """Call run() on n_workers threads at once, the calling thread one of
    them, as a caller that spreads its own work over threads does: the
    list of run()'s returns. The first exception a thread raised is
    raised here."""
    start = threading.Barrier(n_workers)
    results, errors = [None] * n_workers, []

    def work(i):
        try:
            start.wait(timeout=60)
            results[i] = run()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(1, n_workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def random_capture(seed, n_channels, n_per_channel, dtype=np.int16):
    rng = np.random.default_rng(seed)
    return ChannelCapture(TiadcConfig(n_channels=n_channels, bits=12),
                          interleave_channels(
                              [rng.integers(-2048, 2048, n_per_channel)
                               .astype(dtype) for _ in range(n_channels)]))


def merged_sums(capture, spec, taps, offsets, block_len):
    """The chunk kernel run once over the whole capture, with taps (B, M, N)
    and offsets (B, M) of one bank per block_len samples: the merged
    stream in amplitude units, untrimmed."""
    n = capture.n_per_channel
    acc = _chunk_sums(capture.per_channel, capture.config, spec, 0, n, taps,
                      offsets, 0, block_len)
    return interleave_channels(acc) * (2.0 ** -(spec.coeff_bits - 2)
                                       * capture.config.lsb)


def whole_pieces(capture, bank, chunk):
    """calibrate_capture's pieces, cut from one kernel call over the whole
    capture: the merged stream, trimmed, at each chunk's samples."""
    M = capture.config.n_channels
    n = capture.n_per_channel
    trim = bank.group_delay * M
    merged = merged_sums(capture, bank.spec, np.asarray(bank.taps_fixed)[None],
                         np.asarray(bank.offsets)[None], n)
    for start in range(0, n, chunk):
        lo = max(start * M, trim)
        hi = min((start + chunk) * M, (n * M) - trim)
        if lo < hi:
            yield merged[lo:hi]


def background_whole(capture, spec, estimates, block):
    """The background replay's stream from one kernel call over the whole
    capture, trimmed: estimates holds estimate_blocks' returns, and every
    block of block samples runs the bank of the block before, block 0 its
    own."""
    M = capture.config.n_channels
    n = capture.n_per_channel
    offs, gains, skews = (np.concatenate(e) for e in zip(*estimates))
    n_blocks = -(-n // block)
    taps, offsets = (np.concatenate((v[:1], v)) for v in (
        design_banks(gains, skews, spec)[1], offs))
    whole = merged_sums(capture, spec, taps[:n_blocks], offsets[:n_blocks],
                        block)
    trim = spec.group_delay * M
    return whole[trim:n * M - trim]


class TestSameBytesForEveryWorkerCount:
    @pytest.mark.parametrize("chunk,n_taps,n_per_channel", [
        (_CHUNK, 30, 2 * _CHUNK + 123),
        # N-1 reaches back over three chunks
        (100, 301, 1234),
    ])
    def test_calibrate_capture_pieces(self, workers, monkeypatch, chunk,
                                      n_taps, n_per_channel):
        monkeypatch.setattr(filterbank, "_CHUNK", chunk)
        capture = random_capture(n_taps, 3, n_per_channel)
        bank = FilterBank.design(PROFILE3, 3, FilterSpec(n_taps, 30))
        runs = on_threads(workers, lambda: [
            p.tobytes() for p in calibrate_capture(capture, bank)])
        want = [p.tobytes() for p in whole_pieces(capture, bank, chunk)]
        assert len(want) > 2
        assert runs == [want] * workers

    def test_simulate_capture_codes(self, workers, monkeypatch):
        monkeypatch.setattr(model, "_CHUNK", 1000)
        config = TiadcConfig(n_channels=3, bits=12)
        tone = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4, dc=0.01)
        captures = on_threads(workers, lambda: simulate_capture(
            tone, config, PROFILE3, 3 * 10517))
        want = quantize_stream(sample_channels(tone, config, PROFILE3, 10517),
                               config)
        for capture in captures:
            assert capture.interleaved.dtype == np.int16
            assert (capture.interleaved.tobytes()
                    == interleave_channels(want).astype(np.int16).tobytes())


class TestSameBytesAsTheWholeCapture:

    def test_background_stream_with_a_bank_per_block(self, monkeypatch):
        # blocks of 16 samples and chunks of 64, so the 100 history
        # samples of a 101-tap bank span several blocks and a chunk edge;
        # every block gets a bank of random mismatches, nonzero offsets too
        block, chunk = 16, 64
        monkeypatch.setattr(experiments, "EST_BLOCK_PER_CHANNEL", block)
        monkeypatch.setattr(filterbank, "_CHUNK", chunk)
        monkeypatch.setattr(experiments, "detect_tone_freq",
                            lambda capture: 0.1)
        rng = np.random.default_rng(7)
        estimates = []

        def estimate_blocks(blocks, config, tone_freq):
            shape = blocks.shape[:2]
            estimates.append((rng.uniform(-0.01, 0.01, shape),
                              rng.uniform(-0.03, 0.03, shape),
                              rng.uniform(-0.03, 0.03, shape)))
            return estimates[-1]

        monkeypatch.setattr(experiments, "estimate_blocks", estimate_blocks)
        rows = []

        def chunk_sums(codes, config, spec, start, stop, taps, offsets,
                       *args):
            rows.append(len(offsets))
            return _chunk_sums(codes, config, spec, start, stop, taps,
                               offsets, *args)

        monkeypatch.setattr(filterbank, "_chunk_sums", chunk_sums)
        spec = FilterSpec(n_taps=101, coeff_bits=30)
        M, n = 3, 4 * chunk + 2 * block + 8  # a short last block
        capture = random_capture(3, M, n)
        replay, bank, estimate = experiments._calibrate_background(
            capture, types.SimpleNamespace(filter_spec=spec))
        got = list(replay())

        # every full block has offsets of its own
        offs, gains, skews = (np.concatenate(e) for e in zip(*estimates))
        n_blocks = -(-n // block)
        assert len(np.unique(offs, axis=0)) == len(offs) == n_blocks - 1
        assert (np.concatenate(got).tobytes()
                == background_whole(capture, spec, estimates, block).tobytes())
        # one piece per chunk that holds output
        trim = spec.group_delay * M
        edges = [(max(a * M, trim), min((a + chunk) * M, n * M - trim))
                 for a in range(0, n, chunk)]
        assert [len(p) for p in got] == [hi - lo for lo, hi in edges
                                         if hi > lo]
        # a second replay runs the same banks: nothing is estimated again
        assert [p.tobytes() for p in replay()] == [p.tobytes() for p in got]
        assert len(estimates) == 1
        # a task gets the offsets of the blocks its history and samples
        # lie in: not every block so far
        assert max(rows) == -(-(spec.n_taps - 1) // block) + chunk // block
        assert max(rows) < n_blocks
        assert estimate == MismatchProfile(offs[-1], gains[-1], skews[-1])
        np.testing.assert_array_equal(
            bank.taps_fixed, FilterBank.design(estimate, M, spec).taps_fixed)


@pytest.mark.parametrize("chunk,n_workers", [(500, 1), (500, 2), (500, 8),
                                             (1000, 8)])
def test_simulated_codes_do_not_depend_on_the_chunking(monkeypatch, chunk,
                                                       n_workers):
    # chunks of 500 and 1000 samples start off the angle-addition grid of
    # model._SPLIT samples; test_simulate_capture_codes runs 1000 on one to
    # three workers
    monkeypatch.setattr(model, "_CHUNK", chunk)
    config = TiadcConfig(n_channels=3, bits=12)
    tone = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4, dc=0.01)
    captures = on_threads(n_workers, lambda: simulate_capture(
        tone, config, PROFILE3, 3 * 10517))
    want = quantize_stream(sample_channels(tone, config, PROFILE3, 10517),
                           config)
    for capture in captures:
        assert (capture.interleaved.tobytes()
                == interleave_channels(want).astype(np.int16).tobytes())


def test_a_70_tap_bank_gives_the_whole_capture_bytes(monkeypatch):
    # N-1 = 69 reaches past a frame of the matrix-product kernel; chunks
    # of 700 samples and estimation blocks of 512 put chunk, block and
    # frame edges apart
    block, chunk = 512, 700
    monkeypatch.setattr(filterbank, "_CHUNK", chunk)
    monkeypatch.setattr(experiments, "EST_BLOCK_PER_CHANNEL", block)
    estimates = []
    real_estimate = experiments.estimate_blocks
    monkeypatch.setattr(experiments, "estimate_blocks", lambda *args: (
        estimates.append(real_estimate(*args)) or estimates[-1]))
    spec = FilterSpec(n_taps=70, coeff_bits=30)
    capture = simulate_capture(ToneSpec(amplitude=0.9, freq_rel=0.0371),
                               TiadcConfig(n_channels=3, bits=14), PROFILE3,
                               3 * 4321)
    bank = FilterBank.design(PROFILE3, 3, spec)
    pieces = [p.tobytes() for p in calibrate_capture(capture, bank)]
    assert pieces == [p.tobytes() for p in whole_pieces(capture, bank, chunk)]
    replay = experiments._calibrate_background(
        capture, types.SimpleNamespace(filter_spec=spec))[0]
    background = list(replay())
    assert len(pieces) == len(background) == 7
    assert (np.concatenate(background).tobytes()
            == background_whole(capture, spec, estimates, block).tobytes())


def peak_memory(run) -> int:
    """The most memory that run() holds at once beyond what was held
    before it, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_calibration_memory_stays_within_a_chunk():
    # the calibration's chunks run one at a time: its temporaries stay
    # within 6 MiB for a capture of 8 chunks
    capture = random_capture(17, 2, 8 * _CHUNK)
    bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                             (0.0, 0.01)), 2, SPEC30)

    def run():
        for _ in calibrate_capture(capture, bank):
            pass

    run()  # first-call caches
    assert peak_memory(run) < 6 << 20


class TestErrorsAndCleanup:
    def test_a_guard_error_comes_after_the_pieces_before_it(self, workers,
                                                            monkeypatch):
        chunk = 256
        monkeypatch.setattr(filterbank, "_CHUNK", chunk)
        capture = random_capture(5, 2, 5 * chunk, dtype=np.int64)
        bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                                 (0.0, 0.01)), 2, SPEC30)
        # the pieces before chunk 2 do not read its samples
        want = whole_pieces(capture, bank, chunk)
        first = [next(want).tobytes(), next(want).tobytes()]
        capture.per_channel[1, 2 * chunk + 10] = 1 << 40  # in chunk 2
        with pytest.raises(NumericError) as alone:  # chunk 2 on its own
            _chunk_sums(capture.per_channel, capture.config, SPEC30,
                        2 * chunk, 3 * chunk, np.asarray(bank.taps_fixed)[None],
                        np.asarray(bank.offsets)[None], 0, 5 * chunk)

        def run():
            pieces = calibrate_capture(capture, bank)
            assert [next(pieces).tobytes(), next(pieces).tobytes()] == first
            with pytest.raises(NumericError) as err:
                next(pieces)
            return str(err.value)

        assert on_threads(workers, run) == [str(alone.value)] * workers
        assert str(alone.value).startswith("worst-case accumulator ")

    def test_closing_calibrate_capture_after_one_piece(self, monkeypatch):
        monkeypatch.setattr(filterbank, "_CHUNK", 500)
        capture = random_capture(11, 2, 20 * 500)
        bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                                 (0.0, 0.01)), 2, SPEC30)
        calls = []
        monkeypatch.setattr(filterbank, "_chunk_sums",
                            lambda *args: calls.append(1) or _chunk_sums(*args))
        pieces = calibrate_capture(capture, bank)
        next(pieces)
        pieces.close()
        # the chunks run on the calling thread, one per piece read
        assert len(calls) == 1
        assert ([p.tobytes() for p in calibrate_capture(capture, bank)]
                == [p.tobytes() for p in whole_pieces(capture, bank, 500)])

    def test_an_error_cancels_the_queued_simulation_chunks(self, monkeypatch):
        monkeypatch.setattr(model, "_CHUNK", 500)
        tone = ToneSpec(amplitude=0.9, freq_rel=0.0371)
        config = TiadcConfig(n_channels=2, bits=12)
        real, starts = model._sample_row, set()

        def sample_row(tone, profile, m, first, row):
            starts.add(first)
            if first == 500:  # chunk 1
                raise ValueError("chunk 1")
            return real(tone, profile, m, first, row)

        monkeypatch.setattr(model, "_sample_row", sample_row)
        with pytest.raises(ValueError, match="chunk 1"):
            simulate_capture(tone, config, MismatchProfile.zero(2),
                             2 * 20 * 500)
        # no chunk after chunk 1 starts
        assert starts == {0, 500}
        # and the next run is whole
        monkeypatch.setattr(model, "_sample_row", real)
        capture = simulate_capture(tone, config, MismatchProfile.zero(2),
                                   2 * 20 * 500)
        want = quantize_stream(sample_channels(tone, config,
                                               MismatchProfile.zero(2),
                                               20 * 500), config)
        np.testing.assert_array_equal(capture.per_channel, want)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # one caller's simulation and calibration run on its thread alone
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (
            started.append(thread) or real_start(thread)))
        threads = threading.active_count()
        capture = simulate_capture(ToneSpec(amplitude=0.9, freq_rel=0.0371),
                                   TiadcConfig(n_channels=2, bits=12),
                                   MismatchProfile.zero(2), 6 * _CHUNK)
        bank = FilterBank.design(MismatchProfile.zero(2), 2, SPEC30)
        for _ in calibrate_capture(capture, bank):
            pass
        assert started == []
        assert threading.active_count() == threads

    def test_thread_count_does_not_grow_across_calls(self):
        # simulation and calibration start no thread of their own
        tone = ToneSpec(amplitude=0.9, freq_rel=0.0371)
        config = TiadcConfig(n_channels=2, bits=12)
        scenario = replace(load_scenario("fig6"), n_samples=1 << 18)
        threads = threading.active_count()
        for _ in range(3):
            simulate_capture(tone, config, MismatchProfile.zero(2),
                             6 * _CHUNK)
            experiments.run_scenario(scenario)
            assert threading.active_count() == threads

    @staticmethod
    def path():
        src = os.path.dirname(os.path.dirname(tiadc_cal.__file__))
        return os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))

    def test_import_starts_no_thread(self):
        code = "import threading, tiadc_cal; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=self.path()))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]


LAYERS = ("model", "capture_io", "sinefit", "filterbank", "polyphase",
          "metrics", "scenarios", "experiments", "cli")


def record_threads(monkeypatch, seen):
    """Wrap every public function of the layer modules, in every tiadc_cal
    namespace that holds it, and FilterBank.design, as perfbench's tracer
    does; each call appends (name, calling thread) to seen."""

    def wrap(fn, name):
        def recorded(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return recorded

    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tiadc_cal.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = wrap(obj, f"{layer}.{attr}")
    for name, ns in sorted(sys.modules.items()):
        if ns is not None and (name == "tiadc_cal"
                               or name.startswith("tiadc_cal.")):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(ns, attr, wrappers[id(obj)])
    design = FilterBank.__dict__["design"].__func__
    monkeypatch.setattr(FilterBank, "design",
                        classmethod(wrap(design, "filterbank.design")))


def test_public_functions_run_only_on_the_calling_thread(monkeypatch):
    # perfbench's tracer counts calls in plain Counters and nests spans per
    # thread; the simulation's and the calibration's chunks run on the
    # calling thread too
    seen, row_threads = [], []
    record_threads(monkeypatch, seen)
    real_row = model._sample_row
    monkeypatch.setattr(model, "_sample_row", lambda *args: (
        row_threads.append(threading.get_ident()) or real_row(*args)))
    n = 2 * _CHUNK + 4096
    for name in ("fig6", "fig7"):
        scenario = load_scenario(name)
        M = scenario.config.n_channels
        est = replace(scenario, mode=MODE_EST, n_samples=M * n)
        truth = replace(scenario, n_samples=M * n)
        experiments.run_scenario(est)
        result = experiments.run_scenario(truth)
        capture = experiments.simulate_scenario(truth)
        for _ in calibrate_capture(capture, result.bank):
            pass
    names = {name for name, _ in seen}
    assert {"model.simulate_capture", "model.dequantize_stream",
            "sinefit.estimate_blocks", "filterbank.design_banks",
            "filterbank.calibrate_capture"} <= names
    assert {ident for _, ident in seen} == {threading.get_ident()}
    assert row_threads
    assert set(row_threads) == {threading.get_ident()}
