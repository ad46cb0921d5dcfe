"""The chunk map (model._chunk_map): a capture's chunks run side by side on
a thread pool, with the outputs, errors and call pattern of the serial
loop over them, for any number of workers."""

import importlib
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from concurrent.futures import Future
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


def drop_pool():
    """Shut the chunk pool down: the next chunk map makes a pool of
    model._WORKERS threads."""
    if model._POOL is not None:
        model._POOL[1].shutdown()
        model._POOL = None


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(n) gives the chunk pool n threads, through its private
    module constant; the pool is made afresh before and after the test."""

    def set_to(n):
        monkeypatch.setattr(model, "_WORKERS", n)
        drop_pool()

    yield set_to
    drop_pool()


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}workers")
def workers(request, set_workers):
    set_workers(request.param)
    return request.param


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
        got = [p.tobytes() for p in calibrate_capture(capture, bank)]
        want = [p.tobytes() for p in whole_pieces(capture, bank, chunk)]
        assert len(want) > 2
        assert got == want

    def test_simulate_capture_codes(self, workers, monkeypatch):
        monkeypatch.setattr(model, "_CHUNK", 1000)
        config = TiadcConfig(n_channels=3, bits=12)
        tone = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4, dc=0.01)
        capture = simulate_capture(tone, config, PROFILE3, 3 * 10517)
        want = quantize_stream(sample_channels(tone, config, PROFILE3, 10517),
                               config)
        assert capture.interleaved.dtype == np.int16
        assert (capture.interleaved.tobytes()
                == interleave_channels(want).astype(np.int16).tobytes())

    def test_background_stream_with_a_bank_per_block(self, workers,
                                                     monkeypatch):
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
        pieces, bank, estimate = experiments._calibrate_background(
            capture, types.SimpleNamespace(filter_spec=spec))
        got = list(pieces)

        # reference: one kernel call over the whole capture with every
        # block's bank stacked, block 0 under the identity
        offs, gains, skews = (np.concatenate(e) for e in zip(*estimates))
        n_blocks = -(-n // block)
        identity = design_banks(np.zeros((1, M)), np.zeros((1, M)), spec)[1]
        taps = np.concatenate((identity, design_banks(gains, skews, spec)[1]))
        offsets = np.concatenate((np.zeros((1, M)), offs))
        assert len(np.unique(offsets[1:n_blocks], axis=0)) == n_blocks - 1
        whole = merged_sums(capture, spec, taps[:n_blocks], offsets[:n_blocks],
                            block)
        skip = (block + spec.group_delay) * M
        assert np.concatenate(got).tobytes() == whole[skip:].tobytes()
        # one piece per chunk that holds output
        assert [len(p) for p in got] == [
            min(chunk, n - a) * M - max(skip - a * M, 0)
            for a in range(0, n, chunk) if (a + chunk) * M > skip]
        # a task gets the offsets of the blocks its history and samples
        # lie in: not every block so far
        assert max(rows) == -(-(spec.n_taps - 1) // block) + chunk // block
        assert max(rows) < n_blocks
        assert estimate == MismatchProfile(offs[-1], gains[-1], skews[-1])
        np.testing.assert_array_equal(
            bank.taps_fixed, FilterBank.design(estimate, M, spec).taps_fixed)


def test_many_workers_and_short_thread_switches(monkeypatch, set_workers):
    # more workers than cores, switching threads every microsecond: the
    # tasks write disjoint slices of one code array and read one capture
    set_workers(8)
    monkeypatch.setattr(model, "_CHUNK", 300)
    monkeypatch.setattr(filterbank, "_CHUNK", 300)
    config = TiadcConfig(n_channels=3, bits=12)
    tone = ToneSpec(amplitude=0.95, freq_rel=0.0371, phase=0.4)
    bank = FilterBank.design(PROFILE3, 3, FilterSpec(n_taps=301))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        capture = simulate_capture(tone, config, PROFILE3, 3 * 9001)
        got = [p.tobytes() for p in calibrate_capture(capture, bank)]
    finally:
        sys.setswitchinterval(interval)
    want = quantize_stream(sample_channels(tone, config, PROFILE3, 9001),
                           config)
    np.testing.assert_array_equal(capture.per_channel, want)
    assert got == [p.tobytes() for p in whole_pieces(capture, bank, 300)]


class TestMemoryInFlight:
    """The chunks in flight hold at most model._IN_FLIGHT_BYTES together,
    whatever the CPU count."""

    @pytest.mark.parametrize("task_bytes,in_flight", [
        (1, 8), (model._IN_FLIGHT_BYTES // 3, 3),
        (model._IN_FLIGHT_BYTES + 1, 1)])
    def test_tasks_in_flight(self, monkeypatch, task_bytes, in_flight):
        pool = types.SimpleNamespace(submitted=0)

        def submit(task, item):
            pool.submitted += 1
            future = Future()
            future.set_result(task(item))
            return future

        pool.submit = submit
        monkeypatch.setattr(model, "_WORKERS", 8)
        monkeypatch.setattr(model, "_executor", lambda: pool)
        it = model._chunk_map(lambda i: i, range(20), task_bytes)
        assert next(it) == 0
        # a single task in flight runs on the calling thread, not the pool
        assert pool.submitted == (in_flight if in_flight > 1 else 0)
        assert list(it) == list(range(1, 20))

    @staticmethod
    def peak(run) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_simulation_on_eight_workers(self, set_workers):
        # test_model's bound on the memory beyond the codes, on a host
        # with eight CPUs
        set_workers(8)
        tone = ToneSpec(amplitude=0.9, freq_rel=0.0371)
        config = TiadcConfig(n_channels=2, bits=12)
        profile = MismatchProfile((0, 0.003), (0, 0.02), (0, 0.03))
        n_total = 1 << 22
        peak = self.peak(lambda: simulate_capture(tone, config, profile,
                                                  n_total))
        assert peak - 2 * n_total < 4 << 20

    def test_calibration_on_eight_workers(self, set_workers):
        capture = random_capture(17, 2, 8 * _CHUNK)
        bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                                 (0.0, 0.01)), 2, SPEC30)

        def run():
            for _ in calibrate_capture(capture, bank):
                pass

        peaks = []
        for n in (2, 8):
            set_workers(n)
            run()  # first-call caches
            peaks.append(self.peak(run))
        # two chunks of two channels fill the budget on any CPU count
        assert peaks[1] <= peaks[0] + (64 << 10)
        assert peaks[1] < model._IN_FLIGHT_BYTES + (2 << 20)


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
        pieces = calibrate_capture(capture, bank)
        assert [next(pieces).tobytes(), next(pieces).tobytes()] == first
        with pytest.raises(NumericError) as err:
            next(pieces)
        assert str(err.value) == str(alone.value)
        assert str(err.value).startswith("worst-case accumulator ")

    def test_closing_cancels_the_queued_chunks(self, monkeypatch):
        class HeldPool:
            """Runs the first task at once and holds the rest queued."""

            def __init__(self):
                self.futures = []

            def submit(self, task, item):
                future = Future()
                if not self.futures:
                    future.set_result(task(item))
                self.futures.append(future)
                return future

        pool = HeldPool()
        monkeypatch.setattr(model, "_WORKERS", 3)
        monkeypatch.setattr(model, "_executor", lambda: pool)
        pulled = []

        def items():
            for i in range(10):
                pulled.append(i)
                yield i

        it = model._chunk_map(lambda i: i, items(), 1)
        assert next(it) == 0
        it.close()
        assert pulled == [0, 1, 2]
        assert [f.cancelled() for f in pool.futures] == [False, True, True]

    def test_closing_calibrate_capture_after_one_piece(self, monkeypatch,
                                                       set_workers):
        set_workers(2)
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
        # the pool drains what was in flight: two chunks, no more
        model._executor().submit(lambda: None).result(timeout=60)
        model._executor().submit(lambda: None).result(timeout=60)
        assert 1 <= len(calls) <= 2
        # and the pool still serves whole runs
        assert ([p.tobytes() for p in calibrate_capture(capture, bank)]
                == [p.tobytes() for p in whole_pieces(capture, bank, 500)])

    def test_one_worker_starts_no_thread(self, set_workers):
        set_workers(1)
        capture = random_capture(13, 2, 3 * _CHUNK)
        bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                                 (0.0, 0.01)), 2, SPEC30)
        for _ in calibrate_capture(capture, bank):
            pass
        simulate_capture(ToneSpec(amplitude=0.9, freq_rel=0.0371),
                         TiadcConfig(n_channels=2, bits=12),
                         MismatchProfile.zero(2), 6 * _CHUNK)
        assert model._POOL is None

    def test_thread_count_does_not_grow_across_calls(self):
        capture = random_capture(13, 2, 3 * _CHUNK)
        bank = FilterBank.design(MismatchProfile((0.0, 0.001), (0.0, 0.01),
                                                 (0.0, 0.01)), 2, SPEC30)
        tone = ToneSpec(amplitude=0.9, freq_rel=0.0371)
        config = TiadcConfig(n_channels=2, bits=12)

        def run():
            for _ in calibrate_capture(capture, bank):
                pass
            simulate_capture(tone, config, MismatchProfile.zero(2),
                             6 * _CHUNK)

        run()
        threads = threading.active_count()
        for _ in range(3):
            run()
        assert threading.active_count() <= threads
        assert len(model._executor()._threads) <= model._WORKERS

    def test_a_forked_child_makes_its_own_pool(self):
        # the child's copy of the parent's pool has no threads: reusing it
        # would wait forever
        code = ("import multiprocessing, tiadc_cal\n"
                "from tiadc_cal import *\n"
                "def run(_):\n"
                "    return len(simulate_capture(ToneSpec(0.9, 0.0371), "
                "TiadcConfig(2), MismatchProfile.zero(2), 1 << 18)"
                ".interleaved)\n"
                "run(0)\n"
                "with multiprocessing.get_context('fork').Pool(1) as pool:\n"
                "    print(pool.apply(run, (0,)))\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=self.path()))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(1 << 18)]

    @staticmethod
    def path():
        src = os.path.dirname(os.path.dirname(tiadc_cal.__file__))
        return os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))

    def test_import_starts_no_thread(self):
        code = ("import threading, tiadc_cal; "
                "from tiadc_cal import model; "
                "print(threading.active_count(), model._POOL is None)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=self.path()))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "True"]


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


def test_public_functions_run_only_on_the_calling_thread(monkeypatch,
                                                         set_workers):
    # perfbench's tracer counts calls in plain Counters and nests spans per
    # thread, so a chunk task must call no public layer function
    set_workers(2)
    seen, kernel_threads = [], []
    record_threads(monkeypatch, seen)
    monkeypatch.setattr(filterbank, "_chunk_sums", lambda *args: (
        kernel_threads.append(threading.get_ident()) or _chunk_sums(*args)))
    n = 2 * _CHUNK + 4096
    # fig7's five channels leave room for one chunk in flight, so its
    # chunks run on the calling thread; fig6's two channels use the pool
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
    # the kernel ran on a worker while the recorder watched
    assert set(kernel_threads) - {threading.get_ident()}
