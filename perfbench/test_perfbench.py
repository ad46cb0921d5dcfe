"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import tiadc_cal  # noqa: E402
from tiadc_cal import experiments, filterbank, polyphase  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_interval_children_cover():
    spans = [("a", 0.0, 10.0, None),
             ("b", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0),   # overlap: covers 1..6
             ("d", 2.0, 3.0, 1)]
    assert self_times(spans) == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0}


def test_tail_keeps_ten_samples_beyond_or_takes_the_lowest():
    assert run.tail(list(range(40))) == (29, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (1.0, 25.0, 3)


def test_tracer_wraps_every_namespace_and_restores_them():
    original = filterbank.calibrate_capture
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.calibrate_capture is filterbank.calibrate_capture
        assert tiadc_cal.calibrate_capture is filterbank.calibrate_capture
        assert filterbank.calibrate_capture is not original
        tracer.begin("op")
        with pytest.raises(tiadc_cal.ConfigError):
            polyphase.BlockConvolver(3).process([1, 2], [1, 2])
        figures = tracer.end()
    finally:
        tracer.uninstall()
    assert filterbank.calibrate_capture is original
    assert experiments.calibrate_capture is original
    assert figures["calls"] == {"polyphase.block_process": 1}
    assert figures["errors"] == {"polyphase.block_process": 1}


def _counts(record):
    return {name: value for name, (value, unit) in record["per_layer"].items()
            if unit != "s" and not name.startswith("trace.overhead")}


@pytest.mark.parametrize("workload", ["calibrate-truth-8m",
                                      "background-est-5ch", "fig-sweeps"])
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    first = run.run_workload(workload, seed=7, seconds=0, trace=1)
    second = run.run_workload(workload, seed=7, seconds=0, trace=1)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    fit_calls = first["per_layer"]["sinefit.sine_fit_four_param.calls"][0]
    assert (fit_calls > 0) == (workload == "background-est-5ch")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig-sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
    assert not os.path.exists(tmp_path / "perfbench" / "out")
