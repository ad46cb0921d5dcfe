"""The names perfbench/ reads from the package must exist in it.

The benchmark's tracer wraps tiadc_cal functions by name and its runner
reports metrics by span name. A renamed method makes ``--trace 1`` crash
in ``Tracer.install``; a renamed function makes its metric read 0 without
any error. The benchmark files are loaded by path, as they are.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    tracer = load("tracer")
    saved = sys.modules.get("tracer")
    sys.modules["tracer"] = tracer  # run.py does `from tracer import ...`
    try:
        run = load("run")
    finally:
        if saved is None:
            del sys.modules["tracer"]
        else:
            sys.modules["tracer"] = saved
    return tracer, run


def test_traced_methods_exist(bench):
    tracer, _ = bench
    for layer, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"tiadc_cal.{layer}"), cls_name)
        assert method in vars(cls), f"{layer}.{cls_name}.{method}"


def test_every_reported_span_has_a_traced_function(bench):
    tracer, run = bench
    spans = {name for _, name in tracer._public_functions().values()}
    spans |= set(tracer.METHODS.values())
    wanted = (set(run.SELF_TIMES) | set(run.CALLS) | set(run.SETUP_SELF_TIMES)
              | set(tracer.COUNT_HOOKS))
    assert wanted
    assert sorted(wanted - spans) == []


def test_calibrate_capture_is_one_object_in_every_namespace():
    # the tracer patches a function in every namespace that holds it, and
    # test_perfbench reads it from these
    import tiadc_cal
    from tiadc_cal import experiments, filterbank
    assert experiments.calibrate_capture is filterbank.calibrate_capture
    assert tiadc_cal.calibrate_capture is filterbank.calibrate_capture


def test_truth_path_calls_calibrate_capture(monkeypatch):
    # filterbank.calibrate_capture.s reads 0 if the truth path stops
    # calling it through experiments' binding
    from tiadc_cal import experiments
    from tiadc_cal.scenarios import load_scenario
    calls = []
    real = experiments.calibrate_capture
    monkeypatch.setattr(experiments, "calibrate_capture",
                        lambda *args: calls.append(1) or real(*args))
    scenario = load_scenario("fig6")
    experiments.calibrate_scenario(experiments.simulate_scenario(scenario),
                                   scenario)
    assert len(calls) == 1
