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
