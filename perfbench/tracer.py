"""Span tracing of the tiadc_cal layers, installed from outside the package.

Every public function of a tiadc_cal module is replaced, in every
tiadc_cal namespace that holds the same object, by a wrapper that records a
span (name, start, end, parent, operation id) and feeds the counters below.
Modules import library functions by name (``experiments`` and ``cli`` both
bind ``calibrate_capture``), so patching only the defining module would miss
most calls. Two methods are wrapped on their classes as well:
``FilterBank.design`` and ``BlockConvolver.process``.

The package's source is not modified; ``uninstall`` puts every original
object back.
"""

import functools
import importlib
import os
import sys
import threading
import time
import types
from collections import Counter, defaultdict

LAYERS = ("model", "capture_io", "sinefit", "filterbank", "polyphase",
          "metrics", "scenarios", "experiments", "cli")

# (module, class, method) -> span name
METHODS = {
    ("filterbank", "FilterBank", "design"): "filterbank.design",
    ("polyphase", "BlockConvolver", "process"): "polyphase.block_process",
}


def _macs(taps, outputs) -> int:
    """Multiply-accumulates of a full convolution, computed from sizes."""
    return len(outputs) * len(taps)


# span name -> hook(args, kwargs, result) -> {counter: increment}
COUNT_HOOKS = {
    "model.simulate_capture":
        lambda a, k, r: {"model.samples": len(r.interleaved)},
    "sinefit.sine_fit_four_param":
        lambda a, k, r: {"sinefit.fit_samples": len(a[0]),
                         "sinefit.gn_iterations": r.iterations},
    "polyphase.convolve_serial":
        lambda a, k, r: {"polyphase.macs": _macs(a[1], r)},
    "polyphase.parallel_convolve":
        lambda a, k, r: {"polyphase.macs":
                         sum(_macs(a[1], lane) for lane in r)},
    "polyphase.block_process":
        lambda a, k, r: {"polyphase.macs": _macs(a[2], r)},
    "capture_io.read_capture":
        lambda a, k, r: {"capture_io.bytes_read": os.path.getsize(a[0])},
}


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "tiadc_cal" or name.startswith("tiadc_cal."))]


def _public_functions():
    """Map id(function) -> (function, span name) for every public function
    defined in one of the layer modules."""
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tiadc_cal.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                targets[id(obj)] = (obj, f"{layer}.{attr}")
    return targets


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover. spans holds (name, start, end,
    parent index) tuples; parent is None for a top-level span."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    """Records spans, calls, errors and counters, one operation at a time.

    Every traced call belongs to the operation opened by ``begin``; ``end``
    closes it and returns its figures. All spans stay in ``spans`` until
    the benchmark writes them out.
    """

    def __init__(self):
        self.spans = []   # (op id, name, start, end, parent index)
        self._op = None
        self._op_first = 0
        self._calls = Counter()
        self._errors = Counter()
        self._counts = Counter()
        self._local = threading.local()
        self._saved = []  # (owner, attribute, original)

    def begin(self, op_id) -> None:
        """Open operation op_id; later spans and counts belong to it."""
        self._op = op_id
        self._op_first = len(self.spans)
        self._calls, self._errors, self._counts = Counter(), Counter(), Counter()

    def end(self) -> dict:
        """Close the operation; return self seconds per span name, calls
        and errors per span name, the COUNT_HOOKS counters and the number
        of spans."""
        first = self._op_first
        spans = [(name, start, end, None if parent is None else parent - first)
                 for _, name, start, end, parent in self.spans[first:]]
        self._op = None
        return {"self_s": self_times(spans), "calls": dict(self._calls),
                "errors": dict(self._errors), "counts": dict(self._counts),
                "spans": len(spans)}

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            index = len(tracer.spans)
            parent = stack[-1] if stack else None
            tracer.spans.append(None)  # children need this span's index
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, name, start, parent, stack)
                tracer._errors[name] += 1
                raise
            tracer._close(index, name, start, parent, stack)
            if hook is not None:
                tracer._counts.update(hook(args, kwargs, result))
            return result

        return traced

    def _close(self, index, name, start, parent, stack):
        end = time.perf_counter()
        stack.pop()
        self.spans[index] = (self._op, name, start, end, parent)
        self._calls[name] += 1

    def install(self) -> None:
        """Wrap every public layer function in every tiadc_cal namespace
        that holds it, and the two traced methods on their classes."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = _public_functions()
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in targets.items()}
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(importlib.import_module(f"tiadc_cal.{layer}"),
                          cls_name)
            raw = cls.__dict__[method]
            self._saved.append((cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, method, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
