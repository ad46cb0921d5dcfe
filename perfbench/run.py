"""tiadc-cal benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload calibrate-truth-8m --seed 1 \
        --seconds 10 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
the traced operations instead. ``--workload all`` runs every workload in a
process of its own, one after the other. See README.md in this directory.
"""

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 5      # set-up runs per benchmark run; setup_s takes the median
IMPORT_REPS = 5     # fresh-interpreter imports per run; median goes into setup_s
TAIL_BEYOND = 10    # the tail percentile keeps this many samples beyond it
# Printed, but left out of the JSON result: ops_failed_frac is 0 on correct
# code, and op_tail_ms spreads wider than any bound on a shared host.
PRINTED_ONLY = ("ops_failed_frac", "op_tail_ms")
# Per-layer metrics from the traced operations (median over traced ops).
SELF_TIMES = (
    "cli.main", "capture_io.read_capture", "model.simulate_capture",
    "model.dequantize_stream", "model.interleave_channels",
    "sinefit.detect_tone_freq", "sinefit.sine_fit_four_param",
    "sinefit.derive_mismatches", "filterbank.design",
    "filterbank.calibrate_capture", "polyphase.parallel_convolve_stream",
    "polyphase.parallel_convolve", "polyphase.convolve_serial",
    "polyphase.block_process", "metrics.spectrum_report",
    "metrics.power_spectrum", "metrics.sinad", "metrics.spur_levels",
    "scenarios.apply_sweep_value", "experiments.run_scenario",
    "experiments.run_sweep")
SETUP_SELF_TIMES = ("capture_io.write_capture",)   # median over set-up runs
CALLS = ("sinefit.sine_fit_four_param", "filterbank.design",
         "polyphase.parallel_convolve_stream", "polyphase.parallel_convolve",
         "polyphase.convolve_serial", "polyphase.block_process",
         "metrics.spectrum_report", "experiments.run_scenario")
COUNTS = {"model.samples": "count", "sinefit.fit_samples": "count",
          "sinefit.gn_iterations": "count", "polyphase.macs": "count",
          "capture_io.bytes_read": "B"}


def import_package():
    """Import tiadc_cal from this checkout's src/, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "tiadc_cal", "__init__.py")):
        sys.exit(f"perfbench: no tiadc_cal package under {SRC}")
    sys.path.insert(0, SRC)
    import tiadc_cal
    if os.path.dirname(os.path.dirname(tiadc_cal.__file__)) != SRC:
        sys.exit(f"perfbench: imported {tiadc_cal.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median wall time of importing tiadc_cal in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import tiadc_cal; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_revision() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values):
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it. With too few samples for that, the lowest
    sample, the one with the most beyond it, so the value does not jump
    when one more operation fits in the run."""
    ordered, n = sorted(values), len(values)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def run_workload(name, seed, seconds, trace):
    """Set up, warm up and time one workload; return the result record."""
    import numpy
    import tiadc_cal
    from workloads import WORKLOADS

    t_import = import_seconds()
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else None   # trace is 0 or 1
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_times, setup_figures = [], []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.install()
                tracer.begin(f"setup-{rep}")
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            if tracer:
                setup_figures.append(tracer.end())
                tracer.uninstall()

        try:   # untimed: the first calls pay one-off costs
            warm_problems = workload.op().problems
        except Exception as exc:
            warm_problems = [f"{type(exc).__name__}: {exc}"]
        # Memory of one capture: read before the timed loop, because glibc's
        # heap keeps growing with the number of operations, and that number
        # grows as the program gets faster.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops = []
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            traced = tracer is not None and len(ops) % 2 == 0
            if traced:
                tracer.install()
                tracer.begin(f"op-{len(ops)}")
            start = time.perf_counter()
            try:
                result, error = workload.op(), None
            except Exception as exc:  # an operation failure is a data point
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            figures = None
            if traced:
                figures = tracer.end()
                tracer.uninstall()
            problems = [error] if error else result.problems
            ops.append({"seconds": elapsed, "traced": traced,
                        "samples": result.samples if result else 0,
                        "sinad_cal_db": result.sinad_cal_db if result else None,
                        "problems": problems, "figures": figures})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": git_revision(), "numpy": numpy.__version__,
        "tiadc_cal": tiadc_cal.__version__, "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "import_s": t_import, "setup_reps_s": setup_times,
        "warmup_problems": warm_problems,
        "ops": [{k: v for k, v in op.items() if k != "figures"} for op in ops],
    }
    record["end_to_end"] = end_to_end(ops, t_import, setup_times, peak_rss_mb)
    if trace:
        record["per_layer"] = per_layer(ops, setup_figures)
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    record.update(attempted=attempted, failed=failed,
                  correct=failed == 0 and not warm_problems)
    write_outputs(record, tracer)
    return record


def end_to_end(ops, t_import, setup_times, peak_rss_mb) -> dict:
    times = [op["seconds"] for op in ops]
    tail_s, tail_pct, beyond = tail(times)
    sinads = [op["sinad_cal_db"] for op in ops
              if op["sinad_cal_db"] is not None
              and math.isfinite(op["sinad_cal_db"])]
    return {
        "setup_s": (t_import + statistics.median(setup_times), "s"),
        "throughput_msps": (sum(op["samples"] for op in ops) / sum(times) / 1e6,
                            "MS/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms",
                       f"p{tail_pct:.1f} of {len(times)} ops, "
                       f"{beyond} beyond"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ops_failed_frac": (sum(1 for op in ops if op["problems"]) / len(ops),
                            "1"),
        "sinad_cal_db": (statistics.fmean(sinads) if sinads else 0.0, "dB"),
    }


def per_layer(ops, setup_figures) -> dict:
    traced = [op for op in ops if op["traced"]]
    figures = [op["figures"] for op in traced]

    def per_op(get):
        return statistics.median(get(f) for f in figures)

    def per_op_count(get):
        return statistics.median_low(get(f) for f in figures)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = (per_op(lambda f: sum(
            s for k, s in f["self_s"].items() if k.startswith(layer + "."))), "s")
        out[f"{layer}.errors"] = (per_op_count(lambda f: sum(
            e for k, e in f["errors"].items() if k.startswith(layer + "."))),
            "count")
    for name in SELF_TIMES:
        out[f"{name}.s"] = (per_op(lambda f: f["self_s"].get(name, 0.0)), "s")
    for name in SETUP_SELF_TIMES:
        out[f"{name}.s"] = (statistics.median(
            f["self_s"].get(name, 0.0) for f in setup_figures), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (per_op_count(
            lambda f: f["calls"].get(name, 0)), "count")
    for name, unit in COUNTS.items():
        out[name] = (per_op_count(lambda f: f["counts"].get(name, 0)), unit)
    out["trace.spans"] = (per_op_count(lambda f: f["spans"]), "count")
    plain = [op["seconds"] for op in ops if not op["traced"]]
    out["trace.overhead_ms"] = (
        1e3 * (statistics.median(op["seconds"] for op in traced)
               - statistics.median(plain)) if plain else 0.0, "ms")
    return out


def write_outputs(record, tracer) -> None:
    """Keep the run record, and the spans of a traced run, under out/."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        names = sorted({s[1] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = tracer.spans[0][2] if tracer.spans else 0.0
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["op", "name", "start_s", "end_s", "parent"],
                       "names": names,
                       "spans": [[op, index[n], round(a - t0, 9),
                                  round(b - t0, 9), p]
                                 for op, n, a, b, p in tracer.spans]}, fh)


def report(record) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [f"# {record['workload']}  seed {record['seed']}  "
             f"{record['seconds']} s  trace {record['trace']}",
             f"# git {record['git_revision']}  numpy {record['numpy']}  "
             f"python {record['python']}  {record['cpus']} CPUs "
             "(the program's polyphase pool runs 4 lanes)"]
    section = record["per_layer" if record["trace"] else "end_to_end"]
    for name, (value, unit, *note) in section.items():
        extra = f"  ({note[0]})" if note else ""
        lines.append(f"{name:<40} {value:>16.6g} {unit}{extra}")
    for problem in record["warmup_problems"]:
        lines.append(f"# warm-up failed: {problem}")
    for i, op in enumerate(record["ops"]):
        for problem in op["problems"]:
            lines.append(f"# op {i} failed: {problem}")
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, *_) in section.items()
                          if name not in PRINTED_ONLY}}
    return "\n".join(lines + [json.dumps(result)])


def run_all(args, names) -> int:
    """Run every workload in a process of its own (ru_maxrss is a lifetime
    maximum); exit nonzero if any run fails or reports incorrect output."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines \
                or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    print(report(run_workload(args.workload, args.seed, args.seconds,
                              args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
