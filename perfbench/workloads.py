"""The benchmark's three workloads.

Each workload is a closed loop with one operation in flight. ``setup`` builds
the inputs from the benchmark seed and may be repeated; ``op`` runs one
operation and checks its outputs. The program only sees the generated
scenario or capture file, never the seed itself.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass, field, replace

from tiadc_cal import cli, experiments, scenarios


@dataclass
class OpResult:
    samples: int          # input samples the operation processed
    sinad_cal_db: float   # mean calibrated SINAD over the operation's outputs
    problems: list = field(default_factory=list)  # failed checks


def _seeded(name: str, seed: int):
    return scenarios.with_seed(scenarios.load_scenario(name), seed)


class CalibrateTruth8M:
    """Truth-coefficient CLI calibration of one 8M-sample fig6 capture."""

    name = "calibrate-truth-8m"
    why = ("large-file CLI path: capture read and whole-stream polyphase "
           "convolution of 8M samples, no sine fitting")
    n_samples = 8388608
    min_sinad_gain_db = 20.0
    stdout_prefixes = ("tone freq_rel = ", "SINAD uncalibrated = ",
                       "SINAD calibrated   = ", "largest image spur at ")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.capture = None

    def setup(self) -> None:
        """Write the scenario file and simulate the capture through the
        CLI, which also writes the capture's .cfg sidecar."""
        scenario = replace(_seeded("fig6", self.seed), n_samples=self.n_samples)
        config = os.path.join(self.workdir, "fig6_8m.cfg")
        with open(config, "w") as fh:
            fh.write(scenarios.scenario_to_text(scenario))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["simulate", "--config", config,
                             "--out", self.workdir])
        if code != 0:
            raise RuntimeError(f"simulate exited {code}: {out.getvalue()}")
        self.capture = os.path.join(self.workdir,
                                    f"{scenario.name}_capture.bin")

    def op(self) -> OpResult:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["calibrate", self.capture])
        lines = out.getvalue().splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        found = {}
        for prefix in self.stdout_prefixes:
            match = [ln for ln in lines if ln.startswith(prefix)]
            if match:
                found[prefix] = match[0][len(prefix):]
            else:
                problems.append(f"missing stdout line {prefix!r}")
        sinad_cal = math.nan
        if len(found) == len(self.stdout_prefixes):
            sinad_uncal = float(found[self.stdout_prefixes[1]].split()[0])
            sinad_cal = float(found[self.stdout_prefixes[2]].split()[0])
            if not sinad_cal >= sinad_uncal + self.min_sinad_gain_db:
                problems.append(f"SINAD {sinad_uncal} -> {sinad_cal} dB gains "
                                f"less than {self.min_sinad_gain_db} dB")
        return OpResult(self.n_samples, sinad_cal, problems)


class BackgroundEst5Ch:
    """Background (mode = est) calibration of the 5-channel fig7 scenario."""

    name = "background-est-5ch"
    why = ("background loop: tone detection, one sine fit per channel per "
           "block and blockwise convolution over 5 channels")
    n_samples = 2621440   # 128 estimation blocks of 4096 samples per channel
    tolerance = 5e-4      # acceptance C08, 12-bit data

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.scenario = None

    def setup(self) -> None:
        self.scenario = replace(_seeded("fig7", self.seed),
                                mode=scenarios.MODE_EST,
                                n_samples=self.n_samples)

    def op(self) -> OpResult:
        result = experiments.run_scenario(self.scenario)
        injected, estimate = self.scenario.profile, result.estimate
        problems = []
        for what in ("offsets", "gains", "skews"):
            err = max(abs(e - i) for e, i in zip(getattr(estimate, what),
                                                 getattr(injected, what)))
            if not err <= self.tolerance:
                problems.append(f"{what} off by {err:.3g} > {self.tolerance}")
        if not (math.isfinite(result.sinad_uncal_db)
                and math.isfinite(result.sinad_cal_db)):
            problems.append("non-finite SINAD")
        return OpResult(self.scenario.n_samples, result.sinad_cal_db, problems)


class FigSweeps:
    """The fig8 to fig12 sweeps: 47 points of 16k samples each."""

    name = "fig-sweeps"
    why = ("many small records: per-call cost of simulation, tap design, "
           "spectrum metrics and thread-pool start-up")
    figures = ("fig8", "fig9", "fig10", "fig11", "fig12")
    never_worse = ("fig11", "fig12")   # acceptance C06
    coeff_bits_ref, coeff_bits_min, coeff_bits_tol_db = 30, 24, 0.5  # C03

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.scenarios = ()

    def setup(self) -> None:
        self.scenarios = tuple(_seeded(name, self.seed) for name in self.figures)

    def op(self) -> OpResult:
        problems, sinads, samples = [], [], 0
        for scenario in self.scenarios:
            rows = experiments.run_sweep(scenario)
            samples += scenario.n_samples * len(scenario.sweep_values)
            if len(rows) != len(scenario.sweep_values):
                problems.append(f"{scenario.name}: {len(rows)} rows for "
                                f"{len(scenario.sweep_values)} values")
            for row in rows:
                sinads.append(row.sinad_cal_db)
                if not all(math.isfinite(v) for v in vars(row).values()):
                    problems.append(f"{scenario.name}: non-finite row {row}")
                if (scenario.name in self.never_worse
                        and not row.sinad_cal_db >= row.sinad_uncal_db):
                    problems.append(f"{scenario.name} {row.value:g}: calibration "
                                    "lowered SINAD")
            if scenario.name == "fig9":
                problems += self._check_coeff_bits(rows)
        return OpResult(samples, sum(sinads) / max(len(sinads), 1), problems)

    def _check_coeff_bits(self, rows) -> list:
        ref = [r.sinad_cal_db for r in rows if r.value == self.coeff_bits_ref]
        if len(ref) != 1:
            return [f"fig9: no single row at W = {self.coeff_bits_ref}"]
        return [f"fig9 W={r.value:g}: {r.sinad_cal_db:.2f} dB is more than "
                f"{self.coeff_bits_tol_db} dB from W={self.coeff_bits_ref}"
                for r in rows if r.value >= self.coeff_bits_min
                and not abs(r.sinad_cal_db - ref[0]) <= self.coeff_bits_tol_db]


WORKLOADS = {w.name: w for w in (CalibrateTruth8M, BackgroundEst5Ch, FigSweeps)}
