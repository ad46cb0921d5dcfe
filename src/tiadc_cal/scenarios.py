"""Experiment scenarios: named built-ins plus a flat key-value config format.

A scenario bundles everything one run needs: converter geometry, test tone,
injected mismatches, corrector shape, coefficient mode, and record sizes.
Every scenario corrects with the full-rate filter bank (see filterbank);
the paper's sub-rate bank stays available to library callers through
FilterSpec.structure. Built-ins cover the standard demonstration set (see
BUILTIN_SCENARIOS); any of them can be dumped to a config file, edited, and
loaded back.

Config format: one `key = value` per line, `#` starts a comment, blank lines
ignored. Lists are comma-separated. Unknown keys are rejected, except
`parallel` and `block_len`: sidecars written by older versions still hold
these retired keys, and they are ignored. Keys and defaults are in DEFAULTS
below; `freq` is a nominal relative frequency that is snapped to the
nearest odd coherent bin of n_fft unless `coherent = false`. `phase = auto`
draws the tone phase from the scenario seed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .filterbank import FULLRATE, FilterSpec
from .model import MismatchProfile, TiadcConfig, ToneSpec

MODE_TRUTH = "truth"  # design correctors from the injected profile
MODE_EST = "est"      # estimate mismatches from the data, blockwise

SWEEP_AXES = ("coeff_bits", "n_taps", "gain", "skew", "freq")


@dataclass(frozen=True)
class Scenario:
    """One fully resolved experiment description."""

    name: str
    config: TiadcConfig
    tone: ToneSpec
    profile: MismatchProfile
    filter_spec: FilterSpec
    mode: str
    seed: int
    n_samples: int
    n_fft: int
    sweep_axis: str = None
    sweep_values: tuple = None


def coherent_freq(nominal: float, n_fft: int) -> float:
    """Snap to the nearest odd-numbered DFT bin (odd J is coprime to the
    power-of-two n_fft, guaranteeing a full coherent cycle pattern)."""
    if not 0.0 < nominal < 0.5:
        raise ConfigError(f"nominal frequency must be in (0, 0.5), got {nominal}")
    x = nominal * n_fft
    j = int(round(x))
    if j % 2 == 0:
        j = j - 1 if x < j else j + 1
        if j < 1:
            j = 1
    j = min(max(j, 1), n_fft // 2 - 1)
    return j / n_fft


DEFAULTS = {
    "name": "custom",
    "channels": 2,
    "bits": 12,
    "fs": 1.0,
    "full_scale": 1.0,
    "amplitude": 0.9,
    "freq": 0.019,
    "coherent": True,
    "phase": "auto",
    "dc": 0.0,
    "offsets": None,   # None -> zeros
    "gains": None,
    "skews": None,
    "taps": 30,
    "coeff_bits": 30,
    "variant": "sub",
    "mode": MODE_TRUTH,
    "seed": 12345,
    "n_samples": None,  # None -> 8192 * channels
    "n_fft": 4096,
    "sweep_axis": None,
    "sweep_values": None,
}

# polyphase lane count and block length: no computation reads them any more
_RETIRED_KEYS = {"parallel", "block_len"}

_INT_KEYS = {"channels", "bits", "taps", "coeff_bits", "seed", "n_samples",
             "n_fft"}
_FLOAT_KEYS = {"fs", "full_scale", "amplitude", "freq", "dc"}
_LIST_KEYS = {"offsets", "gains", "skews"}


def parse_value_list(text: str, integer: bool = False) -> tuple:
    """Parse `a,b,c` or an inclusive integer range `a:b`."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad range {text!r}: {exc}") from None
        if hi_i < lo_i:
            raise ConfigError(f"range {text!r} is descending")
        return tuple(range(lo_i, hi_i + 1))
    try:
        if integer:
            return tuple(int(v) for v in text.split(","))
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value list {text!r}: {exc}") from None


def parse_scenario_text(text: str, fallback_name: str = "custom") -> Scenario:
    """Parse the flat key-value config format into a Scenario."""
    values = dict(DEFAULTS)
    values["name"] = fallback_name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _RETIRED_KEYS:
            continue
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _LIST_KEYS:
                values[key] = parse_value_list(val)
            elif key == "coherent":
                if val.lower() not in ("true", "false"):
                    raise ConfigError(f"coherent must be true/false, got {val!r}")
                values[key] = val.lower() == "true"
            elif key == "phase":
                values[key] = "auto" if val == "auto" else float(val)
            elif key == "sweep_values":
                values[key] = val  # axis-dependent; parsed in build_scenario
            else:
                values[key] = val
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return build_scenario(values)


def _phase_from_seed(seed: int) -> float:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return float(np.random.default_rng(seed).uniform(-math.pi, math.pi))


def build_scenario(values: dict) -> Scenario:
    """Resolve a raw value dict (DEFAULTS schema) into a Scenario."""
    M = values["channels"]
    config = TiadcConfig(n_channels=M, fs=values["fs"], bits=values["bits"],
                         full_scale=values["full_scale"])
    n_fft = values["n_fft"]
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ConfigError(f"n_fft must be a power of two >= 2, got {n_fft}")
    freq = values["freq"]
    if values["coherent"]:
        freq = coherent_freq(freq, n_fft)
    phase = values["phase"]
    if phase == "auto":
        phase = _phase_from_seed(values["seed"])
    tone = ToneSpec(amplitude=values["amplitude"], freq_rel=freq,
                    phase=phase, dc=values["dc"])

    def vector(key):
        v = values[key]
        if v is None:
            return (0.0,) * M
        if len(v) != M:
            raise ConfigError(f"{key} has {len(v)} entries for {M} channels")
        return tuple(v)

    profile = MismatchProfile(offsets=vector("offsets"), gains=vector("gains"),
                              skews=vector("skews"))
    if (tone.amplitude + abs(tone.dc) + max(map(abs, profile.offsets))
            > config.full_scale):
        raise ConfigError("amplitude + |dc| + largest |offset| exceeds "
                          "full_scale (would clip)")
    filter_spec = FilterSpec(n_taps=values["taps"],
                             coeff_bits=values["coeff_bits"],
                             variant=values["variant"], structure=FULLRATE)
    mode = values["mode"]
    if mode not in (MODE_TRUTH, MODE_EST):
        raise ConfigError(f"mode must be 'truth' or 'est', got {mode!r}")
    n_samples = values["n_samples"]
    if n_samples is None:
        n_samples = 8192 * M
    if n_samples % M:
        raise ConfigError(f"n_samples {n_samples} not divisible by {M} channels")
    if n_samples < n_fft:
        raise ConfigError(f"n_samples {n_samples} < n_fft {n_fft}")

    axis = values["sweep_axis"]
    sweep_values = values["sweep_values"]
    if axis is not None:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {axis!r}")
        if isinstance(sweep_values, str):
            sweep_values = parse_value_list(
                sweep_values, integer=axis in ("coeff_bits", "n_taps"))
        if sweep_values is not None:
            sweep_values = tuple(sweep_values)
    elif sweep_values is not None:
        raise ConfigError("sweep_values given without sweep_axis")

    return Scenario(name=values["name"], config=config, tone=tone,
                    profile=profile, filter_spec=filter_spec,
                    mode=mode, seed=values["seed"], n_samples=n_samples,
                    n_fft=n_fft, sweep_axis=axis, sweep_values=sweep_values)


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize with all values resolved (reload gives the same scenario)."""
    s = scenario
    lines = [
        f"name = {s.name}",
        f"channels = {s.config.n_channels}",
        f"bits = {s.config.bits}",
        f"fs = {s.config.fs!r}",
        f"full_scale = {s.config.full_scale!r}",
        f"amplitude = {s.tone.amplitude!r}",
        f"freq = {s.tone.freq_rel!r}",
        "coherent = false",  # freq above is already exact
        f"phase = {s.tone.phase!r}",
        f"dc = {s.tone.dc!r}",
        "offsets = " + ",".join(repr(v) for v in s.profile.offsets),
        "gains = " + ",".join(repr(v) for v in s.profile.gains),
        "skews = " + ",".join(repr(v) for v in s.profile.skews),
        f"taps = {s.filter_spec.n_taps}",
        f"coeff_bits = {s.filter_spec.coeff_bits}",
        f"variant = {s.filter_spec.variant}",
        f"mode = {s.mode}",
        f"seed = {s.seed}",
        f"n_samples = {s.n_samples}",
        f"n_fft = {s.n_fft}",
    ]
    if s.sweep_axis is not None:
        lines.append(f"sweep_axis = {s.sweep_axis}")
        if s.sweep_values is not None:
            lines.append("sweep_values = " + ",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in s.sweep_values))
    return "\n".join(lines) + "\n"


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Clone with a new seed, re-drawing the tone phase from it."""
    return replace(scenario, seed=seed,
                   tone=replace(scenario.tone, phase=_phase_from_seed(seed)))


def _builtin(name, **overrides) -> Scenario:
    values = dict(DEFAULTS)
    values["name"] = name
    values.update(overrides)
    return build_scenario(values)


_MISMATCH_SWEEP = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05)


def _make_fig6():
    return _builtin("fig6", gains=(0.0, 0.01), skews=(0.0, 0.01),
                    seed=2206, n_samples=16384)


def _make_fig7():
    return _builtin("fig7", channels=5,
                    gains=(0.0, 0.01, -0.01, 0.02, -0.02),
                    skews=(0.0, 0.01, 0.02, -0.01, -0.02),
                    seed=2207, n_samples=20480)


def _make_fig8():
    return _builtin("fig8", gains=(0.0, 0.01), skews=(0.0, 0.01),
                    seed=2208, n_samples=16384,
                    sweep_axis="freq",
                    sweep_values=(0.019, 0.133, 0.266, 0.399))


def _make_fig9():
    return _builtin("fig9", gains=(0.0, 0.01), skews=(0.0, 0.01),
                    seed=2209, n_samples=16384,
                    sweep_axis="coeff_bits", sweep_values=tuple(range(12, 31)))


def _make_fig10():
    return _builtin("fig10", gains=(0.0, 0.01), skews=(0.0, 0.02),
                    seed=2210, n_samples=16384,
                    sweep_axis="n_taps",
                    sweep_values=(2, 6, 10, 14, 18, 22, 30, 38, 46, 62))


def _make_fig11():
    return _builtin("fig11", freq=0.46, gains=(0.0, 0.01),
                    seed=2211, n_samples=16384,
                    sweep_axis="gain", sweep_values=_MISMATCH_SWEEP)


def _make_fig12():
    return _builtin("fig12", freq=0.19, skews=(0.0, 0.01),
                    seed=2212, n_samples=16384,
                    sweep_axis="skew", sweep_values=_MISMATCH_SWEEP)


def _make_zero():
    return _builtin("zero", seed=2200, n_samples=16384)


def _make_ideal():
    return _builtin("ideal", amplitude=1.0, seed=2201, n_samples=16384)


BUILTIN_SCENARIOS = {
    "fig6": _make_fig6,
    "fig7": _make_fig7,
    "fig8": _make_fig8,
    "fig9": _make_fig9,
    "fig10": _make_fig10,
    "fig11": _make_fig11,
    "fig12": _make_fig12,
    "zero": _make_zero,
    "ideal": _make_ideal,
}


def load_scenario(source: str) -> Scenario:
    """Load a builtin by name, or parse a config file path."""
    if source in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[source]()
    try:
        with open(source, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(
            f"{source!r} is neither a builtin scenario "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor a readable file: "
            f"{exc}") from None
    stem = source.rsplit("/", 1)[-1]
    stem = stem.rsplit(".", 1)[0] if "." in stem else stem
    return parse_scenario_text(text, fallback_name=stem)


def apply_sweep_value(scenario: Scenario, axis: str, value) -> Scenario:
    """Clone the scenario with one sweep-axis value substituted."""
    s = scenario
    if axis == "coeff_bits":
        return replace(s, filter_spec=replace(s.filter_spec, coeff_bits=int(value)))
    if axis == "n_taps":
        return replace(s, filter_spec=replace(s.filter_spec, n_taps=int(value)))
    if axis == "gain":
        M = s.config.n_channels
        profile = MismatchProfile(offsets=s.profile.offsets,
                                  gains=(0.0,) + (float(value),) * (M - 1),
                                  skews=s.profile.skews)
        return replace(s, profile=profile)
    if axis == "skew":
        M = s.config.n_channels
        profile = MismatchProfile(offsets=s.profile.offsets,
                                  gains=s.profile.gains,
                                  skews=(0.0,) + (float(value),) * (M - 1))
        return replace(s, profile=profile)
    if axis == "freq":
        freq = coherent_freq(float(value), s.n_fft)
        return replace(s, tone=replace(s.tone, freq_rel=freq))
    raise ConfigError(f"unknown sweep axis {axis!r}")
