"""Experiment scenarios: named built-ins plus a flat key-value config format.

A scenario bundles everything one run needs: converter geometry, test tone,
injected mismatches, corrector shape, coefficient mode, and record sizes.
Built-ins cover the standard demonstration set (see
BUILTIN_SCENARIOS); any of them can be dumped to a config file, edited, and
loaded back.

Config format: one `key = value` per line, `#` starts a comment, blank lines
ignored. Lists are comma-separated. Unknown keys are rejected, except
`parallel` and `block_len`: sidecars written by older versions still hold
these retired keys, and they are ignored. Keys and defaults are in DEFAULTS
below; `freq` is a nominal relative frequency that is snapped to the
nearest odd coherent bin of n_fft unless `coherent = false`. `phase = auto`
draws the tone phase from the scenario seed.

build_scenario makes every Scenario: a sweep point, a reseed or a CLI
override edits scenario_settings of an existing one and builds them again,
so each check on a config key holds for it too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .filterbank import FilterSpec
from .model import MismatchProfile, TiadcConfig, ToneSpec

MODE_TRUTH = "truth"  # design correctors from the injected profile
MODE_EST = "est"      # estimate mismatches from the data, blockwise

SWEEP_AXES = ("coeff_bits", "n_taps", "gain", "skew", "freq")
# integer sweep axes and the setting each one sets
_INT_AXES = {"coeff_bits": "coeff_bits", "n_taps": "taps"}


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
    "variant": "div",
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
    name = values["name"]
    # the config format would cut the name at '#' or a line break and
    # strip its edges, so scenario_to_text could not carry it; and simulate
    # names its files after it, which a path separator would move
    if (any(c in name for c in "#/\\") or name != name.strip()
            or len(name.splitlines()) > 1):
        raise ConfigError(f"scenario name {name!r} holds '#', '/', '\\', a "
                          "line break or edge whitespace, which a config file "
                          "or a file name cannot carry; add a 'name' key")
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
    # channel m's input peaks at (1 + |g_m|)(amplitude + |dc|) + |o_m|
    if max((1.0 + abs(g)) * (tone.amplitude + abs(tone.dc)) + abs(o)
           for g, o in zip(profile.gains, profile.offsets)) > config.full_scale:
        raise ConfigError("(1 + |gain|)(amplitude + |dc|) + |offset| exceeds "
                          "full_scale on a channel (would clip)")
    filter_spec = FilterSpec(n_taps=values["taps"],
                             coeff_bits=values["coeff_bits"],
                             variant=values["variant"])
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
            sweep_values = parse_value_list(sweep_values,
                                            integer=axis in _INT_AXES)
        if sweep_values is not None:
            sweep_values = tuple(sweep_values)
    elif sweep_values is not None:
        raise ConfigError("sweep_values given without sweep_axis")

    return Scenario(name=name, config=config, tone=tone,
                    profile=profile, filter_spec=filter_spec,
                    mode=mode, seed=values["seed"], n_samples=n_samples,
                    n_fft=n_fft, sweep_axis=axis, sweep_values=sweep_values)


def scenario_settings(scenario: Scenario) -> dict:
    """The DEFAULTS-schema settings that build_scenario turns back into
    this scenario. freq is already snapped, so coherent is False. A derived
    scenario is made by editing these settings and building them again."""
    s = scenario
    return {
        "name": s.name, "channels": s.config.n_channels, "bits": s.config.bits,
        "fs": s.config.fs, "full_scale": s.config.full_scale,
        "amplitude": s.tone.amplitude, "freq": s.tone.freq_rel,
        "coherent": False, "phase": s.tone.phase, "dc": s.tone.dc,
        "offsets": s.profile.offsets, "gains": s.profile.gains,
        "skews": s.profile.skews, "taps": s.filter_spec.n_taps,
        "coeff_bits": s.filter_spec.coeff_bits,
        "variant": s.filter_spec.variant, "mode": s.mode, "seed": s.seed,
        "n_samples": s.n_samples, "n_fft": s.n_fft,
        "sweep_axis": s.sweep_axis, "sweep_values": s.sweep_values,
    }


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize with all values resolved (reload gives the same scenario);
    the sweep keys are written only when set."""
    lines = []
    for key, value in scenario_settings(scenario).items():
        if value is None:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Rebuild with a new seed, re-drawing the tone phase from it."""
    return build_scenario(dict(scenario_settings(scenario), seed=seed,
                               phase="auto"))


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
    """Rebuild the scenario with one sweep-axis value substituted."""
    settings = scenario_settings(scenario)
    if axis in _INT_AXES:
        settings[_INT_AXES[axis]] = int(value)
    elif axis in ("gain", "skew"):
        M = scenario.config.n_channels
        settings[axis + "s"] = (0.0,) + (float(value),) * (M - 1)
    elif axis == "freq":
        settings.update(freq=float(value), coherent=True)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return build_scenario(settings)
