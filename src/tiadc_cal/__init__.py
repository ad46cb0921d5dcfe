"""Time-interleaved ADC mismatch simulation, estimation, and FIR calibration.

Layered API, bottom up:

    model       the M-channel converter with offset/gain/skew mismatches
    sinefit     tone detection, one shared-frequency solve per block, mismatches
    filterbank  first-order FIR correctors, fixed-point rules, calibration
    polyphase   exact serial integer convolution; the parallel-lane hardware model
    metrics     spectra, SINAD/ENOB, mismatch-spur tables
    capture_io  binary capture-file reader/writer
    scenarios   named experiment configurations + config file format
    experiments the calibrate-and-measure step, scenario/sweep runners
    cli         the tiadc-cal command
"""

from .errors import (ConfigError, ConvergenceError, CoherenceError,
                     DataFormatError, DegenerateFitError, NumericError,
                     PhaseAmbiguityError, ShapeError, TapOverflowError,
                     TiadcError)
from .model import (ChannelCapture, MismatchProfile, TiadcConfig, ToneSpec,
                    dequantize_stream, interleave_channels, quantize_stream,
                    sample_channels, simulate_capture, simulate_chunks)
from .sinefit import (SineFitResult, alias_to_subrate, derive_mismatches,
                      detect_tone_freq, estimate_batches, estimate_blocks,
                      estimate_from_capture, sine_fit_four_param)
from .filterbank import (FilterBank, FilterSpec, calibrate_capture,
                         design_banks, design_taps, filter_frequency_response,
                         ideal_frequency_response, quantize_taps, tap_indices)
from .polyphase import (BlockConvolver, convolve_serial, decompose,
                        parallel_convolve, parallel_convolve_stream,
                        recompose)
from .metrics import (SpectrumReport, SpurLevel, enob, fold_frequency,
                      power_spectrum, sinad, spectrum_report, spur_levels,
                      worst_image_spur)
from .capture_io import (CaptureFile, open_capture, read_capture,
                         write_capture, write_chunks)
from .scenarios import (BUILTIN_SCENARIOS, Scenario, coherent_freq,
                        load_scenario, parse_scenario_text, scenario_to_text,
                        with_seed)
from .experiments import (ScenarioResult, SweepRow, calibrate_scenario,
                          run_scenario, run_sweep, simulate_scenario)

__version__ = "0.1.0"
