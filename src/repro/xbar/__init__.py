"""NVM crossbar stack: device physics → circuit → surrogate → simulator.

Layered exactly like the paper's methodology (§II-A, §III-A):

1. :mod:`repro.xbar.device`   — RRAM device model: discrete conductance
   levels in [1/R_OFF, 1/R_ON], programming variation, I-V nonlinearity.
2. :mod:`repro.xbar.circuit`  — sparse nodal analysis of the parasitic
   crossbar (R_source, R_sink, R_wire).  Stands in for the paper's
   HSPICE simulations.
3. :mod:`repro.xbar.geniex`   — the GENIEx surrogate: a 2-layer MLP
   trained on circuit-solver data that predicts non-ideal column
   currents from (V, G).
4. :mod:`repro.xbar.simulator` — PUMA-style functional simulator:
   iterative MVM, weight tiling (:mod:`repro.xbar.tiling`), bit-slicing
   (:mod:`repro.xbar.bitslice`), ADC quantization (:mod:`repro.xbar.adc`);
   drop-in non-ideal replacements for Conv2d/Linear.
5. :mod:`repro.xbar.presets`  — the paper's three crossbar models
   (Table I) and :mod:`repro.xbar.nf` the Non-ideality Factor metric.
"""

from repro.xbar.device import DeviceConfig, RRAMDevice
from repro.xbar.circuit import CircuitConfig, CrossbarCircuit
from repro.xbar.adc import ADCConfig, quantize_current
from repro.xbar.bitslice import BitSliceConfig, slice_weights, stream_inputs
from repro.xbar.tiling import tile_matrix, TiledMatrix
from repro.xbar.geniex import GENIEx, GENIExTrainer, GENIExDatasetBuilder
from repro.xbar.drift import DriftConfig, DriftModel, with_drift
from repro.xbar.faults import (
    FaultConfig,
    FaultModel,
    FaultSummary,
    GuardConfig,
    TileHealthError,
    with_faults,
    with_guard,
)
from repro.xbar.nf import non_ideality_factor
from repro.xbar.presets import (
    CROSSBAR_PRESETS,
    CrossbarConfig,
    crossbar_preset,
    preset_names,
)
from repro.xbar.simulator import (
    CircuitPredictor,
    CrossbarEngine,
    IdealPredictor,
    NonIdealConv2d,
    NonIdealLinear,
    convert_to_hardware,
    build_engine,
    calibrate_hardware,
    fault_summary,
    guard_trips,
)
from repro.xbar.engine_cache import (
    ENGINE_CACHE,
    EngineCache,
    clear_engine_cache,
    engine_key,
)
from repro.xbar.perf import PerfCounters, PerfReport, format_perf, perf_report, reset_perf
from repro.xbar.noise import GaussianNoiseModel, calibrated_noise_model
from repro.xbar.quant import QuantConfig, quantize_affine, with_quant

__all__ = [
    "DeviceConfig",
    "RRAMDevice",
    "CircuitConfig",
    "CrossbarCircuit",
    "ADCConfig",
    "quantize_current",
    "BitSliceConfig",
    "slice_weights",
    "stream_inputs",
    "tile_matrix",
    "TiledMatrix",
    "GENIEx",
    "GENIExTrainer",
    "GENIExDatasetBuilder",
    "non_ideality_factor",
    "CrossbarConfig",
    "CROSSBAR_PRESETS",
    "crossbar_preset",
    "preset_names",
    "CrossbarEngine",
    "IdealPredictor",
    "CircuitPredictor",
    "NonIdealConv2d",
    "NonIdealLinear",
    "convert_to_hardware",
    "build_engine",
    "calibrate_hardware",
    "fault_summary",
    "guard_trips",
    "EngineCache",
    "ENGINE_CACHE",
    "engine_key",
    "clear_engine_cache",
    "PerfCounters",
    "PerfReport",
    "perf_report",
    "reset_perf",
    "format_perf",
    "DriftConfig",
    "DriftModel",
    "with_drift",
    "FaultConfig",
    "FaultModel",
    "FaultSummary",
    "GuardConfig",
    "TileHealthError",
    "with_faults",
    "with_guard",
    "GaussianNoiseModel",
    "calibrated_noise_model",
    "QuantConfig",
    "quantize_affine",
    "with_quant",
]
