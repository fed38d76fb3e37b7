"""The paper's three crossbar models (Table I) and their plumbing.

| Crossbar Model | Size   | R_ON   | NF (paper) |
|----------------|--------|--------|------------|
| 64x64_300k     | 64x64  | 300 kΩ | 0.07       |
| 32x32_100k     | 32x32  | 100 kΩ | 0.14       |
| 64x64_100k     | 64x64  | 100 kΩ | 0.26       |

All three share one interconnect technology (same parasitics); they
differ only in array size and ON resistance, exactly as in the paper.
The parasitic values below were calibrated once against the circuit
solver so the measured NF ordering and rough magnitudes match Table I
(see ``benchmarks/bench_01_table1_nf.py`` for the regeneration).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.xbar.adc import ADCConfig
from repro.xbar.bitslice import BitSliceConfig
from repro.xbar.circuit import CircuitConfig
from repro.xbar.device import DeviceConfig
from repro.xbar.drift import DriftConfig
from repro.xbar.faults import FaultConfig, GuardConfig
from repro.xbar.geniex import GENIEx, GENIExTrainConfig, GENIExTrainer
from repro.xbar.quant import QuantConfig

logger = logging.getLogger(__name__)

#: Shared interconnect/periphery technology for all Table-I models.
#: Calibrated so the circuit-solver NF lands near Table I:
#: measured 0.090 / 0.118 / 0.223 vs paper 0.07 / 0.14 / 0.26
#: (ordering and spread preserved; see EXPERIMENTS.md, Table 1).
_SHARED_PARASITICS = {
    "r_source": 350.0,
    "r_sink": 350.0,
    "r_wire": 4.0,
}


@dataclass(frozen=True)
class CrossbarConfig:
    """Complete description of one crossbar hardware variant.

    ``gain_calibration`` is the number of random vectors used to fit the
    per-layer digital output gain at programming time (the periphery's
    ADC-code-to-partial-sum multiplier).  This mirrors standard analog
    accelerator bring-up: the *systematic* scale loss from IR drop is
    absorbed into the digital scale, while the input-dependent,
    column-dependent deviations — the source of the paper's intrinsic
    robustness — remain.  0 disables calibration.

    ``faults`` describes the chip's device/line fault population (all
    off by default; see :mod:`repro.xbar.faults`) and ``guard`` the
    engine's graceful-degradation policy for sick analog tiles.
    ``drift`` adds the time axis — conductance decay driven by the
    engine's accumulated read-pulse counter (off by default; see
    :mod:`repro.xbar.drift`).  ``quant`` selects the integer-quantized
    inference mode — static per-layer input scales and the pulse-
    expansion integer MVM path (off by default; see
    :mod:`repro.xbar.quant`).  None of the four enters
    :meth:`cache_key`: the GENIEx surrogate models the parasitic
    circuit, which is independent of which cells are faulted, how old
    the chip is, or how inputs are quantized.
    """

    name: str
    device: DeviceConfig
    circuit: CircuitConfig
    bitslice: BitSliceConfig = field(default_factory=BitSliceConfig)
    adc: ADCConfig = field(default_factory=ADCConfig)
    nf_paper: float | None = None  # Table I reference value
    gain_calibration: int = 32
    faults: FaultConfig = field(default_factory=FaultConfig)
    guard: GuardConfig = field(default_factory=GuardConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    quant: QuantConfig = field(default_factory=QuantConfig)

    @property
    def rows(self) -> int:
        return self.circuit.rows

    @property
    def cols(self) -> int:
        return self.circuit.cols

    def cache_key(self) -> str:
        """Stable hash of everything that affects GENIEx training."""
        payload = json.dumps(
            {
                "device": self.device.__dict__,
                "circuit": self.circuit.__dict__,
            },
            sort_keys=True,
            default=str,
        )
        return f"{self.name}-{hashlib.sha256(payload.encode()).hexdigest()[:12]}"


def _make_preset(name: str, size: int, r_on: float, nf_paper: float) -> CrossbarConfig:
    device = DeviceConfig(
        r_on=r_on,
        on_off_ratio=50.0,
        levels_bits=2,
        program_sigma=0.0,
        iv_beta=0.25,
        v_read=0.25,
    )
    circuit = CircuitConfig(
        rows=size,
        cols=size,
        nonlinear_iterations=2,
        **_SHARED_PARASITICS,
    )
    return CrossbarConfig(
        name=name,
        device=device,
        circuit=circuit,
        bitslice=BitSliceConfig(input_bits=8, stream_bits=4, weight_bits=6, slice_bits=2),
        adc=ADCConfig(bits=8, full_scale_fraction=0.25),
        nf_paper=nf_paper,
    )


CROSSBAR_PRESETS: dict[str, CrossbarConfig] = {
    "64x64_300k": _make_preset("64x64_300k", 64, 300e3, 0.07),
    "32x32_100k": _make_preset("32x32_100k", 32, 100e3, 0.14),
    "64x64_100k": _make_preset("64x64_100k", 64, 100e3, 0.26),
}


def preset_names() -> list[str]:
    """Preset names ordered by paper NF (least to most non-ideal)."""
    return ["64x64_300k", "32x32_100k", "64x64_100k"]


def crossbar_preset(name: str) -> CrossbarConfig:
    if name not in CROSSBAR_PRESETS:
        raise KeyError(f"unknown crossbar preset {name!r}; available: {preset_names()}")
    return CROSSBAR_PRESETS[name]


def with_overrides(config: CrossbarConfig, **kwargs) -> CrossbarConfig:
    """Derive a variant config (used by ablation benchmarks)."""
    return replace(config, **kwargs)


def load_or_train_geniex(
    config: CrossbarConfig,
    cache_dir: Path | None = None,
    train_config: GENIExTrainConfig | None = None,
    verbose: bool = False,
) -> GENIEx:
    """GENIEx surrogate for a preset, cached on disk per configuration."""
    from repro.train.zoo import artifacts_dir  # local import to avoid cycle

    cache_dir = cache_dir or artifacts_dir()
    train_config = train_config or GENIExTrainConfig()
    train_tag = f"h{train_config.hidden}-m{train_config.num_matrices}-e{train_config.epochs}"
    path = cache_dir / f"geniex-{config.cache_key()}-{train_tag}.npz"
    if path.exists():
        # Graceful degradation: a corrupt/truncated surrogate cache must
        # not brick every hardware experiment — retrain and overwrite.
        try:
            return GENIEx.load(path)
        except Exception as exc:
            logger.warning(
                "cached GENIEx surrogate %s is unreadable (%s: %s); retraining",
                path.name,
                type(exc).__name__,
                exc,
            )
    trainer = GENIExTrainer(config.circuit, config.device, train_config)
    model = trainer.train(verbose=verbose)
    model.save(path)
    return model
