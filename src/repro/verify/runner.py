"""Execute the verification catalog and emit a conformance report.

``run_verification`` is the engine behind ``python -m repro verify``
and ``scripts/verify_numerics.py``: it walks a deterministic check
matrix — tiny crossbar configurations x predictor backends x the
differential/metamorphic checks of :mod:`repro.verify.invariants` —
records one :class:`~repro.verify.report.CheckResult` per check, and
writes the JSON conformance report into ``artifacts/``.

The matrix is seeded, hypothesis-free and sized to finish in well under
two minutes; CI runs it twice, with compiled kernels enabled and
disabled (``REPRO_XBAR_CKERNELS``), so both implementations of every
fused path are held to the same oracle.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.verify import invariants as inv
from repro.verify.report import CheckResult, ConformanceReport
from repro.xbar import _ckernels
from repro.xbar.adc import ADCConfig
from repro.xbar.bitslice import BitSliceConfig
from repro.xbar.circuit import CircuitConfig
from repro.xbar.device import DeviceConfig
from repro.xbar.faults import FaultConfig, GuardConfig, with_faults, with_guard
from repro.xbar.geniex import GENIExTrainConfig, GENIExTrainer
from repro.xbar.presets import CrossbarConfig
from repro.xbar.quant import QuantConfig, with_quant
from repro.xbar.simulator import CircuitPredictor, IdealPredictor


def tiny_config(
    rows: int = 8,
    cols: int = 8,
    adc_bits: int | None = None,
    gain_calibration: int = 8,
    program_sigma: float = 0.0,
    guard: GuardConfig | None = None,
    r_on: float = 100e3,
) -> CrossbarConfig:
    """A small crossbar variant cheap enough for oracle evaluation."""
    return CrossbarConfig(
        name=f"verify_{rows}x{cols}",
        device=DeviceConfig(
            r_on=r_on,
            on_off_ratio=50.0,
            levels_bits=2,
            program_sigma=program_sigma,
            iv_beta=0.25,
            v_read=0.25,
        ),
        circuit=CircuitConfig(
            rows=rows, cols=cols, r_source=350.0, r_sink=350.0, r_wire=4.0,
            nonlinear_iterations=2,
        ),
        bitslice=BitSliceConfig(input_bits=4, stream_bits=2, weight_bits=4, slice_bits=2),
        adc=ADCConfig(bits=adc_bits),
        gain_calibration=gain_calibration,
        guard=guard or GuardConfig(mode="off"),
    )


def _cases(rng: np.random.Generator, in_features: int = 19, out_features: int = 13):
    """One deterministic multi-tile weight/input pair per run."""
    weight = rng.normal(size=(out_features, in_features)).astype(np.float32)
    weight *= rng.random(weight.shape) < 0.6
    weight[rng.random(out_features) < 0.25] = 0.0
    x = rng.random((4, in_features)) - 0.5
    x[1] = 0.0
    x[2] *= 0.03  # vanishes in high-significance streams -> partial compaction
    return weight, x


def _train_tiny_geniex(config: CrossbarConfig, seed: int):
    return GENIExTrainer(
        config.circuit,
        config.device,
        GENIExTrainConfig(
            hidden=16, num_matrices=20, vectors_per_matrix=5, epochs=12, seed=seed
        ),
    ).train()


def _catalog(
    seed: int, quick: bool
) -> Iterator[tuple[str, Callable[[], None]]]:
    """Yield (name, check) pairs; checks raise on violation."""
    rng = np.random.default_rng(seed)
    weight, x = _cases(rng)
    base = tiny_config()
    variants: list[tuple[str, CrossbarConfig]] = [
        ("adc_off", base),
        ("adc4_nogain", tiny_config(adc_bits=4, gain_calibration=0)),
    ]
    if not quick:
        variants += [
            ("adc6_sigma", tiny_config(adc_bits=6, program_sigma=0.05)),
            ("ragged_6x4", tiny_config(rows=6, cols=4, adc_bits=6, r_on=300e3)),
        ]

    # A 12-bit ADC resolves the GENIEx surrogate's V=0 response into
    # nonzero codes, so int8 checks on it see any current an undriven
    # row would wrongly draw (at 6 bits it rounds to code 0).
    int8_fine_adc = with_quant(tiny_config(adc_bits=12), QuantConfig(mode="int8"))

    predictors: list[tuple[str, object]] = [("ideal", IdealPredictor())]
    if not quick:
        predictors.append(("circuit", CircuitPredictor(base)))
        predictors.append(("geniex", _train_tiny_geniex(base, seed=7)))

    for pname, predictor in predictors:
        for cname, config in variants:
            if pname == "circuit" and cname != "adc_off":
                continue  # the solver is slow; one differential pass suffices
            if pname == "geniex" and config.rows != base.rows:
                continue  # the surrogate is trained for one row count
            tag = f"differential/{pname}/{cname}"
            yield (
                f"{tag}/kernels_vs_oracle",
                lambda c=config, p=predictor: inv.check_kernels_match_oracle(
                    weight, c, p, x, seed=seed
                ),
            )
        config = base
        yield (
            f"metamorphic/{pname}/row_independence",
            lambda p=predictor: inv.check_compaction_row_independence(
                weight, config, p, x
            ),
        )
        yield (
            f"metamorphic/{pname}/zero_drive",
            lambda p=predictor: inv.check_dense_vs_zero_row_batch(weight, config, p, x),
        )
        yield (
            f"metamorphic/{pname}/zero_drive_int8",
            lambda p=predictor: inv.check_dense_vs_zero_row_batch(
                weight, int8_fine_adc, p, x
            ),
        )
        yield (
            f"metamorphic/{pname}/pow2_scaling",
            lambda p=predictor: inv.check_power_of_two_scaling(weight, config, p, x),
        )
        yield (
            f"metamorphic/{pname}/zero_weight",
            lambda p=predictor: inv.check_zero_weight_zero_output(config, p, x),
        )
        yield (
            f"metamorphic/{pname}/faultfree_identity",
            lambda p=predictor: inv.check_faultfree_faults_identity(
                weight, config, p, x
            ),
        )
        yield (
            f"metamorphic/{pname}/empty_batch",
            lambda p=predictor: inv.check_empty_batch(weight, config, p),
        )
        yield (
            f"differential/{pname}/cache_warm_cold",
            lambda p=predictor: inv.check_cache_warm_cold(weight, config, p, x),
        )

    # Fault-injection and guard-tripping differentials (construction
    # randomness and the degraded paths must match the oracle too).
    faults = FaultConfig(
        stuck_at_gmin_rate=0.1, stuck_at_gmax_rate=0.05,
        dead_row_rate=0.1, dead_col_rate=0.1,
        drift_time=1e3, drift_sigma=0.1, seed=seed % 2**16,
    )
    faulted = with_faults(tiny_config(adc_bits=6, program_sigma=0.05), faults)
    yield (
        "differential/ideal/faulted/kernels_vs_oracle",
        lambda: inv.check_kernels_match_oracle(
            weight, faulted, IdealPredictor(), x, seed=seed + 1
        ),
    )
    tripping = with_guard(
        tiny_config(adc_bits=4, gain_calibration=0),
        GuardConfig(mode="fallback", saturation_factor=1e-4),
    )
    yield (
        "differential/ideal/guard_fallback/kernels_vs_oracle",
        lambda: inv.check_kernels_match_oracle(
            weight, tripping, IdealPredictor(), np.abs(x) * 5.0, seed=seed
        ),
    )

    # Quantized-mode differentials and invariants (see repro.xbar.quant):
    # the integer pulse-expansion path against the naive quantized
    # oracle, plus its structural properties.
    int8 = with_quant(tiny_config(adc_bits=6), QuantConfig(mode="int8"))
    quant_variants: list[tuple[str, CrossbarConfig]] = [("int8", int8)]
    if not quick:
        quant_variants += [
            (
                "int6_planes2_sigma",
                with_quant(
                    tiny_config(adc_bits=6, program_sigma=0.05),
                    QuantConfig(mode="int8", input_bits=6, stream_bits=2),
                ),
            ),
        ]
    quant_predictors: list[tuple[str, object]] = [("ideal", IdealPredictor())]
    if not quick:
        quant_predictors.append(("geniex", _train_tiny_geniex(base, seed=7)))
    for pname, predictor in quant_predictors:
        for cname, config in quant_variants:
            yield (
                f"differential/{pname}/quant_{cname}/kernels_vs_oracle",
                lambda c=config, p=predictor: inv.check_quant_kernels_match_oracle(
                    weight, c, p, x, seed=seed
                ),
            )
        yield (
            f"metamorphic/{pname}/quant_batch_independence",
            lambda p=predictor: inv.check_quant_batch_independence(
                weight, int8, p, x
            ),
        )
        yield (
            f"metamorphic/{pname}/quant_float_fallback",
            lambda p=predictor: inv.check_quant_float_fallback(weight, int8, p, x),
        )
    quant_faulted = with_quant(faulted, QuantConfig(mode="int8"))
    yield (
        "differential/ideal/quant_faulted/kernels_vs_oracle",
        lambda: inv.check_quant_kernels_match_oracle(
            weight, quant_faulted, IdealPredictor(), x, seed=seed + 1
        ),
    )
    quant_tripping = with_quant(tripping, QuantConfig(mode="int8"))
    yield (
        "differential/ideal/quant_guard_fallback/kernels_vs_oracle",
        lambda: inv.check_quant_kernels_match_oracle(
            weight, quant_tripping, IdealPredictor(), np.abs(x) * 5.0, seed=seed
        ),
    )
    yield (
        "metamorphic/ideal/quant_zero_and_empty",
        lambda: inv.check_quant_zero_and_empty(weight, int8, IdealPredictor()),
    )
    yield (
        "contract/quant_requires_adc",
        lambda: inv.check_quant_requires_adc(weight, IdealPredictor()),
    )
    yield ("metamorphic/quant_scale_round_trip", inv.check_quant_scale_round_trip)
    yield ("metamorphic/quant_plane_reassembly", inv.check_plane_reassembly)
    yield (
        "semantic/quant_float_error_bound",
        lambda: inv.check_quant_float_error_bound(weight, x),
    )

    # Structural metamorphic checks on the ideal backend.
    yield (
        "metamorphic/ideal/zero_columns",
        lambda: inv.check_zero_columns_zero_output(weight, base, x),
    )
    yield (
        "metamorphic/ideal/column_permutation",
        lambda: inv.check_output_column_permutation(weight, base, x, seed=seed),
    )
    yield (
        "metamorphic/ideal/dead_bank_padding",
        lambda: inv.check_dead_bank_padding(
            weight, tiny_config(gain_calibration=0), IdealPredictor(), x
        ),
    )
    # Temporal drift invariants (ideal backend; cheap but load-bearing:
    # the parallel/cache layers assume every one of these).
    drift_config = tiny_config(adc_bits=6)
    yield (
        "metamorphic/drift/zero_identity",
        lambda: inv.check_drift_zero_identity(
            weight, drift_config, IdealPredictor(), x, seed=seed
        ),
    )
    yield (
        "metamorphic/drift/determinism",
        lambda: inv.check_drift_determinism(
            weight, drift_config, IdealPredictor(), x, seed=seed
        ),
    )
    yield (
        "metamorphic/drift/monotone_decay",
        lambda: inv.check_drift_monotone_decay(drift_config, seed=seed),
    )
    yield (
        "metamorphic/drift/reprogram_restore",
        lambda: inv.check_drift_reprogram_restore(
            weight, drift_config, IdealPredictor(), x, seed=seed
        ),
    )

    # Serving-mode invariants (repro.serve): the micro-batch coalescing
    # identity and its supporting engine contracts, on every backend the
    # serving layer can face (the circuit solver is skipped: slow, and
    # it reads exactly 0 at V=0 like the ideal backend).
    int8_serve = with_quant(tiny_config(adc_bits=6), QuantConfig(mode="int8"))
    for pname, predictor in predictors:
        if pname == "circuit":
            continue
        yield (
            f"metamorphic/{pname}/serve_split_identity",
            lambda p=predictor: inv.check_serve_split_identity(
                weight, base, p, x, seed=seed
            ),
        )
        yield (
            f"metamorphic/{pname}/serve_split_identity_int8",
            lambda p=predictor: inv.check_serve_split_identity_int8(
                weight, int8_serve, p, x, seed=seed
            ),
        )
        yield (
            f"differential/{pname}/serve_pinned_vs_oracle",
            lambda p=predictor: inv.check_serve_pinned_matches_oracle(
                weight, base, p, x, seed=seed
            ),
        )
        yield (
            f"differential/{pname}/serve_pinned_int8_vs_oracle",
            lambda p=predictor: inv.check_serve_pinned_int8_matches_oracle(
                weight, int8_fine_adc, p, x, seed=seed
            ),
        )
        yield (
            f"differential/{pname}/serve_pin_vs_autorange",
            lambda p=predictor: inv.check_serve_pin_matches_autorange(
                weight, base, p, x, seed=seed
            ),
        )
        yield (
            f"metamorphic/{pname}/serve_snapshot_idempotence",
            lambda p=predictor: inv.check_serve_snapshot_idempotence(
                weight, base, p, x
            ),
        )
    yield (
        "metamorphic/ideal/serve_split_identity_adc6",
        lambda: inv.check_serve_split_identity(
            weight, tiny_config(adc_bits=6), IdealPredictor(), x, seed=seed
        ),
    )
    yield (
        "metamorphic/serve/pulse_conservation",
        lambda: inv.check_serve_pulse_conservation(
            weight, tiny_config(adc_bits=6), IdealPredictor(), x, seed=seed
        ),
    )
    # Process-pool and multi-lane serving contracts: the engine-level
    # statements behind out-of-order shard completion and cross-lane
    # tenant interleaving.
    yield (
        "metamorphic/queue/merge_order_identity",
        lambda: inv.check_queue_merge_order_identity(
            weight, tiny_config(adc_bits=6), IdealPredictor(), x, seed=seed
        ),
    )
    yield (
        "metamorphic/serve/lane_isolation_identity",
        lambda: inv.check_lane_isolation_identity(
            weight, tiny_config(adc_bits=6), IdealPredictor(), x, seed=seed
        ),
    )

    yield ("metamorphic/bitslice_reassembly", inv.check_bitslice_reassembly)
    yield ("contract/gain_clip", inv.check_gain_clip_contract)
    if not quick:
        yield ("metamorphic/nf_monotonicity", inv.check_nf_monotonicity)


def run_verification(
    seed: int = 1234,
    quick: bool = False,
    out_path: Path | str | None = None,
) -> ConformanceReport:
    """Run the catalog; write the JSON report; return it.

    Never raises on check failure — failures are recorded in the report
    (callers decide the exit code from ``report.passed``).
    """
    report = ConformanceReport(seed=seed, quick=quick, ckernels=_ckernels.available())
    for name, check in _catalog(seed, quick):
        start = time.perf_counter()
        try:
            check()
            result = CheckResult(name, "pass", time.perf_counter() - start)
        except inv.InvariantViolation as exc:
            result = CheckResult(name, "fail", time.perf_counter() - start, str(exc))
        except Exception as exc:  # noqa: BLE001 - a crash is a failure too
            result = CheckResult(
                name, "fail", time.perf_counter() - start,
                f"{type(exc).__name__}: {exc}",
            )
        report.record(result)
    if out_path is not None:
        report.write(Path(out_path))
    return report
