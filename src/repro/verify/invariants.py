"""Metamorphic and differential invariants of the analog pipeline.

Each check is a plain function over a :class:`CrossbarConfig` (plus a
weight/input pair where relevant) that raises
:class:`InvariantViolation` with a ULP-annotated message on failure.
They are deliberately hypothesis-free so the same catalog runs from the
``repro verify`` CLI, from CI (with compiled kernels on and off), and
from property tests that feed them generated cases.

The catalog covers two families:

Differential checks
    Every fast path (vectorized kernel, zero-row compaction, engine
    cache, compiled C kernels) against the naive
    :class:`repro.verify.oracle.OracleEngine`, to exact bit equality
    (the 0-ULP policy documented in :mod:`repro.verify.oracle`).

Metamorphic checks
    Properties the pipeline must satisfy *by construction*, with exact
    expected outcomes: power-of-two input scaling, per-row batch
    independence, output-column permutation equivariance on the ideal
    backend, two-bank input-tile swaps, zero weights cancelling in the
    differential pair, bit-slice reassembly identity, fault-free fault
    layers acting as identity, and NF monotonicity across the Table I
    crossbars.
"""

from __future__ import annotations

import numpy as np

from repro.verify.oracle import GAIN_CLIP as ORACLE_GAIN_CLIP
from repro.verify.oracle import (
    OracleEngine,
    naive_plane_split,
    naive_reassemble,
    naive_slice_lsb_first,
)
from repro.verify.ulp import describe_mismatch, max_ulp
from repro.xbar.adc import ADCConfig
from repro.xbar.drift import DriftConfig, DriftModel, with_drift
from repro.xbar.engine_cache import EngineCache
from repro.xbar.faults import FaultConfig, with_faults
from repro.xbar.nf import crossbar_nf
from repro.xbar.presets import CrossbarConfig, crossbar_preset
from repro.xbar.quant import (
    QuantConfig,
    compute_scale,
    plane_reassemble,
    plane_split,
    quantize_affine,
    with_quant,
)
from repro.xbar.simulator import GAIN_CLIP, CrossbarEngine, IdealPredictor


class InvariantViolation(AssertionError):
    """A verification check failed; the message localizes the drift."""


def _rng(seed):
    return np.random.default_rng(seed) if seed is not None else None


def _engine(weight, config, predictor, seed=None):
    return CrossbarEngine(weight, config, predictor, rng=_rng(seed))


def _expect_equal(name: str, expected: np.ndarray, got: np.ndarray) -> None:
    if max_ulp(expected, got) != 0:
        raise InvariantViolation(f"{name}: {describe_mismatch(expected, got)}")


# ----------------------------------------------------------------------
# Differential checks against the oracle
# ----------------------------------------------------------------------

def _expect_oracle_parity(name: str, oracle, engine, x: np.ndarray) -> None:
    """Engine outputs, guard trips and fault maps must match the oracle."""
    _expect_equal(f"{name} vs oracle", oracle.matvec(x), engine.matvec(x))
    if engine.guard_trips != oracle.guard_trips:
        raise InvariantViolation(
            f"{name} guard trips {engine.guard_trips} != oracle {oracle.guard_trips}"
        )
    if engine.fault_summary != oracle.fault_summary:
        raise InvariantViolation(
            f"{name} fault map {engine.fault_summary} != oracle {oracle.fault_summary}"
        )


def check_kernels_match_oracle(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> CrossbarEngine:
    """The float kernel must reproduce the oracle bit for bit.

    ``seed`` drives construction randomness (programming noise, fault
    chip tokens); oracle and engine consume identical streams, so the
    probe-based gain calibration, the guard-trip count and the injected
    fault map must agree too.  Returns the checked engine.
    """
    oracle = OracleEngine(weight, config, predictor, rng=_rng(seed))
    engine = _engine(weight, config, predictor, seed)
    _expect_oracle_parity("float kernel", oracle, engine, x)
    return engine


def check_cache_warm_cold(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """A cache-hit engine must match the cold-built engine bit for bit.

    Exercises ``clone_pristine``: the warm engine re-derives per-call
    state (gain accumulators, scratch buffers) rather than inheriting
    stale values.
    """
    cache = EngineCache(maxsize=4)
    build = lambda: CrossbarEngine(weight, config, predictor)  # noqa: E731
    cold = cache.get_or_build(weight, config, predictor, None, build)
    expected = cold.matvec(x)
    warm = cache.get_or_build(weight, config, predictor, None, build)
    if warm is cold:
        raise InvariantViolation("engine cache returned the live engine, not a clone")
    _expect_equal("warm cache engine vs cold", expected, warm.matvec(x))
    if cache.stats.hits != 1:
        raise InvariantViolation(f"expected 1 cache hit, saw {cache.stats.hits}")


def check_compaction_row_independence(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """Rows sharing a DAC range must not depend on their batch.

    The DAC normalizes by the batch maximum, so a subset only sees the
    same quantization grid if it contains the rows holding the
    positive- and negative-side maxima.  With those anchor rows pinned,
    every other row's bits must be identical inside the full batch and
    inside the minimal anchored subset — the property stream stacking
    and zero-row compaction rely on, and the one predictors violated
    while their matmuls were plain BLAS GEMMs (see
    :mod:`repro.xbar.numerics`).
    """
    engine = _engine(weight, config, predictor)
    batch = engine.matvec(x)
    pos_anchor = int(np.argmax(np.maximum(x, 0.0).max(axis=1)))
    neg_anchor = int(np.argmax(np.maximum(-x, 0.0).max(axis=1)))
    for i in range(x.shape[0]):
        subset = sorted({pos_anchor, neg_anchor, i})
        sub = engine.matvec(x[subset])
        _expect_equal(
            f"row {i} in anchored subset vs in batch",
            batch[i : i + 1],
            sub[subset.index(i) : subset.index(i) + 1],
        )


def check_dense_vs_zero_row_batch(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """Zero drive gives exactly zero output, in every mode.

    A row with no drive has no source, so it draws no current on any
    (bank, stream/plane) evaluation.  Appended all-zero rows take the
    compacted path inside a live batch: they must read exactly ``0.0``
    on every backend, float or int8, and the original rows' bits must
    not change.  The live batch is ``x`` and ``|x|``: a signed int8
    batch drives the same planes in both sign passes, which would
    cancel any V=0 current of a zero row exactly and hide it.
    """
    engine = _engine(weight, config, predictor)
    if config.quant.enabled:
        engine.set_input_scale(_quant_scale(x, config))
    for live in (x, np.abs(x)):
        dense = engine.matvec(live)
        out = engine.matvec(np.vstack([live, np.zeros((2, x.shape[1]))]))
        _expect_equal("original rows after zero-padding", dense, out[: x.shape[0]])
        _expect_equal("appended zero rows", np.zeros_like(out[-2:]), out[-2:])


# ----------------------------------------------------------------------
# Metamorphic checks
# ----------------------------------------------------------------------

def check_power_of_two_scaling(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """``matvec(2^k x) == 2^k matvec(x)`` exactly, for any backend.

    The DAC normalizes by ``x.max()``, so scaling the batch by a power
    of two scales only the exact final ``x_lsb`` factor: the integer
    streams, the analog evaluation and the ADC all see identical
    values.
    """
    engine = _engine(weight, config, predictor)
    base = engine.matvec(x)
    for k in (2.0, 0.25):
        scaled = engine.matvec(x * k)
        _expect_equal(f"matvec({k}*x) vs {k}*matvec(x)", base * k, scaled)


def check_output_column_permutation(
    weight: np.ndarray, config: CrossbarConfig, x: np.ndarray, seed: int = 0
) -> None:
    """Permuting output features permutes outputs, exactly (ideal path).

    On :class:`IdealPredictor` every output column is a function of its
    own weight row only — tiling, ADC, dummy-column subtraction and the
    per-column gain trim all act columnwise — so reordering weight rows
    must reorder outputs with zero numerical effect.  (Circuit-coupled
    backends legitimately break this: IR drop couples neighbouring
    columns, which is the physics the paper relies on.)
    """
    predictor = IdealPredictor()
    base = _engine(weight, config, predictor).matvec(x)
    perm = np.random.default_rng(seed).permutation(weight.shape[0])
    permuted = _engine(weight[perm], config, predictor).matvec(x)
    _expect_equal("permuted output columns", base[:, perm], permuted)


def check_dead_bank_padding(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """Appending dead input tiles (zero weights, zero inputs) is a no-op.

    The padded features form whole extra row-banks whose bit-streams
    are all zero, so the kernel must skip them outright — the live
    banks' accumulation sequence, and therefore every output bit, is
    unchanged.  (A swap of two *live* banks is deliberately not
    asserted: it reorders a multi-term float accumulation, which is
    only approximately equivariant.)
    """
    if config.gain_calibration:
        # Calibration probes are drawn with shape (num, in_features);
        # padding changes the draw and therefore the gains.
        raise ValueError("dead-bank padding check requires gain_calibration=0")
    pad = config.rows
    weight_p = np.concatenate(
        [weight, np.zeros((weight.shape[0], pad), dtype=weight.dtype)], axis=1
    )
    x_p = np.concatenate([x, np.zeros((x.shape[0], pad))], axis=1)
    base = _engine(weight, config, predictor).matvec(x)
    padded = _engine(weight_p, config, predictor).matvec(x_p)
    _expect_equal("dead-bank padding", base, padded)


def check_zero_weight_zero_output(
    config: CrossbarConfig, predictor, x: np.ndarray, out_features: int = 5
) -> None:
    """An all-zero weight must produce exactly 0.0 everywhere.

    Both differential arrays program identical conductances, so each
    chunk contributes ``+t`` then ``-t`` from zero — exact cancellation
    for any backend.  Only meaningful without programming noise or
    faults (those decorrelate the pos/neg arrays by design).
    """
    if config.device.program_sigma or config.faults.enabled:
        raise ValueError("zero-weight check requires a noise/fault-free config")
    weight = np.zeros((out_features, x.shape[1]), dtype=np.float32)
    out = _engine(weight, config, predictor).matvec(x)
    _expect_equal("zero weight output", np.zeros_like(out), out)


def check_zero_columns_zero_output(
    weight: np.ndarray, config: CrossbarConfig, x: np.ndarray
) -> None:
    """All-zero weight rows yield exactly-zero output columns (ideal).

    Per-column independence of the ideal backend makes the pos/neg
    cancellation argument column-local, so it holds even when other
    columns carry weight.
    """
    if config.device.program_sigma or config.faults.enabled:
        raise ValueError("zero-column check requires a noise/fault-free config")
    weight = np.array(weight, copy=True)
    weight[::2] = 0.0
    out = _engine(weight, config, IdealPredictor()).matvec(x)
    _expect_equal("zeroed output columns", np.zeros_like(out[:, ::2]), out[:, ::2])


def check_bitslice_reassembly(max_value_bits: int = 8, chunk_bits: int = 2) -> None:
    """Slicing integers LSB-first and reassembling is the identity."""
    values = np.arange(2**max_value_bits, dtype=np.int64).reshape(16, -1)
    chunks = naive_slice_lsb_first(values, max_value_bits, chunk_bits)
    back = naive_reassemble(chunks, chunk_bits)
    if not np.array_equal(values, back):
        raise InvariantViolation(
            f"bit-slice reassembly lost information for {max_value_bits}-bit "
            f"values in {chunk_bits}-bit chunks"
        )


def check_faultfree_faults_identity(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """A fault layer with all-zero rates must be a bit-exact no-op.

    Also pins the RNG contract: an engine only draws its fault chip
    token when faults are enabled, so a disabled fault layer must leave
    the construction RNG stream untouched.
    """
    plain = _engine(weight, config, predictor, seed=5)
    disabled = _engine(weight, with_faults(config, FaultConfig()), predictor, seed=5)
    _expect_equal("fault-free fault layer", plain.matvec(x), disabled.matvec(x))


def check_empty_batch(
    weight: np.ndarray, config: CrossbarConfig, predictor
) -> None:
    """A zero-row batch must return a (0, out) result, not crash."""
    engine = _engine(weight, config, predictor)
    out = engine.matvec(np.zeros((0, weight.shape[1])))
    if out.shape != (0, weight.shape[0]):
        raise InvariantViolation(f"empty batch returned shape {out.shape}")


def check_gain_clip_contract() -> None:
    """The oracle's redeclared gain clip must match the simulator's."""
    if tuple(GAIN_CLIP) != tuple(ORACLE_GAIN_CLIP):
        raise InvariantViolation(
            f"simulator GAIN_CLIP {GAIN_CLIP} drifted from the oracle's "
            f"periphery contract {ORACLE_GAIN_CLIP}"
        )


# ----------------------------------------------------------------------
# Quantized-mode invariants (see repro.xbar.quant)
# ----------------------------------------------------------------------

def _quant_scale(x: np.ndarray, config: CrossbarConfig) -> float:
    """The static input scale a calibration sweep over ``x`` would set."""
    return compute_scale(float(np.abs(x).max()), config.quant.half_level)


def check_quant_kernels_match_oracle(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """The integer kernel must reproduce the quantized oracle bit for bit.

    Covers the full integer pulse-expansion chain — static-scale
    quantization, sign-magnitude plane split, raw ADC-code shift-and-add
    with common-mode ``G_min`` cancellation, guard group-fallback and
    the single final dequantization — against the naive per-element
    oracle, including guard-trip count parity.
    """
    if not config.quant.enabled:
        raise ValueError("quant differential requires a quant-enabled config")
    scale = _quant_scale(x, config)
    oracle = OracleEngine(weight, config, predictor, rng=_rng(seed))
    oracle.set_input_scale(scale)
    engine = _engine(weight, config, predictor, seed)
    engine.set_input_scale(scale)
    _expect_oracle_parity("int kernel", oracle, engine, x)


def check_quant_float_fallback(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """An uncalibrated quant engine must serve the float path bit for bit.

    Until calibration installs ``x_scale`` the quantized mode changes
    nothing: matvec must match a quant-off build exactly (the quant
    field never perturbs construction randomness or the float chain).
    """
    quant_off = with_quant(config, QuantConfig())
    expected = _engine(weight, quant_off, predictor, seed=3).matvec(x)
    engine = _engine(weight, config, predictor, seed=3)
    if engine.quant_active:
        raise InvariantViolation("engine claims int mode before any calibration")
    _expect_equal("uncalibrated quant engine vs float build", expected, engine.matvec(x))


def check_quant_batch_independence(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """Int-mode outputs must be independent of batch composition.

    Stronger than the float path's anchored-subset property: the static
    scale removes the batch-maximum coupling entirely, so *any* subset
    — each row alone — must reproduce its in-batch bits.
    """
    engine = _engine(weight, config, predictor)
    engine.set_input_scale(_quant_scale(x, config))
    batch = engine.matvec(x)
    for i in range(x.shape[0]):
        solo = engine.matvec(x[i : i + 1])
        _expect_equal(f"row {i} alone vs in batch (int mode)", batch[i : i + 1], solo)


def check_quant_zero_and_empty(
    weight: np.ndarray, config: CrossbarConfig, predictor
) -> None:
    """Int mode: empty batches return (0, out); zero batches exact zeros."""
    engine = _engine(weight, config, predictor)
    engine.set_input_scale(1.0)
    out = engine.matvec(np.zeros((0, weight.shape[1])))
    if out.shape != (0, weight.shape[0]):
        raise InvariantViolation(f"int-mode empty batch returned shape {out.shape}")
    zeros = engine.matvec(np.zeros((3, weight.shape[1])))
    _expect_equal("int-mode zero batch", np.zeros_like(zeros), zeros)


def check_quant_requires_adc(weight: np.ndarray, predictor) -> None:
    """Quant mode without an ADC must be rejected at construction.

    The integer path accumulates ADC codes; both the engine and the
    oracle must refuse an ``adc.bits=None`` config identically.
    """
    from repro.verify.runner import tiny_config

    config = with_quant(tiny_config(adc_bits=None), QuantConfig(mode="int8"))
    for label, cls in (("engine", CrossbarEngine), ("oracle", OracleEngine)):
        try:
            cls(weight, config, predictor)
        except ValueError:
            continue
        raise InvariantViolation(
            f"{label} accepted quant.mode='int8' without an ADC"
        )


def check_quant_scale_round_trip(bits: int = 8) -> None:
    """Dequantize(quantize(x)) must stay within half a scale step.

    Exact identity on grid points: values that *are* multiples of the
    scale inside the clip range round-trip bit for bit.
    """
    qc = QuantConfig(mode="int8", input_bits=bits)
    half = qc.half_level
    scale = 0.0375  # deliberately not a power of two
    grid = scale * np.arange(-half, half + 1, dtype=np.float64).reshape(1, -1)
    codes = quantize_affine(grid, scale=scale, top=half, symmetric=True, dtype=np.int64)
    if not np.array_equal(codes * scale, grid):
        raise InvariantViolation("grid values did not round-trip exactly")
    rng = np.random.default_rng(99)
    x = (rng.random((64,)) * 2.0 - 1.0) * scale * half
    codes = quantize_affine(x, scale=scale, top=half, symmetric=True, dtype=np.int64)
    err = np.abs(codes * scale - x)
    if float(err.max()) > scale / 2 * (1 + 1e-12):
        raise InvariantViolation(
            f"round-trip error {err.max():.3e} exceeds scale/2 = {scale / 2:.3e}"
        )


def check_plane_reassembly() -> None:
    """Pulse-plane split + reassemble is the identity for any widths.

    Exercises non-dividing ``(magnitude_bits, stream_bits)`` pairings
    (the last plane carries fewer significant bits) and pins the fast
    split against the naive loop implementation.
    """
    for mb, sb in ((7, 8), (7, 2), (5, 2), (7, 3), (4, 1), (15, 4)):
        values = np.arange(2**mb, dtype=np.int64).reshape(4, -1)
        planes = plane_split(values, mb, sb)
        naive = naive_plane_split(values, mb, sb)
        if len(planes) != len(naive) or any(
            not np.array_equal(p, q) for p, q in zip(planes, naive)
        ):
            raise InvariantViolation(
                f"plane_split(mb={mb}, sb={sb}) drifted from the naive loop"
            )
        back = plane_reassemble(planes, sb)
        if not np.array_equal(values, back):
            raise InvariantViolation(
                f"plane reassembly lost information for mb={mb}, sb={sb}"
            )


def check_quant_float_error_bound(
    weight: np.ndarray, x: np.ndarray
) -> None:
    """The int path must approximate the ideal product within its budget.

    On the parasitic-free backend with a high-resolution ADC the only
    error sources are the three quantizers: input codes (half a scale
    step per element), weight levels (half a ``w_scale`` per element)
    and ADC codes (half an LSB per accumulated code, amplified by the
    exact shift-and-add factors).  The analytic sum of those budgets
    must bound the observed error — a *semantic* check that the single
    final dequantization is wired to the right constants.
    """
    from repro.verify.runner import tiny_config

    from dataclasses import replace

    qc = QuantConfig(mode="int8")
    config = with_quant(tiny_config(adc_bits=12, gain_calibration=0), qc)
    config = replace(config, adc=ADCConfig(bits=12, full_scale_fraction=1.0))
    bs = config.bitslice
    engine = CrossbarEngine(weight, config, IdealPredictor())
    scale = _quant_scale(x, config)
    engine.set_input_scale(scale)
    got = engine.matvec(x)
    ideal = np.asarray(x, dtype=np.float64) @ np.asarray(weight, dtype=np.float64).T
    w_scale = engine.w_scale
    wq = np.clip(np.rint(np.abs(np.asarray(weight, np.float64)) / w_scale), 0,
                 bs.weight_levels - 1)
    # Per-element budgets: input codes and weight levels.
    bound = (w_scale / 2) * np.abs(x).sum(axis=1, keepdims=True) * np.ones_like(got)
    bound += (scale / 2) * w_scale * wq.sum(axis=1)[None, :]
    # ADC budget: half an LSB per accumulated code times the exact
    # shift-and-add factor sum over banks, planes, passes and slices.
    n_passes = 2 if (x < 0).any() else 1
    factor_sum = (
        len(engine.banks)
        * sum(2 ** (qc.stream_bits * t) for t in range(qc.num_planes))
        * 2 * sum(2 ** (bs.slice_bits * s) for s in range(bs.num_slices))
    )
    k_code = scale * w_scale * (engine._quant_lsb / engine._quant_denom)
    bound += n_passes * k_code * factor_sum / 2
    err = np.abs(got - ideal)
    slack = bound * 1e-9 + 1e-12
    if (err > bound + slack).any():
        worst = int(np.argmax(err - bound))
        raise InvariantViolation(
            f"int-path error {err.flat[worst]:.6e} exceeds analytic bound "
            f"{bound.flat[worst]:.6e}"
        )


def _default_drift(seed: int) -> DriftConfig:
    return DriftConfig(
        epoch_pulses=8,
        retention_nu=0.1,
        retention_sigma=0.3,
        read_disturb_rate=1e-3,
        seed=seed,
    )


def check_drift_zero_identity(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
) -> None:
    """At query count 0 a drifting engine is the static engine, bitwise.

    Drift only perturbs conductances at ``sync_drift`` points, and the
    t=0 transform is the identity *without any float operation applied*
    — so a freshly programmed drifting chip must match the no-drift
    build exactly, before and after a sub-epoch sync.  Requires a
    noise/fault-free config: with them enabled the construction RNG
    stream includes the drift chip token and the builds diverge by
    design.
    """
    if config.device.program_sigma or config.faults.enabled:
        raise ValueError("drift zero-identity requires a noise/fault-free config")
    static = _engine(weight, config, predictor, seed=seed)
    drifting = _engine(
        weight, with_drift(config, _default_drift(seed)), predictor, seed=seed
    )
    _expect_equal("drifting engine at t=0", static.matvec(x), drifting.matvec(x))
    if drifting.sync_drift() and drifting.applied_drift_epoch == 0:
        raise InvariantViolation("sync_drift rebuilt banks below one epoch")
    _expect_equal(
        "drifting engine after sub-epoch sync", static.matvec(x), drifting.matvec(x)
    )


def check_drift_determinism(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
    blocks: int = 4,
) -> None:
    """Drift is a pure function of ``(chip_seed, query_count)``.

    Two identically seeded engines served identical traffic must agree
    bit for bit at every sync point — the property that makes drifted
    runs resumable and shardable.
    """
    drifted = with_drift(config, _default_drift(seed))
    a = _engine(weight, drifted, predictor, seed=seed)
    b = _engine(weight, drifted, predictor, seed=seed)
    for block in range(blocks):
        ya, yb = a.matvec(x), b.matvec(x)
        _expect_equal(f"drift replay block {block}", ya, yb)
        a.sync_drift()
        b.sync_drift()
        if a.drift_state() != b.drift_state():
            raise InvariantViolation(
                f"temporal coordinates diverged: {a.drift_state()} vs {b.drift_state()}"
            )


def check_drift_monotone_decay(
    config: CrossbarConfig, seed: int = 0, epochs: int = 6
) -> None:
    """Per-cell retention decay is monotone; dead cells stay dead.

    Elementwise, every cell's effective conductance is non-increasing
    in chip age (power-law retention and read disturb both decay), and
    the stuck-at death lottery only ever grows the dead set — a line
    that died at epoch ``e`` must be dead at every ``e' > e``.
    """
    drift = DriftConfig(
        epoch_pulses=4,
        retention_nu=0.1,
        retention_sigma=0.3,
        read_disturb_rate=1e-3,
        stuck_rate=0.05,
        seed=seed,
    )
    model = DriftModel(drift, config.device, chip_token=seed + 99)
    rng = np.random.default_rng(seed)
    g0 = rng.uniform(
        config.device.g_min, config.device.g_max, size=(config.rows, config.cols)
    )
    previous = None
    dead_previous = 0
    for epoch in range(epochs + 1):
        g = model.drift_tile(g0, tile_index=0, age_epochs=epoch, absolute_epoch=epoch)
        if epoch == 0:
            if g is not g0 and not np.array_equal(g, g0):
                raise InvariantViolation("drift at age 0 is not the identity")
        if previous is not None and np.any(g > previous):
            worst = float(np.max(g - previous))
            raise InvariantViolation(
                f"conductance increased by {worst:g} between epochs "
                f"{epoch - 1} and {epoch}"
            )
        dead = model.dead_count(g0.shape, 0, epoch)
        if dead < dead_previous:
            raise InvariantViolation(
                f"dead set shrank from {dead_previous} to {dead} at epoch {epoch}"
            )
        previous, dead_previous = g, dead


def check_drift_reprogram_restore(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
) -> None:
    """Without stuck conversion, reprogramming restores t=0 bitwise.

    Retention decay and read disturb are reversible cell rewrites, so
    ``reprogram()`` on a chip whose drift has no stuck-at component
    must reproduce the freshly programmed outputs exactly.
    """
    drifted = with_drift(config, _default_drift(seed))
    engine = _engine(weight, drifted, predictor, seed=seed)
    fresh = engine.matvec(x)
    for _ in range(20):
        engine.matvec(x)
    engine.sync_drift()
    if engine.applied_drift_epoch == 0:
        raise InvariantViolation("drift never advanced; check is vacuous")
    aged = engine.matvec(x)
    if np.array_equal(fresh, aged):
        raise InvariantViolation("aged chip identical to fresh; decay too weak")
    survivors = engine.reprogram()
    if survivors:
        raise InvariantViolation(
            f"{survivors} dead cells survive reprogramming with stuck_rate=0"
        )
    _expect_equal("reprogrammed chip vs fresh", fresh, engine.matvec(x))


def check_nf_monotonicity(
    num_matrices: int = 2, vectors_per_matrix: int = 4, seed: int = 0
) -> None:
    """Non-ideality ordering of the three Table I crossbars (paper §IV).

    Larger arrays and lower wire/device resistance ratios mean more IR
    drop: NF(64x64, 300k) < NF(32x32, 100k) < NF(64x64, 100k).  The
    ordering is a physics invariant of the circuit model, independent
    of the sampled workload.
    """
    order = ["64x64_300k", "32x32_100k", "64x64_100k"]
    nfs = []
    for name in order:
        cfg = crossbar_preset(name)
        nfs.append(
            crossbar_nf(
                cfg.circuit, cfg.device, np.random.default_rng(seed),
                num_matrices=num_matrices, vectors_per_matrix=vectors_per_matrix,
            )
        )
    if not (nfs[0] < nfs[1] < nfs[2]):
        pairs = ", ".join(f"{n}={v:.4f}" for n, v in zip(order, nfs))
        raise InvariantViolation(f"NF ordering violated: {pairs}")


# ----------------------------------------------------------------------
# Serving-mode invariants (see repro.serve)
# ----------------------------------------------------------------------

def check_serve_split_identity(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """A pinned engine's outputs are batch-composition independent.

    With a static DAC range installed (serving mode) every row sees the
    same quantization grid and contributes nothing to streams it does
    not drive, so each row alone — and any contiguous split — must
    reproduce its in-dense-batch bits exactly.  This is the engine-level
    statement of the micro-batch coalescing identity the serving layer
    is built on.
    """
    limit = float(np.abs(x).max()) or 1.0
    engine = _engine(weight, config, predictor, seed)
    engine.set_dac_range(limit)
    batch = engine.matvec(x)
    for i in range(x.shape[0]):
        solo = engine.matvec(x[i : i + 1])
        _expect_equal(f"row {i} alone vs in batch (pinned)", batch[i : i + 1], solo)
    cut = max(1, x.shape[0] // 3)
    split = np.vstack([engine.matvec(x[:cut]), engine.matvec(x[cut:])])
    _expect_equal("uneven split vs dense batch", batch, split)


def check_serve_split_identity_int8(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """Coalescing identity on the integer pulse-expansion path.

    Quantized serving combines the static input scale with a pinned DAC
    range; every row's integer codes must stay independent of its
    batch-mates, including the batch-dependent negative-plane pass
    structure (a row with no pulse on a plane adds no code).
    """
    if not config.quant.enabled:
        raise ValueError("int8 serve identity requires a quant-enabled config")
    limit = float(np.abs(x).max()) or 1.0
    engine = _engine(weight, config, predictor, seed)
    engine.set_input_scale(_quant_scale(x, config))
    engine.set_dac_range(limit)
    batch = engine.matvec(x)
    for i in range(x.shape[0]):
        solo = engine.matvec(x[i : i + 1])
        _expect_equal(f"int: row {i} alone vs in batch (pinned)", batch[i : i + 1], solo)


def check_serve_pin_matches_autorange(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """Pinning the DAC at the batch maximum reproduces auto-ranging.

    Serving mode is the *same* DAC with a frozen reference voltage, and
    both modes share one rule for undriven rows (they draw no current).
    So when the pinned range equals the batch's auto-ranged maximum the
    two modes must agree bit for bit, for any rows, any bit-slicing and
    any backend.  ``|x|`` keeps the batch to one sign pass, whose range
    a single pin can match.
    """
    xa = np.abs(x)
    auto = _engine(weight, config, predictor, seed).matvec(xa)
    pinned = _engine(weight, config, predictor, seed)
    pinned.set_dac_range(float(xa.max()) or 1.0)
    _expect_equal("pinned at batch max vs auto-ranged", auto, pinned.matvec(xa))


def _pinned_pair(weight, config, predictor, x, seed):
    """Oracle and engine, both pinned below the batch maximum."""
    limit = 0.75 * float(np.abs(x).max()) or 1.0  # some inputs clip
    pair = (
        OracleEngine(weight, config, predictor, rng=_rng(seed)),
        _engine(weight, config, predictor, seed),
    )
    for engine in pair:
        if config.quant.enabled:
            engine.set_input_scale(_quant_scale(x, config))
        engine.set_dac_range(limit)
    return pair


def check_serve_pinned_matches_oracle(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """A pinned float engine must reproduce the pinned oracle bit for bit.

    Covers the fixed-reference DAC (clipping against the pinned range)
    at 0 ULP, instead of only through the split-identity properties.
    """
    oracle, engine = _pinned_pair(weight, config, predictor, x, seed)
    _expect_oracle_parity("pinned float kernel", oracle, engine, x)


def check_serve_pinned_int8_matches_oracle(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int | None = None,
) -> None:
    """A pinned int8 engine must reproduce the pinned oracle bit for bit.

    Covers the static input scale and the pinned DAC together on the
    integer path, where rows with no pulse on a plane add no ADC codes.
    """
    if not config.quant.enabled:
        raise ValueError("pinned int8 differential requires a quant-enabled config")
    oracle, engine = _pinned_pair(weight, config, predictor, x, seed)
    _expect_oracle_parity("pinned int kernel", oracle, engine, x)


def check_serve_snapshot_idempotence(
    weight: np.ndarray, config: CrossbarConfig, predictor, x: np.ndarray
) -> None:
    """Serving state never leaks through the engine cache.

    A warm cache hit is a pristine clone: it must come back unpinned
    (``dac_range`` cleared, ``cal_amax`` reset) and un-aged, and
    re-pinning it at the original range must reproduce the original
    engine's pinned outputs bit for bit — the property that makes a
    registry evict + reload round-trip bitwise stable.
    """
    cache = EngineCache(maxsize=4)
    build = lambda: CrossbarEngine(weight, config, predictor)  # noqa: E731
    cold = cache.get_or_build(weight, config, predictor, None, build)
    limit = float(np.abs(x).max()) or 1.0
    cold.set_dac_range(limit)
    expected = cold.matvec(x)
    warm = cache.get_or_build(weight, config, predictor, None, build)
    if warm is cold:
        raise InvariantViolation("engine cache returned the live engine, not a clone")
    if warm.dac_range is not None:
        raise InvariantViolation("cache clone inherited a pinned DAC range")
    if getattr(warm, "cal_amax", 0.0) != 0.0:
        raise InvariantViolation("cache clone inherited a calibration record")
    if warm.pulse_count != 0:
        raise InvariantViolation(
            f"cache clone inherited {warm.pulse_count} served pulses"
        )
    warm.set_dac_range(limit)
    _expect_equal("re-pinned cache clone vs original pinned engine",
                  expected, warm.matvec(x))


def check_serve_pulse_conservation(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
) -> None:
    """Micro-batching neither creates nor loses drift pulses.

    ``matvec`` ages one pulse per input row and conductances move only
    at explicit sync points, so serving the same requests as one dense
    batch, as uneven splits, or one by one must land every engine on
    the same pulse count with bit-identical outputs.
    """
    drifted = with_drift(config, _default_drift(seed))
    limit = float(np.abs(x).max()) or 1.0
    plans = [
        [x],
        [x[: max(1, len(x) // 3)], x[max(1, len(x) // 3):]],
        [x[i : i + 1] for i in range(len(x))],
    ]
    reference = None
    for plan_index, plan in enumerate(plans):
        engine = _engine(weight, drifted, predictor, seed=seed)
        engine.set_dac_range(limit)
        out = np.vstack([engine.matvec(part) for part in plan])
        if engine.pulse_count != len(x):
            raise InvariantViolation(
                f"split plan {plan_index} served {engine.pulse_count} pulses "
                f"for {len(x)} requests"
            )
        if reference is None:
            reference = out
        else:
            _expect_equal(f"split plan {plan_index} vs dense batch", reference, out)


def check_queue_merge_order_identity(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
    shard_size: int = 2,
) -> None:
    """Shard execution order is invisible after the index merge.

    This is the engine-level contract the process backend relies on:
    pool workers finish canonical shards in whatever order they
    happen to, yet merging outcomes strictly by shard index reproduces
    the serial map bit for bit, with the same final pulse count — even
    with drift aging enabled, because conductances only move at
    explicit sync points.
    """
    drifted = with_drift(config, _default_drift(seed))
    limit = float(np.abs(x).max()) or 1.0
    shards = [x[i : i + shard_size] for i in range(0, len(x), shard_size)]

    serial_engine = _engine(weight, drifted, predictor, seed=seed)
    serial_engine.set_dac_range(limit)
    serial = [serial_engine.matvec(shard) for shard in shards]

    rng = np.random.default_rng(seed + 1)
    for trial in range(3):
        order = rng.permutation(len(shards))
        engine = _engine(weight, drifted, predictor, seed=seed)
        engine.set_dac_range(limit)
        outcomes: list = [None] * len(shards)
        for index in order:
            outcomes[index] = engine.matvec(shards[index])
        if engine.pulse_count != serial_engine.pulse_count:
            raise InvariantViolation(
                f"permutation {trial}: {engine.pulse_count} pulses != "
                f"serial {serial_engine.pulse_count}"
            )
        _expect_equal(
            f"permutation {trial} ({list(order)}) merged by index",
            np.vstack(serial),
            np.vstack(outcomes),
        )


def check_lane_isolation_identity(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor,
    x: np.ndarray,
    seed: int = 0,
) -> None:
    """Interleaving two tenants' schedules leaves each tenant unchanged.

    The multi-lane server pins every tenant to one lane but interleaves
    batches across lanes arbitrarily; since tenants own disjoint engine
    state, any global interleaving must yield the same per-tenant
    outputs and pulse counts as serving each tenant alone, start to
    finish.
    """
    drifted = with_drift(config, _default_drift(seed))
    weights = {"a": weight, "b": weight[::-1].copy()}
    limit = float(np.abs(x).max()) or 1.0
    shards = [x[i : i + 1] for i in range(len(x))]

    def fresh(name):
        engine = _engine(weights[name], drifted, predictor, seed=seed)
        engine.set_dac_range(limit)
        return engine

    sequential: dict[str, np.ndarray] = {}
    pulses: dict[str, int] = {}
    for name in weights:
        engine = fresh(name)
        sequential[name] = np.vstack([engine.matvec(s) for s in shards])
        pulses[name] = engine.pulse_count

    engines = {name: fresh(name) for name in weights}
    interleaved: dict[str, list] = {name: [] for name in weights}
    for i, shard in enumerate(shards):  # strict a/b alternation per shard
        for name in ("a", "b") if i % 2 == 0 else ("b", "a"):
            interleaved[name].append(engines[name].matvec(shard))
    for name in weights:
        if engines[name].pulse_count != pulses[name]:
            raise InvariantViolation(
                f"tenant {name}: interleaved schedule aged "
                f"{engines[name].pulse_count} pulses, sequential {pulses[name]}"
            )
        _expect_equal(
            f"tenant {name}: interleaved vs sequential schedule",
            sequential[name],
            np.vstack(interleaved[name]),
        )
