"""PUMA-style functional simulator: non-ideal Conv2d/Linear layers.

Implements the three-step mapping of §II-A of the paper:

i.   *Iterative MVM* — convolutions become matrix-vector products over
     im2col patch vectors; linear layers are used as-is.
ii.  *Tiling* — each layer's weight matrix is split into crossbar-sized
     segments (:mod:`repro.xbar.tiling`); partial sums accumulate
     digitally.
iii. *Bit-slicing* — weights are quantized and sliced into
     ``slice_bits`` cell-resident chunks, inputs are quantized and
     streamed ``stream_bits`` at a time (:mod:`repro.xbar.bitslice`);
     shift-and-add recombines partial products.

Analog MVMs go through a *column predictor* — normally the GENIEx
surrogate, optionally the exact circuit solver or the fast analytic
noise model — followed by ADC quantization.  Negative weights use the
differential scheme (separate positive/negative arrays, subtracted
digitally).

The non-ideal layers support the paper's "Hardware-in-Loop" gradient
convention: the forward pass is the non-ideal hardware computation,
while backward applies the *ideal* layer Jacobian (the NVM hardware is
inference-only; see §III-C.2).
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.conv import col2im, conv_output_size, im2col
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.obs import health as _obs
from repro.obs import runtime as _obs_runtime
from repro.obs.trace import span as _span
from repro.xbar import _ckernels
from repro.xbar.adc import quantize_current
from repro.xbar.bitslice import StreamWorkspace, slice_weights
from repro.xbar.circuit import CrossbarCircuit
from repro.xbar.device import RRAMDevice
from repro.xbar.drift import DriftModel
from repro.xbar.engine_cache import EngineCache, resolve_cache
from repro.xbar.faults import FaultModel, FaultSummary, TileHealthError
from repro.xbar.numerics import row_stable_matmul
from repro.xbar.perf import PerfCounters
from repro.xbar.presets import CrossbarConfig, load_or_train_geniex
from repro.xbar.quant import PlaneWorkspace, compute_scale, integer_mvm
from repro.xbar.tiling import tile_matrix

logger = logging.getLogger(__name__)

#: Per-column gain clip bounds shared by every gain fit — guards
#: against degenerate least-squares solutions on nearly-dead columns.
GAIN_CLIP = (0.25, 4.0)


class ColumnPredictor(Protocol):
    """Interface every analog-MVM backend implements.

    ``prepare_crossbar`` digests one programmed array (G is fixed after
    programming) down to the state needed to answer queries for its
    first ``used_cols`` columns; ``concat_bias`` banks several prepared
    arrays; ``predict_from_bias`` evaluates column currents for a batch
    of input voltage vectors against a bank.

    ``chunk`` bounds how many voltage vectors a backend may evaluate at
    once where it keeps a per-row-block intermediate larger than its
    output (the circuit solver); backends whose intermediates are no
    larger than the ``(B, C)`` output (ideal, GENIEx) may ignore it.
    Output rows depend only on their own voltage row, so chunking never
    changes results.
    """

    def prepare_crossbar(self, conductances: np.ndarray, used_cols: int | None = None): ...

    def concat_bias(self, handles: list): ...

    def predict_from_bias(self, voltages: np.ndarray, column_bias, chunk: int = 8192) -> np.ndarray: ...


class IdealPredictor:
    """Parasitic-free backend: exact ``V @ G`` column currents.

    With this predictor the functional simulator still applies weight
    and input quantization, bit-slicing and the ADC — so it isolates
    the *quantization-only* accuracy cost from the analog non-ideality
    (used by the ablation benchmarks).
    """

    #: Stateless pure function of the prepared handles — engines built
    #: against any IdealPredictor instance are interchangeable.
    cache_token = "ideal"

    @staticmethod
    def prepare_crossbar(conductances: np.ndarray, used_cols: int | None = None) -> np.ndarray:
        g = np.asarray(conductances, dtype=np.float64)
        used = g.shape[1] if used_cols is None else used_cols
        return np.ascontiguousarray(g[:, :used])

    def column_bias(self, conductances: np.ndarray) -> np.ndarray:
        return self.prepare_crossbar(conductances)

    @staticmethod
    def concat_bias(handles: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(handles, axis=1)

    @staticmethod
    def predict_from_bias(voltages: np.ndarray, column_bias: np.ndarray, chunk: int = 8192) -> np.ndarray:
        # The row-stable form makes the protocol's per-row contract
        # actually hold: each output row is one fixed ascending-K sum of
        # its own drives, so batching (and the engine's stream stacking
        # / zero-row compaction) never changes a row's bits.
        return row_stable_matmul(np.asarray(voltages), column_bias)


class CircuitPredictor:
    """Exact-but-slow backend: solves the full circuit per crossbar.

    Used for surrogate validation and small unit tests.  The *full*
    physical array is always solved (unused OFF columns still load the
    wordlines); only the used columns are reported.
    """

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self.solver = CrossbarCircuit(config.circuit, config.device)

    @property
    def cache_token(self) -> str:
        """Pure function of the config, which the engine key already covers."""
        return "circuit"

    def prepare_crossbar(
        self, conductances: np.ndarray, used_cols: int | None = None
    ) -> list[tuple[np.ndarray, int]]:
        g = np.asarray(conductances, dtype=np.float64)
        used = g.shape[1] if used_cols is None else used_cols
        return [(g, used)]

    # Kept for interface parity with GENIEx.predict.
    def column_bias(self, conductances: np.ndarray):
        return self.prepare_crossbar(conductances)

    @staticmethod
    def concat_bias(handles: list) -> list:
        return [entry for handle in handles for entry in handle]

    def predict_from_bias(
        self, voltages: np.ndarray, column_bias: list, chunk: int = 8192
    ) -> np.ndarray:
        cols = self.config.cols
        v = np.atleast_2d(np.asarray(voltages, dtype=np.float64))
        outputs = []
        for g, used in column_bias:
            block = g
            if block.shape[1] < cols:  # pad ragged array with OFF cells
                pad = np.full(
                    (block.shape[0], cols - block.shape[1]), self.config.device.g_min
                )
                block = np.concatenate([block, pad], axis=1)
            # Honor the protocol's row-block contract: the solver treats
            # each input vector independently, so blocking is exact.
            solved = np.empty((v.shape[0], cols))
            for start in range(0, v.shape[0], chunk):
                solved[start : start + chunk] = self.solver.solve(
                    v[start : start + chunk], block
                )
            outputs.append(solved[:, :used])
        return np.concatenate(outputs, axis=1)


@dataclass
class _BankChunk:
    """One physical crossbar's *used* columns within a bank.

    Crossbar columns beyond a layer's output width hold OFF cells and
    are never sensed, so the predictor only evaluates the used ones.
    """

    col_slice: slice  # output features this crossbar serves
    slice_index: int  # weight slice (LSB first)
    sign: float  # +1.0 positive array, -1.0 negative array
    offset: int  # first bank column
    width: int  # number of used columns
    weight: float = 1.0  # sign * 2**(slice_bits * slice_index), precomputed


@dataclass
class _TileRowBank:
    """All crossbars fed by one input-row segment, banked for batching."""

    handle: object  # predictor-prepared state for all used columns
    row_slice: slice  # which input features feed this bank
    chunks: list[_BankChunk]
    total_cols: int
    # Per-bank-column shift-and-add weight ``sign * 2**(slice_bits*s)``
    # (exact powers of two, so applying it vectorized is bit-identical
    # to the oracle's per-chunk scalar multiplies).
    col_weight: np.ndarray | None = None
    # Fault-free conductances for the same used columns, kept only when
    # the guard's digital fallback is enabled: ``voltages @ ideal_bias``
    # reproduces the exact integer partial products after the dummy-
    # column subtraction, i.e. the ideal digital path for this bank.
    ideal_bias: np.ndarray | None = None
    # Lazily cached ideal per-cell weight levels recovered from
    # ideal_bias for exact integer fallbacks.  Deterministic for a
    # programmed bank, so sharing it across pristine clones is safe.
    int_levels: np.ndarray | None = None


class CrossbarEngine:
    """Non-ideal MVM engine for one layer's weight matrix.

    Programs the (transposed) weight matrix onto tiled, bit-sliced,
    differential crossbar arrays at construction; :meth:`matvec`
    computes ``x @ W.T`` through the analog path.
    """

    def __init__(
        self,
        weight: np.ndarray,
        config: CrossbarConfig,
        predictor: ColumnPredictor,
        rng: np.random.Generator | None = None,
    ):
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D (out, in), got {weight.shape}")
        bs = config.bitslice
        dev = config.device
        if dev.levels_bits != bs.slice_bits:
            raise ValueError(
                f"device levels_bits ({dev.levels_bits}) must equal "
                f"bit-slice slice_bits ({bs.slice_bits})"
            )
        if config.quant.enabled and config.adc.bits is None:
            raise ValueError(
                f"quantized inference (quant.mode={config.quant.mode!r}) requires "
                "an ADC: the integer pulse-expansion path accumulates ADC codes, "
                "so adc.bits must be set"
            )
        self.config = config
        self.predictor = predictor
        self.out_features, self.in_features = weight.shape
        self._rng = rng or np.random.default_rng(0)
        self.perf = PerfCounters()

        matrix = np.asarray(weight, dtype=np.float64).T  # (in, out)
        w_abs_max = float(np.abs(matrix).max())
        self.w_scale = w_abs_max / (bs.weight_levels - 1) if w_abs_max > 0 else 1.0
        pos_int = np.clip(np.rint(np.maximum(matrix, 0) / self.w_scale), 0, bs.weight_levels - 1)
        neg_int = np.clip(np.rint(np.maximum(-matrix, 0) / self.w_scale), 0, bs.weight_levels - 1)

        device = RRAMDevice(dev)
        tiled_pos = tile_matrix(pos_int.astype(np.int64), config.rows, config.cols)
        tiled_neg = tile_matrix(neg_int.astype(np.int64), config.rows, config.cols)
        col_slices = tiled_pos.col_slices()
        n_row_tiles, n_col_tiles = tiled_pos.grid_shape

        # Fault injection: the model is created only when the config
        # enables any fault class, so the fault-free path draws no
        # randomness and stays bit-identical to a build without the
        # fault layer.  The chip token ties the fault map to this
        # chip's programming RNG (two chips -> two fault realizations).
        self.fault_summary = FaultSummary()
        fault_model: FaultModel | None = None
        if config.faults.enabled:
            chip_token = int(self._rng.integers(0, 2**31 - 1))
            fault_model = FaultModel(config.faults, dev, chip_token)
        keep_ideal = config.guard.mode == "fallback"
        self._guard_trips = 0
        self._guard_warned = False

        # Temporal drift: the model is created only when the config
        # enables it, so static chips pay nothing and draw no extra
        # randomness.  Like the fault layer, the chip token ties this
        # chip's drift realization to its programming RNG.  The pulse
        # counter always exists (cheap telemetry either way).
        self.pulse_count = 0
        self._reprogram_pulse = 0
        self._drift_applied = (0, 0)  # (age_epochs, absolute_epoch) in effect
        self._drift_model: DriftModel | None = None
        self.drift_converted = 0  # stuck-converted cells at the applied epoch
        self._drift_tiles: list[list[tuple[int, np.ndarray, int]]] = []
        self._probe_clip: list | None = None  # [clipped, samples] when probing
        self.last_probe: tuple[float, float] | None = None  # (rmse, rel dev)
        if config.drift.enabled:
            drift_token = int(self._rng.integers(0, 2**31 - 1))
            self._drift_model = DriftModel(config.drift, dev, drift_token)

        tile_index = 0
        self.banks: list[_TileRowBank] = []
        for r, row_slice in enumerate(tiled_pos.row_slices()):
            handles = []
            ideal_handles: list[np.ndarray] = []
            chunks: list[_BankChunk] = []
            drift_tiles: list[tuple[int, np.ndarray, int]] = []
            offset = 0
            for c in range(n_col_tiles):
                used = col_slices[c].stop - col_slices[c].start
                pos_slices = slice_weights(tiled_pos.tiles[r][c], bs)
                neg_slices = slice_weights(tiled_neg.tiles[r][c], bs)
                for s in range(bs.num_slices):
                    for sign, levels in ((1.0, pos_slices[s]), (-1.0, neg_slices[s])):
                        conductances = device.program(levels, self._rng)
                        if fault_model is not None:
                            conductances, tile_faults = fault_model.inject(
                                conductances, tile_index
                            )
                            self.fault_summary.merge(tile_faults)
                        if self._drift_model is not None:
                            # Pristine post-fault programmed state: the
                            # fixed point every drifted rebuild (and a
                            # reprogram cycle) starts from.
                            drift_tiles.append((tile_index, conductances.copy(), used))
                        tile_index += 1
                        handles.append(predictor.prepare_crossbar(conductances, used))
                        if keep_ideal:
                            ideal_handles.append(
                                device.level_to_conductance(levels)[:, :used]
                            )
                        chunks.append(
                            _BankChunk(
                                col_slice=col_slices[c],
                                slice_index=s,
                                sign=sign,
                                offset=offset,
                                width=used,
                                weight=sign * float(2.0 ** (bs.slice_bits * s)),
                            )
                        )
                        offset += used
            col_weight = np.empty(offset, dtype=np.float64)
            for chunk in chunks:
                col_weight[chunk.offset : chunk.offset + chunk.width] = chunk.weight
            if self._drift_model is not None:
                self._drift_tiles.append(drift_tiles)
            self.banks.append(
                _TileRowBank(
                    handle=predictor.concat_bias(handles),
                    row_slice=row_slice,
                    chunks=chunks,
                    total_cols=offset,
                    col_weight=col_weight,
                    ideal_bias=(
                        np.concatenate(ideal_handles, axis=1) if keep_ideal else None
                    ),
                )
            )
        # Drifted rebuilds derive fresh banks from the pristine tiles;
        # epoch (0, 0) restores this exact list (bitwise identity).
        self._banks_epoch0 = self.banks
        self._adc_full_scale = config.rows * dev.g_max * dev.v_read
        self._init_quant_state()
        # Per-output-column digital gain, calibrated at programming time
        # (the gain trim of each ADC/shift-add channel; see
        # CrossbarConfig.gain_calibration).  Multiplicative only, so the
        # engine stays exactly scale-equivariant in its input.
        self.gain = np.ones(self.out_features)
        if config.gain_calibration > 0:
            self.gain = self._calibrate_gain(weight, config.gain_calibration)
        # Snapshot for pristine clones handed out by the engine cache:
        # the programmed banks are immutable, but ``gain`` may later be
        # refit against real activations.
        self._pristine_gain = self.gain.copy()

    def _init_quant_state(self) -> None:
        """Derive the integer-path constants from the config.

        ``x_scale`` is the static per-layer input scale of the
        quantized mode — ``None`` until calibration sets it (see
        :meth:`set_input_scale`), during which matvec serves through
        the float path.  The remaining constants are pure functions of
        the config.
        """
        qc = self.config.quant
        self.x_scale: float | None = None
        #: Pinned full-scale DAC input range (serving mode).  ``None``
        #: keeps the historical per-batch auto-ranging; a value makes
        #: every row digitize against the same reference voltage, so
        #: per-row outputs become independent of batch composition —
        #: the identity contract of :mod:`repro.serve` (see
        #: :meth:`set_dac_range`).
        self.dac_range: float | None = None
        #: Largest |activation| observed by the most recent calibration
        #: sweep — the deterministic source serving mode pins the DAC
        #: range from (mirrors the quantized mode's static input scale).
        self.cal_amax: float = 0.0
        if not qc.enabled:
            return
        adc = self.config.adc
        if adc.bits is None:
            raise ValueError(
                f"quantized inference (quant.mode={qc.mode!r}) requires an ADC: "
                "the integer pulse-expansion path accumulates ADC codes, so "
                "adc.bits must be set"
            )
        dev = self.config.device
        # One DAC pulse plane drives plane_levels-1 steps of v_read.
        self._quant_v_step = dev.v_read / (qc.plane_levels - 1)
        self._quant_full_scale = adc.full_scale_fraction * self._adc_full_scale
        self._quant_lsb = self._quant_full_scale / (2**adc.bits - 1)
        self._quant_denom = dev.g_step * self._quant_v_step

    @property
    def quant_active(self) -> bool:
        """True when matvec serves through the integer path."""
        return self.config.quant.enabled and self.x_scale is not None

    def set_input_scale(self, scale: float) -> None:
        """Install the calibrated static input scale (enables int mode)."""
        if not self.config.quant.enabled:
            raise ValueError(
                "input scale is only meaningful with quant.mode enabled"
            )
        scale = float(scale)
        if not scale > 0.0 or not np.isfinite(scale):
            raise ValueError(f"input scale must be positive and finite, got {scale}")
        self.x_scale = scale

    def set_dac_range(self, limit: float) -> None:
        """Pin the DAC's full-scale input range (serving mode).

        The float path historically auto-ranges the input DAC per batch
        (``x_lsb = batch_max / levels``), which makes the *same* input
        row digitize to different codes depending on which batch it
        rides in — physically a per-conversion reference sweep no
        deployed periphery performs, and numerically the one thing that
        breaks batch-composition independence of the analog chain.
        Pinning the range models a fixed reference voltage: every row
        quantizes against ``limit`` regardless of its batch, inputs
        beyond the range clip (as a real fixed-reference DAC would),
        and coalesced micro-batches become bit-identical to per-request
        inference.  :func:`repro.serve.pin_for_serving` installs the
        calibration sweep's observed activation maximum here.
        """
        limit = float(limit)
        if not limit > 0.0 or not np.isfinite(limit):
            raise ValueError(f"DAC range must be positive and finite, got {limit}")
        self.dac_range = limit

    def clone_pristine(self) -> "CrossbarEngine":
        """A fresh-build-equivalent engine sharing the programmed banks.

        The banks (prepared predictor handles, fault maps, ideal-bias
        fallbacks) are immutable after programming and expensive to
        rebuild, so clones share them.  Mutable state — the gain vector,
        guard counters, perf counters, streaming-calibration scratch and
        the voltage workspace — is reset to what a fresh build with the
        same seed would hold.
        """
        dup = copy.copy(self)
        dup.gain = self._pristine_gain.copy()
        dup._guard_trips = 0
        dup._guard_warned = False
        dup.perf = PerfCounters()
        # A clone is a factory-fresh chip: zero age, epoch-0 banks.  The
        # pristine tiles and the drift model are immutable and shared;
        # drifted rebuilds allocate new bank lists per clone, so an aged
        # original can never leak its state into (or out of) a clone.
        dup.pulse_count = 0
        dup._reprogram_pulse = 0
        dup._drift_applied = (0, 0)
        dup.drift_converted = 0
        dup.banks = self._banks_epoch0
        dup._probe_clip = None
        dup.last_probe = None
        # A fresh chip has no calibrated input scale yet: int mode
        # re-arms only after the clone's own calibration pass, and the
        # serving-mode DAC pin must be re-derived the same way.
        dup.x_scale = None
        dup.dac_range = None
        dup.cal_amax = 0.0
        for attr in (
            "_gain_sum_aa", "_gain_sum_ai", "_gain_rows", "_cal_amax",
            "_volt_buf", "_stream_ws", "_plane_ws",
            "_packed_codes_buf", "_expand_codes_buf",
        ):
            dup.__dict__.pop(attr, None)
        return dup

    def _solve_gains(self, sum_analog_ideal: np.ndarray, sum_analog_sq: np.ndarray) -> np.ndarray:
        """Shared per-column least-squares gain solve.

        Every gain fit in the engine — the construction-time probe fit,
        a one-shot refit and the streaming accumulation — reduces to the
        same ratio of sufficient statistics, clipped to :data:`GAIN_CLIP`
        to guard against degenerate fits on nearly-dead columns.
        """
        gains = np.divide(
            sum_analog_ideal,
            sum_analog_sq,
            out=np.ones(self.out_features),
            where=sum_analog_sq > 0,
        )
        return np.clip(gains, *GAIN_CLIP)

    def _calibrate_gain(self, weight: np.ndarray, num_vectors: int) -> np.ndarray:
        """Per-column least-squares gains aligning analog to ideal.

        Uses random non-negative probe vectors (the statistics of
        post-ReLU activations); for each output column the fit
        minimizes ``||g_j * y_j - y_ideal_j||``.  This removes the
        *systematic* (column-position and weight-pattern dependent)
        part of the IR-drop error; the input-dependent part — the
        source of the paper's gradient obfuscation — remains.
        """
        rng = np.random.default_rng(12345)
        probes = rng.random((num_vectors, self.in_features))
        probes *= rng.random((num_vectors, self.in_features)) < 0.6  # sparsity
        analog = self._matvec_unsigned(probes)
        ideal = probes @ np.asarray(weight, dtype=np.float64).T
        return self._solve_gains(
            np.sum(analog * ideal, axis=0), np.sum(analog * analog, axis=0)
        )

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Non-ideal ``x @ W.T`` for a batch ``x`` of shape (N, in)."""
        return self.gain * self.matvec_raw(x)

    def matvec_raw(self, x: np.ndarray) -> np.ndarray:
        """Analog result before the periphery's digital gain trim."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"input shape {x.shape} incompatible with in_features={self.in_features}"
            )
        if not np.isfinite(x).all():
            bad = int((~np.isfinite(x)).sum())
            raise ValueError(
                f"crossbar input contains {bad} non-finite value(s) (NaN/Inf); "
                "inputs are quantized to integer DAC levels, so non-finite "
                "entries would silently corrupt every output column — "
                "sanitize the batch before calling matvec"
            )
        self.perf.matvec_calls += 1
        self.perf.matvec_rows += x.shape[0]
        # Read activity ages the chip: one pulse per input vector.  The
        # counter only *records* time — conductances change exclusively
        # at explicit sync_drift() points, so a batch (or a whole
        # parallel map) always runs at one frozen epoch and serial vs
        # sharded execution stay bit-identical.
        self.pulse_count += x.shape[0]
        with _span("xbar/matvec"):
            if self.quant_active:
                return self._matvec_int(x)
            if (x >= 0).all():
                return self._matvec_unsigned(x)
            positive = self._matvec_unsigned(np.maximum(x, 0.0))
            negative = self._matvec_unsigned(np.maximum(-x, 0.0))
            return positive - negative

    # ------------------------------------------------------------------
    # Temporal drift (see repro.xbar.drift)
    # ------------------------------------------------------------------
    @property
    def drift_enabled(self) -> bool:
        return self._drift_model is not None

    @property
    def drift_epoch(self) -> int:
        """Absolute drift epoch implied by the pulse counter."""
        if self._drift_model is None:
            return 0
        return self._drift_model.epoch_for(self.pulse_count)

    @property
    def drift_age_epochs(self) -> int:
        """Epochs elapsed since the last reprogram (drives decay)."""
        if self._drift_model is None:
            return 0
        return self._drift_model.epoch_for(self.pulse_count - self._reprogram_pulse)

    @property
    def applied_drift_epoch(self) -> int:
        """The absolute epoch the current banks were derived at."""
        return self._drift_applied[1]

    def sync_drift(self) -> bool:
        """Apply the drift epoch implied by the pulse counter.

        This is the *only* place effective conductances move in time:
        the hot path just counts pulses, and callers (the lifecycle
        scheduler, experiment loops) sync between query blocks.  Returns
        True when the banks actually changed — the caller must then
        invalidate any parallel-backend share of the owning model.
        """
        if self._drift_model is None:
            return False
        target = (self.drift_age_epochs, self.drift_epoch)
        if target == self._drift_applied:
            return False
        self._rebuild_drifted_banks(*target)
        return True

    def reprogram(self) -> int:
        """Read-verify-rewrite every cell back to its programmed target.

        Resets the retention/read-disturb clock (decay restarts from the
        pristine programmed state) and the ADC gain trim (part of the
        programming-time bring-up, so a rewritten chip starts from the
        same state a fresh build would) — but *not* the absolute epoch:
        cells the stuck lottery has converted stay dead forever.
        Returns the number of dead cells that persist after the rewrite.
        """
        if self._drift_model is None:
            return 0
        self._reprogram_pulse = self.pulse_count
        self.gain = self._pristine_gain.copy()
        self._rebuild_drifted_banks(0, self.drift_epoch)
        return self.drift_converted

    def _rebuild_drifted_banks(self, age_epochs: int, absolute_epoch: int) -> None:
        """Derive the banks in effect at ``(age, absolute)`` epochs.

        Never mutates existing bank objects — pristine clones share the
        epoch-0 list, so a drifted state always materializes as *new*
        banks (with fresh predictor handles).  The metadata (chunks,
        col_weight, ideal_bias) describes the layout, not the
        conductances, and is shared unchanged.
        """
        model = self._drift_model
        assert model is not None
        if age_epochs == 0 and (
            absolute_epoch == 0 or not model.config.has_stuck_conversion
        ):
            self.banks = self._banks_epoch0
            self.drift_converted = 0
            self._drift_applied = (age_epochs, absolute_epoch)
            return
        predictor = self.predictor
        banks: list[_TileRowBank] = []
        converted = 0
        for bank0, tiles in zip(self._banks_epoch0, self._drift_tiles):
            handles = []
            for tile_index, pristine, used in tiles:
                g = model.drift_tile(pristine, tile_index, age_epochs, absolute_epoch)
                if model.config.has_stuck_conversion:
                    converted += model.dead_count(
                        pristine.shape, tile_index, absolute_epoch
                    )
                handles.append(predictor.prepare_crossbar(g, used))
            banks.append(
                _TileRowBank(
                    handle=predictor.concat_bias(handles),
                    row_slice=bank0.row_slice,
                    chunks=bank0.chunks,
                    total_cols=bank0.total_cols,
                    col_weight=bank0.col_weight,
                    ideal_bias=bank0.ideal_bias,
                )
            )
        self.banks = banks
        self.drift_converted = converted
        self._drift_applied = (age_epochs, absolute_epoch)

    def drift_state(self) -> dict:
        """The resumable temporal coordinates of this chip."""
        return {
            "pulse_count": int(self.pulse_count),
            "reprogram_pulse": int(self._reprogram_pulse),
            "epoch": self.drift_epoch,
            "age_epochs": self.drift_age_epochs,
            "applied_epoch": self.applied_drift_epoch,
            "converted": int(self.drift_converted),
        }

    def restore_drift_state(self, state: dict) -> None:
        """Resume a chip at saved temporal coordinates (and sync)."""
        self.pulse_count = int(state["pulse_count"])
        self._reprogram_pulse = int(state.get("reprogram_pulse", 0))
        self.sync_drift()

    def refit_gain(self, vectors: np.ndarray, weight: np.ndarray) -> None:
        """Recalibrate per-column gains against real activation vectors.

        Called by :func:`calibrate_hardware` with the actual inputs each
        layer sees on a calibration set — the probe-based gains from
        construction are only a coarse starting point, since uniform
        probes poorly match post-ReLU activation statistics.
        """
        analog = self.matvec_raw(vectors)
        ideal = np.asarray(vectors, dtype=np.float64) @ np.asarray(weight, dtype=np.float64).T
        self.gain = self._solve_gains(
            np.sum(analog * ideal, axis=0), np.sum(analog * analog, axis=0)
        )

    def begin_gain_accumulation(self) -> None:
        """Reset the streaming gain-fit statistics.

        The per-column least-squares gain is a ratio of two sums over
        calibration vectors, so it can be accumulated batch by batch
        without holding all vectors in memory — this is how
        :func:`calibrate_hardware` covers an arbitrarily large
        calibration set in one sweep.
        """
        self._gain_sum_aa = np.zeros(self.out_features)
        self._gain_sum_ai = np.zeros(self.out_features)
        self._gain_rows = 0
        # Streamed |activation| maximum — the quantized mode's static
        # per-layer input scale comes from the same calibration sweep.
        self._cal_amax = 0.0

    def accumulate_gain(self, vectors: np.ndarray, weight: np.ndarray) -> None:
        """Fold one batch of calibration vectors into the gain fit."""
        if not hasattr(self, "_gain_rows"):
            self.begin_gain_accumulation()
        if len(vectors):
            # max() is order-independent, so sharded sweeps merge to the
            # same scale as the serial one.  Tracked unconditionally:
            # the quantized mode derives its static input scale from it
            # and serving mode pins the float DAC range from it.
            amax = float(np.abs(np.asarray(vectors, dtype=np.float64)).max())
            self._cal_amax = max(self._cal_amax, amax)
        analog = self.matvec_raw(vectors)
        ideal = np.asarray(vectors, dtype=np.float64) @ np.asarray(weight, dtype=np.float64).T
        self._gain_sum_aa += np.sum(analog * analog, axis=0)
        self._gain_sum_ai += np.sum(analog * ideal, axis=0)
        self._gain_rows += len(vectors)

    def finish_gain_accumulation(self) -> None:
        """Set gains from the accumulated statistics (no-op if empty)."""
        if getattr(self, "_gain_rows", 0) > 0:
            self.gain = self._solve_gains(self._gain_sum_ai, self._gain_sum_aa)
            self.cal_amax = max(
                getattr(self, "cal_amax", 0.0), getattr(self, "_cal_amax", 0.0)
            )
            if self.config.quant.enabled and self.x_scale is None:
                self.set_input_scale(
                    compute_scale(
                        getattr(self, "_cal_amax", 0.0),
                        self.config.quant.half_level,
                    )
                )
        for attr in ("_gain_sum_aa", "_gain_sum_ai", "_gain_rows", "_cal_amax"):
            if hasattr(self, attr):
                delattr(self, attr)

    def _matvec_unsigned(self, x: np.ndarray) -> np.ndarray:
        bs = self.config.bitslice
        n = x.shape[0]
        out = np.zeros((n, self.out_features), dtype=np.float64)
        if n == 0:  # empty batch: nothing to drive (x.max() would raise)
            return out

        if self.dac_range is not None:
            # Fixed-reference DAC: quantize every batch against the
            # pinned full-scale range so outputs are independent of
            # batch composition; out-of-range inputs clip exactly as a
            # real fixed-reference converter would.
            x_max = self.dac_range
            x = np.minimum(x, x_max)
        else:
            x_max = float(x.max())
            if x_max == 0.0:
                return out
        x_lsb = x_max / (bs.input_levels - 1)
        streams = self._stream_workspace().quantize_and_stream(x, x_lsb, bs)
        self._accumulate_streams(out, streams)
        return out * (x_lsb * self.w_scale)

    def _predict_packed(
        self, bank: _TileRowBank, planes: list[np.ndarray], v_step: float, kind: str
    ):
        """Evaluate every non-zero plane of ``bank`` in one predictor call.

        The front half shared by both kernels (``planes`` are the float
        path's bit-streams or the integer path's pulse planes; ``kind``
        names their perf counters).  All non-zero planes stack along the
        batch axis into one ``(rows_kept, rows)`` voltage matrix.  Every
        backend computes output rows independently (its batch matmuls
        are :func:`repro.xbar.numerics.row_stable_matmul`'s fixed
        ascending-K sum — plain BLAS GEMM is *not* row-stable), so
        stacking never changes a row's bits.

        All-zero *rows* within an evaluated plane are compacted away
        before the call: a row with no drive has no source, so it draws
        no current and contributes exactly 0 (:meth:`_unpack` scatters
        the driven rows into zeros).  Post-ReLU activations make the
        high-significance planes mostly zero, so this routinely removes
        the bulk of the predictor work.

        Returns ``None`` when no plane drives this bank, else ``(active,
        volts, packed)``: ``active[k]`` is (plane index, kept row indices
        or ``None`` for all rows, first packed row, packed row count),
        ``volts`` the packed voltages and ``packed`` their currents.
        """
        n = planes[0].shape[0]
        rows = self.config.rows
        width = bank.row_slice.stop - bank.row_slice.start
        perf = self.perf
        segs: list[tuple[int, np.ndarray | None, np.ndarray]] = []
        for t, plane in enumerate(planes):
            seg = plane[:, bank.row_slice]
            nz = seg.any(axis=1)
            nnz = int(np.count_nonzero(nz))
            if nnz == n:
                segs.append((t, None, seg))
            elif nnz:
                segs.append((t, np.flatnonzero(nz), seg[nz]))
        skipped = f"{kind}_skipped"
        setattr(perf, skipped, getattr(perf, skipped) + len(planes) - len(segs))
        if not segs:
            return None
        packed_rows = sum(seg.shape[0] for _t, _idx, seg in segs)
        perf.rows_compacted += len(segs) * n - packed_rows
        volts = self._voltage_workspace(packed_rows, rows)
        if width < rows:
            volts[:, width:] = 0.0  # padding rows drive no voltage
        active: list[tuple[int, np.ndarray | None, int, int]] = []
        pos = 0
        for t, idx, seg in segs:
            cnt = seg.shape[0]
            np.multiply(seg, v_step, out=volts[pos : pos + cnt, :width])
            active.append((t, idx, pos, cnt))
            pos += cnt
        start = time.perf_counter()
        with _span("bank"):
            packed = self.predictor.predict_from_bias(volts, bank.handle)
        perf.predictor_seconds += time.perf_counter() - start
        perf.bank_evals += 1
        evaluated = f"{kind}_evaluated"
        setattr(perf, evaluated, getattr(perf, evaluated) + len(active))
        self._observe_adc(packed)
        return active, volts, packed

    @staticmethod
    def _unpack(packed: np.ndarray, active: list, n: int) -> np.ndarray:
        """Scatter packed rows into dense per-plane blocks of ``n`` rows.

        Block ``k`` holds plane ``active[k]``; the rows compaction
        removed drove nothing and read exactly 0.  Returns ``packed``
        itself when no row was compacted (the layouts then coincide).
        """
        if all(idx is None for _t, idx, _pos, _cnt in active):
            return packed
        dense = np.zeros((len(active) * n, packed.shape[1]), dtype=packed.dtype)
        for k, (_t, idx, pos, cnt) in enumerate(active):
            rows = slice(k * n, (k + 1) * n) if idx is None else k * n + idx
            dense[rows] = packed[pos : pos + cnt]
        return dense

    def _accumulate_streams(self, out: np.ndarray, streams: list[np.ndarray]) -> None:
        """Float-path kernel: one predictor call per tile-row bank.

        After :meth:`_predict_packed`, the per-element transforms (ADC
        quantization, dummy-column subtraction) apply identically to
        the stacked matrix and the shift-and-add scalings are exact
        powers of two, so the result is bit-identical to the naive
        per-(bank, stream) oracle of :mod:`repro.verify.oracle`.
        """
        bs = self.config.bitslice
        dev = self.config.device
        n = out.shape[0]
        v_step = dev.v_read / (bs.stream_levels - 1)
        adc = self.config.adc
        denom = dev.g_step * v_step
        full_scale = adc.full_scale_fraction * self._adc_full_scale
        lsb = full_scale / (2**adc.bits - 1) if adc.bits is not None else 1.0
        sat_limit = self._guard_limit()
        for bank in self.banks:
            evaluated = self._predict_packed(bank, streams, v_step, "streams")
            if evaluated is None:
                continue
            active, volts, packed = evaluated
            packed_v_sum = volts.sum(axis=1, keepdims=True)
            # Fast path: ADC quantization, the G_min dummy-column
            # subtraction, dot recovery and the per-chunk significance
            # weights fuse into one compiled pass over the *packed*
            # rows only; the same pass probes tile health on the raw
            # currents.  Bit-identical to the numpy chain below;
            # anything sick — which requires injected faults — falls
            # through to the per-stream guard chain so trip counts and
            # warn ordering stay exact, as does a missing compiler.
            res = _ckernels.dequant_dots(
                packed, packed_v_sum, bank.col_weight,
                adc_bits=adc.bits, full_scale=full_scale, lsb=lsb,
                g_min=dev.g_min, denom=denom, sat_limit=sat_limit,
            )
            if res is not None and not res[1]:
                weighted = self._unpack(res[0], active, n)
            else:
                currents = self._unpack(packed, active, n)
                v_sum = self._unpack(packed_v_sum, active, n)
                # Health checks run per stream slice so guard-trip
                # counts and warn-once ordering match the oracle's
                # per-(bank, stream) evaluation exactly.
                fallbacks = [
                    self._check_tile_health(currents[k * n : (k + 1) * n], bank)
                    for k in range(len(active))
                ]
                currents = quantize_current(currents, adc, self._adc_full_scale)
                for k, mask in enumerate(fallbacks):
                    if mask is not None:
                        blk = slice(k * n, (k + 1) * n)
                        _t, idx, pos, cnt = active[k]
                        if idx is None:
                            stream_volts = volts[pos : pos + cnt]
                        else:
                            # Rebuild the full voltage block only for the
                            # rare fallback path; zero rows fall back to
                            # exact zeros.
                            stream_volts = np.zeros((n, self.config.rows))
                            stream_volts[idx] = volts[pos : pos + cnt]
                        currents[blk][:, mask] = stream_volts @ bank.ideal_bias[:, mask]
                # Remove the G_min offset (dummy-column subtraction) and
                # rescale currents back to integer dot products —
                # elementwise, so doing it once on the stack is exact.
                dots = (currents - dev.g_min * v_sum) / denom
                # Fold each chunk's ``sign * 2**(slice_bits * s)`` into
                # one vectorized multiply; it and the stream scale are
                # exact powers of two, so the factored product matches
                # the oracle's fused scalar multiply bit for bit.
                weighted = dots * bank.col_weight
            for k, (t, _idx, _pos, _cnt) in enumerate(active):
                stream_scale = float(2.0 ** (bs.stream_bits * t))
                blk = weighted[k * n : (k + 1) * n]
                for chunk in bank.chunks:
                    src = blk[:, chunk.offset : chunk.offset + chunk.width]
                    dst = out[:, chunk.col_slice]
                    if not _ckernels.axpy_block(dst, src, stream_scale):
                        dst += stream_scale * src

    # ------------------------------------------------------------------
    # Integer pulse-expansion path (see repro.xbar.quant)
    # ------------------------------------------------------------------
    def _matvec_int(self, x: np.ndarray) -> np.ndarray:
        """Quantized-mode MVM: shift-and-add over integer ADC codes.

        Activations quantize **once** against the calibrated static
        scale (``x_scale``) into signed codes, split into sign-magnitude
        DAC pulse planes; each (pass, bank, plane) evaluation's raw ADC
        codes accumulate into an int64 matrix ``A`` with exact
        power-of-two shift-and-add factors.  The differential scheme
        makes the ``G_min`` dummy-column term common-mode (equal and
        opposite factors within every tile pair), so a **single**
        dequantization multiply at the very end recovers the output —
        no per-(bank, stream) float rescale chain.

        Guard fallbacks accumulate separately in ``B`` as exact integer
        ideal dot products (``plane_seg @ int_levels``), dequantized by
        the plain ``x_scale * w_scale`` product.  Integer accumulation
        is order-exact, so the kernel, the oracle and any worker
        sharding agree bit for bit.
        """
        qc = self.config.quant
        n = x.shape[0]
        self.perf.int_matvec_calls += 1
        out = np.zeros((n, self.out_features), dtype=np.float64)
        if n == 0:
            return out
        ws = self._plane_workspace()
        codes = ws.quantize(x, self.x_scale, qc)
        A = np.zeros((n, self.out_features), dtype=np.int64)
        B: np.ndarray | None = None
        passes = (1, -1) if bool((codes < 0).any()) else (1,)
        for sign in passes:
            mags = ws.magnitudes(codes, sign)
            if not mags.any():
                continue
            planes = ws.planes(mags, qc)
            B = self._accumulate_planes(A, B, planes, sign)
        # Headroom telemetry: the engine's int64 accumulator is exact,
        # but a 32-bit hardware shift-and-add register would have
        # saturated on this batch.
        if max(int(A.max()), -int(A.min())) > 2**31 - 1:
            self.perf.int_sat_events += 1
        k_dot = self.x_scale * self.w_scale
        np.multiply(A, k_dot * (self._quant_lsb / self._quant_denom), out=out)
        if B is not None:
            out += B * k_dot
        return out

    def _accumulate_planes(
        self,
        A: np.ndarray,
        B: np.ndarray | None,
        planes: list[np.ndarray],
        sign: int,
    ) -> np.ndarray | None:
        """Integer kernel: one predictor call per bank.

        After :meth:`_predict_packed` the chain is integer: one ADC-code
        pass over the packed rows, which also probes tile health, then
        exact shift-and-add.  Anything unhealthy (requires injected
        faults) expands back to dense per-plane blocks and runs the
        guard chain plane by plane, so trip counts and warn ordering
        match the oracle exactly.
        """
        n = A.shape[0]
        for bank in self.banks:
            evaluated = self._predict_packed(bank, planes, self._quant_v_step, "planes")
            if evaluated is None:
                continue
            active, _volts, packed = evaluated
            cols = bank.total_cols
            pk = self._int_workspace("_packed_codes_buf", packed.shape[0], cols)
            if not self._adc_int_codes(packed, out=pk, check=True)[1]:
                for t, idx, pos, cnt in active:
                    codes_blk = pk[pos : pos + cnt]
                    if idx is not None:
                        # Compacted-away rows drove nothing: code 0.
                        exp = self._int_workspace("_expand_codes_buf", n, cols)
                        exp.fill(0)
                        exp[idx] = codes_blk
                        codes_blk = exp
                    B = self._int_accumulate_chunks(
                        A, B, codes_blk, bank, None, sign, t, None
                    )
            else:
                currents = self._unpack(packed, active, n)
                for k, (t, _idx, _pos, _cnt) in enumerate(active):
                    blk = currents[k * n : (k + 1) * n]
                    fallback_cols = self._check_tile_health(blk, bank)
                    B = self._int_accumulate_chunks(
                        A, B, self._adc_int_codes(blk)[0], bank,
                        planes[t][:, bank.row_slice], sign, t,
                        self._fallback_groups(bank, fallback_cols),
                    )
        return B

    def _int_accumulate_chunks(
        self,
        A: np.ndarray,
        B: np.ndarray | None,
        codes: np.ndarray,
        bank: _TileRowBank,
        seg: np.ndarray | None,
        sign: int,
        t: int,
        marked: "set[tuple[int, int]] | None",
    ) -> np.ndarray | None:
        """Shift-and-add one (pass, bank, plane) ADC-code block into A/B.

        ``marked`` holds the output-column groups whose tiles the guard
        sent to the digital fallback; those accumulate **exact integer
        ideal dots** (``seg @ int_levels``) into ``B`` instead.  The
        whole differential group falls back together — replacing only
        one array of a pos/neg pair would break the common-mode
        cancellation the single-dequant scheme relies on.
        """
        bs = self.config.bitslice
        sb = self.config.quant.stream_bits
        seg32: np.ndarray | None = None
        for chunk in bank.chunks:
            factor = (
                int(sign)
                * int(chunk.sign)
                * (1 << (bs.slice_bits * chunk.slice_index + sb * t))
            )
            if marked and (chunk.col_slice.start, chunk.col_slice.stop) in marked:
                if seg32 is None:
                    seg32 = np.ascontiguousarray(seg, dtype=np.int32)
                    ilv = self._int_ideal_levels(bank)
                if B is None:
                    B = np.zeros_like(A)
                dots = integer_mvm(
                    seg32,
                    ilv[: seg32.shape[1], chunk.offset : chunk.offset + chunk.width],
                )
                B[:, chunk.col_slice] += dots * factor
            else:
                dst = A[:, chunk.col_slice]
                src = codes[:, chunk.offset : chunk.offset + chunk.width]
                if not _ckernels.int_axpy(dst, src, factor):
                    dst += src.astype(np.int64) * factor
        return B

    def _fallback_groups(
        self, bank: _TileRowBank, fallback_cols: np.ndarray | None
    ) -> "set[tuple[int, int]] | None":
        """Widen a guard column mask to whole differential column groups."""
        if fallback_cols is None:
            return None
        return {
            (c.col_slice.start, c.col_slice.stop)
            for c in bank.chunks
            if fallback_cols[c.offset]
        }

    def _adc_int_codes(
        self, currents: np.ndarray, out: np.ndarray | None = None, check: bool = False
    ) -> tuple[np.ndarray, bool]:
        """Raw ADC codes ``rint(clip(I, 0, full_scale) / lsb)`` as int32.

        Non-finite currents digitize to code 0 — a dead ADC lane reads
        zero; the compiled kernel and the numpy fallback implement the
        same rule, so the integer path never propagates NaN/Inf (the
        guard decides what, if anything, replaces the sick columns).

        With ``check`` the same pass probes tile health with the
        guard's rule (:meth:`_guard_limit`).  Returns ``(codes, sick)``;
        the codes are only valid when nothing is sick.
        """
        if out is None:
            out = np.empty(currents.shape, dtype=np.int32)
        limit = self._guard_limit() if check else None
        sick = _ckernels.adc_codes(
            currents, out, full_scale=self._quant_full_scale, lsb=self._quant_lsb,
            sat_limit=limit,
        )
        if sick is not None:
            return out, sick
        if limit is not None and self._sick_currents(currents).any():
            return out, True
        q = np.clip(currents, 0.0, self._quant_full_scale)
        q /= self._quant_lsb
        np.rint(q, out=q)
        if not np.isfinite(currents).all():
            q[~np.isfinite(currents)] = 0.0
        out[...] = q
        return out, False

    def _int_ideal_levels(self, bank: _TileRowBank) -> np.ndarray:
        """Exact per-cell weight levels for integer guard fallbacks.

        Recovered from the fault-free conductances kept for the float
        fallback: ``levels = rint((G - g_min) / g_step)``.  Lazily
        cached on the bank — deterministic for a programmed bank, so
        sharing across pristine clones is safe.
        """
        if bank.int_levels is None:
            dev = self.config.device
            levels = np.rint((bank.ideal_bias - dev.g_min) / dev.g_step)
            bank.int_levels = levels.astype(np.int32)
        return bank.int_levels

    def _int_workspace(self, name: str, m: int, cols: int) -> np.ndarray:
        """Reusable int32 code buffer for the integer kernel."""
        buf = getattr(self, name, None)
        if buf is None or buf.shape[0] < m or buf.shape[1] != cols:
            buf = np.empty((m, cols), dtype=np.int32)
            setattr(self, name, buf)
        return buf[:m]

    def _stream_workspace(self) -> StreamWorkspace:
        """Lazily created float-path quantize/stream scratch buffers."""
        ws = getattr(self, "_stream_ws", None)
        if ws is None:
            ws = self._stream_ws = StreamWorkspace()
        return ws

    def _plane_workspace(self) -> PlaneWorkspace:
        """Lazily created integer-path quantize/plane scratch buffers."""
        ws = getattr(self, "_plane_ws", None)
        if ws is None:
            ws = self._plane_ws = PlaneWorkspace()
        return ws

    def _observe_adc(self, currents: np.ndarray) -> None:
        """Report raw bank currents to the ADC observers.

        Two consumers share this seam: the obs layer's clip-rate
        telemetry (active only inside an ``--obs`` run) and the health
        probe's local clip accumulator (armed by
        :func:`repro.lifecycle.probe_health` so the recalibration
        scheduler can read clip rates without an obs session).
        """
        if self.config.adc.bits is None:
            return
        probe = self._probe_clip
        if probe is None and not _obs.active():
            return
        full_scale = self.config.adc.full_scale_fraction * self._adc_full_scale
        if _obs.active():
            _obs.record_adc(_obs.layer_label(self), currents, full_scale)
        if probe is not None:
            probe[0] += int((currents < 0.0).sum()) + int((currents > full_scale).sum())
            probe[1] += currents.size

    def _voltage_workspace(self, m: int, rows: int) -> np.ndarray:
        """Reusable float64 voltage buffer for the packed bank evaluation."""
        buf = getattr(self, "_volt_buf", None)
        if buf is None or buf.shape[0] < m or buf.shape[1] != rows:
            buf = np.empty((m, rows), dtype=np.float64)
            self._volt_buf = buf
        return buf[:m]

    # ------------------------------------------------------------------
    # Graceful degradation (see repro.xbar.faults.GuardConfig)
    # ------------------------------------------------------------------
    @property
    def guard_trips(self) -> int:
        """How many bank evaluations the health guard has intercepted."""
        return self._guard_trips

    def _guard_limit(self) -> float | None:
        """The health guard's sick-current threshold (``None``: guard off).

        One rule decides whether a raw current is sick: non-finite, or
        ``|I|`` above this limit (``inf`` without a saturation factor).
        :meth:`_sick_currents` applies it, and the compiled
        dequantization (float) and ADC-code (int8) passes fuse the same
        test.
        """
        guard = self.config.guard
        if not guard.active:
            return None
        if guard.saturation_factor is None:
            return np.inf
        return guard.saturation_factor * self._adc_full_scale

    def _sick_currents(self, currents: np.ndarray) -> np.ndarray | None:
        """Per-element sick mask of ``currents`` (``None``: guard off)."""
        limit = self._guard_limit()
        if limit is None:
            return None
        return ~np.isfinite(currents) | (np.abs(currents) > limit)

    def _check_tile_health(
        self, currents: np.ndarray, bank: _TileRowBank
    ) -> np.ndarray | None:
        """Detect non-finite / saturated analog outputs for one bank.

        Returns a boolean column mask (expanded to whole-tile extents)
        to fall back to the digital path, or ``None`` when nothing needs
        replacing.  Modes: ``off`` skips detection, ``warn`` only logs,
        ``raise`` aborts the forward pass, ``fallback`` (default)
        substitutes the ideal partial products.
        """
        guard = self.config.guard
        sick = self._sick_currents(currents)
        if sick is None or not sick.any():
            return None
        self._guard_trips += 1
        sick_cols = sick.any(axis=0)
        if _obs.active():
            _obs.record_guard_trip(
                _obs.layer_label(self),
                guard.mode,
                int(sick.sum()),
                int(sick_cols.sum()),
            )
        detail = (
            f"{int(sick.sum())} sick current(s) across {int(sick_cols.sum())} "
            f"column(s) of a {self.out_features}-output engine "
            f"(mode={guard.mode})"
        )
        if guard.mode == "raise":
            raise TileHealthError(f"crossbar tile output unhealthy: {detail}")
        if not self._guard_warned:
            action = (
                "falling back to the digital path"
                if guard.mode == "fallback"
                else "keeping analog values"
            )
            logger.warning("crossbar tile output unhealthy: %s; %s", detail, action)
            self._guard_warned = True
        else:
            logger.debug("crossbar tile health guard tripped again: %s", detail)
        if guard.mode != "fallback":
            return None
        # Widen to whole tiles: the periphery swaps a tile's ADC lane
        # for the digital partial sum, not single columns.
        fallback = np.zeros_like(sick_cols)
        for chunk in bank.chunks:
            span = slice(chunk.offset, chunk.offset + chunk.width)
            if sick_cols[span].any():
                fallback[span] = True
        return fallback

    def ideal_matvec(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Reference ideal computation (digital float)."""
        return np.asarray(x) @ np.asarray(weight).T


def build_engine(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor: ColumnPredictor | None = None,
    rng: np.random.Generator | None = None,
) -> CrossbarEngine:
    """Convenience constructor defaulting to the cached GENIEx backend."""
    predictor = predictor or load_or_train_geniex(config)
    return CrossbarEngine(weight, config, predictor, rng)


class NonIdealLinear(Module):
    """Linear layer executed on the non-ideal crossbar hardware.

    Forward uses the analog path; backward applies the ideal Jacobian
    (``grad @ W``) — the hardware-in-loop convention.
    """

    def __init__(
        self,
        source: Linear,
        config: CrossbarConfig,
        predictor: ColumnPredictor,
        rng=None,
        engine: CrossbarEngine | None = None,
    ):
        super().__init__()
        self.in_features = source.in_features
        self.out_features = source.out_features
        self.weight_float = source.weight.data.copy()
        self.bias_float = source.bias.data.copy() if source.bias is not None else None
        # ``engine`` lets convert_to_hardware supply a cached programmed
        # engine instead of paying the full programming cost again.
        self.engine = engine or CrossbarEngine(self.weight_float, config, predictor, rng)
        self._pending_calibration = False
        self._probe_health = False
        self._max_calibration_vectors = 2048

    def forward(self, x: Tensor) -> Tensor:
        if self._pending_calibration:
            vectors = _subsample_rows(x.data, self._max_calibration_vectors)
            self.engine.accumulate_gain(vectors, self.weight_float)
        analog = self.engine.matvec(x.data)
        if self._probe_health or _obs.active():
            ideal = np.asarray(x.data, dtype=np.float64) @ self.weight_float.T
            if _obs.active():
                _obs.record_layer_deviation(_obs.layer_label(self), analog, ideal)
            if self._probe_health:
                self.engine.last_probe = _obs.deviation_stats(analog, ideal)
        out = analog.astype(np.float32)
        if self.bias_float is not None:
            out = out + self.bias_float

        weight = self.weight_float

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(grad @ weight)

        return Tensor._make(out, (x,), backward)

    def __repr__(self) -> str:
        return (
            f"NonIdealLinear({self.in_features}, {self.out_features}, "
            f"xbar={self.engine.config.name})"
        )


class NonIdealConv2d(Module):
    """Conv2d executed on the non-ideal crossbar hardware via im2col."""

    def __init__(
        self,
        source: Conv2d,
        config: CrossbarConfig,
        predictor: ColumnPredictor,
        rng=None,
        engine: CrossbarEngine | None = None,
    ):
        super().__init__()
        self.in_channels = source.in_channels
        self.out_channels = source.out_channels
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.padding = source.padding
        self.weight_float = source.weight.data.copy()
        self.bias_float = source.bias.data.copy() if source.bias is not None else None
        # Hoisted (out, in*k*k) view of the kernel, shared by the engine
        # build, calibration fits and the backward closure.
        self.weight_matrix = self.weight_float.reshape(self.out_channels, -1)
        # ``engine`` lets convert_to_hardware supply a cached programmed
        # engine instead of paying the full programming cost again.
        self.engine = engine or CrossbarEngine(self.weight_matrix, config, predictor, rng)
        self._pending_calibration = False
        self._probe_health = False
        self._max_calibration_vectors = 2048

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        k = self.kernel_size
        self.last_input_hw = (x.shape[2], x.shape[3])  # for energy accounting
        h_out = conv_output_size(x.shape[2], k, self.stride, self.padding)
        w_out = conv_output_size(x.shape[3], k, self.stride, self.padding)
        cols = im2col(x.data, (k, k), self.stride, self.padding)  # (N, CKK, L)
        vectors = cols.transpose(0, 2, 1).reshape(n * h_out * w_out, -1)
        if self._pending_calibration:
            sample = _subsample_rows(vectors, self._max_calibration_vectors)
            self.engine.accumulate_gain(sample, self.weight_matrix)
        flat = self.engine.matvec(vectors)  # (N*L, out)
        if self._probe_health or _obs.active():
            ideal = np.asarray(vectors, dtype=np.float64) @ self.weight_matrix.T
            if _obs.active():
                _obs.record_layer_deviation(_obs.layer_label(self), flat, ideal)
            if self._probe_health:
                self.engine.last_probe = _obs.deviation_stats(flat, ideal)
        out = (
            flat.reshape(n, h_out * w_out, self.out_channels)
            .transpose(0, 2, 1)
            .reshape(n, self.out_channels, h_out, w_out)
            .astype(np.float32)
        )
        if self.bias_float is not None:
            out = out + self.bias_float.reshape(1, -1, 1, 1)

        w_mat = self.weight_matrix
        input_shape = x.shape

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            grad_mat = grad.reshape(n, self.out_channels, h_out * w_out)
            gcols = np.einsum("ok,nol->nkl", w_mat, grad_mat, optimize=True)
            x._accumulate(col2im(gcols, input_shape, (k, k), self.stride, self.padding))

        return Tensor._make(out, (x,), backward)

    def __repr__(self) -> str:
        return (
            f"NonIdealConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, xbar={self.engine.config.name})"
        )


def _subsample_rows(vectors: np.ndarray, max_rows: int) -> np.ndarray:
    """Evenly subsample rows for calibration fits."""
    if len(vectors) <= max_rows:
        return vectors
    idx = np.linspace(0, len(vectors) - 1, max_rows).astype(np.int64)
    return vectors[idx]


def _named_nonideal_layers(model: Module):
    """Yield ``(name, module)`` for every hardware layer of a model."""
    for name, module in model.named_modules():
        if isinstance(module, (NonIdealConv2d, NonIdealLinear)):
            yield name or type(module).__name__, module


def collect_calibration_stats(model: Module, images: np.ndarray) -> dict:
    """One calibration batch's streaming gain statistics, per layer.

    The worker-side unit of a parallel :func:`calibrate_hardware`: runs
    a single forward pass over ``images`` with calibration accumulation
    armed and harvests each layer's partial sums *without* setting any
    gains.  The parent adds the partials in shard order, which re-plays
    the exact floating-point addition sequence of the serial sweep.
    """
    from repro.autograd.tensor import no_grad

    layers = list(_named_nonideal_layers(model))
    images = np.asarray(images, dtype=np.float32)
    for _name, layer in layers:
        layer.engine.begin_gain_accumulation()
        layer._pending_calibration = True
    try:
        with no_grad():
            model(Tensor(images))
    finally:
        for _name, layer in layers:
            layer._pending_calibration = False
    stats = {}
    for name, layer in layers:
        engine = layer.engine
        stats[name] = (
            engine._gain_sum_aa,
            engine._gain_sum_ai,
            engine._gain_rows,
            getattr(engine, "_cal_amax", 0.0),
        )
        for attr in ("_gain_sum_aa", "_gain_sum_ai", "_gain_rows", "_cal_amax"):
            if hasattr(engine, attr):
                delattr(engine, attr)
    return stats


def calibrate_hardware(model: Module, images: np.ndarray, batch_size: int = 64) -> Module:
    """Recalibrate every non-ideal layer's gains on real data.

    Sweeps **all** of ``images`` in batches of ``batch_size``; each
    NonIdeal layer accumulates streaming least-squares statistics of
    (analog, ideal) output pairs for the activations it actually
    receives, and the per-column digital gains are fit once at the end
    of the sweep.  Mirrors standard analog-accelerator bring-up with a
    calibration set — and unlike a single-batch refit, the calibration
    coverage is exactly the set you pass in.

    With a parallel backend installed the batches are sharded across
    pool workers (one calibration batch per shard); the partial sums
    come back in shard order, so the fitted gains are bit-identical to
    the serial sweep.

    Quantized mode (``config.quant``) calibrates in **two** sweeps: the
    first runs through the float path, recording each layer's
    activation maximum alongside the gain statistics — finishing it
    installs the static input scales (arming the integer path) *and* a
    provisional gain fit.  The second sweep then refits the gains
    against the integer path's actual outputs.  Engines whose scale is
    already set (e.g. a recalibration pass) keep the single sweep.
    """
    layers = list(_named_nonideal_layers(model))
    needs_scale = any(
        layer.engine.config.quant.enabled and layer.engine.x_scale is None
        for _name, layer in layers
    )
    _calibration_sweep(model, layers, images, batch_size)
    if needs_scale:
        _calibration_sweep(model, layers, images, batch_size)
    return model


def _calibration_sweep(model: Module, layers, images: np.ndarray, batch_size: int) -> None:
    """One full accumulate-and-fit pass of :func:`calibrate_hardware`."""
    from repro.autograd.tensor import no_grad
    from repro.parallel.backend import ShardTask, get_backend
    from repro.parallel.scheduler import plan_shards

    images = np.asarray(images, dtype=np.float32)
    shards = plan_shards(len(images), batch_size)
    backend = get_backend()
    if layers and backend.workers > 1 and len(shards) > 1:
        tasks = [
            ShardTask("calibrate", {"images": images[shard.slice]})
            for shard in shards
        ]
        with _span("hardware/calibrate"):
            stats = backend.run_tasks(model, tasks)
        engines = {name: layer.engine for name, layer in layers}
        for engine in engines.values():
            engine.begin_gain_accumulation()
        for shard_stats in stats:  # strictly in shard order
            for name, (aa, ai, rows, amax) in shard_stats.items():
                engine = engines[name]
                engine._gain_sum_aa += aa
                engine._gain_sum_ai += ai
                engine._gain_rows += rows
                # max() merging is order-independent: sharded and serial
                # sweeps install the same static input scale.
                engine._cal_amax = max(engine._cal_amax, amax)
        for engine in engines.values():
            engine.finish_gain_accumulation()
        # The shared snapshot holds pre-calibration gains; drop it so
        # later parallel maps re-share the calibrated model.
        backend.invalidate(model)
        return
    for _name, layer in layers:
        layer.engine.begin_gain_accumulation()
        layer._pending_calibration = True
    try:
        with no_grad():
            for shard in shards:
                model(Tensor(images[shard.slice]))
    finally:
        for _name, layer in layers:
            layer._pending_calibration = False
            layer.engine.finish_gain_accumulation()


def fault_summary(model: Module) -> "FaultSummary":
    """Aggregate injected-fault counts over every non-ideal layer."""
    total = FaultSummary()
    for _name, module in model.named_modules():
        if isinstance(module, (NonIdealConv2d, NonIdealLinear)):
            total.merge(module.engine.fault_summary)
    return total


def guard_trips(model: Module) -> int:
    """Total health-guard interceptions across every non-ideal layer."""
    return sum(
        module.engine.guard_trips
        for _name, module in model.named_modules()
        if isinstance(module, (NonIdealConv2d, NonIdealLinear))
    )


def _cached_engine(
    weight: np.ndarray,
    config: CrossbarConfig,
    predictor: ColumnPredictor,
    rng: np.random.Generator | None,
    cache: EngineCache | None,
) -> CrossbarEngine:
    """Program one engine, reusing a cached chip when the key matches."""
    if cache is None:
        return CrossbarEngine(weight, config, predictor, rng)
    return cache.get_or_build(
        weight,
        config,
        predictor,
        rng,
        lambda: CrossbarEngine(weight, config, predictor, rng),
    )


def convert_to_hardware(
    model: Module,
    config: CrossbarConfig,
    predictor: ColumnPredictor | None = None,
    rng: np.random.Generator | None = None,
    skip: tuple[str, ...] = (),
    calibration_images: np.ndarray | None = None,
    engine_cache: "bool | EngineCache | None" = True,
) -> Module:
    """Return a copy of ``model`` with Conv2d/Linear on NVM hardware.

    Parameters
    ----------
    model:
        Trained digital model (left untouched).
    config:
        Crossbar hardware variant (one of the Table-I presets).
    predictor:
        Analog backend; defaults to the cached GENIEx surrogate for
        ``config``.
    rng:
        Programming randomness (only used when the device has write
        variation).
    skip:
        Dotted module paths to keep digital (the paper maps all layers
        to crossbars; ablations may pin e.g. the classifier head).
    engine_cache:
        Content-addressed cache of programmed engines (see
        :mod:`repro.xbar.engine_cache`).  ``True`` (default) uses the
        process-wide cache, so repeated conversions of the same model
        under the same config/seed reuse the programmed chips instead
        of re-tiling and re-programming every layer; ``False`` forces a
        fresh build; an :class:`EngineCache` instance scopes reuse to
        that cache.  Hits are exact: the returned engines compute
        bit-identical outputs to a fresh build with the same seed.
    """
    predictor = predictor or load_or_train_geniex(config)
    # One shared generator across layers so programming noise and fault
    # maps decorrelate layer-to-layer even when no rng is supplied.
    rng = rng or np.random.default_rng(0)
    cache = resolve_cache(engine_cache)
    with _span("hardware/convert"):
        hardware = copy.deepcopy(model)
        replacements: list[tuple[str, Module]] = []
        for name, module in hardware.named_modules():
            if not name or name in skip:
                continue
            if isinstance(module, Conv2d):
                weight = module.weight.data.reshape(module.out_channels, -1)
                engine = _cached_engine(weight, config, predictor, rng, cache)
                replacements.append(
                    (name, NonIdealConv2d(module, config, predictor, rng, engine=engine))
                )
            elif isinstance(module, Linear):
                engine = _cached_engine(module.weight.data, config, predictor, rng, cache)
                replacements.append(
                    (name, NonIdealLinear(module, config, predictor, rng, engine=engine))
                )
        for name, replacement in replacements:
            hardware.set_submodule(name, replacement)
            # Stable per-layer telemetry labels: the dotted module path.
            replacement.obs_label = name
            replacement.engine.obs_label = name
            if _obs.active() and config.faults.enabled:
                _obs.record_fault_summary(name, replacement.engine.fault_summary)
        _obs_runtime.annotate_hardware(config)
        hardware.eval()
        if calibration_images is not None:
            calibrate_hardware(hardware, calibration_images)
    return hardware


# ----------------------------------------------------------------------
# Engine snapshots (disk tier of the engine cache).
# ----------------------------------------------------------------------


def snapshot_engine(engine: CrossbarEngine) -> "tuple[dict, dict] | None":
    """Flatten a programmed engine into ``(arrays, meta)`` for ``.npz``.

    Only array-shaped predictor handles are supported: plain
    conductance matrices (Ideal/Noise predictors) and GENIEx bank
    handles (transposed bias + conductances).  CircuitPredictor handles
    are lists of ragged tuples — snapshotting those is not worth the
    complexity, so the function returns ``None`` and the caller skips
    the disk tier for that engine.
    """
    import dataclasses

    from repro.xbar.geniex import _BankHandle

    arrays: dict[str, np.ndarray] = {}
    bank_meta = []
    for i, bank in enumerate(engine.banks):
        handle = bank.handle
        if isinstance(handle, np.ndarray):
            kind = "array"
            arrays[f"b{i}_handle"] = handle
        elif isinstance(handle, _BankHandle):
            kind = "geniex"
            arrays[f"b{i}_bias_t"] = handle.bias_t
            arrays[f"b{i}_cond"] = handle.conductances
        else:
            return None
        arrays[f"b{i}_colweight"] = bank.col_weight
        if bank.ideal_bias is not None:
            arrays[f"b{i}_ideal"] = bank.ideal_bias
        # Chunk tables: int fields and float fields, one row per chunk.
        arrays[f"b{i}_chunks_i"] = np.array(
            [
                [c.col_slice.start, c.col_slice.stop, c.slice_index, c.offset, c.width]
                for c in bank.chunks
            ],
            dtype=np.int64,
        )
        arrays[f"b{i}_chunks_f"] = np.array(
            [[c.sign, c.weight] for c in bank.chunks], dtype=np.float64
        )
        bank_meta.append(
            {
                "kind": kind,
                "row_start": bank.row_slice.start,
                "row_stop": bank.row_slice.stop,
                "total_cols": bank.total_cols,
                "has_ideal": bank.ideal_bias is not None,
            }
        )
    arrays["pristine_gain"] = engine._pristine_gain
    drift_meta = None
    if engine._drift_model is not None:
        # The pristine per-tile conductances ride along so a restored
        # chip can keep aging; the recorded temporal coordinates let
        # the cache refuse to resurrect a drifted chip as fresh.
        tile_meta = []
        for i, tiles in enumerate(engine._drift_tiles):
            bank_tiles = []
            for j, (tile_index, pristine, used) in enumerate(tiles):
                arrays[f"d{i}_{j}_g"] = pristine
                bank_tiles.append({"tile": int(tile_index), "used": int(used)})
            tile_meta.append(bank_tiles)
        drift_meta = {
            "token": engine._drift_model.chip_token,
            "pulse_count": int(engine.pulse_count),
            "reprogram_pulse": int(engine._reprogram_pulse),
            "epoch": engine.applied_drift_epoch,
            "tiles": tile_meta,
        }
    meta = {
        "out_features": engine.out_features,
        "in_features": engine.in_features,
        "w_scale": engine.w_scale,
        "fault_summary": dataclasses.asdict(engine.fault_summary),
        "banks": bank_meta,
        "drift": drift_meta,
    }
    return arrays, meta


def restore_engine(
    meta: dict,
    arrays: dict,
    config: CrossbarConfig,
    predictor: ColumnPredictor,
) -> CrossbarEngine:
    """Rebuild a :func:`snapshot_engine` engine, bit-identical in use.

    The restored engine carries the pristine (programming-time) gain;
    callers re-run any activation calibration exactly as they would on
    a freshly built engine.  The lazily cached integer fallback levels
    regenerate deterministically.
    """
    engine = CrossbarEngine.__new__(CrossbarEngine)
    engine.config = config
    engine.predictor = predictor
    engine.out_features = int(meta["out_features"])
    engine.in_features = int(meta["in_features"])
    engine.w_scale = float(meta["w_scale"])
    engine._rng = np.random.default_rng(0)
    engine.perf = PerfCounters()
    engine.fault_summary = FaultSummary(**meta["fault_summary"])
    engine._guard_trips = 0
    engine._guard_warned = False
    engine.banks = []
    for i, bank_meta in enumerate(meta["banks"]):
        if bank_meta["kind"] == "array":
            handle: object = arrays[f"b{i}_handle"]
        else:
            from repro.xbar.geniex import _BankHandle

            handle = _BankHandle(
                bias_t=arrays[f"b{i}_bias_t"], conductances=arrays[f"b{i}_cond"]
            )
        chunks_i = arrays[f"b{i}_chunks_i"]
        chunks_f = arrays[f"b{i}_chunks_f"]
        chunks = [
            _BankChunk(
                col_slice=slice(int(ci[0]), int(ci[1])),
                slice_index=int(ci[2]),
                sign=float(cf[0]),
                offset=int(ci[3]),
                width=int(ci[4]),
                weight=float(cf[1]),
            )
            for ci, cf in zip(chunks_i, chunks_f)
        ]
        engine.banks.append(
            _TileRowBank(
                handle=handle,
                row_slice=slice(
                    int(bank_meta["row_start"]), int(bank_meta["row_stop"])
                ),
                chunks=chunks,
                total_cols=int(bank_meta["total_cols"]),
                col_weight=arrays[f"b{i}_colweight"],
                ideal_bias=arrays[f"b{i}_ideal"] if bank_meta["has_ideal"] else None,
            )
        )
    engine._adc_full_scale = config.rows * config.device.g_max * config.device.v_read
    engine._init_quant_state()
    pristine = np.asarray(arrays["pristine_gain"], dtype=np.float64)
    engine.gain = pristine.copy()
    engine._pristine_gain = pristine.copy()
    engine.pulse_count = 0
    engine._reprogram_pulse = 0
    engine._drift_applied = (0, 0)
    engine.drift_converted = 0
    engine._drift_model = None
    engine._drift_tiles = []
    engine._probe_clip = None
    engine.last_probe = None
    drift_meta = meta.get("drift")
    if drift_meta is not None:
        engine._drift_model = DriftModel(
            config.drift, config.device, int(drift_meta["token"])
        )
        for i, bank_tiles in enumerate(drift_meta["tiles"]):
            engine._drift_tiles.append(
                [
                    (int(t["tile"]), np.asarray(arrays[f"d{i}_{j}_g"]), int(t["used"]))
                    for j, t in enumerate(bank_tiles)
                ]
            )
    engine._banks_epoch0 = engine.banks
    return engine
