"""GENIEx: neural-network surrogate of the non-ideal crossbar.

Replicates the modeling technique of Chakraborty et al. (DAC 2020,
ref. [15] of the paper): a 2-layer perceptron is trained on circuit
simulation data to model Eq. 2,
``I_ni = f(V, G(V), R_source, R_sink, R_wire)``.

Where the original used HSPICE data, we use :class:`CrossbarCircuit`
(the same physics, solved with scipy.sparse — see DESIGN.md §2).

Two implementation choices make full-DNN emulation practical:

Deviation form
    The MLP predicts the *deviation* ``I_ideal - I_ni`` (normalized)
    rather than the absolute current; the exact ideal term ``V @ G`` is
    computed digitally and the predicted deviation subtracted.  The
    surrogate's regression error then only perturbs the (small)
    correction, so the emulated hardware's Non-ideality Factor tracks
    the circuit solver's closely.

Polynomial backbone
    IR drop makes the deviation primarily a function of the column's
    ideal current (and the total input drive) — a *product* of
    voltage-side and conductance-side quantities that a factorized MLP
    cannot represent.  A small polynomial in the exactly-computed
    ``i_frac = V.G / i_max`` and ``v_frac = mean(V) / v_read`` is
    therefore fit first; the MLP learns only its residual.

Factorized inference
    The MLP input is ``[V_norm ; G_col features]``.  After programming,
    ``G`` is fixed, so the hidden pre-activation splits into a
    per-column constant (precomputed once per layer) and a per-vector
    term shared by all columns of the tile.  This is exact — not an
    approximation — and ~40x faster than naive per-(vector, column)
    evaluation.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn import functional as F
from repro.xbar import _ckernels
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Sequential
from repro.train.optim import Adam
from repro.xbar.circuit import CircuitConfig, CrossbarCircuit
from repro.xbar.device import DeviceConfig
from repro.xbar.numerics import row_stable_matmul
from repro.xbar.nf import non_ideality_factor, sample_crossbar_workload


@dataclass(frozen=True)
class GENIExTrainConfig:
    """Surrogate training hyper-parameters.

    ``hidden=32`` keeps full-DNN emulation fast; the polynomial backbone
    already explains ~99% of the deviation variance, so the MLP only
    models the residual.
    """

    hidden: int = 32
    num_matrices: int = 150
    vectors_per_matrix: int = 8
    epochs: int = 60
    batch_size: int = 512
    lr: float = 2e-3
    seed: int = 7
    validation_fraction: float = 0.1


@dataclass
class _BankHandle:
    """Prepared per-layer state for the factorized inference path."""

    bias_t: np.ndarray  # (H, C) hidden-layer per-column constants, transposed
    conductances: np.ndarray  # (R, C) for the exact ideal term


class GENIEx:
    """Trained surrogate: predicts non-ideal column currents.

    Parameters are the raw MLP weights plus normalization constants
    baked in at training time.  Use :meth:`predict` for (batch, rows)
    voltage inputs against a fixed (rows, cols) conductance matrix.
    """

    #: bias-side features beyond the per-column conductances:
    #: normalized column index (IR drop varies along the wordline) and
    #: the array-average conductance (loading by the other columns).
    EXTRA_FEATURES = 2

    #: polynomial backbone terms: [1, i, i^2, v, i*v] with
    #: i = ideal column current / i_norm and v = mean(V) / v_read.
    POLY_TERMS = 5

    def __init__(
        self,
        w1: np.ndarray,  # (hidden, 2*rows + EXTRA_FEATURES)
        b1: np.ndarray,  # (hidden,)
        w2: np.ndarray,  # (hidden,)
        b2: float,
        rows: int,
        device: DeviceConfig,
        poly: np.ndarray | None = None,  # (POLY_TERMS,) backbone coefficients
        target_mean: float = 0.0,
        target_std: float = 1.0,
        metrics: dict | None = None,
    ):
        if w1.shape[1] != 2 * rows + self.EXTRA_FEATURES:
            raise ValueError(f"w1 shape {w1.shape} inconsistent with rows={rows}")
        self.w1 = w1.astype(np.float32)
        self.b1 = b1.astype(np.float32)
        self.w2 = w2.astype(np.float32)
        self.b2 = float(b2)
        self.rows = rows
        self.device = device
        self.poly = (
            np.zeros(self.POLY_TERMS) if poly is None else np.asarray(poly, dtype=np.float64)
        )
        if self.poly.shape != (self.POLY_TERMS,):
            raise ValueError(f"poly must have shape ({self.POLY_TERMS},)")
        self.target_mean = float(target_mean)
        self.target_std = float(target_std)
        self.metrics = metrics or {}
        # Voltage half of the first layer vs. the conductance-plus-extras
        # half (the latter folds into the precomputed column bias).
        # Contiguous copies, not views, so the per-call products read
        # them in place: the voltage half is stored transposed, (R, H),
        # the right-hand operand layout of the row-stable ``hv`` matmul.
        self._w1v = np.ascontiguousarray(self.w1[:, :rows].T)  # (R, H)
        self._w1g = np.ascontiguousarray(self.w1[:, rows:])  # (H, R + EXTRA)
        self._i_norm = rows * device.g_max * device.v_read

    @property
    def cache_token(self) -> str:
        """Content hash of the trained parameters (for the engine cache)."""
        h = hashlib.sha256()
        for arr in (self.w1, self.b1, self.w2, self.poly):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(
            np.float64(
                [self.b2, self.target_mean, self.target_std, self.rows]
            ).tobytes()
        )
        return f"geniex:{h.hexdigest()[:32]}"

    # ------------------------------------------------------------------
    # Normalization shared by training and inference
    # ------------------------------------------------------------------
    @staticmethod
    def normalize_voltages(voltages: np.ndarray, device: DeviceConfig) -> np.ndarray:
        return (np.asarray(voltages, dtype=np.float64) / device.v_read).astype(np.float32)

    @staticmethod
    def normalize_conductances(conductances: np.ndarray, device: DeviceConfig) -> np.ndarray:
        span = device.g_max - device.g_min
        return ((np.asarray(conductances, dtype=np.float64) - device.g_min) / span).astype(
            np.float32
        )

    @staticmethod
    def bias_feature_matrix(conductances: np.ndarray, device: DeviceConfig) -> np.ndarray:
        """Per-column bias-side features: (cols, rows + EXTRA_FEATURES).

        Row block: the column's normalized conductances.  Extras: the
        normalized column position and the array-mean conductance.
        """
        g_norm = GENIEx.normalize_conductances(conductances, device)  # (R, C)
        rows, cols = g_norm.shape
        col_index = (np.arange(cols, dtype=np.float32) / max(cols - 1, 1)).reshape(-1, 1)
        g_mean = np.full((cols, 1), g_norm.mean(), dtype=np.float32)
        return np.concatenate([g_norm.T, col_index, g_mean], axis=1)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def prepare_crossbar(
        self, conductances: np.ndarray, used_cols: int | None = None
    ) -> _BankHandle:
        """Prepare per-column state (reused across every input vector).

        Bias features see the *full* array (the unused OFF columns
        still load the wordlines), but only the first ``used_cols``
        columns — the ones the periphery actually senses — are kept
        for prediction.
        """
        features = self.bias_feature_matrix(conductances, self.device)  # (C, R+E)
        bias = features @ self._w1g.T + self.b1  # (C, H)
        used = conductances.shape[1] if used_cols is None else used_cols
        return _BankHandle(
            # Stored (H, C) so the deviation pass reads each hidden
            # unit's column constants contiguously.
            bias_t=np.ascontiguousarray(bias[:used].T, dtype=np.float32),
            conductances=np.ascontiguousarray(conductances[:, :used], dtype=np.float32),
        )

    def column_bias(self, conductances: np.ndarray) -> _BankHandle:
        """Alias of :meth:`prepare_crossbar` over all columns."""
        return self.prepare_crossbar(conductances)

    @staticmethod
    def concat_bias(handles: list[_BankHandle]) -> _BankHandle:
        """Stack per-crossbar handles into one bank handle (along columns)."""
        return _BankHandle(
            bias_t=np.concatenate([h.bias_t for h in handles], axis=1),
            conductances=np.concatenate([h.conductances for h in handles], axis=1),
        )

    def poly_deviation(self, i_frac: np.ndarray, v_frac: np.ndarray) -> np.ndarray:
        """Polynomial-backbone deviation (normalized by i_norm)."""
        c = self.poly
        if isinstance(i_frac, np.ndarray) and isinstance(v_frac, np.ndarray):
            fused = _ckernels.poly_backbone(i_frac, v_frac, c)
            if fused is not None:  # bit-identical single-pass C kernel
                return fused
        return c[0] + c[1] * i_frac + c[2] * i_frac * i_frac + c[3] * v_frac + c[4] * i_frac * v_frac

    def predict_from_bias(
        self, voltages: np.ndarray, column_bias: _BankHandle, chunk: int = 8192
    ) -> np.ndarray:
        """Currents for (B, R) voltages given a prepared bank handle.

        ``chunk`` is accepted for the predictor protocol only: no stage
        keeps an intermediate larger than the (B, C) output, so there
        is nothing to bound by row blocks.
        """
        handle = column_bias
        v32 = np.asarray(voltages, dtype=np.float32)
        # The simulator's stacked/compacted fast paths require every
        # row's currents to be a pure function of that row, so the two
        # batch matmuls use the row-stable ascending-K sum (plain GEMM
        # rounds the same row differently in different-size batches).
        ideal = row_stable_matmul(v32, handle.conductances)  # exact digital term, (B, C)
        v_norm = v32 / np.float32(self.device.v_read)
        hv = row_stable_matmul(v_norm, self._w1v)  # (B, H)
        deviation = self._deviation(hv, handle.bias_t)
        v_frac = v_norm.mean(axis=1, keepdims=True)
        fused = _ckernels.geniex_tail(
            ideal, deviation, v_frac, self.poly,
            self._i_norm, self.target_std, self.target_mean,
        )
        if fused is not None:  # bit-identical single-pass C kernel
            return fused
        deviation = deviation * self.target_std + self.target_mean
        i_frac = (ideal / np.float32(self._i_norm)).astype(np.float32, copy=False)
        deviation = deviation + self.poly_deviation(i_frac, v_frac)
        return ideal - deviation * self._i_norm

    def _deviation(self, hv: np.ndarray, bias_t: np.ndarray) -> np.ndarray:
        """The MLP's hidden->output layer, ``(B, H) -> (B, C)`` float32.

        ``out[i, c] = sum_h w2[h] * relu(hv[i, h] + bias_t[h, c]) + b2``
        with the sum starting from 0 and running over ``h`` in
        ascending order, every step rounded to float32.  That order is
        the spec: each output is a fixed operation sequence of its own
        row, so the result is row-stable, and the compiled pass (one
        sweep, no pre-activation workspace) and this numpy loop agree
        bit for bit.
        """
        out = np.empty((hv.shape[0], bias_t.shape[1]), dtype=np.float32)
        if _ckernels.fused_deviation(hv, bias_t, self.w2, self.b2, out):
            return out
        out.fill(0.0)
        term = np.empty_like(out)
        for h in range(hv.shape[1]):
            np.add(hv[:, h, None], bias_t[h], out=term)
            np.maximum(term, 0.0, out=term)
            term *= self.w2[h]
            out += term
        out += np.float32(self.b2)
        return out

    def predict(self, voltages: np.ndarray, conductances: np.ndarray) -> np.ndarray:
        """Non-ideal currents for (B, R) or (R,) voltages and (R, C) G."""
        single = np.ndim(voltages) == 1
        v = np.atleast_2d(voltages)
        handle = self.column_bias(conductances)
        currents = self.predict_from_bias(v, handle)
        return currents[0] if single else currents

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        np.savez(
            path,
            w1=self.w1,
            b1=self.b1,
            w2=self.w2,
            b2=np.float64(self.b2),
            rows=np.int64(self.rows),
            poly=self.poly,
            target_mean=np.float64(self.target_mean),
            target_std=np.float64(self.target_std),
            device_r_on=np.float64(self.device.r_on),
            device_on_off_ratio=np.float64(self.device.on_off_ratio),
            device_levels_bits=np.int64(self.device.levels_bits),
            device_program_sigma=np.float64(self.device.program_sigma),
            device_iv_beta=np.float64(self.device.iv_beta),
            device_v_read=np.float64(self.device.v_read),
            **{f"metric_{k}": np.float64(v) for k, v in self.metrics.items()},
        )

    @classmethod
    def load(cls, path: Path) -> "GENIEx":
        data = np.load(path)
        device = DeviceConfig(
            r_on=float(data["device_r_on"]),
            on_off_ratio=float(data["device_on_off_ratio"]),
            levels_bits=int(data["device_levels_bits"]),
            program_sigma=float(data["device_program_sigma"]),
            iv_beta=float(data["device_iv_beta"]),
            v_read=float(data["device_v_read"]),
        )
        metrics = {
            key[len("metric_") :]: float(data[key])
            for key in data.files
            if key.startswith("metric_")
        }
        return cls(
            w1=data["w1"],
            b1=data["b1"],
            w2=data["w2"],
            b2=float(data["b2"]),
            rows=int(data["rows"]),
            device=device,
            poly=data["poly"],
            target_mean=float(data["target_mean"]),
            target_std=float(data["target_std"]),
            metrics=metrics,
        )


class GENIExDatasetBuilder:
    """Generate (feature, target) pairs from circuit simulations."""

    def __init__(self, circuit: CircuitConfig, device: DeviceConfig):
        self.circuit = circuit
        self.device = device
        self.solver = CrossbarCircuit(circuit, device)

    def build(
        self,
        num_matrices: int,
        vectors_per_matrix: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (features (N, 2R+E), deviations (N,), ideals (N,)).

        Each training sample is one crossbar *column* under one input
        vector, matching the original GENIEx formulation.  Targets are
        normalized deviations ``(I_ideal - I_ni) / i_norm``; ideals are
        kept for NF bookkeeping.
        """
        rows, cols = self.circuit.rows, self.circuit.cols
        i_norm = rows * self.device.g_max * self.device.v_read
        features = []
        deviations = []
        ideals = []
        workload = sample_crossbar_workload(
            self.device, rows, cols, rng, num_matrices, vectors_per_matrix
        )
        for voltages, conductances in workload:
            nonideal = self.solver.solve(voltages, conductances)  # (B, C)
            ideal = self.solver.ideal_currents(voltages, conductances)
            v_norm = GENIEx.normalize_voltages(voltages, self.device)  # (B, R)
            bias_feats = GENIEx.bias_feature_matrix(conductances, self.device)
            batch = voltages.shape[0]
            for col in range(cols):
                col_feats = np.broadcast_to(bias_feats[col], (batch, bias_feats.shape[1]))
                features.append(
                    np.concatenate([v_norm, col_feats], axis=1).astype(np.float32)
                )
                deviations.append((ideal[:, col] - nonideal[:, col]) / i_norm)
                ideals.append(ideal[:, col] / i_norm)
        return (
            np.concatenate(features).astype(np.float32),
            np.concatenate(deviations).astype(np.float32),
            np.concatenate(ideals).astype(np.float32),
        )


class GENIExTrainer:
    """Train a GENIEx surrogate for one crossbar configuration."""

    def __init__(
        self,
        circuit: CircuitConfig,
        device: DeviceConfig,
        config: GENIExTrainConfig | None = None,
    ):
        self.circuit = circuit
        self.device = device
        self.config = config or GENIExTrainConfig()

    def train(self, verbose: bool = False) -> GENIEx:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        start = time.time()
        builder = GENIExDatasetBuilder(self.circuit, self.device)
        features, deviations, ideals = builder.build(
            cfg.num_matrices, cfg.vectors_per_matrix, rng
        )
        n = len(features)
        order = rng.permutation(n)
        features, deviations, ideals = features[order], deviations[order], ideals[order]
        rows = self.circuit.rows
        # Backbone regressors: exact normalized ideal current and drive.
        i_frac = ideals.astype(np.float64)
        v_frac = features[:, :rows].mean(axis=1).astype(np.float64)
        design = np.stack(
            [np.ones_like(i_frac), i_frac, i_frac**2, v_frac, i_frac * v_frac], axis=1
        )
        n_val = max(1, int(cfg.validation_fraction * n))
        x_val, dev_val, ideal_val = features[:n_val], deviations[:n_val], ideals[:n_val]
        x_tr, dev_tr = features[n_val:], deviations[n_val:]

        # Fit the polynomial backbone on the training split only.
        poly, *_ = np.linalg.lstsq(design[n_val:], dev_tr.astype(np.float64), rcond=None)
        backbone_tr = design[n_val:] @ poly
        backbone_val = design[:n_val] @ poly
        residual_tr = dev_tr - backbone_tr.astype(np.float32)

        # Standardize the MLP's residual target for better conditioning.
        t_mean = float(residual_tr.mean())
        t_std = float(residual_tr.std()) or 1.0
        y_tr = (residual_tr - t_mean) / t_std

        mlp_rng = np.random.default_rng(cfg.seed + 1)
        mlp = Sequential(
            Linear(2 * rows + GENIEx.EXTRA_FEATURES, cfg.hidden, rng=mlp_rng),
            ReLU(),
            Linear(cfg.hidden, 1, rng=mlp_rng),
        )
        optimizer = Adam(mlp.parameters(), lr=cfg.lr)
        n_tr = len(x_tr)
        for epoch in range(cfg.epochs):
            # Simple 2-step decay keeps late epochs from thrashing.
            optimizer.lr = cfg.lr * (0.1 if epoch >= int(0.8 * cfg.epochs) else 1.0)
            perm = rng.permutation(n_tr)
            losses = []
            for s in range(0, n_tr, cfg.batch_size):
                idx = perm[s : s + cfg.batch_size]
                pred = mlp(Tensor(x_tr[idx])).reshape(-1)
                loss = F.mse_loss(pred, y_tr[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            if verbose and (epoch % 10 == 0 or epoch == cfg.epochs - 1):
                print(f"[geniex] epoch {epoch:3d} mse {np.mean(losses):.3e}")

        # Extract weights for the factorized inference path.
        layers = list(mlp)
        w1 = layers[0].weight.data
        b1 = layers[0].bias.data
        w2 = layers[2].weight.data.reshape(-1)
        b2 = float(layers[2].bias.data[0])

        # Validation metrics: regression quality and NF fidelity.
        val_mlp = mlp(Tensor(x_val)).data.reshape(-1) * t_std + t_mean
        val_pred = val_mlp + backbone_val.astype(np.float32)
        ss_res = float(np.sum((val_pred - dev_val) ** 2))
        ss_tot = float(np.sum((dev_val - dev_val.mean()) ** 2))
        r2 = 1.0 - ss_res / max(ss_tot, 1e-12)
        ss_res_poly = float(np.sum((backbone_val - dev_val) ** 2))
        r2_poly = 1.0 - ss_res_poly / max(ss_tot, 1e-12)
        nf_circuit = non_ideality_factor(ideal_val, ideal_val - dev_val)
        nf_surrogate = non_ideality_factor(ideal_val, ideal_val - val_pred)
        metrics = {
            "r2": r2,
            "r2_poly": r2_poly,
            "nf_circuit": nf_circuit,
            "nf_surrogate": nf_surrogate,
            "train_seconds": time.time() - start,
            "train_samples": float(n_tr),
        }
        if verbose:
            print(
                f"[geniex] r2={r2:.4f} nf_circuit={nf_circuit:.4f} "
                f"nf_surrogate={nf_surrogate:.4f}"
            )
        return GENIEx(
            w1=w1,
            b1=b1,
            w2=w2,
            b2=b2,
            rows=rows,
            device=self.device,
            poly=poly,
            target_mean=t_mean,
            target_std=t_std,
            metrics=metrics,
        )
