"""Golden regression for the analog hot path.

The production MVM kernel must be *bit-identical* (exact float
equality) to the naive oracle of :mod:`repro.verify.oracle` for every
Table-I preset, every predictor backend, with and without guard
fallback and fault injection — that is the numerical contract of the
hot-path optimizations (stream stacking, zero-row compaction, the
compiled kernels and the fused GENIEx deviation pass).
"""

import numpy as np
import pytest

from repro.verify.invariants import check_kernels_match_oracle
from repro.xbar.faults import FaultConfig, GuardConfig, with_faults, with_guard
from repro.xbar.presets import crossbar_preset, load_or_train_geniex, preset_names
from repro.xbar.simulator import CircuitPredictor, CrossbarEngine, IdealPredictor

from tests.conftest import make_tiny_crossbar_config

PRESETS = preset_names()


def _weight_and_inputs(config, seed=0, out_features=10, batch=4, signed=True):
    """A weight spanning two ragged row banks plus a test batch."""
    rng = np.random.default_rng(seed)
    in_features = config.rows + 13
    weight = rng.normal(0, 0.4, size=(out_features, in_features)).astype(np.float32)
    x = rng.normal(size=(batch, in_features)).astype(np.float64)
    if not signed:
        x = np.abs(x)
    x[0, -3:] = 0.0  # give the trailing bank some zero entries
    return weight, x


def _assert_matches_oracle(weight, config, predictor, x):
    """Engine and oracle (same programming seed) agree to 0 ULP, including
    the build-time gain calibration, guard trips and fault map."""
    return check_kernels_match_oracle(weight, config, predictor, x, seed=11)


class TestGoldenKernelEquality:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_geniex_bitwise(self, preset):
        config = crossbar_preset(preset)
        weight, x = _weight_and_inputs(config, signed=True)
        _assert_matches_oracle(weight, config, load_or_train_geniex(config), x)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_ideal_bitwise(self, preset):
        config = crossbar_preset(preset)
        weight, x = _weight_and_inputs(config, seed=1, signed=True)
        _assert_matches_oracle(weight, config, IdealPredictor(), x)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_circuit_bitwise(self, preset):
        import dataclasses

        # No probe calibration: circuit solves are the expensive part.
        config = dataclasses.replace(crossbar_preset(preset), gain_calibration=0)
        weight, x = _weight_and_inputs(config, seed=2, batch=2, signed=False)
        _assert_matches_oracle(weight, config, CircuitPredictor(config), x)

    @pytest.mark.parametrize("guard_mode", ["off", "fallback"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_guard_modes_bitwise(self, preset, guard_mode):
        """Guard off and a force-tripped fallback must both be exact.

        ``saturation_factor=1e-9`` trips the guard on every evaluated
        stream, so the fallback substitution path itself is compared,
        and the engine's trip count must equal the oracle's.
        """
        guard = GuardConfig(
            mode=guard_mode,
            saturation_factor=1e-9 if guard_mode == "fallback" else None,
        )
        config = with_guard(crossbar_preset(preset), guard)
        weight, x = _weight_and_inputs(config, seed=3, signed=True)
        engine = _assert_matches_oracle(
            weight, config, load_or_train_geniex(crossbar_preset(preset)), x
        )
        if guard_mode == "fallback":
            assert engine.guard_trips > 0  # the fallback path really ran

    def test_faults_bitwise(self):
        """Stuck cells, drift and dead lines keep engine and oracle in lockstep."""
        faults = FaultConfig(
            stuck_at_gmin_rate=0.05,
            stuck_at_gmax_rate=0.02,
            drift_time=1e3,
            dead_row_rate=0.02,
            dead_col_rate=0.02,
            seed=3,
        )
        config = with_faults(crossbar_preset("32x32_100k"), faults)
        weight, x = _weight_and_inputs(config, seed=4, signed=True)
        predictor = load_or_train_geniex(crossbar_preset("32x32_100k"))
        engine = _assert_matches_oracle(weight, config, predictor, x)
        assert engine.fault_summary.stuck_gmin + engine.fault_summary.stuck_gmax > 0


class TestPredictorChunkContract:
    """Any ``chunk`` row-block size gives the same bits."""

    def test_ideal_predictor_chunks_bitwise(self, rng):
        bias = rng.standard_normal((8, 6))
        v = rng.random((11, 8))
        full = IdealPredictor.predict_from_bias(v, bias, chunk=10_000)
        blocked = IdealPredictor.predict_from_bias(v, bias, chunk=3)
        assert np.array_equal(full, blocked)

    def test_circuit_predictor_chunks_bitwise(self, rng):
        config = make_tiny_crossbar_config()
        predictor = CircuitPredictor(config)
        g = np.full((8, 8), config.device.g_min) * rng.integers(1, 4, size=(8, 8))
        handle = predictor.prepare_crossbar(g, used_cols=5)
        v = rng.random((7, 8)) * config.device.v_read
        full = predictor.predict_from_bias(v, handle, chunk=10_000)
        blocked = predictor.predict_from_bias(v, handle, chunk=2)
        assert full.shape == (7, 5)
        assert np.array_equal(full, blocked)


class TestCompiledKernels:
    """The optional C kernels must be bit-identical to their numpy
    equivalents and transparently optional."""

    def test_vectorized_matches_with_kernels_disabled(self, monkeypatch):
        from repro.xbar import _ckernels

        config = crossbar_preset("32x32_100k")
        geniex = load_or_train_geniex(config)
        weight, x = _weight_and_inputs(config, seed=6, signed=True)
        engine = CrossbarEngine(weight, config, geniex, np.random.default_rng(11))
        out_fast = engine.matvec(x)
        monkeypatch.setattr(_ckernels, "available", lambda: False)
        out_numpy = engine.matvec(x)
        assert np.array_equal(out_fast, out_numpy)

    def test_env_kill_switch(self, monkeypatch):
        from repro.xbar import _ckernels

        monkeypatch.setenv("REPRO_XBAR_CKERNELS", "0")
        monkeypatch.setattr(_ckernels, "_tried", False)
        monkeypatch.setattr(_ckernels, "_lib", None)
        assert not _ckernels.available()
        i_frac = np.zeros((2, 3), dtype=np.float32)
        v_frac = np.zeros((2, 1), dtype=np.float32)
        assert _ckernels.poly_backbone(i_frac, v_frac, np.zeros(5)) is None

    def test_kernel_library_builds_with_target_clones(self, tmp_path, monkeypatch):
        """The kernel source — ``target_clones`` dispatch included —
        must compile on any host with a C compiler: a compiler that
        rejected the attribute would silently drop *every* kernel back
        to numpy.  The library exports the fused deviation pass and the
        row-stable matmul in both dtypes, and no longer the retired
        pre-activation kernel."""
        import shutil

        from repro.xbar import _ckernels

        if shutil.which("cc") is None:
            pytest.skip("no C compiler in this environment")
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        lib = _ckernels._compile()
        assert lib is not None, "kernel source failed to compile"
        assert "target_clones" in _ckernels._SOURCE
        assert hasattr(lib, "fused_deviation")
        assert hasattr(lib, "row_matmul_f32") and hasattr(lib, "row_matmul_f64")
        assert not hasattr(lib, "fused_bias_relu")

    @staticmethod
    def _row_matmul_pair(a, b, monkeypatch):
        """(compiled, numpy) outputs of the row-stable matmul."""
        from repro.xbar import _ckernels
        from repro.xbar.numerics import row_stable_matmul

        compiled = row_stable_matmul(a, b)
        with monkeypatch.context() as m:
            m.setattr(_ckernels, "available", lambda: False)
            pure = row_stable_matmul(a, b)
        return compiled, pure

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 32, 64])
    @pytest.mark.parametrize("cols", [1, 7, 8, 31, 32, 33, 48, 193])
    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_row_matmul_matches_numpy_order(self, dtype, k, cols, n, monkeypatch):
        """Compiled and in-order numpy ascending-K sums agree bit for bit
        across column tails (32-column blocks, single vectors, scalars),
        an empty batch, +0/-0 drives, and inf/NaN weights behind a zero
        drive, which must not reach the sum."""
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        local = np.random.default_rng(k * 1000 + cols * 31 + n)
        a = local.standard_normal((n, k)).astype(dtype)
        a[local.random((n, k)) < 0.55] = 0.0  # the int8 banks' drive density
        b = local.standard_normal((k, cols)).astype(dtype)
        if n:
            a[0, 0] = -0.0
            a[-1, k - 1] = 0.0
            b[k - 1, :] = np.inf
            b[k - 1, 0] = np.nan
        compiled, pure = self._row_matmul_pair(a, b, monkeypatch)
        assert compiled.shape == (n, cols) and compiled.dtype == dtype
        assert compiled.flags.c_contiguous
        assert np.array_equal(compiled.view(np.uint8), pure.view(np.uint8))
        if n:
            # Zero drive masks the inf/NaN weight row; a driven row sees it.
            assert np.isfinite(compiled[-1]).all()
            if a[0, k - 1] != 0:
                assert np.isnan(compiled[0, 0])
            # An undriven row reads +0, never -0.
            silent = np.zeros((1, k), dtype=dtype)
            silent[0, 0] = -0.0
            zero, _ = self._row_matmul_pair(silent, b, monkeypatch)
            assert not np.signbit(zero).any() and not zero.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_matmul_rows_independent(self, dtype, rng):
        """Each row of a batch equals that row computed alone."""
        from repro.xbar.numerics import row_stable_matmul

        a = rng.standard_normal((37, 32)).astype(dtype)
        a[rng.random(a.shape) < 0.55] = 0.0
        b = rng.standard_normal((32, 96)).astype(dtype)
        batch = row_stable_matmul(a, b)
        for i in range(a.shape[0]):
            single = row_stable_matmul(a[i : i + 1], b)
            assert np.array_equal(batch[i : i + 1].view(np.uint8), single.view(np.uint8))

    def test_row_matmul_within_float32_of_float64_sum(self, rng):
        """The ascending-K float32 sum stays within the recursive-summation
        error bound of a float64 evaluation of the same products."""
        from repro.xbar.numerics import row_stable_matmul

        a = rng.standard_normal((50, 32)).astype(np.float32)
        a[rng.random(a.shape) < 0.55] = 0.0
        b = rng.standard_normal((32, 48)).astype(np.float32)
        want = a.astype(np.float64) @ b.astype(np.float64)
        eps = float(np.finfo(np.float32).eps)
        bound = (a.shape[1] + 1) * eps * (np.abs(a).astype(np.float64) @ np.abs(b))
        assert np.all(np.abs(row_stable_matmul(a, b) - want) <= bound)

    def test_adc_codes_matches_numpy_rule(self, rng):
        """Branch-free ADC read-out: codes equal ``rint(clip(I, 0, fs) /
        lsb)`` with non-finite currents at code 0, and the health flag
        is an OR over the whole pass under every ``sat_limit``."""
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        full_scale = 0.004
        lsb = full_scale / 255
        cur = rng.normal(full_scale / 2, full_scale, size=(9, 13))
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, full_scale,
                    np.nextafter(full_scale, np.inf), full_scale * 3, -full_scale]
        cur[4, :9] = specials

        def expected(c):
            q = np.rint(np.clip(c, 0.0, full_scale) / lsb)
            q[~np.isfinite(c)] = 0.0
            return q.astype(np.int32)

        out = np.empty(cur.shape, dtype=np.int32)
        assert _ckernels.adc_codes(cur, out, full_scale=full_scale, lsb=lsb) is False
        assert np.array_equal(out, expected(cur))
        assert out[4, 5] == out[4, 6] == out[4, 7] == 255
        assert not out[4, :5].any()
        # sat_limit=inf flags only the non-finite currents...
        assert _ckernels.adc_codes(cur, out, full_scale=full_scale, lsb=lsb, sat_limit=np.inf)
        healthy = np.where(np.isfinite(cur), cur, 0.0)
        assert not _ckernels.adc_codes(
            healthy, out, full_scale=full_scale, lsb=lsb, sat_limit=np.inf
        )
        assert np.array_equal(out, expected(healthy))
        # ...a finite limit also flags |I| above it, wherever it sits.
        limit = float(np.abs(healthy).max())
        assert not _ckernels.adc_codes(
            healthy, out, full_scale=full_scale, lsb=lsb, sat_limit=limit
        )
        healthy[-1, -1] = -2 * limit
        assert _ckernels.adc_codes(
            healthy, out, full_scale=full_scale, lsb=lsb, sat_limit=limit
        )

    @staticmethod
    def _deviation_pair(geniex, hv, bias_t, monkeypatch):
        """(compiled, numpy) outputs of the GENIEx hidden->output pass."""
        from repro.xbar import _ckernels

        compiled = geniex._deviation(hv, bias_t)
        with monkeypatch.context() as m:
            m.setattr(_ckernels, "available", lambda: False)
            pure = geniex._deviation(hv, bias_t)
        return compiled, pure

    @pytest.mark.parametrize("cols", [1, 7, 48, 193])
    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_fused_deviation_matches_numpy_order(self, cols, n, monkeypatch):
        """Compiled and in-order numpy deviation sums agree bit for bit,
        across vector tails (``cols`` not a multiple of the SIMD width),
        an empty batch, and NaN / -0.0 pre-activations."""
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        geniex = load_or_train_geniex(crossbar_preset("32x32_100k"))
        hidden = geniex.w2.size
        local = np.random.default_rng(cols * 31 + n)
        hv = local.standard_normal((n, hidden)).astype(np.float32)
        bias_t = local.standard_normal((hidden, cols)).astype(np.float32)
        compiled, pure = self._deviation_pair(geniex, hv, bias_t, monkeypatch)
        assert compiled.shape == (n, cols) and compiled.dtype == np.float32
        assert np.array_equal(compiled.view(np.uint32), pure.view(np.uint32))
        if n == 0:
            return
        # -0.0 + -0.0 reaches the ReLU as -0.0; NaN propagates through it.
        hv[0, :4] = -0.0
        bias_t[:4, :] = -0.0
        hv[-1, 5] = np.nan
        bias_t[7, cols // 2] = np.nan
        compiled, pure = self._deviation_pair(geniex, hv, bias_t, monkeypatch)
        assert np.array_equal(np.isnan(compiled), np.isnan(pure))
        assert np.isnan(compiled[-1]).all() and np.isnan(compiled[:, cols // 2]).all()
        finite = ~np.isnan(pure)
        assert np.array_equal(
            compiled[finite].view(np.uint32), pure[finite].view(np.uint32)
        )

    def test_fused_deviation_rows_independent(self, rng):
        """Each row of a batch equals that row evaluated alone."""
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        geniex = load_or_train_geniex(crossbar_preset("32x32_100k"))
        hidden = geniex.w2.size
        hv = rng.standard_normal((37, hidden)).astype(np.float32)
        bias_t = rng.standard_normal((hidden, 48)).astype(np.float32)
        batch = geniex._deviation(hv, bias_t)
        for i in range(hv.shape[0]):
            single = geniex._deviation(hv[i : i + 1], bias_t)
            assert np.array_equal(batch[i].view(np.uint32), single[0].view(np.uint32))

    def test_deviation_within_float32_of_float64_sum(self, rng):
        """The in-order float32 sum stays within the recursive-summation
        error bound of an exact-order float64 evaluation of the layer."""
        geniex = load_or_train_geniex(crossbar_preset("32x32_100k"))
        hidden = geniex.w2.size
        hv = rng.standard_normal((50, hidden)).astype(np.float32)
        bias_t = rng.standard_normal((hidden, 48)).astype(np.float32)
        pre = np.maximum(hv.astype(np.float64)[:, :, None] + bias_t[None], 0.0)
        terms = geniex.w2.astype(np.float64)[None, :, None] * pre  # (n, H, C)
        b2 = float(np.float32(geniex.b2))
        want = terms.sum(axis=1) + b2
        eps = float(np.finfo(np.float32).eps)
        bound = (hidden + 3) * eps * (np.abs(terms).sum(axis=1) + abs(b2))
        got = geniex._deviation(hv, bias_t)
        assert np.all(np.abs(got - want) <= bound)

    def test_dequant_dots_matches_numpy_chain(self, rng):
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        full_scale, g_min, denom = 0.004, 3e-5, 2e-6
        for bits in (None, 6):
            lsb = full_scale / (2**bits - 1) if bits is not None else 1.0
            cur = rng.normal(0, full_scale, size=(9, 7))
            cur[0, :4] = [-0.0, np.nan, np.inf, full_scale * 3]
            v_sum = rng.random((9, 1))
            v_sum[1, 0] = 0.0
            colw = rng.choice([-4.0, 1.0, 8.0], size=7)
            if bits is None:
                q = np.asarray(cur)
            else:
                q = np.rint(np.clip(cur, 0.0, full_scale) / lsb) * lsb
            expected = ((q - g_min * v_sum) / denom) * colw
            got, sick = _ckernels.dequant_dots(
                cur, v_sum, colw, adc_bits=bits, full_scale=full_scale,
                lsb=lsb, g_min=g_min, denom=denom,
            )
            assert not sick  # no health check requested
            assert np.array_equal(expected, got, equal_nan=True)
            # The fused health probe flags the injected NaN/inf rows.
            _got, sick = _ckernels.dequant_dots(
                cur, v_sum, colw, adc_bits=bits, full_scale=full_scale,
                lsb=lsb, g_min=g_min, denom=denom, sat_limit=np.inf,
            )
            assert sick

    def test_geniex_tail_matches_numpy_chain(self, rng):
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        ideal = rng.normal(0, 1e-3, size=(6, 5)).astype(np.float32)
        deviation = rng.normal(0, 1, size=(6, 5)).astype(np.float32)
        v_frac = rng.random((6, 1)).astype(np.float32)
        poly = rng.normal(0, 0.1, size=5)
        i_norm, std, mean = 0.02, 0.7, -0.05
        dev = deviation * std + mean
        i_frac = (ideal / np.float32(i_norm)).astype(np.float32, copy=False)
        p = (
            poly[0] + poly[1] * i_frac + poly[2] * i_frac * i_frac
            + poly[3] * v_frac + poly[4] * i_frac * v_frac
        )
        expected = ideal - (dev + p) * i_norm
        got = _ckernels.geniex_tail(ideal, deviation, v_frac, poly, i_norm, std, mean)
        assert np.array_equal(expected, got)

    def test_axpy_block_matches_numpy(self, rng):
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        out = rng.normal(size=(5, 12))
        src = rng.normal(size=(5, 20))
        expected = out.copy()
        expected[:, 3:9] += 0.125 * src[:, 10:16]
        assert _ckernels.axpy_block(out[:, 3:9], src[:, 10:16], 0.125)
        assert np.array_equal(expected, out)


class TestPerfCounters:
    def test_counters_track_streams_and_calls(self, rng):
        config = make_tiny_crossbar_config(gain_calibration=0)
        weight = rng.normal(0, 0.4, size=(4, 20)).astype(np.float32)  # 3 banks
        engine = CrossbarEngine(weight, config, IdealPredictor())
        x = rng.random((6, 20))
        x[:, 8:] = 0.0  # banks 2 and 3 see all-zero streams
        engine.matvec(x)
        perf = engine.perf
        assert perf.matvec_calls == 1
        assert perf.matvec_rows == 6
        # Bank 1 evaluated in one stacked call; banks 2-3 fully skipped.
        assert perf.bank_evals == 1
        num_streams = config.bitslice.num_streams
        assert perf.streams_evaluated == num_streams
        assert perf.streams_skipped == 2 * num_streams
        assert perf.predictor_seconds >= 0.0
        perf.reset()
        assert perf.matvec_calls == 0 and perf.streams_evaluated == 0

    def test_merge_and_as_dict(self):
        from repro.xbar.perf import PerfCounters

        a = PerfCounters(matvec_calls=1, streams_evaluated=4, predictor_seconds=0.5)
        b = PerfCounters(matvec_calls=2, streams_skipped=3, predictor_seconds=0.25)
        a.merge(b)
        assert a.matvec_calls == 3
        assert a.streams_evaluated == 4 and a.streams_skipped == 3
        assert a.as_dict()["predictor_seconds"] == pytest.approx(0.75)
        assert "streams" in a.format()


class TestLargeBatchCompaction:
    """Regression: GENIEx stacked/compacted evaluation vs. the oracle.

    With enough stacked rows the predictor's matmuls, then plain BLAS
    GEMMs, switched micro-kernels, so the stacked kernel (one big packed
    batch of the driven rows) drifted from a per-stream evaluation
    (one ``(n, rows)`` call per stream, as the oracle makes) by ~1e6 ULP
    after dequantization.  Surfaced by the differential oracle harness;
    fixed by making the predictor matmuls row-stable: each output is a
    fixed ascending-K sum (see repro.xbar.numerics).
    """

    def test_geniex_bitwise_single_row(self, tiny_geniex):
        """n=1 is the smallest reproduction: under BLAS, the oracle's
        per-stream single-row predictor calls took the gemv dispatch
        while the stacked kernel's two-row batch took gemm."""
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(7, 10)).astype(np.float32)
        x = rng.random((1, 10))
        config = make_tiny_crossbar_config(adc_bits=None, gain_calibration=8)
        _assert_matches_oracle(weight, config, tiny_geniex, x)

    def test_geniex_bitwise_across_kernels(self, tiny_geniex):
        config = make_tiny_crossbar_config(adc_bits=None, gain_calibration=8)
        weight, x = _weight_and_inputs(config, seed=3, batch=10)
        x[4] = 0.0  # exercise zero-row compaction
        x[6, : config.rows] = 0.0
        _assert_matches_oracle(weight, config, tiny_geniex, x)

    def test_geniex_bitwise_with_adc(self, tiny_geniex):
        config = make_tiny_crossbar_config(adc_bits=6, gain_calibration=8)
        weight, x = _weight_and_inputs(config, seed=4, batch=12)
        x[0] = 0.0
        _assert_matches_oracle(weight, config, tiny_geniex, x)
