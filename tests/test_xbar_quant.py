"""Integer-quantized inference mode (``repro.xbar.quant``).

Unit and property tests for the int8 pulse-expansion path: the shared
``quantize_affine`` primitive, plane split/reassemble, the exact
integer MVM, the engine's static-scale lifecycle (calibration installs
the scale, ``clone_pristine``/``restore_engine`` reset it), and the
numerics contract — the integer path must be bit-identical across the
compiled C kernels and the pure-numpy fallback, which the module-level
``kernels`` fixture enforces by running *every* test in both modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import Tensor
from repro.nn.layers import Linear
from repro.verify import invariants as inv
from repro.verify.oracle import naive_plane_split
from repro.verify.runner import _cases, tiny_config
from repro.xbar import _ckernels
from repro.xbar.faults import GuardConfig
from repro.xbar.quant import (
    PlaneWorkspace,
    QuantConfig,
    compute_scale,
    integer_mvm,
    plane_count,
    plane_reassemble,
    plane_split,
    quantize_affine,
    with_quant,
)
from repro.xbar.simulator import (
    CrossbarEngine,
    IdealPredictor,
    NonIdealLinear,
    calibrate_hardware,
    restore_engine,
    snapshot_engine,
)


@pytest.fixture(params=["compiled", "pure"])
def kernels(request, monkeypatch):
    """Run the test under the compiled C kernels and the numpy fallback."""
    if request.param == "compiled":
        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
    else:
        monkeypatch.setattr(_ckernels, "available", lambda: False)
    return request.param


def _quant_config(**kwargs) -> "object":
    adc_bits = kwargs.pop("adc_bits", 6)
    qc = QuantConfig(
        mode="int8",
        input_bits=kwargs.pop("input_bits", 8),
        stream_bits=kwargs.pop("stream_bits", 8),
    )
    return with_quant(tiny_config(adc_bits=adc_bits, **kwargs), qc)


def _quant_engine(weight, config, x, seed=11):
    engine = CrossbarEngine(weight, config, IdealPredictor(), np.random.default_rng(seed))
    engine.set_input_scale(compute_scale(float(np.abs(x).max()), config.quant.half_level))
    return engine


class TestQuantConfig:
    def test_defaults_off(self):
        qc = QuantConfig()
        assert qc.mode == "off" and not qc.enabled

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="quant mode"):
            QuantConfig(mode="int4")

    @pytest.mark.parametrize("bits", [1, 17])
    def test_invalid_input_bits(self, bits):
        with pytest.raises(ValueError, match="input_bits"):
            QuantConfig(mode="int8", input_bits=bits)

    def test_invalid_stream_bits(self):
        with pytest.raises(ValueError, match="stream_bits"):
            QuantConfig(mode="int8", stream_bits=0)

    def test_derived_properties(self):
        qc = QuantConfig(mode="int8", input_bits=8, stream_bits=8)
        assert qc.half_level == 127
        assert qc.magnitude_bits == 7
        assert qc.num_planes == 1  # one full-width plane per sign pass
        assert qc.plane_levels == 2**7
        qc2 = QuantConfig(mode="int8", input_bits=6, stream_bits=2)
        assert (qc2.half_level, qc2.magnitude_bits, qc2.num_planes) == (31, 5, 3)
        assert qc2.plane_levels == 4


class TestQuantizeAffine:
    def test_exactly_one_scale_form(self, rng):
        x = rng.random(8)
        with pytest.raises(ValueError, match="exactly one"):
            quantize_affine(x, top=15)
        with pytest.raises(ValueError, match="exactly one"):
            quantize_affine(x, scale=0.1, inv_scale=10.0, top=15)

    def test_divide_form_matches_chain(self, rng):
        x = rng.normal(size=(5, 9))
        scale = 0.031
        got = quantize_affine(x, scale=scale, top=127, symmetric=True, dtype=np.int32)
        want = np.clip(np.rint(x / scale), -127, 127).astype(np.int32)
        assert np.array_equal(got, want)

    def test_multiply_form_matches_chain(self, rng):
        x = rng.random((4, 7))
        levels = 15
        got = quantize_affine(x, inv_scale=levels, top=levels)
        assert np.array_equal(got, np.clip(np.rint(x * levels), 0, levels))

    def test_work_and_out_buffers_are_pure_hoists(self, rng):
        x = rng.normal(size=(6, 6))
        work = np.empty_like(x)
        out = np.empty(x.shape, dtype=np.int32)
        plain = quantize_affine(x, scale=0.07, top=31, symmetric=True, dtype=np.int32)
        buffered = quantize_affine(
            x, scale=0.07, top=31, symmetric=True, dtype=np.int32, work=work, out=out
        )
        assert buffered is out
        assert np.array_equal(plain, buffered)

    @given(
        amax=st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
        bits=st.integers(2, 16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_within_half_step(self, amax, bits, data):
        """|x - dequant(quant(x))| <= scale/2 for in-range inputs."""
        half = 2 ** (bits - 1) - 1
        scale = compute_scale(amax, half)
        x = np.asarray(
            data.draw(
                st.lists(st.floats(-amax, amax, allow_nan=False), min_size=1, max_size=32)
            )
        )
        codes = quantize_affine(x, scale=scale, top=half, symmetric=True, dtype=np.int64)
        assert int(np.abs(codes).max()) <= half
        assert float(np.abs(codes * scale - x).max()) <= scale / 2 * (1 + 1e-12)

    def test_compute_scale_degenerate(self):
        assert compute_scale(0.0, 127) == 1.0
        assert compute_scale(-3.0, 127) == 1.0
        assert compute_scale(12.7, 127) == pytest.approx(0.1)


class TestPlanes:
    @given(
        mb=st.integers(1, 15),
        sb=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_reassemble_identity(self, mb, sb, data):
        values = np.asarray(
            data.draw(
                st.lists(st.integers(0, 2**mb - 1), min_size=1, max_size=48)
            ),
            dtype=np.int64,
        )
        planes = plane_split(values, mb, sb)
        assert len(planes) == plane_count(mb, sb)
        for plane in planes:
            assert int(plane.min()) >= 0 and int(plane.max()) < 2**sb
        assert np.array_equal(plane_reassemble(planes, sb), values)

    def test_fast_split_matches_naive(self):
        for mb, sb in ((7, 8), (7, 2), (5, 2), (7, 3), (4, 1), (15, 4)):
            values = np.arange(2**mb, dtype=np.int64).reshape(2, -1)
            fast = plane_split(values, mb, sb)
            naive = naive_plane_split(values, mb, sb)
            assert len(fast) == len(naive)
            for p, q in zip(fast, naive):
                assert np.array_equal(p, q)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="magnitudes must lie"):
            plane_split(np.array([8]), 3, 2)
        with pytest.raises(ValueError, match="magnitudes must lie"):
            plane_split(np.array([-1]), 3, 2)

    def test_reassemble_needs_planes(self):
        with pytest.raises(ValueError, match="at least one plane"):
            plane_reassemble([], 2)

    def test_workspace_matches_unbuffered(self, rng):
        qc = QuantConfig(mode="int8", input_bits=6, stream_bits=2)
        ws = PlaneWorkspace()
        x = rng.normal(0, 0.3, size=(5, 11))
        scale = compute_scale(float(np.abs(x).max()), qc.half_level)
        codes = ws.quantize(x, scale, qc)
        want = np.clip(np.rint(x / scale), -qc.half_level, qc.half_level).astype(np.int32)
        assert np.array_equal(codes, want)
        for sign in (1, -1):
            mags = ws.magnitudes(codes, sign)
            assert np.array_equal(mags, np.maximum(sign * want, 0))
            planes = ws.planes(mags, qc)
            assert np.array_equal(
                plane_reassemble(planes, qc.stream_bits), np.maximum(sign * want, 0)
            )


class TestIntegerMVM:
    def test_exact_vs_int64_matmul(self, kernels, rng):
        a = rng.integers(-(2**15), 2**15, size=(7, 13)).astype(np.int32)
        b = rng.integers(-(2**15), 2**15, size=(13, 5)).astype(np.int32)
        out = integer_mvm(a, b)
        assert out.dtype == np.int64
        assert np.array_equal(out, a.astype(np.int64) @ b.astype(np.int64))

    def test_no_int32_overflow(self, kernels):
        # Products near 2**30 summed over many rows exceed int32.
        a = np.full((1, 64), 2**15 - 1, dtype=np.int32)
        b = np.full((64, 1), 2**15 - 1, dtype=np.int32)
        assert integer_mvm(a, b)[0, 0] == 64 * (2**15 - 1) ** 2

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            integer_mvm(np.zeros((2, 3), np.int32), np.zeros((4, 2), np.int32))


class TestEngineIntegerPath:
    """The engine-level contract, in both compiled-kernel modes."""

    def test_kernels_match_oracle(self, kernels, rng):
        weight, x = _cases(rng)
        inv.check_quant_kernels_match_oracle(weight, _quant_config(), IdealPredictor(), x)

    def test_kernels_match_oracle_multiplane(self, kernels, rng):
        weight, x = _cases(rng)
        config = _quant_config(input_bits=6, stream_bits=2, program_sigma=0.05)
        inv.check_quant_kernels_match_oracle(weight, config, IdealPredictor(), x, seed=5)

    def test_guard_fallback_int_path(self, kernels, rng):
        weight, x = _cases(rng)
        config = _quant_config(guard=GuardConfig(mode="fallback", saturation_factor=0.05))
        inv.check_quant_kernels_match_oracle(weight, config, IdealPredictor(), x)

    def test_float_fallback_until_calibrated(self, kernels, rng):
        weight, x = _cases(rng)
        inv.check_quant_float_fallback(weight, _quant_config(), IdealPredictor(), x)

    def test_batch_independence(self, kernels, rng):
        weight, x = _cases(rng)
        inv.check_quant_batch_independence(weight, _quant_config(), IdealPredictor(), x)

    def test_zero_and_empty(self, rng):
        weight, _x = _cases(rng)
        inv.check_quant_zero_and_empty(weight, _quant_config(), IdealPredictor())

    def test_requires_adc(self, rng):
        weight, _x = _cases(rng)
        inv.check_quant_requires_adc(weight, IdealPredictor())

    def test_perf_counters(self, rng):
        weight, x = _cases(rng)
        config = _quant_config(input_bits=6, stream_bits=2)
        engine = _quant_engine(weight, config, x)
        before = engine.perf.int_matvec_calls
        engine.matvec(x)
        assert engine.perf.int_matvec_calls == before + 1
        assert engine.perf.planes_evaluated > 0
        # Small-magnitude inputs leave the high-order pulse planes
        # empty; those planes are skipped, not driven.
        skipped_before = engine.perf.planes_skipped
        engine.matvec(x * 0.1)
        assert engine.perf.planes_skipped > skipped_before
        # An all-zero batch skips whole sign passes: nothing evaluated.
        evaluated = engine.perf.planes_evaluated
        engine.matvec(np.zeros((2, weight.shape[1])))
        assert engine.perf.planes_evaluated == evaluated
        assert engine.perf.int_sat_events == 0

    def test_set_input_scale_validation(self, rng):
        weight, _x = _cases(rng)
        engine = CrossbarEngine(weight, _quant_config(), IdealPredictor())
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="input scale"):
                engine.set_input_scale(bad)
        off = CrossbarEngine(weight, tiny_config(adc_bits=6), IdealPredictor())
        with pytest.raises(ValueError, match="quant.mode"):
            off.set_input_scale(0.5)

    def test_clone_pristine_resets_scale(self, rng):
        weight, x = _cases(rng)
        engine = _quant_engine(weight, _quant_config(), x)
        assert engine.quant_active
        clone = engine.clone_pristine()
        assert clone.x_scale is None and not clone.quant_active
        # The clone serves the float path until recalibrated...
        float_build = CrossbarEngine(
            weight, with_quant(_quant_config(), QuantConfig()), IdealPredictor(),
            np.random.default_rng(11),
        )
        assert np.array_equal(clone.matvec(x), float_build.matvec(x))
        # ...and rejoins the int path bit-for-bit once the scale is back.
        clone.set_input_scale(engine.x_scale)
        assert np.array_equal(clone.matvec(x), engine.matvec(x))

    def test_snapshot_restore_round_trip(self, kernels, rng):
        weight, x = _cases(rng)
        config = _quant_config()
        engine = _quant_engine(weight, config, x)
        snap = snapshot_engine(engine)
        assert snap is not None
        arrays, meta = snap
        restored = restore_engine(meta, arrays, config, IdealPredictor())
        assert restored.x_scale is None  # pristine restore: calibration re-arms
        restored.gain = engine.gain.copy()
        restored.set_input_scale(engine.x_scale)
        assert np.array_equal(restored.matvec(x), engine.matvec(x))


class TestInt8Network:
    def test_geniex_resnet_logits_compiled_vs_pure(self, tiny_geniex, monkeypatch):
        """An int8 ResNet on the GENIEx surrogate: the integer path
        really serves the matvecs (a silent float fallback would show
        ``int_matvec_calls == 0``), and the compiled kernels and the
        numpy fallback produce bit-identical logits."""
        from repro.attacks.base import predict_logits
        from repro.nn.resnet import build_model
        from repro.xbar.perf import perf_report, reset_perf
        from repro.xbar.simulator import convert_to_hardware
        from tests.conftest import make_tiny_crossbar_config

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        model = build_model("resnet10", num_classes=4, width=4, seed=1)
        model.eval()
        config = with_quant(make_tiny_crossbar_config(adc_bits=6), QuantConfig(mode="int8"))
        images = np.random.default_rng(7).random((8, 3, 8, 8)).astype(np.float32)
        hw = convert_to_hardware(
            model, config, predictor=tiny_geniex, rng=np.random.default_rng(5),
            calibration_images=images, engine_cache=False,
        )
        x = np.random.default_rng(0).random((6, 3, 8, 8)).astype(np.float32)
        reset_perf(hw)
        compiled = predict_logits(hw, x, batch_size=3)
        assert perf_report(hw).total.int_matvec_calls > 0
        monkeypatch.setattr(_ckernels, "available", lambda: False)
        pure = predict_logits(hw, x, batch_size=3)
        assert np.array_equal(compiled, pure)


class TestCalibration:
    def _layer(self, rng, config, in_features=19, out_features=13):
        source = Linear(in_features, out_features, rng=np.random.default_rng(3))
        source.weight.data[...] = rng.normal(0, 0.4, size=(out_features, in_features))
        return NonIdealLinear(source, config, IdealPredictor(), np.random.default_rng(7))

    def test_two_pass_calibration_installs_scale(self, rng):
        config = _quant_config(gain_calibration=4)
        layer = self._layer(rng, config)
        assert layer.engine.x_scale is None
        images = rng.random((12, layer.in_features)).astype(np.float32) - 0.5
        calibrate_hardware(layer, images, batch_size=4)
        expected = compute_scale(
            float(np.abs(images).max()), config.quant.half_level
        )
        assert layer.engine.x_scale == expected
        assert layer.engine.quant_active
        # Gains were refit through the int path: the calibrated layer
        # serves integer matvecs immediately.
        before = layer.engine.perf.int_matvec_calls
        layer(Tensor(images[:4]))
        assert layer.engine.perf.int_matvec_calls == before + 1

    def test_recalibration_keeps_existing_scale(self, rng):
        config = _quant_config(gain_calibration=4)
        layer = self._layer(rng, config)
        images = rng.random((8, layer.in_features)).astype(np.float32) - 0.5
        calibrate_hardware(layer, images, batch_size=4)
        scale = layer.engine.x_scale
        # A later sweep with different (smaller) data must not move the
        # static scale — it only refits gains.
        calibrate_hardware(layer, images[:4] * 0.1, batch_size=2)
        assert layer.engine.x_scale == scale
