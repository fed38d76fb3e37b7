"""GENIEx surrogate: training, fidelity, factorization, serialization."""

import numpy as np
import pytest

from repro.xbar.circuit import CrossbarCircuit
from repro.xbar.geniex import GENIEx, GENIExDatasetBuilder, GENIExTrainConfig, GENIExTrainer
from repro.xbar.nf import non_ideality_factor, sample_crossbar_workload

from tests.conftest import make_tiny_crossbar_config


class TestDatasetBuilder:
    def test_shapes(self, tiny_crossbar_config, rng):
        builder = GENIExDatasetBuilder(tiny_crossbar_config.circuit, tiny_crossbar_config.device)
        features, deviations, ideals = builder.build(2, 3, rng)
        n = 2 * 3 * tiny_crossbar_config.cols
        assert features.shape == (n, 2 * tiny_crossbar_config.rows + GENIEx.EXTRA_FEATURES)
        assert deviations.shape == (n,)
        assert ideals.shape == (n,)

    def test_deviations_mostly_positive(self, tiny_crossbar_config, rng):
        """Parasitics reduce currents, so ideal - nonideal >= 0 almost
        everywhere."""
        builder = GENIExDatasetBuilder(tiny_crossbar_config.circuit, tiny_crossbar_config.device)
        _f, deviations, _i = builder.build(3, 4, rng)
        assert (deviations > -1e-9).mean() > 0.95


class TestTrainedSurrogate:
    def test_fidelity_metrics(self, tiny_geniex):
        assert tiny_geniex.metrics["r2"] > 0.95
        # Surrogate NF within 25% of circuit NF.
        nf_c = tiny_geniex.metrics["nf_circuit"]
        nf_s = tiny_geniex.metrics["nf_surrogate"]
        assert abs(nf_s - nf_c) < 0.25 * nf_c

    def test_predictions_track_circuit_on_holdout(self, tiny_geniex, rng):
        config = make_tiny_crossbar_config()
        solver = CrossbarCircuit(config.circuit, config.device)
        workload = sample_crossbar_workload(config.device, 8, 8, rng, 2, 6)
        for voltages, conductances in workload:
            predicted = tiny_geniex.predict(voltages, conductances)
            actual = solver.solve(voltages, conductances)
            ideal = solver.ideal_currents(voltages, conductances)
            mask = ideal > 0.05 * ideal.max()
            rel = np.abs(predicted - actual)[mask] / ideal[mask]
            assert rel.mean() < 0.08

    def test_single_vector_prediction_shape(self, tiny_geniex, rng):
        config = make_tiny_crossbar_config()
        workload = sample_crossbar_workload(config.device, 8, 8, rng, 1, 1)
        voltages, conductances = workload[0]
        out = tiny_geniex.predict(voltages[0], conductances)
        assert out.shape == (8,)

    def test_factorized_path_matches_direct_prediction(self, tiny_geniex, rng):
        """prepare_crossbar + predict_from_bias == predict (exactness of
        the factorization)."""
        config = make_tiny_crossbar_config()
        (voltages, conductances), = sample_crossbar_workload(config.device, 8, 8, rng, 1, 4)
        direct = tiny_geniex.predict(voltages, conductances)
        handle = tiny_geniex.prepare_crossbar(conductances)
        factorized = tiny_geniex.predict_from_bias(voltages, handle)
        np.testing.assert_allclose(direct, factorized, rtol=1e-5)

    def test_used_cols_slicing(self, tiny_geniex, rng):
        config = make_tiny_crossbar_config()
        (voltages, conductances), = sample_crossbar_workload(config.device, 8, 8, rng, 1, 4)
        full = tiny_geniex.predict_from_bias(voltages, tiny_geniex.prepare_crossbar(conductances))
        partial = tiny_geniex.predict_from_bias(
            voltages, tiny_geniex.prepare_crossbar(conductances, used_cols=3)
        )
        assert partial.shape == (4, 3)
        np.testing.assert_allclose(partial, full[:, :3], rtol=1e-6)

    def test_concat_bias_banks_columns(self, tiny_geniex, rng):
        config = make_tiny_crossbar_config()
        (voltages, g1), (_, g2) = sample_crossbar_workload(config.device, 8, 8, rng, 2, 4)
        h1 = tiny_geniex.prepare_crossbar(g1)
        h2 = tiny_geniex.prepare_crossbar(g2)
        banked = tiny_geniex.predict_from_bias(voltages, tiny_geniex.concat_bias([h1, h2]))
        np.testing.assert_allclose(banked[:, :8], tiny_geniex.predict_from_bias(voltages, h1), rtol=1e-6)
        np.testing.assert_allclose(banked[:, 8:], tiny_geniex.predict_from_bias(voltages, h2), rtol=1e-6)

    def test_save_load_roundtrip(self, tiny_geniex, tmp_path, rng):
        path = tmp_path / "geniex.npz"
        tiny_geniex.save(path)
        loaded = GENIEx.load(path)
        config = make_tiny_crossbar_config()
        (voltages, conductances), = sample_crossbar_workload(config.device, 8, 8, rng, 1, 3)
        np.testing.assert_allclose(
            tiny_geniex.predict(voltages, conductances),
            loaded.predict(voltages, conductances),
            rtol=1e-6,
        )
        assert loaded.metrics["r2"] == pytest.approx(tiny_geniex.metrics["r2"], rel=1e-6)
        assert loaded.device.r_on == tiny_geniex.device.r_on

    def test_poly_backbone_carries_most_of_fit(self, tiny_geniex):
        """The polynomial backbone alone should explain most variance."""
        assert tiny_geniex.metrics["r2_poly"] > 0.8

    def test_bad_w1_shape_rejected(self, tiny_geniex):
        with pytest.raises(ValueError):
            GENIEx(
                w1=np.zeros((4, 10)),
                b1=np.zeros(4),
                w2=np.zeros(4),
                b2=0.0,
                rows=8,
                device=tiny_geniex.device,
            )

    def test_bad_poly_shape_rejected(self, tiny_geniex):
        with pytest.raises(ValueError):
            GENIEx(
                w1=np.zeros((4, 18)),
                b1=np.zeros(4),
                w2=np.zeros(4),
                b2=0.0,
                rows=8,
                device=tiny_geniex.device,
                poly=np.zeros(3),
            )


class TestRowStability:
    """``predict_from_bias`` must evaluate each row independently.

    The vectorized engine kernel stacks bit-streams into one batch and
    compacts away undriven rows, so a row's currents must not depend on
    which batch it rides in.
    A plain BLAS GEMM breaks that silently — it picks different
    micro-kernels (different SIMD accumulation splits) depending on the
    row count — which is exactly the regression this guards against:
    large-batch results drifted from single-row results by >1e5 ULP
    until the matmuls moved to the row-stable form, now a fixed
    ascending-K sum per output (:mod:`repro.xbar.numerics`).
    """

    def test_rows_independent_of_batch_size(self, tiny_geniex, rng):
        device = tiny_geniex.device
        g = device.g_min + rng.integers(0, 4, size=(8, 8)) * device.g_step
        handle = tiny_geniex.column_bias(g)
        for n in (2, 5, 12, 16, 33):
            v = rng.random((n, 8)) * device.v_read
            full = tiny_geniex.predict_from_bias(v, handle)
            for i in range(n):
                single = tiny_geniex.predict_from_bias(v[i : i + 1], handle)
                np.testing.assert_array_equal(full[i], single[0])

    def test_concurrent_predictions_are_isolated(self, tiny_geniex, rng):
        """One predictor instance serves every engine a lab builds, and
        multi-lane serving calls it from several threads at once — the
        blocked-evaluation scratch must be per-thread, or one lane
        scribbles over another's pre-activations mid-matmul."""
        import threading

        device = tiny_geniex.device
        workloads = []
        for seed in range(4):
            local = np.random.default_rng(seed)
            g = device.g_min + local.integers(0, 4, size=(8, 8)) * device.g_step
            v = local.random((64, 8)) * device.v_read
            workloads.append((v, tiny_geniex.column_bias(g)))
        expected = [
            tiny_geniex.predict_from_bias(v, handle) for v, handle in workloads
        ]

        results = [[None] * len(workloads) for _ in range(4)]
        failures = []

        def worker(slot):
            try:
                for _ in range(10):
                    for i, (v, handle) in enumerate(workloads):
                        results[slot][i] = tiny_geniex.predict_from_bias(v, handle)
            except Exception as exc:  # pragma: no cover - diagnosis aid
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        for slot in range(4):
            for i, want in enumerate(expected):
                np.testing.assert_array_equal(results[slot][i], want)

    def test_no_scratch_and_pickled_clone_is_bit_identical(self, tiny_geniex, rng):
        """The predictor holds no per-call scratch, and a pickled clone
        predicts bit-identically.

        One predictor instance is shared by every engine a lab builds,
        by concurrent serving lanes and, shipped through shared memory,
        by pool workers.  Any buffer it kept between calls would be
        written by all of them at once, so prediction must leave the
        instance's state exactly as it found it."""
        import pickle

        device = tiny_geniex.device
        local = np.random.default_rng(7)
        g = device.g_min + local.integers(0, 4, size=(8, 8)) * device.g_step
        v = local.random((16, 8)) * device.v_read
        before = dict(vars(tiny_geniex))
        want = tiny_geniex.predict_from_bias(v, tiny_geniex.column_bias(g))
        assert vars(tiny_geniex).keys() == before.keys()
        assert all(vars(tiny_geniex)[k] is before[k] for k in before)

        clone = pickle.loads(pickle.dumps(tiny_geniex))
        assert vars(clone).keys() == before.keys()
        np.testing.assert_array_equal(
            clone.predict_from_bias(v, clone.column_bias(g)), want
        )
