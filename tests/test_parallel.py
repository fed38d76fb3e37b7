"""Process-parallel backend: scheduler, shm, fallback and bit-identity.

The determinism contract under test: for every parallelized operation
(logit sweeps, calibration, PGD/Square/ensemble/HIL attacks), running
with ``--workers N`` produces *bit-identical* results to serial
execution, for any N — because the shard plan depends only on
``(n, shard_size)``, every shard draws from its own
``SeedSequence.spawn`` stream, and merges happen strictly in shard
order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_tiny_crossbar_config
from repro.attacks.pgd import PGD
from repro.attacks.square import SquareAttack
from repro.nn.resnet import build_model
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    ShardTask,
    get_backend,
    parallel_backend,
    plan_shards,
    shard_seeds,
)
from repro.parallel import shm
from repro.train.trainer import evaluate_accuracy
from repro.xbar.faults import FaultConfig
from repro.xbar.quant import QuantConfig, with_quant
from repro.xbar.simulator import (
    IdealPredictor,
    _named_nonideal_layers,
    calibrate_hardware,
    convert_to_hardware,
)

WORKER_COUNTS = (1, 2, 3)


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------


@given(n=st.integers(0, 500), size=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_plan_shards_covers_range_contiguously(n: int, size: int) -> None:
    shards = plan_shards(n, size)
    cursor = 0
    for i, shard in enumerate(shards):
        assert shard.index == i
        assert shard.start == cursor
        assert 0 < len(shard) <= size
        cursor = shard.stop
    assert cursor == n


def test_plan_shards_validates() -> None:
    with pytest.raises(ValueError):
        plan_shards(-1, 4)
    with pytest.raises(ValueError):
        plan_shards(4, 0)


@given(seed=st.integers(0, 2**31 - 1), k1=st.integers(0, 16), k2=st.integers(0, 16))
@settings(max_examples=50, deadline=None)
def test_shard_seeds_prefix_invariant(seed: int, k1: int, k2: int) -> None:
    """Shard i's stream depends only on (seed, i), never on the count.

    This is what makes results invariant to how many shards exist
    downstream of it — a smaller eval is a prefix of a bigger one.
    """
    lo, hi = sorted((k1, k2))
    seeds_lo = shard_seeds(seed, lo)
    seeds_hi = shard_seeds(seed, hi)
    for a, b in zip(seeds_lo, seeds_hi):
        assert (a.generate_state(4) == b.generate_state(4)).all()


# ----------------------------------------------------------------------
# Shared memory arena
# ----------------------------------------------------------------------


@pytest.mark.skipif(not shm.HAVE_SHM, reason="no multiprocessing.shared_memory")
def test_shm_round_trip_and_read_only_views() -> None:
    big = np.arange(4096, dtype=np.float64)
    small = np.arange(4, dtype=np.int64)
    obj = {"big": big, "small": small, "tag": "payload"}
    handle = shm.share(obj)
    try:
        loaded = shm.load(handle)
        assert (loaded["big"] == big).all()
        assert (loaded["small"] == small).all()
        assert loaded["tag"] == "payload"
        # Arena-backed arrays come back read-only; tiny arrays ride the
        # pickle inline and stay writable.
        assert not loaded["big"].flags.writeable
        # Loading the same token again returns the cached object.
        assert shm.load(handle) is loaded
    finally:
        shm.release(handle)


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


def test_pool_failure_falls_back_to_serial(monkeypatch) -> None:
    model = build_model("resnet10", num_classes=4, width=4, seed=1)
    model.eval()
    x = np.random.default_rng(0).random((6, 3, 8, 8)).astype(np.float32)
    y = np.arange(6) % 4
    backend = ProcessBackend(2)
    try:
        monkeypatch.setattr(
            backend, "_ensure_pool", lambda: (_ for _ in ()).throw(OSError("boom"))
        )
        from repro.parallel import backend as backend_mod

        previous = backend_mod.set_backend(backend)
        try:
            with pytest.warns(RuntimeWarning, match="continuing serially"):
                acc = evaluate_accuracy(model, x, y, batch_size=2)
        finally:
            backend_mod.set_backend(previous)
        assert backend._broken
        # The broken pool keeps answering — serially.
        assert acc == evaluate_accuracy(model, x, y, batch_size=2)
    finally:
        backend.close()


def test_fallback_warning_carries_cause_chain(monkeypatch) -> None:
    """The degradation warning names the root cause, not just the wrapper."""
    backend = ProcessBackend(2)
    try:

        def explode():
            try:
                raise PermissionError("shm segment denied")
            except PermissionError as root:
                raise OSError("pool start failed") from root

        monkeypatch.setattr(backend, "_ensure_pool", explode)
        tasks = [ShardTask("synthetic", {"index": i}) for i in range(3)]
        with pytest.warns(RuntimeWarning) as caught:
            results = backend.run_tasks(None, tasks)
        message = str(caught[0].message)
        assert "OSError: pool start failed" in message
        assert "caused by" in message
        assert "PermissionError: shm segment denied" in message
        assert "continuing serially" in message
        assert [r["index"] for r in results] == [0, 1, 2]
    finally:
        backend.close()


def test_fallback_serial_error_chains_to_pool_error(monkeypatch) -> None:
    """If the serial retry *also* fails, neither traceback is swallowed."""
    backend = ProcessBackend(2)
    try:
        monkeypatch.setattr(
            backend,
            "_ensure_pool",
            lambda: (_ for _ in ()).throw(OSError("pool boom")),
        )
        monkeypatch.setattr(
            backend._serial,
            "run_tasks",
            lambda model, tasks: (_ for _ in ()).throw(
                ValueError("serial boom")
            ),
        )
        tasks = [ShardTask("synthetic", {"index": 0})]
        with pytest.warns(RuntimeWarning, match="continuing serially"):
            with pytest.raises(ValueError, match="serial boom") as excinfo:
                backend.run_tasks(None, tasks)
        cause = excinfo.value.__cause__
        assert isinstance(cause, OSError)
        assert "pool boom" in str(cause)
    finally:
        backend.close()


def test_killed_worker_evicts_warm_pool_and_releases_shm(digital_model) -> None:
    """SIGKILLing a pool worker must not leave a zombie warm pool behind.

    The broken backend has to (a) answer the in-flight map serially,
    (b) evict itself from the warm-pool cache so the next entry forks a
    fresh pool, and (c) unlink its shared-memory snapshots immediately
    instead of at interpreter exit.
    """
    import os
    import signal

    from repro.parallel import backend as backend_mod

    x = np.random.default_rng(0).random((6, 3, 8, 8)).astype(np.float32)
    y = np.arange(6) % 4
    serial = evaluate_accuracy(digital_model, x, y, batch_size=2)

    with parallel_backend(2) as backend:
        # Warm the pool (forks workers, shares the model).
        assert serial == evaluate_accuracy(digital_model, x, y, batch_size=2)
        assert backend_mod._POOLED.get(2) is backend
        assert backend._handles
        victims = list(backend._pool._processes.values())
        assert victims
        for proc in victims:
            os.kill(proc.pid, signal.SIGKILL)
        with pytest.warns(RuntimeWarning, match="continuing serially"):
            acc = evaluate_accuracy(digital_model, x, y, batch_size=2)
        assert acc == serial
        assert backend._broken
        # Evicted from the warm-pool map, shm handles unlinked now.
        assert backend_mod._POOLED.get(2) is not backend
        assert not backend._handles

    # A fresh entry forks a replacement pool that works bit-identically.
    with parallel_backend(2) as fresh:
        assert fresh is not backend
        assert not fresh._broken
        assert serial == evaluate_accuracy(digital_model, x, y, batch_size=2)


def test_out_of_order_completion_merges_in_task_order(monkeypatch) -> None:
    """Shards that finish out of order still come back in task order.

    Sleeps fall with the index, so on two workers shard 1 finishes
    before shard 0.  The pool hands shards to idle workers in FIFO
    order and the backend reads results by task index, so the merged
    list is the serial map whatever the completion order.
    """
    import threading

    n = 4
    tasks = [
        ShardTask("synthetic", {"index": i, "sleep_ms": 100.0 * (n - i)})
        for i in range(n)
    ]
    serial = SerialBackend().run_tasks(None, tasks)
    backend = ProcessBackend(2)
    try:
        warm = [ShardTask("synthetic", {"index": i}) for i in range(2)]
        backend.run_tasks(None, warm)  # both workers up before timing
        pool = backend._pool
        completed: list = []
        all_done = threading.Event()

        class RecordingPool:
            """Pass-through to the real pool that logs completion order."""

            def submit(self, fn, handle, name, payload, capture):
                future = pool.submit(fn, handle, name, payload, capture)

                def record(_future, index=payload["index"]):
                    completed.append(index)
                    if len(completed) == n:
                        all_done.set()

                future.add_done_callback(record)
                return future

        monkeypatch.setattr(backend, "_ensure_pool", RecordingPool)
        parallel = backend.run_tasks(None, tasks)
        assert all_done.wait(timeout=10.0)
    finally:
        backend.close()
    assert not backend._broken
    assert completed != sorted(completed), completed
    assert parallel == serial
    assert [r["index"] for r in parallel] == list(range(n))


def test_parallel_backend_restores_previous() -> None:
    before = get_backend()
    with parallel_backend(2) as backend:
        assert get_backend() is backend
        assert backend.workers == 2
    assert get_backend() is before


# ----------------------------------------------------------------------
# Bit-identity: evaluation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def digital_model():
    model = build_model("resnet10", num_classes=4, width=4, seed=1)
    model.eval()
    return model


@pytest.fixture(scope="module")
def eval_batch():
    rng = np.random.default_rng(0)
    x = rng.random((10, 3, 8, 8)).astype(np.float32)
    y = np.arange(10) % 4
    return x, y


@pytest.fixture(scope="module")
def faulty_hardware(digital_model):
    """Hardware with injected faults + fallback guard: the worst case
    for state shipping (ideal-bias fallbacks, guard counters)."""
    config = make_tiny_crossbar_config()
    config = dataclasses.replace(
        config, faults=FaultConfig(stuck_at_gmin_rate=0.05, seed=3)
    )
    config = dataclasses.replace(
        config, guard=dataclasses.replace(config.guard, mode="fallback")
    )
    return convert_to_hardware(
        digital_model,
        config,
        predictor=IdealPredictor(),
        rng=np.random.default_rng(5),
        engine_cache=False,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_evaluate_accuracy_identical_digital(workers, digital_model, eval_batch):
    x, y = eval_batch
    serial = evaluate_accuracy(digital_model, x, y, batch_size=4)
    with parallel_backend(workers):
        parallel = evaluate_accuracy(digital_model, x, y, batch_size=4)
    assert serial == parallel


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_evaluate_accuracy_identical_faulty_hardware(
    workers, faulty_hardware, eval_batch
):
    x, y = eval_batch
    serial = evaluate_accuracy(faulty_hardware, x, y, batch_size=4)
    with parallel_backend(workers):
        parallel = evaluate_accuracy(faulty_hardware, x, y, batch_size=4)
    assert serial == parallel


def test_calibrate_hardware_gains_identical(digital_model):
    config = make_tiny_crossbar_config()
    images = np.random.default_rng(7).random((8, 3, 8, 8)).astype(np.float32)
    kwargs = dict(
        predictor=IdealPredictor(), rng=np.random.default_rng(5), engine_cache=False
    )
    serial_hw = convert_to_hardware(digital_model, config, **kwargs)
    parallel_hw = convert_to_hardware(digital_model, config, **kwargs)
    calibrate_hardware(serial_hw, images, batch_size=4)
    with parallel_backend(2):
        calibrate_hardware(parallel_hw, images, batch_size=4)
    for (name, a), (_, b) in zip(
        _named_nonideal_layers(serial_hw), _named_nonideal_layers(parallel_hw)
    ):
        np.testing.assert_array_equal(a.engine.gain, b.engine.gain, err_msg=name)


# ----------------------------------------------------------------------
# Bit-identity: int8 quantized mode
# ----------------------------------------------------------------------


def _int8_config():
    return with_quant(
        make_tiny_crossbar_config(adc_bits=6), QuantConfig(mode="int8")
    )


@pytest.fixture(scope="module")
def int8_hardware(digital_model):
    """Quantized hardware, calibrated serially (scale sweep + gain refit)."""
    hw = convert_to_hardware(
        digital_model,
        _int8_config(),
        predictor=IdealPredictor(),
        rng=np.random.default_rng(5),
        engine_cache=False,
    )
    images = np.random.default_rng(7).random((8, 3, 8, 8)).astype(np.float32)
    calibrate_hardware(hw, images, batch_size=4)
    return hw


def test_int8_calibration_identical(digital_model):
    """The two-pass quant calibration (static scales + gain refit) must
    install bit-identical scales and gains under a parallel backend —
    the amax merge is a max(), so shard order cannot perturb it."""
    images = np.random.default_rng(7).random((8, 3, 8, 8)).astype(np.float32)
    kwargs = dict(
        predictor=IdealPredictor(), rng=np.random.default_rng(5), engine_cache=False
    )
    serial_hw = convert_to_hardware(digital_model, _int8_config(), **kwargs)
    parallel_hw = convert_to_hardware(digital_model, _int8_config(), **kwargs)
    calibrate_hardware(serial_hw, images, batch_size=4)
    with parallel_backend(2):
        calibrate_hardware(parallel_hw, images, batch_size=4)
    for (name, a), (_, b) in zip(
        _named_nonideal_layers(serial_hw), _named_nonideal_layers(parallel_hw)
    ):
        assert a.engine.x_scale == b.engine.x_scale, name
        assert a.engine.quant_active and b.engine.quant_active, name
        np.testing.assert_array_equal(a.engine.gain, b.engine.gain, err_msg=name)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_int8_logits_identical(workers, int8_hardware, eval_batch):
    from repro.attacks.base import predict_logits

    x, _y = eval_batch
    serial = predict_logits(int8_hardware, x, batch_size=4)
    with parallel_backend(workers):
        parallel = predict_logits(int8_hardware, x, batch_size=4)
    assert np.array_equal(serial, parallel)


@pytest.fixture(scope="module")
def int8_geniex_hardware(digital_model, tiny_geniex):
    """Quantized hardware on the GENIEx surrogate, calibrated serially."""
    hw = convert_to_hardware(
        digital_model,
        _int8_config(),
        predictor=tiny_geniex,
        rng=np.random.default_rng(5),
        engine_cache=False,
    )
    images = np.random.default_rng(7).random((8, 3, 8, 8)).astype(np.float32)
    calibrate_hardware(hw, images, batch_size=4)
    return hw


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_int8_geniex_logits_identical(workers, int8_geniex_hardware, eval_batch):
    """The GENIEx predictor ships to workers through shared memory and
    holds no scratch of its own, so int8 logits match serial exactly."""
    from repro.attacks.base import predict_logits

    x, _y = eval_batch
    serial = predict_logits(int8_geniex_hardware, x, batch_size=2)
    with parallel_backend(workers):
        parallel = predict_logits(int8_geniex_hardware, x, batch_size=2)
    assert np.array_equal(serial, parallel)


@pytest.fixture(scope="module")
def geniex_hardware(digital_model, tiny_geniex):
    """Float hardware on the GENIEx surrogate."""
    return convert_to_hardware(
        digital_model,
        make_tiny_crossbar_config(adc_bits=6),
        predictor=tiny_geniex,
        rng=np.random.default_rng(5),
        engine_cache=False,
    )


@pytest.mark.parametrize("workers", (2, 4))
def test_geniex_eval_and_square_identical(workers, geniex_hardware, eval_batch):
    """Float GENIEx evaluation and Square match serial at 2 and 4 workers."""
    x, y = eval_batch

    def square():
        return SquareAttack(8 / 255, max_queries=4, seed=3, batch_size=4).generate(
            geniex_hardware, x, y
        )

    serial_acc = evaluate_accuracy(geniex_hardware, x, y, batch_size=4)
    serial = square()
    with parallel_backend(workers):
        parallel_acc = evaluate_accuracy(geniex_hardware, x, y, batch_size=4)
        parallel = square()
    assert serial_acc == parallel_acc
    assert serial.x_adv.tobytes() == parallel.x_adv.tobytes()
    assert (serial.queries == parallel.queries).all()
    assert (serial.success == parallel.success).all()


# ----------------------------------------------------------------------
# Bit-identity: attacks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_pgd_identical(workers, faulty_hardware, eval_batch):
    x, y = eval_batch

    def run():
        return PGD(
            8 / 255, iterations=2, batch_size=4, seed=7, random_start=True
        ).generate(faulty_hardware, x, y)

    serial = run()
    with parallel_backend(workers):
        parallel = run()
    assert serial.x_adv.tobytes() == parallel.x_adv.tobytes()
    assert (serial.success == parallel.success).all()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_square_identical(workers, faulty_hardware, eval_batch):
    x, y = eval_batch

    def run():
        return SquareAttack(8 / 255, max_queries=4, seed=3, batch_size=4).generate(
            faulty_hardware, x, y
        )

    serial = run()
    with parallel_backend(workers):
        parallel = run()
    assert serial.x_adv.tobytes() == parallel.x_adv.tobytes()
    assert (serial.queries == parallel.queries).all()
    assert (serial.success == parallel.success).all()


def test_hil_square_identical(faulty_hardware, eval_batch):
    from repro.attacks.hil import hil_square_attack

    x, y = eval_batch
    serial = hil_square_attack(
        faulty_hardware, x, y, epsilon=8 / 255, max_queries=3, seed=1, batch_size=4
    )
    with parallel_backend(2):
        parallel = hil_square_attack(
            faulty_hardware, x, y, epsilon=8 / 255, max_queries=3, seed=1, batch_size=4
        )
    assert serial.x_adv.tobytes() == parallel.x_adv.tobytes()


def test_ensemble_distillation_identical(digital_model, eval_batch):
    from repro.attacks.ensemble import EnsembleBlackBox, EnsembleConfig, SurrogateSpec

    x, y = eval_batch
    config = EnsembleConfig(
        surrogates=[
            SurrogateSpec("resnet10", width=4, seed=11),
            SurrogateSpec("resnet10", width=4, seed=12),
        ],
        distill_epochs=1,
        batch_size=8,
        query_batch=8,
    )

    def run():
        attack = EnsembleBlackBox(8 / 255, iterations=2, config=config, seed=5)
        attack.fit(digital_model, x)
        return attack

    serial = run()
    with parallel_backend(2):
        parallel = run()
    for key, value in serial.ensemble.state_dict().items():
        np.testing.assert_array_equal(
            value, parallel.ensemble.state_dict()[key], err_msg=key
        )
    a = serial.generate(x, y)
    with parallel_backend(2):
        b = parallel.generate(x, y)
    assert a.x_adv.tobytes() == b.x_adv.tobytes()


# ----------------------------------------------------------------------
# Bit-identity: temporal drift
# ----------------------------------------------------------------------


def make_drifting_hardware(digital_model):
    from repro.xbar.drift import DriftConfig, with_drift

    config = with_drift(
        make_tiny_crossbar_config(),
        DriftConfig(
            epoch_pulses=64,
            retention_nu=0.15,
            retention_sigma=0.4,
            read_disturb_rate=1e-4,
            seed=11,
        ),
    )
    return convert_to_hardware(
        digital_model,
        config,
        predictor=IdealPredictor(),
        rng=np.random.default_rng(5),
        engine_cache=False,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_drifting_serve_loop_identical(workers, digital_model, eval_batch):
    """A multi-block serve loop on a drifting chip is worker-invariant.

    Each parallel map runs at the *frozen* drift epoch; per-worker pulse
    deltas merge back in shard order, and conductances only move at the
    explicit sync between blocks — so logits, pulse counters and drift
    epochs all match serial execution bitwise, block by block.
    """
    from repro.attacks.base import predict_logits
    from repro.lifecycle import drift_status, sync_model_drift

    x, y = eval_batch

    def serve(hardware, parallel_workers=None):
        trajectory = []
        for _block in range(3):
            if parallel_workers:
                with parallel_backend(parallel_workers):
                    logits = predict_logits(hardware, x, batch_size=4)
            else:
                logits = predict_logits(hardware, x, batch_size=4)
            sync_model_drift(hardware)
            pulses = {
                name: layer.engine.pulse_count
                for name, layer in _named_nonideal_layers(hardware)
            }
            epochs = {
                name: state["epoch"]
                for name, state in drift_status(hardware).items()
            }
            trajectory.append((logits.tobytes(), pulses, epochs))
        return trajectory

    serial = serve(make_drifting_hardware(digital_model))
    parallel = serve(make_drifting_hardware(digital_model), workers)
    assert any(
        epoch > 0 for _b, _p, epochs in serial for epoch in epochs.values()
    ), "the serve loop must actually age the chip"
    for block, (a, b) in enumerate(zip(serial, parallel)):
        assert a[0] == b[0], f"logits diverge at block {block}"
        assert a[1] == b[1], f"pulse counters diverge at block {block}"
        assert a[2] == b[2], f"drift epochs diverge at block {block}"


# ----------------------------------------------------------------------
# Telemetry merge parity
# ----------------------------------------------------------------------


def test_obs_artifacts_identical(faulty_hardware, eval_batch, tmp_path):
    import json

    from repro.obs import runtime as obs_runtime
    from repro.obs.metrics import REGISTRY

    x, y = eval_batch

    def run(workers, out_dir):
        obs_runtime.start_run("parallel-test", out_dir=out_dir)
        try:
            with parallel_backend(workers):
                PGD(8 / 255, iterations=2, batch_size=4, seed=7).generate(
                    faulty_hardware, x, y
                )
            snapshot = REGISTRY.snapshot()
        finally:
            obs_runtime.finish_run()
        events = [
            json.loads(line) for line in (out_dir / "events.jsonl").open()
        ]
        interesting = [
            {k: v for k, v in event.items() if k != "t"}
            for event in events
            if event.get("type") in ("attack_iter", "guard_trip")
        ]
        return snapshot, interesting

    serial_snapshot, serial_events = run(1, tmp_path / "serial")
    parallel_snapshot, parallel_events = run(2, tmp_path / "parallel")
    assert serial_snapshot == parallel_snapshot
    assert serial_events == parallel_events


def test_perf_counters_ship_back(faulty_hardware, eval_batch):
    from repro.xbar.perf import iter_engines, reset_perf

    x, y = eval_batch
    reset_perf(faulty_hardware)
    with parallel_backend(2):
        evaluate_accuracy(faulty_hardware, x, y, batch_size=4)
    parallel_counts = {
        name: engine.perf.matvec_calls for name, engine in iter_engines(faulty_hardware)
    }
    reset_perf(faulty_hardware)
    evaluate_accuracy(faulty_hardware, x, y, batch_size=4)
    serial_counts = {
        name: engine.perf.matvec_calls for name, engine in iter_engines(faulty_hardware)
    }
    assert parallel_counts == serial_counts
    assert any(parallel_counts.values())
