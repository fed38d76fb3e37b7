"""Worker runtime: the per-shard execution units and pool lifecycle.

Every parallelizable operation in the pipeline is expressed as a named
*shard function* — ``(model, payload) -> result`` — registered in
:data:`SHARD_FNS`.  The serial backend calls :func:`execute` directly
in the parent process; the process backend submits each shard as one
pool task that ships a :class:`~repro.parallel.shm.SharedHandle` plus
the payload to whichever worker is idle and runs
:func:`remote_execute` there.  Both paths run the *same*
function on the *same* shard with the *same* seed stream, which is what
makes serial and parallel results bit-identical.

Worker lifecycle
----------------
Pool processes are created once (fork-preferred) with
:func:`worker_init`, which sanitizes state inherited from the parent:
the obs session is detached (workers must never write to the parent's
JSONL sink), the trace recorder is uninstalled, the metrics registry is
cleared and switched to sample-recording mode, and the execution
backend is pinned to serial so nothing in a worker can recursively
spawn pools.  Shared models are materialized lazily by token and cached
for the life of the process, so a persistent worker unpickles each
model exactly once.

Telemetry
---------
When the parent has an obs run active, :func:`remote_execute` installs
a :class:`~repro.obs.runtime.WorkerCapture` session so the health/
attack instrumentation records exactly as it would inline, then ships
the raw material back: metric state with *raw histogram samples* (P²
marker state is order-dependent, so the parent re-observes in shard
order), buffered events, per-layer perf-counter deltas and guard-trip
counts.  The backend merges all of it in shard order.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import shm


def worker_init() -> None:
    """Initializer for pool processes: sanitize fork-inherited state."""
    from repro.obs import runtime as _runtime
    from repro.obs import trace as _trace
    from repro.obs.metrics import REGISTRY
    from repro.parallel import backend as _backend

    from repro.obs.live import TIMESERIES

    # Never write to the parent's sink or trace recorder from a worker.
    _runtime._SESSION = None
    _trace.uninstall()
    REGISTRY.clear()
    TIMESERIES.clear()  # live series inherited from the parent fork
    # Record raw histogram samples so the parent can replay observations
    # in shard order (exact P² state parity with a serial run).
    REGISTRY.record_samples = True
    # Workers execute their shards serially; a forked ProcessBackend
    # must not recursively spawn grandchild pools.
    _backend._ACTIVE = _backend.SerialBackend()
    _backend._IN_WORKER = True


# ----------------------------------------------------------------------
# Shard functions.  Each one reconstructs cheap driver state from the
# payload and calls back into the library, so the computation is the
# same code path serial execution uses.
# ----------------------------------------------------------------------


def _fn_logits(model, payload: dict) -> np.ndarray:
    from repro.attacks.base import predict_logits

    model.eval()
    return predict_logits(model, payload["x"], payload["batch_size"])


def _fn_pgd(model, payload: dict) -> dict:
    from repro.attacks.pgd import PGD

    attack = PGD(
        payload["epsilon"],
        iterations=payload["iterations"],
        alpha=payload["alpha"],
        random_start=payload["random_start"],
        batch_size=payload["batch_size"],
    )
    attack._obs_name = payload["obs_name"]
    rng = np.random.default_rng(payload["seed"])
    return attack.run_shard(model, payload["x"], payload["y"], rng)


def _fn_square(model, payload: dict) -> dict:
    from repro.attacks.square import SquareAttack

    attack = SquareAttack(
        payload["epsilon"],
        max_queries=payload["max_queries"],
        p_init=payload["p_init"],
        batch_size=payload["batch_size"],
    )
    attack._obs_name = payload["obs_name"]
    rng = np.random.default_rng(payload["seed"])
    return attack.run_shard(model, payload["x"], payload["y"], rng)


def _fn_calibrate(model, payload: dict) -> dict:
    from repro.xbar.simulator import collect_calibration_stats

    return collect_calibration_stats(model, payload["images"])


def _fn_distill(_model, payload: dict) -> dict:
    from repro.attacks.ensemble import distill_member

    member = distill_member(
        payload["spec"],
        payload["images"],
        payload["probs"],
        payload["config"],
        payload["num_classes"],
    )
    return member.state_dict()


def _fn_synthetic(_model, payload: dict) -> dict:
    """Deterministic timed no-op shard for backend tests.

    Sleeps ``sleep_ms`` (so a test can make shards complete out of
    order) and returns a pure function of the payload, so bit-identity
    checks work on it like on any real shard.
    """
    import time

    sleep_ms = float(payload.get("sleep_ms", 0.0))
    if sleep_ms > 0.0:
        time.sleep(sleep_ms / 1e3)
    index = int(payload.get("index", 0))
    return {"index": index, "value": (index * 0x9E3779B1) & 0xFFFFFFFF}


#: Registry of shard functions, addressed by :class:`ShardTask.fn`.
SHARD_FNS = {
    "logits": _fn_logits,
    "pgd": _fn_pgd,
    "square": _fn_square,
    "calibrate": _fn_calibrate,
    "distill": _fn_distill,
    "synthetic": _fn_synthetic,
}


def execute(model, fn: str, payload: dict):
    """Run one shard in the current process (the serial path)."""
    return SHARD_FNS[fn](model, payload)


# ----------------------------------------------------------------------
# Remote execution with telemetry harvest.
# ----------------------------------------------------------------------


def _engines_by_layer(model) -> dict:
    from repro.xbar.perf import iter_engines

    if model is None:
        return {}
    return dict(iter_engines(model))


def remote_execute(handle, fn: str, payload: dict, capture: bool):
    """Pool-worker entry point: materialize, execute, harvest, ship.

    Returns ``(result, blob)`` where ``blob`` carries the per-task
    telemetry deltas (perf counters, guard trips, metric state, events)
    for in-order merging by the parent.  ``handle`` may be ``None`` for
    model-free tasks (surrogate distillation).
    """
    from repro.obs import runtime as _runtime
    from repro.obs.live import TIMESERIES
    from repro.obs.metrics import REGISTRY

    model = shm.load(handle) if handle is not None else None
    engines = _engines_by_layer(model)
    # The shared model persists across tasks: zero its counters so the
    # harvest below is exactly this task's delta.  The pulse counter is
    # *not* reset — it is absolute chip age on this worker's copy — so
    # its delta is snapshotted instead.
    pulses_before = {
        layer: getattr(engine, "pulse_count", 0) for layer, engine in engines.items()
    }
    for engine in engines.values():
        engine.perf.reset()
        engine._guard_trips = 0
    if capture:
        REGISTRY.clear()
        TIMESERIES.clear()
        _runtime.begin_worker_capture()
    try:
        result = SHARD_FNS[fn](model, payload)
    finally:
        session = _runtime.end_worker_capture() if capture else None
    blob: dict = {
        "perf": {
            layer: engine.perf.as_dict()
            for layer, engine in engines.items()
            if engine.perf.matvec_calls or engine.perf.predictor_seconds
        },
        "guard": {
            layer: engine._guard_trips
            for layer, engine in engines.items()
            if engine._guard_trips
        },
        # Read-pulse deltas (chip aging) merge as plain sums, and sums
        # are order-independent over integers — so the parent's pulse
        # counters land bit-identical to a serial run regardless of
        # worker count (the shard *plan* is already canonical).
        "pulses": {
            layer: getattr(engine, "pulse_count", 0) - pulses_before[layer]
            for layer, engine in engines.items()
            if getattr(engine, "pulse_count", 0) != pulses_before[layer]
        },
    }
    if capture:
        blob["metrics"] = REGISTRY.export_state()
        blob["timeseries"] = TIMESERIES.export_state()
        blob["events"] = session.events if session is not None else []
        REGISTRY.clear()
        TIMESERIES.clear()
    return result, blob

