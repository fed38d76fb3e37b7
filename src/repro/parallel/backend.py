"""Execution backends: serial in-process or a persistent process pool.

The pipeline's batch-axis operations (logit prediction, calibration
sweeps, per-image attack loops, surrogate distillation) are expressed
as lists of :class:`ShardTask` and handed to the installed backend:

* :class:`SerialBackend` (default) runs every shard in order, in
  process — exactly the computation the code performed before this
  module existed.
* :class:`ProcessBackend` ships shards to a persistent
  ``ProcessPoolExecutor``.  The model is pickled **once** into a
  shared-memory arena (:mod:`repro.parallel.shm`), so N workers map one
  physical copy of the weights and programmed conductances.  Results
  and telemetry are merged strictly in shard order, which together with
  the canonical shard plan and per-shard seed streams
  (:mod:`repro.parallel.scheduler`) makes parallel output bit-identical
  to serial output at any worker count.

Failures degrade gracefully: a worker crash, pickling failure or a
platform without POSIX shared memory flips the backend to serial (with
one warning) and re-runs the map in process, so ``--workers N`` can
never produce *fewer* results than ``--workers 1``.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import multiprocessing as mp
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.parallel import shm
from repro.parallel.queue import QueuePolicy, WorkQueue

logger = logging.getLogger(__name__)

#: True inside a pool worker (set by ``worker.worker_init``); guards
#: against recursive pool creation.
_IN_WORKER = False


@dataclass
class ShardTask:
    """One unit of work: a registered shard function plus its payload."""

    fn: str
    payload: dict = field(default_factory=dict)


class ExecutionBackend:
    """Interface every backend implements."""

    workers: int = 1

    def run_tasks(self, model, tasks: "list[ShardTask]") -> list:
        """Execute ``tasks`` against ``model``, results in task order."""
        raise NotImplementedError

    def invalidate(self, model) -> None:
        """Drop any shared snapshot of ``model`` (call after mutating it).

        Pooled process backends outlive the ``parallel_backend()``
        context that used them, so a mutation made while *any* backend
        is active (serial included) must reach every pooled snapshot —
        otherwise a later context entry would map the stale share.
        """
        _invalidate_pooled(model)

    def close(self) -> None:
        """Release pool processes and shared segments."""


class SerialBackend(ExecutionBackend):
    """In-process execution: the same shard functions, run in order."""

    workers = 1

    def run_tasks(self, model, tasks: "list[ShardTask]") -> list:
        from repro.parallel import worker

        return [worker.execute(model, task.fn, task.payload) for task in tasks]


def _pool_context():
    # fork is preferred: workers inherit loaded modules and the trained
    # predictor caches for free.  worker_init sanitizes what must not
    # be inherited (obs session, trace recorder, backend).
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _strip_scratch(model) -> None:
    """Remove per-process mutable scratch before sharing a model.

    Workers see shared arrays read-only; these buffers are written in
    place on the hot path and regenerate lazily per process.
    """
    named_modules = getattr(model, "named_modules", None)
    if named_modules is None:
        return
    for _name, module in named_modules():
        engine = getattr(module, "engine", None)
        if engine is None:
            continue
        for attr in (
            "_volt_buf", "_gain_sum_aa", "_gain_sum_ai", "_gain_rows",
            "_cal_amax", "_stream_ws", "_plane_ws",
            "_packed_codes_buf", "_expand_codes_buf",
        ):
            engine.__dict__.pop(attr, None)


def _merge_blob(model, blob: dict) -> None:
    """Fold one worker task's telemetry into the parent (shard order)."""
    from repro.obs import runtime as _runtime
    from repro.obs.metrics import REGISTRY
    from repro.xbar.perf import PerfCounters, iter_engines

    perf = blob.get("perf") or {}
    guard = blob.get("guard") or {}
    pulses = blob.get("pulses") or {}
    if model is not None and (perf or guard or pulses):
        engines = dict(iter_engines(model))
        for layer, fields_ in perf.items():
            engine = engines.get(layer)
            if engine is not None:
                engine.perf.merge(PerfCounters(**fields_))
        for layer, trips in guard.items():
            engine = engines.get(layer)
            if engine is not None:
                engine._guard_trips += trips
        for layer, delta in pulses.items():
            engine = engines.get(layer)
            if engine is not None and hasattr(engine, "pulse_count"):
                engine.pulse_count += delta
    state = blob.get("metrics")
    if state:
        REGISTRY.merge_state(state)
    series = blob.get("timeseries")
    if series:
        # Ring-buffer merges are order-independent by construction
        # (per-bucket combine operators), so unlike the P² replay above
        # this fold would be correct in any order — shard order is just
        # the convention of this path.
        from repro.obs.live import TIMESERIES

        TIMESERIES.merge_state(series)
    for event_type, payload in blob.get("events") or ():
        _runtime.event(event_type, **payload)


class ProcessBackend(ExecutionBackend):
    """Persistent process pool over shared-memory model snapshots."""

    def __init__(self, workers: int, policy: "QueuePolicy | None" = None):
        if workers < 2:
            raise ValueError(f"ProcessBackend needs >= 2 workers, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._serial = SerialBackend()
        # Strong refs keep id(model) stable for the cache lifetime; the
        # map is bounded by the handful of models a run touches and is
        # emptied by invalidate()/close().
        self._handles: dict[int, tuple[object, shm.SharedHandle]] = {}
        self._broken = False
        #: The scheduler.  Persistent with the backend, so its per-fn
        #: latency EWMA survives across maps (warm pools live for the
        #: whole process — see ``_POOLED``).
        self.queue = WorkQueue(workers, policy=policy)
        # Serving lanes call run_tasks from multiple threads: pool/share
        # setup and telemetry merging need mutual exclusion (the P²
        # histogram replay in _merge_blob is stateful).
        self._setup_lock = threading.RLock()
        self._merge_lock = threading.Lock()

    # -- pool / share management ---------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from repro.parallel import worker

            # Start the shared-memory resource tracker *before* forking:
            # forked workers must inherit the parent's tracker, or each
            # would lazily spawn its own on first segment attach and
            # later report the parent-unlinked segments as leaks.
            try:  # pragma: no cover - absent only without shared_memory
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except (ImportError, OSError):
                pass
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_pool_context(),
                initializer=worker.worker_init,
            )
        return self._pool

    def _share_model(self, model) -> shm.SharedHandle:
        cached = self._handles.get(id(model))
        if cached is not None and cached[0] is model:
            return cached[1]
        _strip_scratch(model)
        handle = shm.share(model)
        self._handles[id(model)] = (model, handle)
        return handle

    def invalidate(self, model) -> None:
        cached = self._handles.pop(id(model), None)
        if cached is not None:
            shm.release(cached[1])
        # A directly-constructed backend may coexist with pooled ones
        # holding their own snapshot of the same model.
        _invalidate_pooled(model)

    def close(self) -> None:
        # Release segments first and one-by-one: a broken pool must not
        # keep /dev/shm populated because its shutdown raised.
        for _model, handle in list(self._handles.values()):
            try:
                shm.release(handle)
            except Exception:  # pragma: no cover - unlink is best-effort
                logger.debug("shm release failed during close", exc_info=True)
        self._handles.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- execution ------------------------------------------------------
    def _mark_broken(self, exc: BaseException) -> None:
        self._broken = True
        # BrokenProcessPool's own message rarely says *why* the worker
        # died; surface the whole cause chain so CI logs show it.
        chain, link = [], exc
        while link is not None and len(chain) < 8:
            chain.append(f"{type(link).__name__}: {link}")
            link = link.__cause__ or link.__context__
        detail = " <- caused by ".join(chain)
        logger.warning(
            "parallel worker failure, falling back to serial: %s",
            detail,
            exc_info=exc,
        )
        warnings.warn(
            f"parallel backend disabled after worker failure ({detail}); "
            "continuing serially",
            RuntimeWarning,
            stacklevel=3,
        )
        # A broken backend must not linger as a warm pool: evict it so
        # the next parallel_backend()/configure() entry forks a fresh
        # one, and unlink its shm segments now rather than at interpreter
        # exit (close() below releases handles before pool teardown).
        _evict_pooled(self)
        try:
            self.close()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass

    def run_tasks(self, model, tasks: "list[ShardTask]") -> list:
        if not tasks:
            return []
        if self._broken or not shm.HAVE_SHM:
            return self._serial.run_tasks(model, tasks)
        from repro.obs import runtime as _runtime
        from repro.parallel import worker

        capture = _runtime.active() is not None
        try:
            with self._setup_lock:
                handle = self._share_model(model) if model is not None else None
                pool = self._ensure_pool()

            def submit(indices):
                group = [(tasks[i].fn, tasks[i].payload) for i in indices]
                return pool.submit(
                    worker.remote_execute_many, handle, group, capture
                )

            outcomes = self.queue.run(submit, tasks)
        except Exception as exc:
            # Worker crash, pickling failure, shm exhaustion, or a
            # deterministic task error: re-run serially.  Task errors
            # then re-raise in-process with a usable traceback, chained
            # to the pool-side exception so neither context is lost.
            self._mark_broken(exc)
            try:
                return self._serial.run_tasks(model, tasks)
            except Exception as serial_exc:
                raise serial_exc from exc
        results = []
        with self._merge_lock:
            for result, blob in outcomes:  # merged strictly in shard order
                _merge_blob(model, blob)
                results.append(result)
        if capture:
            summary = self.queue.last
            _runtime.event(
                "parallel_map",
                fn=tasks[0].fn,
                shards=len(tasks),
                workers=self.workers,
            )
            _runtime.event(
                "queue_map",
                fn=tasks[0].fn,
                items=len(tasks),
                tasks=summary.get("tasks", 0),
                steals=summary.get("steals", 0),
                resubmits=summary.get("resubmits", 0),
                mode=self.queue.policy.mode,
                workers=self.workers,
            )
        return results


# ----------------------------------------------------------------------
# Process-global backend selection.
# ----------------------------------------------------------------------

_ACTIVE: ExecutionBackend = SerialBackend()


def get_backend() -> ExecutionBackend:
    """The backend batch-axis operations currently dispatch through."""
    return _ACTIVE


def set_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Install ``backend``; returns the previous one (for restoring)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend
    return previous


def resolve_workers(workers: int) -> int:
    """Map the CLI convention to a concrete count (0 = cpu_count - 1)."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return max(1, (os.cpu_count() or 2) - 1)
    return workers


#: Warm worker pools keyed by worker count.  ``parallel_backend`` and
#: ``configure`` draw from here instead of forking a fresh pool per
#: entry, so a long-lived caller (the serving event loop, a pytest
#: session) can enter/exit repeatedly without paying a refork + shm
#: re-share each time.  Closed only by :func:`shutdown` (atexit).
_POOLED: dict[int, "ProcessBackend"] = {}


def _invalidate_pooled(model) -> None:
    """Drop every pooled backend's shared snapshot of ``model``."""
    for backend in _POOLED.values():
        cached = backend._handles.pop(id(model), None)
        if cached is not None:
            shm.release(cached[1])


def _evict_pooled(backend: "ProcessBackend") -> None:
    """Remove ``backend`` from the warm-pool map (broken-pool cleanup)."""
    for count, pooled in list(_POOLED.items()):
        if pooled is backend:
            del _POOLED[count]


def _pooled_backend(count: int) -> "ProcessBackend":
    """A warm ``ProcessBackend`` for ``count`` workers (replace if broken)."""
    backend = _POOLED.get(count)
    if backend is not None and not backend._broken:
        return backend
    if backend is not None:
        backend.close()
    backend = ProcessBackend(count)
    _POOLED[count] = backend
    return backend


def configure(workers: int) -> ExecutionBackend:
    """Install the process-global backend for a worker count.

    ``1`` (or a resolved ``0`` on a single-core machine) keeps the
    serial backend.  Inside a pool worker this is a no-op: workers
    always execute serially.
    """
    global _ACTIVE
    if _IN_WORKER:
        return _ACTIVE
    count = resolve_workers(workers)
    if (
        isinstance(_ACTIVE, ProcessBackend)
        and _ACTIVE.workers == count
        and not _ACTIVE._broken
    ):
        return _ACTIVE
    _ACTIVE = SerialBackend() if count <= 1 else _pooled_backend(count)
    return _ACTIVE


def shutdown() -> None:
    """Close every pool (active + warm) and unlink shared segments."""
    global _ACTIVE
    if isinstance(_ACTIVE, ProcessBackend):
        _ACTIVE.close()
        _ACTIVE = SerialBackend()
    for backend in _POOLED.values():
        backend.close()
    _POOLED.clear()
    shm.release_all()


@contextlib.contextmanager
def parallel_backend(workers: int):
    """Temporarily install a backend (tests and library callers).

    ``with parallel_backend(2): ...`` runs the body's batch operations
    on a 2-worker pool, then restores the previous backend.  The pool
    itself is pooled (see :data:`_POOLED`): re-entering with the same
    worker count reuses the warm workers and their shared-memory model
    cache instead of reforking, which makes the context safe to open
    and close repeatedly inside a long-lived event loop.  Pools are
    torn down by :func:`shutdown` (registered atexit).
    """
    count = resolve_workers(workers)
    backend: ExecutionBackend = (
        SerialBackend() if count <= 1 else _pooled_backend(count)
    )
    previous = set_backend(backend)
    try:
        yield backend
    finally:
        set_backend(previous)


atexit.register(shutdown)
