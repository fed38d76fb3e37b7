"""The asyncio analog-inference server.

:class:`AnalogServer` glues the pieces together: requests enter through
:meth:`submit` (admission-controlled — a full queue raises a **typed**
:class:`ServerOverloaded`, it never silently drops a future), coalesce
in the :class:`MicroBatcher`, and are served by a single background
collector that dispatches each cut batch to one of ``lanes`` dedicated
one-thread executors (the *inference lanes*): the event loop stays
responsive during multi-millisecond analog forwards, and with more than
one lane, batches for different tenants overlap in wall time (each
lane's batches fan out through the shared :mod:`repro.parallel` pool,
whose per-worker model replicas were materialized once from the shm
arena).  The obs trace recorder keeps one span stack *per thread*, so
every lane emits balanced, correctly nested spans.

Tenant→lane assignment is a pure function of the tenant name
(``crc32(name) % lanes``): a tenant's batches always execute on the
same lane, in cut order, so its engine state (drift pulses, maintenance
ticks, calibration scratch) is single-threaded no matter how many lanes
exist — which, together with pinned-DAC batch-composition independence,
keeps served logits bit-identical at any lane count.

Drift accounting rides along for free: every served row advances the
engines' pulse counters into a **per-lane ledger** (merged as integer
sums — order-independent — for stats and drift epochs), and per-tenant
maintenance (an attached
:class:`repro.lifecycle.RecalibrationScheduler`) ticks on the tenant's
lane **between** micro-batches once enough pulses have accumulated —
never inside one, so drift-epoch sync points can't split a batch.

The coalescing-identity contract (a request's logits do not depend on
its batch-mates — bit for bit) is established by the engine's serving
mode (:func:`repro.serve.pin_for_serving`); with it, the batch axis can
also be sharded across the :mod:`repro.parallel` pool without changing
a single bit of any response.
"""

from __future__ import annotations

import asyncio
import math
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.obs.metrics import REGISTRY, Histogram
from repro.obs.trace import span as _span
from repro.serve.batching import MicroBatch, MicroBatcher, QueueFull
from repro.serve.registry import ModelRegistry


class ServeError(Exception):
    """Base class of every typed serving rejection."""

    reason = "error"


class ServerOverloaded(ServeError):
    """Admission denied: the bounded request queue is full."""

    reason = "overloaded"


class UnknownModel(ServeError):
    """The request named a tenant the registry has never heard of."""

    reason = "unknown_model"


class InvalidImage(ServeError):
    """The request's image does not match the tenant's input shape."""

    reason = "invalid_image"


class ServerClosed(ServeError):
    """The server is not accepting requests (stopped or never started)."""

    reason = "closed"


@dataclass(frozen=True)
class ServeConfig:
    """Serving knobs (see DESIGN.md §9 for the queueing model)."""

    #: Largest micro-batch one model invocation may serve.
    max_batch: int = 8
    #: Longest a request may wait for batch-mates before the cut.
    max_wait_us: float = 2000.0
    #: Admission bound on requests in flight (queued, not yet served).
    queue_limit: int = 64
    #: Parallel inference lanes.  Tenants map to lanes deterministically
    #: (``crc32(name) % lanes``), so any lane count serves bit-identical
    #: logits; more lanes let different tenants' batches overlap.
    lanes: int = 1


@dataclass
class ServeResult:
    """One served request: its logits plus batching telemetry."""

    request_id: int
    model: str
    logits: np.ndarray
    batch_size: int  # size of the micro-batch that served it
    queued_us: float
    infer_us: float


@dataclass
class ServerStats:
    """Aggregate serving statistics (see :meth:`AnalogServer.stats`)."""

    requests: int
    batches: int
    rejected: int
    batching_efficiency: float
    latency_us: dict
    queue_us: dict
    infer_us: dict
    batch_size: dict
    pulses: dict[str, int]
    maintenance_ticks: int

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "rejected": self.rejected,
            "batching_efficiency": self.batching_efficiency,
            "latency_us": self.latency_us,
            "queue_us": self.queue_us,
            "infer_us": self.infer_us,
            "batch_size": self.batch_size,
            "pulses": self.pulses,
            "maintenance_ticks": self.maintenance_ticks,
        }

    def format(self) -> str:
        lat = self.latency_us
        return (
            f"requests={self.requests} batches={self.batches} "
            f"rejected={self.rejected} "
            f"batching_efficiency={self.batching_efficiency:.2f} "
            f"latency p50={lat.get('p50', float('nan')) / 1e3:.2f}ms "
            f"p99={lat.get('p99', float('nan')) / 1e3:.2f}ms"
        )

    def format_table(self) -> str:
        """Latency/queue/infer quantile table (shared renderer)."""
        from repro.obs.summary import render_table

        def row(label: str, hist: dict) -> list:
            return [
                label,
                hist.get("count", 0),
                *(
                    f"{hist.get(key, float('nan')) / 1e3:.2f}"
                    for key in ("p50", "p90", "p99")
                ),
            ]

        lines = render_table(
            ["stage", "n", "p50 ms", "p90 ms", "p99 ms"],
            [
                row("latency", self.latency_us),
                row("queue", self.queue_us),
                row("infer", self.infer_us),
            ],
        )
        return "\n".join(lines)


@dataclass
class _Request:
    """Payload carried through the batcher for one submitted image."""

    request_id: int
    image: np.ndarray
    future: asyncio.Future
    #: End-to-end trace id; propagates into the batch's fan-in links.
    trace_id: str = ""
    #: Whether this request emits a full ``request_trace`` event.
    sampled: bool = False


@dataclass
class _Maintenance:
    """Per-tenant scheduler hook state."""

    scheduler: object
    every_pulses: int
    #: Cheap drift-sync cadence (pulses); 0 leaves sync to full ticks.
    #: Syncing between probe ticks is what lets the anomaly watcher see
    #: drift onset in live signals *before* the periodic probe runs.
    sync_every_pulses: int = 0
    pending: int = 0
    sync_pending: int = 0
    ticks: int = 0
    anomaly_ticks: int = 0


class AnalogServer:
    """Continuous micro-batching front-end over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        telemetry=None,
        lanes: int | None = None,
    ):
        self.registry = registry
        self.config = config or ServeConfig()
        self.lanes = max(1, lanes if lanes is not None else self.config.lanes)
        #: Optional :class:`repro.serve.telemetry.LiveTelemetry`.  The
        #: default (None) path costs one attribute check per call site —
        #: the PR 4 <5% disabled-overhead guard covers serving too.
        self.telemetry = telemetry
        if telemetry is not None:
            for name in registry.names():
                telemetry.register(registry.spec(name))
        self._batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
            queue_limit=self.config.queue_limit,
        )
        self._lanes: list[ThreadPoolExecutor] = []
        self._collector: asyncio.Task | None = None
        self._running = False
        self._next_id = 0
        self._next_batch_id = 0
        self._latency = Histogram()
        self._queue_wait = Histogram()
        self._infer = Histogram()
        self._batch_sizes = Histogram()
        #: Per-lane drift pulse ledgers.  Each tenant writes only its
        #: own lane's dict (single-threaded by assignment); ``stats()``
        #: merges them as integer sums, which are order-independent, so
        #: drift epochs stay bit-reproducible at any lane count.
        self._lane_pulses: list[dict[str, int]] = [
            {} for _ in range(self.lanes)
        ]
        self._lane_busy_us: list[float] = [0.0] * self.lanes
        self._lane_batches: list[int] = [0] * self.lanes
        self._started_at: float | None = None
        self._maintenance: dict[str, _Maintenance] = {}
        #: Rejections made before the batcher sees the request
        #: (unknown_model / invalid_image); the batcher counts only its
        #: own overload sheds, and ``stats()`` reports the sum.
        self._rejected_presubmit = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AnalogServer":
        if self._running:
            raise RuntimeError("server already started")
        # One single-thread executor per lane: within a lane, batches
        # run strictly in submission (= cut) order, which keeps every
        # tenant's engine state single-threaded.
        self._lanes = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"serve-lane-{i}")
            for i in range(self.lanes)
        ]
        self._started_at = time.perf_counter()
        self._running = True
        self._collector = asyncio.get_running_loop().create_task(self._run())
        return self

    def lane_for(self, model: str) -> int:
        """Deterministic tenant→lane assignment.

        A pure function of the tenant *name* — independent of
        registration order, traffic, or lane load — so the same tenant
        always lands on the same lane and (for a fixed lane count) the
        same schedule replays identically across runs.
        """
        return zlib.crc32(model.encode("utf-8")) % self.lanes

    async def stop(self) -> "ServerStats":
        """Drain the queue, serve everything in flight, flush stats."""
        collector_error: BaseException | None = None
        if self._running:
            self._running = False
            self._batcher.close()
            try:
                if self._collector is not None:
                    await self._collector
            except BaseException as exc:
                # A dead collector must not skip cleanup: the queue
                # still has to be rejected and the lane shut down.
                collector_error = exc
            finally:
                self._collector = None
                # The collector drains the queue before exiting;
                # anything still queued means it died — reject, never
                # drop.
                for _model, entry in self._batcher.drain():
                    request = entry.payload
                    if not request.future.done():
                        request.future.set_exception(
                            ServerClosed("server stopped")
                        )
                for lane in self._lanes:
                    lane.shutdown(wait=True)
                self._lanes = []
        stats = self.stats()
        _obs_runtime.event(
            "serve_stats",
            requests=stats.requests,
            batches=stats.batches,
            rejected=stats.rejected,
            batching_efficiency=stats.batching_efficiency,
            p50_us=float(stats.latency_us.get("p50", math.nan)),
            p99_us=float(stats.latency_us.get("p99", math.nan)),
        )
        if collector_error is not None:
            raise collector_error
        return stats

    async def __aenter__(self) -> "AnalogServer":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Maintenance hooks
    # ------------------------------------------------------------------
    def attach_scheduler(
        self,
        model: str,
        scheduler,
        every_pulses: int,
        sync_every_pulses: int = 0,
    ) -> None:
        """Tick ``scheduler`` after every ``every_pulses`` served pulses.

        Ticks run on the inference lane between micro-batches, so drift
        sync / refit / reprogramming never land mid-batch.

        ``sync_every_pulses`` adds a cheap drift-sync-only cadence
        between full ticks: conductances then move (and live health
        signals shift) as traffic accumulates, letting the telemetry
        anomaly watcher spot drift onset and trigger the scheduler
        ahead of its periodic probe.
        """
        if every_pulses < 1:
            raise ValueError(f"every_pulses must be >= 1, got {every_pulses}")
        if sync_every_pulses < 0:
            raise ValueError(
                f"sync_every_pulses must be >= 0, got {sync_every_pulses}"
            )
        self.registry.spec(model)  # validate the tenant exists
        self._maintenance[model] = _Maintenance(
            scheduler=scheduler,
            every_pulses=every_pulses,
            sync_every_pulses=sync_every_pulses,
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, model: str, image: np.ndarray) -> ServeResult:
        """Serve one image; resolves when its micro-batch completes.

        Raises :class:`UnknownModel`, :class:`InvalidImage`,
        :class:`ServerOverloaded` or :class:`ServerClosed` — typed,
        synchronous rejections.  Once this returns an awaitable has
        been queued, and it is guaranteed to resolve (result or
        exception): futures are never dropped.
        """
        if not self._running:
            raise ServerClosed("server is not running")
        if model not in self.registry:
            REGISTRY.counter("serve.rejected.unknown_model").inc()
            self._rejected_presubmit += 1
            raise UnknownModel(f"unknown model {model!r}")
        image = np.asarray(image)
        expected = self.registry.input_shape(model)
        if expected is not None and tuple(image.shape) != expected:
            REGISTRY.counter("serve.rejected.invalid_image").inc()
            self._rejected_presubmit += 1
            if self.telemetry is not None:
                self.telemetry.on_reject(model, "invalid_image")
            raise InvalidImage(
                f"model {model!r} expects image shape {expected}, "
                f"got {tuple(image.shape)}"
            )
        loop = asyncio.get_running_loop()
        seq = self._next_id
        request = _Request(
            request_id=seq,
            image=image,
            future=loop.create_future(),
            trace_id=f"req-{seq:08x}",
            sampled=(
                self.telemetry is not None and self.telemetry.sampled(seq)
            ),
        )
        self._next_id += 1
        try:
            self._batcher.push(model, request)
        except QueueFull as exc:
            REGISTRY.counter("serve.rejected.overloaded").inc()
            if self.telemetry is not None:
                self.telemetry.on_reject(model, "overloaded")
            _obs_runtime.event(
                "serve_reject",
                model=model,
                reason="overloaded",
                queued=len(self._batcher),
            )
            raise ServerOverloaded(str(exc)) from None
        return await request.future

    # ------------------------------------------------------------------
    # Collector + inference lane
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        # At most one uncompleted batch per lane: the collector acquires
        # a slot *before* cutting, so with lanes=1 the cut→serve→cut
        # cadence is exactly the single-lane server's, and with N lanes
        # up to N batches are in flight at once (different tenants
        # overlap; a tenant's own batches still run in cut order on its
        # lane's one thread).
        slots = asyncio.Semaphore(self.lanes)
        outstanding: set[asyncio.Task] = set()
        try:
            while True:
                await slots.acquire()
                batch = await self._batcher.next_batch()
                if batch is None:
                    slots.release()
                    return
                task = loop.create_task(self._dispatch(batch, slots))
                outstanding.add(task)
                task.add_done_callback(outstanding.discard)
        finally:
            # Drain before the collector exits so stop() can rely on
            # "collector done" meaning "every accepted future resolved".
            if outstanding:
                await asyncio.gather(*outstanding)

    async def _dispatch(self, batch: MicroBatch, slots: asyncio.Semaphore) -> None:
        try:
            await self._serve_batch(batch)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Last-ditch guard: nothing a batch does may kill the
            # collector — that would strand every queued future.
            # Fail this batch's requests and keep serving.
            failure = ServeError(f"serving failed: {exc!r}")
            failure.__cause__ = exc
            for request in batch.payloads:
                if not request.future.done():
                    request.future.set_exception(failure)
        finally:
            slots.release()

    async def _serve_batch(self, batch: MicroBatch) -> None:
        loop = asyncio.get_running_loop()
        requests: list[_Request] = batch.payloads
        queue_depth = len(self._batcher)
        lane = self.lane_for(batch.model)
        start = loop.time()
        try:
            # Batch prep is inside the guard: coalesced images with
            # mismatched shapes make np.stack raise, and that must
            # reject the batch's requests, not unwind the collector.
            images = np.stack([request.image for request in requests])
            logits = await loop.run_in_executor(
                self._lanes[lane], self._infer_batch, batch.model, images, lane
            )
        except ServeError as exc:
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        except Exception as exc:
            failure = ServeError(f"inference failed: {exc!r}")
            failure.__cause__ = exc
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(failure)
            return
        infer_us = (loop.time() - start) * 1e6
        done = loop.time()
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._infer.observe(infer_us)
        self._batch_sizes.observe(batch.size)
        REGISTRY.counter("serve.requests").inc(batch.size)
        REGISTRY.counter("serve.batches").inc()
        REGISTRY.histogram("serve.batch_size").observe(batch.size)
        telemetry = self.telemetry
        for index, request in enumerate(requests):
            queued_us = batch.wait_us(request_entry := batch.entries[index])
            latency_us = (done - request_entry.enqueued) * 1e6
            self._queue_wait.observe(queued_us)
            self._latency.observe(latency_us)
            REGISTRY.histogram("serve.latency_us").observe(latency_us)
            if telemetry is not None:
                telemetry.on_request(
                    model=batch.model,
                    trace_id=request.trace_id,
                    batch_id=batch_id,
                    queued_us=queued_us,
                    infer_us=infer_us,
                    total_us=latency_us,
                    sampled=request.sampled,
                )
            result = ServeResult(
                request_id=request.request_id,
                model=batch.model,
                logits=logits[index],
                batch_size=batch.size,
                queued_us=queued_us,
                infer_us=infer_us,
            )
            if not request.future.done():
                request.future.set_result(result)
        if telemetry is not None:
            telemetry.on_batch(
                model=batch.model,
                size=batch.size,
                queue_depth=queue_depth,
                infer_us=infer_us,
                lane=lane,
            )
        _obs_runtime.event(
            "serve_batch",
            model=batch.model,
            size=batch.size,
            queue_depth=queue_depth,
            wait_us=batch.wait_us(batch.entries[0]),
            infer_us=infer_us,
            lane=lane,
            # Fan-in span links: the batch is the join point of every
            # member request's trace (sampled members only, to bound
            # event volume — batch-level telemetry itself is always on).
            batch_id=batch_id,
            traces=[r.trace_id for r in requests if r.sampled],
        )

    def _infer_batch(
        self, model: str, images: np.ndarray, lane: int = 0
    ) -> np.ndarray:
        """Runs on the tenant's inference-lane thread."""
        from repro.attacks.base import predict_logits
        from repro.lifecycle import total_pulses
        from repro.lifecycle.ops import sync_model_drift
        from repro.parallel.backend import get_backend

        lane_start = time.perf_counter()
        entry = self.registry.model(model)
        shard_size = len(images)
        backend = get_backend()
        if backend.workers > 1:
            # Split the micro-batch across the pool.  Serving-pinned
            # engines are batch-composition independent, so any shard
            # plan yields bit-identical logits.
            shard_size = max(1, math.ceil(len(images) / backend.workers))
        before = total_pulses(entry.model)
        with _span("serve/batch"):
            logits = predict_logits(entry.model, images, batch_size=shard_size)
        delta = total_pulses(entry.model) - before
        ledger = self._lane_pulses[lane]
        ledger[model] = ledger.get(model, 0) + delta
        REGISTRY.counter(f"serve.pulses.{model}").inc(delta)
        maintenance = self._maintenance.get(model)
        if maintenance is not None:
            maintenance.pending += delta
            if maintenance.pending >= maintenance.every_pulses:
                # Carry the overshoot forward so large batches still
                # count toward the next tick (one tick per batch at
                # most; the remainder catches up between later ones).
                maintenance.pending -= maintenance.every_pulses
                maintenance.ticks += 1
                with _span("serve/maintenance"):
                    maintenance.scheduler.tick()
            elif maintenance.sync_every_pulses > 0:
                maintenance.sync_pending += delta
                if maintenance.sync_pending >= maintenance.sync_every_pulses:
                    maintenance.sync_pending -= maintenance.sync_every_pulses
                    with _span("serve/maintenance"):
                        sync_model_drift(entry.model)
        if self.telemetry is not None:
            # Health signals read the logits that already exist; a flag
            # becomes an immediate scheduler probe *here on the lane*,
            # between batches — the observe-then-heal loop never lands
            # inside a micro-batch.
            anomalies = self.telemetry.on_infer(model, logits)
            if anomalies and maintenance is not None:
                for anomaly in anomalies:
                    maintenance.anomaly_ticks += 1
                    maintenance.ticks += 1
                    with _span("serve/maintenance"):
                        maintenance.scheduler.trigger_anomaly(
                            anomaly.signal, anomaly.zscore
                        )
        # Each slot is written only by its own lane thread; readers
        # (live_stats on the loop) see a consistent-enough snapshot.
        self._lane_busy_us[lane] += (time.perf_counter() - lane_start) * 1e6
        self._lane_batches[lane] += 1
        return logits

    # ------------------------------------------------------------------
    def merged_pulses(self) -> dict[str, int]:
        """Per-tenant pulse totals across lane ledgers.

        Integer sums over a deterministic key order — independent of
        which lane served what and of lane count, so the drift-epoch
        arithmetic built on these totals is bit-reproducible.
        """
        merged: dict[str, int] = {}
        for ledger in self._lane_pulses:
            for model, pulses in ledger.items():
                merged[model] = merged.get(model, 0) + pulses
        return dict(sorted(merged.items()))

    def lane_stats(self) -> list[dict]:
        """Per-lane utilization snapshot for ``live_stats``/``repro top``."""
        elapsed_us = (
            (time.perf_counter() - self._started_at) * 1e6
            if self._started_at is not None
            else 0.0
        )
        rows = []
        for lane in range(self.lanes):
            busy_us = self._lane_busy_us[lane]
            rows.append(
                {
                    "lane": lane,
                    "batches": self._lane_batches[lane],
                    "busy_us": busy_us,
                    "utilization": (
                        min(busy_us / elapsed_us, 1.0) if elapsed_us > 0 else 0.0
                    ),
                    "tenants": sorted(
                        name
                        for name in self.registry.names()
                        if self.lane_for(name) == lane
                    ),
                    "pulses": dict(sorted(self._lane_pulses[lane].items())),
                }
            )
        return rows

    def stats(self) -> ServerStats:
        batcher = self._batcher.stats
        return ServerStats(
            requests=batcher.served,
            batches=batcher.batches,
            rejected=batcher.rejected + self._rejected_presubmit,
            batching_efficiency=batcher.batching_efficiency,
            latency_us=self._latency.as_dict(),
            queue_us=self._queue_wait.as_dict(),
            infer_us=self._infer.as_dict(),
            batch_size=self._batch_sizes.as_dict(),
            pulses=self.merged_pulses(),
            maintenance_ticks=sum(
                m.ticks for m in self._maintenance.values()
            ),
        )

    def live_stats(self) -> dict:
        """JSON-ready live snapshot for ``{"op": "stats"}`` / ``repro top``.

        Combines the aggregate counters with per-tenant telemetry
        (latency quantiles, qps, SLO budgets), live queue depths, drift
        pulse counts and maintenance/anomaly state.  Read-only.
        """
        payload: dict = {
            "server": self.stats().as_dict(),
            "tenants": {},
            "queues": {
                name: self._batcher.queue_depth(name)
                for name in self.registry.names()
            },
            "lanes": self.lane_stats(),
            "maintenance": {},
        }
        if self.telemetry is not None:
            payload["tenants"] = self.telemetry.tenant_stats()
            payload["health"] = self.telemetry.health_stats()
        for model, maintenance in self._maintenance.items():
            entry: dict = {
                "ticks": maintenance.ticks,
                "anomaly_ticks": maintenance.anomaly_ticks,
                "pending_pulses": maintenance.pending,
            }
            scheduler_stats = getattr(maintenance.scheduler, "stats", None)
            if callable(scheduler_stats):
                entry["scheduler"] = scheduler_stats()
            payload["maintenance"][model] = entry
        return payload
