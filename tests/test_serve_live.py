"""Live operational telemetry through the serving path.

End-to-end coverage of the continuous-observability stack where it
actually runs: a telemetry-wired :class:`AnalogServer`.  Pins the four
pillars — request tracing with batch fan-in links, the ``/metrics``
scrape surfaces (TCP verb + plain HTTP), per-tenant SLO budgets, and
the anomaly-to-recalibration loop (a drift episode must be probed when
it is *seen*, ahead of the periodic maintenance cadence) — plus the
two operational guarantees everything rests on: telemetry never
changes a single logit bit, and ``kill -TERM`` drains before exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.attacks.base import predict_logits
from repro.lifecycle import RecalibrationPolicy, RecalibrationScheduler
from repro.obs import runtime as _obs_runtime
from repro.obs.anomaly import DetectorConfig
from repro.obs.live import TIMESERIES, TimeSeriesStore
from repro.obs.schema import validate_event
from repro.serve import (
    AnalogServer,
    LiveTelemetry,
    ModelRegistry,
    ServeConfig,
    TenantSpec,
    request_op,
    serve_metrics_http,
    serve_tcp,
)
from repro.serve.top import render_top, run_top

pytestmark = [pytest.mark.fast, pytest.mark.serve]

FP = TenantSpec(name="fp", task="tiny", preset="32x32_100k")
SLO = TenantSpec(
    name="fp",
    task="tiny",
    preset="32x32_100k",
    slo_p99_ms=60_000.0,  # generous: never violated by tiny batches
    slo_max_reject_rate=0.5,
)


def make_registry(lab, *specs) -> ModelRegistry:
    registry = ModelRegistry(lab)
    for spec in specs or (FP,):
        registry.register(spec)
    registry.load_all()
    return registry


def serve_config(**overrides) -> ServeConfig:
    defaults = dict(max_batch=4, max_wait_us=2_000.0, queue_limit=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def quick_detector(**overrides) -> DetectorConfig:
    defaults = dict(
        z_threshold=3.0,
        ewma_step=0.05,
        min_points=3,
        consecutive=1,
        cooldown=8,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


@pytest.fixture(autouse=True)
def _clean_timeseries():
    TIMESERIES.clear()
    yield
    TIMESERIES.clear()


@pytest.fixture()
def capture():
    session = _obs_runtime.begin_worker_capture()
    yield session
    _obs_runtime.end_worker_capture()


# ----------------------------------------------------------------------
# Tracing + tenant accounting
# ----------------------------------------------------------------------

def test_telemetry_accounts_requests_traces_and_batch_links(
    tiny_serve_lab, capture
) -> None:
    registry = make_registry(tiny_serve_lab, SLO)
    store = TimeSeriesStore()
    telemetry = LiveTelemetry(trace_sample=1.0, store=store)
    images = tiny_serve_lab.eval_images(6)

    async def scenario():
        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            for i in range(6):
                await server.submit("fp", images[i])
            return server.live_stats()

    live = asyncio.run(scenario())

    tenant = live["tenants"]["fp"]
    assert tenant["requests"] == 6
    assert tenant["traced"] == 6  # trace_sample=1.0 traces everything
    assert tenant["rejected"] == 0
    assert tenant["violations"] == 0
    assert tenant["budget"] == 1.0
    assert math_finite(tenant["p50_ms"]) and math_finite(tenant["p99_ms"])
    assert set(tenant["slo"]) == {"latency", "rejects"}
    assert live["queues"] == {"fp": 0}
    assert live["health"]["signals"]["health.logit_mag.fp"]["seen"] == 6
    # Batch-level series are always on.
    for name in ("serve.qps.fp", "serve.batch_size.fp", "serve.infer_us.fp"):
        assert name in store

    traces = [p for name, p in capture.events if name == "request_trace"]
    batches = [p for name, p in capture.events if name == "serve_batch"]
    assert len(traces) == 6
    assert len({t["trace_id"] for t in traces}) == 6  # unique ids
    # Fan-in links: every sampled request's trace id appears in exactly
    # the batch event it was served by.
    by_batch = {b["batch_id"]: set(b["traces"]) for b in batches}
    for trace in traces:
        assert trace["trace_id"] in by_batch[trace["batch_id"]]
        assert trace["total_us"] >= trace["infer_us"] >= 0.0
        record = json.loads(json.dumps({"t": 0.0, "type": "request_trace", **trace}))
        assert validate_event(record) == []


def math_finite(x) -> bool:
    return isinstance(x, float) and x == x and abs(x) != float("inf")


def test_trace_sampling_rate_bounds_event_volume(tiny_serve_lab, capture) -> None:
    registry = make_registry(tiny_serve_lab)
    telemetry = LiveTelemetry(trace_sample=0.25, store=TimeSeriesStore())
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            for _ in range(16):
                await server.submit("fp", image)

    asyncio.run(scenario())
    traces = [p for name, p in capture.events if name == "request_trace"]
    assert len(traces) == 4  # exactly floor(16 * 0.25), deterministic
    assert telemetry.tenant_stats()["fp"]["traced"] == 4


def test_slo_violation_fires_during_serving(tiny_serve_lab, capture) -> None:
    tight = TenantSpec(
        name="fp", task="tiny", preset="32x32_100k", slo_p99_ms=1e-6
    )
    registry = make_registry(tiny_serve_lab, tight)
    telemetry = LiveTelemetry(trace_sample=0.0, store=TimeSeriesStore())
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            for _ in range(10):  # every request misses a 1ns latency bound
                await server.submit("fp", image)

    asyncio.run(scenario())
    stats = telemetry.tenant_stats()["fp"]
    assert stats["violations"] == 1  # one episode, not one per request
    assert stats["budget"] == 0.0
    violations = [p for name, p in capture.events if name == "slo_violation"]
    assert len(violations) == 1
    assert violations[0]["tenant"] == "fp"
    assert violations[0]["objective"] == "latency"


def test_rejections_burn_the_reject_budget(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab, SLO)
    telemetry = LiveTelemetry(trace_sample=0.0, store=TimeSeriesStore())
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        from repro.serve import InvalidImage

        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            await server.submit("fp", image)
            for _ in range(3):
                with pytest.raises(InvalidImage):
                    await server.submit("fp", image[..., :-1])
            # Pre-batcher rejections must show in the aggregate counter
            # too, not just the per-tenant telemetry.
            assert server.stats().rejected == 3

    asyncio.run(scenario())
    stats = telemetry.tenant_stats()["fp"]
    assert stats["rejected"] == 3
    assert stats["slo"]["rejects"]["bad"] == 3
    assert stats["slo"]["rejects"]["window"] == 4


# ----------------------------------------------------------------------
# Determinism: telemetry must never touch the data plane
# ----------------------------------------------------------------------

def test_logits_bit_identical_with_telemetry_on_and_off(tiny_serve_lab) -> None:
    """Off, 1% and 100% tracing serve the same bits as serial inference."""
    images = tiny_serve_lab.eval_images(8)
    order = [i % len(images) for i in range(16)]

    async def serve_all(telemetry):
        registry = make_registry(tiny_serve_lab, SLO)
        server = AnalogServer(registry, serve_config(), telemetry=telemetry)
        async with server:
            tasks = [
                asyncio.create_task(server.submit("fp", images[i]))
                for i in order
            ]
            results = await asyncio.gather(*tasks)
        return np.stack([r.logits for r in results])

    reference = predict_logits(
        make_registry(tiny_serve_lab, SLO).model("fp").model, images
    )[order]
    bare = asyncio.run(serve_all(None))
    sampled = LiveTelemetry(trace_sample=0.01, store=TimeSeriesStore())
    full = LiveTelemetry(
        trace_sample=1.0,
        store=TimeSeriesStore(),
        detector=quick_detector(),
    )
    np.testing.assert_array_equal(bare, reference)  # bit for bit
    np.testing.assert_array_equal(asyncio.run(serve_all(sampled)), reference)
    np.testing.assert_array_equal(asyncio.run(serve_all(full)), reference)
    assert full.tenant("fp").traced == len(order)  # 100% traces every one


# ----------------------------------------------------------------------
# Scrape surfaces: TCP op verbs + plain HTTP
# ----------------------------------------------------------------------

def test_op_verbs_metrics_stats_delta_and_unknown(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    telemetry = LiveTelemetry(trace_sample=0.0)  # default global store
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            tcp = await serve_tcp(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                for _ in range(3):
                    await server.submit("fp", image)
                metrics = await request_op("127.0.0.1", port, "metrics")
                unknown = await request_op("127.0.0.1", port, "frobnicate")

                # The stats delta is per connection: two calls on one
                # socket report traffic since the previous call.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    async def roundtrip(payload):
                        writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        return json.loads(await reader.readline())

                    first = await roundtrip({"op": "stats"})
                    await server.submit("fp", image)
                    second = await roundtrip({"op": "stats"})
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                tcp.close()
                await tcp.wait_closed()
        return metrics, unknown, first, second

    metrics, unknown, first, second = asyncio.run(scenario())

    assert metrics["ok"] is True
    text = metrics["metrics"]
    assert "repro_serve_requests_total" in text
    assert "repro_ts_serve_qps_fp" in text  # live series ride the scrape
    assert "repro_serve_queue_depth_fp 0" in text  # caller-computed extra
    assert telemetry.scrapes == 1

    assert unknown == {"ok": False, "error": "unknown op 'frobnicate'"}

    assert first["ok"] is True
    assert first["delta"]["requests"] == 3  # everything since connect
    assert second["delta"]["requests"] == 1  # only the one in between
    assert first["stats"]["tenants"]["fp"]["requests"] == 3
    assert first["stats"]["server"]["requests"] == 3
    json.dumps(first["stats"])  # the whole payload is JSON-clean


def test_http_metrics_listener_speaks_prometheus(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    telemetry = LiveTelemetry(trace_sample=0.0)
    image = tiny_serve_lab.eval_images(1)[0]

    async def http_get(port: int, request: bytes) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(request)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()

    async def scenario():
        async with AnalogServer(registry, serve_config(), telemetry=telemetry) as server:
            await server.submit("fp", image)
            http = await serve_metrics_http(server, "127.0.0.1", 0)
            port = http.sockets[0].getsockname()[1]
            try:
                ok = await http_get(
                    port, b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"
                )
                missing = await http_get(
                    port, b"GET /nope HTTP/1.0\r\n\r\n"
                )
                wrong_method = await http_get(
                    port, b"POST /metrics HTTP/1.0\r\n\r\n"
                )
            finally:
                http.close()
                await http.wait_closed()
        return ok, missing, wrong_method

    ok, missing, wrong_method = asyncio.run(scenario())

    head, _, body = ok.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200 OK")
    assert b"Content-Type: text/plain; version=0.0.4" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert b"repro_serve_requests_total" in body
    assert missing.startswith(b"HTTP/1.0 404")
    assert wrong_method.startswith(b"HTTP/1.0 405")


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------

def test_render_top_frame_shows_tenants_and_flags_violations() -> None:
    frame = render_top(
        {
            "server": {
                "requests": 42,
                "batches": 12,
                "rejected": 1,
                "batching_efficiency": 3.5,
                "maintenance_ticks": 2,
                "pulses": {"fp": 640},
            },
            "tenants": {
                "fp": {
                    "qps": 10.5,
                    "p50_ms": 1.25,
                    "p99_ms": 4.5,
                    "budget": 0.25,
                    "violations": 2,
                }
            },
            "queues": {"fp": 3, "idle": 0},
            "maintenance": {
                "fp": {"anomaly_ticks": 1, "scheduler": {"state": "ok"}}
            },
            "health": {"anomalies": 1},
        },
        clock=lambda: 0.0,
    )
    assert "requests=42" in frame and "anomalies=1" in frame
    assert "tenant" in frame and "budget" in frame  # header row
    fp_row = next(line for line in frame.splitlines() if line.startswith("fp"))
    assert "10.5" in fp_row and "1.25" in fp_row and "25%" in fp_row
    assert "ok!" in fp_row  # violations flag the health cell
    idle_row = next(line for line in frame.splitlines() if line.startswith("idle"))
    assert "-" in idle_row  # no latency reported yet

    empty = render_top({}, clock=lambda: 0.0)
    assert "(no tenants reporting)" in empty


def test_run_top_once_against_a_live_server(tiny_serve_lab, capsys) -> None:
    registry = make_registry(tiny_serve_lab)
    telemetry = LiveTelemetry(trace_sample=0.0, store=TimeSeriesStore())
    image = tiny_serve_lab.eval_images(1)[0]

    started = threading.Event()
    box: dict = {}

    def server_main() -> None:
        async def body():
            async with AnalogServer(
                registry, serve_config(), telemetry=telemetry
            ) as server:
                tcp = await serve_tcp(server, "127.0.0.1", 0)
                box["port"] = tcp.sockets[0].getsockname()[1]
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = asyncio.Event()
                await server.submit("fp", image)
                started.set()
                await box["stop"].wait()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(body())

    thread = threading.Thread(target=server_main)
    thread.start()
    try:
        assert started.wait(timeout=30.0)
        code = run_top("127.0.0.1", box["port"], once=True)
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=30.0)
    assert code == 0
    frame = capsys.readouterr().out
    assert "requests=1" in frame
    assert any(line.startswith("fp") for line in frame.splitlines())

    # A dead port is an error exit, not a traceback.
    assert run_top("127.0.0.1", box["port"], once=True) == 1
    assert "cannot reach" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The observe-then-heal loop: drift -> anomaly -> immediate probe
# ----------------------------------------------------------------------

def test_drift_anomaly_triggers_recalibration_ahead_of_periodic_tick(
    tiny_serve_lab, capture
) -> None:
    """An injected drift episode must be caught by the watcher, probed
    immediately (no periodic tick ever fires: ``every_pulses`` is
    unreachable), and healed — the recovered tenant's logits end closer
    to the fresh chip than an identically drifted, unhealed control.
    """
    drifty = TenantSpec(
        name="dr",
        task="tiny",
        preset="32x32_100k",
        drift_epoch_pulses=8,
        drift_retention_nu=0.15,
    )
    image = tiny_serve_lab.eval_images(1)[0]
    traffic = 60

    async def run_traffic(server) -> np.ndarray:
        async with server:
            for _ in range(traffic):
                result = await server.submit("dr", image)
        return result.logits

    # Fresh-chip reference (its own registry: no shared drift state).
    fresh = predict_logits(
        make_registry(tiny_serve_lab, drifty).model("dr").model, image[None]
    )[0]

    # Control: same traffic, same drift-sync cadence, no healing.
    class InertScheduler:
        def tick(self):
            pass

        def trigger_anomaly(self, signal, zscore=0.0):
            pass

    control_registry = make_registry(tiny_serve_lab, drifty)
    control = AnalogServer(control_registry, serve_config())
    control.attach_scheduler(
        "dr", InertScheduler(), every_pulses=10**9, sync_every_pulses=32
    )
    drifted = asyncio.run(run_traffic(control))
    assert not np.array_equal(drifted, fresh)  # the episode is real

    # Healing run: watcher + real scheduler wired through telemetry.
    registry = make_registry(tiny_serve_lab, drifty)
    entry = registry.model("dr")
    scheduler = RecalibrationScheduler(
        entry.model,
        tiny_serve_lab.calibration_images("tiny"),
        tiny_serve_lab.eval_images(4),
        policy=RecalibrationPolicy(min_rel_dev=1e-4, backoff_ticks=0),
    )
    telemetry = LiveTelemetry(
        trace_sample=0.0, store=TimeSeriesStore(), detector=quick_detector()
    )
    server = AnalogServer(registry, serve_config(), telemetry=telemetry)
    server.attach_scheduler(
        "dr", scheduler, every_pulses=10**9, sync_every_pulses=32
    )
    asyncio.run(run_traffic(server))

    # The anomaly path fired — and *only* the anomaly path (the
    # periodic cadence was unreachable, so every probe was triggered by
    # an observed excursion, ahead of schedule).
    maintenance = server._maintenance["dr"]
    assert scheduler.anomaly_triggers >= 1
    assert maintenance.anomaly_ticks == maintenance.ticks >= 1
    assert scheduler.stats()["anomaly_triggers"] == scheduler.anomaly_triggers
    assert len(telemetry.watcher.anomalies) >= 1
    anomaly_events = [p for name, p in capture.events if name == "anomaly"]
    assert any(
        e["signal"] == "health.logit_mag.dr" for e in anomaly_events
    )

    # And it healed: at least one triggered probe recovered the chip
    # mid-traffic...
    assert scheduler.recalibrations >= 1
    # ...and once traffic stops, the maintenance loop converges the
    # chip back to health — at which point its logits sit closer to the
    # fresh reference than the unhealed control's (traffic kept aging
    # both runs, so the *final in-flight* logits are not the yardstick;
    # the probed-healthy state is).
    report = None
    for _ in range(6):
        report = scheduler.tick()
        if report.state == "ok":
            break
    assert report is not None and report.state == "ok"
    recovered = predict_logits(entry.model, image[None])[0]
    assert np.linalg.norm(recovered - fresh) < np.linalg.norm(drifted - fresh)


# ----------------------------------------------------------------------
# Signal-handled shutdown (the CLI contract, exercised for real)
# ----------------------------------------------------------------------

def test_sigterm_drains_and_flushes_serve_stats() -> None:
    """``kill -TERM`` on ``repro serve --port`` must drain + report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--fast",
            "--port",
            "0",
            "--tenants",
            "fp=32x32_100k+p99=60000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        lines = []
        deadline = time.time() + 180.0
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if line.startswith("serving ["):
                proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60.0)
        lines.extend(proc.stdout.readlines())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)
    output = "".join(lines)
    assert code == 0, output
    assert "serving [fp]" in output
    assert "serve shutdown: drained;" in output  # stats flushed on signal
