"""Serving-correctness battery: batcher, registry, server, wire, pool.

Everything here runs against the tiny session victim with the ideal
backend (see ``TinyServeLab``), so the whole file is fast-tier; the
sustained-load soak at the bottom is the one ``--runslow`` test.
"""

from __future__ import annotations

import asyncio
import types

import numpy as np
import pytest

from repro.attacks.base import predict_logits
from repro.lifecycle import total_pulses
from repro.parallel import backend as parallel
from repro.serve import (
    AnalogServer,
    InvalidImage,
    MicroBatcher,
    ModelRegistry,
    ServeConfig,
    ServeError,
    ServeResult,
    ServerClosed,
    ServerOverloaded,
    TenantSpec,
    UnknownModel,
    request_tcp,
    run_load,
    serve_tcp,
)
from repro.serve.batching import QueueFull

pytestmark = [pytest.mark.fast, pytest.mark.serve]


# ----------------------------------------------------------------------
# MicroBatcher (pure asyncio, no models)
# ----------------------------------------------------------------------

def test_microbatcher_coalesces_up_to_max_batch() -> None:
    async def scenario():
        batcher = MicroBatcher(max_batch=4, max_wait_us=50_000, queue_limit=16)
        for i in range(5):
            batcher.push("m", i)
        return await batcher.next_batch(), await batcher.next_batch()

    first, second = asyncio.run(scenario())
    assert first.size == 4
    assert first.payloads == [0, 1, 2, 3]
    assert second.size == 1
    assert second.payloads == [4]


def test_microbatcher_deadline_cuts_partial_batch() -> None:
    async def scenario():
        batcher = MicroBatcher(max_batch=8, max_wait_us=5_000, queue_limit=16)
        batcher.push("m", "a")
        batcher.push("m", "b")
        return await batcher.next_batch()

    batch = asyncio.run(scenario())
    assert batch.size == 2
    assert all(batch.wait_us(entry) >= 0.0 for entry in batch.entries)


def test_microbatcher_never_mixes_models_and_serves_oldest_first() -> None:
    async def scenario():
        batcher = MicroBatcher(max_batch=8, max_wait_us=0.0, queue_limit=16)
        for i in range(2):
            batcher.push("a", f"a{i}")
            batcher.push("b", f"b{i}")
        return await batcher.next_batch(), await batcher.next_batch()

    first, second = asyncio.run(scenario())
    assert (first.model, first.payloads) == ("a", ["a0", "a1"])
    assert (second.model, second.payloads) == ("b", ["b0", "b1"])


def test_microbatcher_queue_limit_rejects() -> None:
    async def scenario():
        batcher = MicroBatcher(max_batch=4, max_wait_us=0.0, queue_limit=2)
        batcher.push("m", 0)
        batcher.push("m", 1)
        with pytest.raises(QueueFull):
            batcher.push("m", 2)
        return batcher.stats

    stats = asyncio.run(scenario())
    assert stats.pushed == 2
    assert stats.rejected == 1


def test_microbatcher_close_flushes_then_ends() -> None:
    async def scenario():
        batcher = MicroBatcher(max_batch=2, max_wait_us=60_000_000, queue_limit=8)
        for i in range(3):
            batcher.push("m", i)
        batcher.close()
        return (
            await batcher.next_batch(),
            await batcher.next_batch(),
            await batcher.next_batch(),
        )

    first, second, done = asyncio.run(scenario())
    assert first.size == 2
    assert second.size == 1  # closed: no deadline lingering
    assert done is None


def test_microbatcher_validates_parameters() -> None:
    with pytest.raises(ValueError):
        MicroBatcher(max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(max_wait_us=-1.0)
    with pytest.raises(ValueError):
        MicroBatcher(queue_limit=0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

FP = TenantSpec(name="fp", task="tiny", preset="32x32_100k")
Q = TenantSpec(name="q", task="tiny", preset="32x32_100k", quant=True)
DR = TenantSpec(name="dr", task="tiny", preset="32x32_100k", drift_epoch_pulses=64)


def make_registry(lab, *specs) -> ModelRegistry:
    registry = ModelRegistry(lab)
    for spec in specs or (FP, Q):
        registry.register(spec)
    return registry


def test_registry_register_is_idempotent_but_conflicts_raise(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    registry.register(FP)  # identical re-registration is fine
    with pytest.raises(ValueError, match="different spec"):
        registry.register(TenantSpec(name="fp", task="tiny", preset="64x64_100k"))
    assert registry.names() == ["fp", "q"]
    assert "fp" in registry and "nope" not in registry
    with pytest.raises(KeyError, match="unknown tenant"):
        registry.spec("nope")


def test_registry_load_pins_every_engine(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    entry = registry.load("fp")
    assert entry.pinned, "no DACs pinned"
    assert all(limit > 0 for limit in entry.pinned.values())
    assert registry.load("fp") is entry  # resident: no rebuild
    assert registry.resident() == ["fp"]


def test_registry_evict_reload_is_bitwise_stable(tiny_serve_lab) -> None:
    """Aged engines never round-trip: reload reproduces the first load.

    Extends the PR 6 cache regression through the registry: traffic
    ages the resident engines (pulse counters advance), but evict +
    reload rebuilds from pristine clones and recalibrates, so the
    reloaded tenant's logits and pulse state match the original load
    exactly — for the drifting tenant too.
    """
    images = tiny_serve_lab.eval_images(6)
    for spec in (FP, DR):
        registry = make_registry(tiny_serve_lab, spec)
        entry = registry.load(spec.name)
        pulses_after_load = total_pulses(entry.model)
        reference = predict_logits(entry.model, images)
        for _ in range(3):  # age the resident engines
            predict_logits(entry.model, images)
        assert total_pulses(entry.model) > pulses_after_load
        assert registry.evict(spec.name)
        assert not registry.evict(spec.name)
        reloaded = registry.load(spec.name)
        assert reloaded.model is not entry.model
        assert total_pulses(reloaded.model) == pulses_after_load
        np.testing.assert_array_equal(
            predict_logits(reloaded.model, images), reference
        )


# ----------------------------------------------------------------------
# AnalogServer
# ----------------------------------------------------------------------

def serve_config(**overrides) -> ServeConfig:
    defaults = dict(max_batch=4, max_wait_us=2_000.0, queue_limit=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def test_server_coalesced_logits_match_serial(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    registry.load_all()
    images = tiny_serve_lab.eval_images(6)

    async def scenario():
        async with AnalogServer(registry, serve_config()) as server:
            tasks = [
                asyncio.create_task(
                    server.submit(("fp", "q")[i % 2], images[i % len(images)])
                )
                for i in range(12)
            ]
            results = await asyncio.gather(*tasks)
        return results, server.stats()

    results, stats = asyncio.run(scenario())
    assert stats.requests == 12
    assert stats.batching_efficiency > 1.0
    for i, result in enumerate(results):
        model = ("fp", "q")[i % 2]
        assert result.model == model
        assert result.request_id == i  # admission order is submit order
        reference = predict_logits(
            registry.model(model).model, images[i % len(images)][None]
        )
        np.testing.assert_array_equal(result.logits, reference[0])


def test_server_typed_rejections(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab)
    registry.load_all()
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        server = AnalogServer(registry, serve_config())
        with pytest.raises(ServerClosed):  # not started yet
            await server.submit("fp", image)
        async with server:
            with pytest.raises(UnknownModel):
                await server.submit("nope", image)
            with pytest.raises(InvalidImage):  # resident: shape-checked
                await server.submit("fp", image[..., :-1])
            result = await server.submit("fp", image)
        with pytest.raises(ServerClosed):  # stopped
            await server.submit("fp", image)
        return result

    result = asyncio.run(scenario())
    assert result.batch_size >= 1


def test_server_backpressure_never_drops_a_future(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab, FP)
    registry.load_all()
    images = tiny_serve_lab.eval_images(4)

    async def scenario():
        config = serve_config(max_batch=2, max_wait_us=0.0, queue_limit=2)
        async with AnalogServer(registry, config) as server:
            tasks = [
                asyncio.create_task(server.submit("fp", images[i % len(images)]))
                for i in range(10)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = asyncio.run(scenario())
    served = [r for r in outcomes if isinstance(r, ServeResult)]
    rejected = [r for r in outcomes if isinstance(r, ServerOverloaded)]
    assert len(served) + len(rejected) == 10, f"dropped futures: {outcomes}"
    assert served and rejected  # bounded queue both admits and sheds
    for result in served:
        reference = predict_logits(
            registry.model("fp").model, images[result.request_id % len(images)][None]
        )
        np.testing.assert_array_equal(result.logits, reference[0])


def test_server_stop_serves_everything_in_flight(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab, FP)
    registry.load_all()
    images = tiny_serve_lab.eval_images(3)

    async def scenario():
        server = AnalogServer(registry, serve_config(max_wait_us=500_000.0))
        await server.start()
        tasks = [
            asyncio.create_task(server.submit("fp", images[i])) for i in range(3)
        ]
        await asyncio.sleep(0)  # let the submits enqueue
        stats = await server.stop()  # drain: serve, don't reject
        return await asyncio.gather(*tasks), stats

    results, stats = asyncio.run(scenario())
    assert all(isinstance(r, ServeResult) for r in results)
    assert stats.requests == 3


def test_collector_survives_poisoned_batch(tiny_serve_lab) -> None:
    """A batch that can't even stack must not kill the collector.

    The tenant is *not* resident, so submit can't shape-check; the
    mismatched pair coalesces into one micro-batch whose ``np.stack``
    raises.  Both requests must resolve with a typed ServeError — and
    the server must keep serving afterwards (regression: the stack ran
    outside the per-batch guard and wedged the collector for good).
    """
    registry = make_registry(tiny_serve_lab, FP)  # registered, not loaded
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        config = serve_config(max_batch=2, max_wait_us=50_000.0)
        async with AnalogServer(registry, config) as server:
            poisoned = await asyncio.gather(
                server.submit("fp", image),
                server.submit("fp", image[..., :-1]),  # mismatched mate
                return_exceptions=True,
            )
            healthy = await server.submit("fp", image)
        return poisoned, healthy

    poisoned, healthy = asyncio.run(scenario())
    assert all(isinstance(r, ServeError) for r in poisoned), poisoned
    assert isinstance(healthy, ServeResult)
    reference = predict_logits(registry.model("fp").model, image[None])
    np.testing.assert_array_equal(healthy.logits, reference[0])


def test_server_stop_survives_collector_death(tiny_serve_lab) -> None:
    """A dead collector must not leak the lane or strand queued futures.

    stop() re-raises the collector's failure, but only after rejecting
    everything still queued and shutting the inference lane down.
    """
    registry = make_registry(tiny_serve_lab, FP)
    registry.load_all()
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        server = AnalogServer(registry, serve_config(max_wait_us=500_000.0))

        async def boom():
            raise RuntimeError("collector bug")

        server._batcher.next_batch = boom  # kill the collector on entry
        await server.start()
        task = asyncio.create_task(server.submit("fp", image))
        await asyncio.sleep(0.01)  # queued, collector already dead
        with pytest.raises(RuntimeError, match="collector bug"):
            await server.stop()
        outcome = (await asyncio.gather(task, return_exceptions=True))[0]
        return server, outcome

    server, outcome = asyncio.run(scenario())
    assert isinstance(outcome, ServerClosed)  # rejected, never dropped
    assert server._lanes == []  # lanes shut down despite the re-raise


def test_server_drift_pulse_accounting_and_maintenance(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab, DR)
    entry = registry.load("dr")
    pulses_after_load = total_pulses(entry.model)
    images = tiny_serve_lab.eval_images(4)

    class StubScheduler:
        ticks = 0

        def tick(self):
            StubScheduler.ticks += 1

    async def scenario():
        server = AnalogServer(registry, serve_config())
        with pytest.raises(KeyError):
            server.attach_scheduler("nope", StubScheduler(), 4)
        with pytest.raises(ValueError):
            server.attach_scheduler("dr", StubScheduler(), 0)
        server.attach_scheduler("dr", StubScheduler(), 4)
        async with server:
            for i in range(6):
                await server.submit("dr", images[i % len(images)])
        return server.stats(), server._maintenance["dr"]

    stats, maintenance = asyncio.run(scenario())
    # Conservation: every pulse the engines aged during serving is in
    # the per-tenant ledger — none created, none lost.
    assert stats.pulses["dr"] == total_pulses(entry.model) - pulses_after_load
    assert stats.pulses["dr"] > 0
    assert StubScheduler.ticks >= 1
    assert stats.maintenance_ticks == StubScheduler.ticks
    # Tick cadence conserves pulses too: overshoot past a tick carries
    # into the next interval (regression: pending reset to 0 on tick).
    assert maintenance.pending >= 0
    assert (
        StubScheduler.ticks * maintenance.every_pulses + maintenance.pending
        == stats.pulses["dr"]
    )


def test_tcp_round_trip_matches_in_process(tiny_serve_lab) -> None:
    registry = make_registry(tiny_serve_lab, FP)
    registry.load_all()
    image = tiny_serve_lab.eval_images(1)[0]

    async def scenario():
        async with AnalogServer(registry, serve_config()) as server:
            tcp = await serve_tcp(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                good = await request_tcp("127.0.0.1", port, "fp", image)
                bad = await request_tcp("127.0.0.1", port, "nope", image)
                wrong = await request_tcp("127.0.0.1", port, "fp", image[..., :-1])
            finally:
                tcp.close()
                await tcp.wait_closed()
        return good, bad, wrong

    good, bad, wrong = asyncio.run(scenario())
    assert good["ok"] is True
    reference = predict_logits(registry.model("fp").model, image[None])
    np.testing.assert_array_equal(np.asarray(good["logits"]), reference[0])
    assert bad == {"ok": False, "error": "unknown_model"}
    assert wrong == {"ok": False, "error": "invalid_image"}


# ----------------------------------------------------------------------
# Multi-lane serving
# ----------------------------------------------------------------------

def test_lane_for_is_pure_name_hash(tiny_serve_lab) -> None:
    """Lane assignment depends only on the tenant name and lane count."""
    import zlib

    registry = make_registry(tiny_serve_lab)
    server = AnalogServer(registry, serve_config(lanes=4))
    assert server.lanes == 4
    for name in ("fp", "q", "dr", "anything-else"):
        lane = server.lane_for(name)
        assert 0 <= lane < 4
        assert lane == zlib.crc32(name.encode("utf-8")) % 4
        assert lane == server.lane_for(name)  # stable across calls
    single = AnalogServer(registry, serve_config())
    assert single.lanes == 1
    assert single.lane_for("fp") == 0


def _run_mixed_traffic(lab, lanes: int, n: int = 16):
    """Fresh registry + server at a lane count; returns logits + server."""
    registry = make_registry(lab)
    registry.load_all()
    images = lab.eval_images(6)

    async def scenario():
        async with AnalogServer(
            registry, serve_config(lanes=lanes)
        ) as server:
            tasks = [
                asyncio.create_task(
                    server.submit(("fp", "q")[i % 2], images[i % len(images)])
                )
                for i in range(n)
            ]
            results = await asyncio.gather(*tasks)
        return results, server

    results, server = asyncio.run(scenario())
    return [np.asarray(r.logits) for r in results], server, registry


def test_server_logits_identical_across_lane_counts(tiny_serve_lab) -> None:
    """Lane count is a throughput knob, never a numerics knob.

    The same mixed-tenant traffic served at lanes 1, 2 and 4 must
    produce bitwise-identical logits for every request, and per-tenant
    pulse totals (merged across lane ledgers) must agree exactly.
    """
    reference_logits, reference_server, _ = _run_mixed_traffic(
        tiny_serve_lab, lanes=1
    )
    reference_pulses = reference_server.merged_pulses()
    for lanes in (2, 4):
        logits, server, registry = _run_mixed_traffic(tiny_serve_lab, lanes)
        for i, (got, want) in enumerate(zip(logits, reference_logits)):
            np.testing.assert_array_equal(got, want, err_msg=f"request {i}")
        assert server.merged_pulses() == reference_pulses
        # And each result still matches a straight serial forward pass.
        images = tiny_serve_lab.eval_images(6)
        for i, got in enumerate(logits):
            model = ("fp", "q")[i % 2]
            serial = predict_logits(
                registry.model(model).model, images[i % len(images)][None]
            )
            np.testing.assert_array_equal(got, serial[0])


def test_lane_stats_accounts_every_batch(tiny_serve_lab) -> None:
    _, server, _ = _run_mixed_traffic(tiny_serve_lab, lanes=2)
    rows = server.lane_stats()
    assert [row["lane"] for row in rows] == [0, 1]
    stats = server.stats()
    assert sum(row["batches"] for row in rows) == stats.batches
    for row in rows:
        if row["batches"]:
            assert row["busy_us"] > 0.0
            assert row["tenants"]  # the tenants this lane actually served
    # Tenants are routed to their hash lane, and only that lane.
    for row in rows:
        for tenant in row["tenants"]:
            assert server.lane_for(tenant) == row["lane"]


def test_live_stats_exposes_lanes_and_queue(tiny_serve_lab) -> None:
    _, server, _ = _run_mixed_traffic(tiny_serve_lab, lanes=2)
    payload = server.live_stats()
    assert "lanes" in payload and len(payload["lanes"]) == 2
    assert set(payload["queues"]) == set(server.registry.names())
    frame = render_top_frame(payload)
    assert "lane" in frame and "util" in frame


def render_top_frame(payload: dict) -> str:
    from repro.serve.top import render_top

    return render_top(payload, clock=lambda: 0.0)


def test_render_top_lane_and_queue_columns() -> None:
    """Dashboard renders the lane table and tenant queue column."""
    payload = {
        "server": {
            "requests": 8,
            "batches": 4,
            "rejected": 0,
            "batching_efficiency": 2.0,
            "maintenance_ticks": 1,
            "pulses": {"fp": 128},
        },
        "tenants": {"fp": {"qps": 3.5, "p50_ms": 1.2, "p99_ms": 2.5}},
        "queues": {"fp": 3},
        "health": {"anomalies": 0},
        "lanes": [
            {
                "lane": 0,
                "batches": 3,
                "busy_us": 1500.0,
                "utilization": 0.42,
                "tenants": ["fp"],
            },
            {
                "lane": 1,
                "batches": 1,
                "busy_us": 200.0,
                "utilization": 0.05,
                "tenants": [],
            },
        ],
    }
    frame = render_top_frame(payload)
    assert "42%" in frame and "5%" in frame
    lines = frame.splitlines()
    lane_header = next(line for line in lines if "busy ms" in line)
    assert "lane" in lane_header and "util" in lane_header
    tenant_header = next(line for line in lines if "tenant" in line)
    assert tenant_header.split()[:8] == [
        "tenant", "lane", "qps", "p50", "ms", "p99", "ms", "queue"
    ]
    # The tenant row places fp on its hash lane (0), and its queue
    # column shows the batcher's depth.
    tenant_row = next(line for line in lines if line.lstrip().startswith("fp"))
    assert tenant_row.split()[:6] == ["fp", "0", "3.5", "1.20", "2.50", "3"]


# ----------------------------------------------------------------------
# Parallel pool reuse (the long-lived event-loop regression)
# ----------------------------------------------------------------------

def test_parallel_backend_pool_is_reused_across_entries() -> None:
    """Repeated enter/exit must reuse the warm pool, not refork.

    The serving event loop opens the backend context around every
    sharded micro-batch; before the pool cache each entry forked a
    fresh pool and each exit tore it down.
    """
    async def scenario():
        with parallel.parallel_backend(2) as first:
            pass
        with parallel.parallel_backend(2) as second:
            pass
        return first, second

    try:
        first, second = asyncio.run(scenario())
        assert first is second
        assert parallel.get_backend() is not first  # previous backend restored
        # A broken pool is replaced, not resurrected.
        first._broken = True
        with parallel.parallel_backend(2) as third:
            assert third is not first
        assert not third._broken
    finally:
        parallel.shutdown()
    with parallel.parallel_backend(2) as fresh:  # pools rebuild after shutdown
        assert fresh is not first
    parallel.shutdown()


def test_model_mutation_invalidates_pooled_snapshots() -> None:
    """Mutating a model between context entries must not serve stale shares.

    A drift sync (or reprogram) typically happens while the *serial*
    backend is active; the warm pool outlives the context, so the
    invalidation must reach its cached snapshot or the next entry would
    map pre-mutation conductances.
    """
    sentinel = object()
    handle = types.SimpleNamespace(token="serve-test-stale-share")
    try:
        with parallel.parallel_backend(2) as backend:
            backend._handles[id(sentinel)] = (sentinel, handle)
        # Serial backend active now — exactly the drift-sync situation.
        parallel.get_backend().invalidate(sentinel)
        assert id(sentinel) not in backend._handles
    finally:
        parallel.shutdown()


# ----------------------------------------------------------------------
# Sustained load (slow tier)
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_sustained_load_soak(tiny_serve_lab) -> None:
    """Closed-loop soak: hundreds of requests, zero drops, identity holds."""
    registry = make_registry(tiny_serve_lab)
    registry.load_all()
    images = tiny_serve_lab.eval_images(8)

    async def scenario():
        async with AnalogServer(registry, serve_config(queue_limit=16)) as server:
            return await run_load(
                server, ["fp", "q"], images, clients=8, requests_per_client=40
            )

    report = asyncio.run(scenario())
    assert report.completed == report.requests == 320
    assert report.batching_efficiency > 1.0
    sampled = report.responses[::17]
    for model, image_index, result in sampled:
        reference = predict_logits(
            registry.model(model).model, images[image_index][None]
        )
        np.testing.assert_array_equal(result.logits, reference[0])
