"""Live-telemetry primitives: ring buffers, scrape text, table renderer.

The load-bearing contracts pinned here:

* :class:`RingBuffer` is *fixed-memory*: traffic folds into resolution
  buckets, only elapsed time (capped at ``capacity`` buckets) grows it.
* Snapshots are lossless through JSON, and merging is a pure function
  of the recorded point *set* — shard and merge in any order, get the
  same window (the worker-to-parent telemetry path depends on this).
* P² histogram state exported with raw samples replays to the *exact*
  serial marker state when merged in shard order.
* ``trace_sampled`` is deterministic, RNG-free and evenly spaced.
* The Prometheus exposition renders every metric family and the shared
  table renderer aligns what every CLI surface prints.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.live import (
    RingBuffer,
    TimeSeriesStore,
    prometheus_name,
    render_prometheus,
    sample_count,
    trace_sampled,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import render_table

pytestmark = [pytest.mark.fast]


# ----------------------------------------------------------------------
# RingBuffer
# ----------------------------------------------------------------------

def test_ring_buffer_buckets_combine_by_kind() -> None:
    total = RingBuffer(kind="sum", resolution_s=1.0)
    peak = RingBuffer(kind="max", resolution_s=1.0)
    floor = RingBuffer(kind="min", resolution_s=1.0)
    for buf in (total, peak, floor):
        buf.record(3.0, t=10.2)
        buf.record(5.0, t=10.9)  # same bucket
        buf.record(1.0, t=11.1)  # next bucket
    assert total.points() == [(10.0, 8.0), (11.0, 1.0)]
    assert peak.points() == [(10.0, 5.0), (11.0, 1.0)]
    assert floor.points() == [(10.0, 3.0), (11.0, 1.0)]


def test_ring_buffer_memory_is_bounded_by_capacity() -> None:
    buf = RingBuffer(kind="sum", capacity=4, resolution_s=1.0)
    for t in range(100):
        buf.record(1.0, t=float(t))
        buf.record(1.0, t=float(t) + 0.5)  # same bucket: no growth
    assert len(buf) == 4
    assert buf.points() == [(96.0, 2.0), (97.0, 2.0), (98.0, 2.0), (99.0, 2.0)]


def test_ring_buffer_out_of_order_points_fold_or_drop() -> None:
    buf = RingBuffer(kind="sum", capacity=8, resolution_s=1.0)
    buf.record(1.0, t=10.0)
    buf.record(1.0, t=13.0)
    buf.record(1.0, t=10.4)  # late echo of an in-window bucket: folds
    buf.record(1.0, t=11.0)  # in-window gap: inserted in order
    buf.record(1.0, t=3.0)   # older than the window start: dropped
    assert buf.points() == [(10.0, 2.0), (11.0, 1.0), (13.0, 1.0)]


def test_ring_buffer_window_and_rate() -> None:
    buf = RingBuffer(kind="sum", resolution_s=1.0)
    for t in range(20):
        buf.record(2.0, t=float(t))
    assert buf.window(now=19.0, seconds=4.0) == [2.0] * 5
    assert buf.rate_per_s(now=19.0, seconds=10.0) == pytest.approx(2.2)
    assert buf.rate_per_s(now=19.0, seconds=0.0) == 0.0
    assert buf.last() == 2.0
    assert math.isnan(RingBuffer().last())


def test_ring_buffer_validates_parameters() -> None:
    with pytest.raises(ValueError):
        RingBuffer(kind="avg")
    with pytest.raises(ValueError):
        RingBuffer(capacity=0)
    with pytest.raises(ValueError):
        RingBuffer(resolution_s=0.0)


def test_store_series_kind_is_fixed_at_creation() -> None:
    store = TimeSeriesStore()
    first = store.series("serve.qps.fp", kind="sum")
    again = store.series("serve.qps.fp", kind="max")  # kind ignored
    assert again is first
    assert again.kind == "sum"
    assert "serve.qps.fp" in store
    assert store.names() == ["serve.qps.fp"]
    store.clear()
    assert len(store) == 0


# ----------------------------------------------------------------------
# Deterministic trace sampling
# ----------------------------------------------------------------------

def test_trace_sampling_is_deterministic_and_evenly_spaced() -> None:
    sampled = [seq for seq in range(100) if trace_sampled(seq, 0.25)]
    assert sampled == list(range(3, 100, 4))
    assert [trace_sampled(s, 0.25) for s in range(100)] == [
        trace_sampled(s, 0.25) for s in range(100)
    ]  # pure function of (seq, rate)


@pytest.mark.parametrize("rate,expected", [(0.0, 0), (-1.0, 0), (1.0, 200), (2.0, 200)])
def test_trace_sampling_edge_rates(rate: float, expected: int) -> None:
    assert sum(trace_sampled(s, rate) for s in range(200)) == expected


@given(
    rate=st.floats(min_value=0.01, max_value=0.99),
    n=st.integers(min_value=100, max_value=2000),
)
@settings(max_examples=25, deadline=None)
def test_trace_sampling_hits_the_requested_rate(rate: float, n: int) -> None:
    count = sum(trace_sampled(s, rate) for s in range(n))
    assert count == math.floor(n * rate)  # exact: floor-advance rule


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

def test_prometheus_name_sanitizes() -> None:
    assert prometheus_name("serve.qps.fp-1") == "repro_serve_qps_fp_1"
    assert prometheus_name("9lives") == "repro__9lives"
    assert prometheus_name("x", prefix="repro_ts_") == "repro_ts_x"


def test_render_prometheus_covers_every_family() -> None:
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(7)
    registry.gauge("analog.dev.rmse.layer1").set(0.25)
    hist = registry.histogram("serve.latency_us")
    for x in range(1, 101):
        hist.observe(float(x))
    store = TimeSeriesStore()
    store.record("serve.qps.fp", 4.0, t=100.0, kind="sum")
    store.series("empty.series", kind="sum")  # zero points: skipped
    text = render_prometheus(registry, store=store, extra={"serve.queue_depth.fp": 3})

    assert "# TYPE repro_serve_requests_total counter" in text
    assert "repro_serve_requests_total 7" in text
    assert "repro_analog_dev_rmse_layer1 0.25" in text
    assert "# TYPE repro_serve_latency_us summary" in text
    assert 'repro_serve_latency_us{quantile="0.5"}' in text
    assert "repro_serve_latency_us_count 100" in text
    assert "repro_serve_latency_us_sum 5050" in text
    assert "repro_ts_serve_qps_fp 4" in text
    assert "repro_ts_empty_series" not in text
    assert "repro_serve_queue_depth_fp 3" in text
    assert text.endswith("\n")
    # counter + gauge + (3 quantiles + sum + count) + ts + extra
    assert sample_count(text) == 9


def test_render_prometheus_formats_non_finite_values() -> None:
    registry = MetricsRegistry()
    registry.gauge("weird.nan").set(float("nan"))
    registry.gauge("weird.inf").set(float("inf"))
    text = render_prometheus(registry)
    assert "repro_weird_nan NaN" in text
    assert "repro_weird_inf +Inf" in text


# ----------------------------------------------------------------------
# Shared table renderer
# ----------------------------------------------------------------------

def test_render_table_aligns_label_left_numbers_right() -> None:
    lines = render_table(["tenant", "qps"], [["fp", 12.5], ["quantized", 3]])
    assert lines == [
        "tenant      qps",
        "fp         12.5",
        "quantized     3",
    ]


def test_render_table_validates_shape() -> None:
    assert render_table([], []) == []
    with pytest.raises(ValueError):
        render_table(["a", "b"], [["only-one"]])
    with pytest.raises(ValueError):
        render_table(["a", "b"], [], align="lx")
    with pytest.raises(ValueError):
        render_table(["a", "b"], [], align="l")


# ----------------------------------------------------------------------
# Lossless snapshots + order-independent merge (the property the
# worker-to-parent telemetry path stands on)
# ----------------------------------------------------------------------

_kinds = st.sampled_from(["sum", "max", "min"])
_points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # bucket index
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=1,
    max_size=60,
)


@given(kind=_kinds, points=_points)
@settings(max_examples=60, deadline=None)
def test_ring_snapshot_json_round_trip_is_lossless(kind: str, points) -> None:
    buf = RingBuffer(kind=kind, capacity=128, resolution_s=1.0)
    for bucket, value in sorted(points):
        buf.record(value, t=float(bucket))
    state = json.loads(json.dumps(buf.snapshot()))
    clone = RingBuffer.restore(state)
    assert clone.kind == buf.kind
    assert clone.capacity == buf.capacity
    assert clone.resolution_s == buf.resolution_s
    assert clone.points() == buf.points()


@given(
    kind=_kinds,
    points=_points,
    shards=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(  # float sums round differently by association order
    kind="sum",
    points=[(0, 0.0)] * 5 + [(0, 1.0), (0, 98304.0), (0, 32767.00001)],
    shards=3,
    seed=2,
)
@settings(max_examples=60, deadline=None)
def test_ring_merge_is_order_independent(kind, points, shards, seed) -> None:
    """Same observations, any sharding, any merge order: same window."""
    import numpy as np

    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, shards, size=len(points))
    snapshots = []
    for shard in range(shards):
        buf = RingBuffer(kind=kind, capacity=128, resolution_s=1.0)
        mine = [p for p, owner in zip(points, assignment) if owner == shard]
        for bucket, value in sorted(mine):
            buf.record(value, t=float(bucket))
        snapshots.append(buf.snapshot())

    def merged(order) -> list:
        parent = RingBuffer(kind=kind, capacity=128, resolution_s=1.0)
        for index in order:
            parent.merge(snapshots[index])
        return parent.points()

    forward = merged(range(shards))
    backward = merged(reversed(range(shards)))
    assert forward == backward

    serial = RingBuffer(kind=kind, capacity=128, resolution_s=1.0)
    for bucket, value in sorted(points):
        serial.record(value, t=float(bucket))
    assert forward == serial.points()


@given(points=_points)
@settings(max_examples=30, deadline=None)
def test_store_export_merge_round_trips_through_json(points) -> None:
    store = TimeSeriesStore()
    for i, (bucket, value) in enumerate(sorted(points)):
        store.record(f"sig.{i % 3}", value, t=float(bucket), kind="max")
    state = json.loads(json.dumps(store.export_state()))
    clone = TimeSeriesStore()
    clone.merge_state(state)
    assert clone.names() == store.names()
    for name in store.names():
        assert clone.series(name).points() == store.series(name).points()


# ----------------------------------------------------------------------
# repro obs tail: follow-mode JSONL streaming
# ----------------------------------------------------------------------

def test_tail_events_yields_existing_records_without_follow(tmp_path) -> None:
    run = tmp_path / "run"
    run.mkdir()
    with open(run / "events.jsonl", "w") as handle:
        handle.write('{"t": 1.0, "type": "log", "message": "a"}\n')
        handle.write('{"t": 2.0, "type": "log", "message": "b"}\n')
    from repro.obs.sink import tail_events

    records = list(tail_events(run, follow=False))
    assert [r["message"] for r in records] == ["a", "b"]


def test_tail_events_survives_torn_trailing_writes(tmp_path) -> None:
    """A record caught mid-write must surface whole on the next poll."""
    from repro.obs.sink import tail_events

    run = tmp_path / "run"
    run.mkdir()
    path = run / "events.jsonl"
    path.write_text('{"t": 1.0, "type": "log", "message": "first"}\n')

    seen: list[dict] = []
    polls = {"n": 0}

    def stop() -> bool:
        polls["n"] += 1
        if polls["n"] == 1:  # torn write: no trailing newline yet
            with open(path, "a") as handle:
                handle.write('{"t": 2.0, "type": "log", "mess')
        elif polls["n"] == 2:  # the rest of the record lands
            with open(path, "a") as handle:
                handle.write('age": "second"}\n')
        return polls["n"] > 3

    for record in tail_events(run, poll_s=0.0, stop=stop):
        seen.append(record)
    assert [r["message"] for r in seen] == ["first", "second"]


def test_tail_events_tolerates_missing_file_then_finds_it(tmp_path) -> None:
    from repro.obs.sink import tail_events

    run = tmp_path / "run"
    run.mkdir()  # no events.jsonl yet
    polls = {"n": 0}

    def stop() -> bool:
        polls["n"] += 1
        if polls["n"] == 2:
            (run / "events.jsonl").write_text(
                '{"t": 1.0, "type": "log", "message": "late"}\n'
            )
        return polls["n"] > 4

    records = list(tail_events(run, poll_s=0.0, stop=stop))
    assert [r["message"] for r in records] == ["late"]


def test_tail_events_skips_undecodable_complete_lines(tmp_path) -> None:
    from repro.obs.sink import tail_events

    run = tmp_path / "run"
    run.mkdir()
    (run / "events.jsonl").write_text(
        '{"t": 1.0, "type": "log", "message": "good"}\n'
        "{broken json}\n"
        '{"t": 2.0, "type": "log", "message": "after"}\n'
    )
    records = list(tail_events(run, follow=False))
    assert [r["message"] for r in records] == ["good", "after"]


def test_cli_obs_tail_streams_and_validates(tmp_path, capsys) -> None:
    from repro.cli import main

    run = tmp_path / "runs" / "r1"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text("{}")
    (run / "events.jsonl").write_text(
        '{"t": 1.0, "type": "log", "message": "hello"}\n'
        '{"t": 2.0, "type": "mystery_event"}\n'
    )
    code = main(
        ["obs", "tail", "r1", "--root", str(tmp_path / "runs"), "--no-follow"]
    )
    out, err = capsys.readouterr()
    assert code == 1  # schema problem surfaced in the exit code
    printed = [json.loads(line) for line in out.splitlines()]
    assert printed[0]["message"] == "hello"
    assert printed[1]["type"] == "mystery_event"  # streamed anyway
    assert "schema:" in err and "mystery_event" in err


@given(
    samples=st.lists(
        st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=200,
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_histogram_export_replays_to_exact_serial_state(samples, cuts) -> None:
    """P² is order-dependent: shard-order replay must equal serial."""
    serial = MetricsRegistry(record_samples=True)
    for x in samples:
        serial.histogram("h").observe(x)

    bounds = sorted({min(c, len(samples)) for c in cuts} | {0, len(samples)})
    parent = MetricsRegistry()
    for start, stop in zip(bounds, bounds[1:]):
        shard = MetricsRegistry(record_samples=True)
        for x in samples[start:stop]:
            shard.histogram("h").observe(x)
        parent.merge_state(json.loads(json.dumps(shard.export_state())))

    assert parent.histogram("h").as_dict() == serial.histogram("h").as_dict()
