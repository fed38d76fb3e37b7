"""Continuous telemetry primitives: ring-buffer time series + scrape text.

The PR 4 observability layer is *batch-shaped*: metrics accumulate for
the life of a run and are summarized after exit.  A long-running
``repro serve`` process needs the complementary *live* shape — bounded
memory, windowed rates, and a scrape surface — without giving up the
determinism discipline (telemetry reads state, never perturbs it).

Three pieces:

* :class:`RingBuffer` — a fixed-capacity window of ``(t, value)``
  points at a configurable time resolution.  Points landing in the same
  resolution bucket combine with the series kind's operator (``sum`` /
  ``max`` / ``min``), which makes merging buffers **order-independent**:
  the same observations produce the same window no matter how they were
  sharded across workers (the property tests pin this).
* :class:`TimeSeriesStore` — a name-addressed store of ring buffers
  with lossless ``export_state``/``merge_state`` (the worker-to-parent
  telemetry path, mirroring :class:`repro.obs.metrics.MetricsRegistry`).
* :func:`render_prometheus` — Prometheus-text-format exposition of a
  metrics registry plus a time-series store, served by the ``/metrics``
  HTTP listener and the ``{"op": "metrics"}`` TCP verb.

Plus :func:`trace_sampled`, the deterministic (RNG-free) per-request
trace sampling rule: request ``seq`` is sampled exactly when the
integer part of ``seq * rate`` advances, giving evenly spaced samples
at any rate without consuming a random stream the simulator might
depend on.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque

def _exact_add(partials: list, x: float) -> list:
    """``partials + [x]`` as a non-overlapping float expansion, exactly.

    Shewchuk's summation (the algorithm behind :func:`math.fsum`): the
    returned partials sum exactly to ``sum(partials) + x``, so their
    ``fsum`` is the correctly rounded total in any arrival order.  Once
    a non-finite term arrives the bucket collapses to one IEEE value,
    whose ``inf``/``nan`` outcome is order-independent as well.
    """
    if not (math.isfinite(x) and all(map(math.isfinite, partials))):
        return [sum(partials) + x]
    out = []
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            out.append(lo)
        x = hi
    out.append(x)
    return out


def _exact_merge(a: list, b: list) -> list:
    for x in b:
        a = _exact_add(a, x)
    return a


#: Bucket-combine operators per series kind.  A ``sum`` bucket holds
#: its exact partials (see :func:`_exact_add`): plain float addition is
#: not associative, so merged shards would round differently by order.
_COMBINE = {
    "sum": _exact_merge,
    "max": max,
    "min": min,
}


class RingBuffer:
    """Fixed-memory ``(t, value)`` window at a configurable resolution.

    ``capacity`` bounds the number of *buckets* kept; ``resolution_s``
    is the bucket width.  Values recorded into the same bucket combine
    with the ``kind`` operator, so a buffer never grows with traffic —
    only with elapsed time, and then only up to ``capacity`` buckets.
    """

    __slots__ = ("kind", "capacity", "resolution_s", "_points")

    def __init__(
        self, kind: str = "max", capacity: int = 240, resolution_s: float = 1.0
    ):
        if kind not in _COMBINE:
            raise ValueError(f"kind must be one of {sorted(_COMBINE)}, got {kind!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if resolution_s <= 0:
            raise ValueError(f"resolution_s must be > 0, got {resolution_s}")
        self.kind = kind
        self.capacity = capacity
        self.resolution_s = resolution_s
        self._points: deque[list] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._points)

    def _bucket(self, t: float) -> float:
        return math.floor(t / self.resolution_s) * self.resolution_s

    def _term(self, value: float):
        """One observation in this kind's bucket representation."""
        return [value] if self.kind == "sum" else value

    def _read(self, term) -> float:
        return math.fsum(term) if self.kind == "sum" else term

    def record(self, value: float, t: float) -> None:
        """Fold one observation at wall time ``t`` into its bucket.

        Out-of-order arrivals (merged worker shards, clock jitter) fold
        into the matching existing bucket when it is still in the
        window, and are dropped when older than the window — a bounded
        store cannot resurrect evicted history.
        """
        term = self._term(float(value))
        bucket = self._bucket(t)
        combine = _COMBINE[self.kind]
        points = self._points
        if points and bucket <= points[-1][0]:
            for point in reversed(points):
                if point[0] == bucket:
                    point[1] = combine(point[1], term)
                    return
                if point[0] < bucket:
                    break
            if points[0][0] < bucket:  # in-window gap: insert in order
                items = sorted([*points, [bucket, term]])
                points.clear()
                points.extend(items)
            return
        points.append([bucket, term])

    # ------------------------------------------------------------------
    def points(self) -> list[tuple[float, float]]:
        return [(t, self._read(v)) for t, v in self._points]

    def values(self) -> list[float]:
        return [self._read(v) for _t, v in self._points]

    def last(self) -> float:
        return self._read(self._points[-1][1]) if self._points else float("nan")

    def window(self, now: float, seconds: float) -> list[float]:
        """Values of buckets younger than ``seconds`` (inclusive)."""
        cutoff = self._bucket(now) - seconds
        return [self._read(v) for t, v in self._points if t >= cutoff]

    def rate_per_s(self, now: float, seconds: float) -> float:
        """Windowed rate for ``sum`` series (events per second)."""
        if seconds <= 0:
            return 0.0
        return sum(self.window(now, seconds)) / seconds

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Lossless JSON-ready state (see :meth:`restore`).

        Each point is ``[t, value]``; a ``sum`` point appends its exact
        partials so that merges stay exact.
        """
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "resolution_s": self.resolution_s,
            "points": [
                [t, self._read(v), list(v)] if self.kind == "sum" else [t, v]
                for t, v in self._points
            ],
        }

    def _load_term(self, point: list):
        """A snapshot point's bucket representation (exact for sums)."""
        if self.kind == "sum":
            return [float(x) for x in point[2]]
        return float(point[1])

    @classmethod
    def restore(cls, state: dict) -> "RingBuffer":
        buf = cls(
            kind=state["kind"],
            capacity=int(state["capacity"]),
            resolution_s=float(state["resolution_s"]),
        )
        for point in state["points"]:
            buf._points.append([float(point[0]), buf._load_term(point)])
        return buf

    def merge(self, state: dict) -> None:
        """Fold a :meth:`snapshot` payload into this buffer.

        Buckets are combined with the kind operator and the newest
        ``capacity`` buckets kept — a pure function of the *set* of
        recorded points, so merge order across workers cannot change
        the result.
        """
        combine = _COMBINE[self.kind]
        merged: dict = {t: v for t, v in self._points}
        for point in state["points"]:
            t, v = float(point[0]), self._load_term(point)
            merged[t] = combine(merged[t], v) if t in merged else v
        self._points.clear()
        for t in sorted(merged)[-self.capacity :]:
            self._points.append([t, merged[t]])


class TimeSeriesStore:
    """Name-addressed ring buffers with a lossless merge path.

    Recording is guarded by one store-level lock: the serving layer's
    inference lanes publish series from several threads, and a ring
    bucket fold is a multi-step mutation.
    """

    def __init__(self, capacity: int = 240, resolution_s: float = 1.0):
        self.capacity = capacity
        self.resolution_s = resolution_s
        self._series: dict[str, RingBuffer] = {}
        self._lock = threading.RLock()

    def series(
        self,
        name: str,
        kind: str = "max",
        capacity: int | None = None,
        resolution_s: float | None = None,
    ) -> RingBuffer:
        """Get-or-create one named series (kind fixed at creation)."""
        with self._lock:
            buf = self._series.get(name)
            if buf is None:
                buf = self._series[name] = RingBuffer(
                    kind=kind,
                    capacity=capacity if capacity is not None else self.capacity,
                    resolution_s=(
                        resolution_s
                        if resolution_s is not None
                        else self.resolution_s
                    ),
                )
            return buf

    def record(self, name: str, value: float, t: float, kind: str = "max") -> None:
        with self._lock:
            self.series(name, kind=kind).record(value, t)

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: object) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    # Worker-to-parent merge path ---------------------------------------
    def export_state(self) -> dict:
        """Lossless, mergeable snapshot of every series (sorted)."""
        with self._lock:
            return {
                name: self._series[name].snapshot()
                for name in sorted(self._series)
            }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` payload in (order-independent)."""
        with self._lock:
            for name, snap in state.items():
                self.series(
                    name,
                    kind=snap["kind"],
                    capacity=int(snap["capacity"]),
                    resolution_s=float(snap["resolution_s"]),
                ).merge(snap)


#: Process-global live store: serving telemetry and (under ``--obs``)
#: the analog-health recorders feed it; pool workers export theirs for
#: an order-independent parent merge (:mod:`repro.parallel`).
TIMESERIES = TimeSeriesStore()


# ----------------------------------------------------------------------
# Deterministic request-trace sampling
# ----------------------------------------------------------------------

def trace_sampled(seq: int, rate: float) -> bool:
    """Whether request number ``seq`` (0-based) carries a full trace.

    Evenly spaced deterministic sampling: sampled exactly when
    ``floor((seq + 1) * rate)`` advances past ``floor(seq * rate)``.
    ``rate >= 1`` samples everything, ``rate <= 0`` nothing, and no RNG
    is consumed — telemetry must never advance a random stream the
    simulator's determinism contracts depend on.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return math.floor((seq + 1) * rate) > math.floor(seq * rate)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Sanitize a dotted metric path into a Prometheus metric name."""
    flat = _NAME_RE.sub("_", name.strip())
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return prefix + flat


def _fmt_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registry=None, store: TimeSeriesStore | None = None, extra: dict | None = None
) -> str:
    """Prometheus text-format exposition (version 0.0.4).

    Counters render as ``<name>_total``, gauges as plain gauges,
    histograms as summaries (P² quantiles + ``_count``/``_sum``), and
    time-series ring buffers as gauges carrying their latest bucket.
    ``extra`` appends caller-computed gauges (e.g. queue depth).
    """
    from repro.obs.metrics import REGISTRY

    registry = registry if registry is not None else REGISTRY
    lines: list[str] = []

    for name, counter in sorted(registry._counters.items()):
        metric = prometheus_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt_value(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(gauge.value)}")
    for name, hist in sorted(registry._histograms.items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} summary")
        for p, estimator in hist._quantiles.items():
            lines.append(
                f'{metric}{{quantile="{p:g}"}} {_fmt_value(estimator.value())}'
            )
        lines.append(f"{metric}_sum {_fmt_value(hist.sum)}")
        lines.append(f"{metric}_count {hist.count}")
    if store is not None:
        for name in store.names():
            buf = store.series(name)
            if not len(buf):
                continue
            metric = prometheus_name(name, prefix="repro_ts_")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt_value(buf.last())}")
    for name, value in sorted((extra or {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(float(value))}")
    return "\n".join(lines) + "\n"


def sample_count(text: str) -> int:
    """Number of samples in a rendered exposition (non-comment lines)."""
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
