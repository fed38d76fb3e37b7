"""Lightweight performance counters for the analog hot path.

Every :class:`~repro.xbar.simulator.CrossbarEngine` owns a
:class:`PerfCounters` instance that the MVM kernels update as they run:
how many matvec batches were served, how many bit-streams were actually
evaluated vs skipped (all-zero streams are never driven), how many
predictor (analog bank) evaluations happened, and how much wall time
was spent inside the column predictor.  The counters are pure
bookkeeping — they never influence numerics — and cost a few integer
adds per bank, so they stay on in production.

The counters are the cheap accumulation *backend* of the observability
layer: :func:`repro.obs.metrics.publish_hotpath` folds them (plus the
engine-cache stats) into the metrics registry as gauges, and all text
rendering lives in :mod:`repro.obs.metrics` so there is exactly one
formatting path.  :func:`format_perf` — the ``--perf`` CLI alias —
publishes and renders through that registry view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.obs.metrics import (
    MetricsRegistry,
    REGISTRY,
    format_hotpath_fields,
    publish_hotpath,
    render_hotpath,
)


@dataclass
class PerfCounters:
    """Hot-path activity counters for one crossbar engine.

    Attributes
    ----------
    matvec_calls:
        Analog ``matvec`` batches served (signed inputs count once even
        though they split into two unsigned passes).
    matvec_rows:
        Total input vectors pushed through the engine.
    bank_evals:
        Column-predictor invocations (one per tile-row bank and sign
        pass: the kernels stack every active stream or plane of a bank
        into a single call).
    streams_evaluated:
        (bank, bit-stream) pairs that carried a non-zero voltage
        pattern and were actually evaluated.
    streams_skipped:
        (bank, bit-stream) pairs skipped because the stream segment was
        all zero (nothing to drive).
    rows_compacted:
        Voltage rows removed from predictor calls because they were all
        zero within an otherwise active stream (undriven, they read
        exactly zero current).
    predictor_seconds:
        Wall time spent inside ``predict_from_bias`` calls.
    int_matvec_calls:
        Batches served through the integer pulse-expansion path
        (``QuantConfig(mode="int8")`` with a calibrated input scale).
    planes_evaluated:
        (bank, pulse-plane) pairs driven through the predictor by the
        integer path.
    planes_skipped:
        (bank, pulse-plane) pairs skipped because the plane segment was
        all zero (nothing to drive) — the integer path's analogue of
        ``streams_skipped``.
    int_sat_events:
        Integer matvec calls whose shift-and-add accumulator exceeded
        the int32 range — headroom telemetry: the engine accumulates in
        int64 so results stay exact, but 32-bit hardware accumulators
        would have saturated.
    """

    matvec_calls: int = 0
    matvec_rows: int = 0
    bank_evals: int = 0
    streams_evaluated: int = 0
    streams_skipped: int = 0
    rows_compacted: int = 0
    predictor_seconds: float = 0.0
    int_matvec_calls: int = 0
    planes_evaluated: int = 0
    planes_skipped: int = 0
    int_sat_events: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def merge(self, other: "PerfCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def format(self) -> str:
        return format_hotpath_fields(self.as_dict())


@dataclass
class PerfReport:
    """Aggregated counters for one converted hardware model."""

    layers: dict = field(default_factory=dict)  # name -> PerfCounters
    total: PerfCounters = field(default_factory=PerfCounters)

    def as_dict(self) -> dict:
        return {
            "total": self.total.as_dict(),
            "layers": {name: c.as_dict() for name, c in self.layers.items()},
        }


def iter_engines(model):
    """Yield ``(layer_name, engine)`` for every non-ideal layer.

    Duck-typed on ``module.engine.perf`` so this module stays free of a
    circular import on the simulator.
    """
    for name, module in model.named_modules():
        engine = getattr(module, "engine", None)
        if engine is not None and hasattr(engine, "perf"):
            yield name or type(module).__name__, engine


def perf_report(model) -> PerfReport:
    """Aggregate the per-engine counters of a converted model."""
    report = PerfReport()
    for name, engine in iter_engines(model):
        report.layers[name] = engine.perf
        report.total.merge(engine.perf)
    return report


def reset_perf(model) -> None:
    """Zero every engine counter of a converted model."""
    for _name, engine in iter_engines(model):
        engine.perf.reset()


def format_perf(models: dict, per_layer: bool = False) -> str:
    """Render the hot-path report for ``{label: hardware_model}``.

    Publishes the counters + engine-cache stats into the global metrics
    registry (so an active ``--obs`` run absorbs them) and renders the
    registry's hot-path view scoped to exactly these models.
    """
    publish_hotpath(models, REGISTRY)
    scoped = MetricsRegistry()
    publish_hotpath(models, scoped)
    return render_hotpath(scoped, per_layer=per_layer)
