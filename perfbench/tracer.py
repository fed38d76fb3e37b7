"""Span recorder that times repro's layers from outside the package.

:class:`Tracer` wraps public functions and methods of ``repro`` with a
span that records its name, start, end, the thread it ran on and the
span that was open on that thread when it started (its parent).  The
wrappers are installed by :func:`install_layer_spans` and removed by
:meth:`Tracer.uninstall`, so an untraced run executes the unmodified
program.  A span's *self time* is its duration minus the durations of
its direct children; per-layer times are sums of self times by name.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        #: Spans as ``[id, parent_id, name, start_s, end_s, thread_id]``.
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), 0.0, threading.get_ident()]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"unbalanced span {span[2]!r}")
        stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable ``(args) -> name`` for
        wrappers whose label depends on the receiver; a callable that
        returns ``None`` lets that call run without a span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        label = name if callable(name) else (lambda _args: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = label(args)
            if span_name is None:
                return original(*args, **kwargs)
            span = tracer.open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Index to pass to :meth:`layer_times` for spans recorded after now."""
        return len(self.spans)

    def layer_times(self, since: int = 0, until: int | None = None) -> dict[str, dict]:
        """``{name: {"calls", "total_s", "self_s"}}`` over spans between marks."""
        window = self.spans[since:until]
        child_s: dict[int, float] = {}
        for span in window:
            if span[1]:
                child_s[span[1]] = child_s.get(span[1], 0.0) + (span[4] - span[3])
        out: dict[str, dict] = {}
        for span in window:
            duration = span[4] - span[3]
            entry = out.setdefault(span[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_s.get(span[0], 0.0)
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start_s": start, "end_s": end, "thread": thread}
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "name", "_span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self._span = self.tracer.open(self.name)
        return self._span

    def __exit__(self, *_exc):
        self.tracer.close(self._span)
        return False


def install_layer_spans(tracer: Tracer, hardware_ids: set[int], counts: dict) -> None:
    """Wrap the public entry points of every measured layer.

    ``hardware_ids`` holds ``id()`` of the converted hardware models and
    of every module inside them, so a ``ResNet.forward`` span is
    labelled ``nn.hw_forward`` on hardware and ``nn.victim_forward`` on
    the digital victim, and the digital layers (batch norm, ReLU,
    pooling) get an ``nn.digital`` span on hardware only.  The crossbar
    layers' ``forward`` is ``xbar.layer``: im2col, the matvec and the
    assembly of its output.  ``counts`` receives
    ``hw_images`` (images through hardware forwards) and
    ``predictor_rows`` (voltage rows sent to the GENIEx predictor).
    """
    from repro.attacks import base as attacks_base
    from repro.attacks.pgd import PGD
    from repro.autograd.tensor import Tensor
    from repro.nn import conv, layers
    from repro.nn.resnet import ResNet
    from repro.serve.registry import ModelRegistry
    from repro.serve.telemetry import LiveTelemetry
    from repro.train.zoo import ModelZoo
    from repro.xbar import presets, simulator
    from repro.xbar.geniex import GENIEx

    def forward_label(args) -> str:
        if id(args[0]) in hardware_ids:
            counts["hw_images"] = counts.get("hw_images", 0) + len(args[1].data)
            return "nn.hw_forward"
        return "nn.victim_forward"

    def digital_label(args) -> str | None:
        return "nn.digital" if id(args[0]) in hardware_ids else None

    def predictor_label(args) -> str:
        counts["predictor_rows"] = counts.get("predictor_rows", 0) + len(args[1])
        return "xbar.predictor"

    tracer.wrap(ModelZoo, "get_classifier", "train.zoo_load")
    tracer.wrap(presets, "load_or_train_geniex", "xbar.geniex_load")
    tracer.wrap(simulator, "convert_to_hardware", "xbar.convert")
    tracer.wrap(simulator, "calibrate_hardware", "xbar.calibrate")
    tracer.wrap(ModelRegistry, "load_all", "serve.registry_load")
    tracer.wrap(GENIEx, "predict_from_bias", predictor_label)
    tracer.wrap(simulator.CrossbarEngine, "matvec", "xbar.matvec")
    # im2col is imported by name into the simulator; wrap both bindings.
    tracer.wrap(conv, "im2col", "nn.im2col")
    tracer.wrap(simulator, "im2col", "nn.im2col")
    tracer.wrap(ResNet, "forward", forward_label)
    tracer.wrap(simulator.NonIdealConv2d, "forward", "xbar.layer")
    tracer.wrap(simulator.NonIdealLinear, "forward", "xbar.layer")
    for layer in (layers.BatchNorm2d, layers.ReLU, layers.GlobalAvgPool2d):
        tracer.wrap(layer, "forward", digital_label)
    tracer.wrap(attacks_base, "predict_logits", "attacks.predict_logits")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(PGD, "generate", "attacks.pgd")
    for hook in ("on_request", "on_batch", "on_infer", "on_reject"):
        tracer.wrap(LiveTelemetry, hook, "obs.telemetry")
