"""Analog inference serving: micro-batching front-end over the MVM path.

The paper's claims are about *deployed* analog inference; this package
is the deployment.  An asyncio front-end (:class:`AnalogServer`)
coalesces in-flight single-image requests into dense micro-batches
before they hit the vectorized MVM kernel, a multi-tenant
:class:`ModelRegistry` loads programmed engines through the engine
cache's disk tier with per-tenant quant/fault/drift presets, and a
bounded admission queue sheds load with typed rejections instead of
unbounded latency.

The correctness contract — the whole reason serving is testable — is
**coalescing identity**: a request's logits are bit-identical no matter
which micro-batch it rides in, including a batch of one.  Pinning the
input DAC range to a fixed full-scale reference instead of auto-ranging
it per batch makes that true (see :func:`pin_for_serving`): every other
step of the MVM chain is already row-local, since an undriven row draws
no current in any mode.
"""

from repro.serve.batching import MicroBatch, MicroBatcher
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.net import request_op, request_tcp, serve_metrics_http, serve_tcp
from repro.serve.pinning import pin_for_serving
from repro.serve.registry import LoadedModel, ModelRegistry, TenantSpec
from repro.serve.server import (
    AnalogServer,
    InvalidImage,
    ServeConfig,
    ServeError,
    ServeResult,
    ServerClosed,
    ServerOverloaded,
    ServerStats,
    UnknownModel,
)
from repro.serve.telemetry import LiveTelemetry, TenantTelemetry

__all__ = [
    "AnalogServer",
    "InvalidImage",
    "LiveTelemetry",
    "LoadReport",
    "LoadedModel",
    "MicroBatch",
    "MicroBatcher",
    "ModelRegistry",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "TenantSpec",
    "TenantTelemetry",
    "UnknownModel",
    "pin_for_serving",
    "request_op",
    "request_tcp",
    "run_load",
    "serve_metrics_http",
    "serve_tcp",
]
