"""``python -m repro top`` — live terminal dashboard for a serve port.

A thin TCP client: polls a running server's ``{"op": "stats"}`` verb
and renders tenants × {qps, p50/p99, queue depth, error budget, health
state, drift pulses} with the shared table renderer.  ``--once`` prints
a single snapshot and exits (scripting / CI smoke); otherwise the
screen redraws every ``--interval`` seconds until Ctrl-C.

All state lives server-side — ``top`` holds no session beyond its
socket, so any number of dashboards can watch one server.
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.obs.summary import render_table
from repro.serve.net import request_op

#: ANSI: clear screen + home cursor (live mode only).
_CLEAR = "\x1b[2J\x1b[H"


def _fmt_ms(value) -> str:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "-"
    return "-" if value != value else f"{value:.2f}"


def _fmt_budget(value) -> str:
    try:
        return f"{float(value) * 100:.0f}%"
    except (TypeError, ValueError):
        return "-"


def render_top(stats: dict, clock=time.time) -> str:
    """One dashboard frame from a ``live_stats`` payload."""
    server = stats.get("server", {})
    tenants = stats.get("tenants", {})
    queues = stats.get("queues", {})
    maintenance = stats.get("maintenance", {})
    health = stats.get("health", {})
    lanes = stats.get("lanes", [])

    tenant_lane = {
        name: row.get("lane", 0)
        for row in lanes
        for name in row.get("tenants", [])
    }
    names = sorted(set(tenants) | set(queues))
    rows = []
    for name in names:
        tenant = tenants.get(name, {})
        upkeep = maintenance.get(name, {})
        scheduler = upkeep.get("scheduler", {})
        state = scheduler.get("state", "-")
        violations = tenant.get("violations", 0)
        if violations:
            state = f"{state}!" if state != "-" else "slo!"
        rows.append(
            [
                name,
                tenant_lane.get(name, 0),
                f"{tenant.get('qps', 0.0):.1f}",
                _fmt_ms(tenant.get("p50_ms")),
                _fmt_ms(tenant.get("p99_ms")),
                queues.get(name, 0),
                _fmt_budget(tenant.get("budget", 1.0)),
                violations,
                state,
                server.get("pulses", {}).get(name, 0),
                upkeep.get("anomaly_ticks", 0),
            ]
        )
    header = (
        time.strftime("%H:%M:%S", time.localtime(clock()))
        + f"  requests={server.get('requests', 0)}"
        + f" batches={server.get('batches', 0)}"
        + f" rejected={server.get('rejected', 0)}"
        + f" efficiency={server.get('batching_efficiency', 0.0):.2f}"
        + f" maintenance_ticks={server.get('maintenance_ticks', 0)}"
        + f" anomalies={health.get('anomalies', 0)}"
    )
    lines = [header, ""]
    lines.extend(
        render_table(
            [
                "tenant",
                "lane",
                "qps",
                "p50 ms",
                "p99 ms",
                "queue",
                "budget",
                "viol",
                "health",
                "pulses",
                "anom",
            ],
            rows,
        )
        if rows
        else ["(no tenants reporting)"]
    )
    if lanes:
        lane_rows = [
            [
                row.get("lane", index),
                row.get("batches", 0),
                f"{row.get('busy_us', 0.0) / 1e3:.1f}",
                f"{row.get('utilization', 0.0) * 100:.0f}%",
                ",".join(row.get("tenants", [])) or "-",
            ]
            for index, row in enumerate(lanes)
        ]
        lines.append("")
        lines.extend(
            render_table(
                ["lane", "batches", "busy ms", "util", "tenants"], lane_rows
            )
        )
    return "\n".join(lines)


async def _fetch(host: str, port: int) -> dict:
    reply = await request_op(host, port, "stats")
    if not reply.get("ok"):
        raise ConnectionError(f"server refused stats op: {reply.get('error')}")
    return reply["stats"]


def run_top(
    host: str, port: int, interval: float = 2.0, once: bool = False
) -> int:
    """Dashboard entry point; returns a process exit code."""
    try:
        if once:
            print(render_top(asyncio.run(_fetch(host, port))))
            return 0
        while True:
            frame = render_top(asyncio.run(_fetch(host, port)))
            sys.stdout.write(_CLEAR + frame + "\n")
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1
