"""Event and manifest schema for ``--obs`` runs, with a validator.

Hand-rolled (zero-dependency) structural validation: every JSONL
record must carry ``t`` (epoch seconds) and a known ``type``, plus the
per-type required fields below.  ``scripts/ci.sh`` runs
``python -m repro obs validate`` over a traced experiment so schema
drift fails CI instead of silently breaking ``obs summarize``.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.sink import read_events, read_manifest

#: number = int or float (bools are excluded explicitly below).
NUMBER = (int, float)

#: required fields (name -> allowed types) per event type.
EVENT_SCHEMAS: dict[str, dict[str, tuple]] = {
    "run_start": {"command": (str,)},
    "run_end": {"status": (str,), "wall_seconds": NUMBER},
    "span": {"path": (str,), "dur_s": NUMBER, "depth": (int,)},
    "profile": {"spans": (list,)},
    "metrics": {"snapshot": (dict,)},
    "attack_iter": {
        "attack": (str,),
        "iter": (int,),
        "loss": NUMBER,
        "flip_rate": NUMBER,
        "n": (int,),
    },
    "cell": {"attack": (str,), "task": (str,), "epsilon": NUMBER},
    "gain_point": {"preset": (str,), "nf": NUMBER, "gain": NUMBER},
    "guard_trip": {"layer": (str,), "mode": (str,)},
    "parallel_map": {"fn": (str,), "shards": (int,), "workers": (int,)},
    "drift_sync": {
        "layer": (str,),
        "epoch": (int,),
        "age": (int,),
        "pulses": (int,),
        "converted": (int,),
    },
    "recalibration": {
        "action": (str,),
        "layers": (list,),
        "attempt": (int,),
        "healthy": (bool,),
    },
    "drift_point": {"arm": (str,), "queries": (int,), "accuracy": NUMBER},
    "staleness": {
        "crafted_at": (int,),
        "evaluated_at": (int,),
        "adv_accuracy": NUMBER,
    },
    "registry_load": {
        "model": (str,),
        "task": (str,),
        "preset": (str,),
        "quant": (bool,),
        "load_ms": NUMBER,
        "cold": (bool,),
    },
    "serve_batch": {
        "model": (str,),
        "size": (int,),
        "queue_depth": (int,),
        "wait_us": NUMBER,
        "infer_us": NUMBER,
        "lane": (int,),
    },
    "serve_reject": {"model": (str,), "reason": (str,), "queued": (int,)},
    "request_trace": {
        "trace_id": (str,),
        "model": (str,),
        "batch_id": (int,),
        "queued_us": NUMBER,
        "infer_us": NUMBER,
        "total_us": NUMBER,
    },
    "slo_violation": {
        "tenant": (str,),
        "objective": (str,),
        "burn_rate": NUMBER,
        "budget_remaining": NUMBER,
        "window": (int,),
    },
    "anomaly": {
        "signal": (str,),
        "value": NUMBER,
        "baseline": NUMBER,
        "zscore": NUMBER,
    },
    "metrics_scrape": {"transport": (str,), "series": (int,), "bytes": (int,)},
    "serve_stats": {
        "requests": (int,),
        "batches": (int,),
        "rejected": (int,),
        "batching_efficiency": NUMBER,
        "p50_us": NUMBER,
        "p99_us": NUMBER,
    },
    "log": {"message": (str,)},
}

#: keys every manifest must carry.
MANIFEST_REQUIRED = ("run_id", "command", "status", "numpy", "python", "timestamp")

#: fields every profile row must carry.
PROFILE_ROW_REQUIRED = ("path", "count", "total_s", "self_s")


def _check_field(record: dict, name: str, types: tuple) -> str | None:
    if name not in record:
        return f"missing field {name!r}"
    value = record[name]
    if isinstance(value, bool) and bool not in types:
        return f"field {name!r} must be {types}, got bool"
    if not isinstance(value, types):
        return f"field {name!r} must be {types}, got {type(value).__name__}"
    return None


def validate_event(record: dict) -> list[str]:
    """Structural errors of one decoded event record (empty = valid)."""
    errors = []
    problem = _check_field(record, "t", NUMBER)
    if problem:
        errors.append(problem)
    event_type = record.get("type")
    if not isinstance(event_type, str):
        return errors + ["missing or non-string 'type'"]
    schema = EVENT_SCHEMAS.get(event_type)
    if schema is None:
        return errors + [f"unknown event type {event_type!r}"]
    for name, types in schema.items():
        problem = _check_field(record, name, types)
        if problem:
            errors.append(problem)
    if event_type == "profile":
        for i, row in enumerate(record.get("spans", [])):
            if not isinstance(row, dict) or any(
                key not in row for key in PROFILE_ROW_REQUIRED
            ):
                errors.append(f"profile span row {i} missing {PROFILE_ROW_REQUIRED}")
    return errors


def validate_run(run_dir: Path | str) -> list[str]:
    """All schema violations of one run directory (empty = valid)."""
    run_dir = Path(run_dir)
    errors: list[str] = []
    try:
        manifest = read_manifest(run_dir)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    for key in MANIFEST_REQUIRED:
        if key not in manifest:
            errors.append(f"manifest missing key {key!r}")
    try:
        events, partial = read_events(run_dir)
    except OSError as exc:
        return errors + [f"events unreadable: {exc}"]
    if partial:
        errors.append(f"{partial} undecodable (truncated?) JSONL line(s)")
    if not events:
        errors.append("empty event log")
    for index, record in enumerate(events):
        for problem in validate_event(record):
            errors.append(f"event {index} ({record.get('type')!r}): {problem}")
    types = {record.get("type") for record in events}
    for required in ("run_start", "profile", "metrics", "run_end"):
        if required not in types:
            errors.append(f"no {required!r} event in log")
    return errors
