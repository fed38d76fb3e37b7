"""Structured sinks: JSONL event log + provenance-stamped run manifest.

Every ``--obs`` run owns one directory under ``artifacts/runs/``::

    artifacts/runs/<run-id>/
        manifest.json   # provenance: command, args, git sha, numpy, ...
        events.jsonl    # one JSON record per line, flushed per record

Crash safety: each event is serialized to a complete line *before*
touching the file and flushed immediately after the single ``write``
call, and the manifest is replaced atomically — so an exception or
Ctrl-C between records never leaves a truncated JSON record behind,
and the tolerant reader skips (and reports) a partial trailing line if
the process dies mid-``write``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Default root for run directories (relative to the working directory).
DEFAULT_RUNS_ROOT = Path("artifacts") / "runs"


def git_sha() -> str | None:
    """Current commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def runtime_stamp(extra: dict | None = None) -> dict:
    """Provenance stamp shared by run manifests and benchmark artifacts.

    The ``scripts/bench_*.py`` benchmarks stamp their ``BENCH_*.json``
    files through this helper so bench points are comparable across
    commits.
    """
    import numpy as np

    stamp = {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        stamp.update(extra)
    return stamp


def _json_default(value):
    """Serialize numpy scalars/arrays and other stragglers."""
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, np.float32)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def new_run_id(command: str) -> str:
    """Unique, sortable run id: timestamp + command + pid."""
    safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in command)
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{safe or 'run'}-{os.getpid()}"


class RunWriter:
    """Owns one run directory: the manifest and the JSONL event log."""

    def __init__(self, run_dir: Path):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.run_dir / "events.jsonl"
        self.manifest_path = self.run_dir / "manifest.json"
        # "w": a re-used directory (e.g. a fixed CI path) starts clean
        # instead of accumulating events across runs.
        self._events = open(self.events_path, "w", encoding="utf-8")
        self._closed = False
        # Serving lanes emit events from several threads; one lock per
        # event keeps JSONL lines whole without buffering.
        self._write_lock = threading.Lock()

    def write_event(self, event_type: str, **payload) -> None:
        if self._closed:
            return
        record = {"t": time.time(), "type": event_type}
        record.update(payload)
        # Serialize the full line first: a serialization error (or an
        # interrupt raised during json.dumps) leaves the log untouched.
        line = json.dumps(record, default=_json_default)
        with self._write_lock:
            if self._closed:
                return
            self._events.write(line + "\n")
            self._events.flush()

    def write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(manifest, indent=2, default=_json_default) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.manifest_path)

    def close(self) -> None:
        if not self._closed:
            self._events.close()
            self._closed = True


def read_manifest(run_dir: Path) -> dict:
    path = Path(run_dir) / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


def read_events(run_dir: Path) -> tuple[list[dict], int]:
    """Load every complete JSONL record; returns ``(events, partial)``.

    ``partial`` counts undecodable lines (at most the trailing one for
    a run killed mid-``write``); callers decide whether that is an
    error (the schema validator) or a warning (the summarizer).
    """
    path = Path(run_dir) / "events.jsonl"
    events: list[dict] = []
    partial = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                partial += 1
    return events, partial


def tail_events(
    run_dir: Path | str,
    poll_s: float = 0.25,
    follow: bool = True,
    stop=None,
    max_polls: int | None = None,
):
    """Yield decoded events as they are appended (``tail -f`` semantics).

    Poll + seek over ``events.jsonl``: remembers the byte offset of the
    last *complete* line, so a record caught mid-``write`` is re-read
    whole on the next poll instead of surfacing truncated.  With
    ``follow=False`` yields what exists and returns; otherwise polls
    every ``poll_s`` seconds until ``stop()`` returns true (or
    ``max_polls`` empty polls elapse, for tests), tolerating the file
    not existing yet — a live server creates it after the watcher
    starts.
    """
    path = Path(run_dir) / "events.jsonl"
    offset = 0
    empty_polls = 0
    while True:
        if path.is_file():
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            yielded = False
            while True:
                newline = chunk.find(b"\n")
                if newline < 0:
                    break
                line = chunk[: newline + 1]
                chunk = chunk[newline + 1 :]
                offset += len(line)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn write: complete line, bad payload
                yielded = True
                yield record
            empty_polls = 0 if yielded else empty_polls + 1
        else:
            empty_polls += 1
        if not follow:
            return
        if stop is not None and stop():
            return
        if max_polls is not None and empty_polls >= max_polls:
            return
        time.sleep(poll_s)


def list_runs(root: Path | None = None) -> list[Path]:
    """Run directories under ``root``, newest first."""
    root = Path(root) if root is not None else DEFAULT_RUNS_ROOT
    if not root.is_dir():
        return []
    runs = [p for p in root.iterdir() if (p / "manifest.json").is_file()]
    return sorted(runs, key=lambda p: p.stat().st_mtime, reverse=True)


def resolve_run_dir(spec: str | None, root: Path | None = None) -> Path:
    """Map a CLI run spec to a run directory.

    ``None`` → the most recent run under ``root``; otherwise an
    explicit path or a run id under ``root``.
    """
    root = Path(root) if root is not None else DEFAULT_RUNS_ROOT
    if spec:
        candidate = Path(spec)
        if (candidate / "manifest.json").is_file():
            return candidate
        candidate = root / spec
        if (candidate / "manifest.json").is_file():
            return candidate
        raise FileNotFoundError(f"no run found for {spec!r} (looked under {root})")
    runs = list_runs(root)
    if not runs:
        raise FileNotFoundError(f"no runs under {root}")
    return runs[0]
