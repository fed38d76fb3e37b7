"""Conformance-report structures for the verification catalog.

A run of the catalog produces one :class:`ConformanceReport`: one
:class:`CheckResult` per invariant/differential check, plus enough
environment detail (seed, compiled-kernel availability)
to reproduce a failure.  The report serializes to JSON under
``artifacts/`` so CI runs leave a machine-readable trail.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CheckResult:
    """Outcome of one named check from the catalog."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    seconds: float = 0.0
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "details": self.details,
        }


@dataclass
class ConformanceReport:
    """All check results from one ``repro verify`` run."""

    seed: int
    quick: bool
    ckernels: bool
    results: list[CheckResult] = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def record(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    @property
    def counts(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "quick": self.quick,
            "ckernels": self.ckernels,
            "seconds": round(time.time() - self.started, 3),
            "counts": self.counts,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.results],
        }

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def summary(self) -> str:
        c = self.counts
        lines = [
            f"verification catalog: {c['pass']} passed, {c['fail']} failed, "
            f"{c['skip']} skipped (seed={self.seed}, "
            f"ckernels={'on' if self.ckernels else 'off'})"
        ]
        for r in self.results:
            if r.status == "fail":
                lines.append(f"  FAIL {r.name}: {r.details}")
            elif r.status == "skip":
                lines.append(f"  skip {r.name}: {r.details}")
        return "\n".join(lines)
