#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the checkout root::

    python3 perfbench/selftest.py

1. The metric names and units ``run.py`` prints match ``BENCHMARK.json``.
2. A short run (``--short``) of every workload finishes with exit code 0
   and a well-formed result line, untraced and traced.
3. Two short runs with the same seed give identical exact metrics:
   accuracies, the clean-logits digest and, on the offline workloads,
   the per-image ``xbar.*`` counts.
4. In a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Metrics that must repeat exactly for a fixed seed.
EXACT_END_TO_END = ("clean_acc", "adv_acc", "ok_share")
EXACT_COUNTS = (
    "xbar.engine_cache_misses",
    "xbar.predictor_calls",
    "xbar.matvec_calls_per_img",
    "xbar.matvec_rows_per_img",
    "xbar.bank_evals_per_img",
    "xbar.int_sat_events",
    "xbar.stream_skip_ratio",
    "xbar.plane_skip_ratio",
    "xbar.row_compaction_ratio",
    "nn.im2col_calls",
)
OFFLINE = ("transfer-int8",)


def check_spec() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(table):
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared) ^ set(table))}")
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {sorted(unknown)}")
    return problems


def short_run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    digest = ""
    for line in lines:
        if line.startswith("stamp "):
            digest = json.loads(line[len("stamp "):])["logits_sha256"]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, digest


def check_result(label: str, code: int, result: dict | None, table) -> list[str]:
    if code != 0 or result is None:
        return [f"{label}: exit {code}, result {result!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if printed != list(table):
        problems.append(f"{label}: printed metrics differ from the declared ones")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    return problems


def check_runs() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, table, exact in (
            (0, run.END_TO_END, EXACT_END_TO_END),
            (1, run.PER_LAYER, EXACT_COUNTS if workload in OFFLINE else ()),
        ):
            label = f"{workload} --trace {trace}"
            first, second = short_run(workload, trace), short_run(workload, trace)
            for attempt in (first, second):
                problems += check_result(label, attempt[0], attempt[1], table)
            if problems:
                continue
            if first[2] != second[2]:
                problems.append(f"{label}: logits digest {first[2]} != {second[2]}")
            for name in exact:
                a, b = (r[1]["metrics"][name]["value"] for r in (first, second))
                if a != b:
                    problems.append(f"{label}: {name} not repeatable ({a} != {b})")
            print(f"ok: {label}", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        code, result, _ = short_run(run.WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result!r}"]
    return []


def main() -> int:
    problems = check_spec()
    problems += check_bare_directory()
    problems += check_runs()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
