#!/usr/bin/env python3
"""Repository benchmark: the Table III int8 transfer cell and open-loop serving.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload transfer-int8 --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus a per-layer table and a spans file under
``perfbench/.out/``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.  ``--short`` shrinks the
work for the self-tests.

Each run is one process with one BLAS thread, serial execution
(``workers=1``, ``lanes=1``) and a fresh, empty engine-cache directory
per set-up; scratch files live under ``perfbench/.work/`` and are
removed on exit.  The compiled hot-path kernels are built once into
``perfbench/.build/``.  Nothing under ``artifacts/`` is written.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transfer-int8", "serve-open")

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "fraction"),
    ("clean_acc", "fraction"),
    ("adv_acc", "fraction"),
    ("eval_img_per_s", "img/s"),
    ("attack_img_iter_per_s", "img-iter/s"),
    ("call_p10_ms", "ms"),
    ("goodput_per_s", "1/s"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1.
PER_LAYER = (
    ("train.zoo_load_s", "s"),
    ("xbar.geniex_load_s", "s"),
    ("xbar.convert_s", "s"),
    ("xbar.calibrate_s", "s"),
    ("xbar.engine_cache_misses", "count"),
    ("serve.registry_load_s", "s"),
    ("xbar.predictor_s", "s"),
    ("xbar.predictor_calls", "count"),
    ("xbar.matvec_self_s", "s"),
    ("xbar.matvec_calls_per_img", "count/img"),
    ("xbar.matvec_rows_per_img", "count/img"),
    ("xbar.bank_evals_per_img", "count/img"),
    ("xbar.int_sat_events", "count"),
    ("xbar.stream_skip_ratio", "fraction"),
    ("xbar.plane_skip_ratio", "fraction"),
    ("xbar.row_compaction_ratio", "fraction"),
    ("nn.im2col_s", "s"),
    ("nn.im2col_calls", "count"),
    ("nn.digital_self_s", "s"),
    ("autograd.backward_s", "s"),
    ("attacks.pgd_self_s", "s"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.infer_ms.p50", "ms"),
    ("serve.infer_ms.p90", "ms"),
    ("serve.batch_size_mean", "img"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_late_ms.p90", "ms"),
    ("obs.telemetry_s", "s"),
    ("obs.telemetry_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "fraction"),
)

#: Hardware forwards must spend at least this share of their wall time
#: inside the named stage spans -- the crossbar layers (im2col, matvec
#: with its GENIEx predictor calls, output assembly) and the digital
#: layers -- leaving at most the rest to the model's own glue code and
#: residual adds (the stage-sum check).
MIN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="self-test sized work")
    return parser.parse_args(argv)


def isolate() -> None:
    """Pin the process environment; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # REPRO_ARTIFACTS only locates the compiled-kernel build here: the
    # zoo and GENIEx are read from the committed artifacts/ explicitly.
    os.environ["REPRO_ARTIFACTS"] = str(HERE / ".build")
    sys.path.insert(0, str(ROOT / "src"))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else "unknown"
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_threads() -> int | None:
    """OpenBLAS's live thread count, when numpy bundles scipy-openblas."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def per_layer(workloads, system, out, untraced, layer_reps, misses, tracer, mark, counts):
    """Per-layer metric values of a traced run."""
    median = workloads.median
    spans = tracer.layer_times(mark, out.phase_end)

    def total(name, table=spans):
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    perf = workloads.perf_totals(system)
    images = max(counts.get("hw_images", 0), 1)
    streams = perf["streams_evaluated"] + perf["streams_skipped"]
    planes = perf["planes_evaluated"] + perf["planes_skipped"]
    compactable = perf["rows_compacted"] + counts.get("predictor_rows", 0)
    hw_forward_s = total("nn.hw_forward")
    values = {
        "train.zoo_load_s": median(total("train.zoo_load", r) for r in layer_reps),
        "xbar.geniex_load_s": median(total("xbar.geniex_load", r) for r in layer_reps),
        "xbar.convert_s": median(
            total("xbar.convert", r) - total("xbar.calibrate", r) for r in layer_reps
        ),
        "xbar.calibrate_s": median(total("xbar.calibrate", r) for r in layer_reps),
        "xbar.engine_cache_misses": median(misses),
        "serve.registry_load_s": median(total("serve.registry_load", r) for r in layer_reps),
        "xbar.predictor_s": self_s("xbar.predictor"),
        "xbar.predictor_calls": calls("xbar.predictor"),
        "xbar.matvec_self_s": self_s("xbar.matvec"),
        "xbar.matvec_calls_per_img": perf["matvec_calls"] / images,
        "xbar.matvec_rows_per_img": perf["matvec_rows"] / images,
        "xbar.bank_evals_per_img": perf["bank_evals"] / images,
        "xbar.int_sat_events": perf["int_sat_events"],
        "xbar.stream_skip_ratio": perf["streams_skipped"] / streams if streams else 0.0,
        "xbar.plane_skip_ratio": perf["planes_skipped"] / planes if planes else 0.0,
        "xbar.row_compaction_ratio": perf["rows_compacted"] / compactable if compactable else 0.0,
        "nn.im2col_s": self_s("nn.im2col"),
        "nn.im2col_calls": calls("nn.im2col"),
        # Hardware forward time outside im2col and the matvec.
        "nn.digital_self_s": (
            self_s("nn.hw_forward") + self_s("nn.digital") + self_s("xbar.layer")
        ),
        "autograd.backward_s": self_s("autograd.backward"),
        "attacks.pgd_self_s": self_s("attacks.pgd"),
        "obs.telemetry_s": self_s("obs.telemetry"),
        "obs.telemetry_calls": calls("obs.telemetry"),
        "trace.overhead_ratio": out.phase_cpu_s / untraced.phase_cpu_s,
        "trace.coverage": (
            1.0 - self_s("nn.hw_forward") / hw_forward_s if hw_forward_s else 0.0
        ),
    }
    for name, _unit in PER_LAYER:
        values.setdefault(name, out.layers.get(name, 0.0))
    return values, spans


def print_layer_table(workload: str, spans: dict, phase_wall_s: float) -> None:
    print(f"per-layer self time, traced timed phase of {workload} "
          f"(wall {phase_wall_s:.2f} s):")
    print(f"  {'span':<24} {'calls':>8} {'total s':>9} {'self s':>9} {'self %':>7}")
    for name, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * entry["self_s"] / phase_wall_s if phase_wall_s else 0.0
        print(f"  {name:<24} {entry['calls']:>8d} {entry['total_s']:>9.3f} "
              f"{entry['self_s']:>9.3f} {share:>6.1f}%")


def measure(args, work_dir: Path) -> int:
    import resource

    import workloads
    from tracer import Tracer, install_layer_spans

    from repro.xbar import _ckernels

    load_start = os.getloadavg()
    build_start = time.perf_counter()
    compiled = _ckernels.available()  # builds into perfbench/.build on first use
    build_s = time.perf_counter() - build_start
    import_s = time.perf_counter() - T_START - build_s

    sizes = workloads.Sizes.short() if args.short else workloads.Sizes()
    tracer = Tracer() if args.trace else None
    hardware_ids: set[int] = set()
    counts: dict = {}
    if tracer is not None:
        install_layer_spans(tracer, hardware_ids, counts)
    # A traced run sets up once: it runs the timed phase twice and must
    # stay well inside the 180 s a run may take.
    repeats = 1 if tracer is not None else sizes.setup_repeats
    system, setup_seconds, setup_nominal, misses, layer_reps = workloads.setup(
        args.workload, ROOT / "artifacts", work_dir, repeats, tracer
    )
    hardware_ids.update(
        id(module) for model in system.hardware.values() for _, module in model.named_modules()
    )

    out = workloads.Outcome()
    out.attempted += len(misses)
    for missed in misses:
        if missed != workloads.ENGINES_PER_MODEL:
            out.fail(f"cold set-up missed {missed} engines per model, "
                     f"expected {workloads.ENGINES_PER_MODEL}")
    untraced = None
    if tracer is None:
        workloads.timed_phase(args.workload, system, args.seed, sizes, args.seconds, out)
    else:
        # Same work untraced, then traced: the CPU-time ratio of the two
        # is the tracing overhead.
        tracer.uninstall()
        untraced = workloads.Outcome()
        workloads.timed_phase(args.workload, system, args.seed, sizes, args.seconds,
                              untraced, fill=False)
        install_layer_spans(tracer, hardware_ids, counts)
        counts.clear()
        mark = tracer.mark()
        workloads.timed_phase(args.workload, system, args.seed, sizes, args.seconds,
                              out, tracer=tracer, fill=False)
        tracer.uninstall()
        if untraced.digest != out.digest:
            out.fail("traced and untraced runs produced different logits")

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "compiled_kernels": compiled,
        "build_s": round(build_s, 3),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "logits_sha256": out.digest,
        **out.notes,
        "setup_s_reps": [round(s, 4) for s in setup_seconds],
        "probe_ms_p10_p50_p90": [
            round(workloads.percentile(workloads.HOST.samples, q) * 1e3, 3) for q in (10, 50, 90)
        ],
    }
    if tracer is not None:
        values, spans = per_layer(workloads, system, out, untraced, layer_reps, misses,
                                  tracer, mark, counts)
        if values["trace.coverage"] < MIN_COVERAGE:
            out.fail(f"stage spans cover {values['trace.coverage']:.3f} of the hardware "
                     f"forwards, below {MIN_COVERAGE}")
        print_layer_table(args.workload, spans, out.phase_wall_s)
        print(f"tracing overhead: {values['trace.overhead_ratio']:.3f}x CPU time; "
              f"stage coverage of hardware forwards {values['trace.coverage']:.4f}")
        spans_path = HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        stamp["spans_file"] = spans_path.relative_to(ROOT).as_posix()
        table = PER_LAYER
    else:
        values = dict(out.metrics)
        # Imports, scaled by the host speed of the first set-up, plus
        # the median set-up, all at nominal host speed.
        values["setup_s"] = (import_s * setup_nominal[0] / setup_seconds[0]
                             + workloads.median(setup_nominal))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_share"] = 1.0 - out.failed / max(out.attempted, 1)
        table = END_TO_END
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for message in out.failures:
        print(f"FAILED: {message}")
    correct = out.failed == 0
    result = {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "artifacts").is_dir():
        print(f"error: {ROOT} is not a source checkout (src/repro and artifacts/ "
              "are required)", file=sys.stderr)
        return 2
    isolate()
    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
