"""Set-up and timed phases of the benchmark workloads.

Every workload runs cifar10 ResNet-20 from the committed model zoo on
crossbar preset ``32x32_100k`` with the committed GENIEx surrogate.
The model, GENIEx and programming seeds are fixed: they define the
system under test.  The workload seed only picks the evaluated images,
their order and the serving arrival schedule.

* ``transfer-int8`` -- Table III non-adaptive cell on the int8 path: PGD
  crafted on the digital victim, clean and adversarial eval on int8
  hardware at batch 64, and single-image queries on that hardware.
* ``serve-open`` -- open-loop Poisson arrivals into an in-process
  ``AnalogServer`` with a float (``fp``) and an int8 (``q``) tenant,
  ``ServeConfig()`` defaults and ``LiveTelemetry`` on.  Half of the
  request images are transfer-adversarial.

Timings are medians over many windows of one run; see README.md for
what each metric means on each workload.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.attacks import base as attacks_base
from repro.attacks.pgd import PGD
from repro.serve import AnalogServer, LiveTelemetry, ModelRegistry, ServeConfig, TenantSpec
from repro.serve.server import ServeError, ServerOverloaded
from repro.train.zoo import ModelZoo
from repro.verify.contracts import AttackContractViolation, assert_attack_contract
from repro.xbar import presets, simulator
from repro.xbar.engine_cache import DISK_CACHE_ENV, ENGINE_CACHE, clear_engine_cache
from repro.xbar.perf import perf_report, reset_perf
from repro.xbar.quant import QuantConfig, with_quant

TASK = "cifar10"
PRESET = "32x32_100k"
CALIBRATION_IMAGES = 16
#: L-inf budget of every attack (effective units, images in [0, 1]).
EPSILON = 2.0 / 255.0
#: Engines a cold ``convert_to_hardware`` of ResNet-20 must program.
ENGINES_PER_MODEL = 22
#: Serving rate ladder (req/s), its reference rate, and the p90 limit
#: that decides goodput.  The reference rate keeps the lane about a third
#: busy; at 5 req/s (over half busy) queueing amplified host drift and
#: the p90 spread over seeds reached 0.2-0.4.  The middle rung keeps the
#: lane about 40% busy, so it meets the limit even on a host running at
#: 1.7x its uncontended time; at 10 req/s its p90 reached the limit.
SERVE_RATES = (3.0, 6.0, 80.0)
SERVE_REFERENCE_RPS = 3.0
SERVE_P90_LIMIT_MS = 1000.0
#: Latencies are read at this percentile of their windows or requests,
#: counted from the fast end.  The serving lane shares the host's cores
#: with an asyncio loop and the server's threads; when a neighbour takes
#: a core, their medians slow more than a single-threaded probe shows,
#: while their fast decile tracks it (see README.md).
FAST_PERCENTILE = 10
#: Seconds one HostProbe takes when the host runs at nominal speed: its
#: median on the uncontended 2-vCPU Xeon (2.0 GHz) host the benchmark
#: was tuned on.  Window timings are scaled to this host speed.
PROBE_NOMINAL_S = 0.003
#: Probes taken on either side of each open-loop part of the serving
#: ladder.
PROBE_BURST = 5
#: Shares of the offline repeat time per window kind.
OFFLINE_SHARES = {"eval": 0.5, "attack": 0.25, "query": 0.25}


@dataclass(frozen=True)
class Sizes:
    """Work per run; ``short`` is the self-test size."""

    setup_repeats: int = 3
    transfer_images: int = 64
    transfer_pool: int = 68
    craft_iterations: int = 10
    craft_batch: int = 16
    eval_batch: int = 64
    serve_images: int = 16
    serve_craft_batch: int = 4
    serve_recraft_s: float = 3.0
    #: At least this many requests at the reference rate, so that ten
    #: lie beyond its p90.
    serve_min_requests: int = 100
    #: The reference rung runs in this many open-loop parts, each timed
    #: between host-probe bursts, with attack windows between them.
    serve_reference_parts: int = 12
    #: Requests of the other ladder rungs: 5 s at 6 req/s, 1 s at
    #: 80 req/s.  The overload rung leaves a backlog whose wait fails the
    #: latency limit (p90 1.9-3.8 s over ten runs); at 40 req/s for 2 s
    #: its p90 sometimes met the limit and goodput jumped between rungs.
    #: Should the backlog pass ServeConfig's queue limit of 64, the load
    #: shed only costs the rung its goodput.
    serve_probe_seconds: float = 5.0
    serve_overload_seconds: float = 1.0

    @classmethod
    def short(cls) -> "Sizes":
        return cls(
            setup_repeats=1,
            transfer_images=8, transfer_pool=12, craft_iterations=2, craft_batch=8,
            eval_batch=8, serve_images=4, serve_craft_batch=4, serve_recraft_s=0.0,
            serve_min_requests=12, serve_reference_parts=2, serve_probe_seconds=1.0,
            serve_overload_seconds=0.25,
        )


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    #: Diagnostics for the stamp line (window counts, ladder p90s).
    notes: dict = field(default_factory=dict)
    phase_cpu_s: float = 0.0
    phase_wall_s: float = 0.0
    #: Tracer mark at the end of the timed work (before untimed checks).
    phase_end: int | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.append(message)
        self.failed += count


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def pick(seed: int, pool: int, count: int, salt: int = 0) -> np.ndarray:
    """The seed's image subset of the first ``pool`` test images, in order."""
    rng = np.random.default_rng([seed, salt])
    return rng.permutation(pool)[:count]


def batches(n: int, size: int):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def logits_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class HostProbe:
    """A fixed reference workload that shares no code with ``repro``.

    The host runs at different speeds from minute to minute: a neighbour
    on the same machine slows everything by up to 1.7x, for seconds or
    for whole runs.  The probe is timed right before and right after
    each timed window; the window's time divided by the probe's time is
    its cost in host-speed units, which the host's speed leaves alone and
    a change to the program moves.  Set-ups and the open-loop parts of the
    serving ladder are bracketed the same way.  Its three parts are the kinds of
    work a forward pass is made of: a BLAS matmul, interpreted Python
    and small numpy calls.  One probe takes about 3 ms.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((192, 192)).astype(np.float32)
        self._b = rng.standard_normal((192, 192)).astype(np.float32)
        self._small = [rng.standard_normal(64).astype(np.float32) for _ in range(3)]
        self._table = {i: i for i in range(1000)}
        #: Seconds of every probe taken.
        self.samples: list[float] = []
        # Warm-up: the first matmul of a process sets up BLAS.
        self()
        self.samples.clear()

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            self._a @ self._b
        total = 0
        for i in range(12000):
            total += self._table[i % 1000]
        a, b, c = self._small
        for _ in range(250):
            (a * b + c).reshape(8, 8).sum(axis=0).argmax()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def timed(self, call, probes: int = 1):
        """Run ``call()`` between probes.

        Returns its result, its seconds, and its seconds at nominal host
        speed (``PROBE_NOMINAL_S`` per probe).
        """
        before = [self() for _ in range(probes)]
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        after = [self() for _ in range(probes)]
        return result, elapsed, elapsed * PROBE_NOMINAL_S / median(before + after)

    def burst(self) -> float:
        """Median seconds of ``PROBE_BURST`` probes in a row."""
        return median(self() for _ in range(PROBE_BURST))


HOST = HostProbe()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class _Lab:
    """The ``HardwareLab`` surface ``ModelRegistry`` needs, preloaded."""

    def __init__(self, entry, geniex):
        self._entry = entry
        self._geniex = geniex

    def victim(self, task: str):
        return self._entry.model

    def geniex(self, preset: str):
        return self._geniex

    def calibration_images(self, task: str) -> np.ndarray:
        return self._entry.task.x_train[:CALIBRATION_IMAGES]


@dataclass
class System:
    """Everything a timed phase runs on."""

    entry: object
    hardware: dict  # name -> converted model
    registry: ModelRegistry | None = None


def bring_up(workload: str, artifacts: Path, cache_dir: Path) -> tuple[System, int]:
    """One cold set-up: zoo, GENIEx, conversion, calibration (, registry).

    ``cache_dir`` must be a fresh empty directory; it becomes the
    engine cache's disk tier and the in-process tier is cleared, so
    every engine is programmed from scratch.  Returns the system and
    the engine-cache misses it paid.
    """
    os.environ[DISK_CACHE_ENV] = str(cache_dir)
    clear_engine_cache()
    entry = ModelZoo(cache_dir=artifacts).get_classifier(TASK)
    config = presets.crossbar_preset(PRESET)
    geniex = presets.load_or_train_geniex(config, cache_dir=artifacts)
    calibration = entry.task.x_train[:CALIBRATION_IMAGES]
    if workload == "serve-open":
        registry = ModelRegistry(_Lab(entry, geniex))
        registry.register(TenantSpec(name="fp", task=TASK, preset=PRESET))
        registry.register(TenantSpec(name="q", task=TASK, preset=PRESET, quant=True))
        registry.load_all()
        hardware = {name: registry.model(name).model for name in registry.names()}
        system = System(entry, hardware, registry)
    else:
        if workload == "transfer-int8":
            config = with_quant(config, QuantConfig(mode="int8"))
        hardware = simulator.convert_to_hardware(
            entry.model, config, predictor=geniex, calibration_images=calibration
        )
        system = System(entry, {workload: hardware})
    return system, ENGINE_CACHE.stats.misses


def setup(workload: str, artifacts: Path, work_dir: Path, repeats: int, tracer=None):
    """Set up ``repeats`` times; returns the last system and per-rep data.

    Each repetition's seconds come raw and at nominal host speed.
    """
    seconds, nominal, misses, layer_reps = [], [], [], []
    system = None
    for k in range(repeats):
        system = None
        gc.collect()
        cache_dir = work_dir / f"engine-cache-{k}"
        cache_dir.mkdir(parents=True)
        mark = tracer.mark() if tracer is not None else 0
        (system, missed), elapsed, at_nominal = HOST.timed(
            partial(bring_up, workload, artifacts, cache_dir), probes=3
        )
        seconds.append(elapsed)
        nominal.append(at_nominal)
        misses.append(missed / len(system.hardware))
        if tracer is not None:
            layer_reps.append(tracer.layer_times(mark))
    return system, seconds, nominal, misses, layer_reps


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
class Windows:
    """Timed windows of one phase, with their work counts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, list[float]] = {}
        #: The same windows' seconds at nominal host speed.
        self.nominal: dict[str, list[float]] = {}
        self.work: dict[str, list[float]] = {}
        #: ``(kind, work, call, first_output)`` of every first-pass window.
        self.jobs: list[tuple] = []

    def time(self, kind: str, work: float, call):
        """Time ``call()`` as one window of ``kind``.

        The previous window's garbage (autograd graphs hold reference
        cycles) is collected first, outside the window, so neither the
        window's time nor the peak RSS depends on when the cyclic
        collector happens to run.  Host probes bracket the window, outside
        its span.
        """
        gc.collect()

        def window():
            scope = self.tracer.span("bench.window") if self.tracer is not None else nullcontext()
            with scope:
                return call()

        result, elapsed, at_nominal = HOST.timed(window)
        self.seconds.setdefault(kind, []).append(elapsed)
        self.nominal.setdefault(kind, []).append(at_nominal)
        self.work.setdefault(kind, []).append(work)
        return result

    def first(self, kind: str, work: float, call):
        result = self.time(kind, work, call)
        self.jobs.append((kind, work, call, result))
        return result

    def repeat(self, deadline: float, out: Outcome, shares: dict[str, float]) -> None:
        """Re-run first-pass windows until ``deadline``.

        The next window is always of the kind furthest below its share
        of the repeat time, and each kind cycles through its jobs, so
        every kind samples the whole run rather than one stretch of host
        speed.  Each repeat must reproduce its first output bit for bit.
        """
        by_kind: dict[str, list] = {}
        for job in self.jobs:
            by_kind.setdefault(job[0], []).append(job)
        spent = dict.fromkeys(by_kind, 0.0)
        turns = dict.fromkeys(by_kind, 0)
        while by_kind and time.perf_counter() < deadline:
            kind = min(sorted(by_kind), key=lambda k: spent[k] / shares[k])
            jobs = by_kind[kind]
            _, work, call, expected = jobs[turns[kind] % len(jobs)]
            turns[kind] += 1
            result = self.time(kind, work, call)
            spent[kind] += self.seconds[kind][-1]
            out.attempted += 1
            if not np.array_equal(result, expected):
                out.fail(f"repeated {kind} window changed its output")

    def rate(self, kind: str) -> float:
        """Median work per second of the windows of ``kind``, at nominal host speed."""
        return median(w / s for w, s in zip(self.work[kind], self.nominal[kind]))

    def latency_ms(self, kind: str, q: float) -> float:
        """Percentile ``q`` of the windows of ``kind``, at nominal host speed."""
        return percentile(self.nominal[kind], q) * 1e3


def _attack(model, x, y, iterations: int) -> np.ndarray:
    return PGD(EPSILON, iterations=iterations, batch_size=len(x)).generate(model, x, y).x_adv


def _craft(windows: Windows, model, x, y, batch, iterations, out: Outcome):
    """PGD in windows of ``batch`` images; every output must meet the attack contract."""
    x_adv = np.empty_like(x)
    for sl in batches(len(x), batch):
        x_adv[sl] = windows.first(
            "attack", (sl.stop - sl.start) * iterations,
            partial(_attack, model, x[sl], y[sl], iterations),
        )
        out.attempted += 1
        try:
            assert_attack_contract(x_adv[sl], x[sl], EPSILON, label="pgd")
        except AttackContractViolation as exc:
            out.fail(str(exc))
    return x_adv


def _offline(workload, system, seed, sizes, seconds, out, tracer, fill):
    data = system.entry.task
    hw = system.hardware[workload]
    idx = pick(seed, sizes.transfer_pool, sizes.transfer_images)
    x, y = data.x_test[idx], data.y_test[idx]
    iterations = sizes.craft_iterations
    windows = Windows(tracer)
    start = time.perf_counter()
    # Attack and eval windows interleave, one eval batch at a time, so
    # both kinds sample the whole first pass.
    x_adv = np.empty_like(x)
    clean, adv = [], []
    for sl in batches(len(x), sizes.eval_batch):
        x_adv[sl] = _craft(windows, system.entry.model, x[sl], y[sl], sizes.craft_batch,
                           iterations, out)
        for inputs, logits in ((x, clean), (x_adv, adv)):
            logits.append(windows.first(
                "eval", sl.stop - sl.start,
                partial(attacks_base.predict_logits, hw, inputs[sl], sizes.eval_batch),
            ))
    clean, adv = np.concatenate(clean), np.concatenate(adv)
    out.attempted += 2 * len(x)
    # Single-image queries, the way a query-based attacker or a client
    # without batching meets the chip: they carry the call latency.  The
    # int8 kernels skip zero planes, so a query's cost depends on its
    # image; querying every image keeps the mix the same for every seed.
    for i in range(len(x)):
        windows.first("query", 1, partial(attacks_base.predict_logits, hw, x[i:i + 1], 1))
    out.attempted += len(x)
    if fill:
        windows.repeat(start + seconds, out, OFFLINE_SHARES)
    attack_rate, eval_rate = windows.rate("attack"), windows.rate("eval")
    out.digest = logits_digest(clean)
    out.notes["windows"] = {kind: len(secs) for kind, secs in windows.seconds.items()}
    out.notes["window_ms_p10_p50_p90"] = {
        kind: [round(percentile(secs, q) * 1e3, 1) for q in (10, 50, 90)]
        for kind, secs in windows.seconds.items()
    }
    out.metrics.update(
        clean_acc=accuracy(clean, y),
        adv_acc=accuracy(adv, y),
        eval_img_per_s=eval_rate,
        attack_img_iter_per_s=attack_rate,
        call_p10_ms=windows.latency_ms("query", FAST_PERCENTILE),
        # One Table cell per image: the attack plus a clean and an
        # adversarial eval, at this run's measured stage rates.
        goodput_per_s=1.0 / (iterations / attack_rate + 2.0 / eval_rate),
    )


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
@dataclass
class _Served:
    tenant: str
    image: int
    due: float
    late_s: float
    latency_s: float
    result: object  # ServeResult or ServeError
    #: Seconds at nominal host speed per second, from the probes around
    #: the request's open-loop part.
    scale: float = 1.0


async def _one(server, tenant, image_index, image, due, late, loop):
    try:
        result = await server.submit(tenant, image)
    except ServeError as exc:
        result = exc
    return _Served(tenant, image_index, due, late, loop.time() - due, result)


def _schedule(n_images: int, rate: float, count: int, seed: int):
    """Inter-arrival gaps and ``(tenant, image)`` pairs of ``count`` requests.

    Gaps are exponential at stratified quantiles, in seed order: Poisson
    marginals, but every seed offers the same gap mix, so the tail
    latency does not hinge on one schedule's share of short gaps.
    Requests cycle through seed-shuffled rounds that hold every image
    three times for ``fp`` and once for ``q``.  With an even mix the
    median would fall between the float and int8 latency modes and jump
    from run to run; at 3:1 it lies inside the float mode.
    """
    rng = np.random.default_rng([seed, int(rate * 1000)])
    gaps = rng.permutation(-np.log1p(-(np.arange(count) + 0.5) / count) / rate)
    pairs = [
        (tenant, image)
        for tenant, share in (("fp", 3), ("q", 1))
        for image in range(n_images)
        for _ in range(share)
    ]
    rounds = -(-count // len(pairs))
    order = np.concatenate([rng.permutation(len(pairs)) for _ in range(rounds)])[:count]
    return gaps, [pairs[i] for i in order]


async def _open_loop(server, images, gaps, pairs) -> list[_Served]:
    """Submit one open-loop arrival per gap; time each from its due time."""
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.05
    tasks = []
    for offset, (tenant, image_index) in zip(np.cumsum(gaps), pairs):
        due = t0 + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, loop.time() - due)
        tasks.append(asyncio.create_task(
            _one(server, tenant, image_index, images[image_index], due, late, loop)
        ))
    return list(await asyncio.gather(*tasks))


def _rate_ok(records: list[_Served]) -> bool:
    """p90 within the limit, nothing failed, and no growing backlog.

    A growing backlog shows as the last quarter of the requests waiting
    longer than the limit.
    """
    if any(isinstance(r.result, ServeError) for r in records):
        return False
    latencies = [r.latency_s * 1e3 for r in records]
    tail = latencies[-max(1, len(latencies) // 4):]
    return percentile(latencies, 90) <= SERVE_P90_LIMIT_MS and median(tail) <= SERVE_P90_LIMIT_MS


async def _serve_phase(system, images, seed, sizes, seconds, windows: Windows, out: Outcome):
    server = AnalogServer(system.registry, ServeConfig(), telemetry=LiveTelemetry())
    ladder: dict[float, list[_Served]] = {}
    # Each part is timed between probe bursts, like a window.  Seconds
    # each rung ran, summed over its parts: start of the arrival
    # schedule to last answer.  The schedule's gaps add up to the same
    # time for every seed, whichever of them comes first.
    spans: dict[float, float] = {}
    # Attack windows repeat between parts of the ladder, while nothing is
    # in flight, so the attack rate samples the whole run.
    burst_s = sizes.serve_recraft_s / (sizes.serve_reference_parts + len(SERVE_RATES) - 1)
    async with server:
        for rate in SERVE_RATES:
            parts = 1
            if rate == SERVE_REFERENCE_RPS:
                # The reference rung gets the run's time left over by
                # the other rungs and the attack repeats.
                spare = (seconds - sizes.serve_probe_seconds - sizes.serve_overload_seconds
                         - sizes.serve_recraft_s)
                count = max(sizes.serve_min_requests, int(round(rate * spare)))
                parts = sizes.serve_reference_parts
            elif rate == max(SERVE_RATES):
                count = int(round(rate * sizes.serve_overload_seconds))
            else:
                count = int(round(rate * sizes.serve_probe_seconds))
            gaps, pairs = _schedule(len(images), rate, count, seed)
            ladder[rate], spans[rate] = [], 0.0
            for part in np.array_split(np.arange(count), parts):
                before = HOST.burst()
                records = await _open_loop(server, images, gaps[part], [pairs[i] for i in part])
                scale = 2.0 * PROBE_NOMINAL_S / (before + HOST.burst())
                for r in records:
                    r.scale = scale
                ladder[rate] += records
                origin = records[0].due - gaps[part[0]]
                spans[rate] += max(r.due + r.latency_s for r in records) - origin
                windows.repeat(time.perf_counter() + burst_s, out, {"attack": 1.0})
    return ladder, spans, server.stats()


def _serve(system, seed, sizes, seconds, out: Outcome, tracer):
    """Craft the adversarial half of the image pool, then run the rate ladder.

    The pool is the first ``serve_images`` test images and their PGD
    counterparts; the seed draws each request's image and tenant.
    """
    data = system.entry.task
    x, y = data.x_test[: sizes.serve_images], data.y_test[: sizes.serve_images]
    windows = Windows(tracer)
    x_adv = _craft(windows, system.entry.model, x, y, sizes.serve_craft_batch,
                   sizes.craft_iterations, out)
    images = np.concatenate([x, x_adv])
    ladder, spans, stats = asyncio.run(
        _serve_phase(system, images, seed, sizes, seconds, windows, out)
    )
    return windows, images, np.concatenate([y, y]), ladder, spans, stats


def _goodput(ladder: dict, spans: dict) -> float:
    """Answers within the limit per second of the highest rung that passes.

    A rung that keeps up scores close to its offered rate; one that
    falls behind scores less, since its last answers come late.
    """
    passing = [rate for rate, records in ladder.items() if _rate_ok(records)]
    if not passing:
        return 0.0
    top = max(passing)
    met = sum(1 for r in ladder[top] if r.latency_s * 1e3 <= SERVE_P90_LIMIT_MS)
    return met / spans[top]


def _check_serve(system, windows, images, labels, ladder, spans, stats, out: Outcome) -> None:
    """Score the served answers and hold them to the pinned-DAC contract."""
    # Every served row must equal a direct forward of the same image.
    reference = {
        name: attacks_base.predict_logits(system.registry.model(name).model, images)
        for name in system.registry.names()
    }
    records = [r for rate in ladder.values() for r in rate]
    served = [r for r in records if not isinstance(r.result, ServeError)]
    # Above the reference rate, shedding load is the server doing its
    # job: it disqualifies that rung for goodput (see _rate_ok) but is
    # neither a failure nor an attempted operation.
    shed = sum(
        1 for rate, recs in ladder.items() if rate != SERVE_REFERENCE_RPS
        for r in recs if isinstance(r.result, ServerOverloaded)
    )
    out.attempted += len(records) - shed
    rejected = len(records) - len(served) - shed
    if rejected:
        out.fail(f"{rejected} request(s) failed or were rejected", rejected)
    out.notes["shed_above_reference"] = shed
    mismatched = sum(
        1 for r in served
        if r.result.logits.tobytes() != reference[r.tenant][r.image].tobytes()
    )
    if mismatched:
        out.fail(f"{mismatched} served row(s) differ from predict_logits", mismatched)
    clean_count = len(images) // 2
    out.digest = logits_digest(*(reference[name][:clean_count] for name in sorted(reference)))

    def served_accuracy(adversarial: bool) -> float:
        # Every served row equals its reference row (checked above), so
        # score the tenants' answers over the whole pool: exact, and
        # independent of which requests the schedule happened to draw.
        part = slice(clean_count, None) if adversarial else slice(None, clean_count)
        return float(np.mean([
            accuracy(reference[name][part], labels[part]) for name in sorted(reference)
        ]))

    ref = [r.latency_s * 1e3 for r in ladder[SERVE_REFERENCE_RPS]]
    # Reference-rate latencies per tenant, raw and at nominal host speed.
    by_tenant: dict[str, list[float]] = {}
    nominal_by_tenant: dict[str, list[float]] = {}
    for r in ladder[SERVE_REFERENCE_RPS]:
        by_tenant.setdefault(r.tenant, []).append(r.latency_s * 1e3)
        nominal_by_tenant.setdefault(r.tenant, []).append(r.latency_s * r.scale * 1e3)
    # Batch inference time of the requests at the reference rate: the
    # overload rung's large batches would make the mix depend on how
    # far it got.
    answered = [r for r in ladder[SERVE_REFERENCE_RPS] if not isinstance(r.result, ServeError)]
    at_reference = [r.result for r in answered]
    infer_s = sum(r.result.infer_us * r.scale / r.result.batch_size for r in answered) / 1e6
    out.metrics.update(
        clean_acc=served_accuracy(False),
        adv_acc=served_accuracy(True),
        eval_img_per_s=len(at_reference) / infer_s,
        attack_img_iter_per_s=windows.rate("attack"),
        # Per tenant, then averaged: the float and int8 tenants form two
        # latency modes, and a percentile of their mix jumps between them.
        call_p10_ms=float(np.mean([
            percentile(lat, FAST_PERCENTILE) for lat in nominal_by_tenant.values()
        ])),
        goodput_per_s=_goodput(ladder, spans),
    )
    out.notes["part_scale_min_median_max"] = [
        round(f(r.scale for r in ladder[SERVE_REFERENCE_RPS]), 3) for f in (min, median, max)
    ]
    out.notes["p90_ms_by_rate"] = {
        rate: round(percentile([r.latency_s * 1e3 for r in recs], 90), 1)
        for rate, recs in ladder.items()
    }
    out.notes["reference_ms_p10_p50_p90"] = [round(percentile(ref, q), 1) for q in (10, 50, 90)]
    out.notes["reference_ms_by_tenant"] = {
        tenant: [round(percentile(lat, q), 1) for q in (10, 50, 90)]
        for tenant, lat in sorted(by_tenant.items())
    }
    queued = [result.queued_us / 1e3 for result in at_reference]
    infer = [result.infer_us / 1e3 for result in at_reference]
    out.layers.update({
        "serve.queue_wait_ms.p50": percentile(queued, 50),
        "serve.queue_wait_ms.p90": percentile(queued, 90),
        "serve.infer_ms.p50": percentile(infer, 50),
        "serve.infer_ms.p90": percentile(infer, 90),
        "serve.batch_size_mean": float(stats.batch_size.get("mean", 0.0)),
        "serve.batches": stats.batches,
        "serve.rejected": stats.rejected,
        "serve.gen_late_ms.p90": percentile([r.late_s * 1e3 for r in records], 90),
    })


def timed_phase(workload, system, seed, sizes, seconds, out: Outcome, tracer=None, fill=True):
    """Run the workload's timed phase once, then its untimed checks."""
    for model in system.hardware.values():
        reset_perf(model)
    wall, cpu = time.perf_counter(), time.process_time()
    if workload == "serve-open":
        served = _serve(system, seed, sizes, seconds, out, tracer)
    else:
        _offline(workload, system, seed, sizes, seconds, out, tracer, fill)
    out.phase_wall_s = time.perf_counter() - wall
    out.phase_cpu_s = time.process_time() - cpu
    out.phase_end = tracer.mark() if tracer is not None else None
    if workload == "serve-open":
        _check_serve(system, *served, out)


def perf_totals(system) -> dict:
    """Summed ``PerfCounters`` over the system's hardware models."""
    totals: dict = {}
    for model in system.hardware.values():
        for key, value in perf_report(model).total.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals
