"""Shared-memory process-parallel execution for analog eval and attacks.

Public surface:

* :func:`~repro.parallel.backend.configure` / the ``--workers N`` CLI
  flag — install a process pool (``0`` = ``cpu_count() - 1``, ``1`` =
  serial).
* :func:`~repro.parallel.backend.parallel_backend` — scoped installation
  for tests and library callers.
* :class:`~repro.parallel.backend.ProcessBackend` — one pool task per
  shard; the executor's FIFO hands the next shard to whichever worker
  goes idle, and results merge by shard index.
* :mod:`~repro.parallel.scheduler` — the canonical shard plan and
  per-shard seed streams that make serial and parallel runs
  bit-identical.
* :mod:`~repro.parallel.shm` — one-copy model sharing over
  ``multiprocessing.shared_memory``.
"""

from repro.parallel.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ShardTask,
    configure,
    get_backend,
    parallel_backend,
    resolve_workers,
    set_backend,
    shutdown,
)
from repro.parallel.scheduler import Shard, plan_shards, shard_seeds

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "Shard",
    "ShardTask",
    "configure",
    "get_backend",
    "parallel_backend",
    "plan_shards",
    "resolve_workers",
    "set_backend",
    "shard_seeds",
    "shutdown",
]
