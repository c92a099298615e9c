"""Persistent process pool for trajectory chunk execution.

The thread-pool chunk executor in :mod:`~repro.simulators.gate.statevector`
is break-even on CPython — the per-chunk Python bookkeeping between the
GIL-releasing NumPy kernels serialises the workers — so real scale-out needs
process-level parallelism.  This module owns that seam:

* a **persistent** ``ProcessPoolExecutor`` (forkserver start method where
  available, spawn otherwise), created on first use and reused across runs
  and jobs, so every worker keeps warm compile caches — the parent ships a
  circuit's :class:`~repro.simulators.gate.fusion.ParametricTemplate` once
  per structure and the workers only re-bind parameters afterwards;
* **one task family for every engine**: the parent's super-chunk plan —
  the same plan the thread executor runs, with a solo run's plan holding
  one super-chunk per standalone chunk — is dealt round-robin into at most
  ``workers`` groups, and :func:`run_chunks` submits one task per group.
  The only engine-specific part is how a worker gets its program and which
  segment runner it calls.  Every ``(job, chunk_id)`` segment carries its
  own ``SeedSequence`` stream and results reassemble per segment slot, so
  seeded counts are **bit-identical** to the thread executor (and to serial
  execution) at every worker count;
* **worker-crash recovery**: a dead worker breaks the whole
  ``ProcessPoolExecutor`` (every unfinished future raises
  ``BrokenProcessPool``), so :func:`run_chunks` collects what completed,
  retires the broken pool, builds a fresh one, and re-dispatches **only the
  lost groups** — each still carrying its original ``(job, chunk_id, size,
  stream)`` segments, so the recovered run re-draws from the same
  ``SeedSequence`` streams and seeded counts stay bit-identical to an
  uncrashed run.  Recovery is budgeted per run
  (:data:`MAX_POOL_REBUILDS`); exhaustion raises the transient
  :class:`~repro.core.errors.WorkerCrashError` for the serving layer's
  retry/degradation ladder.  Reassembly is validated: a chunk slot that was
  never filled raises the typed
  :class:`~repro.core.errors.ChunkReassemblyError` instead of passing
  ``None`` rows downstream.

The pool is generation-tagged and **leased**: callers acquire the current
generation, submit and collect against their leased executor, and release
it afterwards.  Growth (a request for more workers) starts a new generation
immediately but only shuts the old one down once its last lease is
released, so a concurrent in-flight run can never be stranded mid-collect.
A request for fewer workers reuses the existing (larger) generation —
effective parallelism is bounded by the group count, and shrinking would
throw away the workers' warm caches.  ``fork`` is deliberately not used
even where available: the workers must not inherit the parent's BLAS
thread pools or lock state mid-operation.

Deterministic fault injection (:mod:`~repro.simulators.gate.faults`) rides
the task payloads: a :class:`~repro.simulators.gate.faults.FaultPlan` fires
inside the worker immediately before a super-chunk executes, keyed on
``(chunk_id, attempt)`` with the super-chunk id as *chunk_id* — re-dispatched groups carry ``attempt + 1`` so an
injected crash fires once and the recovery runs clean.  Without a plan the
hot path pays one ``is None`` check per chunk.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...core.errors import ChunkReassemblyError, WorkerCrashError

__all__ = [
    "MAX_POOL_REBUILDS",
    "shutdown_worker_pool",
    "worker_pool_info",
    "executor_health",
    "run_chunks",
]

#: Pool rebuilds allowed within one :func:`run_chunks` call before giving up
#: with :class:`WorkerCrashError`.  Two rebuilds tolerate an injected crash
#: plus one genuine flake without letting a deterministically crashing
#: workload spin forever.
MAX_POOL_REBUILDS = 2


class _PoolGeneration:
    """One generation of the worker pool: executor + lease bookkeeping."""

    def __init__(self, executor: ProcessPoolExecutor, workers: int, generation: int):
        self.executor = executor
        self.workers = workers
        self.generation = generation
        self.leases = 0
        self.retired = False


_CURRENT: Optional[_PoolGeneration] = None
_RETIRED: List[_PoolGeneration] = []
_GENERATION = 0
_POOL_LOCK = threading.Lock()
_HEALTH = {"pool_rebuilds": 0, "groups_redispatched": 0, "generations_retired": 0}


def _start_method() -> str:
    """Forkserver where the platform offers it (Linux), spawn otherwise."""
    return (
        "forkserver"
        if "forkserver" in mp.get_all_start_methods()
        else "spawn"
    )


def _new_generation(workers: int) -> _PoolGeneration:
    """Create a fresh pool generation (caller holds ``_POOL_LOCK``)."""
    global _GENERATION
    context = mp.get_context(_start_method())
    if hasattr(context, "set_forkserver_preload"):
        # Fork workers from a server that already imported this package (and
        # with it NumPy): per-worker startup drops from a full interpreter +
        # import chain to a fork.
        context.set_forkserver_preload(["repro.simulators.gate.procpool"])
    _GENERATION += 1
    return _PoolGeneration(
        ProcessPoolExecutor(max_workers=workers, mp_context=context),
        workers,
        _GENERATION,
    )


def _retire_locked(generation: _PoolGeneration) -> Optional[ProcessPoolExecutor]:
    """Mark *generation* retired; return its executor if it can shut down now."""
    generation.retired = True
    _HEALTH["generations_retired"] += 1
    if generation.leases == 0:
        return generation.executor
    _RETIRED.append(generation)
    return None


def _acquire_pool(workers: int) -> _PoolGeneration:
    """Lease the current pool generation, growing it if *workers* exceeds it.

    The returned generation's executor stays valid — even across a
    concurrent grow or crash-triggered replacement — until the matching
    :func:`_release_pool`.
    """
    global _CURRENT
    if workers < 1:
        raise ValueError(f"worker pool size must be >= 1, got {workers!r}")
    to_shutdown: Optional[ProcessPoolExecutor] = None
    with _POOL_LOCK:
        if _CURRENT is None or workers > _CURRENT.workers:
            if _CURRENT is not None:
                to_shutdown = _retire_locked(_CURRENT)
            _CURRENT = _new_generation(workers)
        _CURRENT.leases += 1
        handle = _CURRENT
    if to_shutdown is not None:
        to_shutdown.shutdown(wait=True)
    return handle


def _release_pool(handle: _PoolGeneration) -> None:
    """Release one lease; shut a retired generation down once it drains."""
    to_shutdown: Optional[ProcessPoolExecutor] = None
    with _POOL_LOCK:
        handle.leases -= 1
        if handle.retired and handle.leases == 0:
            if handle in _RETIRED:
                _RETIRED.remove(handle)
            to_shutdown = handle.executor
    if to_shutdown is not None:
        to_shutdown.shutdown(wait=True)


def _replace_broken(handle: _PoolGeneration) -> None:
    """Retire a broken generation so the next acquire builds a fresh pool.

    Idempotent across the threads that may observe the same breakage: only
    the first caller retires the generation and bumps the rebuild counter.
    """
    global _CURRENT
    with _POOL_LOCK:
        if handle.retired:
            return
        _HEALTH["pool_rebuilds"] += 1
        # A broken executor cannot run queued futures, so it is safe to shut
        # down immediately regardless of leases: shutdown on a broken pool
        # only reaps dead processes.
        handle.retired = True
        _HEALTH["generations_retired"] += 1
        if _CURRENT is handle:
            _CURRENT = None
    handle.executor.shutdown(wait=True)


def shutdown_worker_pool() -> None:
    """Tear every generation down (test isolation / interpreter exit)."""
    global _CURRENT
    with _POOL_LOCK:
        doomed = [gen.executor for gen in _RETIRED]
        if _CURRENT is not None:
            doomed.append(_CURRENT.executor)
        _RETIRED.clear()
        _CURRENT = None
    for executor in doomed:
        executor.shutdown(wait=True)


def worker_pool_info() -> Dict[str, int]:
    """Snapshot of the pool state: ``workers`` and ``started``."""
    with _POOL_LOCK:
        return {
            "workers": 0 if _CURRENT is None else _CURRENT.workers,
            "started": int(_CURRENT is not None),
        }


def executor_health() -> Dict[str, int]:
    """Process-lifetime recovery counters.

    ``pool_rebuilds`` (broken pools replaced), ``groups_redispatched``
    (chunk groups re-executed after a crash), ``generations_retired``
    (grow-driven and crash-driven retirements).  Monotonic; serving-level
    per-job accounting uses the per-run recovery dicts returned by
    :func:`run_chunks` instead.
    """
    with _POOL_LOCK:
        return dict(_HEALTH)


atexit.register(shutdown_worker_pool)


def _deal_chunks(
    plan: Sequence[Sequence[tuple]], workers: int
) -> List[List[Tuple[int, Sequence[tuple]]]]:
    """Round-robin ``(chunk_id, segments)`` super-chunks into worker groups.

    The grouping only decides *where* a super-chunk runs; every segment
    keeps its own ``(job, chunk_id, size, stream)`` identity, so dealing,
    crash recovery and reassembly stay bit-identical per job at every
    worker count.
    """
    groups: List[List[Tuple[int, Sequence[tuple]]]] = [[] for _ in range(workers)]
    for chunk_id, segs in enumerate(plan):
        groups[chunk_id % workers].append((chunk_id, segs))
    return [group for group in groups if group]


def _require_complete(slots: Sequence[Optional[Any]]) -> None:
    """Typed guard: every super-chunk slot must have been filled by some group.

    Each slot holds its super-chunk's ``(job, chunk_id, bits)`` rows, and
    every ``(job, chunk_id)`` segment lives in exactly one super-chunk, so a
    full set of slots is a full set of job chunks.
    """
    missing = [chunk_id for chunk_id, rows in enumerate(slots) if rows is None]
    if missing:
        raise ChunkReassemblyError(missing, len(slots))


def _trajectory_runner(circuit, template, noise_model, dtype, gemm_threshold):
    """Batched amplitude engine: bind (or adopt) the program in this worker.

    The parent ships the circuit's parametric template once per structure;
    the worker binds parameters into its own warm compile cache.
    """
    from .fusion import adopt_parametric_template, compile_trajectory_program_cached
    from .statevector import execute_program_segments

    if template is not None:
        adopt_parametric_template(circuit, template)
    program = compile_trajectory_program_cached(
        circuit, noise_model, dtype=np.dtype(dtype)
    )
    return partial(
        execute_program_segments,
        program,
        noise_model=noise_model,
        dtype=dtype,
        gemm_threshold=gemm_threshold,
    )


def _stabilizer_runner(program, noise_model):
    """Stabilizer engine: the parameter-free program ships pre-compiled."""
    from .stabilizer import execute_stabilizer_program_segments

    return partial(execute_stabilizer_program_segments, program, noise_model=noise_model)


#: Per-engine worker setup: how a worker gets its program, and which segment
#: runner it calls.  Everything else about a chunk task is engine-agnostic.
_SEGMENT_RUNNERS = {"batched": _trajectory_runner, "stabilizer": _stabilizer_runner}


def _chunk_task(payload: tuple):
    """Worker-side entry: run one group of super-chunks.

    Returns ``(chunk_id, rows, state)`` per super-chunk, where *rows* are
    its ``(job, chunk_id, bits)`` segment rows and *state* is the last
    trajectory state of the super-chunk named *state_chunk* (``None``
    everywhere else, and whenever no statevector was requested).
    """
    engine, program_args, blas_threads, group, state_chunk, fault_plan, attempt = payload
    from .statevector import run_super_chunk
    from .threads import limit_blas_threads

    run_segments = _SEGMENT_RUNNERS[engine](*program_args)
    guard = (
        limit_blas_threads(blas_threads) if blas_threads is not None else nullcontext()
    )
    done = []
    with guard:
        for chunk_id, segs in group:
            rows, state = run_super_chunk(
                run_segments,
                chunk_id,
                segs,
                final_state=chunk_id == state_chunk,
                fault_plan=fault_plan,
                attempt=attempt,
                executor="process",
            )
            done.append((chunk_id, rows, state))
    return done


def run_chunks(
    engine: str,
    program_args: tuple,
    plan: Sequence[Sequence[tuple]],
    *,
    workers: int,
    blas_threads: Optional[int] = None,
    state_chunk: Optional[int] = None,
    fault_plan=None,
) -> Tuple[List[Tuple[int, int, np.ndarray]], Any, Dict[str, int]]:
    """Execute a super-chunk plan on the process pool.

    *engine* (``"batched"`` or ``"stabilizer"``) and *program_args* tell a
    worker how to get its program and which segment runner to call.  *plan*
    is a list of super-chunks, each a list of ``(job, chunk_id, size,
    stream)`` segments; a solo run's plan has one super-chunk per standalone
    chunk.  Super-chunks are dealt round-robin into at most *workers* groups.
    On a broken pool, completed groups are kept, the pool is rebuilt, and
    only the lost groups re-dispatch (``attempt + 1``) with their original
    streams, up to :data:`MAX_POOL_REBUILDS` rebuilds per run — so recovered
    per-job counts are bit-identical to an uncrashed run.

    Returns ``(rows, state, recovery)``: the flattened ``(job, chunk_id,
    bits)`` rows (completeness-checked per super-chunk slot), the last
    trajectory state of super-chunk *state_chunk* (``None`` unless
    requested), and the run's recovery counters (``pool_rebuilds`` /
    ``groups_redispatched``, both 0 on a clean run).
    """
    workers = max(1, min(int(workers), len(plan)))
    recovery = {"pool_rebuilds": 0, "groups_redispatched": 0}
    slots: List[Optional[List[tuple]]] = [None] * len(plan)
    final_state = None
    pending = [(group, 0) for group in _deal_chunks(plan, workers)]
    while pending:
        handle = _acquire_pool(workers)
        broken = False
        lost: List[Tuple[Any, int]] = []
        try:
            submitted: List[Tuple[Any, Any, int]] = []
            for group, attempt in pending:
                payload = (
                    engine,
                    program_args,
                    blas_threads,
                    group,
                    state_chunk,
                    fault_plan,
                    attempt,
                )
                try:
                    future = handle.executor.submit(_chunk_task, payload)
                except BrokenExecutor:
                    broken = True
                    lost.append((group, attempt + 1))
                    continue
                submitted.append((future, group, attempt))
            for future, group, attempt in submitted:
                try:
                    done = future.result()
                except BrokenExecutor:
                    broken = True
                    lost.append((group, attempt + 1))
                    continue
                for chunk_id, rows, state in done:
                    slots[chunk_id] = rows
                    if state is not None:
                        final_state = state
        finally:
            if broken:
                _replace_broken(handle)
            _release_pool(handle)
        if broken:
            recovery["pool_rebuilds"] += 1
            recovery["groups_redispatched"] += len(lost)
            with _POOL_LOCK:
                _HEALTH["groups_redispatched"] += len(lost)
            if recovery["pool_rebuilds"] > MAX_POOL_REBUILDS:
                raise WorkerCrashError(
                    f"worker pool broke {recovery['pool_rebuilds']} times in one "
                    f"run (budget {MAX_POOL_REBUILDS} rebuilds); "
                    f"{len(lost)} chunk groups unrecovered",
                    rebuilds=recovery["pool_rebuilds"],
                )
        pending = lost
    _require_complete(slots)
    return [row for rows in slots for row in rows], final_state, recovery
