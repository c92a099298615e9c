"""Outside-in span tracer for the traced benchmark run.

Wrappers go around the public entry points of each layer, rebound where the
callers look them up (a module global such as ``gate_backend.transpile_cached``
or a class attribute such as ``GateBackend.run``).  They are installed only
for the traced pass and restored afterwards; the library is not modified.

A span records its name, start, end, parent span and job id.  Spans nest per
thread, so a span's parent is the innermost span open on the same thread;
spans of one job share the job id (the bundle name), taken from a bundle in
the call's arguments or inherited from the parent.  Spans stay in memory
until the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .common import clock, percentile


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    job: Any
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def _bundle_names(args: tuple, kwargs: dict) -> Any:
    """Job id(s) of a call: the name of a bundle argument, or of a bundle list."""
    from repro.core.bundle import JobBundle

    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, JobBundle):
            return value.name
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], JobBundle):
            names = [b.name for b in value]
            return names[0] if len(names) == 1 else names
    return None


class Recorder:
    """In-memory span store plus the wrapper factory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: Any = None) -> Span:
        """Start a span on this thread (the caller must :meth:`close` it)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(
            span_id=next(self._ids),
            name=name,
            parent=parent.span_id if parent is not None else None,
            job=job,
            thread=threading.get_ident(),
        )
        stack.append(span)
        span.start = clock()
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add_span(self, name: str, job: Any, start: float, end: float) -> None:
        """Record an interval measured elsewhere (a job's queue wait)."""
        span = Span(next(self._ids), name, None, job, threading.get_ident(), start, end)
        with self._lock:
            self.spans.append(span)

    def spanned(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """*fn* wrapped in a span named *name*; *attrs* reads facts off the call."""
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name, _bundle_names(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def inside(self, name: str) -> bool:
        """Whether a span named *name* is open on this thread."""
        return any(span.name == name for span in self._stack())

    def counted(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a call counter (no clock reads).

        Calls made while a ``build`` span is open count under
        ``<name>/build``, the others under *name*.
        """
        recorder = self
        counters = self.counters
        lock = self._lock

        def wrapper(*args, **kwargs):
            key = f"{name}/build" if recorder.inside("build") else name
            with lock:
                counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


# -- span attributes -----------------------------------------------------------------


def _engine_run_attrs(args, kwargs, result) -> Dict[str, Any]:
    shots = kwargs.get("shots", args[2] if len(args) > 2 else 1024)
    return {"shots": int(shots), "chunks": int(result.metadata.get("num_batches") or 1)}


def _engine_merged_attrs(args, kwargs, results) -> Dict[str, Any]:
    specs = kwargs.get("specs", args[2] if len(args) > 2 else ())
    merged = [r.metadata.get("merged") for r in results]
    group_chunks = next((m["merged_chunks"] for m in merged if m), None)
    solo_chunks = sum(
        int(r.metadata.get("num_batches") or 1) for r, m in zip(results, merged) if not m
    )
    return {
        "shots": int(sum(int(s) for s, _ in specs)),
        "chunks": int(group_chunks or 0) + solo_chunks,
    }


def _anneal_attrs(args, kwargs, result) -> Dict[str, Any]:
    bqm = args[1] if len(args) > 1 else kwargs["bqm"]
    reads = kwargs.get("num_reads") or 100
    sweeps = kwargs.get("num_sweeps") or 1000
    return {"spin_updates": int(reads) * int(sweeps) * int(bqm.num_variables)}


def _admit_attrs(args, kwargs, result) -> Dict[str, Any]:
    tickets = result if isinstance(result, list) else [result]
    return {"jobs": len(tickets)}


# -- installation ----------------------------------------------------------------------


class Instrumentation:
    """Install the layer wrappers on enter, restore the originals on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, Any]] = []

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, attrs=None) -> None:
        self._patch(owner, attr, self.recorder.spanned(name, getattr(owner, attr), attrs))

    def __enter__(self) -> "Instrumentation":
        import repro.backends as backends
        import repro.backends.gate_backend as gate_backend
        import repro.backends.runtime as runtime
        import repro.core.bundle as bundle_mod
        import repro.core.context as context_mod
        import repro.core.qdt as qdt_mod
        import repro.core.qod as qod_mod
        import repro.services.serving as serving
        import repro.workflows.maxcut as maxcut_wf
        from repro.backends.anneal_backend import AnnealBackend
        from repro.backends.base import ExecutionResult
        from repro.backends.gate_backend import GateBackend
        from repro.services.scheduler import CostAwareScheduler
        from repro.simulators.anneal.sampler import SimulatedAnnealingSampler
        from repro.simulators.gate.statevector import StatevectorSimulator

        rec = self.recorder
        # Front half: packaging, validation, lowering, transpile, decode.
        self._span(maxcut_wf, "build_qaoa_bundle", "build")
        self._span(maxcut_wf, "build_anneal_bundle", "build")
        self._span(maxcut_wf, "package", "build")
        self._span(bundle_mod, "package", "build")
        self._span(bundle_mod.JobBundle, "validate", "validate")
        for module in (bundle_mod, qdt_mod, qod_mod, context_mod):
            site = f"validate_document@{module.__name__}"
            self._patch(
                module, "validate_document", rec.counted(site, module.validate_document)
            )
        self._span(GateBackend, "build_circuit", "lower")
        self._span(gate_backend, "transpile_cached", "transpile")
        self._span(ExecutionResult, "decoded", "decode")
        # Runtime and backends.
        for owner in (backends, runtime):
            self._span(owner, "submit", "runtime")
        self._span(runtime, "submit_merged", "runtime")
        self._span(serving, "runtime_submit", "runtime")
        self._span(serving, "runtime_submit_merged", "runtime")
        self._span(GateBackend, "run", "backend")
        self._span(GateBackend, "run_merged", "backend")
        self._span(AnnealBackend, "run", "backend")
        # Engines.
        self._span(StatevectorSimulator, "run", "engine", _engine_run_attrs)
        self._span(StatevectorSimulator, "run_merged", "engine", _engine_merged_attrs)
        self._span(SimulatedAnnealingSampler, "sample", "anneal", _anneal_attrs)
        # Serving front door and placement.
        self._span(serving.JobService, "submit", "admit", _admit_attrs)
        self._span(serving.JobService, "submit_many", "admit", _admit_attrs)
        self._span(CostAwareScheduler, "choose_engine", "scheduler")
        self._span(CostAwareScheduler, "schedule", "scheduler")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------------------


def _under(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    """Whether *span* has an ancestor named *name*."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def _top_level(spans: List[Span], name: str, by_id: Dict[int, Span]) -> List[Span]:
    """Spans named *name* with no ancestor of the same name."""
    return [s for s in spans if s.name == name and not _under(s, name, by_id)]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span.span_id: span.duration - child_time.get(span.span_id, 0.0) for span in spans}


def _delta_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    misses += after.get("fallbacks", 0) - before.get("fallbacks", 0)
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(
    recorder: Recorder,
    jobs: int,
    caches_before: Dict[str, Dict[str, int]],
    caches_after: Dict[str, Dict[str, int]],
    stats_before: Optional[Dict[str, int]] = None,
    stats_after: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over *jobs* jobs.

    Every job in the pass is built once and sent once.  Beside the listed
    metrics, the result splits validation into the part done while building
    (``validate.at_build_*``) and the part done after it (``validate.at_run_*``).
    """
    spans = recorder.spans
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    jobs = max(jobs, 1)
    per_job = 1000.0 / jobs

    def total(name: str) -> float:
        return sum(s.duration for s in _top_level(spans, name, by_id))

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    validate = _top_level(spans, "validate", by_id)
    at_build = [s for s in validate if _under(s, "build", by_id)]
    at_run = [s for s in validate if not _under(s, "build", by_id)]
    walks_build = sum(n for k, n in recorder.counters.items() if k.endswith("/build"))
    walks_run = sum(n for k, n in recorder.counters.items() if not k.endswith("/build"))
    split = {
        "validate.at_build_calls_per_job": len(at_build) / jobs,
        "validate.at_run_calls_per_job": len(at_run) / jobs,
        "validate.at_build_walks_per_job": walks_build / jobs,
        "validate.at_run_walks_per_job": walks_run / jobs,
        "validate.at_build_ms_per_job": sum(s.duration for s in at_build) * per_job,
        "validate.at_run_ms_per_job": sum(s.duration for s in at_run) * per_job,
    }

    engine = _top_level(spans, "engine", by_id)
    engine_busy = sum(s.duration for s in engine)
    anneal = _top_level(spans, "anneal", by_id)
    anneal_busy = sum(s.duration for s in anneal)
    waits = [s.duration * 1000.0 for s in spans if s.name == "queue"]
    stats_before = stats_before or {}
    stats_after = stats_after or {}

    def stat(key: str) -> int:
        return stats_after.get(key, 0) - stats_before.get(key, 0)

    groups = stat("groups")
    completed = stat("completed")
    return {
        **split,
        "build.ms_per_job": total("build") * per_job,
        "validate.calls_per_job": len(validate) / jobs,
        "validate.document_walks_per_job": (walks_build + walks_run) / jobs,
        "validate.ms_per_job": sum(s.duration for s in validate) * per_job,
        "lower.calls_per_job": count("lower") / jobs,
        "lower.ms_per_job": total("lower") * per_job,
        "transpile.ms_per_job": total("transpile") * per_job,
        "transpile.hit_ratio": _delta_ratio(caches_before["transpile"], caches_after["transpile"]),
        "compile.template_hit_ratio": _delta_ratio(
            caches_before["template"], caches_after["template"]
        ),
        "compile.program_hit_ratio": _delta_ratio(
            caches_before["program"], caches_after["program"]
        ),
        "backend.self_ms_per_job": sum(selfs[s.span_id] for s in spans if s.name == "backend")
        * per_job,
        "runtime.self_ms_per_job": sum(selfs[s.span_id] for s in spans if s.name == "runtime")
        * per_job,
        "decode.ms_per_job": total("decode") * per_job,
        "engine.busy_ms_per_job": engine_busy * per_job,
        "engine.shots_per_busy_s": sum(s.attrs.get("shots", 0) for s in engine) / engine_busy
        if engine_busy
        else 0.0,
        "engine.chunks_per_job": sum(s.attrs.get("chunks", 0) for s in engine) / jobs,
        "anneal.busy_ms_per_job": anneal_busy * per_job,
        "anneal.spin_updates_per_s": sum(s.attrs.get("spin_updates", 0) for s in anneal)
        / anneal_busy
        if anneal_busy
        else 0.0,
        "serving.admit_ms_per_job": total("admit") * per_job,
        "scheduler.ms_per_job": total("scheduler") * per_job,
        "serving.queue_wait_p50_ms": percentile(waits, 50.0) if waits else 0.0,
        "serving.queue_wait_p99_ms": percentile(waits, 99.0) if waits else 0.0,
        "serving.jobs_per_group": stat("submitted") / groups if groups else 0.0,
        "serving.merged_share": stat("merged_jobs") / completed if completed else 0.0,
        "serving.retries": float(stat("retries")),
        "serving.rejected": float(stat("rejected")),
    }


def queue_spans(recorder: Recorder) -> None:
    """Add one ``queue`` span per served job: admission end to first runtime call."""
    admitted: Dict[str, float] = {}
    started: Dict[str, float] = {}
    for span in recorder.spans:
        names = span.job if isinstance(span.job, list) else [span.job]
        if span.name == "admit":
            for name in names:
                admitted[name] = span.end
        elif span.name == "runtime" and span.parent is None:
            for name in names:
                started[name] = min(started.get(name, span.start), span.start)
    for name, end in admitted.items():
        if name in started:
            recorder.add_span("queue", name, end, started[name])


def coverage(recorder: Recorder, job_walls: Dict[str, Tuple[float, float]]) -> float:
    """Median share of each job's wall interval covered by its spans.

    *job_walls* maps a job id to the ``(start, end)`` the benchmark measured
    for it.  A span counts for a job when it carries the job's id (or a list
    containing it); overlapping spans are merged before summing.
    """
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for span in recorder.spans:
        if span.name == "job":  # the benchmark's own root span
            continue
        names = span.job if isinstance(span.job, list) else [span.job]
        for name in names:
            if name in job_walls:
                intervals.setdefault(name, []).append((span.start, span.end))
    shares = []
    for name, (start, end) in job_walls.items():
        covered = 0.0
        cursor = start
        for lo, hi in sorted(intervals.get(name, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        if end > start:
            shares.append(covered / (end - start))
    return percentile(shares, 50.0) if shares else 0.0
