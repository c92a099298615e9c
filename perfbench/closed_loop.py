"""Closed-loop workloads: one client, direct ``submit()``.

``interactive_maxcut`` and ``noisy_trajectory`` share this loop.  A client
sends its next round only after the previous one returned; a round is the
user's unit of work (one instance solved in both formulations, or one
10-node plus one 12-node noisy job), and each job in it is the user's call
sequence ``build_*_bundle`` -> ``submit()`` -> ``decoded()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from . import checks, workloads
from .common import clock, counts_digest, percentile
from .tracer import Instrumentation, Recorder, coverage, layer_metrics


@dataclass
class Outcome:
    job: workloads.Job
    start: float
    end: float
    result: Any = None
    decoded: Any = None
    error: Optional[str] = None

    @property
    def kind(self) -> str:
        return self.job.kind

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class Pass:
    rounds: List[List[Outcome]]
    wall: float

    @property
    def outcomes(self) -> List[Outcome]:
        return [o for r in self.rounds for o in r]

    def round_latencies_ms(self) -> List[float]:
        return [(r[-1].end - r[0].start) * 1000.0 for r in self.rounds]

    def digest(self) -> str:
        return counts_digest(
            [dict(o.result.counts.items()) if o.result is not None else {} for o in self.outcomes]
        )


def run_job(job: workloads.Job, recorder: Optional[Recorder] = None) -> Outcome:
    """The user's call sequence for one job, timed end to end."""
    import repro.backends as backends

    span = recorder.open("job", job.name) if recorder is not None else None
    start = clock()
    outcome = Outcome(job, start, start)
    try:
        bundle = job.build()
        outcome.result = backends.submit(bundle)
        outcome.decoded = outcome.result.decoded()
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.end = clock()
    if span is not None:
        recorder.close(span)
    return outcome


def run_pass(
    source: Iterable[List[workloads.Job]],
    *,
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Pass:
    """Run rounds back to back until *seconds* elapsed or *limit* rounds ran."""
    done: List[List[Outcome]] = []
    start = clock()
    for jobs in source:
        if limit is not None and len(done) >= limit:
            break
        if seconds is not None and clock() - start >= seconds:
            break
        done.append([run_job(job, recorder) for job in jobs])
    return Pass(done, clock() - start)


def rounds(workload: str, seed: int, prefix: str):
    """The endless seeded rounds of a closed-loop workload."""
    if workload == "interactive_maxcut":
        return workloads.interactive_rounds(seed, prefix)
    return workloads.noisy_rounds(seed, prefix)


def warm_up(workload: str, seed: int) -> None:
    """Fill the caches and finish lazy set-up before anything is timed."""
    if workload == "interactive_maxcut":
        run_pass(workloads.interactive_warmup(seed))
    else:
        run_pass(workloads.noisy_rounds(seed, "warm", stream="noisy-warmup"), limit=1)


def setup_jobs(workload: str, seed: int) -> List[workloads.Job]:
    """The first job of each kind, as a cold process would run them."""
    first = next(iter(rounds(workload, seed, "setup")))
    return first if workload == "interactive_maxcut" else first[:1]


def check_pass(run: Pass) -> List[str]:
    """Failed jobs plus anneal jobs that missed the optimum."""
    failures = [f"{o.job.name}: {o.error}" for o in run.outcomes if o.error]
    failures += checks.anneal_optimum(run.outcomes, checks.OptimumCache())
    return failures


def end_to_end(run: Pass) -> Dict[str, float]:
    latencies = run.round_latencies_ms()
    outcomes = run.outcomes
    failed = sum(1 for o in outcomes if o.error)
    return {
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_p90_ms": percentile(latencies, 90.0),
        "jobs_per_s": (len(outcomes) - failed) / run.wall,
    }


def details(workload: str, run: Pass) -> Dict[str, Any]:
    """Extra facts for the run record: per-kind latency and work rates."""
    kinds: Dict[str, List[float]] = {}
    for o in run.outcomes:
        key = o.kind if workload == "interactive_maxcut" else f"n{o.job.problem.num_nodes}"
        kinds.setdefault(key, []).append(o.latency_ms)
    shots = sum(o.job.shots for o in run.outcomes if not o.error)
    return {
        "rounds": len(run.rounds),
        "jobs": len(run.outcomes),
        "wall_s": run.wall,
        "shots_per_s": shots / run.wall,
        "per_kind": {
            key: {
                "jobs": len(values),
                "p50_ms": percentile(values, 50.0),
                "p90_ms": percentile(values, 90.0),
            }
            for key, values in sorted(kinds.items())
        },
        "counts_digest": run.digest(),
    }


def traced(workload: str, seed: int, seconds: float):
    """Untraced then traced pass over the same rounds; per-layer metrics."""
    from repro.simulators.gate.fusion import clear_compile_caches, compile_cache_info

    # Both passes start from the same warm cache state, so the second does
    # not hit on programs the first compiled.
    clear_compile_caches()
    warm_up(workload, seed)
    plain = run_pass(rounds(workload, seed, "trace"), seconds=seconds / 2)
    clear_compile_caches()
    warm_up(workload, seed)
    recorder = Recorder()
    before = compile_cache_info()
    with Instrumentation(recorder):
        spanned = run_pass(rounds(workload, seed, "trace"), limit=len(plain.rounds),
                           recorder=recorder)
    after = compile_cache_info()
    jobs = len(spanned.outcomes)
    metrics = layer_metrics(recorder, jobs, before, after)
    plain_ms = sum(o.latency_ms for o in plain.outcomes)
    traced_ms = sum(o.latency_ms for o in spanned.outcomes)
    metrics["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    metrics["trace.coverage_share"] = coverage(
        recorder, {o.job.name: (o.start, o.end) for o in spanned.outcomes}
    )
    return plain, spanned, metrics, recorder
