"""Serving workload: one generator into ``JobService``.

Two parts.  Closed-loop rounds give the end-to-end metrics: each round
sends one block of arrivals in one ``submit_many`` call and waits for all of
them.  An open-loop ladder of offered rates follows for the record: the
sustainable rate and, per rate, the jobs sent, succeeded, failed and
refused, how late the generator ran and whether the backlog grew.  Every
part draws on one seeded arrival schedule (bundles renamed per part), so
each served job can be checked against one direct ``submit()`` of its
bundle.  Rounds take successive blocks of it; each rung starts it afresh.

On the ladder the generator sends each arrival when it is due, whether or
not earlier jobs have finished, so the queue can grow.  A job's latency
runs from its due time to the moment the generator's collector sees it
complete, which counts any stall of the generator against the jobs it
delays.  The generator is one process with two threads: the sender (the
caller's thread) and a collector draining ``JobService.as_completed``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import checks, workloads
from .common import clock, counts_digest, percentile, sleep_until
from .tracer import Instrumentation, Recorder, coverage, layer_metrics, queue_spans

WARMUP_EVENTS = 40


@dataclass
class SentJob:
    name: str
    template: Tuple[int, int]  # (event index, job index) of its bundle
    kind: str
    due: float
    ticket: Any = None
    done_at: Optional[float] = None
    error: Optional[str] = None
    refused: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done_at - self.due) * 1000.0


@dataclass
class Phase:
    label: str
    rate: float
    duration: float
    jobs: List[SentJob] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    parts: List["Phase"] = field(default_factory=list)  # the rounds of a pooled phase

    @property
    def ok(self) -> List[SentJob]:
        return [j for j in self.jobs if j.error is None and not j.refused]

    def latencies_ms(self) -> List[float]:
        return [j.latency_ms for j in self.ok]

    def arrival_latencies_ms(self) -> List[float]:
        """Per arrival: due time to its last job's completion.

        A sweep burst is one request of its tenant, done when all its jobs
        are, so it counts once.
        """
        ends: Dict[int, List[float]] = {}
        failed = set()
        for job in self.jobs:
            if job.error is not None or job.refused:
                failed.add(job.template[0])
            else:
                ends.setdefault(job.template[0], []).append(job.latency_ms)
        return [max(v) for k, v in ends.items() if k not in failed]

    def p99_ms(self) -> float:
        """p99 latency, counting failed and refused jobs as infinitely late."""
        lat = self.latencies_ms() + [math.inf] * (len(self.jobs) - len(self.ok))
        return percentile(lat, 99.0) if lat else math.inf

    def slo_met_share(self) -> float:
        limit = workloads.SLO_MS
        return sum(1 for j in self.ok if j.latency_ms <= limit) / len(self.jobs)

    def backlog_growing(self) -> bool:
        """The queue rose by more than one objective period's arrivals.

        Compares the mean backlog seen at sends in the last quarter of the
        phase with the first quarter.  A rise larger than the jobs offered
        in ``SLO_MS`` means the service is falling behind the offered rate.
        """
        n = len(self.backlog)
        if n < 8:
            return False
        head = self.backlog[: n // 4]
        tail = self.backlog[-(n // 4):]
        rise = sum(tail) / len(tail) - sum(head) / len(head)
        return rise > self.rate * workloads.SLO_MS / 1000.0

    def passes(self) -> bool:
        return self.p99_ms() <= workloads.SLO_MS and not self.backlog_growing()

    def summary(self) -> Dict[str, Any]:
        lat = self.latencies_ms()
        arrivals = self.arrival_latencies_ms()
        return {
            "rate_jobs_per_s": self.rate if math.isfinite(self.rate) else None,
            "duration_s": self.duration,
            "sent": len(self.jobs),
            "succeeded": len(self.ok),
            "failed": sum(1 for j in self.jobs if j.error is not None and not j.refused),
            "refused": sum(1 for j in self.jobs if j.refused),
            "latency_p50_ms": percentile(lat, 50.0) if lat else None,
            "latency_p90_ms": percentile(lat, 90.0) if lat else None,
            "latency_p99_ms": percentile(lat, 99.0) if lat else None,
            "arrivals": len(arrivals),
            "arrival_latency_p50_ms": percentile(arrivals, 50.0) if arrivals else None,
            "arrival_latency_p90_ms": percentile(arrivals, 90.0) if arrivals else None,
            "arrival_latency_p99_ms": percentile(arrivals, 99.0) if arrivals else None,
            "slo_met_share": self.slo_met_share(),
            "backlog_growing": self.backlog_growing(),
            "passes": self.passes(),
            "generator_late_p50_ms": percentile(self.lateness_ms, 50.0),
            "generator_late_p99_ms": percentile(self.lateness_ms, 99.0),
            "generator_late_max_ms": max(self.lateness_ms),
            "backlog_max": max(self.backlog),
            "service_stats": self.stats,
        }


#: Execution lanes: the service's default.  Lane threads share one
#: interpreter lock; on the 2-core development host a second lane left the
#: sustainable rate where it was (about 230-270 jobs/s either way).
LANES = 1


def make_service():
    """``JobService`` with the default lane over the paper's two backends."""
    from repro.services import JobService
    from repro.services.scheduler import CostAwareScheduler

    return JobService(
        lanes=LANES, scheduler=CostAwareScheduler(engines=list(workloads.SERVING_FLEET))
    )


#: Arrivals per closed-loop round: one block of the mix.
BLOCK = len(workloads.SERVING_BLOCK)
#: Shortest round the arrivals are generated for.  A round took about
#: 0.16 s on the 2-core development host; rounds stop early if a host
#: three times faster uses up the arrivals.
MIN_ROUND_S = 0.05


def make_events(seed: int, seconds: float):
    """Enough seeded arrivals for the warm-up, every round and the longest rung.

    Round *r* sends block *r* after the warm-up's arrivals, so no round
    resends a bundle.  The ladder's rungs replay the schedule from its start.
    """
    rounds_s, rung = phase_durations(seconds)
    block_jobs = sum(len(e.jobs) for e in workloads.serving_events(seed, 1)[:BLOCK])
    rounds = WARMUP_EVENTS // BLOCK + math.ceil(rounds_s / MIN_ROUND_S)
    need = max(block_jobs * rounds, max(workloads.SERVING_LADDER) * rung)
    return workloads.serving_events(seed, int(need) + workloads.BURST_SIZE + 1)


def phase_durations(seconds: float) -> Tuple[float, float]:
    """Half the run in closed-loop rounds, the other half split over the ladder rungs."""
    return seconds / 2.0, seconds / 2.0 / len(workloads.SERVING_LADDER)


class Templates:
    """The bundles of each event, built through the public API on request.

    :meth:`build` packages a stretch of events before it is sent, so no
    bundle is built inside a timed window; indexing an event that was not
    built is an error.
    """

    def __init__(self, events) -> None:
        self.events = events
        self._bundles: Dict[int, List[Any]] = {}

    def build(self, start: int, stop: int) -> None:
        for index in range(start, min(stop, len(self.events))):
            if index not in self._bundles:
                self._bundles[index] = [job.build() for job in self.events[index].jobs]

    def __getitem__(self, index: int) -> List[Any]:
        return self._bundles[index]


def schedule(events, rate: float, duration: float, first: int = 0,
             count: Optional[int] = None) -> List[Tuple[int, float]]:
    """``(event index, offset)`` of the arrivals due within *duration* at *rate*.

    The schedule starts at event *first*; with *count* it holds exactly that
    many arrivals whatever the duration.
    """
    due = []
    offset = 0.0
    for index in range(first, len(events)):
        if (offset >= duration if count is None else len(due) == count):
            break
        due.append((index, offset))
        offset += len(events[index].jobs) / rate
    return due


def run_phase(service, events, templates, rate: float, duration: float, label: str,
              first: int = 0, count: Optional[int] = None, at_once: bool = False) -> Phase:
    """Send the arrivals due within *duration* at *rate* jobs/s; wait for all.

    Arrivals start at event *first*; *count* fixes their number instead.
    With *at_once* every arrival goes in one ``submit_many`` call.

    Once every job has settled, the results are decoded as a client would,
    outside the timed window: the client shares this process with the
    service, so decoding inside the window would slow the service itself.
    """
    from repro.core.errors import ServiceError

    phase = Phase(label, rate, duration)
    done_at: Dict[str, float] = {}
    sent_count = [0]
    finished = threading.Event()
    nudge = threading.Event()

    def collect() -> None:
        while True:
            try:
                for ticket in service.as_completed(timeout=0.05):
                    done_at[ticket.name] = clock()
            except TimeoutError:
                continue
            if finished.is_set() and len(done_at) >= sent_count[0]:
                return
            nudge.wait(0.01)
            nudge.clear()

    collector = threading.Thread(target=collect, name="bench-collector", daemon=True)
    collector.start()
    arrivals = schedule(events, rate, duration, first, count)
    sends = [arrivals] if at_once else [[arrival] for arrival in arrivals]
    t0 = clock() + 0.005
    for send in sends:
        due = t0 + send[0][1]
        bundles, batch = [], []
        for index, offset in send:
            for j, bundle in enumerate(templates[index]):
                bundles.append(dataclasses.replace(bundle, name=f"{label}/{bundle.name}"))
                batch.append(
                    SentJob(bundles[-1].name, (index, j), events[index].jobs[j].kind, t0 + offset)
                )
        sleep_until(due)
        phase.lateness_ms.append((clock() - due) * 1000.0)
        try:
            if len(bundles) > 1:
                tickets = service.submit_many(bundles)
            else:
                tickets = [service.submit(bundles[0])]
        except ServiceError as exc:
            for sent in batch:
                sent.refused = True
                sent.error = f"{type(exc).__name__}: {exc}"
        else:
            for sent, ticket in zip(batch, tickets):
                sent.ticket = ticket
            sent_count[0] += len(tickets)
            nudge.set()
        phase.jobs.extend(batch)
        phase.backlog.append(sent_count[0] - len(done_at))
    finished.set()
    nudge.set()
    collector.join(timeout=120.0)
    if collector.is_alive():
        raise RuntimeError(f"phase {label}: jobs still outstanding after 120 s")
    for sent in phase.jobs:
        if sent.ticket is None:
            continue
        sent.done_at = done_at[sent.name]
        exc = sent.ticket.exception()
        if exc is not None:
            sent.error = f"{type(exc).__name__}: {exc}"
            continue
        try:
            sent.ticket.result().decoded()
        except Exception as exc:  # noqa: BLE001 - a failed decode is a failed job
            sent.error = f"{type(exc).__name__}: {exc}"
    return phase


def warm_up(service, events, templates) -> None:
    """Every arrival kind once through the service, so caches are warm."""
    templates.build(0, WARMUP_EVENTS)
    run_phase(service, events[:WARMUP_EVENTS], templates,
              rate=1000.0, duration=1.0, label="warm")


def sustainable_rate(phases: List[Phase]) -> float:
    """Highest offered rate meeting the objective without a growing backlog.

    *phases* run at rising rates (the ladder's rungs).  The knee is the
    first phase that fails (p99 over the limit, or a growing backlog) and is
    followed by another failure; a failure followed by a pass is taken as a
    stall of the host, not a limit of the service.  Between the knee and the
    phase below it, the rate is interpolated where the p99 latency crosses
    the limit, linearly in log latency, so the figure moves smoothly with
    capacity instead of jumping a whole rung.  When even the first phase
    fails, its rate is scaled by limit / p99.
    """
    limit = math.log(workloads.SLO_MS)

    def log_p99(phase: Phase) -> float:
        p99 = phase.p99_ms()
        if phase.backlog_growing():
            p99 = max(p99, workloads.SLO_MS * 1.01)
        return math.log(min(max(p99, 1e-3), 1e9))

    failed = [not phase.passes() for phase in phases]
    for k, phase in enumerate(phases):
        if not failed[k] or (k + 1 < len(phases) and not failed[k + 1]):
            continue
        if k == 0:
            return phase.rate * math.exp(limit - log_p99(phase))
        below = min(log_p99(phases[k - 1]), limit)
        frac = (limit - below) / (log_p99(phase) - below)
        return phases[k - 1].rate + frac * (phase.rate - phases[k - 1].rate)
    return phases[-1].rate


def served_checks(phases: List[Phase], events, templates) -> List[str]:
    """Served counts equal a direct ``submit()``; anneal optimum; digest."""
    import repro.backends as backends

    direct: Dict[Tuple[int, int], Any] = {}
    failures: List[str] = []
    optimum = checks.OptimumCache()
    for phase in phases:
        for sent in phase.ok:
            if sent.template not in direct:
                i, j = sent.template
                direct[sent.template] = backends.submit(templates[i][j])
            result = sent.ticket.result()
            if dict(result.counts.items()) != dict(direct[sent.template].counts.items()):
                failures.append(f"{sent.name}: served counts differ from a direct submit()")
            if sent.kind == "anneal":
                problem = events[sent.template[0]].jobs[sent.template[1]].problem
                found = checks.best_cut(problem, result.decoded())
                if abs(found - optimum(problem)) > 1e-9:
                    failures.append(f"{sent.name}: best cut {found} != optimum")
    return failures


def default_fleet_probe(events, templates) -> Dict[str, Any]:
    """One anneal bundle through ``JobService`` on the scheduler's default fleet.

    The benchmark's own service is limited to ``workloads.SERVING_FLEET``.
    This probe shows what a default service does with the same bundle: the
    engine the scheduler chose and whether the served counts equal a direct
    ``submit()``.  It is reported in the record, not counted as a check.
    """
    import repro.backends as backends
    from repro.services import JobService

    i, j = next(
        (i, j) for i, event in enumerate(events)
        for j, job in enumerate(event.jobs) if job.kind == "anneal"
    )
    bundle = dataclasses.replace(templates[i][j], name=f"fleet/{templates[i][j].name}")
    with JobService() as service:
        ticket = service.submit(bundle)
        served = dict(ticket.result().counts.items())
    direct = dict(backends.submit(bundle).counts.items())
    return {
        "bundle": bundle.name,
        "requested_engine": bundle.context.exec.engine,
        "chosen_engine": ticket.engine,
        "counts_match_direct_submit": served == direct,
    }


def phase_digest(phase: Phase) -> str:
    ordered = sorted(phase.ok, key=lambda s: s.template)
    return counts_digest([dict(s.ticket.result().counts.items()) for s in ordered])


def pooled(label: str, parts: List[Phase]) -> Phase:
    """One phase holding the jobs and samples of *parts* (all at one rate)."""
    phase = Phase(label, parts[0].rate, sum(p.duration for p in parts), parts=list(parts))
    for part in parts:
        phase.jobs += part.jobs
        phase.lateness_ms += part.lateness_ms
        phase.backlog += part.backlog
        for key, value in part.stats.items():
            phase.stats[key] = phase.stats.get(key, 0) + value
    return phase


def measured(service, events, templates, rate: float, duration: float, label: str,
             first: int = 0, count: Optional[int] = None, at_once: bool = False) -> Phase:
    """:func:`run_phase` plus the service counters it moved."""
    before = service.stats()
    phase = run_phase(service, events, templates, rate, duration, label, first, count, at_once)
    after = service.stats()
    phase.stats = {k: after[k] - before[k] for k in after}
    return phase


def run_rounds(service, events, templates, label: str, seconds: Optional[float] = None,
               limit: Optional[int] = None) -> Phase:
    """Closed-loop rounds: build one block of arrivals, send it at once, wait for all.

    Round *r* sends the block after the warm-up's arrivals and *r* blocks
    on, until *seconds* elapsed, *limit* rounds ran or the arrivals ran out.
    The client builds a round's bundles before sending them, so building
    counts against *seconds* but not against any job's latency.  A round is
    one ``submit_many`` call, so the whole block reaches the dispatcher as
    one unit and is grouped the same way every time; sent one by one, the
    groups depended on when the dispatcher woke, and latency spread by a
    fifth between runs.  Every arrival is due when the round starts, so its
    latency includes its wait behind the groups run before it.
    """
    rounds: List[Phase] = []
    start = clock()
    while (limit is None or len(rounds) < limit) and (
        seconds is None or clock() - start < seconds
    ):
        first = WARMUP_EVENTS + len(rounds) * BLOCK
        if first + BLOCK > len(events):
            break
        templates.build(first, first + BLOCK)
        rounds.append(measured(service, events, templates, math.inf, 0.0,
                               f"{label}{len(rounds)}", first, BLOCK, at_once=True))
    return pooled(label, rounds)


def round_walls_s(rounds: Phase) -> List[float]:
    """Each round's wall time: from its send to the completion of its last job."""
    return [
        max(j.done_at for j in part.ok) - min(j.due for j in part.jobs) for part in rounds.parts
    ]


def timed(seed: int, seconds: float):
    """The timed run: closed-loop rounds, then the open-loop ladder.

    The ladder stops after two failing rungs in a row, where
    :func:`sustainable_rate` has found its knee.  Returns the pooled rounds
    and the rungs run.
    """
    events = make_events(seed, seconds)
    templates = Templates(events)
    rounds_s, rung_s = phase_durations(seconds)
    with make_service() as service:
        warm_up(service, events, templates)
        rounds = run_rounds(service, events, templates, "round", seconds=rounds_s)
        templates.build(0, len(schedule(events, max(workloads.SERVING_LADDER), rung_s)))
        rungs: List[Phase] = []
        for k, rate in enumerate(workloads.SERVING_LADDER):
            rungs.append(measured(service, events, templates, rate, rung_s, f"rung{k}"))
            if len(rungs) >= 2 and not (rungs[-1].passes() or rungs[-2].passes()):
                break  # the knee is found; higher rates only queue longer
    return events, templates, rounds, rungs


def end_to_end(rounds: Phase) -> Dict[str, float]:
    """Latency and throughput of the closed-loop rounds.

    Latency is per job, from its round's send to its completion: a run has
    about 30 rounds but over a thousand jobs, so the p90 rests on a hundred
    samples beyond it.  Throughput is jobs over the summed round walls.
    """
    latencies = rounds.latencies_ms()
    return {
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_p90_ms": percentile(latencies, 90.0),
        "jobs_per_s": len(rounds.ok) / sum(round_walls_s(rounds)),
    }


def traced(seed: int, seconds: float):
    """Untraced then traced closed-loop rounds over the same arrivals."""
    from repro.simulators.gate.fusion import clear_compile_caches, compile_cache_info

    events = make_events(seed, seconds)
    templates = Templates(events)
    with make_service() as service:
        clear_compile_caches()
        warm_up(service, events, templates)
        plain = run_rounds(service, events, templates, "plain", seconds=seconds / 2)
    # The traced pass builds its own bundles, inside the instrumentation.
    templates = Templates(events)
    recorder = Recorder()
    clear_compile_caches()
    with make_service() as service:
        warm_up(service, events, templates)
        with Instrumentation(recorder):
            before_caches = compile_cache_info()
            before = service.stats()
            spanned = run_rounds(service, events, templates, "traced", limit=len(plain.parts))
            after = service.stats()
            after_caches = compile_cache_info()
    queue_spans(recorder)
    metrics = layer_metrics(
        recorder, len(spanned.jobs), before_caches, after_caches, before, after
    )
    plain_ms = sum(plain.latencies_ms())
    traced_ms = sum(spanned.latencies_ms())
    metrics["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    metrics["trace.coverage_share"] = coverage(
        recorder, {j.name: (j.due, j.done_at) for j in spanned.ok}
    )
    return events, templates, plain, spanned, metrics, recorder
