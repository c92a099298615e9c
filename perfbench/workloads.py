"""Seeded inputs of the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same graphs, angles, shot seeds and arrival schedule.  Bundles are
built through the library's public bundle constructors, looked up as attributes
(``maxcut_wf.build_qaoa_bundle``, ``bundle_mod.package``) so the traced run's
wrappers see them.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Interactive: node counts of the instance pool and the formulations' budgets.
POOL_SIZES = tuple(range(4, 11))
#: Share of rounds that draw a never-seen graph (transpile cache misses).  An
#: assumed share: no trace of real use was available to set it.
FRESH_SHARE = 0.15
GATE_SHOTS = 1024
ANNEAL_READS = 64
ANNEAL_SWEEPS = 64

#: Noisy trajectory: sizes, depth, shots and noise rates.
NOISY_SIZES = (10, 12)
NOISY_SHOTS = 512
NOISY_P = 2
NOISE = {"oneq_error": 0.001, "twoq_error": 0.01, "readout_error": 0.02}


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(stream.encode())])
    )


def regular_like(n: int, rng: np.random.Generator):
    """A random 3-regular graph on *n* nodes (one node fewer for odd *n*)."""
    import networkx as nx
    from repro.problems import MaxCutProblem

    m = n if n % 2 == 0 else n + 1
    graph = nx.random_regular_graph(3, m, seed=int(rng.integers(2**31)))
    if m != n:
        graph.remove_node(m - 1)
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    return MaxCutProblem.from_edges(edges)


def cycle(n: int):
    from repro.problems import MaxCutProblem

    return MaxCutProblem.cycle(n)


def qaoa_angles(rng: np.random.Generator, p: int) -> Tuple[List[float], List[float]]:
    gammas = [float(x) for x in rng.uniform(-math.pi / 4, -0.05, size=p)]
    betas = [float(x) for x in rng.uniform(0.05, math.pi / 4, size=p)]
    return gammas, betas


# -- jobs ------------------------------------------------------------------------


@dataclass
class Job:
    """One user job: a name, a kind, and the call that packages its bundle."""

    name: str
    kind: str
    build: Callable[[], object]
    problem: object = None  # MaxCutProblem of maxcut jobs (for the checks)
    shots: int = 0


def qaoa_job(name: str, problem, gammas, betas, *, shots: int, seed: int,
             noise: Optional[Dict[str, float]] = None, kind: str = "gate",
             ring: bool = True) -> Job:
    """A QAOA job on the paper's gate context (``sx,rz,cx`` basis).

    With *ring* the target is the paper's ring coupling map; without it the
    device is all-to-all, so no SWAPs are routed and the circuit's cost
    depends on the edge count only, not on how the graph meets the ring.
    """
    import repro.workflows.maxcut as maxcut_wf

    def build():
        context = maxcut_wf.default_gate_context(problem, samples=shots, seed=seed)
        if not ring:
            context.exec.target.coupling_map = None
        if noise:
            context.exec.options["noise"] = dict(noise)
        return maxcut_wf.build_qaoa_bundle(
            problem, gammas=gammas, betas=betas, context=context, name=name
        )

    return Job(name, kind, build, problem, shots)


def anneal_job(name: str, problem, *, seed: int, reads: int = ANNEAL_READS,
               sweeps: int = ANNEAL_SWEEPS) -> Job:
    """An Ising-formulation job on the simulated annealer with a cut-down budget."""
    import repro.workflows.maxcut as maxcut_wf

    def build():
        context = maxcut_wf.default_anneal_context(
            num_reads=reads, num_sweeps=sweeps, seed=seed
        )
        return maxcut_wf.build_anneal_bundle(problem, context=context, name=name)

    return Job(name, "anneal", build, problem, reads)


def qft_job(name: str, width: int, *, shots: int, seed: int) -> Job:
    import repro.core.bundle as bundle_mod
    from repro.core import ContextDescriptor, ExecPolicy, phase_register
    from repro.oplib import measurement, qft_operator

    def build():
        reg = phase_register("p", width)
        context = ContextDescriptor(
            exec=ExecPolicy(engine="gate.aer_simulator", samples=shots, seed=seed)
        )
        return bundle_mod.package(
            reg, [qft_operator(reg, do_swaps=True), measurement(reg)], context, name=name
        )

    return Job(name, "qft", build, None, shots)


def qec_job(name: str, distance: int, rounds: int, *, shots: int, seed: int) -> Job:
    """A repetition-code memory job; ``"auto"`` routes it to the stabilizer engine."""
    import repro.core.bundle as bundle_mod
    from repro.core import ContextDescriptor, ExecPolicy
    from repro.oplib import repetition_memory_operator, repetition_register

    def build():
        reg = repetition_register("patch", distance)
        context = ContextDescriptor(
            exec=ExecPolicy(
                engine="gate.aer_simulator",
                samples=shots,
                seed=seed,
                options={
                    "trajectory_engine": "auto",
                    "noise": {"oneq_error": 1e-3, "twoq_error": 2e-3},
                },
            )
        )
        return bundle_mod.package(
            reg, [repetition_memory_operator(reg, distance, rounds=rounds)], context, name=name
        )

    return Job(name, "qec", build, None, shots)


# -- interactive_maxcut -------------------------------------------------------------


def interactive_pool(seed: int):
    """The instance pool: a cycle and a 3-regular-like graph per node count."""
    rng = _rng(seed, "pool")
    pool = []
    for n in POOL_SIZES:
        pool.append((f"c{n}", cycle(n)))
        pool.append((f"r{n}", regular_like(n, rng)))
    return pool


def interactive_rounds(seed: int, prefix: str = "im") -> Iterator[List[Job]]:
    """Endless closed-loop rounds: one instance, solved in both formulations."""
    pool = interactive_pool(seed)
    rng = _rng(seed, "rounds")
    index = 0
    while True:
        if rng.random() < FRESH_SHARE:
            n = int(rng.choice(POOL_SIZES))
            problem = regular_like(n, rng)
        else:
            problem = pool[int(rng.integers(len(pool)))][1]
        p = int(rng.integers(1, 3))
        gammas, betas = qaoa_angles(rng, p)
        job_seed = int(rng.integers(2**31))
        yield [
            qaoa_job(f"{prefix}-{index}-qaoa", problem, gammas, betas,
                     shots=GATE_SHOTS, seed=job_seed),
            anneal_job(f"{prefix}-{index}-ising", problem, seed=job_seed + 1),
        ]
        index += 1


def interactive_warmup(seed: int) -> Iterator[List[Job]]:
    """One round per pool structure and QAOA depth, to fill the caches."""
    rng = _rng(seed, "warmup")
    for label, problem in interactive_pool(seed):
        for p in (1, 2):
            gammas, betas = qaoa_angles(rng, p)
            yield [
                qaoa_job(f"warm-{label}-{p}-qaoa", problem, gammas, betas,
                         shots=GATE_SHOTS, seed=int(rng.integers(2**31))),
                anneal_job(f"warm-{label}-{p}-ising", problem, seed=int(rng.integers(2**31))),
            ]


# -- noisy_trajectory -------------------------------------------------------------


def noisy_problems(seed: int):
    rng = _rng(seed, "noisy-graphs")
    return [regular_like(n, rng) for n in NOISY_SIZES]


def noisy_rounds(
    seed: int, prefix: str = "nt", stream: str = "noisy-rounds"
) -> Iterator[List[Job]]:
    """Endless rounds of one 10-node and one 12-node noisy QAOA job.

    The graphs depend on *seed* alone; angles and shot seeds on *stream* too.
    """
    problems = noisy_problems(seed)
    rng = _rng(seed, stream)
    index = 0
    while True:
        jobs = []
        for problem in problems:
            gammas, betas = qaoa_angles(rng, NOISY_P)
            jobs.append(
                qaoa_job(f"{prefix}-{index}-n{problem.num_nodes}", problem, gammas, betas,
                         shots=NOISY_SHOTS, seed=int(rng.integers(2**31)), noise=NOISE,
                         ring=False)
            )
        yield jobs
        index += 1


# -- serving_mix -----------------------------------------------------------------------

#: Offered rates of the open-loop ladder, in jobs/s.
SERVING_LADDER = (160.0, 185.0, 215.0, 250.0, 290.0, 335.0, 390.0)
#: Engines the service places jobs on: the paper's gate and annealing
#: backends.  The scheduler's default fleet also holds ``exact.brute_force``,
#: which it picks for every anneal job this small, so no served job would
#: reach the annealer and served counts would not match a direct submit().
SERVING_FLEET = ("gate.aer_simulator", "anneal.simulated_annealer")
#: The service-level objective: 99% of jobs sent finish within this many ms.
SLO_MS = 500.0
SLO_SHARE = 0.99
SERVING_SHOTS = 512
BURST_SIZE = 6


@dataclass
class Event:
    """One arrival: a single job, or a sweep burst sent through ``submit_many``."""

    jobs: List[Job]


#: One block of arrivals, repeated: every stretch of the schedule carries
#: the same mix in the same order whatever the seed, with the bursts spread
#: out.  6 QAOA, 4 QFT, 3 anneal, 3 QEC and 4 bursts, so 24 of a block's 40
#: jobs are burst members and 16 are singles.  Two QFT and two QEC singles
#: per block repeat a circuit of the same block, so 28 of 40 jobs are
#: merge-eligible.  The mix is an assumption, not a measured trace: bursts
#: are there because without them almost no job merges at light load.
SERVING_BLOCK = (
    "qaoa", "qft", "burst", "qec", "qaoa", "anneal", "qft", "qaoa", "burst", "qec",
    "qaoa", "anneal", "qft", "burst", "qaoa", "qec", "anneal", "qft", "qaoa", "burst",
)


def serving_events(seed: int, min_jobs: int) -> List[Event]:
    """Seeded arrivals from a few tenants, at least *min_jobs* jobs in all.

    The seed draws the angles and shot seeds; kinds, graphs and sizes
    cycle in a fixed order, so the work offered per second is the same for
    every seed.  Every QAOA single and every burst draws fresh angles, so a
    burst's jobs share one circuit and differ only in seed, and a QAOA
    single shares its circuit with no other job.
    """
    rng = _rng(seed, "serving")
    # The tenants' graphs are the same for every seed, so the work per
    # block (and the service's capacity) does not depend on the seed.
    fixed = _rng(0, "serving-graphs")
    graphs = [regular_like(n, fixed) for n in (4, 6, 8)] + [cycle(n) for n in (4, 5, 6)]
    turn = {kind: 0 for kind in SERVING_BLOCK}
    events: List[Event] = []
    jobs_made = 0
    while jobs_made < min_jobs:
        for kind in SERVING_BLOCK:
            k = turn[kind]
            turn[kind] += 1
            name = f"e{len(events)}"
            job_seed = int(rng.integers(2**31))
            problem = graphs[k % len(graphs)]
            gammas, betas = qaoa_angles(rng, 1)
            if kind == "qaoa":
                jobs = [qaoa_job(name, problem, gammas, betas, shots=SERVING_SHOTS, seed=job_seed)]
            elif kind == "qft":
                jobs = [qft_job(name, 4 + k % 3, shots=SERVING_SHOTS, seed=job_seed)]
            elif kind == "anneal":
                jobs = [anneal_job(name, problem, seed=job_seed, reads=32, sweeps=48)]
            elif kind == "qec":
                jobs = [qec_job(name, 3, 1 + k % 2, shots=SERVING_SHOTS, seed=job_seed)]
            else:
                jobs = [
                    qaoa_job(f"{name}.{j}", problem, gammas, betas, shots=SERVING_SHOTS,
                             seed=job_seed + j, kind="burst")
                    for j in range(BURST_SIZE)
                ]
            jobs_made += len(jobs)
            events.append(Event(jobs))
    return events
