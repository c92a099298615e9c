"""The repository's benchmark: one workload, timed or traced, checked.

    python3 perfbench/run.py --workload interactive_maxcut --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``interactive_maxcut`` -- closed loop, direct ``submit()``, each Max-Cut
  instance in both formulations;
* ``noisy_trajectory`` -- closed loop, direct ``submit()``, noisy QAOA on
  10 and 12 nodes;
* ``serving_mix`` -- closed-loop rounds of a traffic block into
  ``JobService``, then an open-loop ladder of offered rates.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it replays the same inputs untraced and traced and reports the
per-layer metrics.  Either way it checks the outputs.  The last line of
standard output is the result object; the line before it is the full run
record (host, seed, commit, per-phase details), which ``--record`` also
writes to a file.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SetupError,
    clock,
    git_commit,
    host_block,
    load_spec,
    median,
    peak_rss_mb,
    pin_blas_threads,
    source_digest,
    use_repo_sources,
)

WORKLOADS = ("interactive_maxcut", "noisy_trajectory", "serving_mix")
SETUP_PROBES = 5


def measure_setup(workload: str, seed: int, probes: int) -> Dict[str, Any]:
    """Median wall time of *probes* cold set-ups, each in a fresh process."""
    walls: List[float] = []
    splits: List[dict] = []
    for _ in range(probes):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(clock() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        splits.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"setup_s": median(walls), "walls_s": walls, "splits": splits}


def run_closed_loop(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import checks, closed_loop

    failures = checks.paper_canary()
    canaries = 1
    if workload == "noisy_trajectory":
        failures += checks.noisy_canary(seed)
        canaries += 1
    if trace:
        plain, spanned, metrics, recorder = closed_loop.traced(workload, seed, seconds)
        failures += closed_loop.check_pass(plain)
        failures += closed_loop.check_pass(spanned)
        if plain.digest() != spanned.digest():
            failures.append("counts digest differs between the untraced and traced pass")
        attempted = len(plain.outcomes) + len(spanned.outcomes) + canaries
        detail = {
            "untraced": closed_loop.details(workload, plain),
            "traced": closed_loop.details(workload, spanned),
            "spans": len(recorder.spans),
            "counters": dict(recorder.counters),
        }
        return metrics, detail, attempted, failures, recorder.spans
    closed_loop.warm_up(workload, seed)
    run = closed_loop.run_pass(closed_loop.rounds(workload, seed, "timed"), seconds=seconds)
    failures += closed_loop.check_pass(run)
    metrics = closed_loop.end_to_end(run)
    detail = closed_loop.details(workload, run)
    return metrics, detail, len(run.outcomes) + canaries, failures, None


def run_serving(seed: int, seconds: float, trace: bool):
    from perfbench import checks, serving_mix

    failures = checks.paper_canary()
    if trace:
        events, templates, plain, spanned, metrics, recorder = serving_mix.traced(seed, seconds)
        failures += serving_mix.served_checks([plain, spanned], events, templates)
        failures += [f"{j.name}: {j.error}" for p in (plain, spanned) for j in p.jobs if j.error]
        if serving_mix.phase_digest(plain) != serving_mix.phase_digest(spanned):
            failures.append("counts digest differs between the untraced and traced phase")
        attempted = len(plain.jobs) + len(spanned.jobs) + 1
        detail = {
            "untraced": plain.summary(),
            "traced": spanned.summary(),
            "spans": len(recorder.spans),
            "counters": dict(recorder.counters),
        }
        return metrics, detail, attempted, failures, recorder.spans
    events, templates, rounds, rungs = serving_mix.timed(seed, seconds)
    phases = [rounds] + rungs
    failures += serving_mix.served_checks(phases, events, templates)
    failures += [f"{j.name}: {j.error}" for p in phases for j in p.jobs if j.error]
    metrics = serving_mix.end_to_end(rounds)
    detail = {
        "lanes": serving_mix.LANES,
        "slo": {"limit_ms": serving_mix.workloads.SLO_MS, "share": serving_mix.workloads.SLO_SHARE},
        "rounds": {**rounds.summary(), "count": len(rounds.parts)},
        "ladder": [p.summary() for p in rungs],
        "sustainable_rate_jobs_per_s": serving_mix.sustainable_rate(rungs),
        "counts_digest": serving_mix.phase_digest(rounds),
        "default_fleet_probe": serving_mix.default_fleet_probe(events, templates),
    }
    return metrics, detail, sum(len(p.jobs) for p in phases) + 1, failures, None


def write_spans(spans, args) -> Path:
    """Write a traced run's spans, one JSON object per line."""
    if args.record is not None:
        path = args.record.with_suffix(".spans.jsonl")
    else:
        path = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the run record here")
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        use_repo_sources()
        spec = load_spec()
    except (SetupError, OSError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    setup = None if trace else measure_setup(args.workload, args.seed, SETUP_PROBES)

    if args.workload == "serving_mix":
        metrics, detail, attempted, failures, spans = run_serving(
            args.seed, args.seconds, trace
        )
    else:
        metrics, detail, attempted, failures, spans = run_closed_loop(
            args.workload, args.seed, args.seconds, trace
        )
    failed = min(len(failures), attempted)
    if not trace:
        metrics["setup_s"] = setup["setup_s"]
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["succeeded_share"] = 1.0 - failed / attempted

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "host": host_block(),
        "setup": setup,
        "detail": detail,
        "metrics": metrics,
        "failures": failures[:50],
        "spans_file": None if spans is None else str(write_spans(spans, args)),
        "result": result,
    }
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
