"""Repeat mode: run one workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload serving_mix --runs 10 --first-seed 1

Each run is ``run.py`` in its own process with the next seed; its record is
kept under ``--out``.  For every metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread -- the
interquartile distance as a share of the median -- next to the metric's
bound from ``BENCHMARK.json``.  A spread within a third of the bound is
marked steady.  The summary is printed and written to
``<out>/<workload>-trace<k>-summary.json``; ``diff.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import BENCH_DIR, ROOT, load_spec  # noqa: E402


def summarise(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        row["bound"] = bound
        row["within_bound"] = spread <= bound
        row["steady"] = spread <= bound / 3.0
    return row


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    failed_runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        record = args.out / f"{args.workload}-trace{args.trace}-seed{seed}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--record", str(record)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed_runs.append({"seed": seed, "code": proc.returncode,
                                "stderr": proc.stderr.strip()[-500:]})
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "failed_runs": failed_runs,
        "metrics": {
            name: summarise(vals, bounds.get(name) if args.trace == 0 else None)
            for name, vals in values.items()
            if len(vals) >= 2
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-trace{args.trace}-summary.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, row in summary["metrics"].items():
        bound = row.get("bound")
        flag = "" if bound is None else ("steady" if row["steady"] else
                                         "ok" if row["within_bound"] else "WIDE")
        print(f"{name:34} {row['median']:12.5g} {row['q1']:12.5g} {row['q3']:12.5g} "
              f"{row['spread']:8.3f} {'' if bound is None else bound:>6} {flag}")
    print(f"summary: {path}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
