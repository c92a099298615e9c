"""One cold set-up, in a fresh process: import, service start, first jobs.

``run.py`` launches this script several times and times each launch from
the outside, so interpreter start and cold imports count.  It prints one
JSON line with its own split of the time.

    python3 perfbench/setup_probe.py --workload interactive_maxcut --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time

START = time.perf_counter()

if __package__ in (None, ""):
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent))

from perfbench.common import clock, pin_blas_threads, use_repo_sources  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    pin_blas_threads()
    use_repo_sources()
    import repro  # noqa: F401
    import repro.services  # noqa: F401

    imported = clock()
    if args.workload == "serving_mix":
        from perfbench import serving_mix, workloads

        events = workloads.serving_events(args.seed, 64)
        first = {}
        for event in events:
            first.setdefault(event.jobs[0].kind, event)
        with serving_mix.make_service() as service:
            started = clock()
            for event in first.values():
                bundles = [job.build() for job in event.jobs]
                if len(bundles) > 1:
                    service.submit_many(bundles)
                else:
                    service.submit(bundles[0])
            tickets = service.drain()
        failed = sum(1 for t in tickets if t.exception() is not None)
    else:
        from perfbench import closed_loop

        started = clock()
        jobs = closed_loop.setup_jobs(args.workload, args.seed)
        outcomes = [closed_loop.run_job(job) for job in jobs]
        failed = sum(1 for o in outcomes if o.error)
    finished = clock()
    print(json.dumps({
        "import_s": imported - START,
        "prepare_s": started - imported,
        "first_jobs_s": finished - started,
        "failed": failed,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
