"""Shared helpers of the benchmark: import path, clock, statistics, host block.

The benchmark lives beside the library it measures and imports it from the
repository's ``src/`` tree, so a plain checkout runs with no install step.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: The clock every timing in the benchmark reads.
clock = time.perf_counter


#: Thread-count variables of the BLAS builds numpy may use.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS single-threaded; call before numpy is first imported.

    On the 2-core development host, OpenBLAS's default of one thread per
    core made a noisy 12-node job 1.5-5x slower whenever the host took
    CPU time from the VM, which no bound could absorb.  With one thread
    the same rounds held within a few percent.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library sources)."""


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark definition, ``BENCHMARK.json`` at the checkout root."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0-100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    return a if a == b else a + (b - a) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def sleep_until(deadline: float) -> None:
    """Sleep until ``clock()`` reaches *deadline* (no-op when already past)."""
    left = deadline - clock()
    if left > 0:
        time.sleep(left)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _blas_build() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return {"name": None, "version": None, "config": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def _simd_found() -> List[str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return []
    found = config.get("SIMD Extensions", {}).get("found", [])
    return list(found)


def source_digest() -> str:
    """SHA-256 over the library sources, naming the code that was measured."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """The checkout's commit when it is a git working copy, else ``None``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block() -> Dict[str, object]:
    """Cores, CPU, Python, numpy and BLAS build of the measuring host."""
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "cpu_simd": _simd_found(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def counts_digest(counts_list: Sequence[Dict[str, int]]) -> str:
    """Order-sensitive digest of a sequence of count histograms."""
    sha = hashlib.sha256()
    for counts in counts_list:
        sha.update(json.dumps(sorted(counts.items())).encode())
    return sha.hexdigest()[:16]
