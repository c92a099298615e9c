"""Correctness checks of the benchmark's outputs, run outside the timed windows.

Each check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

from typing import Dict, List

#: The paper's expected-cut window for the 4-cycle at the default angles.
PAPER_WINDOW = (3.0, 3.2)
#: Largest total-variation distance the noisy canary's sampled histogram may
#: have from the density engine's exact distribution.  The canary has 64
#: outcomes and 8192 shots, so sampling alone gives about 0.035.
NOISY_TVD_LIMIT = 0.07
NOISY_CANARY_SHOTS = 8192


def paper_canary() -> List[str]:
    """``cycle(4)`` at the default angles lands in the paper's 3.0-3.2 window.

    The gate path runs on the density engine with deterministic
    apportionment of 2**20 shots, so the expected cut is exact up to the
    apportionment's rounding (allowed: 1e-6); the default angles sit on the
    window's lower edge, where a sampled estimate would straddle it.
    """
    from repro.problems import MaxCutProblem
    from repro.workflows import default_gate_context, solve_maxcut

    problem = MaxCutProblem.cycle(4)
    context = default_gate_context(problem, samples=1 << 20)
    context.exec.options["trajectory_engine"] = "density"
    context.exec.options["density_sampling"] = "deterministic"
    solution = solve_maxcut(problem, formulation="qaoa", context=context)
    lo, hi = PAPER_WINDOW
    if not (lo - 1e-6 <= solution.expected_cut <= hi):
        return [f"paper canary: expected cut {solution.expected_cut:.6f} outside {PAPER_WINDOW}"]
    return []


def best_cut(problem, decoded) -> float:
    """The largest cut among the decoded assignments."""
    return max(problem.cut_value(o.bits) for o in decoded.single().outcomes)


class OptimumCache:
    """``MaxCutProblem.brute_force`` once per distinct instance."""

    def __init__(self) -> None:
        self._by_id: Dict[int, float] = {}

    def __call__(self, problem) -> float:
        key = id(problem)
        if key not in self._by_id:
            self._by_id[key] = problem.brute_force()[0]
        return self._by_id[key]


def anneal_optimum(outcomes, optimum: OptimumCache) -> List[str]:
    """Every anneal job's best decoded cut equals the exhaustive optimum."""
    failures = []
    for outcome in outcomes:
        if outcome.kind != "anneal" or outcome.error:
            continue
        found = best_cut(outcome.job.problem, outcome.decoded)
        expected = optimum(outcome.job.problem)
        if abs(found - expected) > 1e-9:
            failures.append(f"{outcome.job.name}: best cut {found} != optimum {expected}")
    return failures


def total_variation(counts: Dict[str, int], probs: Dict[str, float]) -> float:
    shots = sum(counts.values())
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - probs.get(k, 0.0)) for k in keys)


def noisy_canary(seed: int) -> List[str]:
    """A 6-node noisy QAOA histogram agrees with the exact density engine."""
    import repro.backends as backends
    from .workloads import NOISE, _rng, qaoa_angles, qaoa_job, regular_like

    rng = _rng(seed, "noisy-canary")
    problem = regular_like(6, rng)
    gammas, betas = qaoa_angles(rng, 2)
    sampled_job = qaoa_job("canary-sampled", problem, gammas, betas,
                           shots=NOISY_CANARY_SHOTS, seed=int(rng.integers(2**31)), noise=NOISE,
                           ring=False)
    sampled = backends.submit(sampled_job.build())
    exact_bundle = sampled_job.build()
    options = exact_bundle.context.exec.options
    options["trajectory_engine"] = "density"
    options["density_sampling"] = "deterministic"
    exact_bundle.context.exec.samples = 1 << 20
    exact = backends.submit(exact_bundle)
    probs = {k: v / exact.counts.shots for k, v in exact.counts.items()}
    tvd = total_variation(dict(sampled.counts.items()), probs)
    if tvd > NOISY_TVD_LIMIT:
        return [f"noisy canary: TVD {tvd:.4f} from the density engine > {NOISY_TVD_LIMIT}"]
    return []
