"""A1 (ablation): what does the descriptor/packaging machinery cost?

The middle layer validates every descriptor against a JSON Schema and
re-verifies the whole bundle at packaging time.  This ablation measures that
overhead — packaging with full validation vs. packaging with validation
switched off vs. constructing the raw BQM directly — for growing problem
sizes.  The expected shape: validation costs a small constant factor
(milliseconds), negligible against any execution backend.

Successful bundle validations are memoised by document content, and every
round here packages the same document (the provenance timestamp has
one-second resolution), so the "with validation" callable clears the memo
first: it times a full validation, not a memo hit.
"""

import pytest

from repro.core import package
from repro.core.bundle import clear_validation_memo
from repro.oplib import ising_problem_operator
from repro.problems import MaxCutProblem, random_graph
from repro.simulators.anneal import BinaryQuadraticModel
from repro.workflows import default_anneal_context, maxcut_register


def _problem(n):
    return MaxCutProblem(random_graph(n, 0.5, seed=n))


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_packaging_with_validation(benchmark, nodes):
    problem = _problem(nodes)
    context = default_anneal_context()

    def run():
        qdt = maxcut_register(problem)
        h, edges, weights, constant = problem.to_ising()
        op = ising_problem_operator(qdt, h=h, edges=edges, weights=weights, constant=constant)
        clear_validation_memo()
        return package(qdt, [op], context, name=f"n{nodes}", validate=True)

    bundle = benchmark(run)
    assert bundle.verify().ok
    benchmark.extra_info.update({"nodes": nodes, "validated": True})


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_packaging_without_validation(benchmark, nodes):
    problem = _problem(nodes)
    context = default_anneal_context()

    def run():
        qdt = maxcut_register(problem)
        h, edges, weights, constant = problem.to_ising()
        op = ising_problem_operator(qdt, h=h, edges=edges, weights=weights, constant=constant)
        return package(qdt, [op], context, name=f"n{nodes}", validate=False)

    benchmark(run)
    benchmark.extra_info.update({"nodes": nodes, "validated": False})


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_direct_bqm_construction_baseline(benchmark, nodes):
    problem = _problem(nodes)

    def run():
        return BinaryQuadraticModel.from_graph(
            (u, v, d["weight"]) for u, v, d in problem.graph.edges(data=True)
        )

    benchmark(run)
    benchmark.extra_info.update({"nodes": nodes, "baseline": "raw BQM, no middle layer"})
