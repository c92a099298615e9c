"""Golden digests of seeded simulated-annealing sample sets.

The sampler's sweep loop is hand-tuned (one uniform block per sweep, in-place
ufuncs, the contiguous coupling row); these digests pin its output to the
reference Metropolis loop bit for bit.  The graphs are the interactive
benchmark's instance pool (cycles and the 3-regular-like pool of seed 1) at
its budget of 64 reads x 64 sweeps; the float-weight models use dyadic
weights, so every energy and local field is exact and the digests do not
depend on the BLAS summation order.
"""

import hashlib

import numpy as np
import pytest

from repro.backends import submit
from repro.problems import MaxCutProblem
from repro.simulators.anneal import BinaryQuadraticModel, SimulatedAnnealingSampler
from repro.workflows import build_anneal_bundle, default_anneal_context

#: The 3-regular-like graphs of the interactive pool (benchmark seed 1).
POOL_EDGES = {
    4: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    5: [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)],
    6: [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)],
    7: [(0, 1), (0, 3), (0, 4), (1, 2), (1, 6), (2, 4), (2, 5), (3, 6), (5, 6)],
    8: [(0, 1), (0, 3), (0, 7), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5),
        (4, 6), (6, 7)],
    9: [(0, 3), (0, 4), (1, 2), (1, 5), (1, 7), (2, 8), (3, 4), (3, 7), (4, 6), (5, 6),
        (6, 8), (7, 8)],
    10: [(0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (1, 6), (2, 9), (3, 4), (3, 7), (4, 7),
         (4, 8), (5, 7), (6, 8), (6, 9), (8, 9)],
}

#: The workload graphs' anneal jobs at seed ``WORKLOAD_SEED``.
WORKLOAD_SEED = 7
GOLDEN_WORKLOAD = {
    "c4": "d99e2caebfcaa5fc1f8d0076b7a1527a3b7df730ed1cde015c15b7f792a19067",
    "r4": "f2b1086aa02d8cbbac7ad27b56ff4f660ae92a9bb97bc1825993e5b0df63c46f",
    "c5": "05055ce0db8d65f43892aac37691ecf641e362c30f31886c3ae31449e4f6f813",
    "r5": "4dec6f013520874a19981780e493d3d07c2aa2032bca60345166429b006c151a",
    "c6": "1fee26e7f96d9be3af4bacf1d8c26d8a017fa51d30f86213872b1a11619d3c2a",
    "r6": "2e56792d897f12725a1cf3b9811ea725bde123a233c77b6e4dad2287bf91243f",
    "c7": "5d18773c0110cab3c14380e8d140829febeb21172d33ad010eb61e3e4d9a795f",
    "r7": "0b5c6b51237df4248a941bccc2804521f4b73ef8daca4d4dc10fde5fac8f73d8",
    "c8": "424d26895108fca658db7e57727bc10e841ce7a405ff9d6456974467ee6944f4",
    "r8": "bd1bc4f8fe37eb0e7a289ebec494204824f2b8df259e80470b36ffe48c3a5142",
    "c9": "44b9696ac5cec24bdf990d02b8c3b38e1372d45c93f9a936de43d2f2bd84cc72",
    "r9": "9de36e1df032420c967a53e16ffd3168b5c3415b4a11a983998e96db4c54308b",
    "c10": "2ab02aec4489cac60bd942d1c8d1b0563673bf0f87084b258116900c7bba1e51",
    "r10": "2929544db87c960faf40f01559f0d3221d165594ecc4018c31a46e8299b2ea52",
}

GOLDEN_FLOAT = {
    0: "8738004dc92714c28b4c260d7c640a6adacce879b8ba4876b5a5cc5bce9594b9",
    1: "40582ce832bc75091bd3bff1feb9982f4b0dddfa18b78ae2aa3a7850dd81a1e3",
    2: "4bd11f5cbea6c2fe1a8c13c3b6e9629a5b09e9374589a784ccdb655d2ab5ecb2",
    3: "add84e5b030f29a64f2d6d90f3ef355c843c6a96e4e490bfd2b71dcd5951a744",
}


def sampleset_digest(sampleset) -> str:
    """SHA-256 over a sample set's records, energies, occurrences and variables."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sampleset.samples, dtype=np.int8).tobytes())
    h.update(np.ascontiguousarray(sampleset.energies, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(sampleset.num_occurrences, dtype=np.int64).tobytes())
    h.update(",".join(sampleset.variables).encode())
    return h.hexdigest()


def workload_problem(label: str) -> MaxCutProblem:
    n = int(label[1:])
    if label[0] == "c":
        return MaxCutProblem.cycle(n)
    return MaxCutProblem.from_edges(POOL_EDGES[n])


def workload_sampleset(label: str, seed: int):
    """The interactive benchmark's anneal job on *label*, through submit()."""
    context = default_anneal_context(num_reads=64, num_sweeps=64, seed=seed)
    bundle = build_anneal_bundle(workload_problem(label), context=context, name=label)
    return submit(bundle).sampleset


def float_bqm(index: int) -> BinaryQuadraticModel:
    """A dense model with dyadic (exactly representable) weights."""
    n = 5 + 2 * index
    linear = {i: ((7 * i + 3 * index) % 11 - 5) / 8.0 for i in range(n)}
    quadratic = {
        (i, j): ((13 * i + 5 * j + index) % 17 - 8) / 16.0
        for i in range(n)
        for j in range(i + 1, n)
        if (i + j + index) % 3
    }
    vartype = "BINARY" if index % 2 else "SPIN"
    return BinaryQuadraticModel(linear, quadratic, offset=0.25 * index, vartype=vartype)


FLOAT_RUNS = {
    0: dict(num_reads=40, num_sweeps=50, seed=3),
    1: dict(num_reads=17, num_sweeps=80, seed=11, schedule="linear"),
    2: dict(num_reads=64, num_sweeps=30, seed=5, beta_range=(0.05, 4.0)),
    3: dict(num_reads=9, num_sweeps=120, seed=2024),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_WORKLOAD))
def test_workload_samplesets_match_golden(label):
    sampleset = workload_sampleset(label, WORKLOAD_SEED)
    assert sampleset_digest(sampleset) == GOLDEN_WORKLOAD[label]


@pytest.mark.parametrize("index", sorted(FLOAT_RUNS))
def test_float_weight_samplesets_match_golden(index):
    sampleset = SimulatedAnnealingSampler().sample(float_bqm(index), **FLOAT_RUNS[index])
    assert sampleset_digest(sampleset) == GOLDEN_FLOAT[index]
