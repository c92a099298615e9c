"""The bundle-validation memo and the one-walk validation path.

``JobBundle.validate`` walks the whole ``job.json`` schema once, runs the
semantic checks without the per-descriptor walks, and memoises a success by
document content.  These tests lock the contract: a changed bundle is
validated afresh, a rep_kind registration forgets every verdict, a failure
is never memoised, and the one-walk path reports exactly what the full
per-descriptor verification reports.
"""

import dataclasses

import pytest

import repro.core.bundle as bundle_module
import repro.core.schemas as schemas_module
from repro.core import (
    CompatibilityError,
    ContextDescriptor,
    ExecPolicy,
    RepKindInfo,
    SchemaValidationError,
    TargetSpec,
    get_rep_kind,
    package,
    phase_register,
    register_rep_kind,
)
from repro.core.bundle import clear_validation_memo
from repro.core.qod import QuantumOperatorDescriptor
from repro.core.validation import verify
from repro.oplib import measurement, prep_uniform, qft_operator
from repro.workflows import build_anneal_bundle, build_qaoa_bundle


def ring_context(width):
    ring = [(i, (i + 1) % width) for i in range(width)]
    return ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            samples=64,
            seed=1,
            target=TargetSpec(basis_gates=["sx", "rz", "cx"], coupling_map=ring),
        )
    )


@pytest.fixture
def count_walks(monkeypatch):
    """Count every schema walk made through ``validate_document``."""
    calls = []
    real = schemas_module.validate_document

    def counted(document, schema_id=None):
        calls.append(schema_id or document.get("$schema"))
        return real(document, schema_id)

    for module in ("bundle", "qdt", "qod", "context"):
        monkeypatch.setattr(f"repro.core.{module}.validate_document", counted)
    return calls


def test_validate_walks_the_job_document_once(cycle4, count_walks):
    bundle = build_qaoa_bundle(cycle4, context=ring_context(4), name="one-walk")
    clear_validation_memo()
    count_walks.clear()
    bundle.validate()
    assert count_walks == ["job.schema.json"]
    count_walks.clear()
    bundle.validate()  # unchanged: a memo hit, no walk at all
    dataclasses.replace(bundle, name="renamed").validate()  # the name is not keyed
    assert count_walks == []


def test_mutating_a_validated_bundle_revalidates(cycle4):
    bundle = build_qaoa_bundle(cycle4, context=ring_context(4), name="shrunk")
    bundle.validate()
    bundle.context.exec.target.coupling_map = [(0, 1)]
    with pytest.raises(CompatibilityError, match="target provides 2 qubits"):
        bundle.validate()


def test_failed_validation_is_never_memoised():
    reg = phase_register("p", 3)
    bundle = package(
        reg, [qft_operator(reg), measurement(reg)], ring_context(2), name="bad",
        validate=False,
    )
    entries = bundle_module._VALIDATED.info()["entries"]
    for _ in range(2):
        with pytest.raises(CompatibilityError):
            bundle.validate()
    assert bundle_module._VALIDATED.info()["entries"] == entries
    key = bundle_module._memo_key(bundle.qdts, bundle.to_dict())
    assert key not in bundle_module._VALIDATED


def test_schema_failure_is_never_memoised():
    reg = phase_register("p", 3)
    context = ContextDescriptor(
        exec=ExecPolicy(engine="gate.aer_simulator", samples=8, target=TargetSpec(num_qubits=0))
    )
    bundle = package(reg, [qft_operator(reg), measurement(reg)], context, validate=False)
    for _ in range(2):
        with pytest.raises(SchemaValidationError, match="num_qubits"):
            bundle.validate()
    assert bundle_module._memo_key(bundle.qdts, bundle.to_dict()) not in bundle_module._VALIDATED


def test_register_rep_kind_clears_the_memo():
    name = "MEMO_TEST_KIND"
    register_rep_kind(RepKindInfo(name=name, category="test"), replace=True)
    reg = phase_register("p", 2)
    op = QuantumOperatorDescriptor(name="custom", rep_kind=name, domain_qdt="p")
    bundle = package(reg, [prep_uniform(reg), op, measurement(reg)], None, name="kinds")
    assert bundle_module._VALIDATED.info()["entries"] >= 1
    original = get_rep_kind(name)
    try:
        register_rep_kind(
            RepKindInfo(name=name, category="test", required_params=("depth",)), replace=True
        )
        assert bundle_module._VALIDATED.info()["entries"] == 0
        with pytest.raises(CompatibilityError, match="missing required params"):
            bundle.validate()
    finally:
        register_rep_kind(original, replace=True)
    bundle.validate()


def test_register_keys_are_part_of_the_memo_key():
    reg = phase_register("p", 2)
    bundle = package(reg, [prep_uniform(reg), measurement(reg)], None, name="keys")
    bundle.qdts = {"renamed": reg}  # same document, mismatched table key
    with pytest.raises(CompatibilityError, match="register table key"):
        bundle.validate()


@pytest.mark.parametrize("formulation", ["qaoa", "anneal", "bad-context", "bad-order"])
def test_one_walk_semantics_match_full_verification(cycle4, formulation):
    if formulation == "qaoa":
        bundle = build_qaoa_bundle(cycle4, context=ring_context(4))
    elif formulation == "anneal":
        bundle = build_anneal_bundle(cycle4)
    else:
        reg = phase_register("p", 3)
        ops = [qft_operator(reg), measurement(reg)]
        if formulation == "bad-order":
            ops = [measurement(reg), qft_operator(reg)]
        bundle = package(reg, ops, ring_context(2), validate=False)
    full = verify(bundle.qdts, bundle.operators, bundle.context)
    semantic = verify(bundle.qdts, bundle.operators, bundle.context, schema=False)
    assert semantic.issues == full.issues
