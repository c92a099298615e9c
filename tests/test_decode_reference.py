"""``decode_counts`` against the per-bitstring reference decoder.

``decode_counts`` builds one clbit-to-carrier gather per register and reuses
the counts key when the gather is the identity.  The reference below is the
straightforward form it replaced: every bitstring goes through
:meth:`ResultSchema.register_bits`.  Random schemas (permuted ``clbit_order``,
partially measured and unreferenced registers, several registers, both bit
orders, every measurement semantics) must decode identically: same registers
in the same order, and per outcome the same value, bits, count and
probability, in the same order.
"""

import pickle
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DescriptorError, QuantumDataType, ResultSchema
from repro.core.qdt import BitOrder, EncodingKind, MeasurementSemantics
from repro.results import Counts, decode_counts
from repro.results.decoding import DecodedOutcome, DecodedResult, RegisterDecoding

_ENCODINGS = {
    MeasurementSemantics.AS_INT: EncodingKind.INT_REGISTER,
    MeasurementSemantics.AS_UINT: EncodingKind.UINT_REGISTER,
    MeasurementSemantics.AS_BOOL: EncodingKind.BOOL_REGISTER,
    MeasurementSemantics.AS_SPIN: EncodingKind.ISING_SPIN,
    MeasurementSemantics.AS_PHASE: EncodingKind.PHASE_REGISTER,
    MeasurementSemantics.AS_FIXED_POINT: EncodingKind.FIXED_POINT_REGISTER,
    MeasurementSemantics.AS_AMPLITUDE: EncodingKind.AMPLITUDE_REGISTER,
    MeasurementSemantics.AS_RAW: EncodingKind.UINT_REGISTER,
}


def reference_decode(counts, schema, qdts) -> DecodedResult:
    """The per-bitstring decoder: ``register_bits`` on every key."""
    schema.validate_against(qdts)
    result = DecodedResult(raw_counts=counts)
    total = counts.shots
    for register_id in schema.registers():
        qdt = qdts[register_id]
        per_bits: Dict[str, int] = {}
        for bitstring, count in counts.items():
            register_bits = schema.register_bits(bitstring, qdt)
            per_bits[register_bits] = per_bits.get(register_bits, 0) + count
        outcomes = [
            DecodedOutcome(
                value=qdt.decode_bits(bits),
                bits=bits,
                count=count,
                probability=count / total if total else 0.0,
            )
            for bits, count in sorted(per_bits.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        result.registers[register_id] = RegisterDecoding(register_id, outcomes)
    return result


def flatten(decoded: DecodedResult):
    return [
        (
            register_id,
            [(o.value, o.bits, o.count, o.probability) for o in reg.outcomes],
        )
        for register_id, reg in decoded.registers.items()
    ]


@st.composite
def decode_cases(draw):
    qdts = {}
    refs = []
    for r in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 5))
        semantics = draw(st.sampled_from(list(MeasurementSemantics)))
        qdt = QuantumDataType(
            id=f"r{r}",
            width=width,
            encoding_kind=_ENCODINGS[semantics],
            bit_order=draw(st.sampled_from(list(BitOrder))),
            measurement_semantics=semantics,
            signed=draw(st.booleans()),
            fraction_bits=draw(st.integers(0, width)),
        )
        qdts[qdt.id] = qdt
        if draw(st.integers(0, 4)) == 0:
            continue  # declared but not measured
        if draw(st.booleans()):
            carriers = list(range(width))  # the whole register, in order
        else:
            # Partial, possibly repeated carriers (a later clbit wins).
            carriers = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width + 1))
        refs.extend(f"{qdt.id}[{c}]" for c in carriers)
    if not refs:
        refs = ["r0[0]"]
    if draw(st.booleans()):
        refs = draw(st.permutations(refs))
    schema = ResultSchema(
        bit_significance=draw(st.sampled_from(list(BitOrder))), clbit_order=refs
    )
    keys = draw(
        st.lists(
            st.text("01", min_size=len(refs), max_size=len(refs)),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    counts = Counts({key: draw(st.integers(1, 40)) for key in keys})
    return counts, schema, qdts


@settings(max_examples=300, derandomize=True, deadline=None)
@given(decode_cases())
def test_decode_counts_matches_the_per_bitstring_reference(case):
    counts, schema, qdts = case
    decoded = decode_counts(counts, schema, qdts)
    assert flatten(decoded) == flatten(reference_decode(counts, schema, qdts))
    assert decoded.raw_counts is counts


def test_identity_gather_reuses_the_counts_key():
    qdt = QuantumDataType("q", 3, EncodingKind.BOOL_REGISTER,
                          measurement_semantics=MeasurementSemantics.AS_BOOL)
    counts = Counts({"011": 5, "100": 3})
    decoded = decode_counts(counts, ResultSchema.for_register(qdt), {"q": qdt})
    keys = {key: key for key in counts}
    for outcome in decoded.single().outcomes:
        assert outcome.bits is keys[outcome.bits]


def test_carrier_beyond_the_register_width_keeps_its_error():
    qdt = QuantumDataType("q", 2, EncodingKind.UINT_REGISTER)
    schema = ResultSchema(clbit_order=["q[0]", "q[2]"])
    counts = Counts({"01": 1})
    with pytest.raises(DescriptorError, match=r"references q\[2\] but register width is 2"):
        decode_counts(counts, schema, {"q": qdt})
    with pytest.raises(DescriptorError, match=r"references q\[2\] but register width is 2"):
        reference_decode(counts, schema, {"q": qdt})


def test_decoded_outcome_is_slotted_frozen_and_picklable():
    outcome = DecodedOutcome(value=(1, -1), bits="01", count=3, probability=0.75)
    assert not hasattr(outcome, "__dict__")
    with pytest.raises(AttributeError):
        outcome.count = 4
    assert pickle.loads(pickle.dumps(outcome)) == outcome
