"""Job bundles: the packaging step that produces ``job.json``.

The algorithmic libraries finish with "a packaging utility to finally combine
the quantum data type, operators, and optional context into a submission
bundle (job.json)" (Section 4.4).  :class:`JobBundle` is that artifact: the
complete, backend-neutral description of one submission.  Backends consume a
bundle and return results; nothing else crosses the boundary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .context import ContextDescriptor
from .errors import PackagingError
from .lru import BoundedLRU
from .provenance import Provenance, build_provenance
from .qdt import QuantumDataType
from .qod import OperatorSequence, QuantumOperatorDescriptor
from .registry import register_change_hook
from .schemas import JOB_SCHEMA_ID, validate_document
from .serialization import digest, load_json, save_json
from .validation import ValidationReport, verify

__all__ = ["JobBundle", "package", "clear_validation_memo"]

#: Entry bound of the validation memo (a constant, not a knob).
VALIDATION_MEMO_SIZE = 1024

# Successful bundle validations, keyed by the validated document.  A re-
# validation of an unchanged bundle (``submit()`` after ``package()``, or
# serving admission) then costs one digest.  Failures are never stored.
_VALIDATED = BoundedLRU(VALIDATION_MEMO_SIZE)


def clear_validation_memo() -> None:
    """Forget every memoised bundle validation (and reset its counters)."""
    _VALIDATED.clear()


# Validity depends on the rep_kind registry (required params, measurement
# rules), so a registration invalidates every memoised verdict.
register_change_hook(clear_validation_memo)


def _memo_key(qdts: Mapping[str, QuantumDataType], doc: Mapping[str, Any]) -> Optional[Tuple]:
    """The memo key of a bundle document, or ``None`` when it cannot be memoised.

    The key is a SHA-256 of the document's canonical JSON plus the register
    table's keys (which the document omits but :func:`check_registers
    <repro.core.validation.check_registers>` compares with the ids).  A
    string ``name`` is left out: the schema asks only for a string and no
    semantic check reads it, so a renamed copy of a validated bundle (a
    sweep's members, a resubmission under a fresh name) is just as valid.
    Only native JSON values are accepted: the repository's
    :func:`~repro.core.serialization.digest` renders numpy scalars as plain
    numbers, and the schema tells ``int`` from ``numpy.int64``, so such a
    document would share a key with a differently valid one.
    """
    if isinstance(doc.get("name"), str):
        doc = {key: value for key, value in doc.items() if key != "name"}
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    except TypeError:
        return None
    return (tuple(qdts), hashlib.sha256(text.encode("utf-8")).hexdigest())


@dataclass
class JobBundle:
    """A packaged submission: registers + operators + optional context."""

    qdts: Dict[str, QuantumDataType]
    operators: OperatorSequence
    context: Optional[ContextDescriptor] = None
    name: str = "job"
    provenance: Optional[Provenance] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.operators, OperatorSequence):
            self.operators = OperatorSequence(self.operators)
        if isinstance(self.qdts, (list, tuple)):
            self.qdts = {q.id: q for q in self.qdts}
        if not self.qdts:
            raise PackagingError("a job bundle needs at least one quantum data type")
        if len(self.operators) == 0:
            raise PackagingError("a job bundle needs at least one operator descriptor")

    # -- accessors -------------------------------------------------------------
    def register(self, register_id: str) -> QuantumDataType:
        """Look up a declared register by id."""
        try:
            return self.qdts[register_id]
        except KeyError:
            raise PackagingError(f"bundle declares no register {register_id!r}") from None

    @property
    def total_width(self) -> int:
        """Total number of logical carriers across all registers."""
        return sum(q.width for q in self.qdts.values())

    @property
    def engine(self) -> Optional[str]:
        """The engine requested by the context, if any."""
        return self.context.engine if self.context is not None else None

    def result_schemas(self) -> List[Any]:
        """Every result schema attached to operators, in sequence order."""
        return [op.result_schema for op in self.operators if op.result_schema is not None]

    # -- validation --------------------------------------------------------------
    def verify(self) -> ValidationReport:
        """Full semantic verification; returns the report without raising."""
        return verify(self.qdts, self.operators, self.context)

    def validate(self) -> None:
        """Schema + semantic validation; raises on the first error.

        One schema walk of the whole ``job.json`` (it inlines the register,
        operator and context schemas), then the semantic checks alone.  A
        successful validation is memoised by document content, so validating
        an unchanged bundle again costs one digest; any change to the bundle
        changes the key and is validated afresh.
        """
        doc = self.to_dict()
        key = _memo_key(self.qdts, doc)
        if key is not None and _VALIDATED.lookup(key):
            return
        validate_document(doc, JOB_SCHEMA_ID)
        verify(self.qdts, self.operators, self.context, schema=False).raise_if_failed()
        if key is not None:
            _VALIDATED.store(key, True)

    # -- serialization -------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Render the full ``job.json`` document."""
        doc: Dict[str, Any] = {
            "$schema": JOB_SCHEMA_ID,
            "name": self.name,
            "qdts": [q.to_dict() for q in self.qdts.values()],
            "operators": self.operators.to_list(),
        }
        if self.context is not None:
            doc["context"] = self.context.to_dict()
        if self.provenance is not None:
            doc["provenance"] = self.provenance.to_dict()
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobBundle":
        """Rebuild a bundle from a ``job.json`` document."""
        validate_document(dict(doc), JOB_SCHEMA_ID)
        qdts = {d["id"]: QuantumDataType.from_dict(d) for d in doc["qdts"]}
        operators = OperatorSequence.from_list(doc["operators"])
        context = (
            ContextDescriptor.from_dict(doc["context"]) if doc.get("context") is not None else None
        )
        return cls(
            qdts=qdts,
            operators=operators,
            context=context,
            name=doc.get("name", "job"),
            provenance=Provenance.from_dict(doc.get("provenance")),
            metadata=dict(doc.get("metadata", {})),
        )

    def save(self, path) -> None:
        """Write the bundle to ``job.json``."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "JobBundle":
        """Load a bundle from a ``job.json`` file."""
        return cls.from_dict(load_json(path))

    def digest(self) -> str:
        """Content digest of the bundle body (excluding provenance)."""
        body = self.to_dict()
        body.pop("provenance", None)
        return digest(body)

    # -- functional updates ----------------------------------------------------------
    def with_context(self, context: ContextDescriptor) -> "JobBundle":
        """Return a copy of the bundle re-targeted with *context*.

        This is the paper's central portability move: intent artifacts stay
        untouched, only the context changes.
        """
        return JobBundle(
            qdts=dict(self.qdts),
            operators=OperatorSequence(self.operators.operators),
            context=context,
            name=self.name,
            provenance=self.provenance,
            metadata=dict(self.metadata),
        )


def package(
    qdts: Union[QuantumDataType, Iterable[QuantumDataType], Mapping[str, QuantumDataType]],
    operators: Union[OperatorSequence, Iterable[QuantumOperatorDescriptor]],
    context: Optional[ContextDescriptor] = None,
    *,
    name: str = "job",
    producer: str = "",
    validate: bool = True,
    metadata: Optional[Mapping[str, Any]] = None,
) -> JobBundle:
    """Package registers, operators and an optional context into a bundle.

    This is the one-call packaging utility of Section 4.4.  With
    ``validate=True`` (the default) the bundle is schema- and
    semantically-validated before it is returned, so invalid submissions fail
    at packaging time rather than at the backend.
    """
    if isinstance(qdts, QuantumDataType):
        qdt_map: Dict[str, QuantumDataType] = {qdts.id: qdts}
    elif isinstance(qdts, Mapping):
        qdt_map = dict(qdts)
    else:
        qdt_map = {q.id: q for q in qdts}

    sequence = operators if isinstance(operators, OperatorSequence) else OperatorSequence(operators)
    bundle = JobBundle(
        qdts=qdt_map,
        operators=sequence,
        context=context,
        name=name,
        metadata=dict(metadata or {}),
    )
    body = bundle.to_dict()
    body.pop("provenance", None)
    bundle.provenance = build_provenance(body, producer=producer)
    if validate:
        bundle.validate()
    return bundle
