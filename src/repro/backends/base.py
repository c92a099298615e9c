"""Backend interface and the execution-result container.

A backend consumes a :class:`~repro.core.bundle.JobBundle` — registers,
operator descriptors and a context — and returns an :class:`ExecutionResult`.
Nothing else crosses the middle-layer boundary, which is what makes the intent
artifacts portable: the same bundle re-targeted with a different context goes
to a different backend unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.bundle import JobBundle
from ..core.errors import CapabilityError, DecodingError
from ..core.qdt import QuantumDataType
from ..core.qod import QuantumOperatorDescriptor
from ..core.result_schema import ResultSchema
from ..results.counts import Counts
from ..results.decoding import DecodedResult, decode_counts
from ..results.sampleset import SampleSet

__all__ = ["ExecutionResult", "Backend"]


@dataclass
class ExecutionResult:
    """Everything a backend reports back for one submitted bundle.

    A backend passes the submitted bundle as ``_bundle=``; the result keeps
    only its register table (``_qdts``), which is all :meth:`decoded` reads,
    so a held result does not pin the bundle's operators and context.
    """

    backend_name: str
    engine: str
    counts: Optional[Counts] = None
    sampleset: Optional[SampleSet] = None
    result_schemas: List[Tuple[ResultSchema, int]] = field(default_factory=list)
    bundle_digest: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)
    _bundle: InitVar[Optional[JobBundle]] = None
    _qdts: Optional[Dict[str, QuantumDataType]] = field(default=None, repr=False)

    def __post_init__(self, _bundle: Optional[JobBundle]) -> None:
        if _bundle is not None:
            self._qdts = dict(_bundle.qdts)

    # -- decoding -----------------------------------------------------------------
    def decoded(self, schema_index: int = 0) -> DecodedResult:
        """Decode the counts under the bundle's *schema_index*-th result schema.

        Each result schema was assigned a contiguous block of classical bits
        by the backend; the block is marginalised out of the joint counts
        before decoding.
        """
        if self._qdts is None:
            raise DecodingError("execution result carries no bundle for decoding")
        if self.counts is None:
            raise DecodingError("execution result has no counts to decode")
        if not self.result_schemas:
            raise DecodingError("no result schema was attached to the submitted operators")
        try:
            schema, offset = self.result_schemas[schema_index]
        except IndexError:
            raise DecodingError(
                f"result schema index {schema_index} out of range "
                f"({len(self.result_schemas)} available)"
            ) from None
        counts = self.counts
        if counts.num_clbits != schema.num_clbits:
            counts = counts.marginal(list(range(offset, offset + schema.num_clbits)))
        return decode_counts(counts, schema, self._qdts)

    def expectation(self, value_fn=None, *, register: Optional[str] = None) -> float:
        """Probability-weighted expectation of the decoded values."""
        decoded = self.decoded()
        reg = decoded[register] if register is not None else decoded.single()
        return reg.expectation(value_fn)

    def most_likely(self, *, register: Optional[str] = None):
        """The most frequently observed decoded value."""
        decoded = self.decoded()
        reg = decoded[register] if register is not None else decoded.single()
        return reg.most_likely().value


class Backend(abc.ABC):
    """Abstract base class of every execution backend."""

    #: Human-readable backend name.
    name: str = "backend"
    #: Engine identifiers (context ``exec.engine`` values) this backend serves.
    engines: Tuple[str, ...] = ()
    #: Operator rep_kinds this backend can realise.
    supported_rep_kinds: Tuple[str, ...] = ()

    # -- capability negotiation ----------------------------------------------------
    def supports(self, rep_kind: str) -> bool:
        """Whether the backend can realise *rep_kind*."""
        return rep_kind in self.supported_rep_kinds

    def check_capabilities(self, bundle: JobBundle) -> None:
        """Raise :class:`CapabilityError` when any operator is unsupported."""
        unsupported = sorted(
            {op.rep_kind for op in bundle.operators if not self.supports(op.rep_kind)}
        )
        if unsupported:
            raise CapabilityError(
                f"backend {self.name!r} cannot realise rep_kinds {unsupported}; "
                f"supported: {sorted(self.supported_rep_kinds)}"
            )

    # -- execution --------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, bundle: JobBundle) -> ExecutionResult:
        """Execute a validated bundle and return its results."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} engines={self.engines}>"
