"""Quantum Data Type descriptors (the semantic contract for a register).

A :class:`QuantumDataType` tells every component of the stack what a quantum
register *means*: how many logical carriers it spans, how basis states map to
classical values (integer, boolean, Ising spin, fixed-point phase, ...),
which index is least significant, and how measured bitstrings must be
interpreted.  This is the direct analogue of MPI datatypes / HDF5 dataset
metadata that the paper draws on (Section 4.1, Listing 2).

Bitstring convention
--------------------
Throughout :mod:`repro` a *bitstring* is a ``str`` of ``'0'``/``'1'``
characters in **register-index order**: character ``i`` is the readout of
logical carrier ``i``.  ``bit_order`` then assigns significance:

* ``LSB_0`` — carrier ``i`` has weight ``2**i`` (the paper's default),
* ``MSB_0`` — carrier ``0`` is the most-significant bit.

This keeps the string layout independent of significance, which is exactly
the ambiguity the paper's motivational example calls out in Qiskit programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import DescriptorError
from .schemas import QDT_SCHEMA_ID, validate_document
from .serialization import load_json, save_json

__all__ = [
    "EncodingKind",
    "BitOrder",
    "MeasurementSemantics",
    "Carrier",
    "QuantumDataType",
    "phase_register",
    "integer_register",
    "boolean_register",
    "ising_register",
    "fixed_point_register",
]


class EncodingKind(str, Enum):
    """How basis states of the register are interpreted."""

    INT_REGISTER = "INT_REGISTER"
    UINT_REGISTER = "UINT_REGISTER"
    BOOL_REGISTER = "BOOL_REGISTER"
    ISING_SPIN = "ISING_SPIN"
    QUBO_BINARY = "QUBO_BINARY"
    PHASE_REGISTER = "PHASE_REGISTER"
    FIXED_POINT_REGISTER = "FIXED_POINT_REGISTER"
    AMPLITUDE_REGISTER = "AMPLITUDE_REGISTER"
    ANGLE_REGISTER = "ANGLE_REGISTER"


class BitOrder(str, Enum):
    """Significance convention for carrier indices."""

    LSB_0 = "LSB_0"
    MSB_0 = "MSB_0"


class MeasurementSemantics(str, Enum):
    """How Z-basis readout of the register is decoded downstream."""

    AS_INT = "AS_INT"
    AS_UINT = "AS_UINT"
    AS_BOOL = "AS_BOOL"
    AS_SPIN = "AS_SPIN"
    AS_PHASE = "AS_PHASE"
    AS_FIXED_POINT = "AS_FIXED_POINT"
    AS_AMPLITUDE = "AS_AMPLITUDE"
    AS_RAW = "AS_RAW"


class Carrier(str, Enum):
    """Physical/logical information carrier the register is realised on."""

    QUBIT = "qubit"
    QUMODE = "qumode"
    SPIN = "spin"
    LOGICAL = "logical"


def _parse_fraction(value: Union[str, Fraction, float, int, None]) -> Optional[Fraction]:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) == 2:
            return Fraction(int(parts[0].strip()), int(parts[1].strip()))
        return Fraction(value.strip())
    return Fraction(value).limit_denominator(1 << 62)


_BINARY_DIGITS = frozenset("01")
#: Spin of a measured bit (``0 -> +1``, ``1 -> -1``).
_SPIN_OF_BIT = {"0": 1, "1": -1}


@dataclass
class QuantumDataType:
    """Declarative description of what a quantum register means.

    Parameters
    ----------
    id:
        Unique identifier used by operator descriptors (``domain_qdt``).
    width:
        Number of logical carriers (qubits, qumodes, logical qubits...).
    encoding_kind:
        Member of :class:`EncodingKind`.
    bit_order:
        Member of :class:`BitOrder`; default ``LSB_0``.
    measurement_semantics:
        Member of :class:`MeasurementSemantics`.
    name:
        Human-readable register name (defaults to ``id``).
    phase_scale:
        For ``PHASE_REGISTER``: fraction of a full turn represented by basis
        state ``|1>`` of the least-significant carrier, e.g. ``1/1024``.
    signed:
        For integer registers: two's-complement interpretation.
    fraction_bits:
        For fixed-point registers: number of fractional bits.
    carrier:
        Member of :class:`Carrier`; informational only.
    metadata:
        Free-form, carried through packaging untouched.
    """

    id: str
    width: int
    encoding_kind: EncodingKind
    bit_order: BitOrder = BitOrder.LSB_0
    measurement_semantics: MeasurementSemantics = MeasurementSemantics.AS_RAW
    name: Optional[str] = None
    phase_scale: Optional[Fraction] = None
    signed: bool = False
    fraction_bits: int = 0
    carrier: Carrier = Carrier.QUBIT
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.encoding_kind = EncodingKind(self.encoding_kind)
        self.bit_order = BitOrder(self.bit_order)
        self.measurement_semantics = MeasurementSemantics(self.measurement_semantics)
        self.carrier = Carrier(self.carrier)
        self.phase_scale = _parse_fraction(self.phase_scale)
        if self.name is None:
            self.name = self.id
        if not isinstance(self.width, int) or self.width < 1:
            raise DescriptorError(f"QDT {self.id!r}: width must be a positive integer")
        if self.encoding_kind is EncodingKind.PHASE_REGISTER and self.phase_scale is None:
            self.phase_scale = Fraction(1, 1 << self.width)
        if self.fraction_bits < 0 or self.fraction_bits > self.width:
            raise DescriptorError(
                f"QDT {self.id!r}: fraction_bits must lie in [0, width]"
            )

    # -- derived properties -------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of computational basis states of the register."""
        return 1 << self.width

    @property
    def is_binary_optimization(self) -> bool:
        """True for registers holding Ising spins or QUBO binaries."""
        return self.encoding_kind in (
            EncodingKind.ISING_SPIN,
            EncodingKind.QUBO_BINARY,
            EncodingKind.BOOL_REGISTER,
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Render the descriptor as a JSON-ready dictionary (Listing 2)."""
        doc: Dict[str, Any] = {
            "$schema": QDT_SCHEMA_ID,
            "id": self.id,
            "name": self.name,
            "width": self.width,
            "encoding_kind": self.encoding_kind.value,
            "bit_order": self.bit_order.value,
            "measurement_semantics": self.measurement_semantics.value,
        }
        if self.phase_scale is not None:
            doc["phase_scale"] = f"{self.phase_scale.numerator}/{self.phase_scale.denominator}"
        if self.signed:
            doc["signed"] = True
        if self.fraction_bits:
            doc["fraction_bits"] = self.fraction_bits
        if self.carrier is not Carrier.QUBIT:
            doc["carrier"] = self.carrier.value
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "QuantumDataType":
        """Build a descriptor from its JSON dictionary form, validating it."""
        validate_document(dict(doc), QDT_SCHEMA_ID)
        return cls(
            id=doc["id"],
            name=doc.get("name"),
            width=doc["width"],
            encoding_kind=doc["encoding_kind"],
            bit_order=doc.get("bit_order", "LSB_0"),
            measurement_semantics=doc["measurement_semantics"],
            phase_scale=doc.get("phase_scale"),
            signed=doc.get("signed", False),
            fraction_bits=doc.get("fraction_bits", 0),
            carrier=doc.get("carrier", "qubit"),
            metadata=dict(doc.get("metadata", {})),
        )

    def validate(self) -> None:
        """Validate the descriptor against the embedded QDT schema."""
        validate_document(self.to_dict(), QDT_SCHEMA_ID)

    def save(self, path) -> None:
        """Write the descriptor as ``QDT.json``-style file."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "QuantumDataType":
        """Load a descriptor from a JSON file."""
        return cls.from_dict(load_json(path))

    # -- value <-> bitstring mapping ----------------------------------------
    def _check_bits(self, bits: str) -> str:
        if len(bits) != self.width or not _BINARY_DIGITS.issuperset(bits):
            raise DescriptorError(
                f"QDT {self.id!r}: bitstring {bits!r} is not a width-{self.width} binary string"
            )
        return bits

    def bits_to_index(self, bits: str) -> int:
        """Map a register-order bitstring to the basis-state index it denotes."""
        self._check_bits(bits)
        if self.bit_order is BitOrder.LSB_0:
            return int("".join(reversed(bits)), 2)
        return int(bits, 2)

    def index_to_bits(self, index: int) -> str:
        """Map a basis-state index to its register-order bitstring."""
        if not 0 <= index < self.num_states:
            raise DescriptorError(
                f"QDT {self.id!r}: basis index {index} out of range [0, {self.num_states})"
            )
        msb_first = format(index, f"0{self.width}b")
        if self.bit_order is BitOrder.LSB_0:
            return msb_first[::-1]
        return msb_first

    def decode_bits(self, bits: str) -> Any:
        """Decode a measured bitstring according to ``measurement_semantics``.

        Returns an ``int`` for integer semantics, a tuple of ``0``/``1`` for
        ``AS_BOOL``, a tuple of ``+1``/``-1`` spins for ``AS_SPIN`` (bit
        ``0 -> +1``, ``1 -> -1``), a :class:`fractions.Fraction` of a full
        turn for ``AS_PHASE``, a float for ``AS_FIXED_POINT``, and the raw
        bitstring otherwise.
        """
        self._check_bits(bits)
        sem = self.measurement_semantics
        if sem in (MeasurementSemantics.AS_UINT, MeasurementSemantics.AS_AMPLITUDE):
            return self.bits_to_index(bits)
        if sem is MeasurementSemantics.AS_INT:
            value = self.bits_to_index(bits)
            if self.signed and value >= self.num_states // 2:
                value -= self.num_states
            return value
        if sem is MeasurementSemantics.AS_BOOL:
            return tuple(map(int, bits))
        if sem is MeasurementSemantics.AS_SPIN:
            return tuple(map(_SPIN_OF_BIT.__getitem__, bits))
        if sem is MeasurementSemantics.AS_PHASE:
            scale = self.phase_scale or Fraction(1, self.num_states)
            return self.bits_to_index(bits) * scale
        if sem is MeasurementSemantics.AS_FIXED_POINT:
            value = self.bits_to_index(bits)
            if self.signed and value >= self.num_states // 2:
                value -= self.num_states
            return value / float(1 << self.fraction_bits)
        return bits

    def encode_value(self, value: Any) -> str:
        """Encode a classical value as a register-order bitstring.

        The inverse of :meth:`decode_bits` for every deterministic semantics.
        """
        sem = self.measurement_semantics
        if sem is MeasurementSemantics.AS_RAW:
            return self._check_bits(str(value))
        if sem is MeasurementSemantics.AS_BOOL:
            bits = self._iterable_to_bits(value, {0: "0", 1: "1", False: "0", True: "1"})
            return bits
        if sem is MeasurementSemantics.AS_SPIN:
            bits = self._iterable_to_bits(value, {1: "0", -1: "1"})
            return bits
        if sem is MeasurementSemantics.AS_PHASE:
            scale = self.phase_scale or Fraction(1, self.num_states)
            index = Fraction(value) / scale
            if index.denominator != 1:
                raise DescriptorError(
                    f"QDT {self.id!r}: phase {value} is not a multiple of {scale}"
                )
            return self.index_to_bits(int(index) % self.num_states)
        if sem is MeasurementSemantics.AS_FIXED_POINT:
            index = int(round(float(value) * (1 << self.fraction_bits)))
            if index < 0:
                index += self.num_states
            return self.index_to_bits(index)
        index = int(value)
        if index < 0:
            if not self.signed:
                raise DescriptorError(f"QDT {self.id!r}: negative value for unsigned register")
            index += self.num_states
        return self.index_to_bits(index)

    def _iterable_to_bits(self, values: Iterable[Any], mapping: Dict[Any, str]) -> str:
        seq = list(values)
        if len(seq) != self.width:
            raise DescriptorError(
                f"QDT {self.id!r}: expected {self.width} values, got {len(seq)}"
            )
        try:
            return "".join(mapping[v] for v in seq)
        except KeyError as exc:
            raise DescriptorError(
                f"QDT {self.id!r}: value {exc.args[0]!r} not encodable"
            ) from None

    def all_values(self) -> Tuple[Any, ...]:
        """Enumerate the decoded value of every basis state (small registers)."""
        if self.width > 20:
            raise DescriptorError("all_values() limited to width <= 20 registers")
        return tuple(self.decode_bits(self.index_to_bits(i)) for i in range(self.num_states))

    # -- compatibility ------------------------------------------------------
    def compatible_with(self, other: "QuantumDataType") -> bool:
        """Whether two registers share width, encoding, ordering and semantics."""
        return (
            self.width == other.width
            and self.encoding_kind == other.encoding_kind
            and self.bit_order == other.bit_order
            and self.measurement_semantics == other.measurement_semantics
        )


# -- convenience constructors ------------------------------------------------

def phase_register(
    id: str,
    width: int,
    *,
    name: Optional[str] = None,
    phase_scale: Union[str, Fraction, None] = None,
    bit_order: Union[str, BitOrder] = BitOrder.LSB_0,
) -> QuantumDataType:
    """A fixed-point phase accumulator register (the QFT's natural datatype)."""
    return QuantumDataType(
        id=id,
        name=name,
        width=width,
        encoding_kind=EncodingKind.PHASE_REGISTER,
        bit_order=bit_order,
        measurement_semantics=MeasurementSemantics.AS_PHASE,
        phase_scale=phase_scale if phase_scale is not None else Fraction(1, 1 << width),
    )


def integer_register(
    id: str,
    width: int,
    *,
    name: Optional[str] = None,
    signed: bool = False,
    bit_order: Union[str, BitOrder] = BitOrder.LSB_0,
) -> QuantumDataType:
    """An integer register decoded with ``AS_INT`` semantics."""
    return QuantumDataType(
        id=id,
        name=name,
        width=width,
        encoding_kind=EncodingKind.INT_REGISTER,
        bit_order=bit_order,
        measurement_semantics=MeasurementSemantics.AS_INT,
        signed=signed,
    )


def boolean_register(
    id: str,
    width: int,
    *,
    name: Optional[str] = None,
    bit_order: Union[str, BitOrder] = BitOrder.LSB_0,
) -> QuantumDataType:
    """A register of independent boolean flags decoded with ``AS_BOOL``."""
    return QuantumDataType(
        id=id,
        name=name,
        width=width,
        encoding_kind=EncodingKind.BOOL_REGISTER,
        bit_order=bit_order,
        measurement_semantics=MeasurementSemantics.AS_BOOL,
    )


def ising_register(
    id: str,
    width: int,
    *,
    name: Optional[str] = None,
    measurement_semantics: Union[str, MeasurementSemantics] = MeasurementSemantics.AS_BOOL,
    bit_order: Union[str, BitOrder] = BitOrder.LSB_0,
) -> QuantumDataType:
    """Logical Ising spins ``s_i in {-1,+1}`` read out as boolean labels.

    The proof of concept of the paper (Section 5) declares the Max-Cut
    decision variables exactly this way: ``encoding_kind = ISING_SPIN`` with
    ``measurement_semantics = AS_BOOL``.
    """
    return QuantumDataType(
        id=id,
        name=name,
        width=width,
        encoding_kind=EncodingKind.ISING_SPIN,
        bit_order=bit_order,
        measurement_semantics=measurement_semantics,
    )


def fixed_point_register(
    id: str,
    width: int,
    fraction_bits: int,
    *,
    name: Optional[str] = None,
    signed: bool = False,
    bit_order: Union[str, BitOrder] = BitOrder.LSB_0,
) -> QuantumDataType:
    """A fixed-point real register with ``fraction_bits`` fractional bits."""
    return QuantumDataType(
        id=id,
        name=name,
        width=width,
        encoding_kind=EncodingKind.FIXED_POINT_REGISTER,
        bit_order=bit_order,
        measurement_semantics=MeasurementSemantics.AS_FIXED_POINT,
        signed=signed,
        fraction_bits=fraction_bits,
    )
