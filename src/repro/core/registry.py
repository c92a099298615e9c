"""Registry of operator representation kinds (``rep_kind``) and engines.

The middle layer names logical transformations by a ``rep_kind`` string
(``QFT_TEMPLATE``, ``ISING_PROBLEM``, ``MIXER_RX``...).  The registry records,
for each kind, the semantic facts the validator and composition helpers need
*without* saying anything about realization:

* is it unitary / invertible,
* does it measure or reset (so "no hidden measurement" rules can be enforced),
* which parameters are required,
* a category used for documentation and capability negotiation.

Backends separately register which rep_kinds they can lower (see
:mod:`repro.backends.lowering`); keeping the two registries apart is what
makes the descriptors technology-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import DescriptorError

__all__ = [
    "RepKindInfo",
    "register_rep_kind",
    "register_change_hook",
    "get_rep_kind",
    "has_rep_kind",
    "list_rep_kinds",
    "STANDARD_REP_KINDS",
]


@dataclass(frozen=True)
class RepKindInfo:
    """Semantic facts about one operator representation kind."""

    name: str
    category: str
    unitary: bool = True
    invertible: bool = True
    measures: bool = False
    resets: bool = False
    required_params: Tuple[str, ...] = ()
    description: str = ""
    default_params: Dict[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, RepKindInfo] = {}

# Higher layers memoise verdicts that depend on this registry (the bundle
# validation memo); they register their clear functions here so a new or
# replaced kind cannot leave a stale verdict behind.
_CHANGE_HOOKS: List[Callable[[], None]] = []


def register_change_hook(hook: Callable[[], None]) -> None:
    """Register a zero-argument callable run whenever a rep_kind is registered."""
    _CHANGE_HOOKS.append(hook)


def register_rep_kind(info: RepKindInfo, *, replace: bool = False) -> RepKindInfo:
    """Add *info* to the global registry.

    Registering an already-known kind raises unless ``replace=True`` so that
    extensions cannot silently change the semantics libraries rely on.
    """
    if info.name in _REGISTRY and not replace:
        raise DescriptorError(f"rep_kind {info.name!r} already registered")
    _REGISTRY[info.name] = info
    for hook in _CHANGE_HOOKS:
        hook()
    return info


def get_rep_kind(name: str) -> RepKindInfo:
    """Look up a rep_kind; unknown kinds get permissive defaults.

    Unknown kinds are allowed (the blueprint is extendable), but they are
    treated conservatively: assumed non-unitary and non-invertible so the
    validator will not silently compose them.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    return RepKindInfo(
        name=name,
        category="extension",
        unitary=False,
        invertible=False,
        description="unregistered extension rep_kind",
    )


def has_rep_kind(name: str) -> bool:
    """Whether *name* has been explicitly registered."""
    return name in _REGISTRY


def list_rep_kinds(category: Optional[str] = None) -> Tuple[str, ...]:
    """Names of registered kinds, optionally filtered by category."""
    names: Iterable[str] = (
        k for k, v in _REGISTRY.items() if category is None or v.category == category
    )
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# Standard vocabulary used by the algorithmic libraries shipped with repro.
# ---------------------------------------------------------------------------

STANDARD_REP_KINDS: Tuple[RepKindInfo, ...] = (
    # phase / transform templates --------------------------------------------
    RepKindInfo(
        name="QFT_TEMPLATE",
        category="phase",
        required_params=(),
        default_params={"approx_degree": 0, "do_swaps": True, "inverse": False},
        description="Quantum Fourier Transform template (Listing 3).",
    ),
    RepKindInfo(
        name="QPE_TEMPLATE",
        category="phase",
        required_params=("unitary",),
        description="Quantum phase estimation scaffolding over a phase register.",
    ),
    RepKindInfo(
        name="CONTROLLED_PHASE",
        category="phase",
        required_params=("angle",),
        description="Controlled phase / kickback gadget between two carriers.",
    ),
    RepKindInfo(
        name="SWAP_TEST",
        category="phase",
        measures=True,
        invertible=False,
        description="SWAP test producing an overlap estimate on an ancilla.",
    ),
    # state preparation --------------------------------------------------------
    RepKindInfo(
        name="PREP_UNIFORM",
        category="stateprep",
        invertible=True,
        description="Uniform superposition preparation (Hadamard on every carrier).",
    ),
    RepKindInfo(
        name="PREP_BASIS_STATE",
        category="stateprep",
        required_params=("value",),
        description="Prepare a computational basis state encoding a typed value.",
    ),
    RepKindInfo(
        name="PREP_AMPLITUDE",
        category="stateprep",
        required_params=("amplitudes",),
        description="Amplitude encoding of a normalised classical vector.",
    ),
    RepKindInfo(
        name="PREP_ANGLE",
        category="stateprep",
        required_params=("angles",),
        description="Angle encoding: one RY rotation per carrier.",
    ),
    # optimisation / Hamiltonian ----------------------------------------------
    RepKindInfo(
        name="ISING_COST_PHASE",
        category="optimization",
        required_params=("gamma",),
        description="QAOA cost layer: e^{-i gamma H_C} for an Ising Hamiltonian.",
    ),
    RepKindInfo(
        name="MIXER_RX",
        category="optimization",
        required_params=("beta",),
        description="QAOA transverse-field mixer layer: RX(2*beta) on every carrier.",
    ),
    RepKindInfo(
        name="ISING_PROBLEM",
        category="optimization",
        unitary=False,
        invertible=False,
        required_params=("h", "J"),
        description="Ising energy E(s) = sum h_i s_i + sum J_ij s_i s_j (Fig. 3).",
    ),
    RepKindInfo(
        name="QUBO_PROBLEM",
        category="optimization",
        unitary=False,
        invertible=False,
        required_params=("Q",),
        description="Quadratic unconstrained binary optimisation problem.",
    ),
    RepKindInfo(
        name="ISING_EVOLUTION",
        category="optimization",
        required_params=("time",),
        description="Time evolution under an Ising Hamiltonian for a given duration.",
    ),
    # arithmetic ----------------------------------------------------------------
    RepKindInfo(
        name="ADDER_TEMPLATE",
        category="arithmetic",
        description="In-place addition of a classical constant or second register.",
    ),
    RepKindInfo(
        name="MODULAR_ADDER_TEMPLATE",
        category="arithmetic",
        required_params=("modulus",),
        description="Addition modulo a classical modulus (Shor primitive).",
    ),
    RepKindInfo(
        name="MODULAR_MULT_TEMPLATE",
        category="arithmetic",
        required_params=("multiplier", "modulus"),
        description="Multiplication by a classical constant modulo a modulus.",
    ),
    RepKindInfo(
        name="COMPARATOR_TEMPLATE",
        category="arithmetic",
        required_params=("threshold",),
        description="Comparison against a classical threshold onto a flag carrier.",
    ),
    # boolean / conditional ------------------------------------------------------
    RepKindInfo(
        name="CONTROLLED_TEMPLATE",
        category="boolean",
        required_params=("target_rep_kind",),
        description="Controlled version of another operator descriptor.",
    ),
    RepKindInfo(
        name="CSWAP_TEMPLATE",
        category="boolean",
        description="Controlled-SWAP (Fredkin) between two registers.",
    ),
    RepKindInfo(
        name="MULTIPLEXER_TEMPLATE",
        category="boolean",
        required_params=("cases",),
        description="Select one of several operators based on a control register.",
    ),
    # measurement / structural ---------------------------------------------------
    RepKindInfo(
        name="MEASUREMENT",
        category="measurement",
        unitary=False,
        invertible=False,
        measures=True,
        description="Explicit measurement with an attached result schema.",
    ),
    RepKindInfo(
        name="RESET",
        category="structural",
        unitary=False,
        invertible=False,
        resets=True,
        description="Explicit reset of a register to |0...0>.",
    ),
    RepKindInfo(
        name="BARRIER",
        category="structural",
        unitary=True,
        invertible=True,
        description="Scheduling barrier; no semantic effect.",
    ),
    RepKindInfo(
        name="IDENTITY",
        category="structural",
        description="Identity transformation (useful for padding and tests).",
    ),
    # error correction -----------------------------------------------------------
    RepKindInfo(
        name="REPETITION_MEMORY",
        category="qec",
        unitary=False,
        invertible=False,
        measures=True,
        resets=True,
        required_params=("distance",),
        default_params={"rounds": 1},
        description=(
            "Bit-flip repetition-code memory: per-round ZZ syndrome "
            "extraction with ancilla measure+reset, then final data readout "
            "(all Clifford; runs on the stabilizer engine at any width)."
        ),
    ),
)

for _info in STANDARD_REP_KINDS:
    register_rep_kind(_info)
