"""Fourier transforms on 2-groups with a cyclic subgroup of index 2.

Supported families: cyclic Z_{2^n} and its four non-abelian extensions
by Z_2 (dihedral, quaternion, quasidihedral, and the 2^{n-1}+1 twist).
`assemble` produces the transform matrix with its factorization,
`qft_circuit` the equivalent gate sequence, and `verify` grades both
against the regular representation.
"""

from .circuit import (
    Circuit,
    CNot,
    Gate,
    Local,
    MultiControlled,
    QubitPerm,
    apply_to_state,
    controlled,
    cost,
    embed,
    gate_cost,
    to_matrix,
)
from .circuit_library import (
    equalizer_circuit,
    increment_circuit,
    qft_circuit,
    qft_cyclic_circuit,
    qft_factors,
    reorder_circuit,
    twiddle_circuit,
)
from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    Representation,
    cyclic_irreps,
    extendable_indices,
    induce,
    inner_conjugate,
    regular_representation,
)
from .linalg import dft, direct_sum, is_unitary, kron, perm_matrix
from .synthesis import (
    DecompositionResult,
    assemble,
    equalizer,
    reorder_permutation,
    reorder_sequence,
    twiddle,
)
from .verify import (
    VerificationReport,
    census,
    check_decomposition,
    circuit_matches,
    full_report,
    scaling_fit,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CNot", "Gate", "Local", "MultiControlled", "QubitPerm",
    "apply_to_state", "controlled", "cost", "embed", "gate_cost", "to_matrix",
    "equalizer_circuit", "increment_circuit", "qft_circuit",
    "qft_cyclic_circuit", "qft_factors", "reorder_circuit", "twiddle_circuit",
    "Family", "GroupElement", "GroupSpec", "Representation", "cyclic_irreps",
    "extendable_indices", "induce", "inner_conjugate",
    "regular_representation",
    "dft", "direct_sum", "is_unitary", "kron", "perm_matrix",
    "DecompositionResult", "assemble", "equalizer", "reorder_permutation",
    "reorder_sequence", "twiddle",
    "VerificationReport", "census", "check_decomposition", "circuit_matches",
    "full_report", "scaling_fit",
    "__version__",
]
