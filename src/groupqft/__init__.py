"""Fourier transforms on 2-groups with a cyclic subgroup of index 2.

Supported families: cyclic Z_{2^n} and its four non-abelian extensions
by Z_2 (dihedral, quaternion, quasidihedral, and the 2^{n-1}+1 twist).
`assemble` produces the transform matrix with its factorization,
`qft_circuit` the equivalent gate sequence, and `verify` grades both
against the regular representation.  The public names are each module's
`__all__`.
"""

from . import circuit, circuit_library, groups, linalg, synthesis, verify
from .circuit import *  # noqa: F403
from .circuit_library import *  # noqa: F403
from .groups import *  # noqa: F403
from .linalg import *  # noqa: F403
from .synthesis import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*circuit.__all__, *circuit_library.__all__, *groups.__all__,
           *linalg.__all__, *synthesis.__all__, *verify.__all__,
           "__version__"]
