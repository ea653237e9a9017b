"""Fourier transform assembly for the supported group families.

For the non-abelian families the transform on C[G] is built from the
one-step recursion over the index-2 normal subgroup <x>:

    B = (I_2 (x) A P) . D . (DFT_2 (x) I_{2^n}) . C

where A = DFT_{2^n} diagonalizes the regular representation of <x>, P
reorders its characters so that y-conjugate pairs sit next to each other
(extendable ones first), D is the twiddle I (+) rho_bar(y), and C flips
signs so equivalent summands of the result come out equal.  The general
recursion also conjugates by an M that equalizes conjugate summands; every
character of Z_{2^n} has degree 1, so M is the identity and is left out.

Only A is dense: P is an index order, D a signed swap of each conjugate
pair, and C a sign vector, so `assemble` gathers B from A's columns; the
tests multiply out the factor matrices as its oracle.  B is a product of
unitaries, so `assemble` checks the factor structure in O(|G|), not B B^H:
that B B^H = I follows exactly once A is unitary, P is a permutation and
D and C carry only signs.  `verify.check_decomposition` measures B's
unitarity independently.

The abelian base case returns B = DFT_{2^n} directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# induce and kron are unused here but stay module attributes: qftbench's
# tracer wraps synthesis.induce and synthesis.kron by name.
from .groups import (  # noqa: F401
    Family, GroupSpec, _extendables, induce)
from .linalg import Matrix, dft, kron, perm_matrix  # noqa: F401

__all__ = [
    "DecompositionResult",
    "reorder_sequence",
    "reorder_permutation",
    "twiddle",
    "equalizer",
    "assemble",
]


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """The transform b: DFT_{2^n} for the cyclic family, else the product
    of `dft`, `reorder_permutation`, `twiddle` and `equalizer` above."""

    b: Matrix


def _sequence(G: GroupSpec) -> np.ndarray:
    """reorder_sequence as an array."""
    if G.is_abelian:
        raise ValueError("nothing to reorder for the cyclic family")
    m = G.cyclic_order
    if G.family is Family.QP:
        # the lowest and highest index bits are the outer axes of this view
        return np.arange(m).reshape(2, -1, 2).transpose(2, 1, 0).ravel()
    # decimation: row k holds the pair (k, -k), and row 0 the extendables
    k = np.arange(m // 2)
    seq = np.stack([k, m - k], axis=1)
    seq[0, 1] = m // 2
    if G.family is Family.QD:
        # row k holds odd characters exactly when k is odd
        seq[1::2] = (seq[1::2] - m // 4) % m
    return seq.ravel()


def reorder_sequence(G: GroupSpec) -> tuple[int, ...]:
    """Target character order: position k of the reordered direct sum
    holds rho_{seq[k]}.

    Extendable characters come first, then each y-conjugate pair (i, i*r)
    adjacently.  The concrete order is chosen so the permutation has a
    cheap circuit:

      dihedral/quaternion: 0, 2^(n-1), 1, -1, 2, -2, ...   (decimation)
      qp: swap of the lowest and highest index bits
      qd: the dihedral order pulled back through v -> v + 2^(n-2)*(v odd),
          which conjugates y-conjugation into plain negation
    """
    return tuple(_sequence(G).tolist())


def reorder_permutation(G: GroupSpec) -> Matrix:
    """Permutation matrix P with (A P)^-1 phi_N(x) (A P) reordered per
    reorder_sequence."""
    return perm_matrix(reorder_sequence(G))


def _pairs(G: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reordered-sum position of each y-conjugate pair's first character i,
    and its sign rho_i(y^2) = omega^(i q): the pairs follow the extendables
    two apart (reorder_sequence's contract), and q is 0 or 2^(n-1), so the
    sign is exactly 1, or (-1)^i for the quaternion family."""
    m = G.cyclic_order
    seq = _sequence(G)
    pos = np.arange(len(_extendables(G)), m, 2)
    sign = np.where(seq[pos] * G.y_square_exponent % m == 0, 1.0, -1.0)
    return pos, sign


def twiddle(G: GroupSpec) -> Matrix:
    """D = rho_bar(1) (+) rho_bar(y) in the reordered layout.

    Extendable characters contribute the extension scalar epsilon with
    epsilon^2 = rho_i(y^2) = omega^(i q); every extendable i has
    i q = 0 mod 2^n, so epsilon = 1 throughout.  Conjugate pairs contribute
    the y-image of the induced representation, [[0, 1], [rho_i(y^2), 0]].
    """
    m = G.cyclic_order
    pos, sign = _pairs(G)
    top = m + pos
    d = np.eye(2 * m, dtype=np.complex128)
    d[top, top] = d[top + 1, top + 1] = 0.0
    d[top, top + 1], d[top + 1, top] = 1.0, sign
    return d


def equalizer(G: GroupSpec) -> Matrix:
    """C: identity except a -1 on the second coordinate of every conjugate
    pair in the lambda_1 half, which maps lambda_1 . (rho_i induced) back
    to the induced representation itself."""
    m = G.cyclic_order
    pos, _ = _pairs(G)
    diag = np.ones(2 * m, dtype=np.complex128)
    diag[m + pos + 1] = -1.0
    return np.diag(diag)


def _is_permutation(idx: np.ndarray, m: int) -> bool:
    """True when idx lists each of 0..m-1 exactly once, in O(m)."""
    return (idx.shape == (m,) and idx.min() >= 0 and idx.max() < m
            and bool(np.all(np.bincount(idx, minlength=m) == 1)))


def assemble(G: GroupSpec) -> DecompositionResult:
    """Build the full transform for G.

    Conjugating the right regular representation of G by b is block-
    diagonal with the census pattern, equivalent summands equal.  With A
    scaled by 1/sqrt(2), b = [[A P, A P c], [A P T, -A P T c]], T the
    y-half of D and c that of C: A P lists A's columns in reorder_sequence
    order, and A P T also swaps each pair's two columns and scales the
    first by rho_i(y^2).

    The unitarity guard is exact and O(|G|): with top = A P and
    bottom = A P T, b b^H = diag(2 top top^H, 2 bottom bottom^H) as c^2 = 1,
    and each of these is A A^H = I / 2 when the column orders `seq` and
    `swapped` are permutations and the scales s and c are all +-1.  So
    those four conditions are checked instead of forming b b^H.
    """
    m = G.cyclic_order
    if G.is_abelian:
        if G.n < 1:
            raise ValueError("the synthesis entry point needs n >= 1")
        return DecompositionResult(b=dft(m))
    seq = _sequence(G)
    pos, sign = _pairs(G)
    swapped = seq.copy()
    swapped[pos], swapped[pos + 1] = seq[pos + 1], seq[pos]
    s, c = np.ones(m), np.ones(m)
    s[pos], c[pos + 1] = sign, -1.0
    if not (_is_permutation(seq, m) and _is_permutation(swapped, m)
            and np.all(np.abs(s) == 1) and np.all(np.abs(c) == 1)):
        raise AssertionError("assembled transform failed the unitarity check")
    a = dft(m) / np.sqrt(2)
    # the quadrants of b, filled in place, in the Fortran order that
    # gathering A's columns gives
    b = np.empty((2 * m, 2 * m), dtype=np.complex128, order="F")
    top, top_c = b[:m, :m], b[:m, m:]
    bottom, bottom_c = b[m:, :m], b[m:, m:]
    np.take(a, seq, axis=1, out=top)
    np.multiply(top, c, out=top_c)
    np.take(a, swapped, axis=1, out=bottom)
    np.multiply(bottom, s, out=bottom)
    # -bottom * c in that order: bottom * -c gives some zeros the other sign
    np.negative(bottom, out=bottom_c)
    np.multiply(bottom_c, c, out=bottom_c)
    return DecompositionResult(b=b)
