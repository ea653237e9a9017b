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

The abelian base case returns B = DFT_{2^n} directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# induce is unused here (the tests keep it as the oracle for twiddle) but
# stays a module attribute: qftbench's tracer wraps synthesis.induce by name.
from .groups import (  # noqa: F401
    Family, GroupSpec, cyclic_irreps, extendable_indices, induce)
from .linalg import Matrix, dft, direct_sum, is_unitary, kron, perm_matrix

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
    """Transform matrix b together with the factors that produced it.

    Recomputing (I_2 (x) a p) d (dft(2) (x) I) c reproduces b exactly up
    to rounding; for the cyclic family the factors degenerate to
    b = a = DFT_{2^n} with p = d = c = I.
    """

    b: Matrix
    a: Matrix
    p: Matrix
    d: Matrix
    c: Matrix


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
    if G.is_abelian:
        raise ValueError("nothing to reorder for the cyclic family")
    m = G.cyclic_order
    half = m // 2
    if G.family in (Family.DIHEDRAL, Family.QUATERNION):
        seq = [0, half]
        for k in range(1, half):
            seq += [k, m - k]
        return tuple(seq)
    if G.family is Family.QP:
        top = G.n - 1
        out = []
        for j in range(m):
            low, high = j & 1, (j >> top) & 1
            s = (j & ~(1 | (1 << top))) | high | (low << top)
            out.append(s)
        return tuple(out)
    # qd
    quarter = m // 4
    base = reorder_sequence(GroupSpec(Family.DIHEDRAL, G.n))
    return tuple((v - quarter) % m if v & 1 else v for v in base)


def reorder_permutation(G: GroupSpec) -> Matrix:
    """Permutation matrix P with (A P)^-1 phi_N(x) (A P) reordered per
    reorder_sequence."""
    return perm_matrix(reorder_sequence(G))


def _layout(G: GroupSpec) -> list[tuple[int, int]]:
    """(position, character) walk of the reordered sum: one entry per
    summand, extendables of width 1 and conjugate pairs of width 2."""
    seq = reorder_sequence(G)
    ext = extendable_indices(G)
    out = []
    pos = 0
    while pos < len(seq):
        i = seq[pos]
        out.append((pos, i))
        pos += 1 if i in ext else 2
    return out


def twiddle(G: GroupSpec) -> Matrix:
    """D = rho_bar(1) (+) rho_bar(y) in the reordered layout.

    Extendable characters contribute the extension scalar epsilon with
    epsilon^2 = rho_i(y^2); rho_i(y^2) = 1 for every family here (y^2 is
    either trivial or x^(2^(n-1)) evaluated at an even character), so
    epsilon = 1 throughout.  Conjugate pairs contribute the y-image of the
    induced representation, [[0, 1], [rho_i(y^2), 0]].
    """
    m = G.cyclic_order
    ext = extendable_indices(G)
    irreps = cyclic_irreps(G.n)
    y_sq = G.multiply(G.y(), G.y())
    blocks = []
    for pos, i in _layout(G):
        rho_y_sq = irreps[i].evaluate(y_sq)[0, 0]
        if i in ext:
            if abs(rho_y_sq - 1.0) > 1e-12:
                raise AssertionError(
                    f"rho_{i}(y^2) = {rho_y_sq}, expected 1")
            blocks.append(np.eye(1, dtype=np.complex128))
        else:
            blocks.append(np.array([[0.0, 1.0], [rho_y_sq, 0.0]],
                                   dtype=np.complex128))
    block1 = direct_sum(blocks)
    return direct_sum([np.eye(m, dtype=np.complex128), block1])


def equalizer(G: GroupSpec) -> Matrix:
    """C: identity except a -1 on the second coordinate of every conjugate
    pair in the lambda_1 half, which maps lambda_1 . (rho_i induced) back
    to the induced representation itself."""
    m = G.cyclic_order
    ext = extendable_indices(G)
    diag = np.ones(2 * m, dtype=np.complex128)
    for pos, i in _layout(G):
        if i not in ext:
            diag[m + pos + 1] = -1.0
    return np.diag(diag)


def assemble(G: GroupSpec) -> DecompositionResult:
    """Build the full transform for G.

    Returns a DecompositionResult whose b satisfies: conjugating the right
    regular representation of G by b is block-diagonal with the census
    pattern, equivalent summands equal.
    """
    m = G.cyclic_order
    if G.is_abelian:
        if G.n < 1:
            raise ValueError("the synthesis entry point needs n >= 1")
        b = dft(m)
        eye = np.eye(m, dtype=np.complex128)
        return DecompositionResult(b=b, a=b, p=eye, d=eye, c=eye)
    a = dft(m)
    p = reorder_permutation(G)
    d = twiddle(G)
    c = equalizer(G)
    b = kron(np.eye(2), a @ p) @ d @ kron(dft(2), np.eye(m)) @ c
    if not is_unitary(b, 1e-10):
        raise AssertionError("assembled transform failed the unitarity check")
    return DecompositionResult(b=b, a=a, p=p, d=d, c=c)
