"""Dense complex linear algebra helpers used by the synthesis pipeline.

Everything works on plain ``numpy`` arrays of dtype complex128.  The only
convention worth spelling out is the permutation-matrix one: ``perm_matrix``
maps basis column ``e_j`` to ``e_{sigma(j)}`` (the 1 of column ``j`` sits in
row ``sigma(j)``), so ``perm_matrix`` is a left-action homomorphism:
``perm_matrix(sigma) @ perm_matrix(tau) == perm_matrix(sigma o tau)``.
"""

from __future__ import annotations

import operator
import reprlib
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.complex128]

__all__ = [
    "Matrix",
    "kron",
    "direct_sum",
    "dft",
    "perm_matrix",
    "is_unitary",
]


def as_int(value: object, what: str) -> int:
    """value as a Python int.  Python and numpy integers pass; a bool
    (Python's or numpy's), a float, a string or any other non-integer is a
    ValueError naming `what`, never truncated."""
    try:
        # operator.index takes a Python bool as 0 or 1 (it rejects np.bool_)
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(
            f"{what} must be an integer, got {value!r}") from None


def as_complex(a: object) -> np.ndarray:
    """`a` as a complex128 array; a ValueError if numpy cannot read it as
    numbers, never the TypeError that numpy raises for, say, a dict."""
    try:
        return np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError(f"matrix {reprlib.repr(a)} is not numeric") from None


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, first factor on the most significant index."""
    return np.kron(as_complex(a), as_complex(b))


def direct_sum(blocks: Sequence[Matrix]) -> Matrix:
    """Block-diagonal matrix assembled from ``blocks`` in order.

    Args:
        blocks: square matrices; the result has dimension equal to the sum
            of the block dimensions.
    """
    mats = [as_complex(m) for m in blocks]
    if not mats:
        raise ValueError("direct_sum of no blocks")
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"direct_sum needs square blocks, got {m.shape}")
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=np.complex128)
    offset = 0
    for m in mats:
        d = m.shape[0]
        out[offset:offset + d, offset:offset + d] = m
        offset += d
    return out


def dft(n: int) -> Matrix:
    """Unitary discrete Fourier matrix of size n.

    Entry (j, k) is omega^(j*k) / sqrt(n) with omega = exp(+2 pi i / n).
    ``dft(2)`` is the Hadamard gate.
    """
    n = as_int(n, "dft size")
    if n < 1:
        raise ValueError(f"dft size must be positive, got {n}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def perm_matrix(sigma: Sequence[int]) -> Matrix:
    """Permutation matrix of sigma in one-line notation.

    Column j carries its 1 in row sigma[j], i.e. e_j is mapped to
    e_{sigma[j]}.
    """
    sigma = [as_int(s, "permutation entry") for s in sigma]
    m = len(sigma)
    if sorted(sigma) != list(range(m)):
        raise ValueError("sigma is not a permutation of 0..m-1")
    out = np.zeros((m, m), dtype=np.complex128)
    out[sigma, np.arange(m)] = 1.0
    return out


def is_unitary(a: Matrix, eps: float = 1e-10) -> bool:
    """True when max-entry defect of a a^dagger from the identity is < eps."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    defect = a @ a.conj().T - np.eye(a.shape[0])
    return bool(np.max(np.abs(defect)) < eps)
