"""Circuits realizing each factor of the transform.

Wire layout for the non-abelian families: the group element x^a y^b is
the basis state with a on qubits 0..n-1 (qubit 0 = least significant bit
of a) and b on qubit n.  Cyclic transforms act on n wires.

Every builder returns gates whose product equals the corresponding
matrix factor exactly (up to rounding); the tests enforce this against
`dft` and `synthesis`' `reorder_permutation`, `twiddle` and `equalizer`,
and the whole circuit against `synthesis.assemble`.  `qft_factors` is
the one place that lists the factors of the transform in temporal
order; `qft_circuit` and the CLI cost table are both read from it.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    Circuit,
    CNot,
    H_MATRIX,
    Local,
    MultiControlled,
    QubitPerm,
    X_MATRIX,
    Z_MATRIX,
    controlled,
    embed,
    frozen_matrix,
)
from .groups import Family, GroupSpec
from .linalg import as_int

__all__ = [
    "qft_cyclic_circuit",
    "increment_circuit",
    "reorder_circuit",
    "twiddle_circuit",
    "equalizer_circuit",
    "qft_factors",
    "qft_circuit",
]


def _phase(k: int) -> np.ndarray:
    """diag(1, exp(2 pi i / 2**k)), frozen, since gates share it."""
    return frozen_matrix([[1.0, 0.0], [0.0, np.exp(2j * np.pi / (1 << k))]])


def qft_cyclic_circuit(n: int) -> Circuit:
    """Fourier transform on Z_{2^n}: Hadamard-plus-phase cascade followed
    by a bit reversal."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("need n >= 1")
    # one array per distinct phase, shared by its gates as H_MATRIX is
    phases = {k: _phase(k) for k in range(2, n + 1)}
    gates: list = []
    for j in range(n - 1, -1, -1):
        gates.append(Local(H_MATRIX, j))
        for k in range(j - 1, -1, -1):
            gates.append(MultiControlled(phases[j - k + 1], ((k, True),), j))
    if n >= 2:
        gates.append(QubitPerm(tuple(reversed(range(n)))))
    return Circuit(n, tuple(gates))


def increment_circuit(n: int) -> Circuit:
    """|v> -> |v + 1 mod 2^n>: carry cascade from the top bit down."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("need n >= 1")
    gates: list = []
    for j in range(n - 1, 0, -1):
        if j == 1:
            gates.append(CNot(0, 1))
        else:
            gates.append(MultiControlled(
                X_MATRIX, tuple((k, True) for k in range(j)), j))
    gates.append(Local(X_MATRIX, 0))
    return Circuit(n, tuple(gates))


def reorder_circuit(G: GroupSpec) -> Circuit:
    """Width-n circuit for the character reordering P.

    The base order (0, 2^{n-1}, 1, -1, 2, -2, ...) is a decimation: cycle
    the qubits down, then on the odd branch (old top bit set) complement
    and add one, i.e. negate mod 2^n.  The qp order is a single qubit
    swap, and qd corrects the base order with one CNOT and one Toffoli.
    """
    if G.is_abelian:
        raise ValueError("nothing to reorder for the cyclic family")
    n = G.n
    if G.family is Family.QP:
        sigma = list(range(n))
        sigma[0], sigma[n - 1] = n - 1, 0
        return Circuit(n, (QubitPerm(tuple(sigma)),))
    gates: list = [QubitPerm((n - 1,) + tuple(range(n - 1)))]
    gates += [CNot(n - 1, j) for j in range(n - 1)]
    head = Circuit(n, tuple(gates)) + controlled(increment_circuit(n - 1))
    if G.family is not Family.QD:
        return head
    return head + Circuit(n, (
        CNot(0, n - 2),
        MultiControlled(X_MATRIX, ((0, True), (n - 2, True)), n - 1),
    ))


def twiddle_circuit(G: GroupSpec) -> Circuit:
    """Width-(n+1) circuit for D = I (+) rho_bar(y).

    On the y = 1 half each conjugate pair needs [[0, 1], [rho_i(y^2), 0]]:
    an X on qubit 0 wherever some higher bit is set, with the extendable
    positions (0 and 1 in the base layout) masked out.  The quaternion
    sign rho_i(y^2) = (-1)^i is a Z picked out by q0 = 0, q1 = 1.
    """
    if G.is_abelian:
        raise ValueError("the cyclic transform has no twiddle factor")
    n, y = G.n, G.n
    if G.family is Family.QP:
        return Circuit(n + 1, (
            MultiControlled(X_MATRIX, ((y, True), (n - 1, True)), 0),))
    negatives = tuple((q, False) for q in range(1, n))
    gates: list = [
        CNot(y, 0),
        MultiControlled(X_MATRIX, ((y, True),) + negatives, 0),
    ]
    if G.family is Family.QUATERNION:
        gates.insert(0, MultiControlled(Z_MATRIX, ((y, True), (0, False)), 1))
    return Circuit(n + 1, tuple(gates))


def equalizer_circuit(G: GroupSpec) -> Circuit:
    """Width-(n+1) circuit for C: -1 on the second coordinate of every
    conjugate pair in the y = 1 half, the Z-analogue of the twiddle."""
    if G.is_abelian:
        raise ValueError("the cyclic transform has no equalizer factor")
    n, y = G.n, G.n
    if G.family is Family.QP:
        return Circuit(n + 1, (
            MultiControlled(Z_MATRIX, ((y, True), (n - 1, True)), 0),))
    negatives = tuple((q, False) for q in range(1, n))
    return Circuit(n + 1, (
        MultiControlled(Z_MATRIX, ((y, True),), 0),
        MultiControlled(Z_MATRIX, ((y, True),) + negatives, 0),
    ))


def qft_factors(G: GroupSpec) -> tuple[tuple[str, Circuit], ...]:
    """Named full-width factor circuits of the transform, in temporal order.

    Matrix order B = (I (x) A P) D (H_y) C reads temporally as C first,
    then the Hadamard on the y wire, the twiddle, the reordering, and the
    cyclic transform on the x register.  The cyclic family is the single
    factor DFT_{2^n}.
    """
    if G.is_abelian:
        if G.n < 1:
            raise ValueError("the synthesis entry point needs n >= 1")
        return (("cyclic", qft_cyclic_circuit(G.n)),)
    w = G.n + 1
    return (
        ("equalizer", equalizer_circuit(G)),
        ("hadamard", Circuit(w, (Local(H_MATRIX, G.n),))),
        ("twiddle", twiddle_circuit(G)),
        ("reorder", embed(reorder_circuit(G), w)),
        ("cyclic", embed(qft_cyclic_circuit(G.n), w)),
    )


def qft_circuit(G: GroupSpec) -> Circuit:
    """Full transform circuit, the concatenation of `qft_factors`; its
    gate product equals assemble(G).b."""
    factors = qft_factors(G)
    return Circuit(factors[0][1].width,
                   tuple(g for _, f in factors for g in f.gates))
