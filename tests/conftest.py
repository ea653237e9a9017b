"""Shared randomized-input helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from groupqft.circuit import (
    H_MATRIX,
    X_MATRIX,
    Z_MATRIX,
    Circuit,
    CNot,
    Local,
    MultiControlled,
    QubitPerm,
)

angles = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def unitaries(draw) -> np.ndarray:
    """Exact X/Z/H, or e^{i delta} times the general SU(2)-style form."""
    fixed = draw(st.sampled_from((None, X_MATRIX, Z_MATRIX, H_MATRIX)))
    if fixed is not None:
        return fixed
    theta, phi, lam, delta = (draw(angles) for _ in range(4))
    cos, sin = np.cos(theta), np.sin(theta)
    return np.exp(1j * delta) * np.array([
        [cos, -np.exp(1j * lam) * sin],
        [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos],
    ])


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng: np.random.Generator, width: int,
                   n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            gates.append(Local(random_unitary(rng, 2),
                               int(rng.integers(0, width))))
        elif kind == 1 and width >= 2:
            c, t = rng.choice(width, size=2, replace=False)
            gates.append(CNot(int(c), int(t)))
        elif kind == 2 and width >= 2:
            k = int(rng.integers(1, width))
            qubits = rng.choice(width, size=k + 1, replace=False)
            controls = tuple(
                (int(q), bool(rng.integers(0, 2))) for q in qubits[:-1])
            gates.append(MultiControlled(random_unitary(rng, 2), controls,
                                         int(qubits[-1])))
        else:
            gates.append(QubitPerm(tuple(int(s) for s in rng.permutation(width))))
    return Circuit(width, tuple(gates))


def random_phase_circuit(rng: np.random.Generator, width: int,
                         n_runs: int) -> Circuit:
    """Runs of diag(1, z) gates, each run on one target with random
    controls and polarities, every run followed by one `random_circuit`
    gate (dense 2x2 or permutation)."""
    gates = []
    for _ in range(n_runs):
        t = int(rng.integers(0, width))
        others = [q for q in range(width) if q != t]
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(0, width))
            controls = tuple((int(q), bool(rng.integers(0, 2)))
                             for q in rng.permutation(others)[:k])
            u = np.diag([1.0, np.exp(2j * np.pi * rng.random())])
            gates.append(MultiControlled(u, controls, t) if controls
                         else Local(u, t))
        gates.extend(random_circuit(rng, width, 1).gates)
    return Circuit(width, tuple(gates))


def random_diagonal_circuit(rng: np.random.Generator, width: int,
                            n_steps: int) -> Circuit:
    """Runs of diagonal gates among Hadamards and `random_circuit` gates.

    Half of the steps are a run of one to three diagonal gates on one
    target, each with up to three controls of random polarity, and half
    of those gates are a general diag(a, b) with a != 1, which is not a
    phase gate.  A quarter are Hadamards, so that windows hold mixing
    gates to fuse, and the rest one `random_circuit` gate (dense 2x2,
    CNOT, multi-controlled or a permutation)."""
    gates = []
    for _ in range(n_steps):
        kind = int(rng.integers(0, 4))
        if kind < 2:
            t = int(rng.integers(0, width))
            others = [q for q in range(width) if q != t]
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(0, min(3, width - 1) + 1))
                controls = tuple((int(q), bool(rng.integers(0, 2)))
                                 for q in rng.permutation(others)[:k])
                a = np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5 \
                    else 1.0
                u = np.diag([a, np.exp(2j * np.pi * rng.random())])
                gates.append(MultiControlled(u, controls, t) if controls
                             else Local(u, t))
        elif kind == 2:
            gates.append(Local(H_MATRIX, int(rng.integers(0, width))))
        else:
            gates.extend(random_circuit(rng, width, 1).gates)
    return Circuit(width, tuple(gates))
