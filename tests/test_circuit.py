from __future__ import annotations

import dataclasses
import functools
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    random_circuit,
    random_diagonal_circuit,
    random_phase_circuit,
    random_unitary,
    unitaries,
)
from groupqft import circuit as circuit_module
from groupqft import circuit_library
from groupqft.circuit import (
    GATE_EPS,
    Circuit,
    CNot,
    H_MATRIX,
    Local,
    MultiControlled,
    QubitPerm,
    X_MATRIX,
    Z_MATRIX,
    apply_to_state,
    controlled,
    cost,
    embed,
    gate_cost,
    to_matrix,
)
from groupqft.circuit_library import (
    increment_circuit,
    qft_circuit,
    qft_cyclic_circuit,
)
from groupqft.cli import format_circuit, parse_circuit
from groupqft.groups import Family, GroupSpec
from groupqft.linalg import dft, direct_sum, is_unitary, kron
from groupqft.synthesis import assemble


def test_gate_validation():
    with pytest.raises(ValueError):
        Local(np.diag([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        Local(np.eye(3), 0)
    with pytest.raises(ValueError):
        CNot(1, 1)
    with pytest.raises(ValueError):
        MultiControlled(X_MATRIX, (), 0)
    with pytest.raises(ValueError):
        MultiControlled(X_MATRIX, ((1, True), (1, False)), 0)
    with pytest.raises(ValueError):
        MultiControlled(X_MATRIX, ((0, True),), 0)
    with pytest.raises(ValueError):
        QubitPerm((0, 0, 1))


def _gate_check_agrees_with_is_unitary(u) -> bool:
    """Local and MultiControlled both accept u exactly when the dense
    `is_unitary(u, GATE_EPS)` does; returns that verdict."""
    with np.errstate(invalid="ignore", over="ignore"):
        want = is_unitary(np.asarray(u, dtype=np.complex128), GATE_EPS)
    for make in (lambda m: Local(m, 0),
                 lambda m: MultiControlled(m, ((1, False),), 0)):
        try:
            make(u)
        except ValueError as exc:
            assert str(exc) == "gate matrix is not unitary"
            assert not want, u
        else:
            assert want, u
    return want


# (1 + delta) u has row-norm defects of about 2 delta, so the verdict
# flips between |delta| = 4e-13 and 6e-13, on either side of GATE_EPS
SCALES = {0.0: True, 1e-13: True, -1e-13: True, 4e-13: True, -4e-13: True,
          6e-13: False, -6e-13: False, 1e-9: False, -1e-9: False}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(unitaries())
def test_gate_check_straddles_the_threshold_like_is_unitary(u):
    for delta, accepted in SCALES.items():
        assert _gate_check_agrees_with_is_unitary((1 + delta) * u) == accepted


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_gate_check_rejects_non_finite_entries(entry, part, value):
    u = np.eye(2, dtype=np.complex128)
    u.view(np.float64).reshape(2, 2, 2)[entry + (part,)] = value
    assert not _gate_check_agrees_with_is_unitary(u)


@pytest.mark.parametrize("u, accepted", [
    (np.array([[0, 1], [1, 0]]), True),
    (np.array([[1, 0], [0, 2]]), False),
    (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), True),
    (np.array([[1.0, 0.0], [0.0, 1.5]]), False),
    ([[0, 1j], [1j, 0]], True),
    ([[1, 0], [0, 1 + 1e-12]], False),
    (np.diag([1.0, 2.0]), False),            # only the second row's norm
    ([[1, 1], [0, 1]], False),
    ([[1, 0], [1, 0]], False),               # only the off-diagonal term
], ids=["int-x", "int-diag", "real-h", "real-diag", "list-iy", "list-edge",
        "diag12", "shear", "equal-rows"])
def test_gate_check_on_integer_real_and_list_inputs(u, accepted):
    assert _gate_check_agrees_with_is_unitary(u) == accepted


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(2, (Local(X_MATRIX, 2),))
    with pytest.raises(ValueError):
        Circuit(3, (QubitPerm((1, 0)),))
    with pytest.raises(ValueError):
        Circuit(2, ()) + Circuit(3, ())


def test_shared_gate_matrices_are_read_only():
    # every CNot's u is X_MATRIX and library gates share H_MATRIX, so a
    # write through one gate would rewrite them all after their checks
    cnot = CNot(0, 1)
    assert cnot.u is X_MATRIX
    for u in (X_MATRIX, Z_MATRIX, H_MATRIX, cnot.u):
        assert u.flags.owndata
        with pytest.raises(ValueError):
            u[0, 1] = 5
    assert cnot.flip and np.array_equal(CNot(1, 0).u, [[0, 1], [1, 0]])


NON_INTEGER_QUBITS = {
    "local-target": lambda: Local(H_MATRIX, 1.5),
    "cnot-control": lambda: CNot(0.0, 1),
    "cnot-target": lambda: CNot(0, np.float64(1.0)),
    "mcu-control": lambda: MultiControlled(X_MATRIX, ((0.5, True),), 1),
    "mcu-target": lambda: MultiControlled(X_MATRIX, ((0, True),), 1.0),
    "perm": lambda: QubitPerm((1.0, 0.0)),
    "text": lambda: Local(H_MATRIX, "1"),
}


@pytest.mark.parametrize("make", NON_INTEGER_QUBITS.values(),
                         ids=NON_INTEGER_QUBITS.keys())
def test_non_integer_qubit_is_rejected_at_construction(make):
    with pytest.raises(ValueError, match="qubit index must be an integer"):
        make()


def test_numpy_integer_qubits_are_stored_as_ints():
    gates = (Local(H_MATRIX, np.int64(2)), CNot(np.int32(0), np.int64(1)),
             MultiControlled(X_MATRIX, ((np.int64(0), np.bool_(True)),),
                             np.int8(2)),
             QubitPerm((np.int64(1), np.int64(2), np.int64(0))))
    plain = (Local(H_MATRIX, 2), CNot(0, 1),
             MultiControlled(X_MATRIX, ((0, True),), 2), QubitPerm((1, 2, 0)))
    for g, h in zip(gates, plain):
        qubits = g.sigma if isinstance(g, QubitPerm) \
            else (g.target,) + tuple(q for q, _ in g.controls)
        assert all(type(q) is int for q in qubits), g
        assert g.span == h.span
    assert gates[1] == plain[1] and gates[3] == plain[3]
    assert np.array_equal(to_matrix(Circuit(3, gates)),
                          to_matrix(Circuit(3, plain)))


def test_numpy_integer_width_is_stored_as_int():
    for width in (3, np.int64(3), np.int8(3), np.uint16(3)):
        c = Circuit(width, (CNot(0, 2),))
        assert type(c.width) is int and c.width == 3
        # |q2 q1 q0> = |001> -> |101>
        assert np.array_equal(apply_to_state(c, np.eye(8)[1]), np.eye(8)[5])


@pytest.mark.parametrize("gate, span", [
    (Local(H_MATRIX, 3), (3, 3)),
    (CNot(4, 1), (1, 4)),
    (CNot(1, 4), (1, 4)),
    (MultiControlled(X_MATRIX, ((2, True), (5, False)), 3), (2, 5)),
    (MultiControlled(Z_MATRIX, ((2, True),), 0), (0, 2)),
    (MultiControlled(X_MATRIX, ((2, False), (0, True)), 6), (0, 6)),
    (QubitPerm((2, 0, 1)), (0, 2)),
    (QubitPerm((0,)), (0, 0)),
], ids=["local", "cnot-down", "cnot-up", "mcu-inner", "mcu-low-target",
        "mcu-high-target", "perm", "perm-1"])
def test_span_is_the_lowest_and_highest_qubit(gate, span):
    assert gate.span == span
    assert "span" not in {f.name for f in dataclasses.fields(gate)}


CIRCUIT_ERRORS = {
    "no-qubits": (lambda: Circuit(0), "circuit needs at least one qubit"),
    "width-float": (lambda: Circuit(2.5, (Local(H_MATRIX, 1),)),
                    "circuit width must be an integer, got 2.5"),
    "width-numpy-float": (lambda: Circuit(np.float64(3.0)),
                          "circuit width must be an integer, got "
                          "np.float64(3.0)"),
    "width-text": (lambda: Circuit("3", ()),
                   "circuit width must be an integer, got '3'"),
    "local-at-width": (lambda: Circuit(2, (Local(X_MATRIX, 2),)),
                       "qubit 2 outside width 2"),
    "local-negative": (lambda: Circuit(2, (Local(X_MATRIX, -1),)),
                       "qubit -1 outside width 2"),
    "cnot-control": (lambda: Circuit(3, (CNot(3, 0),)),
                     "qubit 3 outside width 3"),
    "cnot-target": (lambda: Circuit(3, (CNot(0, 4),)),
                    "qubit 4 outside width 3"),
    "mcu-control": (lambda: Circuit(3, (
        MultiControlled(X_MATRIX, ((1, True), (5, False)), 0),)),
        "qubit 5 outside width 3"),
    "mcu-negative-control": (lambda: Circuit(3, (
        MultiControlled(X_MATRIX, ((-2, True),), 1),)),
        "qubit -2 outside width 3"),
    # with several qubits outside, the target is named first, then the
    # controls in order
    "mcu-target-first": (lambda: Circuit(3, (
        MultiControlled(X_MATRIX, ((-1, True),), 7),)),
        "qubit 7 outside width 3"),
    "mcu-controls-in-order": (lambda: Circuit(3, (
        MultiControlled(X_MATRIX, ((1, True), (6, True), (-4, False)), 0),)),
        "qubit 6 outside width 3"),
    "later-gate": (lambda: Circuit(3, (Local(X_MATRIX, 0), CNot(1, 2),
                                       Local(X_MATRIX, 3))),
                   "qubit 3 outside width 3"),
    "perm-shorter": (lambda: Circuit(3, (QubitPerm((1, 0)),)),
                     "permutation length differs from width"),
    "perm-longer": (lambda: Circuit(2, (QubitPerm((2, 0, 1)),)),
                    "permutation length differs from width"),
    "add-widths": (lambda: Circuit(2, ()) + Circuit(3, ()),
                   "cannot concatenate circuits of different widths"),
    "embed-narrower": (lambda: embed(Circuit(3, (CNot(0, 2),)), 2),
                       "target width smaller than circuit width"),
}


@pytest.mark.parametrize("make, message", CIRCUIT_ERRORS.values(),
                         ids=CIRCUIT_ERRORS.keys())
def test_circuit_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_add_and_embed_check_every_gate_of_the_result():
    a = Circuit(3, (QubitPerm((1, 2, 0)), CNot(2, 0)))
    b = Circuit(3, (MultiControlled(X_MATRIX, ((0, True),), 2),))
    assert (a + b).gates == a.gates + b.gates
    wide = embed(a + b, 5)
    assert wide.gates[0] == QubitPerm((1, 2, 0, 3, 4))
    assert wide.gates[0].span == (0, 4)
    assert wide.gates[1:] == (a + b).gates[1:]
    # a permutation is checked against the width it lands in
    with pytest.raises(ValueError, match="permutation length"):
        Circuit(5, a.gates)
    with pytest.raises(ValueError, match="permutation length"):
        Circuit(3, wide.gates)


def test_to_matrix_empty_is_identity():
    assert np.array_equal(to_matrix(Circuit(3)), np.eye(8))


def test_cnot_matrix_msb_control():
    # control on qubit 1 (more significant), target qubit 0: swaps |10> and |11>
    m = to_matrix(Circuit(2, (CNot(1, 0),)))
    assert np.array_equal(m, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]])


def test_local_embedding():
    u = random_unitary(np.random.default_rng(0), 2)
    m = to_matrix(Circuit(3, (Local(u, 1),)))
    assert np.allclose(m, kron(np.eye(2), kron(u, np.eye(2))))


def test_qubitperm_register_action():
    # qubit cycle 0->2->1->0 moves register states in cycles (1 4 2)(3 5 6)
    m = to_matrix(Circuit(3, (QubitPerm((2, 0, 1)),)))
    image = [int(np.argmax(m[:, v])) for v in range(8)]
    assert image == [0, 4, 1, 5, 2, 6, 3, 7]


def test_negative_controls():
    g = MultiControlled(X_MATRIX, ((1, False),), 0)
    m = to_matrix(Circuit(2, (g,)))
    # fires on |00>,|01> (control reads 0), idles on the control=1 half
    assert np.array_equal(m, [[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])


def test_qubitperm_conjugates_local_gates():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    sigma = (2, 0, 3, 1)
    p = to_matrix(Circuit(4, (QubitPerm(sigma),)))
    for q in range(4):
        lhs = p @ to_matrix(Circuit(4, (Local(u, q),))) @ p.conj().T
        want = to_matrix(Circuit(4, (Local(u, sigma[q]),)))
        assert np.max(np.abs(lhs - want)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_random_circuits_unitary_and_composition(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 6))
    c1 = random_circuit(rng, width, int(rng.integers(1, 12)))
    c2 = random_circuit(rng, width, int(rng.integers(1, 12)))
    m1, m2 = to_matrix(c1), to_matrix(c2)
    assert np.max(np.abs(m1 @ m1.conj().T - np.eye(1 << width))) < 1e-10
    assert np.max(np.abs(to_matrix(c1 + c2) - m2 @ m1)) < 1e-12


def fully_controlled_circuit(rng: np.random.Generator, width: int) -> Circuit:
    """One gate per target, controlled by every other qubit, mixed polarity."""
    return Circuit(width, tuple(
        MultiControlled(random_unitary(rng, 2), tuple(
            (q, bool(rng.integers(0, 2))) for q in range(width) if q != t), t)
        for t in range(width)))


# ints: random circuits; "fullW": fully_controlled_circuit at width W, where
# each 2x2 update selects a single pair of amplitudes; "phaseK": phase runs
# mixed with dense gates and permutations
@pytest.mark.parametrize("case", [*range(8), "full2", "full3", "full4",
                                  *(f"phase{k}" for k in range(6))])
def test_apply_to_state_matches_matrix(case):
    if isinstance(case, int):
        rng = np.random.default_rng(100 + case)
        c = random_circuit(rng, int(rng.integers(1, 7)), 15)
    elif case.startswith("phase"):
        rng = np.random.default_rng(600 + int(case.removeprefix("phase")))
        c = random_phase_circuit(rng, int(rng.integers(1, 8)), 6)
    else:
        rng = np.random.default_rng(300)
        c = fully_controlled_circuit(rng, int(case.removeprefix("full")))
    dim = 1 << c.width
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state /= np.linalg.norm(state)
    assert np.max(np.abs(apply_to_state(c, state) - to_matrix(c) @ state)) < 1e-10


def test_apply_to_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_to_state(Circuit(2), np.zeros(3))


@pytest.mark.parametrize("real", [False, True])
def test_apply_to_state_leaves_input_unchanged(real):
    rng = np.random.default_rng(77)
    state = rng.standard_normal(16)
    if not real:
        state = state + 1j * rng.standard_normal(16)
    batch = np.stack([state, state[::-1], 2 * state])
    before = state.copy(), batch.copy()
    for c in (Circuit(4), random_circuit(rng, 4, 20)):
        for x in (state, batch):
            out = apply_to_state(c, x)
            assert out.shape == x.shape and out.dtype == np.complex128
            assert not np.shares_memory(out, x)
        assert np.array_equal(state, before[0])
        assert np.array_equal(batch, before[1])


# Reference simulator: pure-Python bit-mask loops over basis-state indices,
# independent of apply_to_state's tensor views and of to_matrix.

def _apply_2x2_loop(state, u, tbit, pos_mask, neg_mask):
    out = state.copy()
    for i in range(state.shape[0]):
        if i & tbit:
            continue
        if (i & pos_mask) == pos_mask and (i & neg_mask) == 0:
            j = i | tbit
            a0 = state[i]
            a1 = state[j]
            out[i] = u[0, 0] * a0 + u[0, 1] * a1
            out[j] = u[1, 0] * a0 + u[1, 1] * a1
    return out


def _apply_perm_loop(state, sigma):
    out = np.empty_like(state)
    for i in range(state.shape[0]):
        out[sum(((i >> q) & 1) << s for q, s in enumerate(sigma))] = state[i]
    return out


def reference_apply(g, state):
    """Apply one gate with the bit-mask loops; also return the mask of
    amplitudes the gate may change."""
    idx = np.arange(state.shape[0])
    if isinstance(g, QubitPerm):
        return _apply_perm_loop(state, g.sigma), np.ones(idx.shape, bool)
    if isinstance(g, Local):
        u, controls = g.u, ()
    elif isinstance(g, CNot):
        u, controls = X_MATRIX, ((g.control, True),)
    else:
        u, controls = g.u, g.controls
    pos = sum(1 << q for q, p in controls if p)
    neg = sum(1 << q for q, p in controls if not p)
    fires = ((idx & pos) == pos) & ((idx & neg) == 0)
    return _apply_2x2_loop(state, u, 1 << g.target, pos, neg), fires


def test_apply_to_state_matches_bitmask_reference():
    rng = np.random.default_rng(42)
    width = 6
    state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u = random_unitary(rng, 2)
    gates = [Local(u, 0), Local(u, 3), Local(u, 5), CNot(4, 1), CNot(0, 5),
             MultiControlled(u, ((0, True), (3, False)), 2),
             MultiControlled(u, ((5, False), (1, True), (2, False)), 0),
             MultiControlled(u, tuple((q, q % 2 == 0) for q in range(5)), 5),
             QubitPerm((1, 0, 2, 3, 4, 5)),
             QubitPerm(tuple(int(s) for s in rng.permutation(width)))]
    for g in gates:
        got = apply_to_state(Circuit(width, (g,)), state)
        want, fires = reference_apply(g, state)
        assert np.max(np.abs(got - want)) < 1e-12, g
        # amplitudes whose controls do not match pass through bit for bit
        assert np.array_equal(got[~fires], state[~fires]), g


def _diag(a, b):
    return np.diag([a, b]).astype(np.complex128)


def _phase_gate(rng, controls, target):
    """diag(1, z) on `target` for a random unit z, fired by `controls`."""
    u = _diag(1.0, np.exp(2j * np.pi * rng.random()))
    return MultiControlled(u, controls, target) if controls else Local(u, target)


def _phase_run_cases():
    """(width, gates) per fuser edge case; the phase values are random."""
    rng = np.random.default_rng(700)
    ph = functools.partial(_phase_gate, rng)
    ab = _diag(np.exp(0.7j), np.exp(-1.9j))
    return {
        "broken_by_dense": (5, [
            ph(((0, True),), 2), ph(((1, True),), 2), Local(H_MATRIX, 2),
            ph(((3, True),), 2), Local(random_unitary(rng, 2), 0),
            ph(((0, True),), 2)]),
        "broken_by_perm": (5, [
            ph(((0, True),), 2), ph(((1, False),), 2),
            QubitPerm((0, 1, 4, 3, 2)), ph(((3, True),), 2),
            QubitPerm((1, 2, 3, 4, 0)), ph(((0, True),), 2)]),
        "broken_by_target": (5, [
            ph(((0, True),), 2), ph(((0, True),), 3), ph(((1, True),), 2),
            ph(((2, True),), 3), ph(((4, False),), 1), ph(((4, True),), 2)]),
        "negative_polarity": (5, [
            ph(((1, False),), 3), ph(((0, True),), 3), ph(((4, False),), 3),
            ph(((1, False),), 3)]),
        "two_controls": (5, [
            ph(((0, True),), 2), ph(((0, True), (4, False)), 2),
            ph(((1, False), (3, True)), 2), ph(((3, True),), 2)]),
        "diag_and_z": (5, [
            MultiControlled(ab, ((1, True),), 0),
            MultiControlled(ab, ((4, True),), 3),
            ph(((1, True),), 0), Local(Z_MATRIX, 2),
            MultiControlled(Z_MATRIX, ((0, False),), 2), ph(((0, True),), 2),
            MultiControlled(ab, ((2, False), (4, True)), 0)]),
        "top_qubit": (5, [ph((), 4), *(ph(((k, True),), 4) for k in range(4))]),
        "bottom_qubit": (5, [*(ph(((k, k % 2 == 1),), 0) for k in range(1, 5)),
                             ph((), 0)]),
        # fullW-style: controls and target fix every axis, in runs of two
        "all_axes_fixed": (4, [
            *(ph(tuple((q, (q + t + s) % 2 == 0) for q in range(4) if q != t), t)
              for t in range(4) for s in range(2)),
            *(MultiControlled(ab, tuple((q, q != t + 1) for q in range(4)
                                        if q != t), t) for t in range(4))]),
        # twelve one-control factors on one target pass the fused tensor's
        # 2**10 entries, and an eleven-control phase gate is too large to
        # fuse at all
        "past_the_cap": (13, [
            *(ph(((k, k % 3 != 0),), 12) for k in range(11, -1, -1)),
            ph(tuple((k, k % 2 == 0) for k in range(11)), 12),
            ph(((0, True),), 12)]),
    }


def _is_diagonal(g):
    return not isinstance(g, QubitPerm) and g.u[0, 1] == 0 and g.u[1, 0] == 0


@pytest.mark.parametrize("name", list(_phase_run_cases()))
def test_phase_runs_match_references(name):
    width, gates = _phase_run_cases()[name]
    c = Circuit(width, tuple(gates))
    rng = np.random.default_rng(701)
    dim = 1 << width
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    got = apply_to_state(c, state)
    want = state
    changed = np.zeros(dim, bool)
    for g in gates:
        want, fires = reference_apply(g, want)
        if _is_diagonal(g):
            # a diag(1, z) gate changes only the target-1 half of its block
            target_1 = (np.arange(dim) >> g.target) & 1 == 1
            changed |= fires & (target_1 | (g.u[0, 0] != 1))
    assert np.max(np.abs(got - want)) < 1e-12
    if width <= 8:
        assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    if all(_is_diagonal(g) for g in gates):
        # amplitudes outside every gate's target-1, control-matched set
        # pass through bit for bit
        assert np.array_equal(got[~changed], state[~changed])
        assert changed.any() and not changed.all()


@pytest.mark.parametrize("n", range(1, 17))
def test_cyclic_circuit_state_matches_fft(n):
    # past the dense ceiling; targets >= 11 apply their runs in pieces
    rng = np.random.default_rng(800 + n)
    dim = 1 << n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    got = apply_to_state(qft_cyclic_circuit(n), v)
    assert np.max(np.abs(got - np.sqrt(dim) * np.fft.ifft(v))) < 1e-12


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", [f for f in Family if f is not Family.CYCLIC])
def test_qft_circuit_state_matches_assemble(family, n):
    G = GroupSpec(family, n)
    rng = np.random.default_rng(900 + n)
    dim = 2 * (1 << n)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    got = apply_to_state(qft_circuit(G), v)
    assert np.max(np.abs(got - assemble(G).b @ v)) < 1e-12


def _traced_peak(c, v):
    tracemalloc.start()
    try:
        apply_to_state(c, v)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cyclic_circuit_memory_peak():
    # the state copy plus the final permutation's new array make 2 state
    # sizes; a mixing gate adds only block-sized temporaries, freed before
    # the permutation allocates
    v = np.random.default_rng(1000).standard_normal(1 << 16) + 0j
    assert _traced_peak(qft_cyclic_circuit(16), v) <= 2.5 * v.nbytes


def test_long_phase_run_memory_peak():
    # 17 one-control phase gates on the top qubit: fused without a cap the
    # factor product would grow to half the state
    width = 18
    rng = np.random.default_rng(1001)
    c = Circuit(width, tuple(_phase_gate(rng, ((k, True),), width - 1)
                             for k in range(width - 1)))
    v = rng.standard_normal(1 << width) + 0j
    assert _traced_peak(c, v) <= 1.25 * v.nbytes


@pytest.mark.parametrize("name", ["hadamard", "dense"])
def test_lone_mixing_gate_memory_peak(name):
    # the state copy plus temporaries of at most one block each; an
    # unblocked half-block product would add a full half, 2 state sizes
    width = 18
    rng = np.random.default_rng(1002)
    u = H_MATRIX if name == "hadamard" else random_unitary(rng, 2)
    v = rng.standard_normal(1 << width) + 0j
    for t in (0, width // 2, width - 1):
        c = Circuit(width, (Local(u, t),))
        assert _traced_peak(c, v) <= 1.25 * v.nbytes, t


_Y_MATRIX = np.array([[0, -1j], [1j, 0]])

# one u per branch of the mixing kernel
_BRANCH_U = {
    "diagonal": _diag(np.exp(0.7j), np.exp(-1.9j)),
    "x": X_MATRIX,
    "scaled_antidiagonal": _Y_MATRIX,
    "hadamard": H_MATRIX,
    "dense": random_unitary(np.random.default_rng(1100), 2),
}


@pytest.mark.parametrize("block", ["default", 1 << 6])
@pytest.mark.parametrize("branch", list(_BRANCH_U))
def test_mixing_gates_match_reference_across_blocks(branch, block,
                                                    monkeypatch):
    # at width 16 an uncontrolled half spans two default blocks; with
    # 2**6-entry blocks every gate spans many, and the controls fix axes
    # among the leading ones that pick a block
    if block != "default":
        monkeypatch.setattr(circuit_module, "_BLOCK", block)
    width = 16
    u = _BRANCH_U[branch]
    controls = {15: ((0, True), (7, False)),
                8: ((15, False), (3, True), (9, False)),
                0: ((15, True), (9, False))}
    rng = np.random.default_rng(1101)
    dim = 1 << width
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for t, ctrl in controls.items():
        for g in (Local(u, t), MultiControlled(u, ctrl, t)):
            got = apply_to_state(Circuit(width, (g,)), state)
            want, fires = reference_apply(g, state)
            assert np.max(np.abs(got - want)) < 1e-12, g
            # amplitudes whose controls do not match pass through bit for bit
            assert np.array_equal(got[~fires], state[~fires]), g


# Window stages: on states of _FUSE_MIN_WIDTH qubits or more, the qubits
# are split from the top down into windows of _WINDOW = k qubits, and a
# stage of gates inside one window with two or more uncontrolled mixing
# gates is applied as one dense matrix on the span of its qubits.

def _window_gates(rng, width, k):
    """Low-window runs broken at the window edge: by a gate targeting
    qubit k, by CNOTs and controls on k, by a phase run whose controls
    reach past k and whose target a window run then mixes, by a
    permutation, and by the top qubit.  The runs mix Hadamards, random
    locals, CNOTs, negative controls and diag(1, z) runs."""
    def window_run(n):
        gates = []
        for _ in range(n):
            kind = int(rng.integers(0, 5))
            q = [int(x) for x in rng.choice(k, size=3, replace=False)]
            if kind == 0:
                gates.append(Local(H_MATRIX, q[0]))
            elif kind == 1:
                gates.append(Local(random_unitary(rng, 2), q[0]))
            elif kind == 2:
                gates.append(CNot(q[0], q[1]))
            elif kind == 3:
                gates.append(MultiControlled(random_unitary(rng, 2),
                                             ((q[0], False), (q[1], True)),
                                             q[2]))
            else:
                gates.extend(_phase_gate(rng, ((c, True),), q[0])
                             for c in q[1:])
        return gates

    t = int(rng.integers(0, k))
    return [
        *window_run(5),
        Local(random_unitary(rng, 2), k),
        *window_run(4),
        CNot(k, int(rng.integers(0, k))),
        *window_run(3),
        # pending when the next window run starts on its target
        *(_phase_gate(rng, ((q, True),), t) for q in (k, width - 1)),
        Local(H_MATRIX, t),
        *window_run(3),
        MultiControlled(random_unitary(rng, 2), ((0, True), (k, False)),
                        k - 1),
        Local(random_unitary(rng, 2), 0),   # a lone window gate
        QubitPerm(tuple(int(s) for s in rng.permutation(width))),
        *(_phase_gate(rng, ((q, True),), k - 1) for q in range(k - 1)),
        *window_run(4),
        Local(random_unitary(rng, 2), width - 1),
        *window_run(2),
    ]


def _expected_windows(gates, width, k):
    """Lengths of the stages the schedule fuses, read from the gates'
    matrices.

    Windows hold k qubits each, from the top.  A stage takes the gates
    inside the window of its first gate and sets aside every diagonal gate
    that reaches outside it.  It ends at a permutation, at a mixing gate
    outside its window, and at a mixing gate whose target a set-aside
    gate touches, which also clears those.  It fuses when it holds two or
    more uncontrolled mixing gates.  A fan-out run whose qubits span
    windows (`_model_fan_outs`) ends the stage, and clears the set-aside
    gates when one touches a target."""
    fused, stage, window, touched = [], [], None, set()

    def close():
        if sum(isinstance(g, Local) and not _is_diagonal(g)
               for g in stage) >= 2:
            fused.append(len(stage))

    for g in _model_fan_outs(gates, width, k):
        if isinstance(g, list):
            close()
            stage, window = [], None
            if touched & {h.target for h in g}:
                touched = set()
            continue
        perm = isinstance(g, QubitPerm)
        if perm or (not _is_diagonal(g) and g.target in touched):
            close()
            stage, window, touched = [], None, set()
            if perm:
                continue
        qubits = (g.target, *(q for q, _ in g.controls))
        windows = {(width - 1 - q) // k for q in qubits}
        if len(windows) == 1 and window in (None, *windows):
            stage.append(g)
            window = windows.pop()
        elif _is_diagonal(g):
            touched.update(qubits)
        else:
            close()
            stage, window = (([g], windows.pop()) if len(windows) == 1
                             else ([], None))
    close()
    return fused


def _model_fan_outs(gates, width, k):
    """The gates, each fan-out run whose qubits span windows of k qubits
    as one list, read from the gates' matrices: two or more consecutive X
    gates with one set of (qubit, polarity) controls and distinct
    targets."""
    def key(g):
        if isinstance(g, QubitPerm) or not np.array_equal(g.u, X_MATRIX):
            return None
        return frozenset(g.controls)

    out, run = [], []

    def close():
        qubits = {q for h in run
                  for q in (h.target, *(c for c, _ in h.controls))}
        if len(run) > 1 and len({(width - 1 - q) // k for q in qubits}) > 1:
            out.append(run)
        else:
            out.extend(run)

    for g in gates:
        x = key(g)
        if (x is not None and run and x == key(run[0])
                and g.target not in {h.target for h in run}):
            run.append(g)
            continue
        close()
        run = [] if x is None else [g]
        if x is None:
            out.append(g)
    close()
    return out


def _window_spy(monkeypatch):
    """Count the fused runs apply_to_state applies."""
    calls = []
    inner = circuit_module._apply_window

    def spy(psi, run):
        calls.append(len(run))
        inner(psi, run)
    monkeypatch.setattr(circuit_module, "_apply_window", spy)
    return calls


def _reference_chain(gates, state):
    for g in gates:
        state, _ = reference_apply(g, state)
    return state


def _random_state(rng, width):
    dim = 1 << width
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.mark.parametrize("seed", range(6))
def test_fused_runs_match_references_with_a_small_window(seed, monkeypatch):
    # a 3-qubit window fused from width 7 keeps to_matrix affordable; at
    # width 6 nothing fuses
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    calls = _window_spy(monkeypatch)
    rng = np.random.default_rng(1200 + seed)
    width = 6 + seed % 3
    c = Circuit(width, tuple(_window_gates(rng, width, 3)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert calls == (_expected_windows(c.gates, width, 3) if width >= 7 else [])
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12


@pytest.mark.parametrize("offset", [0, -1])
def test_fused_runs_at_the_width_threshold(offset, monkeypatch):
    k = circuit_module._WINDOW
    width = circuit_module._FUSE_MIN_WIDTH + offset
    calls = _window_spy(monkeypatch)
    rng = np.random.default_rng(1210)
    c = Circuit(width, tuple(_window_gates(rng, width, k)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert calls == (_expected_windows(c.gates, width, k) if offset == 0
                     else [])
    assert len(calls) == 0 or min(calls) >= 2
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_fused_window_matches_to_matrix_of_its_run(seed, monkeypatch):
    # a circuit inside one window [lo, lo + k) acts on the middle axis of
    # the (2^(w-lo-k), 2^k, 2^lo) view by to_matrix of its width-k run:
    # the top and the middle window at the threshold, and the bottom one
    # at width 3k
    k = circuit_module._WINDOW
    top = circuit_module._FUSE_MIN_WIDTH
    width, lo = [(top, top - k), (top, top - 2 * k), (3 * k, 0)][seed]
    calls = _window_spy(monkeypatch)
    rng = np.random.default_rng(1220 + seed)
    cascade = qft_cyclic_circuit(k).gates[:-1]
    run = [*cascade, *random_circuit(rng, k, 12).gates]
    run = [g for g in run if not isinstance(g, QubitPerm)]
    raised = tuple(circuit_module._lowered(g, -lo) for g in run)
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, raised), state)
    assert calls == [len(run)]
    u = to_matrix(Circuit(k, tuple(run)))
    want = np.matmul(u, state.reshape(-1, 1 << k, 1 << lo)).reshape(-1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_fusion_threshold_clears_the_build_and_the_sweep_widths(monkeypatch):
    # a run's matrix is built on 2 * _WINDOW qubits, which must not fuse
    # again, and the gate_sweep benchmark simulates only below the
    # threshold, so it never pays for a build
    path = Path(__file__).resolve().parents[1] / "qftbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qftbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert circuit_module._FUSE_MIN_WIDTH > 2 * circuit_module._WINDOW
    assert circuit_module._FUSE_MIN_WIDTH > workloads.SIM_MAX_WIDTH


def test_fused_window_memory_peak(monkeypatch):
    # the state copy plus a row-block buffer and a 2^(2k)-entry build:
    # neither grows with the state
    width = 18
    k = circuit_module._WINDOW
    calls = _window_spy(monkeypatch)
    c = Circuit(width, qft_cyclic_circuit(k).gates[:-1])
    v = np.random.default_rng(1230).standard_normal(1 << width) + 0j
    assert _traced_peak(c, v) <= 1.25 * v.nbytes
    assert calls == [len(c.gates)]


# Batches: a (k, 2^w) array of rows runs as one state on w + ceil(log2 k)
# qubits, so a wide enough batch of narrow states takes the fused path.

def _batch_circuit(rng, width):
    """Random gates with permutations, then a run confined to the low
    window, then more random gates."""
    head = random_circuit(rng, width, 10).gates
    run = qft_cyclic_circuit(min(width, circuit_module._WINDOW)).gates[:-1]
    tail = random_circuit(rng, width, 10).gates
    perm = QubitPerm(tuple(int(s) for s in rng.permutation(width)))
    return Circuit(width, (*head, perm, *run, *tail))


@pytest.mark.parametrize("rows", ["1", "3", "4", "2^w"])
@pytest.mark.parametrize("width", [3, 6, 7, 8])
def test_batch_matches_rows_and_to_matrix(width, rows, monkeypatch):
    # w + m reaches _FUSE_MIN_WIDTH only for 2^w rows at widths 7 and 8
    calls = _window_spy(monkeypatch)
    rng = np.random.default_rng(1300 + width)
    c = _batch_circuit(rng, width)
    k = 1 << width if rows == "2^w" else int(rows)
    dim = 1 << width
    states = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    before = states.copy()
    got = apply_to_state(c, states)
    wide = width + (k - 1).bit_length()
    assert (len(calls) > 0) == (wide >= circuit_module._FUSE_MIN_WIDTH)
    assert got.shape == (k, dim)
    assert np.array_equal(states, before)
    assert not np.shares_memory(got, states)
    per_row = np.stack([apply_to_state(c, v) for v in states])
    assert np.max(np.abs(got - per_row)) < 1e-12
    # a single state runs as the one-row batch
    assert np.array_equal(apply_to_state(c, states[:1])[0], per_row[0])
    assert np.max(np.abs(got - states @ to_matrix(c).T)) < 1e-12


@pytest.mark.parametrize("shape", [(0, 8), (2, 9), (2, 2, 8), ()])
def test_apply_to_state_rejects_malformed_batches(shape):
    with pytest.raises(ValueError, match="expected"):
        apply_to_state(Circuit(3), np.zeros(shape))


def test_window_build_runs_no_public_entry(monkeypatch):
    # qftbench counts the gates of apply_to_state calls; a fused run's
    # matrix must be built below it
    seen = []
    inner = circuit_module.apply_to_state

    def spy(c, state):
        seen.append(len(c.gates))
        return inner(c, state)
    monkeypatch.setattr(circuit_module, "apply_to_state", spy)
    calls = _window_spy(monkeypatch)
    c = Circuit(circuit_module._FUSE_MIN_WIDTH,
                qft_cyclic_circuit(circuit_module._WINDOW).gates[:-1])
    circuit_module.apply_to_state(c, np.eye(2, 1 << c.width))
    # two rows add a qubit: at width 15 the cascade on qubits 0..5 meets
    # windows [3, 9) and [0, 3), two stages of 6 gates, and the 9 phases
    # between them are deferred
    assert calls == [6, 6]
    assert seen == [len(c.gates)]


# Grouping: window stages go to _apply_window, deferred diagonal gates to
# _apply_diagonals, and in a stage that runs gate by gate each run of two
# or more consecutive diag(1, z) gates on one target to _apply_phase_run.

def _phase_spy(monkeypatch):
    """Record (target, length) of each phase run apply_to_state fuses."""
    calls = []
    inner = circuit_module._apply_phase_run

    def spy(psi, run):
        calls.append((run[0].target, len(run)))
        inner(psi, run)
    monkeypatch.setattr(circuit_module, "_apply_phase_run", spy)
    return calls


def _diagonal_spy(monkeypatch):
    """Record the number of gates of each release of deferred diagonals."""
    calls = []
    inner = circuit_module._apply_diagonals

    def spy(psi, gates):
        calls.append(len(gates))
        inner(psi, gates)
    monkeypatch.setattr(circuit_module, "_apply_diagonals", spy)
    return calls


@pytest.mark.parametrize("width", [12, 16])
def test_cyclic_cascade_fuses_one_phase_run_per_target(width, monkeypatch):
    # target j carries j phase gates, and the lone one on qubit 1 runs on
    # its own.  At width 12 each target's gates are one phase run.  At
    # width 16 the windows [10, 16), [4, 10) and [0, 4) are one stage each,
    # whose build, on the stage's targets moved down to 5..0 (3..0 for the
    # last), fuses the phase runs of its targets 5..2 (3..2); the phases
    # that reach below a window, 60 and 24, are deferred and released as
    # one product each
    calls = _phase_spy(monkeypatch)
    windows = _window_spy(monkeypatch)
    diagonals = _diagonal_spy(monkeypatch)
    apply_to_state(qft_cyclic_circuit(width), np.ones(1 << width))
    if width < circuit_module._FUSE_MIN_WIDTH:
        assert calls == [(t, t) for t in range(width - 1, 1, -1)]
        assert windows == diagonals == []
    else:
        k = circuit_module._WINDOW
        assert calls == [(t, t) for t in (*range(k - 1, 1, -1),
                                          *range(k - 1, 1, -1), 3, 2)]
        assert windows == [21, 21, 10]
        assert diagonals == [60, 24]


def test_phase_runs_break_on_every_other_key(monkeypatch):
    # another target, a mixing gate on the same target, a permutation and
    # an eleven-control phase gate (2**11 entries, past _PHASE_CAP) each
    # end a run, while a ten-control one joins it; a lone phase gate is
    # not a run
    calls = _phase_spy(monkeypatch)
    rng = np.random.default_rng(1400)
    ph = functools.partial(_phase_gate, rng)
    width = 13
    gates = [
        ph(((0, True),), 12), ph(((1, False),), 12),
        ph(((2, True),), 11), ph(((3, True),), 11),
        ph(((4, True),), 12), ph(((5, True),), 12),
        Local(random_unitary(rng, 2), 12),
        ph(((6, True),), 12), ph(((7, False),), 12), ph(((8, True),), 12),
        QubitPerm(tuple(int(s) for s in rng.permutation(width))),
        ph(((0, True),), 12),
        ph(tuple((k, k % 2 == 1) for k in range(10)), 12),
        ph(((9, True),), 12),
        ph(tuple((k, k % 2 == 0) for k in range(11)), 12),
        ph(((10, True),), 12), ph(((11, True),), 12),
        ph(((0, True),), 5),
    ]
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert calls == [(12, 2), (11, 2), (12, 2), (12, 3), (12, 3), (12, 2)]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


def test_lone_window_phase_gate_splits_a_phase_run(monkeypatch):
    # the phase gates on target 2 whose controls stay in its window
    # [2, 8) (qubits 7 and 6) form a stage, which has no mixing gate and
    # so runs gate by gate, as one phase run; the other three (controls
    # 13, 0 and 8) reach outside it, and the run falls into that phase run
    # and one release of the three deferred gates
    calls = _phase_spy(monkeypatch)
    windows = _window_spy(monkeypatch)
    diagonals = _diagonal_spy(monkeypatch)
    rng = np.random.default_rng(1410)
    ph = functools.partial(_phase_gate, rng)
    width = circuit_module._FUSE_MIN_WIDTH
    k = circuit_module._WINDOW
    gates = [ph(((k + 1, True),), 2), ph(((width - 1, False),), 2),
             ph(((0, True),), 2),
             ph(((k, True),), 2), ph(((k + 2, True),), 2)]
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert calls == [(2, 2)]
    assert windows == []
    assert diagonals == [3]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


# The schedule on random circuits whose diagonal gates include diag(a, b)
# with a != 1, which must never reach a phase run, and negative controls.

@pytest.mark.parametrize("seed", range(8))
def test_scheduled_kernel_matches_to_matrix_with_a_small_window(
        seed, monkeypatch):
    # 3-qubit windows from width 7 keep to_matrix affordable; at width 6
    # the one pass runs without windows
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    windows = _window_spy(monkeypatch)
    diagonals = _diagonal_spy(monkeypatch)
    rng = np.random.default_rng(1500 + seed)
    width = 6 + seed % 3
    c = random_diagonal_circuit(rng, width, 60)
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    if width < 7:
        assert windows == diagonals == []
    else:
        assert windows == _expected_windows(c.gates, width, 3)
        assert windows and diagonals


@pytest.mark.parametrize("width", [14, 15, 16])
def test_scheduled_kernel_matches_reference_at_full_size(width, monkeypatch):
    windows = _window_spy(monkeypatch)
    diagonals = _diagonal_spy(monkeypatch)
    rng = np.random.default_rng(1510 + width)
    c = random_diagonal_circuit(rng, width, 40)
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12
    assert windows == _expected_windows(c.gates, width,
                                        circuit_module._WINDOW)
    assert windows and diagonals


def test_scheduled_qft_circuits_memory_peak(monkeypatch):
    # the state copy plus window buffers, builds and diagonal products of
    # at most 2^14 entries; the permutations, which move the state into a
    # new array, are left out
    windows = _window_spy(monkeypatch)
    diagonals = _diagonal_spy(monkeypatch)
    width = 18
    v = np.random.default_rng(1520).standard_normal(1 << width) + 0j
    for full in (qft_cyclic_circuit(width),
                 qft_circuit(GroupSpec(Family.QD, width - 1))):
        c = Circuit(width, tuple(g for g in full.gates
                                 if not isinstance(g, QubitPerm)))
        assert _traced_peak(c, v) <= 1.25 * v.nbytes
    assert windows and diagonals


# Fan-out runs: two or more consecutive X gates with one set of controls
# and distinct targets whose qubits span windows run as one flipped swap.

def _fan_out_spy(monkeypatch, events=None):
    """Record the targets of each fan-out run apply_to_state applies, and
    append ("fan-out", targets) to `events` when given."""
    calls = []
    inner = circuit_module._apply_fan_out

    def spy(psi, run):
        calls.append([g.target for g in run])
        if events is not None:
            events.append(("fan-out", calls[-1]))
        inner(psi, run)
    monkeypatch.setattr(circuit_module, "_apply_fan_out", spy)
    return calls


def _x(controls, target):
    """An X gate: a CNot for one positive control, else MultiControlled."""
    if len(controls) == 1 and controls[0][1]:
        return CNot(controls[0][0], target)
    return MultiControlled(X_MATRIX, controls, target)


def _fan_out_gates(rng, width):
    """Runs of X gates on shared controls, each control set drawn with
    random polarities and given in a random order per gate, with CNOTs and
    multi-controlled X mixed, broken by a repeated target, by a gate that
    targets a control, by a change of control set and by Hadamards,
    diagonal gates and random gates between them."""
    gates = []
    for _ in range(8):
        qubits = [int(q) for q in rng.permutation(width)]
        k = int(rng.integers(1, 4))
        controls = [(q, bool(rng.integers(0, 2))) for q in qubits[:k]]
        if rng.random() < 0.5:
            controls[0] = (controls[0][0], True)
        targets = qubits[k:k + int(rng.integers(2, 6))]
        for t in targets:
            order = [controls[i] for i in rng.permutation(k)]
            gates.append(_x(tuple(order), t))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            gates.append(_x(tuple(controls), targets[0]))
        elif kind == 1:
            gates.append(_x(((targets[0], True),), controls[0][0]))
        elif kind == 2:
            gates.append(_x(tuple((q, not p) for q, p in controls),
                            targets[-1]))
        gates.append(Local(H_MATRIX, int(rng.integers(0, width))))
        gates.extend(random_diagonal_circuit(rng, width, 3).gates)
    return gates


@pytest.mark.parametrize("seed", range(8))
def test_fan_out_runs_match_to_matrix_with_a_small_window(seed, monkeypatch):
    # 3-qubit windows from width 7, as for the window tests above; at
    # width 6 nothing is grouped
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    fan_outs = _fan_out_spy(monkeypatch)
    windows = _window_spy(monkeypatch)
    rng = np.random.default_rng(1600 + seed)
    width = 6 + seed % 3
    c = Circuit(width, tuple(_fan_out_gates(rng, width)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    want = [[g.target for g in run]
            for run in _model_fan_outs(c.gates, width, 3)
            if isinstance(run, list)]
    assert fan_outs == (want if width >= 7 else [])
    assert windows == (_expected_windows(c.gates, width, 3)
                       if width >= 7 else [])
    if width >= 7:
        assert fan_outs


def test_fan_out_run_ends_where_the_rule_says(monkeypatch):
    # CNOTs and multi-controlled X with the same control, then a repeated
    # target; mixed polarities in any order, then a gate that targets a
    # control; a change of control set; a run inside one window is not
    # grouped
    fan_outs = _fan_out_spy(monkeypatch)
    width = 16
    gates = [CNot(15, 0), MultiControlled(X_MATRIX, ((15, True),), 9),
             CNot(15, 14), CNot(15, 0),
             MultiControlled(X_MATRIX, ((3, False), (12, True)), 5),
             MultiControlled(X_MATRIX, ((12, True), (3, False)), 13),
             MultiControlled(X_MATRIX, ((3, False), (12, True)), 1),
             MultiControlled(X_MATRIX, ((5, True), (1, True)), 3),
             MultiControlled(X_MATRIX, ((7, True), (11, True)), 0),
             MultiControlled(X_MATRIX, ((7, True), (11, False)), 14),
             MultiControlled(X_MATRIX, ((7, True), (11, False)), 15),
             CNot(1, 2), CNot(1, 3), CNot(1, 0)]
    rng = np.random.default_rng(1610)
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert fan_outs == [[0, 9, 14], [5, 13, 1], [14, 15]]
    want = state
    for g in gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(2))
def test_fan_out_runs_match_gates_one_by_one_at_full_size(seed, monkeypatch):
    fan_outs = _fan_out_spy(monkeypatch)
    rng = np.random.default_rng(1620 + seed)
    width = 16
    gates = _fan_out_gates(rng, width)
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    want = state
    for g in gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert fan_outs
    assert np.max(np.abs(got - want)) < 1e-12
    # X gates alone are exact swaps either way
    xs = tuple(g for g in gates if not isinstance(g, QubitPerm) and g.flip)
    got = apply_to_state(Circuit(width, xs), state)
    want = state
    for g in xs:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.array_equal(got, want)


def test_fan_out_run_releases_pending_gates_on_its_targets(monkeypatch):
    # three diagonal gates reach across windows and are deferred; a run
    # that targets one of their qubits releases them first, and a run
    # that targets none of them runs while they stay pending
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    events = []
    _fan_out_spy(monkeypatch, events)
    inner = circuit_module._apply_diagonals

    def spy(psi, gates):
        events.append(("release", len(gates)))
        inner(psi, gates)
    monkeypatch.setattr(circuit_module, "_apply_diagonals", spy)
    rng = np.random.default_rng(1630)
    ph = functools.partial(_phase_gate, rng)
    width = 8
    gates = [ph(((7, True),), 0), ph(((6, False),), 0), ph(((5, True),), 0),
             CNot(4, 3), CNot(4, 1),
             CNot(2, 0), CNot(2, 4)]
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert events == [("fan-out", [3, 1]), ("release", 3),
                      ("fan-out", [0, 4])]
    assert np.max(np.abs(got - to_matrix(Circuit(width, tuple(gates)))
                         @ state)) < 1e-12


def test_qd_reorder_cnots_run_as_one_fan_out():
    # qd n = 20 at width 21: CNot(19, j) for j = 0..18 is one step
    c = qft_circuit(GroupSpec(Family.QD, 20))
    runs = [g for apply, g in circuit_module._segments(c.gates, c.width, True)
            if apply is circuit_module._apply_fan_out]
    assert runs == [[CNot(19, j) for j in range(19)]]


# Permutations: a bit reversal of a moved span above _BLOCK entries is
# moved in bands; every other permutation is one axis transpose.

def _transposed(psi, sigma):
    """The state moved by sigma as one axis transpose."""
    width = len(sigma)
    top = width - 1
    axes = [0] * width
    for q, s in enumerate(sigma):
        axes[top - s] = top - q
    return np.ascontiguousarray(
        psi.reshape((2,) * width).transpose(axes)).reshape(-1)


def _band_spy(monkeypatch):
    """Record the moved span of each banded permutation."""
    calls = []
    inner = circuit_module._band_transpose

    def spy(psi, sigma, span):
        calls.append(span)
        return inner(psi, sigma, span)
    monkeypatch.setattr(circuit_module, "_band_transpose", spy)
    return calls


def _banded_sigma(rng, width, span):
    """A random sigma on the low `span` qubits, top ones fixed, that sends
    the low span // 2 qubits onto the span's top positions."""
    low = span // 2
    high = span - low
    sigma = [*(high + int(s) for s in rng.permutation(low)),
             *(int(s) for s in rng.permutation(high))]
    return tuple(sigma + list(range(span, width)))


@pytest.mark.parametrize("width", [16, 21])
def test_banded_permutation_equals_the_transpose(width, monkeypatch):
    # full and partial bit reversals (the top qubits fixed, as in the
    # batch that embed makes) and random sigma of that shape, odd and even
    # spans; every span above _BLOCK entries takes the banded route
    calls = _band_spy(monkeypatch)
    rng = np.random.default_rng(1700 + width)
    psi = _random_state(rng, width)
    spans = range(circuit_module._BLOCK.bit_length(), width + 1)
    sigmas = [tuple([*reversed(range(s)), *range(s, width)]) for s in spans]
    sigmas += [_banded_sigma(rng, width, s) for s in (width - 1, width)]
    for sigma in sigmas:
        got = circuit_module._permute(psi.reshape((2,) * width), sigma)
        assert got.shape == (2,) * width and got.flags.c_contiguous
        assert np.array_equal(got.reshape(-1), _transposed(psi, sigma)), sigma
    assert calls == [*spans, width - 1, width]


def test_other_permutations_stay_on_the_transpose(monkeypatch):
    # a rotation, a swap, and spans of at most _BLOCK entries
    calls = _band_spy(monkeypatch)
    width = 16
    rng = np.random.default_rng(1710)
    psi = _random_state(rng, width)
    span = circuit_module._BLOCK.bit_length() - 1
    sigmas = [(width - 1, *range(width - 1)),
              (width - 1, *range(1, width - 1), 0),
              (*reversed(range(span)), *range(span, width)),
              tuple(int(s) for s in rng.permutation(width))]
    for sigma in sigmas:
        got = circuit_module._permute(psi.reshape((2,) * width), sigma)
        assert np.array_equal(got.reshape(-1), _transposed(psi, sigma))
    assert calls == []


@pytest.mark.parametrize("width", range(3, 9))
def test_banded_permutations_match_to_matrix_with_small_blocks(
        width, monkeypatch):
    # 4-entry blocks and 2-row bands send every bit reversal of 3 or more
    # qubits through the banded route, band by band
    monkeypatch.setattr(circuit_module, "_BLOCK", 4)
    monkeypatch.setattr(circuit_module, "_BAND", 2)
    calls = _band_spy(monkeypatch)
    rng = np.random.default_rng(1720 + width)
    perms = [QubitPerm(tuple(reversed(range(width)))),
             QubitPerm((*reversed(range(width - 1)), width - 1)),
             QubitPerm(_banded_sigma(rng, width, width)),
             QubitPerm(tuple(int(s) for s in rng.permutation(width)))]
    gates = [g for p in perms
             for g in (p, *random_circuit(rng, width, 6).gates)
             if g is p or not isinstance(g, QubitPerm)]
    c = Circuit(width, tuple(gates))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    # the random sigma may take the banded route too
    want = [s for s in (width, width - 1, width) if s >= 3]
    assert calls[:len(want)] == want


def test_verify_batch_permutations_stay_on_the_transpose(monkeypatch):
    # verify_n8 runs each width-9 circuit on a batch of 512 basis rows, a
    # width-18 state whose permutations move at most 9 qubits
    calls = _band_spy(monkeypatch)
    fan_outs = _fan_out_spy(monkeypatch)
    G = GroupSpec(Family.QD, 8)
    c = qft_circuit(G)
    assert any(isinstance(g, QubitPerm) for g in c.gates)
    got = apply_to_state(c, np.eye(1 << c.width))
    assert np.max(np.abs(got - assemble(G).b.T)) < 1e-12
    assert calls == []
    assert fan_outs == [list(range(7))]


# Move runs: on the wide states of at least _MOVES_MIN_SIZE entries, two
# or more consecutive steps that only move entries (lone X gates, fan-out
# runs, qubit permutations), among them a permutation, run on an index
# array and move the state by one gather.  Tests at widths below 21 lower
# the size threshold.

def _moves_spy(monkeypatch):
    """Record the steps of each move run apply_to_state applies, each as
    the kernel's name ("x", "fan-out" or "perm") and its gates."""
    calls = []
    inner = circuit_module._apply_moves

    def spy(psi, steps):
        calls.append([("perm" if isinstance(g, QubitPerm) else
                       "x" if apply is None else "fan-out", g)
                      for apply, g in steps])
        return inner(psi, steps)
    monkeypatch.setattr(circuit_module, "_apply_moves", spy)
    return calls


_Y = np.array([[0, -1j], [1j, 0]])


def _move_gates(rng, width):
    """Runs of CNOTs, multi-controlled X gates, fan-out runs and qubit
    permutations, with and without a permutation, each run broken by a
    mixing gate (a controlled Y) or a diagonal one (Z, controlled or
    not).  No gate rounds: X, Y and Z entries are 0 and +-1 or +-1j, so
    every route gives the same bits."""
    gates = []
    for _ in range(6):
        with_perm = rng.random() < 0.6
        units = ["perm"] * with_perm + [
            ["cnot", "mcx", "fan-out"][int(rng.integers(0, 3))]
            for _ in range(int(rng.integers(1, 4)))]
        for unit in (units[i] for i in rng.permutation(len(units))):
            qubits = [int(q) for q in rng.permutation(width)]
            if unit == "perm":
                gates.append(QubitPerm(tuple(qubits)))
            elif unit == "cnot":
                gates.append(CNot(qubits[0], qubits[1]))
            else:
                k = int(rng.integers(1, 4))
                controls = tuple((q, bool(rng.integers(0, 2)))
                                 for q in qubits[:k])
                n = 1 if unit == "mcx" else int(rng.integers(2, 5))
                gates.extend(MultiControlled(X_MATRIX, controls, t)
                             for t in qubits[k:k + n])
        q = [int(x) for x in rng.choice(width, size=2, replace=False)]
        gates.append([MultiControlled(_Y, ((q[0], True),), q[1]),
                      MultiControlled(Z_MATRIX, ((q[0], False),), q[1]),
                      Local(Z_MATRIX, q[1])][int(rng.integers(0, 3))])
    return gates


def _is_move(apply, g):
    """Whether a step of the schedule only moves entries, read from the
    gate's matrix."""
    return (apply is circuit_module._apply_fan_out
            or (apply is None and (isinstance(g, QubitPerm)
                                   or np.array_equal(g.u, X_MATRIX))))


@pytest.mark.parametrize("width", [14, 15, 16])
def test_move_runs_match_reference_bit_for_bit(width, monkeypatch):
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1 << 14)
    calls = _moves_spy(monkeypatch)
    rng = np.random.default_rng(1800 + width)
    gates = _move_gates(rng, width)
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert np.array_equal(got, _reference_chain(gates, state))
    # each run holds a permutation and only moves; every other step of
    # the schedule stays in the stream
    assert calls
    for steps in calls:
        assert len(steps) >= 2 and "perm" in [kind for kind, _ in steps]
    stream = list(circuit_module._move_runs(circuit_module._segments(
        tuple(gates), width, True)))
    grouped = [g for apply, g in stream if apply is circuit_module._apply_moves]
    assert [[g for _, g in steps] for steps in calls] == \
        [[g for _, g in steps] for steps in grouped]
    assert all(_is_move(*step) for steps in grouped for step in steps)
    for (a, g), (b, h) in zip(stream, stream[1:]):
        # no two moves side by side outside a run with a permutation
        if a is not circuit_module._apply_moves \
                and b is not circuit_module._apply_moves:
            assert not (_is_move(a, g) and _is_move(b, h)
                        and (isinstance(g, QubitPerm)
                             or isinstance(h, QubitPerm)))


def test_move_runs_end_where_the_rule_says(monkeypatch):
    # width 16, windows [10, 16), [4, 10) and [0, 4).  A CNOT, a rotation,
    # a fan-out run and a multi-controlled X are one run; a controlled Y
    # (mixing) ends it.  Two X gates without a permutation stay in place.
    # Z, a stage of its own, comes out before the reversal.  The
    # controlled Z across windows is deferred past CNot(13, 1), which
    # targets none of its qubits, so the reversal and the two CNOTs are a
    # run; the Z is released before the last rotation, which stays alone.
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1 << 16)
    calls = _moves_spy(monkeypatch)
    width = 16
    rot = QubitPerm((width - 1, *range(width - 1)))
    rev = QubitPerm(tuple(reversed(range(width))))
    gates = [CNot(15, 0), rot, CNot(15, 0), CNot(15, 5), CNot(15, 11),
             MultiControlled(X_MATRIX, ((0, True), (7, False)), 13),
             MultiControlled(_Y, ((12, True),), 3),
             CNot(15, 1), MultiControlled(X_MATRIX, ((2, False),), 14),
             Local(Z_MATRIX, 14), rev, CNot(3, 12),
             MultiControlled(Z_MATRIX, ((0, True),), 12), CNot(13, 1), rot]
    state = _random_state(np.random.default_rng(1810), width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert [[kind for kind, _ in steps] for steps in calls] == [
        ["x", "perm", "fan-out", "x"], ["perm", "x", "x"]]
    assert calls[0][2][1] == gates[2:5]
    want = state
    for g in gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.array_equal(got, want)


def test_qd_reorder_factor_runs_as_one_move_run(monkeypatch):
    # qd n = 15 at width 16: the twiddle's two X gates and the whole
    # reorder factor (rotation, fan-out, controlled increment, CNOT and
    # Toffoli) are one gather, bit for bit what the steps give one by one
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1 << 16)
    calls = _moves_spy(monkeypatch)
    G = GroupSpec(Family.QD, 15)
    c = qft_circuit(G)
    factors = dict(circuit_library.qft_factors(G))
    state = _random_state(np.random.default_rng(1820), c.width)
    got = apply_to_state(c, state)
    assert len(calls) == 1
    assert [kind for kind, _ in calls[0]] == \
        ["x", "x", "perm", "fan-out", *["x"] * 16]
    flat = [h for _, g in calls[0] for h in (g if isinstance(g, list) else [g])]
    assert format_circuit(Circuit(c.width, tuple(flat))) == format_circuit(
        factors["twiddle"] + factors["reorder"])
    monkeypatch.setattr(circuit_module, "_move_runs", lambda steps: steps)
    assert np.array_equal(got, apply_to_state(c, state))
    assert len(calls) == 1


@pytest.mark.parametrize("offset", [0, -1])
def test_move_runs_only_on_wide_states(offset, monkeypatch):
    # below the width threshold every gate runs on its own, in order,
    # whatever the state's size
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1)
    calls = _moves_spy(monkeypatch)
    width = circuit_module._FUSE_MIN_WIDTH + offset
    c = qft_circuit(GroupSpec(Family.QD, width - 1))
    state = _random_state(np.random.default_rng(1830), width)
    got = apply_to_state(c, state)
    assert len(calls) == (1 if offset == 0 else 0)
    want = state
    for g in c.gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("rows", [1 << 9, 1 << 12])
def test_move_runs_only_on_states_of_the_minimum_size(rows, monkeypatch):
    # qd n = 8 on verify's batch of 512 rows is a width-18 state, below
    # _MOVES_MIN_SIZE, and keeps its moves step by step; 4096 rows make a
    # width-21 state of 2^21 entries, whose reorder factor is one gather
    calls = _moves_spy(monkeypatch)
    G = GroupSpec(Family.QD, 8)
    c = qft_circuit(G)
    rng = np.random.default_rng(1835)
    states = rng.standard_normal((rows, 1 << c.width)) + 0j
    got = apply_to_state(c, states)
    assert (states.size >= circuit_module._MOVES_MIN_SIZE) == (rows == 1 << 12)
    assert len(calls) == (1 if rows == 1 << 12 else 0)
    assert np.max(np.abs(got - states @ assemble(G).b.T)) < 1e-12


def test_full_qft_circuits_memory_peak(monkeypatch):
    # permutations included: the state copy, the new array a permutation
    # or a move run's gather fills, and a move run's index array of a
    # quarter state, within the bound of the cyclic test above
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1 << 18)
    calls = _moves_spy(monkeypatch)
    width = 18
    v = np.random.default_rng(1840).standard_normal(1 << width) + 0j
    for c in (qft_cyclic_circuit(width),
              qft_circuit(GroupSpec(Family.QD, width - 1))):
        assert _traced_peak(c, v) <= 2.5 * v.nbytes
    assert len(calls) == 1


# Releases: a product of deferred diagonal factors grows to _BLOCK entries
# before it scales the state.

class _ProductProbe(np.ndarray):
    """A view of the state that records the size of every factor product
    multiplied into it in place."""
    sizes: list = []

    def __imul__(self, other):
        self.sizes[-1].append(np.size(other))
        return super().__imul__(other)


def _product_spy(monkeypatch):
    """Record, per release of deferred diagonal gates, the sizes of the
    products that scale the state."""
    sizes = []
    inner = circuit_module._apply_diagonals

    def spy(psi, gates):
        sizes.append([])
        probe = psi.view(_ProductProbe)
        probe.sizes = sizes
        inner(probe, gates)
    monkeypatch.setattr(circuit_module, "_apply_diagonals", spy)
    return sizes


def test_cyclic_21_releases_in_block_sized_products(monkeypatch):
    # the cascade's three releases scale the state twice, twice and once;
    # each product holds at most _BLOCK entries
    sizes = _product_spy(monkeypatch)
    n = 21
    rng = np.random.default_rng(1850)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    got = apply_to_state(qft_cyclic_circuit(n), v)
    assert [len(s) for s in sizes] == [2, 2, 1]
    assert max(max(s) for s in sizes) == circuit_module._BLOCK
    assert np.max(np.abs(got - np.sqrt(v.size) * np.fft.ifft(v))) < 1e-13


def test_release_runs_a_factor_past_the_phase_cap_alone(monkeypatch):
    # a deferred gate with ten controls has a factor of 2^11 entries, past
    # _PHASE_CAP, and runs alone on its control block; the three
    # one-control gates released with it are one product
    diagonals = _diagonal_spy(monkeypatch)
    width = circuit_module._FUSE_MIN_WIDTH
    many = MultiControlled(Z_MATRIX, tuple((q, q % 2 == 1)
                                           for q in range(3, 13)), 0)
    gates = [MultiControlled(Z_MATRIX, ((13, True),), t) for t in (0, 1, 2)]
    gates.insert(1, many)
    steps = list(circuit_module._release(gates))
    assert [apply for apply, _ in steps] == \
        [circuit_module._apply_diagonals, None]
    assert steps[1][1] is many
    state = _random_state(np.random.default_rng(1855), width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    assert diagonals == [3]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_small_blocks_and_move_runs_match_to_matrix(seed, monkeypatch):
    # 3-qubit windows from width 7, 16-entry blocks and factors of at most
    # 8 entries in a release: releases scale the state several times, and
    # permutations meet CNOTs in move runs
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    monkeypatch.setattr(circuit_module, "_BLOCK", 16)
    monkeypatch.setattr(circuit_module, "_PHASE_CAP", 8)
    monkeypatch.setattr(circuit_module, "_MOVES_MIN_SIZE", 1 << 7)
    sizes = _product_spy(monkeypatch)
    calls = _moves_spy(monkeypatch)
    rng = np.random.default_rng(1860 + seed)
    width = 7 + seed % 2
    gates = [g for _ in range(3)
             for g in (*random_diagonal_circuit(rng, width, 20).gates,
                       *_move_gates(rng, width)[:6])]
    c = Circuit(width, tuple(gates))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    assert sizes and max(max(s) for s in sizes) <= 16
    assert any(len(s) > 1 for s in sizes)
    assert calls


def test_diagonal_kind_is_read_at_construction():
    rng = np.random.default_rng(1530)
    us = [X_MATRIX, Z_MATRIX, H_MATRIX, np.eye(2), _diag(-1, 1j),
          _diag(1, np.exp(0.3j)), random_unitary(rng, 2),
          np.array([[1j, -0.0], [-0.0j, -1]])]
    text = format_circuit(Circuit(3, tuple(
        g for u in us for g in (Local(u, 0),
                                MultiControlled(u, ((2, False),), 1)))))
    gates = [*parse_circuit(text).gates, CNot(0, 1)]
    for g in gates:
        u = g.u
        diagonal = u[0, 1] == 0 and u[1, 0] == 0
        assert (g.diagonal, g.phase) == (diagonal, diagonal and u[0, 0] == 1), g
        assert g.flip == np.array_equal(u, X_MATRIX), g
    assert [g.phase for g in gates[:12:2]] == [False, True, False, True,
                                               False, True]


# Reference dense gate matrix: a pure-Python loop over the rows, with the
# permutation map built bit by bit, independent of to_matrix's vectorized
# masks.

def _gate_matrix_loop(g, width):
    dim = 1 << width
    if isinstance(g, QubitPerm):
        out = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(dim):
            out[sum(((i >> q) & 1) << s for q, s in enumerate(g.sigma)), i] = 1.0
        return out
    if isinstance(g, Local):
        u, controls = g.u, ()
    elif isinstance(g, CNot):
        u, controls = X_MATRIX, ((g.control, True),)
    else:
        u, controls = g.u, g.controls
    pos = sum(1 << q for q, p in controls if p)
    neg = sum(1 << q for q, p in controls if not p)
    tbit = 1 << g.target
    out = np.eye(dim, dtype=np.complex128)
    for i in range(dim):
        if i & tbit or (i & pos) != pos or (i & neg) != 0:
            continue
        j = i | tbit
        out[i, i] = u[0, 0]
        out[i, j] = u[0, 1]
        out[j, i] = u[1, 0]
        out[j, j] = u[1, 1]
    return out


@pytest.mark.parametrize("width", range(2, 7))
def test_gate_matrix_matches_row_loop_reference(width):
    rng = np.random.default_rng(400 + width)
    u = random_unitary(rng, 2)
    top = width - 1
    gates = [Local(u, 0), Local(u, top), CNot(0, top), CNot(top, 0),
             MultiControlled(u, ((top, False),), 0),
             MultiControlled(u, ((0, True), (top, False)), width // 2)
             if width > 2 else MultiControlled(u, ((0, True),), 1),
             *fully_controlled_circuit(rng, width).gates,
             QubitPerm(tuple(reversed(range(width)))),
             QubitPerm(tuple(int(s) for s in rng.permutation(width)))]
    for g in gates:
        assert np.array_equal(to_matrix(Circuit(width, (g,))),
                              _gate_matrix_loop(g, width)), g


@pytest.mark.parametrize("width", range(1, 7))
def test_to_matrix_matches_dense_gate_product(width):
    rng = np.random.default_rng(500 + width)
    c = random_circuit(rng, width, 30)
    if width > 1:
        c = c + fully_controlled_circuit(rng, width)
    want = np.eye(1 << width, dtype=np.complex128)
    for g in c.gates:
        want = _gate_matrix_loop(g, width) @ want
    assert np.max(np.abs(to_matrix(c) - want)) < 1e-13


def test_controlled_single_x_is_cnot():
    c = controlled(Circuit(1, (Local(X_MATRIX, 0),)))
    assert np.allclose(to_matrix(c), to_matrix(Circuit(2, (CNot(1, 0),))))


def test_controlled_empty_is_identity():
    assert np.array_equal(to_matrix(controlled(Circuit(2))), np.eye(8))


def test_controlled_gives_direct_sum():
    from groupqft.circuit_library import qft_cyclic_circuit
    base = qft_cyclic_circuit(2)
    m = to_matrix(controlled(base))
    assert np.max(np.abs(m - direct_sum([np.eye(4), dft(4)]))) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_controlled_random_circuits(seed):
    # includes QubitPerm gates, exercising the swap decomposition
    rng = np.random.default_rng(200 + seed)
    width = int(rng.integers(2, 5))
    c = random_circuit(rng, width, 8)
    m = to_matrix(controlled(c))
    expect = direct_sum([np.eye(1 << width), to_matrix(c)])
    assert np.max(np.abs(m - expect)) < 1e-12


def test_cost_model_defaults():
    assert gate_cost(CNot(0, 1), 4) == 1
    assert gate_cost(Local(H_MATRIX, 0), 4) == 1
    assert gate_cost(MultiControlled(X_MATRIX, ((1, True),), 0), 4) == 1
    assert gate_cost(MultiControlled(
        X_MATRIX, ((1, True), (2, False)), 0), 4) == 2
    # all width-1 remaining qubits as controls: quadratic bucket
    full = MultiControlled(X_MATRIX, tuple((q, True) for q in range(1, 5)), 0)
    assert gate_cost(full, 5) == 25
    ncycle = QubitPerm((4, 0, 1, 2, 3))
    assert gate_cost(ncycle, 5) == 3 * 4
    assert gate_cost(QubitPerm((0, 1, 2)), 3) == 0


def test_gate_cost_edge_widths():
    # one control, or none, costs 1 even where k = width - 1
    assert gate_cost(CNot(0, 1), 2) == 1
    assert gate_cost(MultiControlled(X_MATRIX, ((1, True),), 0), 2) == 1
    assert gate_cost(Local(H_MATRIX, 0), 1) == 1
    assert gate_cost(MultiControlled(
        X_MATRIX, ((1, True), (2, False)), 0), 3) == 9


def test_every_2x2_gate_exposes_u_controls_target():
    u = H_MATRIX
    cases = [
        (Local(u, 2), u, (), 2),
        (CNot(3, 1), X_MATRIX, ((3, True),), 1),
        (MultiControlled(u, ((0, False), (4, True)), 2), u,
         ((0, False), (4, True)), 2),
    ]
    for g, want_u, want_controls, want_target in cases:
        assert np.array_equal(g.u, want_u), g
        assert g.controls == want_controls, g
        assert g.target == want_target, g
    # u and controls of Local/CNot are not fields: equality, hashing and
    # the text format see the same fields as before
    names = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (Local, CNot, MultiControlled, QubitPerm)}
    assert names == {Local: ["u", "target"], CNot: ["control", "target"],
                     MultiControlled: ["u", "controls", "target"],
                     QubitPerm: ["sigma"]}
    assert CNot(3, 1) == CNot(3, 1) and CNot(3, 1) != CNot(1, 3)
    assert hash(CNot(3, 1)) == hash(CNot(3, 1))


_X_TEXT = "u=0,0,1,0,1,0,0,0"


def _controlled_increment_text(n):
    """Text of controlled(increment_circuit(n)): the carry gates keep
    their controls and gain the new one last; the CNOT gains it first."""
    lines = [f"circuit width={n + 1} gates={n}"]
    for j in range(n - 1, 1, -1):
        ctrls = ",".join(f"{k}:+" for k in (*range(j), n))
        lines.append(f"mcu controls={ctrls} t={j} {_X_TEXT}")
    if n >= 2:
        lines.append(f"mcu controls={n}:+,0:+ t=1 {_X_TEXT}")
    lines.append(f"mcu controls={n}:+ t=0 {_X_TEXT}")
    return "\n".join(lines)


def test_controlled_increment_text_is_stable():
    assert format_circuit(controlled(increment_circuit(3))) == (
        "circuit width=4 gates=3\n"
        "mcu controls=0:+,1:+,3:+ t=2 u=0,0,1,0,1,0,0,0\n"
        "mcu controls=3:+,0:+ t=1 u=0,0,1,0,1,0,0,0\n"
        "mcu controls=3:+ t=0 u=0,0,1,0,1,0,0,0")
    for n in range(2, 9):
        assert format_circuit(controlled(increment_circuit(n))) \
            == _controlled_increment_text(n), n


def test_cost_additive():
    rng = np.random.default_rng(9)
    c1 = random_circuit(rng, 4, 7)
    c2 = random_circuit(rng, 4, 5)
    assert cost(c1 + c2) == pytest.approx(cost(c1) + cost(c2))


def test_embed_widens_with_identity():
    rng = np.random.default_rng(31)
    c = random_circuit(rng, 3, 6)
    wide = embed(c, 5)
    assert np.max(np.abs(to_matrix(wide)
                         - kron(np.eye(4), to_matrix(c)))) < 1e-12
    with pytest.raises(ValueError):
        embed(c, 2)
