from __future__ import annotations

import dataclasses
import functools
import importlib.util
import re
import sys
import tracemalloc
from itertools import groupby
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
from groupqft import circuit_library, verify
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
    adjoint,
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
        assert type(u.base) is bytes
        with pytest.raises(ValueError):
            u[0, 1] = 5
    assert cnot.flip and np.array_equal(CNot(1, 0).u, [[0, 1], [1, 0]])


def _shared_matrices():
    """The gate matrices the package shares between gates: the module's,
    the library's phases, the parser's, adjoint's, and the copy a gate
    makes of a writable array."""
    cyclic = qft_cyclic_circuit(3)
    text = "circuit width=1 gates=1\nlocal q=0 u=0,0,1,0,1,0,0,-0.0"
    return [X_MATRIX, Z_MATRIX, H_MATRIX,
            *[g.u for g in cyclic.gates if not isinstance(g, QubitPerm)],
            parse_circuit(text).gates[0].u,
            *[g.u for g in adjoint(cyclic).gates
              if not isinstance(g, QubitPerm)],
            Local(np.eye(2, dtype=np.complex128), 0).u]


def test_shared_gate_matrices_cannot_be_made_writable():
    # an array that owned its data could be made writable again: after
    # X_MATRIX.flags.writeable = True and a write of the identity, CNot(0,
    # 1).flip stayed True, so apply_to_state swapped |01> to |11> while
    # to_matrix kept it
    for u in _shared_matrices():
        assert type(u.base) is bytes and u.dtype == np.complex128
        with pytest.raises(ValueError):
            u.flags.writeable = True
        assert not u.flags.writeable
    c = Circuit(2, (CNot(0, 1),))
    state = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(apply_to_state(c, state), to_matrix(c) @ state)


@pytest.mark.parametrize("polarity", [True, np.True_, 1, np.int64(1), False,
                                      np.False_, 0, np.uint8(0)])
def test_bool_like_polarities_fire_as_their_bool(polarity):
    g = MultiControlled(X_MATRIX, ((0, polarity),), 1)
    assert g.controls == ((0, bool(polarity)),)
    assert type(g.controls[0][1]) is bool
    # with qubit 0 reading the polarity, X on qubit 1 fires
    bit = int(bool(polarity))
    state = np.zeros(4)
    state[bit] = 1.0
    assert apply_to_state(Circuit(2, (g,)), state)[bit | 2] == 1.0


def test_gates_keep_no_writable_u_of_the_caller():
    # a gate kept the caller's array, so a later write left its kind and
    # its unitarity check stale: X written into an identity Local made
    # apply_to_state give [0, 0] on |0> and to_matrix [0, 1]
    u = np.eye(2, dtype=np.complex128)
    gates = (Local(u, 0), MultiControlled(u, ((1, True),), 0))
    u[:] = X_MATRIX
    for g in gates:
        assert g.u is not u and not g.u.flags.writeable and g.diagonal
        assert np.array_equal(g.u, np.eye(2))
    c = Circuit(1, gates[:1])
    assert np.array_equal(apply_to_state(c, np.array([1.0, 0.0])), [1, 0])
    assert np.array_equal(to_matrix(c)[:, 0], [1, 0])
    # a read-only view of a writable base is copied too
    base = np.eye(2, dtype=np.complex128)
    view = base[:]
    view.flags.writeable = False
    g = Local(view, 0)
    base[:] = X_MATRIX
    assert g.u is not view and type(g.u.base) is bytes
    assert np.array_equal(g.u, np.eye(2)) and not g.flip


NON_INTEGER_QUBITS = {
    "local-target": lambda: Local(H_MATRIX, 1.5),
    "cnot-control": lambda: CNot(0.0, 1),
    "cnot-target": lambda: CNot(0, np.float64(1.0)),
    "mcu-control": lambda: MultiControlled(X_MATRIX, ((0.5, True),), 1),
    "mcu-target": lambda: MultiControlled(X_MATRIX, ((0, True),), 1.0),
    "perm": lambda: QubitPerm((1.0, 0.0)),
    "text": lambda: Local(H_MATRIX, "1"),
    # a bool is not a qubit index, Python's as well as numpy's
    "local-target-bool": lambda: Local(H_MATRIX, True),
    "cnot-bool": lambda: CNot(False, True),
    "cnot-numpy-bool": lambda: CNot(np.False_, 1),
    "mcu-control-bool": lambda: MultiControlled(X_MATRIX, ((True, True),), 2),
    "mcu-target-bool": lambda: MultiControlled(X_MATRIX, ((2, True),), True),
    "perm-bool": lambda: QubitPerm((True, False)),
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
    "width-bool": (lambda: Circuit(True),
                   "circuit width must be an integer, got True"),
    "width-numpy-bool": (lambda: Circuit(np.True_),
                         "circuit width must be an integer, got np.True_"),
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
    # malformed containers
    "mcu-bare-controls": (lambda: MultiControlled(X_MATRIX, (1, 2), 0),
                          "controls (1, 2) are not (qubit, polarity) pairs"),
    "mcu-controls-none": (lambda: MultiControlled(X_MATRIX, None, 0),
                          "controls None are not (qubit, polarity) pairs"),
    # an entry of another length, not Python's unpacking message
    "mcu-short-pair": (lambda: MultiControlled(X_MATRIX, ((1,),), 0),
                       "controls ((1,),) are not (qubit, polarity) pairs"),
    "mcu-long-pair": (lambda: MultiControlled(X_MATRIX, ((1, True, 0),), 0),
                      "controls ((1, True, 0),) are not (qubit, polarity) "
                      "pairs"),
    "mcu-empty-pair": (lambda: MultiControlled(
        X_MATRIX, ((2, True), ()), 0),
        "controls ((2, True), ()) are not (qubit, polarity) pairs"),
    # a polarity must be a Python or numpy bool or an integer 0 or 1:
    # "False" fired on |1>, None on |0>, and 2 and 0.5 passed
    "mcu-text-polarity": (lambda: MultiControlled(
        X_MATRIX, ((1, "False"),), 0),
        "controls ((1, 'False'),) are not (qubit, polarity) pairs"),
    "mcu-none-polarity": (lambda: MultiControlled(X_MATRIX, ((1, None),), 0),
                          "controls ((1, None),) are not (qubit, polarity) "
                          "pairs"),
    "mcu-two-polarity": (lambda: MultiControlled(X_MATRIX, ((1, 2),), 0),
                         "controls ((1, 2),) are not (qubit, polarity) pairs"),
    "mcu-float-polarity": (lambda: MultiControlled(X_MATRIX, ((1, 0.5),), 0),
                           "controls ((1, 0.5),) are not (qubit, polarity) "
                           "pairs"),
    # a u that numpy cannot read as numbers raised TypeError, or numpy's
    # own ValueError
    "local-dict-u": (lambda: Local({"a": 1}, 0),
                     "gate matrix {'a': 1} is not numeric"),
    "local-text-u": (lambda: Local("ab", 0),
                     "gate matrix 'ab' is not numeric"),
    "mcu-object-u": (lambda: MultiControlled(
        np.array([[{}, 0], [0, 1]], dtype=object), ((1, True),), 0),
        "gate matrix array([[{}, 0],\n       [0, 1]], dtype=object) is not "
        "numeric"),
    # a pair of the right length keeps as_int's message for its qubit
    "mcu-pair-float-qubit": (lambda: MultiControlled(
        X_MATRIX, ((1, True), (2.5, False)), 0),
        "qubit index must be an integer, got 2.5"),
    "mcu-pair-bool-qubit": (lambda: MultiControlled(
        X_MATRIX, ((False, True),), 1),
        "qubit index must be an integer, got False"),
    "perm-none": (lambda: QubitPerm(None),
                  "sigma must be a sequence of qubit indices, got None"),
    "perm-int": (lambda: QubitPerm(5),
                 "sigma must be a sequence of qubit indices, got 5"),
    "perm-empty": (lambda: QubitPerm(()),
                   "a qubit permutation needs at least one qubit"),
    "gates-int": (lambda: Circuit(3, 5), "not a sequence of gates: 5"),
    "gates-not-gates": (lambda: Circuit(3, [1]),
                        "not a sequence of gates: (1,)"),
    "add-widths": (lambda: Circuit(2, ()) + Circuit(3, ()),
                   "cannot concatenate circuits of different widths"),
    "embed-narrower": (lambda: embed(Circuit(3, (CNot(0, 2),)), 2),
                       "target width smaller than circuit width"),
    "embed-bool": (lambda: embed(Circuit(1), True),
                   "target width must be an integer, got True"),
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
        # changing targets, which now stay in one run of diagonal gates
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
        # twelve one-control factors on one target make a product of
        # 2**13 entries, the whole state, and an eleven-control phase gate
        # is too large to join a product at all
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

# one u per route of the mixing kernel, and Y, an anti-diagonal u that
# is not X, which takes the product formula
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


# Window stages: on states of w >= _FUSE_MIN_WIDTH qubits, the qubits are
# split into ceil(w / k) windows of at most _WINDOW = k qubits, whose sizes
# differ by at most one, and a stage of gates inside one window with two
# or more uncontrolled mixing gates is applied as one dense matrix on the
# span of its qubits.

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


def _model_windows(width, k):
    """The window of each qubit, numbered from the top: count =
    ceil(width / k) windows, cut at the depths i * width / count below the
    top qubit, rounded up, for i = 1 .. count - 1."""
    count = -(-width // k)
    cuts = [-(-i * width // count) for i in range(count + 1)]
    return {width - 1 - depth: i for i in range(count)
            for depth in range(cuts[i], cuts[i + 1])}


def _model_small(g):
    """Whether a diagonal gate's factor fits `_FACTOR_CAP`."""
    return _is_diagonal(g) and 2 ** (len(g.controls) + 1) \
        <= circuit_module._FACTOR_CAP


def _model_one_way(gates, width, k):
    """The steps of the schedule of the gates in the order given, read
    from the gates' matrices: ("window", gates) for a stage that fuses,
    ("diagonals", gates) for a run of two or more consecutive small
    diagonal gates (`_model_small`) in a stage that runs gate by gate or
    in a release of set-aside gates, ("perm", g), and ("gate", g) for
    every other gate.

    The windows are those of `_model_windows`.  A stage takes the gates
    inside the window of its first gate and sets aside every diagonal gate
    that reaches outside it.  It ends at a permutation, at a mixing gate
    outside its window, and at a mixing gate whose target a set-aside
    gate touches, which also releases those.  It fuses when it holds two
    or more uncontrolled mixing gates.  A release runs the set-aside
    gates, sorted by lowest qubit, as a stage that runs gate by gate."""
    steps, stage, window, aside, touched = [], [], None, [], set()
    window_of = _model_windows(width, k)

    def gate_by_gate(gates):
        run = []
        for g in [*gates, None]:
            if g is not None and _model_small(g):
                run.append(g)
                continue
            if len(run) > 1:
                steps.append(("diagonals", run))
            else:
                steps.extend(("gate", h) for h in run)
            run = []
            if g is not None:
                steps.append(("gate", g))

    def close():
        if sum(isinstance(g, Local) and not _is_diagonal(g)
               for g in stage) >= 2:
            steps.append(("window", stage))
        else:
            gate_by_gate(stage)

    def release():
        gate_by_gate(sorted(aside, key=lambda g: min(
            [g.target, *(q for q, _ in g.controls)])))

    for g in gates:
        perm = isinstance(g, QubitPerm)
        if perm or (not _is_diagonal(g) and g.target in touched):
            close()
            release()
            stage, window, aside, touched = [], None, [], set()
            if perm:
                steps.append(("perm", g))
                continue
        qubits = (g.target, *(q for q, _ in g.controls))
        windows = {window_of[q] for q in qubits}
        if len(windows) == 1 and window in (None, *windows):
            stage.append(g)
            window = windows.pop()
        elif _is_diagonal(g):
            aside.append(g)
            touched.update(qubits)
        else:
            close()
            stage, window = (([g], windows.pop()) if len(windows) == 1
                             else ([], None))
            if not stage:
                steps.append(("gate", g))
    close()
    release()
    return steps


def _model_steps(gates, width, k):
    """The steps of the schedule, with no move run regrouped, in the
    direction the rule picks: `_model_one_way` of the gates as
    listed, or of the reversed gates read from the last step to the first
    with each list reversed, whichever counts fewer steps once each
    fan-out run (`_fan_out_runs`) is one step; the listed one on a tie."""
    forward = _model_one_way(gates, width, k)
    backward = [(kind, p[::-1] if isinstance(p, list) else p)
                for kind, p in reversed(_model_one_way(gates[::-1], width, k))]

    def count(steps):
        return len(steps) - sum(len(run) - 1 for run in _fan_out_runs(steps))
    return backward if count(backward) < count(forward) else forward


def _expected_windows(gates, width, k):
    """Lengths of the stages the schedule fuses (`_model_steps`)."""
    return [len(run) for kind, run in _model_steps(gates, width, k)
            if kind == "window"]


def _fan_out_runs(steps):
    """The fan-out runs that the post-pass makes of model steps: two or
    more consecutive X gates that run on their own, with one set of
    (qubit, polarity) controls and distinct targets."""
    runs, run = [], []
    for kind, g in [*steps, ("end", None)]:
        x = kind == "gate" and np.array_equal(g.u, X_MATRIX)
        if (x and run and set(g.controls) == set(run[0].controls)
                and g.target not in {h.target for h in run}):
            run.append(g)
            continue
        if len(run) > 1:
            runs.append(run)
        run = [g] if x else []
    return runs


def _model_fan_outs(gates, width, k):
    """Targets of each fan-out run of the schedule (`_model_steps`)."""
    return [[g.target for g in run]
            for run in _fan_out_runs(_model_steps(gates, width, k))]


def _steps(c, rows=1):
    """The steps the state kernel runs `c` with on a batch of `rows`
    states, read as data: `_schedule` of its gates on width +
    ceil(log2 rows) qubits, the steps a `plan` of `c` holds."""
    return list(circuit_module._schedule(
        c.gates, c.width + (rows - 1).bit_length()))


def _calls(steps):
    """Every kernel call that running `steps` makes, in order: each step,
    then the steps of a window's matrix build (`_stage`, gate by gate)
    and of a move run's gather order."""
    for apply, payload in steps:
        yield apply, payload
        if apply is circuit_module._apply_window:
            yield from _calls(circuit_module._stage(payload, False))
        elif apply is circuit_module._apply_moves:
            yield from _calls(payload)


def _windows(c, rows=1):
    """The gate count of each stage that the kernel fuses."""
    return [len(run) for apply, run in _steps(c, rows)
            if apply is circuit_module._apply_window]


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
    rng = np.random.default_rng(1200 + seed)
    width = 6 + seed % 3
    c = Circuit(width, tuple(_window_gates(rng, width, 3)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert _windows(c) == (_expected_windows(c.gates, width, 3)
                           if width >= 7 else [])
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12


@pytest.mark.parametrize("offset", [0, -1])
def test_fused_runs_at_the_width_threshold(offset):
    k = circuit_module._WINDOW
    width = circuit_module._FUSE_MIN_WIDTH + offset
    rng = np.random.default_rng(1210)
    c = Circuit(width, tuple(_window_gates(rng, width, k)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    calls = _windows(c)
    assert calls == (_expected_windows(c.gates, width, k) if offset == 0
                     else [])
    assert len(calls) == 0 or min(calls) >= 2
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12


def _model_spans(width, k):
    """The (lo, hi) qubit span of each window of `_model_windows`, from
    the top down."""
    window_of = _model_windows(width, k)
    return [(min(qs), max(qs) + 1) for qs in (
        [q for q in window_of if window_of[q] == i]
        for i in sorted(set(window_of.values())))]


def _layout_windows(width):
    """The qubits of each stage `_segments` makes of Hadamards on every
    qubit from the top down: each stage is one window of the layout, and
    fuses, as it holds two or more Hadamards."""
    gates = tuple(Local(H_MATRIX, q) for q in reversed(range(width)))
    steps = list(circuit_module._segments(gates, width))
    assert all(apply is circuit_module._apply_window for apply, _ in steps)
    return [[g.target for g in run] for _, run in steps]


@pytest.mark.parametrize("k, widths", [(None, range(14, 31)),
                                       (3, range(7, 31))])
def test_window_layout_is_even(k, widths, monkeypatch):
    # ceil(w / k) contiguous windows from the top down, sizes within one
    # of each other, none above k, and a largest one on top
    if k is None:
        k = circuit_module._WINDOW
    else:
        monkeypatch.setattr(circuit_module, "_WINDOW", k)
        monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    for width in widths:
        stages = _layout_windows(width)
        assert [q for stage in stages for q in stage] == \
            list(reversed(range(width))), width
        sizes = [len(stage) for stage in stages]
        assert len(sizes) == -(-width // k), width
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= k, width
        assert sizes[0] == max(sizes), width
        assert [(min(st), max(st) + 1) for st in stages] == \
            _model_spans(width, k), width
    # width 18 keeps the three 6-qubit windows of the n = 8 identity
    # batches
    if k == 6:
        assert _model_spans(18, 6) == [(12, 18), (6, 12), (0, 6)]
        assert _model_spans(21, 6) == [(15, 21), (10, 15), (5, 10), (0, 5)]


@pytest.mark.parametrize("seed", range(3))
def test_fused_window_matches_to_matrix_of_its_run(seed):
    # a circuit that fills one window [lo, hi) acts on the middle axis of
    # the (2^(w-hi), 2^(hi-lo), 2^lo) view by to_matrix of its run: the
    # top and the middle window at the threshold, and the bottom one at
    # width 3k
    k = circuit_module._WINDOW
    top = circuit_module._FUSE_MIN_WIDTH
    width, index = [(top, 0), (top, 1), (3 * k, 2)][seed]
    lo, hi = _model_spans(width, k)[index]
    size = hi - lo
    rng = np.random.default_rng(1220 + seed)
    cascade = qft_cyclic_circuit(size).gates[:-1]
    run = [*cascade, *random_circuit(rng, size, 12).gates]
    run = [g for g in run if not isinstance(g, QubitPerm)]
    c = Circuit(size, tuple(run))
    # the run on qubits lo..hi-1 of the wide state
    lifted = Circuit(width, tuple(
        MultiControlled(g.u, tuple((q + lo, p) for q, p in g.controls),
                        g.target + lo)
        if g.controls else Local(g.u, g.target + lo) for g in run))
    state = _random_state(rng, width)
    got = apply_to_state(lifted, state)
    assert _windows(lifted) == [len(run)]
    u = to_matrix(c)
    want = np.matmul(u, state.reshape(-1, 1 << size, 1 << lo)).reshape(-1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_fusion_threshold_clears_the_build_and_the_sweep_widths(monkeypatch):
    # the gate_sweep benchmark simulates only below the threshold, so it
    # never pays for a build; a run's matrix is built gate by gate, with
    # no threshold (test_window_build_never_fuses_again)
    path = Path(__file__).resolve().parents[1] / "qftbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qftbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert circuit_module._FUSE_MIN_WIDTH > workloads.SIM_MAX_WIDTH


def test_window_build_never_fuses_again(monkeypatch):
    # a stage's matrix is built gate by gate, so the build fuses no
    # further even when the threshold is below 2 * _WINDOW
    monkeypatch.setattr(circuit_module, "_WINDOW", 4)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    c = qft_cyclic_circuit(9)
    state = _random_state(np.random.default_rng(1240), c.width)
    got = apply_to_state(c, state)
    assert _windows(c)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12


@pytest.mark.parametrize("n, rows", [(8, 512), (15, 1)])
def test_state_kernel_builds_no_circuit(n, rows, monkeypatch):
    # the qd circuit on its 512-row identity batch (width 18) and on
    # one width-16 state: batch rows are leading axes, and a fused stage's
    # matrix is built from its own gates, so no Circuit is made
    c = qft_circuit(GroupSpec(Family.QD, n))
    states = np.eye(rows, 1 << c.width)
    built = []
    inner = Circuit.__post_init__

    def spy(self):
        built.append(self.width)
        inner(self)
    assert _windows(c, rows)
    monkeypatch.setattr(Circuit, "__post_init__", spy)
    apply_to_state(c, states)
    assert built == []


def test_fused_window_memory_peak():
    # the state copy plus a row-block buffer and a 2^(2k)-entry build:
    # neither grows with the state
    width = 18
    k = circuit_module._WINDOW
    c = Circuit(width, qft_cyclic_circuit(k).gates[:-1])
    v = np.random.default_rng(1230).standard_normal(1 << width) + 0j
    assert _traced_peak(c, v) <= 1.25 * v.nbytes
    assert _windows(c) == [len(c.gates)]


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
def test_batch_matches_rows_and_to_matrix(width, rows):
    # w + m reaches _FUSE_MIN_WIDTH only for 2^w rows at widths 7 and 8
    rng = np.random.default_rng(1300 + width)
    c = _batch_circuit(rng, width)
    k = 1 << width if rows == "2^w" else int(rows)
    dim = 1 << width
    states = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    before = states.copy()
    got = apply_to_state(c, states)
    wide = width + (k - 1).bit_length()
    assert (len(_windows(c, k)) > 0) == \
        (wide >= circuit_module._FUSE_MIN_WIDTH)
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


@pytest.mark.parametrize("state", [
    np.array([None] * 16), np.array(["1"] * 16),
    np.zeros(16, dtype="datetime64[s]")], ids=["object", "str", "datetime"])
def test_apply_to_state_rejects_non_numeric_states(state):
    # an object array of None ran to all-NaN output and raised nothing
    with pytest.raises(ValueError, match=re.escape(f"dtype {state.dtype}")):
        apply_to_state(Circuit(4, (Local(H_MATRIX, 0),)), state)


def test_apply_to_state_takes_every_numeric_kind():
    c = Circuit(2, (CNot(0, 1),))
    want = apply_to_state(c, np.array([1.0, 1.0, 0.0, 1.0]))
    for dtype in (bool, np.int8, np.uint16, np.float32, np.complex64):
        state = np.array([1, 1, 0, 1], dtype=dtype)
        assert np.array_equal(apply_to_state(c, state), want), dtype


# Plans: `plan(c, rows)` schedules the circuit once and builds each window
# matrix and move-run gather order once; `run` takes any batch of at most
# `rows` states, as often as asked.

@pytest.mark.parametrize("rows", [0, -1, 2.5, True])
def test_plan_rejects_a_row_count_that_is_not_a_positive_integer(rows):
    with pytest.raises(ValueError, match="plan rows"):
        circuit_module.plan(qft_cyclic_circuit(3), rows)


@pytest.mark.parametrize("shape", [(4, 8), (9, 8), (3, 16), (16,), (2, 4)])
def test_plan_run_rejects_more_rows_or_another_width(shape):
    # three rows are padded to four, yet a fourth row is still refused
    p = circuit_module.plan(qft_cyclic_circuit(3), 3)
    with pytest.raises(ValueError, match="expected"):
        p.run(np.zeros(shape))


def test_plan_run_takes_fewer_rows_than_planned():
    c = qft_cyclic_circuit(3)
    p = circuit_module.plan(c, 3)
    for rows in (1, 2, 3):
        states = np.eye(rows, 8)
        assert np.array_equal(p.run(states), apply_to_state(c, states))
    assert np.array_equal(p.run(np.eye(8)[5]), apply_to_state(c, np.eye(8)[5]))


@pytest.mark.parametrize("width", [10, 15, 21])
def test_a_plan_run_twice_equals_apply_to_state(width):
    # the same plan on two batches, each run twice: bit for bit what
    # apply_to_state gives, and the input is never written
    c = _adjoint_input(width)
    rows = 3 if width == 10 else 1
    rng = np.random.default_rng(1180 + width)
    p = circuit_module.plan(c, rows)
    for _ in range(2):
        states = np.stack([_random_state(rng, width) for _ in range(rows)])
        if rows == 1:
            states = states[0]
        before = states.copy()
        got = p.run(states)
        assert np.array_equal(got, apply_to_state(c, states))
        assert np.array_equal(p.run(states), got)
        assert np.array_equal(states, before)


def test_plan_runs_the_scheduled_kernels_one_to_one():
    # each step of a plan is the step of `_schedule` in its place, with the
    # same kernel: a window holds the lowest qubit of its span and the
    # stage's matrix, a move run a gather order that permutes the batch's
    # indices, and every other step its own payload
    qd8 = qft_circuit(GroupSpec(Family.QD, 8))
    cases = [(qd8, 64), (qd8, 512), (qft_circuit(GroupSpec(Family.QD, 15)), 1),
             (adjoint(qft_cyclic_circuit(16)), 1), (qft_cyclic_circuit(9), 3)]
    kernels = set()
    for c, rows in cases:
        p = circuit_module.plan(c, rows)
        steps = _steps(c, rows)
        assert (p.width, p.rows) == (c.width, rows)
        assert [apply for apply, _ in p.steps] == \
            [apply for apply, _ in steps]
        wide = c.width + (rows - 1).bit_length()
        for (apply, built), (_, payload) in zip(p.steps, steps):
            kernels.add(apply)
            if apply is circuit_module._apply_window:
                lo, u = built
                hi = max(g.span[1] for g in payload) + 1
                assert lo == min(g.span[0] for g in payload)
                assert u.shape == (1 << (hi - lo),) * 2
            elif apply is circuit_module._apply_moves:
                assert np.array_equal(np.sort(built), np.arange(1 << wide))
            else:
                assert built == payload
    assert {circuit_module._apply_window,
            circuit_module._apply_moves} <= kernels


def test_window_build_runs_no_public_entry(monkeypatch):
    # qftbench counts the gates of apply_to_state calls; a fused run's
    # matrix must be built below it
    seen = []
    inner = circuit_module.apply_to_state

    def spy(c, state):
        seen.append(len(c.gates))
        return inner(c, state)
    monkeypatch.setattr(circuit_module, "apply_to_state", spy)
    c = Circuit(circuit_module._FUSE_MIN_WIDTH,
                qft_cyclic_circuit(circuit_module._WINDOW).gates[:-1])
    circuit_module.apply_to_state(c, np.eye(2, 1 << c.width))
    # two rows add a qubit: at width 15 the cascade on qubits 0..5 meets
    # windows [5, 10) and [0, 5); the Hadamard on qubit 5 runs alone, its 5
    # phases are deferred, and the rest is one stage of 15 gates
    assert _windows(c, 2) == [15]
    assert seen == [len(c.gates)]


# Grouping: window stages go to _apply_window.  In a stage that runs gate
# by gate, and in a release of deferred diagonal gates sorted by lowest
# qubit, each run of two or more consecutive small diagonal gates goes to
# _apply_diagonals.

def _diagonal_runs(steps):
    """(first target, length) of each diagonal product among `steps`."""
    return [(run[0].target, len(run)) for apply, run in steps
            if apply is circuit_module._apply_diagonals]


def _build_steps(steps):
    """The steps of each window's matrix build among `steps`, in order."""
    return [step for apply, run in steps
            if apply is circuit_module._apply_window
            for step in circuit_module._stage(run, False)]


def _gate_by_gate(gates):
    """The steps of a narrow state: between permutations the gates are one
    stage that runs gate by gate (`_stage`), so nothing fuses and nothing
    is deferred."""
    steps = []
    for perm, run in groupby(gates, lambda g: isinstance(g, QubitPerm)):
        steps.extend([(circuit_module._permute, g) for g in run] if perm
                     else circuit_module._stage(list(run), False))
    return steps


def _releases(steps, width, k):
    """The gate count of each diagonal product among `steps` that releases
    deferred gates: it holds a gate whose qubits lie in two windows of
    `_model_windows`, which no stage takes."""
    window_of = _model_windows(width, k)
    return [len(run) for apply, run in steps
            if apply is circuit_module._apply_diagonals
            and any(len({window_of[q] for q in (g.target, *(
                q for q, _ in g.controls))}) > 1 for g in run)]


@pytest.mark.parametrize("width", [12, 16])
def test_cyclic_cascade_fuses_one_phase_run_per_target(width):
    # target j carries j phase gates, and the lone one on qubit 1 runs on
    # its own.  At width 12 each target's gates are one phase run of the
    # one stage.  At width 16 the windows [10, 16), [5, 10) and [0, 5) are
    # one stage each, whose build fuses the phase runs of the stage's own
    # targets 15..12, 9..7 and 4..2, each holding the gates whose controls
    # stay in the window; the phases that reach below a window, 60 and 25,
    # are deferred and released as one product each
    c = qft_cyclic_circuit(width)
    steps = _steps(c)
    got = apply_to_state(c, np.ones(1 << width))
    assert np.max(np.abs(got - np.sqrt(got.size) * np.fft.ifft(
        np.ones(1 << width)))) < 1e-12
    if width < circuit_module._FUSE_MIN_WIDTH:
        assert steps == _gate_by_gate(c.gates)
        assert _diagonal_runs(steps) == [(t, t)
                                         for t in range(width - 1, 1, -1)]
        assert _windows(c) == []
    else:
        assert _diagonal_runs(_build_steps(steps)) == [
            (15, 5), (14, 4), (13, 3), (12, 2),
            (9, 4), (8, 3), (7, 2), (4, 4), (3, 3), (2, 2)]
        assert _windows(c) == [21, 15, 15]
        assert [n for _, n in _diagonal_runs(steps)] == [60, 25]
        assert _releases(steps, width, circuit_module._WINDOW) == [60, 25]


def test_phase_runs_break_on_every_other_key():
    # a mixing gate, a permutation and a ten-control phase gate (a factor
    # of 2**11 entries, past _FACTOR_CAP) each end a run, while a change
    # of target and a nine-control gate (2**10 entries) do not; a lone
    # phase gate is not a run
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
        ph(tuple((k, k % 2 == 1) for k in range(9)), 12),
        ph(((9, True),), 12),
        ph(tuple((k, k % 2 == 0) for k in range(10)), 12),
        ph(((10, True),), 12), ph(((11, True),), 12),
        ph(((0, True),), 5),
    ]
    state = _random_state(rng, width)
    c = Circuit(width, tuple(gates))
    got = apply_to_state(c, state)
    assert _diagonal_runs(_steps(c)) == [(12, 6), (12, 3), (12, 3), (12, 3)]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


def test_lone_window_phase_gate_splits_a_phase_run():
    # the phase gates on target 2 whose controls stay in its window
    # [0, 4) (qubits 3 and 0) form a stage, which has no mixing gate and
    # so runs gate by gate, as one phase run; the other three (controls
    # 13, 4 and 6) reach outside it, and the run falls into that phase run
    # and one release of the three deferred gates
    rng = np.random.default_rng(1410)
    ph = functools.partial(_phase_gate, rng)
    width = circuit_module._FUSE_MIN_WIDTH
    lo, hi = _model_spans(width, circuit_module._WINDOW)[-1]
    assert lo <= 2 < hi
    gates = [ph(((hi - 1, True),), 2), ph(((width - 1, False),), 2),
             ph(((hi, True),), 2),
             ph(((lo, True),), 2), ph(((hi + 2, True),), 2)]
    state = _random_state(rng, width)
    c = Circuit(width, tuple(gates))
    got = apply_to_state(c, state)
    diagonals = circuit_module._apply_diagonals
    assert _steps(c) == [(diagonals, [gates[0], gates[3]]),
                         (diagonals, [gates[1], gates[2], gates[4]])]
    assert _releases(_steps(c), width, circuit_module._WINDOW) == [3]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_factor_is_the_gate_diagonal(seed):
    # broadcast to the gate's width, the factor is the diagonal of the
    # gate's matrix, for diag(a, b) gates with negative controls
    rng = np.random.default_rng(1420 + seed)
    width = 3 + seed
    for _ in range(6):
        t = int(rng.integers(0, width))
        others = [q for q in range(width) if q != t]
        controls = tuple((int(q), bool(rng.integers(0, 2)))
                         for q in rng.permutation(others)[
                             :int(rng.integers(0, width))])
        u = _diag(np.exp(2j * np.pi * rng.random()),
                  np.exp(2j * np.pi * rng.random()))
        g = MultiControlled(u, controls, t) if controls else Local(u, t)
        f = circuit_module._diagonal_factor(g)
        got = np.broadcast_to(f, (2,) * width).reshape(-1)
        assert np.array_equal(got, np.diag(to_matrix(Circuit(width, (g,))))), g


def test_narrow_stage_run_mixes_targets_and_diagonals():
    # on a narrow state, small diagonal gates on several targets, among
    # them a diag(a, b) with a != 1 and negative controls, are one run
    rng = np.random.default_rng(1430)
    ph = functools.partial(_phase_gate, rng)
    width = 6
    gates = [ph(((0, True),), 3), ph(((5, False),), 1),
             MultiControlled(_diag(np.exp(0.7j), np.exp(-1.9j)),
                             ((2, False), (4, True)), 0),
             ph((), 5), ph(((3, True), (1, False)), 4)]
    c = Circuit(width, tuple(gates))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert _steps(c) == [(circuit_module._apply_diagonals, gates)]
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12


# The schedule on random circuits whose diagonal gates include diag(a, b)
# with a != 1, which joins stage runs and releases, and negative controls.

@pytest.mark.parametrize("seed", range(8))
def test_scheduled_kernel_matches_to_matrix_with_a_small_window(
        seed, monkeypatch):
    # 3-qubit windows from width 7 keep to_matrix affordable; at width 6
    # the one pass runs without windows
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    rng = np.random.default_rng(1500 + seed)
    width = 6 + seed % 3
    c = random_diagonal_circuit(rng, width, 60)
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    windows = _windows(c)
    if width < 7:
        assert _steps(c) == _gate_by_gate(c.gates)
        assert windows == []
    else:
        assert windows == _expected_windows(c.gates, width, 3)
        assert windows and _releases(_steps(c), width, 3)


@pytest.mark.parametrize("width", [14, 15, 16])
def test_scheduled_kernel_matches_reference_at_full_size(width):
    rng = np.random.default_rng(1510 + width)
    # two Hadamards in the bottom window, so that a stage fuses at every
    # width: at width 14 the random gates alone fuse none in windows of 5
    c = Circuit(width, (Local(H_MATRIX, 0), Local(H_MATRIX, 1),
                        *random_diagonal_circuit(rng, width, 40).gates))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - _reference_chain(c.gates, state))) < 1e-12
    windows = _windows(c)
    assert windows == _expected_windows(c.gates, width,
                                        circuit_module._WINDOW)
    assert windows and _releases(_steps(c), width, circuit_module._WINDOW)


def test_scheduled_qft_circuits_memory_peak():
    # the state copy plus window buffers, builds and diagonal products of
    # at most 2^14 entries; the permutations, which move the state into a
    # new array, are left out
    width = 18
    v = np.random.default_rng(1520).standard_normal(1 << width) + 0j
    for full in (qft_cyclic_circuit(width),
                 qft_circuit(GroupSpec(Family.QD, width - 1))):
        c = Circuit(width, tuple(g for g in full.gates
                                 if not isinstance(g, QubitPerm)))
        assert _traced_peak(c, v) <= 1.25 * v.nbytes
        assert _windows(c)
        assert _releases(_steps(c), width, circuit_module._WINDOW)


# Fan-out runs: two or more consecutive X gates with one set of controls
# and distinct targets whose qubits span windows run as one flipped swap.

def _fan_outs(c, rows=1):
    """The targets of each fan-out run the kernel runs `c` with, on the
    state or, inside a move run, on its index array."""
    return [[g.target for g in run] for apply, run in _calls(_steps(c, rows))
            if apply is circuit_module._apply_fan_out]


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
    rng = np.random.default_rng(1600 + seed)
    width = 6 + seed % 3
    c = Circuit(width, tuple(_fan_out_gates(rng, width)))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    want = _model_fan_outs(c.gates, width, 3) if width >= 7 else []
    fan_outs = _fan_outs(c)
    assert fan_outs == want
    assert _windows(c) == (_expected_windows(c.gates, width, 3)
                       if width >= 7 else [])
    if width >= 7:
        assert fan_outs


def test_fan_out_run_ends_where_the_rule_says():
    # CNOTs and multi-controlled X with the same control, then a repeated
    # target; mixed polarities in any order, then a gate that targets a
    # control; a change of control set; a run inside the window [0, 5),
    # whose stage runs gate by gate, is grouped too
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
    c = Circuit(width, tuple(gates))
    got = apply_to_state(c, state)
    assert _fan_outs(c) == [[0, 9, 14], [5, 13, 1], [14, 15], [2, 3, 0]]
    want = state
    for g in gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(2))
def test_fan_out_runs_match_gates_one_by_one_at_full_size(seed):
    rng = np.random.default_rng(1620 + seed)
    width = 16
    gates = _fan_out_gates(rng, width)
    state = _random_state(rng, width)
    got = apply_to_state(Circuit(width, tuple(gates)), state)
    want = state
    for g in gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert _fan_outs(Circuit(width, tuple(gates)))
    assert np.max(np.abs(got - want)) < 1e-12
    # X gates alone are exact swaps either way
    xs = tuple(g for g in gates if not isinstance(g, QubitPerm) and g.flip)
    got = apply_to_state(Circuit(width, xs), state)
    want = state
    for g in xs:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.array_equal(got, want)


def test_in_window_fan_out_run_of_a_gate_by_gate_stage(monkeypatch):
    # 3-qubit windows from width 7; at width 8 they are [5, 8), [2, 5) and
    # [0, 2).  Each X run lies inside one window, in a stage with no
    # uncontrolled mixing gate, which runs gate by gate: its consecutive X
    # gates are one fan-out run, with positive and with negative controls,
    # and a change of control set between the stages starts a new run
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    width = 8
    gates = [Local(H_MATRIX, 0),
             MultiControlled(H_MATRIX, ((2, True),), 4), CNot(4, 2),
             MultiControlled(X_MATRIX, ((4, True),), 3),
             MultiControlled(X_MATRIX, ((7, False),), 5),
             MultiControlled(X_MATRIX, ((7, False),), 6)]
    c = Circuit(width, tuple(gates))
    state = _random_state(np.random.default_rng(1625), width)
    got = apply_to_state(c, state)
    assert _fan_outs(c) == [[2, 3], [5, 6]]
    assert _windows(c) == []
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12


def test_fan_out_run_releases_pending_gates_on_its_targets(monkeypatch):
    # three diagonal gates reach across windows and are deferred; a run
    # that targets one of their qubits releases them first, and a run
    # that targets none of them runs while they stay pending
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    rng = np.random.default_rng(1630)
    ph = functools.partial(_phase_gate, rng)
    width = 8
    gates = [ph(((7, True),), 0), ph(((6, False),), 0), ph(((5, True),), 0),
             CNot(4, 3), CNot(4, 1),
             CNot(2, 0), CNot(2, 4)]
    state = _random_state(rng, width)
    c = Circuit(width, tuple(gates))
    got = apply_to_state(c, state)
    events = [("fan-out", [g.target for g in run])
              if apply is circuit_module._apply_fan_out
              else ("release", len(run)) for apply, run in _calls(_steps(c))
              if apply in (circuit_module._apply_fan_out,
                           circuit_module._apply_diagonals)]
    assert events == [("fan-out", [3, 1]), ("release", 3),
                      ("fan-out", [0, 4])]
    assert _releases(_steps(c), width, 3) == [3]
    assert np.max(np.abs(got - to_matrix(Circuit(width, tuple(gates)))
                         @ state)) < 1e-12


def test_qd_reorder_cnots_run_as_one_fan_out():
    # qd n = 20 at width 21: CNot(19, j) for j = 0..18 is one step of the
    # move run that holds the reorder factor
    c = qft_circuit(GroupSpec(Family.QD, 20))
    steps = list(circuit_module._move_runs(
        circuit_module._segments(c.gates, c.width)))
    assert not any(apply is circuit_module._apply_fan_out
                   for apply, _ in steps)
    runs = [g for apply, payload in steps
            if apply is circuit_module._apply_moves
            for inner, g in payload if inner is circuit_module._apply_fan_out]
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
        got = circuit_module._permute(psi.reshape((2,) * width),
                                      QubitPerm(sigma))
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
        got = circuit_module._permute(psi.reshape((2,) * width),
                                      QubitPerm(sigma))
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


def test_identity_batch_permutations_stay_on_the_transpose(monkeypatch):
    # a width-9 circuit on the batch of its 512 basis rows is a width-18
    # state whose permutations move at most 9 qubits
    calls = _band_spy(monkeypatch)
    G = GroupSpec(Family.QD, 8)
    c = qft_circuit(G)
    assert any(isinstance(g, QubitPerm) for g in c.gates)
    got = apply_to_state(c, np.eye(1 << c.width))
    assert np.max(np.abs(got - assemble(G).b.T)) < 1e-12
    assert calls == []
    assert _fan_outs(c, 1 << c.width) == [list(range(7))]


# Move runs: on the wide states, three or more consecutive steps that only
# move entries (lone X gates, fan-out runs, qubit permutations), among them
# a permutation, run on an index array and move the state by one gather.
# The rule reads the steps alone, so it holds at every fused width.

def _move_run_steps(c):
    """The steps of each move run the kernel runs `c` with, each as the
    kernel's name ("x", "fan-out" or "perm") and its gates."""
    return [[("perm" if apply is circuit_module._permute else
              "x" if apply is circuit_module._apply_gate
              else "fan-out", g) for apply, g in run]
            for kernel, run in _steps(c)
            if kernel is circuit_module._apply_moves]


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
    return (apply in (circuit_module._apply_fan_out, circuit_module._permute)
            or (apply is circuit_module._apply_gate
                and np.array_equal(g.u, X_MATRIX)))


@pytest.mark.parametrize("width", [14, 15, 16])
def test_move_runs_match_reference_bit_for_bit(width):
    rng = np.random.default_rng(1800 + width)
    gates = _move_gates(rng, width)
    state = _random_state(rng, width)
    c = Circuit(width, tuple(gates))
    got = apply_to_state(c, state)
    assert np.array_equal(got, _reference_chain(gates, state))
    # each run holds three or more steps, a permutation among them, and
    # only moves; every other step of the schedule stays in the stream
    calls = _move_run_steps(c)
    assert calls
    for steps in calls:
        assert len(steps) >= 3 and "perm" in [kind for kind, _ in steps]
    stream = _steps(c)
    grouped = [g for apply, g in stream if apply is circuit_module._apply_moves]
    assert all(_is_move(*step) for steps in grouped for step in steps)
    # outside a run, moves side by side with a permutation are at most two
    for moves, group in groupby(
            stream, lambda step: step[0] is not circuit_module._apply_moves
            and _is_move(*step)):
        group = list(group)
        if moves and any(isinstance(g, QubitPerm) for _, g in group):
            assert len(group) <= 2


def test_move_runs_end_where_the_rule_says():
    # width 16, windows [10, 16), [5, 10) and [0, 5).  A CNOT, a rotation,
    # a fan-out run and a multi-controlled X are one run; a controlled Y
    # (mixing) ends it.  Two X gates without a permutation stay in place.
    # Z, a stage of its own, comes out before the reversal.  The
    # controlled Z across windows is deferred past CNot(13, 1), which
    # targets none of its qubits, so the reversal and the two CNOTs are a
    # run; the Z is released before the last rotation, which stays alone.
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
    calls = _move_run_steps(Circuit(width, tuple(gates)))
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
    G = GroupSpec(Family.QD, 15)
    c = qft_circuit(G)
    factors = dict(circuit_library.qft_factors(G))
    state = _random_state(np.random.default_rng(1820), c.width)
    got = apply_to_state(c, state)
    calls = _move_run_steps(c)
    assert len(calls) == 1
    assert [kind for kind, _ in calls[0]] == \
        ["x", "x", "perm", "fan-out", *["x"] * 16]
    flat = [h for _, g in calls[0] for h in (g if isinstance(g, list) else [g])]
    assert format_circuit(Circuit(c.width, tuple(flat))) == format_circuit(
        factors["twiddle"] + factors["reorder"])
    monkeypatch.setattr(circuit_module, "_move_runs", lambda steps: steps)
    assert np.array_equal(got, apply_to_state(c, state))
    assert _move_run_steps(c) == []


@pytest.mark.parametrize("offset", [0, -1])
def test_move_runs_only_on_wide_states(offset):
    # below the width threshold every gate runs on its own, in order
    width = circuit_module._FUSE_MIN_WIDTH + offset
    c = qft_circuit(GroupSpec(Family.QD, width - 1))
    state = _random_state(np.random.default_rng(1830), width)
    got = apply_to_state(c, state)
    assert len(_move_run_steps(c)) == (1 if offset == 0 else 0)
    want = state
    for g in c.gates:
        want = apply_to_state(Circuit(width, (g,)), want)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("width", [14, 21])
def test_move_runs_follow_the_step_count(width):
    # qp's twiddle X and reorder swap are a group of two moves, which
    # stays step by step at any fused width; an X, a rotation and an X,
    # three moves, are one move run, bit for bit the gates one by one
    steps = list(circuit_module._schedule(
        qft_circuit(GroupSpec(Family.QP, width - 1)).gates, width))
    assert all(apply is not circuit_module._apply_moves for apply, _ in steps)
    kinds = [[apply for apply, _ in group] for moves, group in groupby(
        steps, lambda step: _is_move(*step)) if moves]
    assert [circuit_module._apply_gate, circuit_module._permute] in kinds
    rot = QubitPerm((width - 1, *range(width - 1)))
    gates = (Local(X_MATRIX, 3), rot, Local(X_MATRIX, 3))
    assert list(circuit_module._schedule(gates, width)) == [
        (circuit_module._apply_moves, [(circuit_module._apply_gate, gates[0]),
                                       (circuit_module._permute, rot),
                                       (circuit_module._apply_gate, gates[2])])]
    if width == 14:
        state = _random_state(np.random.default_rng(1835), width)
        assert np.array_equal(apply_to_state(Circuit(width, gates), state),
                              _reference_chain(gates, state))


def test_full_qft_circuits_memory_peak():
    # permutations included: the state copy, the new array a permutation
    # or a move run's gather fills, and a move run's index array of a
    # quarter state, within the bound of the cyclic test above
    width = 18
    v = np.random.default_rng(1840).standard_normal(1 << width) + 0j
    circuits = (qft_cyclic_circuit(width),
                qft_circuit(GroupSpec(Family.QD, width - 1)))
    for c in circuits:
        assert _traced_peak(c, v) <= 2.5 * v.nbytes
    assert [len(_move_run_steps(c)) for c in circuits] == [0, 1]


# Releases: a product of deferred diagonal factors grows to _BLOCK entries
# before it scales the state.

class _ProductProbe(np.ndarray):
    """A view of the state that records the size of every factor product
    multiplied into it in place."""
    sizes: list = []

    def __imul__(self, other):
        self.sizes[-1].append(np.size(other))
        return super().__imul__(other)


def _product_spy(monkeypatch, width):
    """Record, per diagonal product step on a `width`-qubit state, the
    sizes of the products that scale the state; the runs of a window's
    matrix build, on 2^(2k) entries, are not recorded."""
    sizes = []
    inner = circuit_module._apply_diagonals

    def spy(psi, gates):
        if psi.size != 1 << width:
            return inner(psi, gates)
        sizes.append([])
        probe = psi.view(_ProductProbe)
        probe.sizes = sizes
        inner(probe, gates)
        return psi
    monkeypatch.setattr(circuit_module, "_apply_diagonals", spy)
    return sizes


def test_cyclic_21_releases_in_block_sized_products(monkeypatch):
    # the cascade's three releases scale the state twice, twice and once;
    # each product holds at most _BLOCK entries
    n = 21
    sizes = _product_spy(monkeypatch, n)
    rng = np.random.default_rng(1850)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    got = apply_to_state(qft_cyclic_circuit(n), v)
    assert [len(s) for s in sizes] == [2, 2, 1]
    assert max(max(s) for s in sizes) == circuit_module._BLOCK
    assert np.max(np.abs(got - np.sqrt(v.size) * np.fft.ifft(v))) < 1e-13


def test_release_runs_a_factor_past_the_phase_cap_alone():
    # a deferred gate with ten controls has a factor of 2^11 entries, past
    # _FACTOR_CAP, and runs alone on its control block.  Sorted by lowest
    # qubit, it splits the three one-control gates listed around it in
    # the forward schedule (Z on 0, it, then Z on 1 and 2: three steps);
    # the backward one sorts it first and releases the three as one
    # product, in two steps, and runs
    width = circuit_module._FUSE_MIN_WIDTH
    many = MultiControlled(Z_MATRIX, tuple((q, q % 2 == 1)
                                           for q in range(3, 13)), 0)
    gates = [MultiControlled(Z_MATRIX, ((13, True),), t) for t in (0, 1, 2)]
    gates.insert(1, many)
    c = Circuit(width, tuple(gates))
    forward, backward = _both_ways(c.gates, width)
    assert len(forward) == 3
    assert _steps(c) == backward == [
        (circuit_module._apply_diagonals, [gates[3], gates[2], gates[0]]),
        (circuit_module._apply_gate, many)]
    state = _random_state(np.random.default_rng(1855), width)
    got = apply_to_state(c, state)
    assert _releases(_steps(c), width, circuit_module._WINDOW) == [3]
    assert np.max(np.abs(got - _reference_chain(gates, state))) < 1e-12


def test_a_release_follows_the_stage_rule():
    # deferred gates run as a stage that runs gate by gate, sorted by
    # lowest qubit: two small ones, like the equalizer's pair of
    # multi-controlled Z gates in the n = 8 identity batches, are one
    # product; a lone small gate and a factor past _FACTOR_CAP run alone
    width = circuit_module._FUSE_MIN_WIDTH
    pair = [MultiControlled(Z_MATRIX, ((13, True), (12, False)), t)
            for t in (5, 0)]
    assert _steps(Circuit(width, tuple(pair))) == \
        [(circuit_module._apply_diagonals, pair[::-1])]
    many = MultiControlled(Z_MATRIX, tuple((q, True) for q in range(4, 14)),
                           1)
    small = [MultiControlled(Z_MATRIX, ((13, True),), t) for t in (3, 0, 2)]
    c = Circuit(width, (*small[:2], many, small[2]))
    assert _steps(c) == [(circuit_module._apply_gate, small[1]),
                         (circuit_module._apply_gate, many),
                         (circuit_module._apply_diagonals,
                          [small[2], small[0]])]
    state = _random_state(np.random.default_rng(1856), width)
    assert np.max(np.abs(apply_to_state(c, state)
                         - _reference_chain(c.gates, state))) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_small_blocks_and_move_runs_match_to_matrix(seed, monkeypatch):
    # 3-qubit windows from width 7, 16-entry blocks and factors of at most
    # 8 entries in a release: releases scale the state several times, and
    # permutations meet CNOTs in move runs
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    monkeypatch.setattr(circuit_module, "_BLOCK", 16)
    monkeypatch.setattr(circuit_module, "_FACTOR_CAP", 8)
    rng = np.random.default_rng(1860 + seed)
    width = 7 + seed % 2
    sizes = _product_spy(monkeypatch, width)
    gates = [g for _ in range(3)
             for g in (*random_diagonal_circuit(rng, width, 20).gates,
                       *_move_gates(rng, width)[:6])]
    c = Circuit(width, tuple(gates))
    state = _random_state(rng, width)
    got = apply_to_state(c, state)
    assert np.max(np.abs(got - to_matrix(c) @ state)) < 1e-12
    assert sizes and max(max(s) for s in sizes) <= 16
    assert any(len(s) > 1 for s in sizes)
    assert _move_run_steps(c)


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
        assert g.diagonal == (u[0, 1] == 0 and u[1, 0] == 0), g
        assert g.flip == np.array_equal(u, X_MATRIX), g
    assert [g.diagonal for g in gates[:12:2]] == [False, True, False, True,
                                                  True, True]


# Pinned schedules: the (kernel, payload size) steps the kernel runs the
# benchmark's circuits with, qd n = 20 and cyclic n = 21 on one state
# each, the adjoints of the two width-21 circuits, and the blocks of 64
# identity rows that verify.circuit_matches runs at qd n = 8 (width 15).
# The four n = 8 circuits on the batch of their 512 basis rows (width 18)
# pin the kernel's batch route.  A change to the scheduling rules that
# moves any of them fails here.

_GATE = ("_apply_gate", 1)
_PERM = ("_permute", 1)
# the cyclic factor that ends every n = 8 schedule: the stage of the
# window [6, 12), the phases deferred across windows, the stage of the
# window [0, 6) and the bit reversal
_N8_TAIL = [("_apply_window", 3), ("_apply_diagonals", 12),
            ("_apply_window", 21), _PERM]
# At width 21 the windows are [15, 21), [10, 15), [5, 10) and [0, 5).  The
# adjoints run the backward schedule: the forward steps in reverse order.
_PINNED_STEPS = {
    "qd20": [_GATE] * 3 + [
        ("_apply_moves", 25), ("_apply_window", 15),
        ("_apply_diagonals", 75), ("_apply_window", 15),
        ("_apply_diagonals", 50), ("_apply_window", 15),
        ("_apply_diagonals", 25), ("_apply_window", 15), _PERM],
    "qd20-adjoint": [
        _PERM, ("_apply_window", 15), ("_apply_diagonals", 25),
        ("_apply_window", 15), ("_apply_diagonals", 50),
        ("_apply_window", 15), ("_apply_diagonals", 75),
        ("_apply_window", 15), ("_apply_moves", 25)] + [_GATE] * 3,
    "cyclic21": [
        ("_apply_window", 21), ("_apply_diagonals", 90),
        ("_apply_window", 15), ("_apply_diagonals", 50),
        ("_apply_window", 15), ("_apply_diagonals", 25),
        ("_apply_window", 15), _PERM],
    "cyclic21-adjoint": [
        _PERM, ("_apply_window", 15), ("_apply_diagonals", 25),
        ("_apply_window", 15), ("_apply_diagonals", 50),
        ("_apply_window", 15), ("_apply_diagonals", 90),
        ("_apply_window", 21)],
    # the equalizer's two multi-controlled Z gates, deferred across
    # windows, are one product; the twiddle's two X gates, the reorder's
    # rotation, its fan-out and its controlled increment are one move
    # run; qp's X and swap, two moves, stay step by step
    "dihedral8": [("_apply_diagonals", 2), _GATE, ("_apply_moves", 11)]
    + _N8_TAIL,
    "quaternion8": [("_apply_diagonals", 2), _GATE, _GATE,
                    ("_apply_moves", 11)] + _N8_TAIL,
    "qp8": [_GATE] * 3 + [_PERM] + _N8_TAIL,
    "qd8": [("_apply_diagonals", 2), _GATE, ("_apply_moves", 13)] + _N8_TAIL,
    # one block of circuit_matches: 64 rows add 6 qubits above the
    # circuit's 9, so the cyclic factor sits on qubits 0-7, in the windows
    # [5, 10) and [0, 5) of width 15
    "qd8-block": [("_apply_diagonals", 2), _GATE, ("_apply_moves", 13),
                  ("_apply_window", 6), ("_apply_diagonals", 15),
                  ("_apply_window", 15), _PERM],
}


def _pinned_steps(c, rows):
    """The steps the kernel runs `c` with on a batch of `rows` states, as
    (kernel name, payload size): the number of gates or steps a list
    holds, else 1."""
    return [(apply.__name__, len(payload) if isinstance(payload, list)
             else 1) for apply, payload in _steps(c, rows)]


@pytest.mark.parametrize("family, n", [
    (Family.QD, 20), (Family.CYCLIC, 21), (Family.DIHEDRAL, 8),
    (Family.QUATERNION, 8), (Family.QP, 8), (Family.QD, 8)])
def test_benchmark_schedules_are_pinned(family, n):
    # n = 8 on the batch of all 512 basis rows, the others on one state,
    # as simulate_w21 runs them
    c = qft_circuit(GroupSpec(family, n))
    assert _pinned_steps(c, 1 << c.width if n == 8 else 1) == \
        _PINNED_STEPS[f"{family.value}{n}"]


def test_circuit_matches_block_schedule_is_pinned(monkeypatch):
    # verify_n8's circuit check: one plan for blocks of 64 identity rows,
    # run on each of the 8 blocks
    G = GroupSpec(Family.QD, 8)
    c = qft_circuit(G)
    plans = []

    def spy(circuit, rows=1):
        plans.append(circuit_module.plan(circuit, rows))
        return plans[-1]
    monkeypatch.setattr(verify, "plan", spy)
    assert verify.circuit_matches(c, assemble(G).b) < 1e-12
    assert [(p.width, p.rows) for p in plans] == [(9, 64)]
    assert _pinned_steps(c, 64) == _PINNED_STEPS["qd8-block"]
    assert [apply.__name__ for apply, _ in plans[0].steps] == \
        [name for name, _ in _PINNED_STEPS["qd8-block"]]


@pytest.mark.parametrize("family, n", [(Family.QD, 20), (Family.CYCLIC, 21)])
def test_adjoint_schedules_are_pinned(family, n):
    c = adjoint(qft_circuit(GroupSpec(family, n)))
    assert _pinned_steps(c, 1) == _PINNED_STEPS[f"{family.value}{n}-adjoint"]


# Adjoints and the schedule in both directions: adjoint(c) is the circuit
# of U^H, and on the wide states the kernel runs whichever of the forward
# and the backward schedule has fewer steps, the forward one on a tie.

def _library_circuits(max_n):
    """Every library circuit up to n = max_n: each family's transform and
    its factors, and the increment circuit."""
    out = []
    for family in Family:
        for n in range(1 if family is Family.CYCLIC else 3, max_n + 1):
            G = GroupSpec(family, n)
            out.append(qft_circuit(G))
            out.extend(f for _, f in circuit_library.qft_factors(G))
    out.extend(increment_circuit(n) for n in range(1, max_n + 1))
    return out


def test_adjoint_matrix_is_the_conjugate_transpose():
    for c in _library_circuits(6):
        want = to_matrix(c).conj().T
        assert np.max(np.abs(to_matrix(adjoint(c)) - want)) < 1e-13, c


def test_adjoint_reverses_the_gates_and_shares_their_matrices():
    c = qft_circuit(GroupSpec(Family.QD, 5))
    adj = adjoint(c)
    assert adj.width == c.width and len(adj) == len(c)
    for g, h in zip(reversed(c.gates), adj.gates):
        assert type(g) is type(h)
        if isinstance(g, QubitPerm):
            assert all(h.sigma[s] == q for q, s in enumerate(g.sigma))
        elif isinstance(g, CNot):
            assert h is g
        else:
            assert (g.controls, g.target) == (h.controls, h.target)
            assert np.array_equal(h.u, g.u.conj().T)
            assert not h.u.flags.writeable
    # one u^H per distinct u
    mixing = [g for g in adj.gates if not isinstance(g, (QubitPerm, CNot))]
    assert len({id(g.u) for g in mixing}) == \
        len({g.u.tobytes() for g in mixing})
    # conjugating and transposing twice is exact
    assert format_circuit(adjoint(adj)) == format_circuit(c)


def _adjoint_input(width):
    """A library transform of the given width, the family cycling with it."""
    family = list(Family)[width % len(Family)]
    return qft_circuit(GroupSpec(
        family, width if family is Family.CYCLIC else width - 1))


@pytest.mark.parametrize("width", range(14, 22))
def test_adjoint_round_trips_at_fused_widths(width):
    c = _adjoint_input(width)
    v = _random_state(np.random.default_rng(1950 + width), width)
    v /= np.linalg.norm(v)
    back = apply_to_state(adjoint(c), apply_to_state(c, v))
    assert np.max(np.abs(back - v)) < 1e-12


def _run_steps(steps, state, width):
    """Run a schedule's steps on a copy of `state`, each window's matrix
    and each move run's gather order built as `plan` builds them."""
    psi = state.astype(np.complex128).reshape((2,) * width)
    for apply, g in steps:
        if apply is circuit_module._apply_window:
            g = circuit_module._window_matrix(g)
        elif apply is circuit_module._apply_moves:
            g = circuit_module._move_order(g, width)
        psi = apply(psi, g)
    return psi.reshape(-1)


def _both_ways(gates, width):
    """The forward and the backward schedule of the gates on a `width`-qubit
    state, each regrouped by `_move_runs`."""
    return [list(circuit_module._move_runs(schedule(gates, width)))
            for schedule in (circuit_module._segments,
                             circuit_module._backward)]


@pytest.mark.parametrize("seed", range(6))
def test_both_directions_match_to_matrix_with_a_small_window(seed,
                                                              monkeypatch):
    # 3-qubit windows from width 7, as for the window tests above, and
    # move runs on these small states: every library transform at
    # widths 7 and 8 and its adjoint, and random circuits of every step kind
    monkeypatch.setattr(circuit_module, "_WINDOW", 3)
    monkeypatch.setattr(circuit_module, "_FUSE_MIN_WIDTH", 7)
    rng = np.random.default_rng(1960 + seed)
    width = 7 + seed % 2
    if seed < 2:
        circuits = [f(qft_circuit(GroupSpec(family, n)))
                    for family in Family
                    for n in [width if family is Family.CYCLIC else width - 1]
                    for f in (lambda c: c, adjoint)]
    else:
        gates = [*random_diagonal_circuit(rng, width, 30).gates,
                 *_fan_out_gates(rng, width)[:12],
                 *_move_gates(rng, width)[:8]]
        gates = [gates[i] for i in rng.permutation(len(gates))]
        circuits = [Circuit(width, tuple(gates))]
        circuits.append(adjoint(circuits[0]))
    for c in circuits:
        state = _random_state(rng, width)
        want = to_matrix(c) @ state
        for steps in _both_ways(c.gates, width):
            got = _run_steps(steps, state, width)
            assert np.max(np.abs(got - want)) < 1e-12


def test_library_circuits_keep_their_forward_schedule():
    # every family's transform at widths 14-22, on the width-18 identity
    # batches of n = 8 and on the width-15 blocks of 64 identity rows that
    # verify.circuit_matches runs at n = 8 schedules forward; its adjoint
    # schedules backward, in fewer steps
    cases = [(qft_circuit(GroupSpec(f, w if f is Family.CYCLIC else w - 1)),
              w) for w in range(14, 23) for f in Family]
    n8 = [qft_circuit(GroupSpec(f, 8)) for f in Family
          if f is not Family.CYCLIC]
    cases += [(c, 18) for c in n8]
    cases += [(c, 15) for c in n8]
    for c, width in cases:
        for gates, picked in ((c.gates, 0), (adjoint(c).gates, 1)):
            steps = _both_ways(gates, width)
            assert len(steps[picked]) < len(steps[1 - picked]), (c, width)
            assert list(circuit_module._schedule(gates, width)) == \
                steps[picked]


def test_a_tie_keeps_the_forward_schedule():
    # a deferred CZ across the windows and a fused stage: two steps either
    # way, in opposite orders
    width = circuit_module._FUSE_MIN_WIDTH
    c = Circuit(width, (MultiControlled(Z_MATRIX, ((width - 1, True),), 0),
                        Local(H_MATRIX, 1), Local(H_MATRIX, 2)))
    forward, backward = _both_ways(c.gates, width)
    assert [a for a, _ in forward] == [circuit_module._apply_window,
                                       circuit_module._apply_gate]
    assert [a for a, _ in backward] == [circuit_module._apply_gate,
                                        circuit_module._apply_window]
    assert list(circuit_module._schedule(c.gates, width)) == forward


@pytest.mark.parametrize("offset", [0, -1])
def test_narrow_states_skip_the_backward_schedule(offset, monkeypatch):
    calls = []
    inner = circuit_module._backward

    def spy(gates, width):
        calls.append(width)
        return inner(gates, width)
    monkeypatch.setattr(circuit_module, "_backward", spy)
    width = circuit_module._FUSE_MIN_WIDTH + offset
    c = qft_cyclic_circuit(width)
    v = _random_state(np.random.default_rng(1970), width)
    got = apply_to_state(c, v)
    assert calls == ([width] if offset == 0 else [])
    assert np.max(np.abs(got - np.sqrt(v.size) * np.fft.ifft(v))) < 1e-12


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
    # a non-integer width is a ValueError, also past a permutation
    permuted = c + Circuit(3, (QubitPerm((1, 2, 0)),))
    for width in (2.5, 4.0, "3"):
        with pytest.raises(ValueError,
                           match="target width must be an integer"):
            embed(permuted, width)
