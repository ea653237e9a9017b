from __future__ import annotations

import numpy as np
import pytest

from groupqft.circuit import (
    H_MATRIX,
    Local,
    MultiControlled,
    QubitPerm,
    cost,
    to_matrix,
)
from groupqft.circuit_library import (
    increment_circuit,
    equalizer_circuit,
    qft_circuit,
    qft_cyclic_circuit,
    qft_factors,
    reorder_circuit,
    twiddle_circuit,
)
from groupqft.groups import Family, GroupSpec
from groupqft.linalg import dft, kron
from groupqft.synthesis import (
    assemble,
    equalizer,
    reorder_permutation,
    twiddle,
)

NON_ABELIAN = [Family.DIHEDRAL, Family.QUATERNION, Family.QP, Family.QD]


def test_qft_cyclic_single_qubit_is_hadamard():
    c = qft_cyclic_circuit(1)
    assert len(c) == 1
    assert np.max(np.abs(to_matrix(c) - dft(2))) < 1e-15


@pytest.mark.parametrize("n", range(1, 7))
def test_qft_cyclic_matches_dft(n):
    assert np.max(np.abs(to_matrix(qft_cyclic_circuit(n)) - dft(1 << n))) < 1e-12


def test_increment_small():
    assert to_matrix(increment_circuit(1)).tolist() == [[0, 1], [1, 0]]
    m = to_matrix(increment_circuit(3))
    e7 = np.zeros(8)
    e7[7] = 1
    assert np.argmax(m @ e7) == 0
    e3 = np.zeros(8)
    e3[3] = 1
    assert np.argmax(m @ e3) == 4


@pytest.mark.parametrize("n", range(1, 9))
def test_increment_is_cyclic_shift(n):
    d = 1 << n
    expect = np.zeros((d, d))
    for v in range(d):
        expect[(v + 1) % d, v] = 1
    assert np.array_equal(to_matrix(increment_circuit(n)), expect)


def test_increment_orbit():
    m = to_matrix(increment_circuit(3))
    v = np.zeros(8)
    v[0] = 1
    seen = []
    for _ in range(8):
        v = m @ v
        seen.append(int(np.argmax(v)))
    assert seen == [1, 2, 3, 4, 5, 6, 7, 0]


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_factor_circuits_match_matrices(family, n):
    # each named factor circuit against its synthesis factor, in the
    # temporal order C, H_y, D, I (x) P, I (x) A
    g = GroupSpec(family, n)
    eye2, eye_m = np.eye(2), np.eye(g.cyclic_order)
    expected = {
        "equalizer": equalizer(g),
        "hadamard": kron(dft(2), eye_m),
        "twiddle": twiddle(g),
        "reorder": kron(eye2, reorder_permutation(g)),
        "cyclic": kron(eye2, dft(g.cyclic_order)),
    }
    factors = qft_factors(g)
    assert [name for name, _ in factors] == list(expected)
    for name, c in factors:
        assert np.max(np.abs(to_matrix(c) - expected[name])) < 1e-12, name


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_qp_twiddle_is_one_doubly_controlled_gate(n):
    c = twiddle_circuit(GroupSpec(Family.QP, n))
    assert len(c) == 1
    (gate,) = c.gates
    assert isinstance(gate, MultiControlled)
    assert len(gate.controls) == 2


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_equalizer_circuit_is_involution(family, n):
    c = equalizer_circuit(GroupSpec(family, n))
    m = to_matrix(c)
    assert np.max(np.abs(m @ m - np.eye(m.shape[0]))) < 1e-12


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_qft_circuit_matches_assembled_transform(family, n):
    g = GroupSpec(family, n)
    b = assemble(g).b
    assert np.max(np.abs(to_matrix(qft_circuit(g)) - b)) < 1e-10


def _gate_key(g):
    if isinstance(g, QubitPerm):
        return (QubitPerm, g.sigma)
    return (type(g), g.target, g.controls, g.u.tobytes())


@pytest.mark.parametrize("family", list(Family))
def test_qft_circuit_is_the_folded_factor_concatenation(family):
    # one Circuit from all factor gates, gate for gate what folding + gives
    for n in range(3, 17):
        g = GroupSpec(family, n)
        (_, folded), *rest = qft_factors(g)
        for _, f in rest:
            folded = folded + f
        c = qft_circuit(g)
        assert c.width == folded.width
        assert [_gate_key(h) for h in c.gates] \
            == [_gate_key(h) for h in folded.gates]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_circuit_cyclic_dispatch(n):
    g = GroupSpec(Family.CYCLIC, n)
    assert np.max(np.abs(to_matrix(qft_circuit(g)) - dft(1 << n))) < 1e-12


def test_qft_cyclic_cost_scales_quadratically():
    for n in range(2, 9):
        c = cost(qft_cyclic_circuit(n))
        assert c <= 2 * n * n


@pytest.mark.parametrize("family", NON_ABELIAN)
def test_qft_circuit_cost_bounded_by_square_of_width(family):
    for n in range(3, 9):
        width = n + 1
        c = cost(qft_circuit(GroupSpec(family, n)))
        assert c <= 4 * width * width


def test_cyclic_gates_share_one_read_only_array_per_matrix():
    n = 6
    c = qft_cyclic_circuit(n)
    hadamards = [g for g in c.gates if isinstance(g, Local)]
    phases = [g for g in c.gates if isinstance(g, MultiControlled)]
    assert len(hadamards) == n and all(g.u is H_MATRIX for g in hadamards)
    by_value = {}
    for g in phases:
        assert by_value.setdefault(g.u.tobytes(), g.u) is g.u
    assert len(by_value) == n - 1
    for g in hadamards[:1] + phases:
        with pytest.raises(ValueError):
            g.u[1, 1] = 0
    # nothing is kept between calls, and a later call builds the same gates
    again = qft_cyclic_circuit(n)
    assert all(g.u is not h.u for g, h in zip(again.gates, c.gates)
               if isinstance(g, MultiControlled))
    assert [_gate_key(g) for g in again.gates] == [_gate_key(g) for g in c.gates]


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        qft_cyclic_circuit(0)
    with pytest.raises(ValueError):
        increment_circuit(0)
    for n in (3.0, 2.5, "3", True, np.True_):
        with pytest.raises(ValueError, match="n must be an integer"):
            qft_cyclic_circuit(n)
        with pytest.raises(ValueError, match="n must be an integer"):
            increment_circuit(n)
    with pytest.raises(ValueError):
        reorder_circuit(GroupSpec(Family.CYCLIC, 3))
