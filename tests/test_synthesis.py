from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from groupqft import synthesis
from groupqft.groups import (
    Family,
    GroupSpec,
    cyclic_irreps,
    extendable_indices,
    induce,
    regular_representation,
)
from groupqft.linalg import dft, direct_sum, is_unitary, kron
from groupqft.synthesis import (
    assemble,
    equalizer,
    reorder_permutation,
    reorder_sequence,
    twiddle,
)

NONABELIAN = [Family.DIHEDRAL, Family.QUATERNION, Family.QP, Family.QD]

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
XM = np.array([[0, 1], [-1, 0]], dtype=np.complex128)


def _reorder_reference(G):
    """The per-element loops that reorder_sequence's closed form replaced."""
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
            out.append((j & ~(1 | (1 << top))) | high | (low << top))
        return tuple(out)
    base = _reorder_reference(GroupSpec(Family.DIHEDRAL, G.n))
    return tuple((v - m // 4) % m if v & 1 else v for v in base)


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", range(3, 13))
def test_reorder_sequence_matches_loop_reference(family, n):
    G = GroupSpec(family, n)
    assert reorder_sequence(G) == _reorder_reference(G)


def test_reorder_sequences_n3():
    assert reorder_sequence(GroupSpec(Family.DIHEDRAL, 3)) == (0, 4, 1, 7, 2, 6, 3, 5)
    assert reorder_sequence(GroupSpec(Family.QUATERNION, 3)) == (0, 4, 1, 7, 2, 6, 3, 5)
    assert reorder_sequence(GroupSpec(Family.QP, 3)) == (0, 4, 2, 6, 1, 5, 3, 7)
    assert reorder_sequence(GroupSpec(Family.QD, 3)) == (0, 4, 7, 5, 2, 6, 1, 3)


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", [*range(3, 13), 16, 20])
def test_reorder_sequence_structure(family, n):
    # extendables first, then conjugate pairs adjacent; synthesis reads the
    # pair positions off this contract
    G = GroupSpec(family, n)
    seq = reorder_sequence(G)
    m = G.cyclic_order
    ext = extendable_indices(G)
    assert sorted(seq) == list(range(m))
    k = len(ext)
    assert set(seq[:k]) == ext
    r = G.conj_exponent
    for pos in range(k, m, 2):
        i, j = seq[pos], seq[pos + 1]
        assert i not in ext and j == (i * r) % m


def test_reorder_rejects_cyclic():
    with pytest.raises(ValueError):
        reorder_sequence(GroupSpec(Family.CYCLIC, 3))


@pytest.mark.parametrize("family", NONABELIAN)
def test_reorder_permutation_sorts_characters(family):
    # conjugating A's diagonal by P must list the characters in seq order
    G = GroupSpec(family, 4)
    m = G.cyclic_order
    seq = reorder_sequence(G)
    p = reorder_permutation(G)
    omega = np.exp(2j * np.pi / m)
    chars = np.diag(omega ** np.arange(m))
    reordered = p.conj().T @ chars @ p
    assert np.max(np.abs(reordered - np.diag(omega ** np.array(seq)))) < 1e-12


def test_twiddle_blocks_n3():
    d = twiddle(GroupSpec(Family.DIHEDRAL, 3))
    assert np.allclose(d, direct_sum([np.eye(8), direct_sum([np.eye(2), X, X, X])]))
    # quaternion pair block carries rho_i(y^2) = (-1)^i below the diagonal
    q = twiddle(GroupSpec(Family.QUATERNION, 3))
    assert np.allclose(q, direct_sum(
        [np.eye(8), direct_sum([np.eye(2), XM, X, XM])]))
    qp = twiddle(GroupSpec(Family.QP, 3))
    assert np.allclose(qp, direct_sum([np.eye(8), direct_sum([np.eye(4), X, X])]))


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", [*range(3, 13), 16, 20])
def test_extendables_have_trivial_y_square_character(family, n):
    # the extension scalar of an extendable rho_i squares to
    # rho_i(y^2) = omega^(i q), so twiddle's epsilon = 1 needs i q = 0 mod 2^n
    G = GroupSpec(family, n)
    q, m = G.y_square_exponent, G.cyclic_order
    assert all(i * q % m == 0 for i in extendable_indices(G))


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", range(3, 9))
def test_twiddle_pair_blocks_are_exact(family, n):
    # every pair block is exactly [[0, 1], [rho, 0]], rho = (-1)^i for the
    # quaternion family (y^2 = x^(2^(n-1))) and 1 for the others
    G = GroupSpec(family, n)
    m = G.cyclic_order
    seq = reorder_sequence(G)
    d = twiddle(G)
    k = len(extendable_indices(G))
    want = np.eye(2 * m, dtype=np.complex128)
    for pos in range(m + k, 2 * m, 2):
        i = seq[pos - m]
        rho = -1.0 if family is Family.QUATERNION and i % 2 else 1.0
        want[pos:pos + 2, pos:pos + 2] = [[0.0, 1.0], [rho, 0.0]]
    assert np.array_equal(d, want)


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", range(3, 9))
def test_twiddle_matches_induced_y_images(family, n):
    # induce is the oracle for the closed-form blocks [[0, 1], [rho_i(y^2), 0]];
    # it evaluates rho_i(y^2) through matrix_power, which is up to 9.7e-13
    # off at quaternion n = 8, so values get a tolerance and zeros do not
    G = GroupSpec(family, n)
    seq = reorder_sequence(G)
    ext = extendable_indices(G)
    irreps = cyclic_irreps(n)
    transversal = (G.identity(), G.y())
    blocks = []
    pos = 0
    while pos < len(seq):
        i = seq[pos]
        if i in ext:
            blocks.append(np.eye(1))
            pos += 1
        else:
            blocks.append(induce(irreps[i], G, transversal).images["y"])
            pos += 2
    want = direct_sum([np.eye(G.cyclic_order), direct_sum(blocks)])
    d = twiddle(G)
    assert np.array_equal(d != 0, want != 0)
    assert np.max(np.abs(d - want)) < 1e-11


def test_equalizer_diagonals_n3():
    c = equalizer(GroupSpec(Family.DIHEDRAL, 3))
    assert np.allclose(np.diag(c), [1] * 8 + [1, 1, 1, -1, 1, -1, 1, -1])
    c = equalizer(GroupSpec(Family.QP, 3))
    assert np.allclose(np.diag(c), [1] * 12 + [1, -1, 1, -1])
    assert np.allclose(c @ c, np.eye(16))


def test_assemble_cyclic_base_case():
    assert np.array_equal(assemble(GroupSpec(Family.CYCLIC, 3)).b, dft(8))
    with pytest.raises(ValueError):
        assemble(GroupSpec(Family.CYCLIC, 0))


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_assemble_factors(family, n):
    # the dense factor product is the oracle for the gathered b
    G = GroupSpec(family, n)
    m = G.cyclic_order
    a, p, d, c = dft(m), reorder_permutation(G), twiddle(G), equalizer(G)
    for f in (a, p, d, c):
        assert is_unitary(f, 1e-10)
    b = assemble(G).b
    assert is_unitary(b, 1e-10)
    recomposed = kron(np.eye(2), a @ p) @ d @ kron(dft(2), np.eye(m)) @ c
    assert np.max(np.abs(recomposed - b)) < 1e-14


def _block_reference(G):
    """b as four gathered quadrants joined by np.block: the oracle for
    assemble's in-place fill."""
    m = G.cyclic_order
    seq = synthesis._sequence(G)
    pos, sign = synthesis._pairs(G)
    swapped = seq.copy()
    swapped[pos], swapped[pos + 1] = seq[pos + 1], seq[pos]
    s, c = np.ones(m), np.ones(m)
    s[pos], c[pos + 1] = sign, -1.0
    a = dft(m) / np.sqrt(2)
    top = a[:, seq]
    bottom = a[:, swapped] * s
    return np.block([[top, top * c], [bottom, -bottom * c]])


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", range(3, 11))
def test_assemble_matches_block_formula_bitwise(family, n):
    # the fill keeps every bit, signed zeros included, and the memory order
    G = GroupSpec(family, n)
    b, want = assemble(G).b, _block_reference(G)
    assert b.tobytes() == want.tobytes()
    assert b.flags["F_CONTIGUOUS"] == want.flags["F_CONTIGUOUS"]
    if n >= 9:
        # beyond test_assemble_factors' dense oracle
        assert is_unitary(b, 1e-10)


def test_assemble_guard_rejects_a_repeated_index(monkeypatch):
    sequence = synthesis._sequence

    def repeated(G):
        seq = sequence(G)
        seq[-1] = seq[0]
        return seq

    monkeypatch.setattr(synthesis, "_sequence", repeated)
    with pytest.raises(AssertionError, match="unitarity check"):
        assemble(GroupSpec(Family.QD, 5))


@pytest.mark.parametrize("defect", ["overlapping", "unsigned"])
def test_assemble_guard_rejects_planted_pairs(monkeypatch, defect):
    pairs = synthesis._pairs

    def planted(G):
        pos, sign = pairs(G)
        if defect == "overlapping":
            pos[1] = pos[0] + 1
        else:
            sign[0] = 0.5
        return pos, sign

    monkeypatch.setattr(synthesis, "_pairs", planted)
    with pytest.raises(AssertionError, match="unitarity check"):
        assemble(GroupSpec(Family.DIHEDRAL, 5))


def test_assemble_memory_peak():
    # A scaled, b, and np.take's buffer for one quadrant: 1.5 b.nbytes at
    # qd n = 8, where forming b b^H would add at least 2 more
    g = GroupSpec(Family.QD, 8)
    b = assemble(g).b
    tracemalloc.start()
    try:
        assemble(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * b.nbytes


def test_quaternion_differs_from_dihedral_only_in_twiddle():
    D, Q = GroupSpec(Family.DIHEDRAL, 3), GroupSpec(Family.QUATERNION, 3)
    assert np.array_equal(reorder_permutation(D), reorder_permutation(Q))
    assert np.array_equal(equalizer(D), equalizer(Q))
    assert not np.allclose(twiddle(D), twiddle(Q))
    assert not np.allclose(assemble(D).b, assemble(Q).b)


@pytest.mark.parametrize("family", NONABELIAN)
def test_assemble_block_diagonalizes_regular_rep(family):
    # the defining property, spot-checked here; the full grid runs in the
    # acceptance suite
    G = GroupSpec(family, 3)
    b = assemble(G).b
    phi = regular_representation(G)
    ext = extendable_indices(G)
    sizes = [1] * len(ext) + [2] * ((G.cyclic_order - len(ext)) // 2)
    sizes = sizes + sizes
    mask = np.zeros((G.order, G.order), dtype=bool)
    pos = 0
    for w in sizes:
        mask[pos:pos + w, pos:pos + w] = True
        pos += w
    for g in (G.x(), G.y()):
        conj = b.conj().T @ phi.evaluate(g) @ b
        assert np.max(np.abs(conj[~mask])) < 1e-10
