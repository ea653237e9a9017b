from __future__ import annotations

import numpy as np
import pytest

from groupqft.linalg import dft, direct_sum, is_unitary, kron, perm_matrix


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def test_dft_small_values():
    assert np.allclose(dft(1), [[1.0]])
    assert np.allclose(dft(2), H)
    # omega_4 = i, entry (1,1) = i / sqrt(4)
    assert abs(dft(4)[1, 1] - 0.5j) < 1e-15


def test_dft_rejects_zero():
    with pytest.raises(ValueError):
        dft(0)


@pytest.mark.parametrize("n", [2.5, 4.0, "4", None, True, np.True_])
def test_dft_rejects_non_integer_size(n):
    # np.arange(2.5) would give a 3 x 3 matrix scaled by 1/sqrt(2.5)
    with pytest.raises(ValueError, match="dft size must be an integer"):
        dft(n)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_dft_unitary(n):
    f = dft(n)
    assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-12


def test_dft_times_conjugate_transpose():
    f = dft(4)
    assert np.allclose(f @ f.conj().T, np.eye(4), atol=1e-12)


def test_kron_matches_numpy_and_mixed_product():
    a = dft(2)
    assert np.allclose(kron(np.eye(1), a), a)
    assert np.array_equal(kron(dft(2), np.eye(2)), np.kron(dft(2), np.eye(2)))
    left = kron(np.eye(2), H) @ kron(H, np.eye(2))
    assert np.allclose(left, kron(H, H), atol=1e-14)


def test_direct_sum_placement():
    assert np.allclose(direct_sum([np.eye(1)]), [[1.0]])
    d = direct_sum([np.eye(2), -np.eye(2)])
    assert np.allclose(d, np.diag([1, 1, -1, -1]))


def test_direct_sum_rejects_empty_and_nonsquare():
    with pytest.raises(ValueError):
        direct_sum([])
    with pytest.raises(ValueError):
        direct_sum([np.ones((2, 3))])


def test_perm_matrix_convention():
    # P[sigma(j), j] = 1: e_j goes to e_sigma(j)
    p = perm_matrix((1, 2, 0))
    e0 = np.zeros(3)
    e0[0] = 1.0
    assert np.argmax(p @ e0) == 1
    assert np.allclose(p @ perm_matrix((2, 0, 1)), np.eye(3))


def test_perm_matrix_identity_and_cycle():
    assert np.allclose(perm_matrix(range(5)), np.eye(5))
    shift = perm_matrix([(v + 1) % 8 for v in range(8)])
    assert shift[1, 0] == 1.0 and shift[0, 7] == 1.0


def test_perm_matrix_rejects_non_bijection():
    with pytest.raises(ValueError):
        perm_matrix((0, 0, 1))


@pytest.mark.parametrize("sigma", [[0.0, 1.0], [1, np.float64(0.0)],
                                   ["0", "1"]])
def test_perm_matrix_rejects_non_integer_entries(sigma):
    # floats equal to a permutation pass the sorted() check; each entry
    # is read as an integer first, so they raise ValueError, not IndexError
    with pytest.raises(ValueError, match="permutation entry must be an "
                                         "integer"):
        perm_matrix(sigma)


def test_perm_matrix_homomorphism_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        sigma = rng.permutation(16)
        tau = rng.permutation(16)
        composed = perm_matrix(sigma[tau])  # j -> sigma(tau(j))
        assert np.array_equal(composed, perm_matrix(sigma) @ perm_matrix(tau))


def test_is_unitary():
    assert is_unitary(H)
    assert is_unitary(np.eye(7))
    assert not is_unitary(np.diag([1.0, 2.0]))
    assert not is_unitary(np.ones((2, 3)))


def test_random_unitarity_closure():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_unitary(rng, int(rng.integers(1, 5)))
        b = random_unitary(rng, int(rng.integers(1, 5)))
        assert is_unitary(kron(a, b))
        assert is_unitary(direct_sum([a, b]))


# Matrices from outside are read by one helper, so input that numpy cannot
# read as numbers is a ValueError, not numpy's TypeError.

@pytest.mark.parametrize("call", [
    lambda: is_unitary({"a": 1}),
    lambda: kron({"a": 1}, 1),
    lambda: kron(1, {"a": 1}),
    lambda: direct_sum([{"a": 1}]),
    lambda: direct_sum([np.eye(2), "1, 0; 0, 1"]),
], ids=["is_unitary", "kron-first", "kron-second", "direct_sum",
        "direct_sum-text"])
def test_a_non_numeric_matrix_is_a_value_error(call):
    with pytest.raises(ValueError, match="is not numeric"):
        call()
