"""The built-in cost of every named factor circuit, against its closed form.

`gate_cost` charges 1 for a gate with at most one control, width**2 for a
full-register control, k for k controls otherwise, and 3 per transposition
of a qubit permutation, so each factor's total is a polynomial in n.
"""

from __future__ import annotations

import pytest

from groupqft.circuit import cost
from groupqft.circuit_library import qft_factors
from groupqft.groups import Family, GroupSpec

N_MAX = 40


def cyclic_cost(n: int) -> int:
    # one H per qubit, a phase rotation per qubit pair, 3 gates per
    # reversal swap
    return n + n * (n - 1) // 2 + 3 * (n // 2)


def closed_form(family: Family, n: int) -> dict[str, int]:
    if family is Family.CYCLIC:
        return {"cyclic": cyclic_cost(n)}
    if family is Family.QP:
        equalizer, twiddle, reorder = 2, 2, 3
    else:
        # a one-control gate and a full-register control on n + 1 qubits;
        # quaternion's twiddle adds a two-control gate
        equalizer = 1 + (n + 1) ** 2
        twiddle = 1 + (n + 1) ** 2 + (2 if family is Family.QUATERNION else 0)
        # the rotation QubitPerm (n - 1 transpositions) and n - 1 CNOTs,
        # then the increment with n - 1, ..., 1 controls; qd adds a CNOT
        # and a two-control gate
        reorder = 4 * (n - 1) + sum(j + 1 for j in range(1, n - 1)) + 1
        if family is Family.QD:
            reorder += 3
    return {"equalizer": equalizer, "hadamard": 1, "twiddle": twiddle,
            "reorder": reorder, "cyclic": cyclic_cost(n)}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_factor_costs_match_closed_form(family):
    low = 1 if family is Family.CYCLIC else 3
    for n in range(low, N_MAX + 1):
        factors = qft_factors(GroupSpec(family, n))
        got = {name: cost(c) for name, c in factors}
        assert got == closed_form(family, n), n


def test_qp_total_is_the_cyclic_cost_plus_eight():
    # the known criterion-6 failure: qp's total grows as the cyclic QFT's
    for n in range(3, N_MAX + 1):
        total = sum(cost(c) for _, c in qft_factors(GroupSpec(Family.QP, n)))
        assert total == n * (n + 1) // 2 + 3 * (n // 2) + 8, n
