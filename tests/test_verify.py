from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import random_unitary

from groupqft.circuit import Circuit, cost
from groupqft.circuit_library import qft_circuit, qft_cyclic_circuit
from groupqft import verify
from groupqft.groups import (
    Family,
    GroupSpec,
    Representation,
    extendable_indices,
    regular_representation,
)
from groupqft.linalg import dft
from groupqft.synthesis import assemble
from groupqft.verify import (
    VerificationReport,
    census,
    check_decomposition,
    circuit_matches,
    full_report,
    scaling_fit,
)

NON_ABELIAN = [Family.DIHEDRAL, Family.QUATERNION, Family.QP, Family.QD]


def test_census_rows():
    assert census(GroupSpec(Family.DIHEDRAL, 3)) == ((1, 4), (2, 3))
    assert census(GroupSpec(Family.QUATERNION, 6)) == ((1, 4), (2, 31))
    assert census(GroupSpec(Family.QD, 4)) == ((1, 4), (2, 7))
    assert census(GroupSpec(Family.QP, 3)) == ((1, 8), (2, 2))
    assert census(GroupSpec(Family.QP, 5)) == ((1, 32), (2, 8))


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("n", range(3, 9))
def test_census_degree_sum(family, n):
    g = GroupSpec(family, n)
    assert sum(c * d * d for d, c in census(g)) == g.order


def test_census_rejects_abelian():
    with pytest.raises(ValueError):
        census(GroupSpec(Family.CYCLIC, 3))


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("n", [3, 4])
def test_check_decomposition_accepts_assembled(family, n):
    g = GroupSpec(family, n)
    report = check_decomposition(assemble(g).b, g)
    assert report.census_ok
    assert report.unitarity_defect < 1e-12
    assert report.max_offblock < 1e-12
    assert report.equal_summands_defect < 1e-12
    assert report.passed()


def test_check_decomposition_rejects_identity():
    g = GroupSpec(Family.DIHEDRAL, 3)
    report = check_decomposition(np.eye(16), g)
    assert report.max_offblock == 1.0
    assert not report.census_ok
    assert not report.passed()


@pytest.mark.parametrize("family", NON_ABELIAN)
def test_check_decomposition_gather_matches_dense_conjugation(family):
    # a random unitary leaves large off-block entries; the row gather must
    # grade them as the dense b^H phi(g) b product does
    g = GroupSpec(family, 3)
    b = random_unitary(np.random.default_rng(7), g.order)
    report = check_decomposition(b, g)
    phi = regular_representation(g)
    conj = [b.conj().T @ m @ b for m in phi.images.values()]
    k = len(extendable_indices(g))
    sizes = ([1] * k + [2] * ((g.cyclic_order - k) // 2)) * 2
    mask = np.zeros((g.order, g.order), dtype=bool)
    pos = 0
    for w in sizes:
        mask[pos:pos + w, pos:pos + w] = True
        pos += w
    off = max(np.max(np.abs(c[~mask])) for c in conj)
    assert report.max_offblock == pytest.approx(off, rel=1e-12)
    assert report.unitarity_defect == pytest.approx(
        np.max(np.abs(b @ b.conj().T - np.eye(g.order))), abs=1e-15)


@pytest.mark.parametrize("bad", ["scaled", "two_per_row", "repeated_column"])
def test_check_decomposition_rejects_non_permutation_phi(monkeypatch, bad):
    # the row gather is only valid for permutation images, so a faulty
    # regular representation must fail loudly, not be graded
    g = GroupSpec(Family.DIHEDRAL, 3)
    good = regular_representation(g)
    x = np.array(good.images["x"])
    if bad == "scaled":
        x[0] *= 2.0
    elif bad == "two_per_row":
        x[0, (np.argmax(x[0]) + 1) % g.order] = 1.0
    else:
        x[1] = x[0]
    faulty = Representation(group=g, degree=g.order,
                            images={"x": x, "y": good.images["y"]})
    monkeypatch.setattr(verify, "regular_representation", lambda G: faulty)
    with pytest.raises(AssertionError, match="not a permutation"):
        check_decomposition(assemble(g).b, g)


def test_check_decomposition_cyclic_dft():
    g = GroupSpec(Family.CYCLIC, 3)
    report = check_decomposition(dft(8), g)
    assert report.census_ok
    assert report.max_offblock < 1e-14
    assert report.passed()


def test_check_decomposition_shape_guard():
    with pytest.raises(ValueError):
        check_decomposition(np.eye(8), GroupSpec(Family.DIHEDRAL, 3))


def test_circuit_matches_identity():
    assert circuit_matches(Circuit(3), np.eye(8)) == 0.0
    with pytest.raises(ValueError):
        circuit_matches(Circuit(2), np.eye(8))


def test_scaling_fit_cyclic_closed_form():
    ns = [3, 4, 5, 6, 7, 8]
    # one H per qubit, a phase rotation per qubit pair, 3 gates per
    # reversal swap
    costs = [n + n * (n - 1) // 2 + 3 * (n // 2) for n in ns]
    slope, _ = np.polyfit(np.log(ns), np.log(costs), 1)
    assert scaling_fit(GroupSpec(Family.CYCLIC, 3), ns) == pytest.approx(
        float(slope), abs=1e-12)
    for n, c in zip(ns, costs):
        assert cost(qft_cyclic_circuit(n)) == c


def test_scaling_fit_dihedral_band():
    slope = scaling_fit(GroupSpec(Family.DIHEDRAL, 3), [3, 4, 5, 6, 7, 8])
    assert 1.5 < slope < 2.2


def test_scaling_fit_needs_enough_points():
    with pytest.raises(ValueError):
        scaling_fit(GroupSpec(Family.DIHEDRAL, 3), [3, 4, 5])


def test_report_threshold_logic():
    base = VerificationReport(
        group=GroupSpec(Family.DIHEDRAL, 3),
        unitarity_defect=1e-13,
        max_offblock=1e-12,
        equal_summands_defect=0.0,
        census_ok=True,
    )
    assert base.passed()
    assert not base.passed(tol=1e-14)
    assert math.isnan(base.circuit_matrix_defect)
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            base.passed(tol)


@pytest.mark.parametrize("family", NON_ABELIAN + [Family.CYCLIC])
def test_full_report(family):
    g = GroupSpec(family, 3)
    report = full_report(g)
    assert report.passed()
    assert report.circuit_matrix_defect < 1e-10
    ((n, c),) = report.cost_by_n
    assert n == 3
    assert c == cost(qft_circuit(g))


def test_quaternion_n8_offblock_is_at_rounding_level():
    # rho_i(y^2) = (-1)^i exactly; evaluated through matrix_power it was up
    # to 9.7e-13 off and the off-block defect read 4.9e-13
    report = full_report(GroupSpec(Family.QUATERNION, 8))
    assert report.max_offblock < 1e-13
    assert report.unitarity_defect < 1e-13
