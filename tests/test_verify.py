from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_unitary

from groupqft import circuit as circuit_module
from groupqft.circuit import H_MATRIX, Circuit, Local, cost, to_matrix
from groupqft.circuit_library import qft_circuit, qft_cyclic_circuit, qft_factors
from groupqft import groups, verify
from groupqft.groups import (
    Family,
    GroupSpec,
    extendable_indices,
    regular_permutations,
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


def test_census_covers_the_cyclic_family():
    # 2^n characters and no 2-dim summand, from the trivial group n = 0 up
    for n in range(9):
        assert census(GroupSpec(Family.CYCLIC, n)) == ((1, 1 << n),)


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


@pytest.mark.parametrize("bad", ["repeated_index", "out_of_range",
                                 "wrong_length"])
def test_check_decomposition_rejects_non_permutation_phi(monkeypatch, bad):
    # the row gather is only valid when each index array is a bijection on
    # range(|G|), so a faulty phi must fail loudly, not be graded
    g = GroupSpec(Family.DIHEDRAL, 3)
    good = regular_permutations(g)
    x = good["x"].copy()
    if bad == "repeated_index":
        x[1] = x[0]
    elif bad == "out_of_range":
        # numpy would wrap this negative index back to the same row
        x[0] -= g.order
    else:
        x = x[:-1]
    monkeypatch.setattr(verify, "regular_permutations",
                        lambda G: {"x": x, "y": good["y"]})
    with pytest.raises(AssertionError, match="not a permutation"):
        check_decomposition(assemble(g).b, g)


@pytest.mark.parametrize("family", list(Family))
def test_check_decomposition_builds_no_dense_phi(monkeypatch, family):
    def refuse(G):
        raise AssertionError("dense regular representation requested")

    monkeypatch.setattr(groups, "regular_representation", refuse)
    monkeypatch.setattr(verify, "regular_representation", refuse)
    g = GroupSpec(family, 3)
    assert check_decomposition(assemble(g).b, g).passed()


def test_check_decomposition_cyclic_dft():
    g = GroupSpec(Family.CYCLIC, 3)
    report = check_decomposition(dft(8), g)
    assert report.census_ok
    assert report.max_offblock < 1e-14
    assert report.passed()


def test_check_decomposition_shape_guard():
    with pytest.raises(ValueError):
        check_decomposition(np.eye(8), GroupSpec(Family.DIHEDRAL, 3))


@pytest.mark.parametrize("matrix", [
    {"a": 1}, np.array([[{"a": 1}] * 16] * 16, dtype=object),
    "1, 0; 0, 1"], ids=["dict", "object-array", "text"])
def test_a_non_numeric_matrix_is_a_value_error(matrix):
    g = GroupSpec(Family.DIHEDRAL, 3)
    with pytest.raises(ValueError, match="is not numeric"):
        check_decomposition(matrix, g)
    with pytest.raises(ValueError, match="is not numeric"):
        circuit_matches(Circuit(3), matrix)


def test_circuit_matches_identity():
    assert circuit_matches(Circuit(3), np.eye(8)) == 0.0
    with pytest.raises(ValueError):
        circuit_matches(Circuit(2), np.eye(8))


# circuit_matches runs the circuit on the identity's rows through the state
# kernel; to_matrix is the independent route it must agree with.

ORACLE_GROUPS = [GroupSpec(f, n) for f in Family
                 for n in range(1 if f is Family.CYCLIC else 3, 9)]


def _to_matrix_defect(c, b):
    return float(np.max(np.abs(to_matrix(c) - b)))


@pytest.mark.parametrize("g", ORACLE_GROUPS,
                         ids=lambda g: f"{g.family.value}-{g.n}")
def test_circuit_matches_agrees_with_to_matrix(g):
    b = assemble(g).b
    c = qft_circuit(g)
    assert abs(circuit_matches(c, b) - _to_matrix_defect(c, b)) < 1e-13


@pytest.mark.parametrize("g, rows", [
    *((GroupSpec(f, 8), 64) for f in NON_ABELIAN),
    (GroupSpec(Family.CYCLIC, 3), 8)], ids=lambda v: getattr(v, "family",
                                                                v))
def test_circuit_matches_builds_one_plan(monkeypatch, g, rows):
    # one plan for batches of `cols` identity rows serves every block: 8
    # blocks of 64 rows at n = 8, and one block of all 8 rows at width 3
    plans = []

    def spy(c, rows=1):
        plans.append((c.width, rows))
        return circuit_module.plan(c, rows)
    monkeypatch.setattr(verify, "plan", spy)
    c = qft_circuit(g)
    assert circuit_matches(c, assemble(g).b) < 1e-12
    assert plans == [(c.width, rows)]


def _drop_one_cyclic_hadamard(g):
    """qft_circuit(g) without the first Hadamard of its cyclic factor."""
    gates = []
    for name, f in qft_factors(g):
        run = list(f.gates)
        if name == "cyclic":
            k = next(i for i, h in enumerate(run) if isinstance(h, Local)
                     and np.array_equal(h.u, H_MATRIX))
            del run[k]
        gates += run
    return Circuit(qft_circuit(g).width, tuple(gates))


@pytest.mark.parametrize("family", list(Family))
def test_planted_gate_change_reads_on_both_routes(family):
    g = GroupSpec(family, 4)
    b = assemble(g).b
    c = _drop_one_cyclic_hadamard(g)
    assert len(c) == len(qft_circuit(g)) - 1
    defect = circuit_matches(c, b)
    assert defect > 1e-3
    assert abs(defect - _to_matrix_defect(c, b)) < 1e-13


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_report_memory_peak():
    # the only |G| x |G| array either check holds is b: check_decomposition
    # works through column chunks of about _CHUNK entries, and
    # circuit_matches runs the circuit on blocks of the identity's columns
    # of that size.  full_report read 1.63 b.nbytes at qd n = 8 and 1.50
    # at n = 9, assemble's own arrays beside b, and circuit_matches 0.39
    # and 0.10
    for n in (8, 9):
        g = GroupSpec(Family.QD, n)
        b = assemble(g).b
        c = qft_circuit(g)
        assert _traced_peak(lambda: full_report(g)) <= 1.8 * b.nbytes, n
        assert _traced_peak(lambda: circuit_matches(c, b)) <= 0.6 * b.nbytes, n


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


@pytest.mark.parametrize("ns", [[3, 3, 3, 3], [3, 4, 4, 3]])
def test_scaling_fit_needs_enough_distinct_n(ns):
    # four points on fewer than four widths fit no meaningful slope, and
    # on one width numpy's fit warns that it is poorly conditioned
    with pytest.raises(ValueError, match="distinct"):
        scaling_fit(GroupSpec(Family.QD, 3), ns)


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


@pytest.mark.parametrize("tol", ["1e-3", None, 1j, True, np.True_],
                         ids=["text", "none", "complex", "bool", "numpy-bool"])
def test_tolerance_must_be_a_real_number(tol):
    # text, None and complex raised TypeError, and a bool passed as 1
    with pytest.raises(ValueError, match="finite and positive"):
        verify.check_tolerance(tol)
    report = VerificationReport(GroupSpec(Family.DIHEDRAL, 3), 0.0, 0.0,
                                0.0, True)
    with pytest.raises(ValueError, match="finite and positive"):
        report.passed(tol)


@pytest.mark.parametrize("family", NON_ABELIAN + [Family.CYCLIC])
def test_full_report(family):
    g = GroupSpec(family, 3)
    report = full_report(g)
    assert report.passed()
    assert report.circuit_matrix_defect < 1e-10
    assert report.group == g
    assert report.cost == cost(qft_circuit(g))


def test_quaternion_n8_offblock_is_at_rounding_level():
    # rho_i(y^2) = (-1)^i exactly; evaluated through matrix_power it was up
    # to 9.7e-13 off and the off-block defect read 4.9e-13
    report = full_report(GroupSpec(Family.QUATERNION, 8))
    assert report.max_offblock < 1e-13
    assert report.unitarity_defect < 1e-13


# Planted defects, one per census sub-check.  Columns of b index the
# summands: per half of width |G|/2, the extendable characters (half the
# census's 1-dim count), then the induced pairs, two columns each.  Each
# input breaks only its own census sub-check.

def _pair_columns(g, half, k):
    start = half * (g.order // 2) + dict(census(g))[1] // 2 + 2 * k
    return slice(start, start + 2)


def planted(g, kind):
    """assemble(g).b with one planted defect."""
    b = assemble(g).b
    if kind == "scaled_character":
        b[:, 0] *= 2.0
    elif kind == "repeated_character":
        b[:, 1] = b[:, 0]
    elif kind == "repeated_pair":
        for half in (0, 1):
            b[:, _pair_columns(g, half, 1)] = b[:, _pair_columns(g, half, 0)]
    else:
        assert kind == "swapped_pairs"
        p0, p1 = _pair_columns(g, 0, 0), _pair_columns(g, 0, 1)
        b[:, p0], b[:, p1] = b[:, p1].copy(), b[:, p0].copy()
    return b


PLANTED = ("scaled_character", "repeated_character", "repeated_pair",
           "swapped_pairs")


@pytest.mark.parametrize("family", NON_ABELIAN)
def test_planted_scaled_character_fails_unit_modulus(family):
    g = GroupSpec(family, 4)
    report = check_decomposition(planted(g, "scaled_character"), g)
    assert report.max_offblock < 1e-12
    assert report.equal_summands_defect < 1e-12
    assert not report.census_ok


@pytest.mark.parametrize("family", NON_ABELIAN)
def test_planted_commutator_floor_fails_irreducibility(monkeypatch, family):
    # generator images have unit-size entries, so no 2x2 commutator can
    # reach 10: every pair now reads reducible
    g = GroupSpec(family, 4)
    monkeypatch.setattr(verify, "COMMUTATOR_FLOOR", 10.0)
    report = check_decomposition(assemble(g).b, g)
    assert report.max_offblock < 1e-12
    assert not report.census_ok


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("kind", ["repeated_character", "repeated_pair"])
def test_planted_repeated_summand_fails_distinct_count(family, kind):
    # a summand copied over another: every block stays a unit character or
    # an irreducible pair, and the halves still match, but one fewer
    # distinct summand of that degree remains
    g = GroupSpec(family, 4)
    report = check_decomposition(planted(g, kind), g)
    assert report.equal_summands_defect < 1e-12
    assert not report.census_ok


@pytest.mark.parametrize("family", NON_ABELIAN)
def test_planted_swapped_pairs_read_as_unequal_summands(family):
    # swapping two pairs inside one half keeps the census but puts unequal
    # summands side by side across the halves
    g = GroupSpec(family, 4)
    report = check_decomposition(planted(g, "swapped_pairs"), g)
    assert report.census_ok
    assert report.max_offblock < 1e-12
    assert report.equal_summands_defect > 0.3
    assert not report.passed()


def test_nan_entry_reads_as_nan_defects():
    g = GroupSpec(Family.QD, 4)
    b = assemble(g).b
    b[3, 5] = np.nan
    report = check_decomposition(b, g)
    assert math.isnan(report.unitarity_defect)
    assert math.isnan(report.max_offblock)
    assert math.isnan(report.equal_summands_defect)
    assert not report.census_ok
    assert not report.passed()


def reference_check(b, g):
    """The per-block grader that check_decomposition's stacked summand
    arrays replaced: a dense block mask for the off-block part, one loop
    iteration per summand, and rounded tuples as distinctness keys."""
    b = np.asarray(b, dtype=np.complex128)
    bh = b.conj().T
    # phi(g) @ b first: a permutation matrix times b is b's rows exactly,
    # so the conjugate rounds as check_decomposition's row gather does
    conjugated = [bh @ (m @ b)
                  for m in regular_representation(g).images.values()]
    unitarity = float(np.max(np.abs(b @ bh - np.eye(g.order))))

    if g.is_abelian:
        sizes = (1,) * g.order
        expected = {1: g.order}
    else:
        expected = dict(census(g))
        half = (1,) * (expected[1] // 2) + (2,) * expected[2]
        sizes = half + half
    starts = np.cumsum((0,) + sizes)
    mask = np.zeros((g.order, g.order), dtype=bool)
    for s, w in zip(starts, sizes):
        mask[s:s + w, s:s + w] = True
    off_block = float(max(np.max(np.abs(m[~mask])) for m in conjugated))
    blocks = [tuple(m[s:s + w, s:s + w] for m in conjugated)
              for s, w in zip(starts, sizes)]

    def key(images):
        flat = np.concatenate([m.ravel() for m in images])
        return tuple(np.round(flat.real, verify.ROUND_DIGITS)) \
            + tuple(np.round(flat.imag, verify.ROUND_DIGITS))

    ok = True
    distinct = {1: set(), 2: set()}
    for images, w in zip(blocks, sizes):
        if w == 1:
            ok &= all(abs(abs(m[0, 0]) - 1.0) < 1e-9 for m in images)
        else:
            comm = images[0] @ images[1] - images[1] @ images[0]
            ok &= bool(np.max(np.abs(comm)) > verify.COMMUTATOR_FLOOR)
        distinct[w].add(key(images))
    ok &= all(len(distinct[w]) == c for w, c in expected.items())

    equal_defect = 0.0
    per_half = len(sizes) // 2
    for k, w in enumerate(sizes[:per_half]):
        if w == 2:
            for m0, m1 in zip(blocks[k], blocks[per_half + k]):
                equal_defect = max(equal_defect, float(np.max(np.abs(m0 - m1))))
    return VerificationReport(group=g, unitarity_defect=unitarity,
                              max_offblock=off_block,
                              equal_summands_defect=equal_defect,
                              census_ok=bool(ok))


ALL_GROUPS = [GroupSpec(f, n) for f in Family
              for n in range(1 if f is Family.CYCLIC else 3, 7)]


@pytest.mark.parametrize("g", ALL_GROUPS,
                         ids=lambda g: f"{g.family.value}-{g.n}")
def test_check_decomposition_matches_reference_on_assembled(g):
    b = assemble(g).b
    assert check_decomposition(b, g) == reference_check(b, g)


# Chunk boundaries: at the real _CHUNK one chunk covers every column up
# to n = 6, so these lower it to blocks of 2, 4, 8 and 16 columns
# (check_decomposition keeps its floor of 4 columns at 2).

CHUNKED_GROUPS = [GroupSpec(f, n) for f in Family for n in range(3, 7)]


def _set_chunk_columns(monkeypatch, g, cols):
    monkeypatch.setattr(verify, "_CHUNK", cols * g.order)


@pytest.mark.parametrize("cols", [2, 4, 8, 16])
@pytest.mark.parametrize("g", CHUNKED_GROUPS,
                         ids=lambda g: f"{g.family.value}-{g.n}")
def test_chunked_checks_match_their_references(monkeypatch, g, cols):
    _set_chunk_columns(monkeypatch, g, cols)
    b = assemble(g).b
    c = qft_circuit(g)
    assert check_decomposition(b, g) == reference_check(b, g)
    assert abs(circuit_matches(c, b) - _to_matrix_defect(c, b)) < 1e-13
    u = random_unitary(np.random.default_rng(g.n), g.order)
    assert check_decomposition(u, g) == reference_check(u, g)
    assert abs(circuit_matches(c, u) - _to_matrix_defect(c, u)) < 1e-13


def test_off_block_entry_in_the_last_column_of_a_middle_chunk(monkeypatch):
    # chunks of 8 columns at |G| = 64: column 31, the second of the first
    # half's last pair, ends the fourth of eight chunks; rotating it into
    # column 0, a character, mixes the two summands
    g = GroupSpec(Family.QD, 5)
    _set_chunk_columns(monkeypatch, g, 8)
    b = assemble(g).b
    b[:, [0, 31]] = b[:, [0, 31]] @ np.array([[0.8, -0.6], [0.6, 0.8]])
    report = check_decomposition(b, g)
    assert report == reference_check(b, g)
    assert report.max_offblock > 0.1 and report.unitarity_defect < 1e-12


@pytest.mark.parametrize("column", [0, 27, 63])
def test_nan_reads_as_nan_through_the_chunks(monkeypatch, column):
    # a Python max over the chunk maxima would drop a NaN found after the
    # first chunk: max(0.0, nan) is 0.0
    g = GroupSpec(Family.QD, 5)
    _set_chunk_columns(monkeypatch, g, 8)
    b = assemble(g).b
    b[40, column] = np.nan
    report = check_decomposition(b, g)
    assert math.isnan(report.unitarity_defect)
    assert math.isnan(report.max_offblock)
    assert math.isnan(circuit_matches(qft_circuit(g), b))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("matrix", ["random", "identity"])
def test_check_decomposition_matches_reference_off_the_transform(family,
                                                                 matrix):
    g = GroupSpec(family, 4)
    b = (random_unitary(np.random.default_rng(11), g.order)
         if matrix == "random" else np.eye(g.order))
    assert check_decomposition(b, g) == reference_check(b, g)


@pytest.mark.parametrize("family", NON_ABELIAN)
@pytest.mark.parametrize("kind", PLANTED + ("commutator_floor",))
def test_check_decomposition_matches_reference_on_planted(monkeypatch,
                                                          family, kind):
    g = GroupSpec(family, 4)
    if kind == "commutator_floor":
        monkeypatch.setattr(verify, "COMMUTATOR_FLOOR", 10.0)
        b = assemble(g).b
    else:
        b = planted(g, kind)
    assert check_decomposition(b, g) == reference_check(b, g)

# sha256 prefixes of repr(full_report(G)) and of G's regular_permutations
# (each generator's name, dtype and bytes) for every family at n <= 8.  The
# cyclic family shares the product rule and the census layout of the
# others, so a change to either, or to the grading, changes a report here.
PINNED_OUTPUTS = {
    (Family.CYCLIC, 1): ("66d30e8ab433d1ed", "ff876e4049e8e84e"),
    (Family.CYCLIC, 2): ("05fdb10e75096d3f", "85529e68f6857c7f"),
    (Family.CYCLIC, 3): ("3338dbb13218b098", "477b03c312148554"),
    (Family.CYCLIC, 4): ("97c64c8835d3bc18", "6dc0f9396cb72a9c"),
    (Family.CYCLIC, 5): ("52e325f6817138be", "5e439a4971df5d81"),
    (Family.CYCLIC, 6): ("1681ee44f82f9ddb", "802ecb288dce9815"),
    (Family.CYCLIC, 7): ("148874d6f0bb821a", "8cd6b89d5510bda0"),
    (Family.CYCLIC, 8): ("ef9cd607e105e0d9", "547b8fb44c6e7540"),
    (Family.DIHEDRAL, 3): ("0c9040a69ae621c3", "a3968ac9a4b9f26f"),
    (Family.DIHEDRAL, 4): ("c24ed8dd350aa910", "95d3b4db8d305a15"),
    (Family.DIHEDRAL, 5): ("8227a25d5ab64de7", "bfdc824a10b2970b"),
    (Family.DIHEDRAL, 6): ("706fb9313c382b94", "c1acb4fa76ad5ce5"),
    (Family.DIHEDRAL, 7): ("93287e320a54b8a9", "f02035516e930194"),
    (Family.DIHEDRAL, 8): ("f1cfa9af0b5ea615", "b7c57f91a298827f"),
    (Family.QUATERNION, 3): ("72f0ac0c619ac8ff", "d4fa754d47982f2a"),
    (Family.QUATERNION, 4): ("2da3efafd8f2fda8", "a1ef526e3b2dae9d"),
    (Family.QUATERNION, 5): ("572073b0837bab55", "5f5516ea07897447"),
    (Family.QUATERNION, 6): ("7e2ba875b7f88c88", "75ea7331d8680e9f"),
    (Family.QUATERNION, 7): ("c5bad335890e15f6", "e4b29855aab35ddd"),
    (Family.QUATERNION, 8): ("5acfbf6cfe319fc4", "be2d3b608dd9fc9e"),
    (Family.QP, 3): ("e5d7975863ace2cb", "b7ae73503b1d562b"),
    (Family.QP, 4): ("06551eff9200cff1", "3f6ad817f3cf9f7d"),
    (Family.QP, 5): ("e2c3a58399e3e09b", "a3d2982e18c0de4e"),
    (Family.QP, 6): ("429a65850da113a7", "ebb1339d2cc9d29f"),
    (Family.QP, 7): ("6069a8a0e3017621", "eac2cda4f3fdded7"),
    (Family.QP, 8): ("923c11849b445574", "a189eac3314b5168"),
    (Family.QD, 3): ("5e5973a4e95dea36", "84a4df17d7493180"),
    (Family.QD, 4): ("d4b87869ccaf065c", "1257a355c4642dc4"),
    (Family.QD, 5): ("06359ccf47b3ab4a", "a55cc836245c792d"),
    (Family.QD, 6): ("5c6c0191ea7be061", "22f9536af5ff4c33"),
    (Family.QD, 7): ("fba8507cc5fad545", "dc4269484619a3b3"),
    (Family.QD, 8): ("186854222ab10729", "4a9dde6744f875e2"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("family, n", PINNED_OUTPUTS,
                         ids=lambda v: getattr(v, "value", v))
def test_reports_and_regular_permutations_are_pinned(family, n):
    g = GroupSpec(family, n)
    perms = b"".join(name.encode() + s.dtype.str.encode() + s.tobytes()
                     for name, s in regular_permutations(g).items())
    assert (_sha256(repr(full_report(g)).encode()), _sha256(perms)) \
        == PINNED_OUTPUTS[family, n]
