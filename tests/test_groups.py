from __future__ import annotations

import numpy as np
import pytest

from groupqft.groups import (
    Family,
    GroupElement,
    GroupSpec,
    Representation,
    cyclic_irreps,
    extendable_indices,
    induce,
    inner_conjugate,
    regular_permutations,
    regular_representation,
)
from groupqft.linalg import dft

NONABELIAN = [Family.DIHEDRAL, Family.QUATERNION, Family.QP, Family.QD]


def _multiply_reference(G, g, h):
    """The branching product that GroupSpec.multiply's one normal-form rule
    replaced: moving x^a2 through y uses y x = x^r y (valid because
    r^2 = 1), and y^2 collapses to x^q."""
    m = G.cyclic_order
    if g.b == 0:
        return GroupElement((g.a + h.a) % m, h.b)
    a = (g.a + h.a * G.conj_exponent) % m
    if h.b == 1:
        return GroupElement((a + G.y_square_exponent) % m, 0)
    return GroupElement(a, 1)


def _inverse_reference(G, g):
    """The branching inverse that GroupSpec.inverse replaced."""
    m = G.cyclic_order
    if g.b == 0:
        return GroupElement(-g.a % m, 0)
    return GroupElement((G.y_square_exponent - g.a * G.conj_exponent) % m, 1)


def _groups(n_max):
    """Every family at every admitted n from its least up to n_max."""
    return [GroupSpec(f, n) for f in Family
            for n in range(1 if f is Family.CYCLIC else 3, n_max + 1)]


def _ids(G):
    return f"{G.family.value}-{G.n}"


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(Family.DIHEDRAL, 2)
    with pytest.raises(ValueError):
        GroupSpec(Family.CYCLIC, -1)
    with pytest.raises(ValueError):
        GroupSpec(Family.CYCLIC, 3).y()
    with pytest.raises(ValueError):
        GroupSpec(Family.CYCLIC, 3).element(1, 1)
    # a size or exponent that is not an integer, and a family that is not
    # a Family, fail here rather than later in the arithmetic
    for n in (3.5, "4", None, 4.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            GroupSpec(Family.QD, n)
    with pytest.raises(ValueError, match="family must be a Family"):
        GroupSpec("qd", 3)
    with pytest.raises(ValueError, match="x-exponent must be an integer"):
        GroupSpec(Family.QD, 3).element(1.5, 0)
    with pytest.raises(ValueError, match="y-exponent must be an integer"):
        GroupSpec(Family.QD, 3).element(1, 1.0)
    G = GroupSpec(Family.QD, np.int64(4))
    assert type(G.n) is int and G == GroupSpec(Family.QD, 4)
    g = G.element(np.int64(17), np.int64(1))
    assert type(g.a) is int and type(g.b) is int and g == GroupElement(1, 1)


def test_orders_and_exponents():
    G = GroupSpec(Family.QUATERNION, 3)
    assert G.cyclic_order == 8 and G.order == 16
    assert G.conj_exponent == 7 and G.y_square_exponent == 4
    assert GroupSpec(Family.QP, 3).conj_exponent == 5
    assert GroupSpec(Family.QD, 4).conj_exponent == 7
    assert GroupSpec(Family.CYCLIC, 5).order == 32


def test_multiplication_examples():
    D = GroupSpec(Family.DIHEDRAL, 3)
    xy = D.multiply(D.x(), D.y())
    assert xy == GroupElement(1, 1)
    # (x y) x = x y x = x x^-1 y = y
    assert D.multiply(xy, D.x()) == GroupElement(0, 1)

    Q = GroupSpec(Family.QUATERNION, 3)
    assert Q.multiply(Q.y(), Q.y()) == GroupElement(4, 0)

    QP = GroupSpec(Family.QP, 3)
    yxy = QP.multiply(QP.multiply(QP.y(), QP.x()), QP.y())
    assert yxy == GroupElement(5, 0)


@pytest.mark.parametrize("family", [Family.CYCLIC] + NONABELIAN)
def test_group_axioms_exhaustive_n3(family):
    G = GroupSpec(family, 3)
    elems = G.all_elements()
    e = G.identity()
    for g in elems:
        assert G.multiply(g, e) == g and G.multiply(e, g) == g
        assert G.multiply(g, G.inverse(g)) == e
        assert G.multiply(G.inverse(g), g) == e
    for g in elems:
        for h in elems:
            gh = G.multiply(g, h)
            assert gh in elems
            for k in elems[:4]:  # full triple loop lives in the acceptance suite
                assert G.multiply(gh, k) == G.multiply(g, G.multiply(h, k))


@pytest.mark.parametrize("family", [Family.DIHEDRAL, Family.QP, Family.QD])
@pytest.mark.parametrize("n", [3, 4])
def test_split_families_act_affinely(family, n):
    # for q = 0 the map x^a y^b -> (p -> r^b p + a) is a faithful action
    G = GroupSpec(family, n)
    m = G.cyclic_order
    r = G.conj_exponent

    def act(g, p):
        return (p * pow(r, g.b, m) + g.a) % m

    for g in G.all_elements():
        for h in G.all_elements():
            gh = G.multiply(g, h)
            for p in (0, 1, 5):
                assert act(gh, p) == act(g, act(h, p))


def test_defining_relations():
    for family in NONABELIAN:
        G = GroupSpec(family, 4)
        m = G.cyclic_order
        x, y = G.x(), G.y()
        pw = G.identity()
        for _ in range(m):
            pw = G.multiply(pw, x)
        assert pw == G.identity()
        assert G.multiply(y, y) == GroupElement(G.y_square_exponent, 0)
        conj = G.multiply(G.multiply(G.inverse(y), x), y)
        assert conj == GroupElement(G.conj_exponent % m, 0)


@pytest.mark.parametrize("G", _groups(7), ids=_ids)
def test_multiply_and_inverse_match_references_exhaustively(G):
    elems = G.all_elements()
    for g in elems:
        assert G.inverse(g) == _inverse_reference(G, g)
        for h in elems:
            assert G.multiply(g, h) == _multiply_reference(G, g, h)


@pytest.mark.parametrize("G", _groups(12), ids=_ids)
def test_regular_permutations_match_reference_products(G):
    # x^a y^b sits at index a + b 2^n of all_elements
    m = G.cyclic_order
    sigma = regular_permutations(G)
    assert "".join(sigma) == "xy"[:len(G.generators())]
    for name, g in zip("xy", G.generators()):
        want = [h.a + h.b * m for h in (_multiply_reference(G, u, g)
                                         for u in G.all_elements())]
        assert sigma[name].tolist() == want


@pytest.mark.parametrize("G", _groups(9), ids=_ids)
def test_regular_representation_matches_reference_images(G):
    # the dense images against a per-element loop over the reference
    # product; at n = 9 each image is 1024 x 1024 (16 MiB), and past it
    # they grow fourfold per step, so larger n check the index arrays only
    L = G.all_elements()
    index = {h: i for i, h in enumerate(L)}
    phi = regular_representation(G)
    for name, g in zip("xy", G.generators()):
        want = np.zeros((len(L), len(L)), dtype=np.complex128)
        for u, h in enumerate(L):
            want[u, index[_multiply_reference(G, h, g)]] = 1.0
        assert np.array_equal(phi.images[name], want)


def _power(sigma, k):
    """The index array sigma composed with itself k times."""
    out = np.arange(len(sigma))
    while k:
        if k & 1:
            out = sigma[out]
        sigma = sigma[sigma]
        k >>= 1
    return out


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", [3, 8, 16, 20])
def test_regular_permutations_satisfy_relators(family, n):
    # phi(g) @ v == v[sigma_g], so phi(g h) reads sigma_h[sigma_g]; this
    # needs no |G| x |G| matrix, so it runs past the dense ceiling
    G = GroupSpec(family, n)
    m, r, q = G.cyclic_order, G.conj_exponent, G.y_square_exponent
    sx, sy = regular_permutations(G).values()
    identity = np.arange(G.order)
    for sigma in (sx, sy):
        assert np.array_equal(np.sort(sigma), identity)
    # x has order exactly 2^n
    half = _power(sx, m // 2)
    assert not np.array_equal(half, identity)
    assert np.array_equal(half[half], identity)
    assert np.array_equal(sy[sy], _power(sx, q))
    # y^-1 x y = x^r, written as x y = y x^r
    assert np.array_equal(sy[sx], _power(sx, r)[sy])


def test_all_elements_ordering():
    C = GroupSpec(Family.CYCLIC, 2)
    assert C.all_elements() == tuple(GroupElement(a, 0) for a in range(4))
    D = GroupSpec(Family.DIHEDRAL, 3)
    elems = D.all_elements()
    assert len(elems) == 16
    assert elems[9] == GroupElement(1, 1)


@pytest.mark.parametrize("family", [Family.CYCLIC] + NONABELIAN)
def test_regular_representation_homomorphism(family):
    G = GroupSpec(family, 3)
    phi = regular_representation(G)
    assert np.array_equal(phi.evaluate(G.identity()), np.eye(G.order))
    elems = G.all_elements()
    for g in elems:
        for h in elems[::3]:
            lhs = phi.evaluate(g) @ phi.evaluate(h)
            assert np.array_equal(lhs, phi.evaluate(G.multiply(g, h)))


def test_regular_representation_x_order():
    phi = regular_representation(GroupSpec(Family.DIHEDRAL, 3))
    px = phi.images["x"]
    assert not np.array_equal(np.linalg.matrix_power(px, 4), np.eye(16))
    assert np.array_equal(np.linalg.matrix_power(px, 8), np.eye(16))


def test_cyclic_irreps_are_characters():
    irreps = cyclic_irreps(3)
    assert len(irreps) == 8
    assert np.allclose(irreps[0].images["x"], [[1.0]])
    assert abs(irreps[4].images["x"][0, 0] + 1.0) < 1e-15
    assert all(rho.relation_defect() < 1e-12 for rho in irreps)
    # DFT diagonalizes the regular representation of Z_8 in index order
    phi = regular_representation(GroupSpec(Family.CYCLIC, 3))
    a = dft(8)
    d = a.conj().T @ phi.images["x"] @ a
    omega = np.exp(2j * np.pi / 8)
    assert np.max(np.abs(d - np.diag(omega ** np.arange(8)))) < 1e-12


@pytest.mark.parametrize("generator", ["x", "y"])
@pytest.mark.parametrize("family", NONABELIAN)
def test_nan_image_reads_as_nan_relation_defect(family, generator):
    # a NaN in either image must not be dropped by a max over the relators
    G = GroupSpec(family, 3)
    images = {name: np.array(m, dtype=np.complex128)
              for name, m in regular_representation(G).images.items()}
    assert Representation(G, G.order, images).relation_defect() == 0.0
    images[generator][1, 2] = np.nan
    rho = Representation(G, G.order, images)
    assert np.isnan(rho.relation_defect())


@pytest.mark.parametrize("images, message", [
    ({}, "needs an image of x"),
    ({"x": np.eye(1), "z": np.eye(1)}, "only x and y"),
])
def test_representation_rejects_image_names(images, message):
    # evaluate reads images["x"], so a missing x would fail there with a
    # KeyError; any name other than x and y is no generator
    with pytest.raises(ValueError, match=message):
        Representation(GroupSpec(Family.CYCLIC, 1), 1, images)


@pytest.mark.parametrize("family, images, message", [
    (Family.DIHEDRAL, {"x": np.eye(1)}, "dihedral group needs an image of y"),
    (Family.CYCLIC, {"x": np.eye(1), "y": np.eye(1)},
     "cyclic group has no generator y"),
])
def test_representation_needs_y_exactly_when_non_abelian(family, images,
                                                         message):
    # a dihedral x-only image reported relation_defect() 0.0, since the
    # y relators were skipped, and evaluate(y) raised KeyError
    with pytest.raises(ValueError, match=message):
        Representation(GroupSpec(family, 3), 1, images)


def test_representation_needs_a_group_spec():
    # the y rule reads group.is_abelian, which a family name lacks
    with pytest.raises(ValueError, match="group must be a GroupSpec"):
        Representation("dihedral", 1, {"x": np.eye(1)})


def test_quaternion_2dim_irrep_oracle():
    # classic U(2) irrep of Q_16: x -> diag(zeta, conj(zeta)), y -> [[0,1],[-1,0]]
    Q = GroupSpec(Family.QUATERNION, 3)
    zeta = np.exp(2j * np.pi / 8)
    rho = Representation(group=Q, degree=2, images={
        "x": np.diag([zeta, zeta.conjugate()]),
        "y": np.array([[0.0, 1.0], [-1.0, 0.0]]),
    })
    assert rho.relation_defect() < 1e-12


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_inner_conjugate_by_y_maps_i_to_ir(family, n):
    G = GroupSpec(family, n)
    m = G.cyclic_order
    r = G.conj_exponent
    irreps = cyclic_irreps(n)
    for i in (0, 1, 2, m // 2, m - 1):
        conj = inner_conjugate(irreps[i], G, G.y())
        expect = irreps[(i * r) % m]
        assert np.allclose(conj.images["x"], expect.images["x"], atol=1e-12)


def test_inner_conjugate_by_identity_is_noop():
    G = GroupSpec(Family.QD, 3)
    rho = cyclic_irreps(3)[5]
    conj = inner_conjugate(rho, G, G.identity())
    assert np.allclose(conj.images["x"], rho.images["x"])


def test_induced_representation_blocks():
    omega = np.exp(2j * np.pi / 8)
    D = GroupSpec(Family.DIHEDRAL, 3)
    T = (D.identity(), D.y())
    ind = induce(cyclic_irreps(3)[1], D, T)
    assert np.allclose(ind.images["x"], np.diag([omega, omega ** -1]))
    assert np.allclose(ind.images["y"], [[0, 1], [1, 0]])
    assert ind.relation_defect() < 1e-12

    Q = GroupSpec(Family.QUATERNION, 3)
    T = (Q.identity(), Q.y())
    # rho_i(y^2) = omega^(4i): -1 on odd i, +1 on even i
    assert np.allclose(induce(cyclic_irreps(3)[1], Q, T).images["y"],
                       [[0, 1], [-1, 0]])
    assert np.allclose(induce(cyclic_irreps(3)[2], Q, T).images["y"],
                       [[0, 1], [1, 0]])


@pytest.mark.parametrize("family", NONABELIAN)
def test_induced_representations_satisfy_relations(family):
    G = GroupSpec(family, 4)
    T = (G.identity(), G.y())
    for i in (1, 3, 6):
        assert induce(cyclic_irreps(4)[i], G, T).relation_defect() < 1e-12


def test_induce_rejects_non_transversal():
    D = GroupSpec(Family.DIHEDRAL, 3)
    with pytest.raises(ValueError):
        induce(cyclic_irreps(3)[1], D, (D.identity(), D.x()))
    with pytest.raises(ValueError):
        induce(cyclic_irreps(3)[1], D, (D.identity(),))
    with pytest.raises(ValueError):
        induce(cyclic_irreps(3)[1], D, (D.y(), D.multiply(D.x(), D.y())))


def test_induce_rejects_transversal_entries_that_are_not_elements():
    # (a, b) pairs raised AttributeError inside G.multiply
    D = GroupSpec(Family.DIHEDRAL, 3)
    with pytest.raises(ValueError, match="must be GroupElements"):
        induce(cyclic_irreps(3)[1], D, ((0, 0), (0, 1)))


@pytest.mark.parametrize("T", [5, None])
def test_induce_rejects_a_transversal_that_is_not_a_sequence(T):
    # malformed input gives ValueError, not iteration's TypeError
    D = GroupSpec(Family.DIHEDRAL, 3)
    with pytest.raises(ValueError, match="sequence of GroupElements"):
        induce(cyclic_irreps(3)[1], D, T)


def test_inducing_trivial_rep_along_all_elements_gives_regular_rep():
    G = GroupSpec(Family.DIHEDRAL, 3)
    trivial = cyclic_irreps(0)[0]
    ind = induce(trivial, G, G.all_elements())
    phi = regular_representation(G)
    assert np.array_equal(ind.images["x"], phi.images["x"])
    assert np.array_equal(ind.images["y"], phi.images["y"])


def test_extendable_indices_per_family():
    assert extendable_indices(GroupSpec(Family.DIHEDRAL, 3)) == {0, 4}
    assert extendable_indices(GroupSpec(Family.QUATERNION, 3)) == {0, 4}
    assert extendable_indices(GroupSpec(Family.QD, 4)) == {0, 8}
    assert extendable_indices(GroupSpec(Family.QP, 3)) == {0, 2, 4, 6}
    assert len(extendable_indices(GroupSpec(Family.QP, 5))) == 16
    with pytest.raises(ValueError):
        extendable_indices(GroupSpec(Family.CYCLIC, 3))


@pytest.mark.parametrize("family", NONABELIAN)
@pytest.mark.parametrize("n", range(3, 13))
def test_extendable_indices_match_invariance_loop(family, n):
    G = GroupSpec(family, n)
    m, r = G.cyclic_order, G.conj_exponent
    want = frozenset(i for i in range(m) if (i * r) % m == i)
    assert extendable_indices(G) == want
