"""The five group families and their representation-theoretic plumbing.

Groups of order 2^(n+1) containing the cyclic Z_{2^n} = <x> as a normal
subgroup of index 2, presented as <x, y | x^(2^n) = 1, y^2 = x^q,
y^-1 x y = x^r>:

    dihedral     r = -1,          q = 0
    quaternion   r = -1,          q = 2^(n-1)
    qp           r = 2^(n-1) + 1, q = 0
    qd           r = 2^(n-1) - 1, q = 0

plus the abelian base case Z_{2^n} = <x> itself, with no y and r = 1,
q = 0, so one product rule serves all five.  Every element has the normal
form x^a y^b with 0 <= a < 2^n and b in {0, 1}.  Every r satisfies
r^2 = 1 mod 2^n, which the multiplication below relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .linalg import Matrix, as_int

__all__ = [
    "Family",
    "GroupElement",
    "GroupSpec",
    "Representation",
    "regular_permutations",
    "regular_representation",
    "cyclic_irreps",
    "induce",
    "extendable_indices",
]


class Family(Enum):
    CYCLIC = "cyclic"
    DIHEDRAL = "dihedral"
    QUATERNION = "quaternion"
    QP = "qp"
    QD = "qd"


@dataclass(frozen=True)
class GroupElement:
    """Normal form x^a y^b."""

    a: int
    b: int


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"family must be a Family, got {self.family!r}")
        object.__setattr__(self, "n", as_int(self.n, "n"))
        # n = 0 is the trivial group, admitted only so it can serve as an
        # induction domain; the synthesis entry points start at n = 1.
        least = 0 if self.family is Family.CYCLIC else 3
        if self.n < least:
            raise ValueError(
                f"{self.family.value} needs n >= {least}, got {self.n}")

    @property
    def cyclic_order(self) -> int:
        """Order 2^n of the normal subgroup <x>."""
        return 1 << self.n

    @property
    def order(self) -> int:
        return self.cyclic_order if self.is_abelian else 2 * self.cyclic_order

    @property
    def is_abelian(self) -> bool:
        return self.family is Family.CYCLIC

    @property
    def conj_exponent(self) -> int:
        """r with y^-1 x y = x^r (r = 1 on the abelian cyclic family)."""
        half = self.cyclic_order // 2
        if self.family is Family.CYCLIC:
            return 1
        if self.family in (Family.DIHEDRAL, Family.QUATERNION):
            return self.cyclic_order - 1
        return half + 1 if self.family is Family.QP else half - 1

    @property
    def y_square_exponent(self) -> int:
        """q with y^2 = x^q (2^(n-1) for the quaternion family, else 0)."""
        if self.family is Family.QUATERNION:
            return self.cyclic_order // 2
        return 0

    def element(self, a: int, b: int = 0) -> GroupElement:
        a, b = as_int(a, "x-exponent"), as_int(b, "y-exponent")
        if b not in (0, 1) or (self.is_abelian and b != 0):
            raise ValueError(f"invalid y-exponent {b}")
        return GroupElement(a % self.cyclic_order, b)

    def identity(self) -> GroupElement:
        return GroupElement(0, 0)

    def x(self) -> GroupElement:
        return GroupElement(1, 0)

    def y(self) -> GroupElement:
        if self.is_abelian:
            raise ValueError("cyclic group has no generator y")
        return GroupElement(0, 1)

    def generators(self) -> tuple[GroupElement, ...]:
        """x, then y for the non-abelian families."""
        return (self.x(),) if self.is_abelian else (self.x(), self.y())

    def _product(self, a1, b1, a2, b2):
        """Normal form (a, b) of (x^a1 y^b1)(x^a2 y^b2), branch-free for
        Python ints and numpy integer arrays alike: y^b1 x^a2 = x^(a2 r^b1)
        y^b1 with r^b1 = 1 + (r - 1) b1 (r = 1 for the cyclic family), and
        y^b1 y^b2 leaves x^(q b1 b2)."""
        r, q = self.conj_exponent, self.y_square_exponent
        a = a2 * (1 + (r - 1) * b1) + q * b1 * b2 + a1
        a &= self.cyclic_order - 1  # mod 2^n, and in place on arrays
        return a, (b1 + b2) & 1

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """(x^a1 y^b1)(x^a2 y^b2) in normal form."""
        return GroupElement(*self._product(g.a, g.b, h.a, h.b))

    def inverse(self, g: GroupElement) -> GroupElement:
        """y^-b x^-a, where y^-1 = x^-q y."""
        return GroupElement(*self._product(
            -self.y_square_exponent * g.b, g.b, -g.a, 0))

    def all_elements(self) -> tuple[GroupElement, ...]:
        """Fixed enumeration order: x^0..x^(2^n - 1), then their y-coset."""
        m = self.cyclic_order
        return tuple(GroupElement(a, b)
                     for b in range(self.order // m) for a in range(m))


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrix representation given by its generator images.

    ``images`` maps "x" (and "y" for the non-abelian families), and no
    other name, to square complex matrices; arbitrary elements are evaluated through the normal
    form, rho(x^a y^b) = rho(x)^a rho(y)^b.
    """

    group: GroupSpec
    degree: int
    images: Mapping[str, Matrix]

    def __post_init__(self) -> None:
        if not isinstance(self.group, GroupSpec):
            raise ValueError(f"group must be a GroupSpec, got {self.group!r}")
        if "x" not in self.images:
            raise ValueError("representation needs an image of x")
        if self.group.is_abelian and "y" in self.images:
            raise ValueError("the cyclic group has no generator y")
        if not self.group.is_abelian and "y" not in self.images:
            raise ValueError(f"the {self.group.family.value} group needs "
                             "an image of y")
        for name, m in self.images.items():
            if name not in ("x", "y"):
                raise ValueError(f"image of {name!r}: only x and y have "
                                 "images")
            m = np.asarray(m)
            if m.shape != (self.degree, self.degree):
                raise ValueError(
                    f"image of {name} has shape {m.shape}, expected "
                    f"({self.degree}, {self.degree})")

    def evaluate(self, g: GroupElement) -> Matrix:
        out = np.linalg.matrix_power(np.asarray(self.images["x"]), g.a)
        if g.b:
            out = out @ np.asarray(self.images["y"])
        return out.astype(np.complex128)

    def relation_defect(self) -> float:
        """Max entrywise violation of the defining relators.

        Checks rho(x)^(2^n) = 1 and, on the non-abelian families,
        rho(y)^2 = rho(x^q) and rho(y)^-1 rho(x) rho(y) = rho(x^r).
        """
        G = self.group
        eye = np.eye(self.degree)
        rx = np.asarray(self.images["x"])
        residues = [np.linalg.matrix_power(rx, G.cyclic_order) - eye]
        if "y" in self.images:
            ry = np.asarray(self.images["y"])
            residues.append(
                ry @ ry - np.linalg.matrix_power(rx, G.y_square_exponent))
            residues.append(
                rx @ ry - ry @ np.linalg.matrix_power(rx, G.conj_exponent))
        # one np.max over every relator, so a NaN in any of them propagates
        return float(np.max(np.abs(residues)))


def regular_permutations(G: GroupSpec) -> dict[str, np.ndarray]:
    """phi as one index array per generator name: sigma[u] is the
    all_elements index of L[u] g, where x^a y^b sits at a + b 2^n, so
    phi(g) @ v == v[sigma]."""
    m = G.cyclic_order
    # every element times every generator in one call, on a grid with axes
    # (generator, y-exponent, x-exponent)
    a2, b2 = np.array([(g.a, g.b) for g in G.generators()]).T[..., None, None]
    a, b = G._product(np.arange(m), np.arange(G.order // m)[:, None], a2, b2)
    a += b * m
    return dict(zip("xy", a.reshape(len(a2), G.order)))


def regular_representation(G: GroupSpec) -> Representation:
    """Right regular representation in the all_elements basis.

    phi(g)[u, v] = 1 iff L[u] g = L[v]; with the perm_matrix convention
    this makes phi a homomorphism, phi(g) phi(h) = phi(g h)."""
    eye = np.eye(G.order, dtype=np.complex128)
    images = {k: eye[s] for k, s in regular_permutations(G).items()}
    return Representation(group=G, degree=G.order, images=images)


def cyclic_irreps(n: int) -> list[Representation]:
    """The 2^n characters rho_i of Z_{2^n}, rho_i(x) = omega^i.

    omega = exp(+2 pi i / 2^n), matching the dft sign convention.
    """
    N = GroupSpec(Family.CYCLIC, n)
    omega = np.exp(2j * np.pi / N.cyclic_order)
    return [
        Representation(group=N, degree=1,
                       images={"x": np.array([[omega ** i]])})
        for i in range(N.cyclic_order)
    ]


def _domain_element(rho: Representation, ambient: GroupSpec,
                    g: GroupElement) -> GroupElement | None:
    """The ambient element g as an element of rho's domain, or None when g
    lies outside it.

    The domain Z_{2^m} embeds in ambient's <x> as the powers of
    x^(2^(n-m)); membership requires b = 0 and divisibility.
    """
    if rho.group.family is not Family.CYCLIC or rho.group.order == ambient.order:
        return g
    step = ambient.cyclic_order // rho.group.cyclic_order
    if g.b != 0 or g.a % step != 0:
        return None
    return GroupElement(g.a // step, 0)


def induce(rho: Representation, G: GroupSpec,
           T: Sequence[GroupElement]) -> Representation:
    """Induction rho up to G along the right transversal T.

    The image of g is the |T| x |T| block matrix with block (i, j) equal to
    rho(t_i g t_j^-1) when that product lies in the subgroup and 0
    otherwise.  With T = (1, y) and a degree-1 rho_i this gives
    x -> diag(rho_i(x), rho_i(x^r)) and y -> [[0, 1], [rho_i(y^2), 0]].
    """
    try:
        T = tuple(T)
    except TypeError:
        raise ValueError("the transversal must be a sequence of "
                         f"GroupElements, got {T!r}") from None
    if not all(isinstance(t, GroupElement) for t in T):
        raise ValueError("transversal entries must be GroupElements, "
                         f"got {T!r}")
    p = len(T)
    if p * rho.group.order != G.order:
        raise ValueError(
            f"transversal length {p} does not match index "
            f"{G.order // rho.group.order}")
    # N t_i = N t_j exactly when t_i t_j^-1 lies in N
    if any(_domain_element(rho, G, G.multiply(ti, G.inverse(tj))) is not None
           for i, ti in enumerate(T) for tj in T[:i]):
        raise ValueError("T is not a transversal: cosets collide")

    d = rho.degree

    def image(g: GroupElement) -> Matrix:
        out = np.zeros((p * d, p * d), dtype=np.complex128)
        for i, ti in enumerate(T):
            for j, tj in enumerate(T):
                h = _domain_element(
                    rho, G, G.multiply(G.multiply(ti, g), G.inverse(tj)))
                if h is not None:
                    out[i * d:(i + 1) * d, j * d:(j + 1) * d] = rho.evaluate(h)
        return out

    images = {name: image(g) for name, g in zip("xy", G.generators())}
    return Representation(group=G, degree=p * d, images=images)


def _extendables(G: GroupSpec) -> np.ndarray:
    """extendable_indices in increasing order, as an array."""
    if G.is_abelian:
        raise ValueError("extendability is about the non-abelian families")
    m = G.cyclic_order
    return np.arange(0, m, 2 if G.family is Family.QP else m // 2)


def extendable_indices(G: GroupSpec) -> frozenset[int]:
    """Indices i with rho_i invariant under conjugation by y, i r = i mod 2^n.

    Dihedral, quaternion and qd share {0, 2^(n-1)}; for qp every even i
    extends.
    """
    return frozenset(_extendables(G).tolist())
