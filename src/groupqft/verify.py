"""Independent checks of the transform and its circuits.

Everything here is built to distrust `synthesis`: the regular
representation comes from the group product alone, as one index array per
generator (phi(g) @ v == v[sigma]), the census from the closed-form count
table, and block positions from that census.  The only synthesis artifact
a check touches is the matrix under test.
`check_decomposition` holds at most three |G| x |G| arrays at once: b, a
gather buffer and a product buffer, which each generator's conjugate
reuses in turn.  It grades the predicted blocks as two stacked arrays,
1-dim and 2-dim summands, with whole-array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, apply_to_state, cost
# unused here, but qftbench's tracer wraps verify.to_matrix
from .circuit import to_matrix  # noqa: F401
from .circuit_library import qft_circuit
from .groups import Family, GroupSpec, regular_permutations
# unused here, but qftbench's tracer wraps verify.regular_representation
from .groups import regular_representation  # noqa: F401
from .linalg import Matrix
from .synthesis import assemble

__all__ = [
    "VerificationReport",
    "census",
    "check_decomposition",
    "check_tolerance",
    "circuit_matches",
    "scaling_fit",
    "full_report",
]

ROUND_DIGITS = 9
# a 2-dim block is irreducible when its generator images fail to commute
# by more than this
COMMUTATOR_FLOOR = 1e-6
# entries per row chunk of a gather or a max over a |G| x |G| array
_CHUNK = 1 << 15


@dataclass(frozen=True)
class VerificationReport:
    """Defect summary; every defect is a max-magnitude over an array, hence
    >= 0, or NaN when the matrix under test holds a NaN (which never passes).

    census_ok covers the structural claims: block counts by distinctness
    match the census, 1-dim blocks are unit-modulus characters, and 2-dim
    blocks are irreducible (non-commuting generator images).
    circuit_matrix_defect and cost, the circuit's total `cost`, are NaN
    on a report that checked no circuit.
    """

    group: GroupSpec
    unitarity_defect: float
    max_offblock: float
    equal_summands_defect: float
    census_ok: bool
    circuit_matrix_defect: float = math.nan
    cost: float = math.nan

    def passed(self, tol: float = 1e-10) -> bool:
        check_tolerance(tol)
        defects = [self.unitarity_defect, self.max_offblock,
                   self.equal_summands_defect]
        if not math.isnan(self.circuit_matrix_defect):
            defects.append(self.circuit_matrix_defect)
        return self.census_ok and all(d < tol for d in defects)


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless tol is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def census(G: GroupSpec) -> tuple[tuple[int, int], ...]:
    """Closed-form irreducible count table, (degree, count) pairs."""
    if G.is_abelian:
        raise ValueError("the census table covers the non-abelian families")
    if G.family is Family.QP:
        return ((1, 1 << G.n), (2, 1 << (G.n - 2)))
    return ((1, 4), (2, (1 << (G.n - 1)) - 1))


def check_decomposition(b: Matrix, G: GroupSpec) -> VerificationReport:
    """Conjugate the regular representation by b and grade the result
    against the predicted block structure.

    Blocks are stacked in layout order, both halves: `ones` (k1, generators)
    holds the 1-dim summands, `twos` (k2, generators, 2, 2) the 2-dim ones.
    b b^H is formed in the product buffer, which then takes each
    generator's conjugate b^H phi(g) b in turn: its blocks are copied out
    and zeroed in place, and the max of what is left is that generator's
    off-block part.  b^H X is formed as conj(b^T conj(X)), which equals it
    bit for bit and needs no conjugate copy of b.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (G.order, G.order):
        raise ValueError(f"matrix shape {b.shape} does not match |G| = {G.order}")
    # phi(g) b gathers b's rows, for x and then y if non-abelian
    perms = list(regular_permutations(G).values())
    if not all(np.array_equal(np.sort(s), np.arange(G.order)) for s in perms):
        raise AssertionError("phi(g) is not a permutation of range(|G|)")
    # the gather buffer starts as b^H, in b.conj().T's memory order;
    # x - 0.0 == x, so only the diagonal needs the identity subtracted
    work = b.T.conj()
    product = b @ work
    product[np.diag_indices(G.order)] -= 1.0
    unitarity = _max_abs(product)

    # layout, per half: the extendable characters, then the induced pairs
    # (the cyclic group is a single half of characters)
    if G.is_abelian:
        halves, chars, pairs = 1, G.order, 0
    else:
        counts = dict(census(G))
        halves, chars, pairs = 2, counts[1] // 2, counts[2]
    start = G.order // halves * np.arange(halves)[:, None]
    one = (start + np.arange(chars)).ravel()
    two = (start + chars + 2 * np.arange(pairs)).ravel()[:, None] + (0, 1)
    two_blocks = (two[:, :, None], two[:, None, :])
    ones = np.empty((len(one), len(perms)), dtype=np.complex128)
    twos = np.empty((len(two), len(perms), 2, 2), dtype=np.complex128)
    off_blocks = []
    for k, sigma in enumerate(perms):
        # phi(g) b in row chunks: a whole gather would be a fourth array
        for rows in _row_chunks(G.order):
            np.conjugate(b[sigma[rows]], out=work[rows])
        np.matmul(b.T, work, out=product)
        np.conjugate(product, out=product)
        ones[:, k] = product[one, one]
        twos[:, k] = product[two_blocks]
        product[one, one] = 0.0
        product[two_blocks] = 0.0
        off_blocks.append(_max_abs(product))
    off_block = float(np.max(off_blocks))

    ok = bool(np.all(np.abs(np.abs(ones) - 1.0) < 1e-9))
    # a 2-dim summand is irreducible when its x and y images fail to
    # commute (the cyclic group has no 2-dim summands, hence no y to index)
    x, y = twos[:, 0], twos[:, -1]
    ok &= bool(np.all(np.max(np.abs(x @ y - y @ x), axis=(1, 2))
                      > COMMUTATOR_FLOOR))
    # distinct summands by their rounded generator images: every character
    # differs, and each pair appears once per half
    for summands, expected in ((ones, len(ones)), (twos, pairs)):
        keys = np.round(np.stack([summands.real, summands.imag], axis=-1),
                        ROUND_DIGITS)
        ok &= len(np.unique(keys, axis=0)) == expected
    # pair k of the first half is claimed equal to pair k of the second
    equal_defect = float(np.max(np.abs(twos[:pairs] - twos[pairs:]),
                                initial=0.0))

    return VerificationReport(
        group=G,
        unitarity_defect=unitarity,
        max_offblock=off_block,
        equal_summands_defect=equal_defect,
        census_ok=ok,
    )


def _row_chunks(rows: int) -> list[slice]:
    """Slices of about _CHUNK entries of a square array with `rows` rows."""
    step = max(1, _CHUNK // rows)
    return [slice(r, r + step) for r in range(0, rows, step)]


def _max_abs(a: np.ndarray) -> float:
    """max |a| over a square array, NaN if a holds a NaN, taken in row
    chunks so that |a| never exists whole."""
    return float(np.max([np.max(np.abs(a[rows]))
                         for rows in _row_chunks(len(a))]))


def circuit_matches(c: Circuit, b: Matrix) -> float:
    """Max entrywise deviation of the circuit's matrix U from b.

    The state kernel runs the circuit on the batch of basis states, the
    rows of a bool identity that it copies to complex exactly, and row r
    of the result is U e_r: the result is U^T, compared with b^T in place.
    `to_matrix` is not called; it is the tests' oracle for this.
    """
    b = np.asarray(b, dtype=np.complex128)
    dim = 1 << c.width
    if b.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {b.shape} does not match circuit width {c.width}")
    ut = apply_to_state(c, np.eye(dim, dtype=bool))
    ut -= b.T
    return float(np.max(np.abs(ut)))


def scaling_fit(G: GroupSpec, ns: list[int]) -> float:
    """Least-squares slope of log(total cost) against log(qubit count)
    for the family of G over the given n values, at least 4 distinct."""
    if len(set(ns)) < 4:
        raise ValueError("need at least 4 distinct n for a meaningful fit")
    widths = []
    costs = []
    for n in ns:
        c = qft_circuit(GroupSpec(G.family, n))
        widths.append(c.width)
        costs.append(cost(c))
    slope, _ = np.polyfit(np.log(widths), np.log(costs), 1)
    return float(slope)


def full_report(G: GroupSpec) -> VerificationReport:
    """Decomposition check of assemble(G).b plus the circuit-vs-matrix
    defect of qft_circuit(G), in one report."""
    b = assemble(G).b
    report = check_decomposition(b, G)
    c = qft_circuit(G)
    return replace(
        report,
        circuit_matrix_defect=circuit_matches(c, b),
        cost=cost(c),
    )
