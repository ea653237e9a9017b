"""Independent checks of the transform and its circuits.

Everything here is built to distrust `synthesis`: the regular
representation comes from the group product alone, as one index array per
generator (phi(g) @ v == v[sigma]), the census of all five families from
the closed-form count table, and block positions from that census alone.
The only synthesis artifact a check touches is the matrix under test.
The only |G| x |G| array either check holds is b itself:
`check_decomposition` works through b's columns in chunks of about
`_CHUNK` entries, and `circuit_matches` builds the circuit's matrix in
column blocks of that size, each a batch of basis states run by one
`circuit.plan`, so it knows no gate class and no kernel layout.  The
predicted blocks are graded as two stacked arrays, 1-dim and 2-dim
summands, with whole-array operations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, cost, plan
# unused here, but qftbench's tracer wraps verify.to_matrix
from .circuit import to_matrix  # noqa: F401
from .circuit_library import qft_circuit
from .groups import Family, GroupSpec, regular_permutations
# unused here, but qftbench's tracer wraps verify.regular_representation
from .groups import regular_representation  # noqa: F401
from .linalg import Matrix, as_complex
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
# entries per column chunk of a |G| x |G| product, and per column block
# of the circuit's matrix
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
    """Raise ValueError unless tol is a finite positive real, not a bool."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
            or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def census(G: GroupSpec) -> tuple[tuple[int, int], ...]:
    """Closed-form irreducible count table, (degree, count) pairs."""
    if G.is_abelian:
        return ((1, G.order),)
    if G.family is Family.QP:
        return ((1, 1 << G.n), (2, 1 << (G.n - 2)))
    return ((1, 4), (2, (1 << (G.n - 1)) - 1))


def check_decomposition(b: Matrix, G: GroupSpec) -> VerificationReport:
    """Conjugate the regular representation by b and grade the result
    against the predicted block structure.

    Blocks are stacked in layout order, both halves: `ones` (k1, generators)
    holds the 1-dim summands, `twos` (k2, generators, 2, 2) the 2-dim ones.
    The columns are taken in chunks of max(4, _CHUNK // |G|).  Each
    chunk forms those columns of b b^H - I, then those of each
    generator's conjugate b^H phi(g) b in turn: the block entries that
    fall in the chunk are copied out and zeroed in place, and the max of
    what is left is that chunk's off-block part.  b^H X is formed as
    conj(b^T conj(X)), which equals it bit for bit and needs no conjugate
    copy of b.  The tests hold the report at chunks of 4, 8 and 16
    columns equal, field for field, to a dense reference.
    """
    b = as_complex(b)
    if b.shape != (G.order, G.order):
        raise ValueError(f"matrix shape {b.shape} does not match |G| = {G.order}")
    # phi(g) b gathers b's rows, for x and then y if non-abelian
    perms = list(regular_permutations(G).values())
    if not all(np.array_equal(np.sort(s), np.arange(G.order)) for s in perms):
        raise AssertionError("phi(g) is not a permutation of range(|G|)")

    # layout, per half: the extendable characters, then the induced pairs;
    # a census with no pairs (the cyclic group's) is a single half
    counts = dict(census(G))
    pairs = counts.get(2, 0)
    halves = 1 + (pairs > 0)
    chars = counts[1] // halves
    start = G.order // halves * np.arange(halves)[:, None]
    one = (start + np.arange(chars)).ravel()
    two = (start + chars + 2 * np.arange(pairs)).ravel()
    ones = np.empty((len(one), len(perms)), dtype=np.complex128)
    twos = np.empty((len(two), len(perms), 2, 2), dtype=np.complex128)
    unitarities, off_blocks = [], []
    # pair starts are even and the width a power of two, so no pair
    # straddles two chunks; a chunk has at least 4 columns, since OpenBLAS
    # rounded a product of 2 columns otherwise than the whole product
    width = min(G.order, max(4, _CHUNK // G.order))
    diagonal = np.arange(width)
    for c0 in range(0, G.order, width):
        cols = slice(c0, c0 + width)
        # columns c0.. of b b^H - I; x - 0.0 == x, so only the diagonal
        # needs the identity subtracted
        chunk = b @ b[cols].conj().T
        chunk[c0 + diagonal, diagonal] -= 1.0
        unitarities.append(np.max(np.abs(chunk)))
        # the summands whose columns fall in the chunk
        i1 = slice(*np.searchsorted(one, (c0, c0 + width)))
        i2 = slice(*np.searchsorted(two, (c0, c0 + width)))
        one_block = (one[i1], one[i1] - c0)
        pair = two[i2][:, None] + (0, 1)
        two_blocks = (pair[:, :, None], pair[:, None, :] - c0)
        for k, sigma in enumerate(perms):
            # columns c0.. of b^H phi(g) b, from the gathered rows of b
            gathered = b[sigma, cols]
            np.conjugate(gathered, out=gathered)
            np.matmul(b.T, gathered, out=chunk)
            np.conjugate(chunk, out=chunk)
            ones[i1, k] = chunk[one_block]
            twos[i2, k] = chunk[two_blocks]
            chunk[one_block] = 0.0
            chunk[two_blocks] = 0.0
            off_blocks.append(np.max(np.abs(chunk)))
    # np.max, not Python's max, which drops a NaN after the first item
    unitarity = float(np.max(unitarities))
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


def circuit_matches(c: Circuit, b: Matrix) -> float:
    """Max entrywise deviation of the circuit's matrix U from b.

    U is built `cols` = min(dim, max(1, _CHUNK // dim)) columns at a time,
    by one `plan` for batches of `cols` states: row j of the block
    starting at column c0 is the basis state e_(c0 + j), a bool array that
    the kernel copies to complex exactly, so row j of the result is
    U e_(c0 + j), column c0 + j of U.  `to_matrix` is not called; it is
    the tests' oracle for this.
    """
    b = as_complex(b)
    dim = 1 << c.width
    if b.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {b.shape} does not match circuit width {c.width}")
    cols = min(dim, max(1, _CHUNK // dim))
    batch = plan(c, cols)
    defects = []
    for c0 in range(0, dim, cols):
        block = batch.run(np.eye(cols, dim, c0, dtype=bool))
        block -= b[:, c0:c0 + cols].T
        defects.append(np.max(np.abs(block)))
    # np.max, not Python's max, which drops a NaN after the first item
    return float(np.max(defects))


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
