"""Independent checks of the transform and its circuits.

Everything here is built to distrust `synthesis`: the regular
representation comes from group multiplication alone, the census from
the closed-form count table, and block positions from that census.  The
only synthesis artifact a check touches is the matrix under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, cost, to_matrix
from .circuit_library import qft_circuit
from .groups import Family, GroupSpec, regular_representation
from .linalg import Matrix
from .synthesis import assemble

__all__ = [
    "VerificationReport",
    "census",
    "check_decomposition",
    "circuit_matches",
    "scaling_fit",
    "full_report",
]

ROUND_DIGITS = 9
# a 2-dim block is irreducible when its generator images fail to commute
# by more than this
COMMUTATOR_FLOOR = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Defect summary; every defect is a max-magnitude, hence >= 0.

    census_ok covers the structural claims: block counts by distinctness
    match the census, 1-dim blocks are unit-modulus characters, and 2-dim
    blocks are irreducible (non-commuting generator images).
    """

    group: GroupSpec
    unitarity_defect: float
    max_offblock: float
    equal_summands_defect: float
    census_ok: bool
    circuit_matrix_defect: float = math.nan
    cost_by_n: tuple[tuple[int, float], ...] = ()

    def passed(self, tol: float = 1e-10) -> bool:
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tol}")
        defects = [self.unitarity_defect, self.max_offblock,
                   self.equal_summands_defect]
        if not math.isnan(self.circuit_matrix_defect):
            defects.append(self.circuit_matrix_defect)
        return self.census_ok and all(d < tol for d in defects)


def census(G: GroupSpec) -> tuple[tuple[int, int], ...]:
    """Closed-form irreducible count table, (degree, count) pairs."""
    if G.is_abelian:
        raise ValueError("the census table covers the non-abelian families")
    if G.family is Family.QP:
        return ((1, 1 << G.n), (2, 1 << (G.n - 2)))
    return ((1, 4), (2, (1 << (G.n - 1)) - 1))


def _block_sizes(G: GroupSpec) -> tuple[int, ...]:
    """Predicted block layout of the conjugated regular representation:
    per half, the extendable characters then the induced pairs."""
    if G.is_abelian:
        return (1,) * G.order
    counts = dict(census(G))
    half = (1,) * (counts[1] // 2) + (2,) * counts[2]
    return half + half


def _row_permutation(m: Matrix) -> np.ndarray:
    """sigma with m @ b == b[sigma]; raises unless m is a permutation."""
    sigma = np.argmax(np.abs(m), axis=1)
    if not (np.count_nonzero(m) == len(m) and np.unique(sigma).size == len(m)
            and np.all(m[np.arange(len(m)), sigma] == 1)):
        raise AssertionError("phi(g) is not a permutation matrix")
    return sigma


def check_decomposition(b: Matrix, G: GroupSpec) -> VerificationReport:
    """Conjugate the regular representation by b and grade the result
    against the predicted block structure."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (G.order, G.order):
        raise ValueError(f"matrix shape {b.shape} does not match |G| = {G.order}")
    # phi's images are those of the generators: x, then y if non-abelian;
    # each is a permutation matrix, so phi(g) b gathers b's rows.  Only the
    # index arrays are kept, which frees the dense images before the checks.
    perms = [_row_permutation(m)
             for m in regular_representation(G).images.values()]
    bh = b.conj().T
    conjugated = [bh @ b[sigma] for sigma in perms]
    unitarity = float(np.max(np.abs(b @ bh - np.eye(G.order))))

    sizes = _block_sizes(G)
    starts = np.cumsum((0,) + sizes)
    mask = np.zeros((G.order, G.order), dtype=bool)
    for s, w in zip(starts, sizes):
        mask[s:s + w, s:s + w] = True
    off_block = float(max(np.max(np.abs(m[~mask])) for m in conjugated))

    # blocks[k] = tuple of generator images of summand k
    blocks = [tuple(m[s:s + w, s:s + w] for m in conjugated)
              for s, w in zip(starts, sizes)]

    def key(images):
        flat = np.concatenate([m.ravel() for m in images])
        return tuple(np.round(flat.real, ROUND_DIGITS)) \
            + tuple(np.round(flat.imag, ROUND_DIGITS))

    ok = True
    for images, w in zip(blocks, sizes):
        if w == 1:
            ok &= all(abs(abs(m[0, 0]) - 1.0) < 1e-9 for m in images)
        else:
            comm = images[0] @ images[1] - images[1] @ images[0]
            ok &= bool(np.max(np.abs(comm)) > COMMUTATOR_FLOOR)
    distinct = {1: set(), 2: set()}
    for images, w in zip(blocks, sizes):
        distinct[w].add(key(images))
    expected = dict(census(G)) if not G.is_abelian else {1: G.order}
    ok &= all(len(distinct[w]) == c for w, c in expected.items())

    equal_defect = 0.0
    if not G.is_abelian:
        # pair k of the first half is claimed equal to pair k of the second
        per_half = len(sizes) // 2
        for k, w in enumerate(sizes[:per_half]):
            if w != 2:
                continue
            for m0, m1 in zip(blocks[k], blocks[per_half + k]):
                equal_defect = max(equal_defect, float(np.max(np.abs(m0 - m1))))

    return VerificationReport(
        group=G,
        unitarity_defect=unitarity,
        max_offblock=off_block,
        equal_summands_defect=equal_defect,
        census_ok=bool(ok),
    )


def circuit_matches(c: Circuit, b: Matrix) -> float:
    """Max entrywise deviation of the circuit's matrix from b."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (1 << c.width, 1 << c.width):
        raise ValueError(
            f"matrix shape {b.shape} does not match circuit width {c.width}")
    return float(np.max(np.abs(to_matrix(c) - b)))


def scaling_fit(G: GroupSpec, ns: list[int]) -> float:
    """Least-squares slope of log(total cost) against log(qubit count)
    for the family of G over the given n values."""
    if len(ns) < 4:
        raise ValueError("need at least 4 points for a meaningful fit")
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
        cost_by_n=((G.n, cost(c)),),
    )
