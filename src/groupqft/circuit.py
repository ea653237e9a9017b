"""Gate-level circuit representation.

A circuit is a list of gates on `width` qubits; qubit 0 is the least
significant bit of the basis-state index.  Gates are listed in temporal
order, so the matrix of the whole circuit multiplies them in reverse:
gates (g1, g2, ..., gm) realize G_m ... G_2 G_1.

Every gate other than a qubit permutation is a 2x2 unitary `u` on
`target`, fired by `controls`, a tuple of (qubit, polarity) pairs: a
Local gate has no controls and a CNOT is X with one positive control.
Each gate class exposes these three attributes, so the code below reads
them and never asks which kind a 2x2 gate is.  Every gate, a qubit
permutation too, also stores `span`, its (lowest, highest) qubit, when it
is built, and rejects a qubit index that is not an integer there; so
`Circuit` checks a gate against its width in O(1).

Two independent evaluation routes are kept deliberately separate:
`to_matrix` multiplies each gate's action, one gate at a time, into the
running product row pair by row pair, on flat basis indices selected by
bit masks, while `apply_to_state` updates a `(2,)*width` tensor view of
the state in place, one axis per qubit.  They read the same gate data
but share no evaluation code; tests play one against the other.
`to_matrix` stays unfused, so it remains the oracle.

The state kernel schedules the gates in one pass (`_segments`), from the
gate data alone.  On a state of at least `_FUSE_MIN_WIDTH` qubits the
qubits are split into windows of at most `_WINDOW`, counted from the top
down ([15, 21), [9, 15), [3, 9), [0, 3) at width 21); on a narrower state
the whole register is one window.  A stage collects the gates that lie
inside the window of its first gate.  A diagonal gate that reaches
outside that window is deferred instead: it commutes with every diagonal
gate and with every gate whose target is not among its qubits, so it may
pass those.  A mixing gate outside the window ends the stage and starts
the next one, or runs on its own when no window holds it.  So does a
fan-out run: two or more consecutive X gates with one set of controls
and distinct targets, whose qubits span windows, run as one step.  The
stage and all pending diagonal gates are applied before a permutation,
before a mixing gate or fan-out run with a target that a pending gate
touches, and at the end.  On the wide states, a stage with two or more
uncontrolled mixing gates runs as one dense matrix on the span of its
qubits.  Any other stage runs gate by gate, with each run of two or more
consecutive diag(1, z) gates on one target and at most log2(`_PHASE_CAP`)
controls as one broadcast multiply.  Three or more pending diagonal gates
are applied as one product of broadcast factors, which scales the state
whenever it would pass `_BLOCK` entries.  Last, on the wide states of
at least `_MOVES_MIN_SIZE` entries, a move run, two or more consecutive
steps of that schedule that only move entries (a lone gate whose u is
exactly X, a fan-out run or a permutation), among them a permutation,
runs on an index array and moves the state by one gather
(`_move_runs`).  On a narrow state nothing
is deferred or grouped into fan-out or move runs, and its one stage runs
gate by gate.  `apply_to_state` describes each kernel.

`cost` sums the fixed per-gate weights of `gate_cost`.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

# kron is unused here but stays a module attribute: qftbench's tracer
# wraps circuit.kron by name.
from .linalg import Matrix, kron  # noqa: F401

GATE_EPS = 1e-12

# Read-only: every CNot's class-level u is X_MATRIX, and circuits share
# these arrays between gates, so a write through one gate would rewrite
# the others after their unitarity check and kind flags were set.
X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
for _u in (X_MATRIX, Z_MATRIX, H_MATRIX):
    _u.flags.writeable = False
del _u


def _check_2x2_unitary(u: Matrix) -> tuple[bool, bool, bool]:
    """Raise ValueError unless `u` is a 2x2 unitary within GATE_EPS, and
    return its kind: (u is diagonal, u is diag(1, z), u is exactly X).

    The check is closed form on Python scalars.  With rows (a, b) and
    (c, d), every entry of u u^H - I must be below GATE_EPS in magnitude:
    the row norms |a|^2 + |b|^2 - 1 and |c|^2 + |d|^2 - 1, and the
    off-diagonal a c* + b d* (the other off-diagonal entry is its
    conjugate).  Each defect is compared on its own, so a NaN or an
    infinity in any entry fails the check.  The tests hold it to
    `linalg.is_unitary(u, GATE_EPS)`, which forms the same product with
    numpy and costs several numpy calls per gate.  The kind is read from
    the same scalars, so the state kernel never reads numpy scalars to
    group the gates.
    """
    if u.shape != (2, 2):
        raise ValueError(f"gate unitary must be 2x2, got {u.shape}")
    (a, b), (c, d) = u.tolist()
    off = a * c.conjugate() + b * d.conjugate()
    # a chain of comparisons, not all() over a generator, which costs a
    # gate about 0.8 us more; math.hypot, not abs(off): abs of a large
    # finite complex raises OverflowError
    if not (abs((a * a.conjugate() + b * b.conjugate()).real - 1.0) < GATE_EPS
            and abs((c * c.conjugate() + d * d.conjugate()).real - 1.0)
            < GATE_EPS
            and math.hypot(off.real, off.imag) < GATE_EPS):
        raise ValueError("gate matrix is not unitary")
    diagonal = b == 0 and c == 0
    return (diagonal, diagonal and a == 1,
            a == 0 and d == 0 and b == 1 and c == 1)


def _qubit(q: object) -> int:
    """q as a Python int.  Python and numpy integers pass; a float or any
    other non-integer is a ValueError, never truncated."""
    try:
        return operator.index(q)
    except TypeError:
        raise ValueError(
            f"qubit index must be an integer, got {q!r}") from None


# Frozen gates set their own attributes through object.__setattr__, one
# at a time and always in the same order: instances then share one key
# table, where an update of an empty __dict__ cost each gate about 190
# bytes more.
_set = object.__setattr__


def _set_unitary(g: Gate, u: Matrix) -> None:
    """Check `u`, then store it as complex128 on the frozen gate g with
    its kind: `diagonal`, `phase` and `flip`.

    The kind and `span` are attributes, not fields, so equality, hashing
    and the text format see only the fields.  Local and MultiControlled
    write their own __init__: the generated one would set each field once
    before __post_init__ set it again, about 0.5 us a gate.
    """
    u = np.asarray(u, dtype=np.complex128)
    diagonal, phase, flip = _check_2x2_unitary(u)
    _set(g, "u", u)
    _set(g, "diagonal", diagonal)
    _set(g, "phase", phase)
    _set(g, "flip", flip)


@dataclass(frozen=True, eq=False, init=False)
class Local:
    """Single-qubit gate u on `target`."""

    u: Matrix
    target: int

    # a class attribute, not a field
    controls = ()

    def __init__(self, u: Matrix, target: int) -> None:
        target = _qubit(target)
        _set_unitary(self, u)
        _set(self, "target", target)
        _set(self, "span", (target, target))


@dataclass(frozen=True)
class CNot:
    """X on `target` when `control` reads 1."""

    control: int
    target: int

    # class attributes, not fields: equality, hashing and the text format
    # see only control and target
    u = X_MATRIX
    diagonal = phase = False
    flip = True

    @property
    def controls(self) -> tuple[tuple[int, bool], ...]:
        return ((self.control, True),)

    def __post_init__(self) -> None:
        control, target = _qubit(self.control), _qubit(self.target)
        if control == target:
            raise ValueError("control and target coincide")
        _set(self, "control", control)
        _set(self, "target", target)
        _set(self, "span", (min(control, target), max(control, target)))


@dataclass(frozen=True, eq=False, init=False)
class MultiControlled:
    """u on `target`, applied when every control matches its polarity.

    Controls are (qubit, polarity) pairs; True fires on |1>, False on |0>.
    """

    u: Matrix
    controls: tuple[tuple[int, bool], ...]
    target: int

    def __init__(self, u: Matrix, controls: tuple[tuple[int, bool], ...],
                 target: int) -> None:
        # one plain loop: a generator and a second pass over the controls
        # cost each gate about 0.4 us more
        pairs, qubits = [], []
        for q, p in controls:
            q = _qubit(q)
            pairs.append((q, bool(p)))
            qubits.append(q)
        target = _qubit(target)
        every = [target, *qubits]
        _set_unitary(self, u)
        _set(self, "controls", tuple(pairs))
        _set(self, "target", target)
        _set(self, "span", (min(every), max(every)))
        if not pairs:
            raise ValueError("need at least one control; use Local instead")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate control qubits")
        if target in qubits:
            raise ValueError("target cannot also be a control")


@dataclass(frozen=True)
class QubitPerm:
    """Relabel wires: qubit q is routed to position sigma[q]."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        sigma = tuple(map(_qubit, self.sigma))
        if sorted(sigma) != list(range(len(sigma))):
            raise ValueError(f"not a permutation: {sigma}")
        _set(self, "sigma", sigma)
        _set(self, "span", (0, len(sigma) - 1))


Gate = Local | CNot | MultiControlled | QubitPerm


def _gate_qubits(g: Gate) -> list[int]:
    if isinstance(g, QubitPerm):
        return list(range(len(g.sigma)))
    qubits = [g.target]
    for q, _ in g.controls:
        qubits.append(q)
    return qubits


@dataclass(frozen=True, eq=False)
class Circuit:
    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        try:
            width = operator.index(self.width)
        except TypeError:
            raise ValueError(
                f"circuit width must be an integer, got {self.width!r}"
            ) from None
        object.__setattr__(self, "width", width)
        if width < 1:
            raise ValueError("circuit needs at least one qubit")
        # O(1) per gate from the span its constructor stored; only a gate
        # that fails is walked, to name the same qubit as a full scan
        for g in self.gates:
            lo, hi = g.span
            if isinstance(g, QubitPerm) and len(g.sigma) != width:
                raise ValueError("permutation length differs from width")
            if lo < 0 or hi >= width:
                q = next(q for q in _gate_qubits(g) if not 0 <= q < width)
                raise ValueError(f"qubit {q} outside width {width}")

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.width != other.width:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.width, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)


def _perm_index_map(sigma: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(1 << len(sigma), dtype=np.int64)
    out = np.zeros_like(idx)
    for q, s in enumerate(sigma):
        out |= ((idx >> q) & 1) << s
    return out


def _row_pairs(g: Gate, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-index pairs a 2x2 gate mixes.

    i holds the indices whose target bit is 0 and whose controls match
    their polarities, j = i | target bit; the gate maps rows (i, j) by u
    and leaves every other row alone.
    """
    pos = sum(1 << q for q, p in g.controls if p)
    neg = sum(1 << q for q, p in g.controls if not p)
    tbit = 1 << g.target
    idx = np.arange(1 << width, dtype=np.int64)
    i = idx[(idx & (tbit | pos | neg)) == pos]
    return i, i | tbit


def to_matrix(c: Circuit) -> Matrix:
    """Dense matrix of the whole circuit.

    Each gate acts on the rows of the running product: a 2x2 gate
    recombines its row pairs, a qubit permutation scatters whole rows.
    No gate matrix is formed, so a gate costs O(rows touched * 2^width).
    """
    out = np.eye(1 << c.width, dtype=np.complex128)
    for g in c.gates:
        if isinstance(g, QubitPerm):
            moved = np.empty_like(out)
            moved[_perm_index_map(g.sigma)] = out
            out = moved
            continue
        i, j = _row_pairs(g, c.width)
        u = g.u
        ri, rj = out[i], out[j]
        out[i] = u[0, 0] * ri + u[0, 1] * rj
        out[j] = u[1, 0] * ri + u[1, 1] * rj
    return out


# length-1 slices selecting bit 0 / bit 1 of one tensor axis
_BIT = (slice(0, 1), slice(1, 2))

# Entries a phase run's product of factors may reach before it is applied
# early, so that it builds no temporary near the size of the state, and
# that a deferred diagonal gate's factor may hold to join a release's
# product.
_PHASE_CAP = 1 << 10

# Entries in each of the paired sub-views a mixing gate updates at a time,
# in a window stage's matmul buffer, and in a release's product of deferred
# diagonal factors: two blocks and their temporaries, at most 1 MiB, stay
# in cache.
_BLOCK = 1 << 14

# On a state of at least _FUSE_MIN_WIDTH qubits, the qubits are split into
# windows of at most _WINDOW qubits, counted from the top down, and a stage
# of gates inside one window may run as one dense matrix on the span of its
# qubits.  Both values are measured (CHANGES.md): whole width-21 circuits
# ran as fast with a window of 6 qubits as with 7, and fusing broke even at
# width 13 and gained from 14 up.  The threshold must exceed 2 * _WINDOW,
# the width a stage's matrix is built on, or that build would fuse again.
_WINDOW = 6
_FUSE_MIN_WIDTH = 14

# Entries a state needs before its move runs go through an index array
# (`_apply_moves`).  At 2^21 complex entries, 32 MiB, glibc maps every
# state array fresh and unmaps it when it is freed.  On smaller states the
# index arrays, a new size class, changed how the heap was reused between
# calls: on verify's width-18 batches, page faults per `full_report` rose
# from about 2,950 to 4,670 and the call slowed by about 8%, in 10 of 10
# rounds (CHANGES.md), although the runs themselves got faster.  Widths
# 19 and 20 are unmeasured.
_MOVES_MIN_SIZE = 1 << 21

# Rows of the (2^h, 2^l) view of a permutation's moved span that the banded
# route gathers at a time.  Measured (CHANGES.md): on width-21 bit
# reversals, bands of 64 rows of 2^10 entries beat 16, 32, 128 and 256.
_BAND = 64


def _halves(psi: np.ndarray, top: int, g: Gate) -> tuple[np.ndarray, np.ndarray]:
    """Views of the target-0 and target-1 halves of the control-matched
    block of `g`, on a tensor whose axis top-q holds qubit q.

    Slices, not integer indices: when the controls and the target fix
    every axis, integer indexing returns a 0-d copy and the write is lost.
    """
    idx = [slice(None)] * (top + 1)
    for q, p in g.controls:
        idx[top - q] = _BIT[p]
    idx[top - g.target] = _BIT[0]
    a0 = psi[tuple(idx)]
    idx[top - g.target] = _BIT[1]
    return a0, psi[tuple(idx)]


def _phase_factor(top: int, g: Gate, z: complex) -> np.ndarray:
    """z where the controls of `g` match, 1 elsewhere, with a length-2
    axis per control and length 1 on every other axis, so it broadcasts
    over a target half of a tensor whose axis top-q holds qubit q."""
    shape = [1] * (top + 1)
    corner = [0] * (top + 1)
    for q, p in g.controls:
        shape[top - q] = 2
        corner[top - q] = int(p)
    f = np.ones(shape, dtype=np.complex128)
    f[tuple(corner)] = z
    return f


def _blocks(a0: np.ndarray,
            a1: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Paired sub-views of a0 and a1 of at most `_BLOCK` entries each.

    The two halves have the same shape: length 2 on every free axis,
    length 1 on the axes the controls and the target fix.  Fixing the
    leading free axes, one `np.ndindex` key at a time, leaves the trailing
    ones, so each pair is a view and a block-sized temporary stays in
    cache.
    """
    n_lead = a0.size.bit_length() - _BLOCK.bit_length()
    if n_lead <= 0:
        yield a0, a1
        return
    lead = [ax for ax, n in enumerate(a0.shape) if n == 2][:n_lead]
    idx = [slice(None)] * a0.ndim
    for key in np.ndindex((2,) * n_lead):
        for ax, k in zip(lead, key):
            idx[ax] = k
        t = tuple(idx)
        yield a0[t], a1[t]


def _apply_2x2(a0: np.ndarray, a1: np.ndarray, u: Matrix) -> None:
    """(a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1) in place.

    u alone decides how:

    - diagonal: scale the halves whose entry is not 1, each in one
      in-place pass over the whole half, which needs no temporary;
    - anti-diagonal (X, so every CNOT): swap the halves, scaling only
      where an entry is not 1;
    - s * [[1, 1], [1, -1]] with real s (the Hadamard): the butterfly
      t = a0 - a1; a0 += a1; a0 *= s; a1 = s t;
    - anything else: t = u10 a0; a0 *= u00; a0 += u01 a1; a1 *= u11;
      a1 += t.

    The last three walk the halves in `_blocks`, so each temporary has at
    most `_BLOCK` entries.  The halves need only have one shape: a
    fan-out run passes a1 with some axes reversed (`_apply_fan_out`).  A
    function of its own, so the views of the state are freed on return,
    before the next gate allocates.
    """
    u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            a0 *= u00
        if u11 != 1:
            a1 *= u11
    elif u00 == 0 and u11 == 0:
        for b0, b1 in _blocks(a0, a1):
            t = b0.copy()
            if u01 == 1:
                b0[...] = b1
            else:
                np.multiply(b1, u01, out=b0)
            if u10 == 1:
                b1[...] = t
            else:
                np.multiply(t, u10, out=b1)
    elif u00 == u01 == u10 == -u11 and u00.imag == 0:
        s = u00.real
        for b0, b1 in _blocks(a0, a1):
            t = b0 - b1
            b0 += b1
            b0 *= s
            np.multiply(t, s, out=b1)
    else:
        for b0, b1 in _blocks(a0, a1):
            t = u10 * b0
            b0 *= u00
            b0 += u01 * b1
            b1 *= u11
            b1 += t


def _apply_phase_run(psi: np.ndarray, run: list[Gate]) -> None:
    """Apply consecutive diag(1, z) gates that share one target, on a
    tensor whose axis top-q holds qubit q.

    The target-1 half is multiplied by the product of the gates' factors,
    applied early whenever the product could pass `_PHASE_CAP` entries,
    so no temporary near the size of the state is built.
    """
    top = psi.ndim - 1
    idx = [slice(None)] * (top + 1)
    idx[top - run[0].target] = _BIT[1]
    half = psi[tuple(idx)]
    phase = np.ones((1,) * (top + 1), dtype=np.complex128)
    for g in run:
        f = _phase_factor(top, g, g.u[1, 1])
        if phase.size * f.size > _PHASE_CAP:
            half *= phase
            phase = f
        else:
            phase = phase * f
    half *= phase


def _apply_diagonals(psi: np.ndarray, gates: list[Gate]) -> None:
    """Apply diagonal gates on any targets as one product of their
    factors, on a tensor whose axis top-q holds qubit q.

    A gate's factor holds u00 and u11 along its target axis where its
    controls match, and 1 elsewhere.  The gates are taken by lowest
    qubit, so that factors sharing low axes meet in one product, and the
    product scales the whole state in one in-place pass whenever the next
    factor would take it past `_BLOCK` entries.  Every factor fits under
    `_PHASE_CAP` on its own (`_release`).
    """
    top = psi.ndim - 1
    product = np.ones((1,) * (top + 1), dtype=np.complex128)
    for g in sorted(gates, key=lambda g: g.span[0]):
        f = np.concatenate([_phase_factor(top, g, z) for z in g.u.diagonal()],
                           axis=top - g.target)
        if math.prod(np.broadcast_shapes(product.shape, f.shape)) > _BLOCK:
            psi *= product
            product = f
        else:
            product = product * f
    psi *= product


def _apply_fan_out(psi: np.ndarray, run: list[Gate]) -> None:
    """Apply a fan-out run, X on every target of `run` inside the block its
    shared controls select, on a tensor whose axis top-q holds qubit q.

    Flipping every target bit pairs each amplitude whose first target
    reads 0 with the one whose targets all read the opposite, so the step
    is one swap (`_apply_2x2` with X) of the first target's halves, with
    the other targets' axes of the target-1 half reversed.
    """
    top = psi.ndim - 1
    a0, a1 = _halves(psi, top, run[0])
    _apply_2x2(a0, np.flip(a1, [top - g.target for g in run[1:]]), X_MATRIX)


def _permute(psi: np.ndarray, sigma: tuple[int, ...]) -> np.ndarray:
    """A new contiguous tensor holding the state with qubit q routed to
    position sigma[q], on a tensor whose axis top-q holds qubit q.

    The top qubits that sigma fixes are a batch axis, and the others are
    its moved span of s qubits, l = s // 2 low and h = s - l high.  When
    the span holds more than `_BLOCK` entries and sigma sends the low l
    qubits onto the top l positions of the span, as every bit reversal
    does, the state is moved in bands (`_band_transpose`).  Any other
    permutation, a rotation or a small span, is one axis transpose.
    """
    span = len(sigma)
    while span and sigma[span - 1] == span - 1:
        span -= 1
    low = span // 2
    if 1 << span > _BLOCK and all(s >= span - low for s in sigma[:low]):
        return _band_transpose(psi, sigma, span)
    top = psi.ndim - 1
    axes = [0] * psi.ndim
    for q, s in enumerate(sigma):
        axes[top - s] = top - q
    return np.ascontiguousarray(psi.transpose(axes))


def _band_transpose(psi: np.ndarray, sigma: tuple[int, ...],
                    span: int) -> np.ndarray:
    """Move the state by sigma, which sends the low l = span // 2 qubits of
    its moved span onto the span's top l positions and the high h ones
    onto its low h positions.

    On the (batch, 2^h, 2^l) view of the input, the entry at (b, rows[s],
    c) goes to (b, dest[c], s) of the (batch, 2^l, 2^h) output; both maps
    are read from sigma bit by bit.  The output is filled `_BAND` columns
    at a time: gather the band's source rows by `rows` into a buffer, then
    write the buffer's transpose into the output rows `dest`, so the band
    and the output segments it writes stay in cache.
    """
    low = span // 2
    high = span - low
    s = np.arange(1 << high)
    rows = np.zeros(1 << high, dtype=np.intp)
    for q in range(low, span):
        rows |= ((s >> sigma[q]) & 1) << (q - low)
    c = np.arange(1 << low)
    dest = np.zeros(1 << low, dtype=np.intp)
    for q in range(low):
        dest |= ((c >> q) & 1) << (sigma[q] - high)
    src = psi.reshape(-1, 1 << high, 1 << low)
    out = np.empty((len(src), 1 << low, 1 << high), dtype=psi.dtype)
    band = min(_BAND, 1 << high)
    gathered = np.empty((band, 1 << low), dtype=psi.dtype)
    for b in range(len(src)):
        for r in range(0, 1 << high, band):
            # mode="clip" never clips, as every index is in range, but
            # unlike the default it writes to `out` without a buffer
            np.take(src[b], rows[r:r + band], axis=0, out=gathered,
                    mode="clip")
            out[b][dest, r:r + band] = gathered.T
    return out.reshape(psi.shape)


def _lowered(g: Gate, lo: int) -> Gate:
    """The 2x2 gate g with every qubit moved down by lo."""
    if isinstance(g, CNot):
        return CNot(g.control - lo, g.target - lo)
    controls = tuple((q - lo, p) for q, p in g.controls)
    if controls:
        return MultiControlled(g.u, controls, g.target - lo)
    return Local(g.u, g.target - lo)


def _apply_window(psi: np.ndarray, run: list[Gate]) -> None:
    """Apply a stage of gates as one 2^k x 2^k matrix U on the span
    lo..hi-1 of their qubits, k = hi - lo.

    U^T comes from this kernel, not from `to_matrix`: run on the rows of
    the identity (`_run_rows`), the gates, moved down by lo, leave U e_r
    in row r.  The state is viewed as (2^(w-hi), 2^k, 2^lo), transposed
    to (1, 2^k, 2^(w-k)) when lo = 0, and U multiplies its middle axis one
    block of at most `_BLOCK` entries at a time, each product going
    through a buffer and back in place.  A block is a slice of the last
    axis when one outer slice holds more than `_BLOCK` entries.
    Otherwise it is several outer slices, first gathered into one
    contiguous 2^k-row matrix, so that no matmul call is small: at width
    21, one call per outer slice, on 2^lo columns, ran 1.3-1.8x slower
    at lo = 1 and 3.
    """
    lo = min(g.span[0] for g in run)
    hi = max(g.span[1] for g in run) + 1
    dim = 1 << (hi - lo)
    u = _run_rows(Circuit(hi - lo, tuple(_lowered(g, lo) for g in run)),
                  np.eye(dim)).T
    if lo == 0:
        view = psi.reshape(1, -1, dim).transpose(0, 2, 1)
    else:
        view = psi.reshape(-1, dim, 1 << lo)
    outer, _, inner = view.shape
    cols = min(inner, _BLOCK // dim)
    slices = min(outer, _BLOCK // (dim * cols))
    if slices > 1:
        gathered = np.empty((dim, slices, cols), dtype=np.complex128)
    buf = np.empty((dim, slices * cols), dtype=np.complex128)
    for a in range(0, outer, slices):
        for b in range(0, inner, cols):
            block = view[a:a + slices, :, b:b + cols].transpose(1, 0, 2)
            if slices > 1:
                gathered[...] = block
                block_in = gathered
            else:
                block_in = block
            np.matmul(u, block_in.reshape(dim, -1), out=buf)
            block[...] = buf.reshape(block.shape)


def _stage(gates: list[Gate], fuse: bool
           ) -> Iterator[tuple[Callable | None, Gate | list[Gate]]]:
    """One window stage: a single matrix (`_apply_window`) when fusing and
    it holds two or more uncontrolled mixing gates, otherwise its gates in
    order, each run of two or more consecutive diag(1, z) gates on one
    target with at most log2(`_PHASE_CAP`) controls as one phase run
    (`_apply_phase_run`) and every other gate on its own."""
    if fuse and sum(not g.controls and not g.diagonal for g in gates) >= 2:
        yield _apply_window, gates
        return

    def key(g: Gate) -> int | None:
        if g.phase and 1 << len(g.controls) <= _PHASE_CAP:
            return g.target
        return None

    for k, group in groupby(gates, key):
        run = list(group)
        if k is None or len(run) == 1:
            for g in run:
                yield None, g
        else:
            yield _apply_phase_run, run


def _release(gates: list[Gate]
             ) -> Iterator[tuple[Callable | None, Gate | list[Gate]]]:
    """Deferred diagonal gates: three or more whose factors fit under
    `_PHASE_CAP` as one product (`_apply_diagonals`); one or two, and any
    larger one, on their own, where each touches only its control-selected
    block.  A larger factor would fill most of the product's `_BLOCK`
    entries alone, and cost a pass over the state rather than save one."""
    small = [g for g in gates if 2 << len(g.controls) <= _PHASE_CAP]
    if len(small) > 2:
        yield _apply_diagonals, small
        gates = [g for g in gates if 2 << len(g.controls) > _PHASE_CAP]
    for g in gates:
        yield None, g


def _fan_outs(gates: tuple[Gate, ...],
              width: int) -> Iterator[Gate | list[Gate]]:
    """The gates in order, each fan-out run whose qubits span two or more
    windows as one list.

    A fan-out run is two or more consecutive gates whose u is exactly X,
    with one set of controls and distinct targets; no target can be a
    control, since every gate keeps its target out of its own controls.
    A run inside one window is given back gate by gate, so that it joins
    that window's stage.
    """
    def flush() -> Iterator[Gate | list[Gate]]:
        qubits = [*targets, *(q for q, _ in controls)]
        if len(run) > 1 and ((width - 1 - min(qubits)) // _WINDOW
                             != (width - 1 - max(qubits)) // _WINDOW):
            yield run
        else:
            yield from run

    run: list[Gate] = []
    targets: set[int] = set()
    controls: set[tuple[int, bool]] = set()
    for g in gates:
        flip = not isinstance(g, QubitPerm) and g.flip
        if flip and run and g.target not in targets \
                and set(g.controls) == controls:
            run.append(g)
            targets.add(g.target)
            continue
        if run:
            yield from flush()
        if flip:
            run, targets, controls = [g], {g.target}, set(g.controls)
        else:
            run = []
            yield g
    if run:
        yield from flush()


def _segments(gates: tuple[Gate, ...], width: int, fuse: bool
              ) -> Iterator[tuple[Callable | None, Gate | list[Gate]]]:
    """The gates in order, scheduled in one pass by the rule of the module
    docstring.

    Yields (kernel, gates) for a fused stage (`_apply_window`), a phase
    run (`_apply_phase_run`), a release of deferred diagonal gates
    (`_apply_diagonals`) or a fan-out run (`_apply_fan_out`), and
    (None, gate) for a gate that runs on its own.  The kernels are read
    from the module when a group is found, so a test may replace them.
    Without fusion there is one window, the whole register, so no gate is
    deferred or grouped into a fan-out run, and every gate joins one
    stage that runs gate by gate.
    """
    stage: list[Gate] = []
    window = None           # the stage's window, numbered from the top
    pending: list[Gate] = []
    touched: set[int] = set()   # every qubit of a pending gate
    for g in _fan_outs(gates, width) if fuse else gates:
        if isinstance(g, list):
            # a fan-out run ends the stage and runs on its own, after the
            # pending gates when one touches a target
            yield from _stage(stage, fuse)
            stage, window = [], None
            if touched.intersection(h.target for h in g):
                yield from _release(pending)
                pending, touched = [], set()
            yield _apply_fan_out, g
            continue
        perm = isinstance(g, QubitPerm)
        if perm or (not g.diagonal and g.target in touched):
            # g must not pass a pending gate
            yield from _stage(stage, fuse)
            yield from _release(pending)
            stage, window, pending, touched = [], None, [], set()
            if perm:
                yield None, g
                continue
        if not fuse:
            stage.append(g)
            continue
        lo, hi = g.span
        here = (width - 1 - lo) // _WINDOW
        inside = here == (width - 1 - hi) // _WINDOW
        if inside and window in (None, here):
            stage.append(g)
            window = here
        elif g.diagonal:
            pending.append(g)
            touched.update(_gate_qubits(g))
        else:
            yield from _stage(stage, fuse)
            stage, window = ([g], here) if inside else ([], None)
            if not inside:
                yield None, g
    yield from _stage(stage, fuse)
    yield from _release(pending)


def _move_runs(steps: Iterator[tuple[Callable | None, Gate | list[Gate]]]
               ) -> Iterator[tuple[Callable | None, object]]:
    """The steps of `_segments` in order, each move run as one step
    (`_apply_moves`, its steps).

    A move run is two or more consecutive steps that only move entries,
    among them a qubit permutation.  The steps that only move entries are
    a lone gate whose u is exactly X, a fan-out run and a qubit
    permutation.  A run without a permutation is given back step by step,
    so it stays in place.
    """
    def flush() -> Iterator[tuple[Callable | None, object]]:
        if len(run) > 1 and any(isinstance(g, QubitPerm) for _, g in run):
            yield _apply_moves, run
        else:
            yield from run

    run: list[tuple[Callable | None, Gate | list[Gate]]] = []
    for step in steps:
        apply, g = step
        if apply is _apply_fan_out or (
                apply is None and (isinstance(g, QubitPerm) or g.flip)):
            run.append(step)
            continue
        if run:
            yield from flush()
            run = []
        yield step
    if run:
        yield from flush()


def _apply_moves(psi: np.ndarray,
                 steps: list[tuple[Callable | None, Gate | list[Gate]]]
                 ) -> np.ndarray:
    """A new contiguous tensor holding the state moved by a move run.

    The steps run on an index tensor, `np.arange(2^w)` in int32 (int64
    past 2^31 entries), a quarter of the state's bytes, through the same
    kernels as on the state; entry i then holds the index the run brings
    to position i, so one gather moves the state.  The gather takes
    `_BLOCK` indices at a time, so `np.take`'s cast of them to intp stays
    block-sized.
    """
    dtype = np.int32 if psi.size <= 1 << 31 else np.int64
    idx = np.arange(psi.size, dtype=dtype).reshape(psi.shape)
    for apply, g in steps:
        idx = _step(idx, apply, g)
    src, order = psi.reshape(-1), idx.reshape(-1)
    out = np.empty_like(src)
    for i in range(0, src.size, _BLOCK):
        # mode="clip" never clips, as every index is in range, but unlike
        # the default it writes to `out` without a buffer
        np.take(src, order[i:i + _BLOCK], out=out[i:i + _BLOCK],
                mode="clip")
    return out.reshape(psi.shape)


def apply_to_state(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a state vector of length 2**width, or on each
    row of a (k, 2**width) batch of states, k >= 1.

    Returns a new array of the same shape and never writes to `state`.
    A single state runs as a batch of one row.  A batch runs as one state
    on width + m qubits, m = ceil(log2 k), with row r on the idle high
    qubits that `embed` adds (`_run_rows`); rows are zero-padded to 2^m
    only when k is not a power of two.  Run on the identity, row r of the
    result is U e_r, so the result is U^T.

    The copy is viewed as a (2,)*width tensor whose axis width-1-q holds
    qubit q, and is updated in place, its gates scheduled as the module
    docstring states:

    - on `_FUSE_MIN_WIDTH` or more qubits, a fused stage, on the span
      [lo, hi) of its gates' qubits, k = hi - lo <= `_WINDOW`, is one
      2^k x 2^k matrix U.  This kernel builds U^T on 2k qubits, below the
      threshold, and U multiplies the middle axis of the state viewed as
      (2^(w-hi), 2^k, 2^lo), a block at a time through a buffer of at
      most `_BLOCK` entries (`_apply_window`);
    - deferred diagonal gates scale the whole state by the product of
      their factors, each u00 and u11 on its target axis where its
      controls match, taken by lowest qubit and applied early whenever
      the product could pass `_BLOCK` entries (`_apply_diagonals`);
    - a phase run (two or more consecutive diag(1, z) gates on one
      target, in a stage that runs gate by gate) scales the target-1
      half by the product of each gate's small factor over its control
      axes, in one broadcast multiply, applied early whenever the
      product could pass `_PHASE_CAP` entries (`_apply_phase_run`);
    - every other gate runs on its own, among them one or two deferred
      gates and a deferred gate whose factor alone would pass
      `_PHASE_CAP` entries.
      A diagonal gate scales the halves of its control-selected block
      whose entry is not 1.  Any other 2x2 gate mixes the two target-axis
      halves of its block in paired pieces of at most `_BLOCK` entries:
      an anti-diagonal u swaps them, a real multiple of [[1, 1],
      [1, -1]] (the Hadamard) is a butterfly, and any other u a product
      formula (`_apply_2x2`);
    - a fan-out run flips every target inside its control-selected block
      as one swap, of the first target's halves with the other targets'
      axes of one half reversed (`_apply_fan_out`);
    - a qubit permutation moves the state into a new array.  A bit
      reversal (the low half of its moved span sent onto the top half) of
      a span above `_BLOCK` entries, the top fixed qubits a batch axis,
      is moved `_BAND` rows at a time, each band gathered and written
      transposed (`_band_transpose`); any other permutation is one axis
      transpose (`_permute`);
    - on `_FUSE_MIN_WIDTH` or more qubits and at least `_MOVES_MIN_SIZE`
      entries, a move run runs its steps, the kernels above, on an index
      tensor holding `np.arange(2^w)` in int32, a quarter of the state's
      bytes, and then gathers the state into a new array by it, `_BLOCK`
      entries at a time (`_apply_moves`).  A run without a permutation
      stays in place, step by step, so that it needs no second state.

    Diagonal products need no blocking: each is one in-place multiply and
    builds no state-sized temporary, whereas the swap, the butterfly, the
    product formula and the window matrix each keep a temporary of the
    piece they update.  Fan-out runs, permutations and move runs only
    move entries, so their results are exact.  Below the threshold every
    gate runs on its own or in a phase run, in order, so results there do
    not depend on windows, deferral, fan-out runs or move runs.

    `to_matrix` applies every gate on its own, with no fusion and no
    deferral, and is the oracle for this.
    """
    states = np.asarray(state)
    dim = 1 << c.width
    if states.ndim not in (1, 2) or states.shape[-1] != dim \
            or states.size == 0:
        raise ValueError(f"state has shape {states.shape}, expected "
                         f"({dim},) or (k, {dim}) with k >= 1")
    return _run_rows(c, states.reshape(-1, dim)).reshape(states.shape)


def _run_rows(c: Circuit, states: np.ndarray) -> np.ndarray:
    """Apply the gates of `c` to each row of the (k, 2^width) array
    `states`, as one state on width + m qubits, m = ceil(log2 k): row r
    sits on the idle high qubits of `embed(c, width + m)`.

    Returns a new (k, 2^width) array and never writes to `states`.  The
    copy is handed to `_run` with no other reference, so a permutation
    or a move run can free it when it moves the state into a new array.
    """
    k, dim = states.shape
    m = (k - 1).bit_length()
    out = _run(embed(c, c.width + m) if m else c,
               _padded_copy(states, 1 << m))
    return out.reshape(1 << m, dim)[:k]


def _padded_copy(states: np.ndarray, rows: int) -> np.ndarray:
    """Flat complex copy of `states`, zero-padded to `rows` rows.

    Each entry is written once: only the padding rows are zeroed.
    """
    out = np.empty((rows, states.shape[1]), dtype=np.complex128)
    out[:len(states)] = states
    out[len(states):] = 0
    return out.reshape(-1)


def _run(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the gates of `c` to the contiguous flat state `psi`.

    Updates `psi` in place until a qubit permutation or a move run moves
    the state into a new array, and returns the result, flat.  `_apply_window` builds U
    through `_run_rows`, which calls this rather than `apply_to_state`, so
    that qftbench, which traces `apply_to_state` calls and counts their
    gates, sees only the circuits it was given.
    """
    psi = psi.reshape((2,) * c.width)
    fuse = c.width >= _FUSE_MIN_WIDTH
    steps = _segments(c.gates, c.width, fuse)
    if fuse and psi.size >= _MOVES_MIN_SIZE:
        steps = _move_runs(steps)
    for apply, g in steps:
        psi = _step(psi, apply, g)
    return psi.reshape(-1)


def _step(psi: np.ndarray, apply: Callable | None, g: object) -> np.ndarray:
    """Apply one step of the schedule to the tensor `psi`, and return the
    state: `psi` itself, updated in place, or a new array after a qubit
    permutation or a move run."""
    if apply is _apply_moves:
        return apply(psi, g)
    if apply is not None:
        apply(psi, g)
    elif isinstance(g, QubitPerm):
        return _permute(psi, g.sigma)
    else:
        _apply_2x2(*_halves(psi, psi.ndim - 1, g), g.u)
    return psi


def _transpositions(sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    """Temporal swap sequence realizing sigma (earliest swap first)."""
    swaps: list[tuple[int, int]] = []
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = sigma[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt]
        # cycle (c0 c1 ... ck-1) = (c0 c1)(c1 c2)...(ck-2 ck-1), rightmost first
        for a, b in zip(reversed(cycle[:-1]), reversed(cycle[1:])):
            swaps.append((a, b))
    return swaps


def controlled(c: Circuit) -> Circuit:
    """Circuit for I (+) U with a fresh control on the new top qubit."""
    ctrl = c.width
    gates: list[Gate] = []
    for g in c.gates:
        if isinstance(g, QubitPerm):
            # swap(a, b) = three alternating CNOTs, each picking up the control
            for a, b in _transpositions(g.sigma):
                for ctl, tgt in ((a, b), (b, a), (a, b)):
                    gates.append(MultiControlled(
                        X_MATRIX, ((ctrl, True), (ctl, True)), tgt))
            continue
        # the new control goes first on a CNOT, last on every other gate;
        # the serialized circuits depend on this order
        controls = (((ctrl, True),) + g.controls if isinstance(g, CNot)
                    else g.controls + ((ctrl, True),))
        gates.append(MultiControlled(g.u, controls, g.target))
    return Circuit(c.width + 1, tuple(gates))


def embed(c: Circuit, width: int) -> Circuit:
    """Reinterpret the circuit on a wider register, upper qubits idle."""
    if width < c.width:
        raise ValueError("target width smaller than circuit width")
    gates = tuple(
        QubitPerm(g.sigma + tuple(range(c.width, width)))
        if isinstance(g, QubitPerm) else g
        for g in c.gates)
    return Circuit(width, gates)


def gate_cost(g: Gate, width: int) -> float:
    """Built-in weight of one gate on a `width`-qubit circuit.

    A 2x2 gate with k controls costs 1 for k <= 1 (local gates, CNOTs),
    width**2 for k = width - 1 >= 2, and k otherwise; the jump reflects
    that a full-register control needs either an ancilla or a quadratic
    cascade.  A qubit permutation costs 3 per transposition.
    """
    if isinstance(g, QubitPerm):
        return 3.0 * len(_transpositions(g.sigma))
    k = len(g.controls)
    if k <= 1:
        return 1.0
    if k == width - 1:
        return float(width * width)
    return float(k)


def cost(c: Circuit) -> float:
    return sum(gate_cost(g, c.width) for g in c.gates)
