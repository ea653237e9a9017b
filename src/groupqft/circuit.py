"""Gate-level circuit representation.

A circuit is a list of gates on `width` qubits; qubit 0 is the least
significant bit of the basis-state index.  Gates are listed in temporal
order, so the matrix of the whole circuit multiplies them in reverse:
gates (g1, g2, ..., gm) realize G_m ... G_2 G_1.

Every gate other than a qubit permutation is a 2x2 unitary `u` on
`target`, fired by `controls`, a tuple of (qubit, polarity) pairs: a
Local gate has no controls and a CNOT is X with one positive control.
Each gate class exposes these three attributes, so the code below reads
them and never asks which class a 2x2 gate is; the kind each one records
when it is built (`diagonal`, `flip`) routes it.  Every gate, a qubit
permutation too, also stores `span`, its (lowest, highest) qubit, when it
is built, and rejects a qubit index that is not an integer there; so
`Circuit` checks a gate against its width in O(1).

Two independent evaluation routes are kept deliberately separate:
`to_matrix` multiplies each gate's action, one gate at a time, into the
running product row pair by row pair, on flat basis indices selected by
bit masks, while `apply_to_state` updates a tensor view of the state in
place, qubit q on axis -1-q.  They read the same gate data but share no
evaluation code; tests play one against the other.  `to_matrix` stays
unfused, so it remains the oracle.  Every state kernel indexes from the
last axis, so leading axes pass through it: a batch's rows, and the rows
of the identity that a fused stage's matrix is built on.  The kernel
runs the circuit's own gates and builds no circuit.  `plan(c, rows)`
schedules a circuit once for batches of at most `rows` states and
builds each window's matrix and each move run's gather order once, so
`Plan.run` repeats none of that work; `apply_to_state(c, s)` is
`plan(c, k).run(s)` for the k rows of s.

The state kernel schedules the gates by one rule (`_segments`), from the
gate data alone.  On a state of w >= `_FUSE_MIN_WIDTH` qubits the qubits
are split into count = ceil(w / `_WINDOW`) contiguous windows whose sizes
differ by at most one: qubit q is in window (w - 1 - q) * count // w,
numbered from the top.  That gives [15, 21), [10, 15), [5, 10), [0, 5)
at width 21 and [12, 18), [6, 12), [0, 6) at width 18.  On a narrower
state the whole register is one window.  A stage collects the gates that
lie inside the window of its first gate.  A diagonal gate that reaches
outside that window is deferred instead: it commutes with every diagonal
gate and with every gate whose target is not among its qubits, so it may
pass those.  A mixing gate outside the window ends the stage and starts
the next one, or runs on its own when no window holds it.  The stage and
all pending diagonal gates are applied before a permutation, before a
mixing gate with a target that a pending gate touches, and at the end.
On the wide states, a stage with two or more uncontrolled mixing gates
runs as one dense matrix on the span of its qubits, which multiplies the
state in blocks of max(`_BLOCK`, 2^w / 32) entries (`_apply_window`).
Any other stage runs gate by gate, with each run of two or more
consecutive small diagonal gates, on any targets, as one product of
broadcast factors (`_apply_diagonals`); a diagonal gate is small when
its factor holds at most `_FACTOR_CAP` entries.  Pending diagonal gates
are released by the same rule, sorted by lowest qubit.  The product
scales the state whenever it would pass `_BLOCK` entries.

On the wide states, one post-pass (`_move_runs`) then regroups the
steps that only move entries: a permutation, and a gate on its own whose
u is exactly X.  In each group of consecutive such steps, a fan-out run,
two or more consecutive X gates with one set of controls and distinct
targets, becomes one step; and a group that then holds three or more
steps, among them a permutation, is a move run, which runs on an index
array and moves the state by one gather.  The rule reads the steps
alone.  These steps only move entries, so their results are exact.  On a
narrow state nothing is deferred or regrouped, and its one stage runs
gate by gate, so its results do not depend on windows.
Every step is a (kernel, payload) pair whose kernel returns the state,
and each kernel's docstring says how it runs.

The rule defers diagonal gates forward only, which fits a cascade that
runs from the top qubit down.  So on the wide states the gates are
scheduled both ways (`_schedule`).  One way takes the gates as listed.
The other takes them in reverse order and reads the steps back, each
step's gates reversed (`_backward`): deferring a gate in the reversed
list hoists it in the listed order.  Whichever gives fewer steps after
`_move_runs` runs, the forward one on a tie.  The library's circuits
keep their forward schedules, and their inverses (`adjoint`) take the
backward one: at width 21, cyclic n = 21's adjoint runs 8 steps instead
of 47.  A narrow state has one window, so it skips the second pass.

`cost` sums the fixed per-gate weights of `gate_cost`.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

# kron is unused here but stays a module attribute: qftbench's tracer
# wraps circuit.kron by name.
from .linalg import Matrix, as_int, kron  # noqa: F401

__all__ = [
    "Circuit",
    "CNot",
    "Gate",
    "Local",
    "MultiControlled",
    "Plan",
    "QubitPerm",
    "adjoint",
    "apply_to_state",
    "controlled",
    "cost",
    "embed",
    "frozen_matrix",
    "gate_cost",
    "plan",
    "to_matrix",
]

GATE_EPS = 1e-12

def frozen_matrix(u: Matrix) -> np.ndarray:
    """Complex128 copy of `u`, read-only over an immutable bytes buffer.

    numpy refuses to make such an array writable again, so gates can
    share it: `Local` and `MultiControlled` keep it as it is.
    """
    a = np.asarray(u, dtype=np.complex128)
    frozen = np.frombuffer(a.tobytes(), dtype=np.complex128)
    frozen.shape = a.shape
    return frozen


# Frozen: every CNot's class-level u is X_MATRIX, and circuits share these
# arrays between gates, so a write through one gate would rewrite the
# others after their unitarity check and kind flags were set.
X_MATRIX = frozen_matrix([[0.0, 1.0], [1.0, 0.0]])
Z_MATRIX = frozen_matrix([[1.0, 0.0], [0.0, -1.0]])
H_MATRIX = frozen_matrix(np.array([[1.0, 1.0], [1.0, -1.0]],
                                  dtype=np.complex128) / np.sqrt(2.0))


def _check_2x2_unitary(u: Matrix) -> tuple[bool, bool]:
    """Raise ValueError unless `u` is a 2x2 unitary within GATE_EPS, and
    return its kind: (u is diagonal, u is exactly X).

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
    return b == 0 and c == 0, a == 0 and d == 0 and b == 1 and c == 1


# Frozen gates set their own attributes through object.__setattr__, one
# at a time and always in the same order: instances then share one key
# table, where an update of an empty __dict__ cost each gate about 190
# bytes more.
_set = object.__setattr__
_COMPLEX = np.dtype(np.complex128)


def _set_unitary(g: Gate, u: Matrix) -> None:
    """Check `u`, then store it read-only on the frozen gate g with its
    kind: `diagonal` and `flip`.

    A complex128 array over a bytes buffer, as `frozen_matrix` makes them
    for the library, the parser and `adjoint`, is kept; any other `u` is
    copied into one, so no later write can change a checked gate.  The
    kind and `span` are attributes, not fields, so equality, hashing and
    the text format see only the fields.  Local and MultiControlled write
    their own __init__: the generated one would set each field once
    before __post_init__ set it again, about 0.5 us a gate.
    """
    if not (type(u) is np.ndarray and u.dtype is _COMPLEX
            and type(u.base) is bytes):
        try:
            u = frozen_matrix(u)
        except (TypeError, ValueError):
            raise ValueError(f"gate matrix {u!r} is not numeric") from None
    diagonal, flip = _check_2x2_unitary(u)
    _set(g, "u", u)
    _set(g, "diagonal", diagonal)
    _set(g, "flip", flip)


@dataclass(frozen=True, eq=False, init=False)
class Local:
    """Single-qubit gate u on `target`."""

    u: Matrix
    target: int

    # a class attribute, not a field
    controls = ()

    def __init__(self, u: Matrix, target: int) -> None:
        target = as_int(target, "qubit index")
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
    diagonal = False
    flip = True

    @property
    def controls(self) -> tuple[tuple[int, bool], ...]:
        return ((self.control, True),)

    def __post_init__(self) -> None:
        control = as_int(self.control, "qubit index")
        target = as_int(self.target, "qubit index")
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
        # cost each gate about 0.4 us more, and a len() check per entry
        # about 0.02 us a control more than the inner try
        pairs, qubits = [], []
        try:
            for pair in controls:
                try:
                    q, p = pair
                except ValueError:
                    # an entry of another length; as_int's ValueError for
                    # a bad qubit below passes through
                    raise TypeError from None
                q = as_int(q, "qubit index")
                # a Python or numpy bool, or an integer 0 or 1
                if not (p is True or p is False or isinstance(p, np.bool_)
                        or operator.index(p) in (0, 1)):
                    raise TypeError
                pairs.append((q, bool(p)))
                qubits.append(q)
        except TypeError:
            raise ValueError(f"controls {controls!r} are not (qubit, "
                             "polarity) pairs") from None
        target = as_int(target, "qubit index")
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
        try:
            sigma = tuple([as_int(q, "qubit index") for q in self.sigma])
        except TypeError:
            raise ValueError("sigma must be a sequence of qubit indices, "
                             f"got {self.sigma!r}") from None
        if not sigma:
            raise ValueError("a qubit permutation needs at least one qubit")
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
        width = as_int(self.width, "circuit width")
        object.__setattr__(self, "width", width)
        if width < 1:
            raise ValueError("circuit needs at least one qubit")
        # O(1) per gate from the span its constructor stored; only a gate
        # that fails is walked, to name the same qubit as a full scan
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
            for g in self.gates:
                lo, hi = g.span
                if isinstance(g, QubitPerm) and len(g.sigma) != width:
                    raise ValueError("permutation length differs from width")
                if lo < 0 or hi >= width:
                    q = next(q for q in _gate_qubits(g) if not 0 <= q < width)
                    raise ValueError(f"qubit {q} outside width {width}")
        except (TypeError, AttributeError):
            raise ValueError(
                f"not a sequence of gates: {self.gates!r}") from None

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

# Entries a diagonal gate's factor, 2^(k+1) for k controls, may hold to
# join a product of factors (`_apply_diagonals`) in a stage run or a
# release.  A larger factor would fill most of the product's `_BLOCK` alone.
_FACTOR_CAP = 1 << 10

# Entries in each of the paired sub-views a mixing gate updates at a time
# and in a product of diagonal factors: two blocks and their temporaries,
# at most 1 MiB, stay in cache.  A window stage's matmul buffer holds
# max(_BLOCK, 1/32 of the state) entries (`_apply_window`).
_BLOCK = 1 << 14

# On a state of at least _FUSE_MIN_WIDTH qubits, the w qubits are split
# into ceil(w / _WINDOW) windows whose sizes differ by at most one, and a
# stage of gates inside one window may run as one dense matrix on the span
# of its qubits.  Both values are measured (CHANGES.md): whole width-21
# circuits ran as fast with a window of 6 qubits as with 7, and fusing
# broke even at width 13 and gained from 14 up.  A stage's matrix is built
# gate by gate, so it never fuses again, whatever the two values.
_WINDOW = 6
_FUSE_MIN_WIDTH = 14

# Rows of the (2^h, 2^l) view of a permutation's moved span that the banded
# route gathers at a time.  Measured (CHANGES.md): on width-21 bit
# reversals, bands of 64 rows of 2^10 entries beat 16, 32, 128 and 256.
_BAND = 64


def _halves(psi: np.ndarray, g: Gate) -> tuple[np.ndarray, np.ndarray]:
    """Views of the target-0 and target-1 halves of the control-matched
    block of `g`, on a tensor whose axis -1-q holds qubit q.

    The index covers the axes of qubits 0..hi, hi the highest qubit of
    `g`, after an Ellipsis, so any leading axes pass through.  Slices, not
    integer indices: when the controls and the target fix every axis,
    integer indexing returns a 0-d copy and the write is lost.
    """
    idx = [Ellipsis] + [slice(None)] * (g.span[1] + 1)
    for q, p in g.controls:
        idx[-1 - q] = _BIT[p]
    idx[-1 - g.target] = _BIT[0]
    a0 = psi[tuple(idx)]
    idx[-1 - g.target] = _BIT[1]
    return a0, psi[tuple(idx)]


def _diagonal_factor(g: Gate) -> np.ndarray:
    """The diagonal of diagonal gate `g` on the axes of qubits 0..hi, hi
    its highest qubit: u00 and u11 along the target axis where the
    controls match, 1 elsewhere; length 2 on the target's and controls'
    axes, so it broadcasts over a tensor whose axis -1-q holds qubit q."""
    shape = [1] * (g.span[1] + 1)
    corner = [0] * (g.span[1] + 1)
    for q, p in g.controls:
        shape[-1 - q] = 2
        corner[-1 - q] = int(p)
    shape[-1 - g.target] = 2
    # empty and fill, not np.ones: 0.4 us less a gate on small shapes
    f = np.empty(shape, dtype=np.complex128)
    f.fill(1)
    f[tuple(corner)] = g.u[0, 0]
    corner[-1 - g.target] = 1
    f[tuple(corner)] = g.u[1, 1]
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


def _apply_2x2(a0: np.ndarray, a1: np.ndarray, g: Gate) -> None:
    """(a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1) in place, u = g.u.

    The gate's kind, set when it was built, picks the route:

    - `diagonal`: scale the halves whose entry is not 1, each in one
      in-place pass over the whole half, which needs no temporary;
    - `flip` (u is exactly X, so every CNOT): swap the halves;
    - s * [[1, 1], [1, -1]] with real s (the Hadamard), read from u: the
      butterfly t = a0 - a1; a0 += a1; a0 *= s; a1 = s t;
    - anything else: t = u10 a0; a0 *= u00; a0 += u01 a1; a1 *= u11;
      a1 += t.

    The last three walk the halves in `_blocks`, so each temporary has at
    most `_BLOCK` entries.  The halves need only have one shape: a
    fan-out run passes a1 with some axes reversed (`_apply_fan_out`).  A
    function of its own, so the views of the state are freed on return,
    before the next gate allocates.
    """
    u = g.u
    u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    if g.diagonal:
        if u00 != 1:
            a0 *= u00
        if u11 != 1:
            a1 *= u11
    elif g.flip:
        for b0, b1 in _blocks(a0, a1):
            t = b0.copy()
            b0[...] = b1
            b1[...] = t
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


def _apply_gate(psi: np.ndarray, g: Gate) -> np.ndarray:
    """Apply the 2x2 gate g on its own (`_apply_2x2` on its `_halves`) to
    a tensor whose axis -1-q holds qubit q, in place; return `psi`."""
    _apply_2x2(*_halves(psi, g), g)
    return psi


def _apply_diagonals(psi: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """Apply diagonal gates on any targets, in the order given, as one
    product of their factors (`_diagonal_factor`), on a tensor whose axis
    -1-q holds qubit q, and return `psi`.  The product scales the whole
    state in place whenever the next factor would take it past `_BLOCK`
    entries; the broadcast shape is read only when the two sizes' product
    passes `_BLOCK`, which spares short runs a numpy call per gate."""
    product = np.ones((), dtype=np.complex128)
    for g in gates:
        f = _diagonal_factor(g)
        if product.size * f.size > _BLOCK and math.prod(
                np.broadcast_shapes(product.shape, f.shape)) > _BLOCK:
            psi *= product
            product = f
        else:
            product = product * f
    psi *= product
    return psi


def _apply_fan_out(psi: np.ndarray, run: list[Gate]) -> np.ndarray:
    """Apply a fan-out run, X on every target of `run` inside the block its
    shared controls select, on a tensor whose axis -1-q holds qubit q, in
    place, and return `psi`.

    Flipping every target bit pairs each amplitude whose first target
    reads 0 with the one whose targets all read the opposite, so the step
    is one swap (`_apply_2x2` with X) of the first target's halves, with
    the other targets' axes of the target-1 half reversed.
    """
    a0, a1 = _halves(psi, run[0])
    _apply_2x2(a0, np.flip(a1, [-1 - g.target for g in run[1:]]), run[0])
    return psi


def _permute(psi: np.ndarray, g: QubitPerm) -> np.ndarray:
    """A new contiguous tensor holding the state with qubit q routed to
    position sigma[q] of g, on a tensor whose axis -1-q holds qubit q.

    The leading axes past sigma's qubits and the top qubits that sigma
    fixes are a batch axis, and the others are its moved span of s
    qubits, l = s // 2 low and h = s - l high.  When the span holds more
    than `_BLOCK` entries and sigma sends the low l qubits onto the top l
    positions of the span, as every bit reversal does, the state is moved
    in bands (`_band_transpose`).  Any other permutation, a rotation or a
    small span, is one axis transpose.
    """
    sigma = g.sigma
    span = len(sigma)
    while span and sigma[span - 1] == span - 1:
        span -= 1
    low = span // 2
    if 1 << span > _BLOCK and all(s >= span - low for s in sigma[:low]):
        return _band_transpose(psi, sigma, span)
    axes = list(range(psi.ndim))
    for q, s in enumerate(sigma):
        axes[-1 - s] = psi.ndim - 1 - q
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


def _window_matrix(run: list[Gate]) -> tuple[int, np.ndarray]:
    """(lo, U^T) for a stage of gates whose qubits span lo..hi-1: U is the
    stage's 2^k x 2^k matrix on that span, k = hi - lo.

    U^T comes from the kernels, not from `to_matrix`: the stage's own
    gates, run gate by gate (`_stage`) on the identity viewed as (2^k,) +
    (2,)*k + (1,)*lo, whose axis -1-q holds qubit q, leave U e_r in row r.
    """
    lo = min(g.span[0] for g in run)
    hi = max(g.span[1] for g in run) + 1
    dim = 1 << (hi - lo)
    tensor = np.eye(dim, dtype=np.complex128).reshape(
        (dim,) + (2,) * (hi - lo) + (1,) * lo)
    for apply, g in _stage(run, False):
        tensor = apply(tensor, g)
    return lo, tensor.reshape(dim, dim).T


def _apply_window(psi: np.ndarray,
                  window: tuple[int, np.ndarray]) -> np.ndarray:
    """Apply a stage's matrix U on the span lo..hi-1 of its qubits, given
    as (lo, U^T) (`_window_matrix`), in place, and return `psi`.

    The state is viewed as (2^(w-hi), 2^k, 2^lo), transposed to (1, 2^k,
    2^(w-k)) when lo = 0, and U multiplies its middle axis one block of
    at most max(`_BLOCK`, 2^w / 32) entries at a time, each product
    going through a buffer and back in place: 2^16 entries at width 21,
    where the larger block took cyclic n = 21 from 100 to 93 ms and qd
    n = 20 from 129 to 128 ms (CHANGES.md), and `_BLOCK` at width 19 and
    below.  A block is a slice of the last axis when one outer slice
    holds more than a block.  Otherwise it is several outer slices, first
    gathered into one contiguous 2^k-row matrix, so that no matmul call
    is small: at width 21, one call per outer slice, on 2^lo columns, ran
    1.3-1.8x slower at lo = 1 and 3.
    """
    lo, u = window
    dim = len(u)
    if lo == 0:
        view = psi.reshape(1, -1, dim).transpose(0, 2, 1)
    else:
        view = psi.reshape(-1, dim, 1 << lo)
    outer, _, inner = view.shape
    block = max(_BLOCK, psi.size >> 5)
    cols = min(inner, block // dim)
    slices = min(outer, block // (dim * cols))
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
    return psi


# A step of the schedule: a kernel and what it applies.  Every kernel
# takes the state tensor first and returns the state: the same tensor,
# updated in place, or a new array after a permutation or a move run.  A
# window's or a move run's payload is its gates or steps in the schedule,
# and its matrix or gather order in a `Plan`.
_Step = tuple[Callable[..., np.ndarray], object]


def _stage(gates: list[Gate], fuse: bool) -> Iterator[_Step]:
    """One window stage, or a release of deferred diagonal gates: a single
    matrix (`_apply_window`) when fusing and it holds two or more
    uncontrolled mixing gates, otherwise its gates in order, each run of
    two or more consecutive small diagonal gates (`_small`), on any
    targets, as one product (`_apply_diagonals`) and every other gate on
    its own (`_apply_gate`)."""
    if fuse and sum(not g.controls and not g.diagonal for g in gates) >= 2:
        yield _apply_window, gates
        return
    for small, group in groupby(gates, _small):
        run = list(group)
        if small and len(run) > 1:
            yield _apply_diagonals, run
        else:
            for g in run:
                yield _apply_gate, g


def _small(g: Gate) -> bool:
    """Whether `g` is diagonal and its factor fits `_FACTOR_CAP`."""
    return g.diagonal and 2 << len(g.controls) <= _FACTOR_CAP


def _segments(gates: tuple[Gate, ...], width: int) -> Iterator[_Step]:
    """The gates in order, scheduled in one pass by the rule of the module
    docstring.

    Yields (kernel, gates) for a fused stage (`_apply_window`) and for a
    run of small diagonal gates (`_apply_diagonals`), (`_permute`, gate)
    for a qubit permutation and (`_apply_gate`, gate) for any other gate
    that runs on its own.  Pending diagonal gates are released by the
    stage rule (`_stage`), sorted by lowest qubit so that factors sharing
    low axes meet in a product; they hold no mixing gate, so they never
    fuse.  Below `_FUSE_MIN_WIDTH` there is one window, the whole
    register, so no gate is deferred, and every gate joins one stage that
    runs gate by gate.
    """
    fuse = width >= _FUSE_MIN_WIDTH
    count = -(-width // _WINDOW) if fuse else 1
    stage: list[Gate] = []
    window = None           # the stage's window, numbered from the top
    pending: list[Gate] = []
    touched: set[int] = set()   # every qubit of a pending gate
    for g in gates:
        perm = isinstance(g, QubitPerm)
        if perm or (not g.diagonal and g.target in touched):
            # g must not pass a pending gate
            yield from _stage(stage, fuse)
            yield from _stage(sorted(pending, key=lambda g: g.span[0]), fuse)
            stage, window, pending, touched = [], None, [], set()
            if perm:
                yield _permute, g
                continue
        lo, hi = g.span
        here = (width - 1 - lo) * count // width
        inside = here == (width - 1 - hi) * count // width
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
                yield _apply_gate, g
    yield from _stage(stage, fuse)
    yield from _stage(sorted(pending, key=lambda g: g.span[0]), fuse)


def _moves(step: _Step) -> bool:
    """Whether a step of `_segments` only moves entries: a qubit
    permutation, or a gate on its own whose u is exactly X."""
    apply, g = step
    return apply is _permute or (apply is _apply_gate and g.flip)


def _move_runs(steps: Iterator[_Step]) -> Iterator[_Step]:
    """The steps of `_segments` in order, each group of consecutive steps
    that only move entries (`_moves`) regrouped.

    Inside a group, a fan-out run, two or more consecutive X gates with
    one set of controls and distinct targets, becomes one step
    (`_apply_fan_out`, its gates); no target can be a control, since every
    gate keeps its target out of its own controls.  A group that then
    holds three or more steps, among them a permutation, is one move run
    (`_apply_moves`, its steps): the steps run on an index array a quarter
    of the state's bytes, and one gather replaces their passes over the
    state.  Any other group is given back step by step, so it stays in
    place: without a permutation it has no new array to fill, and two
    steps, as qp's twiddle X and reorder swap, gained nothing as a gather
    at widths 14-20 (CHANGES.md).
    """
    for moves, group in groupby(steps, _moves):
        if not moves:
            yield from group
            continue
        run: list[_Step] = []
        for apply, g in group:
            if apply is _apply_gate and run and run[-1][0] is not _permute:
                # an X gate joins the lone X gate or fan-out run before it
                last = run[-1][1]
                xs = last if isinstance(last, list) else [last]
                if set(g.controls) == set(xs[0].controls) \
                        and all(h.target != g.target for h in xs):
                    run[-1] = (_apply_fan_out, [*xs, g])
                    continue
            run.append((apply, g))
        if len(run) > 2 and any(a is _permute for a, _ in run):
            yield _apply_moves, run
        else:
            yield from run


def _move_order(steps: list[_Step], width: int) -> np.ndarray:
    """The gather order of a move run on a `width`-qubit tensor: its steps
    run on an index tensor, `np.arange(2^w)` in int32 (int64 past 2^31
    entries), a quarter of the state's bytes, through the same kernels as
    on the state; entry i then holds the index the run brings to position
    i, read flat."""
    dtype = np.int32 if width <= 31 else np.int64
    idx = np.arange(1 << width, dtype=dtype).reshape((2,) * width)
    for apply, g in steps:
        idx = apply(idx, g)
    return idx.reshape(-1)


def _apply_moves(psi: np.ndarray, order: np.ndarray) -> np.ndarray:
    """A new contiguous tensor holding the state moved by a move run, one
    gather by its order (`_move_order`).  The gather takes `_BLOCK`
    indices at a time, so `np.take`'s cast of them to intp stays
    block-sized.
    """
    src = psi.reshape(-1)
    out = np.empty_like(src)
    for i in range(0, src.size, _BLOCK):
        # mode="clip" never clips, as every index is in range, but unlike
        # the default it writes to `out` without a buffer
        np.take(src, order[i:i + _BLOCK], out=out[i:i + _BLOCK],
                mode="clip")
    return out.reshape(psi.shape)


def _schedule(gates: tuple[Gate, ...], width: int) -> Iterable[_Step]:
    """The steps that a `plan` runs on a `width`-qubit tensor.

    Below `_FUSE_MIN_WIDTH` they are the `_segments` of the gates.  On the
    fused widths both directions are scheduled and regrouped by
    `_move_runs`: the gates as listed, and the gates in reverse order read
    back (`_backward`).  Whichever gives fewer steps runs, the forward one
    on a tie.
    """
    if width < _FUSE_MIN_WIDTH:
        return _segments(gates, width)
    forward = list(_move_runs(_segments(gates, width)))
    backward = list(_move_runs(_backward(gates, width)))
    return backward if len(backward) < len(forward) else forward


def _backward(gates: tuple[Gate, ...], width: int) -> Iterator[_Step]:
    """The `_segments` of the gates in reverse order, read from the last
    step to the first, with each list payload reversed in place.

    This is a valid schedule of the gates as listed.  Deferring a diagonal
    gate in the reversed list hoists it in the listed order, and
    commutation is symmetric, so it passes the same gates either way.
    Every kernel runs its payload in list order, so the reversed lists
    run each step's gates in the listed order.
    """
    steps = list(_segments(gates[::-1], width))
    for apply, g in reversed(steps):
        if isinstance(g, list):
            g.reverse()
        yield apply, g


# eq=False: the steps hold arrays, so a plan compares by identity
@dataclass(frozen=True, eq=False)
class Plan:
    """The steps that run a circuit of `width` qubits on a batch of at
    most `rows` states (`plan`), each window matrix and move-run gather
    order built once.  `run` may be called any number of times."""

    width: int
    rows: int
    steps: tuple[_Step, ...]

    def run(self, state: np.ndarray) -> np.ndarray:
        """Run the plan on a state vector of length 2**width, or on each
        row of a (k, 2**width) batch, 1 <= k <= rows; return a new array
        of the same shape, and never write to `state`.

        The batch, zero-padded to 2^m rows, m = ceil(log2 rows), is copied
        and viewed as a (2,)*(width + m) tensor whose axis -1-q holds
        qubit q: the m leading axes index the rows, and every kernel
        passes them through.  A state of another shape or more rows, or
        whose dtype is not bool, integer, float or complex, is a
        ValueError.
        """
        states = np.asarray(state)
        k = _batch_rows(states, self.width)
        if k > self.rows:
            raise ValueError(f"state has {k} rows, expected at most "
                             f"{self.rows}")
        m = (self.rows - 1).bit_length()
        dim = 1 << self.width
        # each entry of the copy is written once: only the padding rows are
        # zeroed.  psi is the copy's only reference, so a permutation or a
        # move run frees it when it moves the state into a new array
        psi = np.empty((1 << m, dim), dtype=np.complex128)
        psi[:k] = states.reshape(k, dim)
        psi[k:] = 0
        psi = psi.reshape((2,) * (self.width + m))
        for apply, payload in self.steps:
            psi = apply(psi, payload)
        return psi.reshape(1 << m, dim)[:k].reshape(states.shape)


def plan(c: Circuit, rows: int = 1) -> Plan:
    """Schedule the circuit once for batches of at most `rows` states, a
    positive integer.

    The batch is one state on width + m qubits, m = ceil(log2 rows), and
    its gates are scheduled as the module docstring states (`_schedule`).
    On width + m >= `_FUSE_MIN_WIDTH` qubits, that means
    ceil((width + m) / `_WINDOW`) windows of even size, and the forward or
    the backward schedule, whichever has fewer steps, so a circuit and its
    `adjoint` run at about the same speed.  Each window's matrix
    (`_window_matrix`) and each move run's gather order (`_move_order`)
    is then built once, for every `Plan.run`.
    """
    rows = as_int(rows, "plan rows")
    if rows < 1:
        raise ValueError(f"plan rows must be positive, got {rows}")
    width = c.width + (rows - 1).bit_length()
    steps = []
    for apply, payload in _schedule(c.gates, width):
        if apply is _apply_window:
            payload = _window_matrix(payload)
        elif apply is _apply_moves:
            payload = _move_order(payload, width)
        steps.append((apply, payload))
    return Plan(c.width, rows, tuple(steps))


def apply_to_state(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a state vector of length 2**width, or on each
    row of a (k, 2**width) batch of states, k >= 1: `plan(c, k).run`.

    Returns a new array of the same shape and never writes to `state`.
    A single state runs as a batch of one row.  Run on the identity, row r
    of the result is U e_r, so the result is U^T.  A state of another
    shape, or whose dtype is not bool, integer, float or complex, is a
    ValueError.

    `to_matrix` applies every gate on its own, with no fusion and no
    deferral, and is the oracle for this.
    """
    states = np.asarray(state)
    return plan(c, _batch_rows(states, c.width)).run(states)


def _batch_rows(states: np.ndarray, width: int) -> int:
    """The rows k of a numeric state of length 2**width (k = 1) or of a
    (k, 2**width) batch, k >= 1; a ValueError for anything else."""
    if states.dtype.kind not in "biufc":
        raise ValueError(f"state has dtype {states.dtype}, expected a "
                         "numeric dtype")
    dim = 1 << width
    if states.ndim not in (1, 2) or states.shape[-1] != dim \
            or states.size == 0:
        raise ValueError(f"state has shape {states.shape}, expected "
                         f"({dim},) or (k, {dim}) with k >= 1")
    return states.size // dim


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
    width = as_int(width, "target width")
    if width < c.width:
        raise ValueError("target width smaller than circuit width")
    gates = tuple(
        QubitPerm(g.sigma + tuple(range(c.width, width)))
        if isinstance(g, QubitPerm) else g
        for g in c.gates)
    return Circuit(width, gates)


def adjoint(c: Circuit) -> Circuit:
    """Circuit for U^H: the gates in reverse order, each 2x2 gate with u^H
    and each qubit permutation inverted.

    CNOTs stay CNOTs.  Gates whose u are equal share one frozen u^H
    (`frozen_matrix`), as the library's gates share theirs.
    """
    shared: dict[bytes, Matrix] = {}
    gates: list[Gate] = []
    for g in reversed(c.gates):
        if isinstance(g, QubitPerm):
            inverse = [0] * len(g.sigma)
            for q, s in enumerate(g.sigma):
                inverse[s] = q
            gates.append(QubitPerm(tuple(inverse)))
        elif isinstance(g, CNot):
            gates.append(g)
        else:
            key = g.u.tobytes()
            u = shared.get(key)
            if u is None:
                u = shared[key] = frozen_matrix(g.u.conj().T)
            gates.append(MultiControlled(u, g.controls, g.target)
                         if g.controls else Local(u, g.target))
    return Circuit(c.width, tuple(gates))


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
