"""Gate-level circuit representation.

A circuit is a list of gates on `width` qubits; qubit 0 is the least
significant bit of the basis-state index.  Gates are listed in temporal
order, so the matrix of the whole circuit multiplies them in reverse:
gates (g1, g2, ..., gm) realize G_m ... G_2 G_1.

Every gate other than a qubit permutation is a 2x2 unitary `u` on
`target`, fired by `controls`, a tuple of (qubit, polarity) pairs: a
Local gate has no controls and a CNOT is X with one positive control.
Each gate class exposes these three attributes, so the code below reads
them and never asks which kind a 2x2 gate is.

Two independent evaluation routes are kept deliberately separate:
`to_matrix` multiplies each gate's action, one gate at a time, into the
running product row pair by row pair, on flat basis indices selected by
bit masks, while `apply_to_state` updates a `(2,)*width` tensor view of
the state in place, one axis per qubit.  They read the same gate data
but share no evaluation code; tests play one against the other.
`to_matrix` stays unfused, so it remains the oracle.

The state kernel groups the gates in one pass (`_segments`), by one key
per gate.  On a state of at least `_FUSE_MIN_WIDTH` qubits, a gate whose
target and controls all lie below `_WINDOW` (the low window) has the
window key.  Otherwise a diag(1, z) gate with at most log2(`_PHASE_CAP`)
controls has its target as phase key, and any other gate has none.  Each
run of two or more consecutive gates with one key is applied at once, a
window run as one small dense matrix and a phase run as one broadcast
multiply; every other gate, a lone one with a key included, runs on its
own.  `apply_to_state` describes each kernel.

`cost` sums the fixed per-gate weights of `gate_cost`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

# kron is unused here but stays a module attribute: qftbench's tracer
# wraps circuit.kron by name.
from .linalg import Matrix, kron  # noqa: F401

GATE_EPS = 1e-12

X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _check_2x2_unitary(u: Matrix) -> None:
    """Raise ValueError unless `u` is a 2x2 unitary within GATE_EPS.

    The check is closed form on Python scalars.  With rows (a, b) and
    (c, d), every entry of u u^H - I must be below GATE_EPS in magnitude:
    the row norms |a|^2 + |b|^2 - 1 and |c|^2 + |d|^2 - 1, and the
    off-diagonal a c* + b d* (the other off-diagonal entry is its
    conjugate).  Each defect is compared on its own, so a NaN or an
    infinity in any entry fails the check.  The tests hold it to
    `linalg.is_unitary(u, GATE_EPS)`, which forms the same product with
    numpy and costs several numpy calls per gate.
    """
    if u.shape != (2, 2):
        raise ValueError(f"gate unitary must be 2x2, got {u.shape}")
    (a, b), (c, d) = u.tolist()
    off = a * c.conjugate() + b * d.conjugate()
    defects = (
        (a * a.conjugate() + b * b.conjugate()).real - 1.0,
        (c * c.conjugate() + d * d.conjugate()).real - 1.0,
        # math.hypot, not abs(off): abs of a large finite complex raises
        # OverflowError
        math.hypot(off.real, off.imag),
    )
    if not all(abs(x) < GATE_EPS for x in defects):
        raise ValueError("gate matrix is not unitary")


@dataclass(frozen=True, eq=False)
class Local:
    """Single-qubit gate u on `target`."""

    u: Matrix
    target: int

    # a class attribute, not a field
    controls = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.complex128))
        _check_2x2_unitary(self.u)


@dataclass(frozen=True)
class CNot:
    """X on `target` when `control` reads 1."""

    control: int
    target: int

    # class attributes, not fields: equality, hashing and the text format
    # see only control and target
    u = X_MATRIX

    @property
    def controls(self) -> tuple[tuple[int, bool], ...]:
        return ((self.control, True),)

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError("control and target coincide")


@dataclass(frozen=True, eq=False)
class MultiControlled:
    """u on `target`, applied when every control matches its polarity.

    Controls are (qubit, polarity) pairs; True fires on |1>, False on |0>.
    """

    u: Matrix
    controls: tuple[tuple[int, bool], ...]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.complex128))
        object.__setattr__(self, "controls", tuple(
            (int(q), bool(p)) for q, p in self.controls))
        _check_2x2_unitary(self.u)
        if not self.controls:
            raise ValueError("need at least one control; use Local instead")
        qubits = [q for q, _ in self.controls]
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate control qubits")
        if self.target in qubits:
            raise ValueError("target cannot also be a control")


@dataclass(frozen=True)
class QubitPerm:
    """Relabel wires: qubit q is routed to position sigma[q]."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError(f"not a permutation: {self.sigma}")


Gate = Local | CNot | MultiControlled | QubitPerm


def _gate_qubits(g: Gate) -> list[int]:
    if isinstance(g, QubitPerm):
        return list(range(len(g.sigma)))
    # a plain loop: a generator here costs gate_sweep about 10%, since
    # every Circuit, including each concatenation, checks every gate
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
        if self.width < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if isinstance(g, QubitPerm) and len(g.sigma) != self.width:
                raise ValueError("permutation length differs from width")
            for q in _gate_qubits(g):
                if not 0 <= q < self.width:
                    raise ValueError(f"qubit {q} outside width {self.width}")

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

# Entries a fused phase tensor may reach before its run is applied early,
# so that fusion never builds a temporary near the size of the state.
_PHASE_CAP = 1 << 10

# Entries in each of the paired sub-views a mixing gate updates at a time:
# two blocks and their temporaries, at most 1 MiB, stay in cache.
_BLOCK = 1 << 14

# Qubits below _WINDOW form the low window.  On a state of at least
# _FUSE_MIN_WIDTH qubits, each run of two or more consecutive gates acting
# only there is applied as one 2^_WINDOW x 2^_WINDOW matrix.  Both values
# are measured (CHANGES.md): whole width-21 circuits ran as fast with a
# window of 6 qubits as with 7, and fusing broke even at width 13 and
# gained from 14 up.  The threshold must exceed 2 * _WINDOW, the width a
# run's matrix is built on, or that build would fuse again.
_WINDOW = 6
_FUSE_MIN_WIDTH = 14


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


def _phase_factor(top: int, g: Gate) -> np.ndarray:
    """diag(1, z) gate as a factor on the target-1 half: z where the
    controls match, 1 elsewhere, with a length-2 axis per control and
    length 1 on every other axis, so it broadcasts over the half."""
    shape = [1] * (top + 1)
    corner = [0] * (top + 1)
    for q, p in g.controls:
        shape[top - q] = 2
        corner[top - q] = int(p)
    f = np.ones(shape, dtype=np.complex128)
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
    most `_BLOCK` entries.  A function of its own, so the views of the
    state are freed on return, before the next gate allocates.
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
        f = _phase_factor(top, g)
        if phase.size * f.size > _PHASE_CAP:
            half *= phase
            phase = f
        else:
            phase = phase * f
    half *= phase


def _apply_window(psi: np.ndarray, run: list[Gate]) -> None:
    """Apply consecutive low-window gates as one 2^k x 2^k matrix U.

    U^T comes from this kernel, not from `to_matrix`: run on the rows of
    the identity (`_run_rows`), the gates leave U e_r in row r.  The
    state, viewed as rows of 2^k amplitudes indexed by the low qubits, is
    then multiplied by U^T a block of rows at a time into a buffer of at
    most `_BLOCK` entries, and each block is copied back in place.
    """
    dim = 1 << _WINDOW
    ut = _run_rows(Circuit(_WINDOW, tuple(run)), np.eye(dim))
    rows = psi.reshape(-1, dim)
    step = min(_BLOCK // dim, rows.shape[0])
    buf = np.empty((step, dim), dtype=np.complex128)
    for r in range(0, rows.shape[0], step):
        block = rows[r:r + step]
        np.matmul(block, ut, out=buf)
        block[...] = buf


def _segments(gates: tuple[Gate, ...], fuse: bool
              ) -> Iterator[tuple[Callable | None, Gate | list[Gate]]]:
    """The gates in order, grouped by the rule of the module docstring.

    Each run of two or more consecutive gates with one key comes as
    (`_apply_window` or `_apply_phase_run`, the run), and every other
    gate as (None, gate).  Both functions are read from the module when a
    run is found, so a test may replace them.  A window gate has no phase
    key, so a lone one runs on its own: at width 21 its own kernel takes
    3-23 ms, one fused matrix 17-19 ms.
    """
    def key(g: Gate) -> str | int | None:
        if isinstance(g, QubitPerm):
            return None
        if fuse and max(_gate_qubits(g)) < _WINDOW:
            return "window"
        u = g.u
        if (u[0, 0] == 1 and u[0, 1] == 0 and u[1, 0] == 0
                and 1 << len(g.controls) <= _PHASE_CAP):
            return g.target
        return None

    for k, group in groupby(gates, key):
        run = list(group)
        if k is None or len(run) == 1:
            for g in run:
                yield None, g
        else:
            yield (_apply_window if k == "window" else _apply_phase_run), run


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
    qubit q, and is updated in place, its gates grouped as the module
    docstring states:

    - on `_FUSE_MIN_WIDTH` or more qubits, a window run (two or more
      consecutive gates whose target and controls all lie below
      `_WINDOW` = k) is one 2^k x 2^k matrix U.  This kernel builds U^T
      on 2k qubits, below the threshold, and the state's rows of 2^k
      amplitudes are multiplied by it a block at a time through a buffer
      of at most `_BLOCK` entries (`_apply_window`);
    - a phase run (two or more consecutive diag(1, z) gates on one
      target, outside a window run) scales the target-1 half by the
      product of each gate's small factor over its control axes, in one
      broadcast multiply, applied early whenever it could pass
      `_PHASE_CAP` entries (`_apply_phase_run`);
    - every other gate runs on its own.  A diagonal gate scales the
      halves of its control-selected block whose entry is not 1.  Any
      other 2x2 gate mixes the two target-axis halves of its block in
      paired pieces of at most `_BLOCK` entries: an anti-diagonal u swaps
      them, a real multiple of [[1, 1], [1, -1]] (the Hadamard) is a
      butterfly, and any other u a product formula (`_apply_2x2`).  A
      qubit permutation is an axis transpose.

    Scaling and phase runs need no blocking: each is one in-place
    multiply per half and builds no state-sized temporary, whereas the
    swap, the butterfly, the product and the window matrix each keep a
    temporary of the piece they update.

    `to_matrix` applies every gate on its own, with neither kind of
    fusion, and is the oracle for this.
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
    can free it when it moves the state into a new array.
    """
    k, dim = states.shape
    m = (k - 1).bit_length()
    out = _run(embed(c, c.width + m) if m else c,
               _padded_copy(states, 1 << m))
    return out.reshape(1 << m, dim)[:k]


def _padded_copy(states: np.ndarray, rows: int) -> np.ndarray:
    """Flat complex copy of `states`, zero-padded to `rows` rows."""
    out = np.zeros((rows, states.shape[1]), dtype=np.complex128)
    out[:len(states)] = states
    return out.reshape(-1)


def _run(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the gates of `c` to the contiguous flat state `psi`.

    Updates `psi` in place until a qubit permutation moves the state into
    a new array, and returns the result, flat.  `_apply_window` builds U
    through `_run_rows`, which calls this rather than `apply_to_state`, so
    that qftbench, which traces `apply_to_state` calls and counts their
    gates, sees only the circuits it was given.
    """
    top = c.width - 1
    psi = psi.reshape((2,) * c.width)
    for apply, g in _segments(c.gates, c.width >= _FUSE_MIN_WIDTH):
        if apply is not None:
            apply(psi, g)
        elif isinstance(g, QubitPerm):
            axes = [0] * c.width
            for q, s in enumerate(g.sigma):
                axes[top - s] = top - q
            psi = np.ascontiguousarray(psi.transpose(axes))
        else:
            _apply_2x2(*_halves(psi, top, g), g.u)
    return psi.reshape(-1)


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
