"""Per-layer measurement: in-memory span tracing and kernel probes.

The package binds names at import time (`synthesis` imports `induce`,
`verify` imports `to_matrix` and `regular_representation`, ...), so a span
must wrap the name in the module that calls it, not in the module that
defines it.  `Tracer.active` swaps wrappers in for one call and puts the
originals back afterwards, so untraced calls run unmodified code.  Spans
are kept in memory as [name, start_ns, end_ns, parent, circuit] and
written out when the run ends; a span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

from groupqft import circuit, circuit_library, cli, synthesis, verify

# (span name, module whose global is wrapped, attribute)
SITES = (
    ("groups.induce", synthesis, "induce"),
    ("groups.regular_representation", verify, "regular_representation"),
    ("synthesis.twiddle", synthesis, "twiddle"),
    ("synthesis.equalizer", synthesis, "equalizer"),
    ("synthesis.reorder_permutation", synthesis, "reorder_permutation"),
    ("synthesis.assemble", verify, "assemble"),
    ("linalg.kron", synthesis, "kron"),
    ("linalg.kron", circuit, "kron"),
    ("circuit.to_matrix", verify, "to_matrix"),
    ("verify.check_decomposition", verify, "check_decomposition"),
    ("verify.circuit_matches", verify, "circuit_matches"),
    ("circuit_library.qft_circuit", verify, "qft_circuit"),
    ("circuit_library.qft_circuit", circuit_library, "qft_circuit"),
    ("circuit.cost", verify, "cost"),
    ("circuit.cost", circuit, "cost"),
    ("circuit.apply_to_state", circuit, "apply_to_state"),
    ("cli.format_circuit", cli, "format_circuit"),
    ("cli.parse_circuit", cli, "parse_circuit"),
)
# spans that keep their circuit argument, for gate counts
CIRCUIT_SPANS = frozenset({"circuit.to_matrix", "circuit.apply_to_state"})
TOTAL_SPANS = (
    "groups.induce", "groups.regular_representation", "synthesis.equalizer",
    "synthesis.reorder_permutation", "linalg.kron", "circuit.to_matrix",
    "circuit.apply_to_state", "circuit_library.qft_circuit", "circuit.cost",
    "cli.format_circuit", "cli.parse_circuit")
SELF_SPANS = (
    "synthesis.twiddle", "synthesis.assemble", "verify.check_decomposition",
    "verify.circuit_matches")

GATE_KINDS = ("local", "cnot", "cphase", "mcu", "perm")
SMALL_MAX_WIDTH = 12
PROBE_WIDTH = 21
PROBE_REPS = 2
GIB = float(1 << 30)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, arg) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, arg])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, name: str, fn):
        keep = name in CIRCUIT_SPANS

        def traced(*args, **kwargs):
            idx = self._open(name, args[0] if keep else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextlib.contextmanager
    def active(self, root: str):
        """Trace every call into the wrapped sites under a root span."""
        originals = [(mod, attr, getattr(mod, attr)) for _, mod, attr in SITES]
        for (name, mod, attr), (_, _, fn) in zip(SITES, originals):
            setattr(mod, attr, self._wrap(name, fn))
        idx = self._open(root, None)
        try:
            yield
        finally:
            self._close(idx)
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def records(self) -> list[list]:
        """Spans as JSON-ready rows; a circuit becomes [width, gates]."""
        t0 = self.spans[0][1] if self.spans else 0
        return [[name, start - t0, end - t0, parent,
                 None if c is None else [c.width, len(c.gates)]]
                for name, start, end, parent, c in self.spans]


def gate_kind(g) -> str:
    if isinstance(g, circuit.Local):
        return "local"
    if isinstance(g, circuit.CNot):
        return "cnot"
    if isinstance(g, circuit.QubitPerm):
        return "perm"
    return "cphase" if len(g.controls) == 1 else "mcu"


def span_metrics(spans: list[list], calls: int) -> dict[str, float]:
    """Per-layer figures per traced workload call."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(int)
    own = defaultdict(int)
    count = defaultdict(int)
    matrix_gates = 0
    kinds = dict.fromkeys(GATE_KINDS, 0)
    small_ns = small_gates = 0
    for i, (name, start, end, _, c) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        count[name] += 1
        if name == "circuit.to_matrix":
            matrix_gates += len(c.gates)
        elif name == "circuit.apply_to_state":
            for g in c.gates:
                kinds[gate_kind(g)] += 1
            if c.width <= SMALL_MAX_WIDTH:
                small_ns += end - start
                small_gates += len(c.gates)
    out = {f"{name}.s": total[name] / 1e9 / calls for name in TOTAL_SPANS}
    out.update({f"{name}.self_s": own[name] / 1e9 / calls
                for name in SELF_SPANS})
    out["groups.induce.calls"] = count["groups.induce"] / calls
    out["circuit.to_matrix.gates"] = matrix_gates / calls
    out.update({f"kernels.{k}.gates": kinds[k] / calls for k in GATE_KINDS})
    out["kernels.small.us_per_gate"] = small_ns / 1e3 / max(small_gates, 1)
    return out


def _probe_gates(width: int) -> dict[str, list]:
    top = width - 1
    phase = np.diag([1.0, np.exp(0.25j * np.pi)])
    x, h = circuit.X_MATRIX, circuit.H_MATRIX
    swap = list(range(width))
    swap[0], swap[top] = top, 0
    return {
        "local": [circuit.Local(h, q) for q in (0, width // 2, top)],
        "cnot": [circuit.CNot(0, top), circuit.CNot(top, 0),
                 circuit.CNot(width // 2, width // 2 + 1)],
        "cphase": [circuit.MultiControlled(phase, ((c, True),), t)
                   for c, t in ((0, top), (top - 1, top), (width // 2, 3))],
        "mcu": [
            circuit.MultiControlled(x, ((0, True), (1, True)), top),
            circuit.MultiControlled(
                x, tuple((q, False) for q in range(1, width)), 0),
            circuit.MultiControlled(
                phase, ((top, True), (5, False), (6, True)), 0)],
        "perm": [circuit.QubitPerm(tuple(reversed(range(width)))),
                 circuit.QubitPerm((top,) + tuple(range(top))),
                 circuit.QubitPerm(tuple(swap))],
    }


def kernel_probes(state: np.ndarray, checks) -> dict[str, float]:
    """Time single-gate circuits of each kind, and a plain copy, at the
    state's width.

    GiB/s figures are computed from array sizes: one read and one write of
    the state per gate or copy.  They are not measured memory traffic.
    """
    width = state.shape[0].bit_length() - 1
    moved = 2 * state.nbytes
    out = {}
    for kind, gates in _probe_gates(width).items():
        times = []
        for g in gates:
            c = circuit.Circuit(width, (g,))
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                result = circuit.apply_to_state(c, state)
                times.append(time.perf_counter() - t0)
                checks.record(abs(np.linalg.norm(result) - 1.0) < 1e-10)
                del result
        s = statistics.median(times)
        out[f"kernels.{kind}.ms_per_gate"] = s * 1e3
        out[f"kernels.{kind}.computed_gib_per_s"] = moved / s / GIB
    dst = np.empty_like(state)
    times = []
    for _ in range(3 * PROBE_REPS):
        t0 = time.perf_counter()
        np.copyto(dst, state)
        times.append(time.perf_counter() - t0)
    checks.record(bool(np.array_equal(dst, state)))
    out["machine.copy_gib_per_s"] = moved / statistics.median(times) / GIB
    return out
