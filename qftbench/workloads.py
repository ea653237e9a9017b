"""The benchmark's workloads: closed loops of calls into groupqft.

Why each workload exists:

- verify_n8: `verify.full_report` at the CLI `verify` ceiling
  (`cli.MATRIX_LEVEL_MAX`, n = 8) for the four non-abelian families.  The
  matrix layers do nearly all the work: `induce` under `twiddle`, the dense
  products in `assemble`, `to_matrix` and `check_decomposition`.  The state
  kernels never run.
- simulate_w21: whole transform circuits on 2^21-amplitude states, qd at
  n = 20 (every gate kind) and cyclic at n = 21 (exact FFT oracle).  The
  state kernels do nearly all the work and it is memory-bound; `groups`
  and `synthesis` do none.
- gate_sweep: build, cost and text round trip of every family's circuit
  for n = 3..16, then simulation at widths <= 12.  Thousands of small gate
  objects and short kernel calls, so per-gate Python overhead matters and
  bandwidth does not.

Each workload builds its inputs in its constructor (the benchmark's
set-up), exposes them as `inputs`, makes one call per `call(inp)` and
grades every output in `check`, outside the timed region.  The seed drives
only the random input states.  Every call goes through a module attribute
(`verify.full_report`, `circuit.apply_to_state`, ...) so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from groupqft import circuit, circuit_library, cli, linalg, synthesis, verify
from groupqft.groups import Family, GroupSpec

TOL = 1e-10
NON_ABELIAN = (Family.DIHEDRAL, Family.QUATERNION, Family.QP, Family.QD)
SIM_MAX_WIDTH = 12
DENSE_CHECK_MAX_WIDTH = 8


class Checks:
    """Output checks attempted and failed over one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def unit_state(rng: np.random.Generator, width: int) -> np.ndarray:
    dim = 1 << width
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def width_of(G: GroupSpec) -> int:
    return G.n if G.is_abelian else G.n + 1


def same_bits(a: circuit.Circuit, b: circuit.Circuit) -> bool:
    """True when both circuits have identical gates, unitaries bit for bit."""
    if a.width != b.width or len(a.gates) != len(b.gates):
        return False
    for g, h in zip(a.gates, b.gates):
        if type(g) is not type(h):
            return False
        for f in dataclasses.fields(g):
            x, y = getattr(g, f.name), getattr(h, f.name)
            if isinstance(x, np.ndarray):
                if x.dtype != y.dtype or x.shape != y.shape \
                        or x.tobytes() != y.tobytes():
                    return False
            elif x != y:
                return False
    return True


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return float(np.max(np.abs(a - b))) < TOL


class VerifyN8:
    name = "verify_n8"
    call_metric = "verify_group_s"

    def __init__(self, seed: int) -> None:
        del seed  # no random inputs
        n = cli.MATRIX_LEVEL_MAX
        self.inputs = [GroupSpec(f, n) for f in NON_ABELIAN]

    def call(self, G: GroupSpec):
        return verify.full_report(G), {}

    def check(self, G: GroupSpec, report, checks: Checks) -> None:
        checks.record(report.group == G and report.passed(TOL))

    def final_checks(self, checks: Checks) -> None:
        pass


@dataclasses.dataclass(frozen=True)
class SimInput:
    group: GroupSpec
    circuit: circuit.Circuit
    state: np.ndarray


def _sim_input(G: GroupSpec, rng: np.random.Generator) -> SimInput:
    c = circuit_library.qft_circuit(G)
    return SimInput(G, c, unit_state(rng, c.width))


class SimulateW21:
    name = "simulate_w21"
    call_metric = "simulate_circuit_s"
    groups = (GroupSpec(Family.QD, 20), GroupSpec(Family.CYCLIC, 21))
    small_groups = (GroupSpec(Family.QD, 8), GroupSpec(Family.CYCLIC, 9))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.inputs = [_sim_input(G, rng) for G in self.groups]

    def call(self, inp: SimInput):
        return circuit.apply_to_state(inp.circuit, inp.state), {}

    def check(self, inp: SimInput, out: np.ndarray, checks: Checks) -> None:
        if inp.group.is_abelian:
            dim = inp.state.shape[0]
            checks.record(_close(out, np.fft.ifft(inp.state) * np.sqrt(dim)))
        else:
            checks.record(abs(np.linalg.norm(out) - 1.0) < TOL)

    def final_checks(self, checks: Checks) -> None:
        """The same call path at width 9 against the dense transforms."""
        rng = np.random.default_rng(self.seed + 1)
        for G in self.small_groups:
            inp = _sim_input(G, rng)
            out, _ = self.call(inp)
            if G.is_abelian:
                dense = linalg.dft(G.order)
            else:
                dense = synthesis.assemble(G).b
            checks.record(_close(out, dense @ inp.state))


@dataclasses.dataclass(frozen=True)
class SweepOutput:
    built: list       # (spec, circuit, cost, parsed circuit) per spec
    states: list      # simulated states, one per spec of width <= 12


class GateSweep:
    name = "gate_sweep"
    call_metric = "sweep_pass_s"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.specs = [GroupSpec(f, n) for f in Family for n in range(3, 17)]
        self.states = {G: unit_state(rng, width_of(G)) for G in self.specs
                       if width_of(G) <= SIM_MAX_WIDTH}
        self.inputs = [None]   # one input: the whole pass
        self._dense: dict[GroupSpec, np.ndarray] = {}

    def call(self, _):
        t0 = time.perf_counter()
        built = []
        for G in self.specs:
            c = circuit_library.qft_circuit(G)
            total = circuit.cost(c)
            parsed = cli.parse_circuit(cli.format_circuit(c))
            built.append((G, c, total, parsed))
        t1 = time.perf_counter()
        states = [circuit.apply_to_state(c, self.states[G])
                  for G, c, _, _ in built if G in self.states]
        t2 = time.perf_counter()
        return SweepOutput(built, states), \
            {"sweep_build_s": t1 - t0, "sweep_sim_s": t2 - t1}

    def check(self, _, out: SweepOutput, checks: Checks) -> None:
        for _, c, total, parsed in out.built:
            checks.record(total > 0 and same_bits(c, parsed))
        simulated = [(G, c) for G, c, _, _ in out.built if G in self.states]
        for (G, c), v in zip(simulated, out.states):
            if c.width > DENSE_CHECK_MAX_WIDTH:
                checks.record(abs(np.linalg.norm(v) - 1.0) < TOL)
                continue
            if G not in self._dense:
                self._dense[G] = circuit.to_matrix(c) @ self.states[G]
            checks.record(_close(v, self._dense[G]))

    def final_checks(self, checks: Checks) -> None:
        pass


class Coverage:
    """One small call through every traced layer (qd, n = 3).

    A traced run makes it once after the workload's calls, so every
    per-layer figure is measured on every workload; where a workload does
    not use a layer, the figure is this call's share.
    """

    def __init__(self, seed: int) -> None:
        self.group = GroupSpec(Family.QD, 3)
        self.state = unit_state(np.random.default_rng(seed), width_of(self.group))

    def call(self):
        report = verify.full_report(self.group)
        c = circuit_library.qft_circuit(self.group)
        parsed = cli.parse_circuit(cli.format_circuit(c))
        return report, circuit.cost(c), c, parsed, \
            circuit.apply_to_state(c, self.state)

    def check(self, out, checks: Checks) -> None:
        report, total, c, parsed, v = out
        checks.record(report.passed(TOL))
        checks.record(total > 0 and same_bits(c, parsed))
        checks.record(_close(v, synthesis.assemble(self.group).b @ self.state))


WORKLOADS = {w.name: w for w in (VerifyN8, SimulateW21, GateSweep)}
