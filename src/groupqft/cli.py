"""Command-line front end.

Commands: synth (serialized circuit), verify (defect report), count
(cost table over an n range), emit (transform matrix).  Payloads go to
stdout, diagnostics to stderr; exit codes: 0 ok, 2 usage, 3 verification
failure, 4 internal error.

The structured format is line oriented: one self-describing header line
followed by one record per line; complex numbers are re,im pairs printed
with 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from .circuit import (
    Circuit,
    CNot,
    Gate,
    Local,
    MultiControlled,
    QubitPerm,
    cost,
)
from .circuit_library import qft_circuit, qft_factors
from .groups import Family, GroupSpec
from .linalg import Matrix
from .synthesis import assemble
from .verify import check_tolerance, full_report

FAMILIES = {f.value: f for f in Family}

# matrix-level commands (verify, emit) cap at n = 8; gate-level at n = 16
GATE_LEVEL_MAX = 16
MATRIX_LEVEL_MAX = 8


def _re_im(z: complex) -> str:
    """re,im of one entry, each with 17 significant digits."""
    return f"{format(z.real, '.17g')},{format(z.imag, '.17g')}"


def _fmt_u(u: Matrix) -> str:
    # tolist() gives Python complex entries: formatting them skips a
    # numpy scalar and a float() conversion per part
    return ",".join(map(_re_im, u.ravel().tolist()))


def _parse_u(token: str) -> np.ndarray:
    vals = [float(v) for v in token.split(",")]
    if len(vals) != 8:
        raise ValueError(f"expected 8 reals for a 2x2 unitary, got {len(vals)}")
    # complex(re, im) keeps a -0.0 imaginary part, which arithmetic such
    # as re + 1j * im would turn into +0.0; one numpy call, and the shape
    # set in place, since a reshaped view would keep its 1-D base alive
    # beside it in every parsed gate
    r0, i0, r1, i1, r2, i2, r3, i3 = vals
    u = np.array([complex(r0, i0), complex(r1, i1),
                  complex(r2, i2), complex(r3, i3)])
    u.shape = (2, 2)
    return u


def format_gate(g: Gate) -> str:
    if isinstance(g, Local):
        return f"local q={g.target} u={_fmt_u(g.u)}"
    if isinstance(g, CNot):
        return f"cnot c={g.control} t={g.target}"
    if isinstance(g, MultiControlled):
        ctrls = ",".join(f"{q}:{'+' if p else '-'}" for q, p in g.controls)
        return f"mcu controls={ctrls} t={g.target} u={_fmt_u(g.u)}"
    return "perm " + ",".join(str(s) for s in g.sigma)


def format_circuit(c: Circuit) -> str:
    lines = [f"circuit width={c.width} gates={len(c.gates)}"]
    lines += [format_gate(g) for g in c.gates]
    return "\n".join(lines)


class _Fields(dict):
    """key=value tokens; a missing or repeated key is a ValueError."""

    def __missing__(self, key: str) -> str:
        raise ValueError(f"missing {key}=")


def _fields(tokens: list[str]) -> _Fields:
    out = _Fields()
    for t in tokens:
        key, eq, value = t.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {t!r}")
        if key in out:
            raise ValueError(f"repeated key {key}=")
        out[key] = value
    return out


@contextmanager
def _on_line(no: int, line: str):
    """Prefix a ValueError raised while parsing one line with that line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc} in {line.strip()!r}") from None


def _numbered_lines(text: str, header: str) -> list[tuple[int, str]]:
    """Non-blank lines with 1-based numbers; the first must be the header."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ValueError(f"empty input, expected a {header} header")
    no, first = lines[0]
    if first.split()[0] != header:
        raise ValueError(f"line {no}: expected {header} header, got {first!r}")
    return lines


def _parse_controls(token: str) -> tuple[tuple[int, bool], ...]:
    out = []
    for ctl in token.split(","):
        q, colon, pol = ctl.rpartition(":")
        if not colon or pol not in ("+", "-"):
            raise ValueError(f"control must look like Q:+ or Q:-, got {ctl!r}")
        out.append((int(q), pol == "+"))
    return tuple(out)


def _parse_gate(line: str) -> Gate:
    kind, *rest = line.split()
    if kind == "perm":
        if len(rest) != 1:
            raise ValueError("perm needs one comma-separated permutation")
        return QubitPerm(tuple(int(v) for v in rest[0].split(",")))
    f = _fields(rest)
    if kind == "local":
        return Local(_parse_u(f["u"]), int(f["q"]))
    if kind == "cnot":
        return CNot(int(f["c"]), int(f["t"]))
    if kind == "mcu":
        return MultiControlled(
            _parse_u(f["u"]), _parse_controls(f["controls"]), int(f["t"]))
    raise ValueError(f"unknown gate kind {kind!r}")


def parse_circuit(text: str) -> Circuit:
    (no, head), *body = _numbered_lines(text, "circuit")
    with _on_line(no, head):
        meta = _fields(head.split()[1:])
        width, count = int(meta["width"]), int(meta["gates"])
        if len(body) != count:
            raise ValueError(f"header claims {count} gates, found {len(body)}")
    gates: list[Gate] = []
    for line_no, ln in body:
        with _on_line(line_no, ln):
            gates.append(_parse_gate(ln))
    # a bad width, or a gate qubit outside it, is charged to the header
    with _on_line(no, head):
        return Circuit(width, tuple(gates))


def format_matrix(m: Matrix) -> str:
    m = np.asarray(m, dtype=np.complex128)
    lines = [f"matrix rows={m.shape[0]} cols={m.shape[1]}"]
    for row in m:
        lines.append(" ".join(map(_re_im, row.tolist())))
    return "\n".join(lines)


def _parse_complex(token: str) -> complex:
    re, comma, im = token.partition(",")
    if not comma:
        raise ValueError(f"expected re,im, got {token!r}")
    return complex(float(re), float(im))


def parse_matrix(text: str) -> Matrix:
    (no, head), *body = _numbered_lines(text, "matrix")
    with _on_line(no, head):
        meta = _fields(head.split()[1:])
        rows, cols = int(meta["rows"]), int(meta["cols"])
        # a row with no columns prints as a blank line, which is skipped
        if rows < 0 or cols < 0 or len(body) != (rows if cols else 0):
            raise ValueError(f"header claims {rows}x{cols}, "
                             f"found {len(body)} rows")
    entries = []
    for no, ln in body:
        with _on_line(no, ln):
            row = [_parse_complex(e) for e in ln.split()]
            if len(row) != cols:
                raise ValueError(f"{len(row)} entries, expected {cols}")
        entries.append(row)
    return np.array(entries, dtype=np.complex128).reshape(rows, cols)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupqft",
        description="Fourier transform circuits for 2-groups with a "
                    "cyclic subgroup of index at most 2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_n: bool) -> None:
        p.add_argument("--family", required=True, choices=sorted(FAMILIES),
                       help="group family")
        if with_n:
            p.add_argument("--n", required=True, type=int,
                           help="cyclic subgroup is Z_{2^n}")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text", help="output style")

    p_synth = sub.add_parser("synth", help="print the transform circuit")
    add_common(p_synth, with_n=True)

    p_verify = sub.add_parser("verify", help="run the numeric checks")
    add_common(p_verify, with_n=True)
    p_verify.add_argument("--tol", type=float, default=1e-10,
                          help="defect threshold (default 1e-10)")

    p_count = sub.add_parser("count", help="cost table over a range of n")
    add_common(p_count, with_n=False)
    p_count.add_argument("--range", required=True, metavar="A..B",
                         dest="n_range", help="inclusive n range, e.g. 3..8")

    p_emit = sub.add_parser("emit", help="print the transform matrix")
    p_emit.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_emit.add_argument("--n", required=True, type=int)
    return parser


def _check_n(family: Family, n: int, top: int) -> GroupSpec:
    low = 1 if family is Family.CYCLIC else 3
    if not low <= n <= top:
        raise ValueError(f"n for {family.value} must be in {low}..{top}")
    return GroupSpec(family, n)


def _run_synth(args) -> int:
    G = _check_n(FAMILIES[args.family], args.n, GATE_LEVEL_MAX)
    c = qft_circuit(G)
    if args.format == "text":
        print(f"family={args.family} n={args.n} width={c.width} "
              f"gates={len(c.gates)} cost={cost(c):g}")
    print(format_circuit(c))
    return 0


def _run_verify(args) -> int:
    G = _check_n(FAMILIES[args.family], args.n, MATRIX_LEVEL_MAX)
    check_tolerance(args.tol)
    rep = full_report(G)
    passed = rep.passed(args.tol)
    if args.format == "structured":
        print(f"verify family={args.family} n={G.n} "
              f"unitarity={rep.unitarity_defect:.3e} "
              f"offblock={rep.max_offblock:.3e} "
              f"equal={rep.equal_summands_defect:.3e} "
              f"census={int(rep.census_ok)} "
              f"circuit={rep.circuit_matrix_defect:.3e} "
              f"cost={rep.cost:g} pass={int(passed)}")
    else:
        print(f"family={args.family} n={G.n} |G|={G.order}")
        print(f"unitarity_defect       {rep.unitarity_defect:.3e}")
        print(f"max_offblock           {rep.max_offblock:.3e}")
        print(f"equal_summands_defect  {rep.equal_summands_defect:.3e}")
        print(f"census_ok              {'yes' if rep.census_ok else 'NO'}")
        print(f"circuit_matrix_defect  {rep.circuit_matrix_defect:.3e}")
        print(f"total_cost             {rep.cost:g}")
        print(f"result                 "
              f"{'PASS' if passed else 'FAIL'} (tol={args.tol:g})")
    return 0 if passed else 3


def _parse_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition("..")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like A..B, got {spec!r}") from None
    if a > b:
        raise ValueError(f"empty range {spec!r}")
    return a, b


def _count_row(G: GroupSpec) -> dict[str, float]:
    """Width, total cost, and the cost of each factor of `qft_factors`."""
    factors = qft_factors(G)
    costs = {name: cost(c) for name, c in factors}
    return {"width": factors[0][1].width, "total": sum(costs.values()),
            **costs}


def _run_count(args) -> int:
    family = FAMILIES[args.family]
    a, b = _parse_range(args.n_range)
    rows = [(n, _count_row(_check_n(family, n, GATE_LEVEL_MAX)))
            for n in range(a, b + 1)]
    keys = list(rows[0][1])
    if args.format == "structured":
        for n, row in rows:
            cells = " ".join(f"{k}={row[k]:g}" for k in keys)
            print(f"count family={args.family} n={n} {cells}")
    else:
        print("  n " + "".join(f"{k:>10}" for k in keys))
        for n, row in rows:
            print(f"{n:3d} " + "".join(f"{row[k]:10g}" for k in keys))
    return 0


def _run_emit(args) -> int:
    G = _check_n(FAMILIES[args.family], args.n, MATRIX_LEVEL_MAX)
    print(format_matrix(assemble(G).b))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runners = {"synth": _run_synth, "verify": _run_verify,
               "count": _run_count, "emit": _run_emit}
    try:
        return runners[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 4
    except Exception as exc:  # noqa: BLE001 - last-resort exit code 4
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
