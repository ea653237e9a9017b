"""Property tests of the line-oriented text formats in `cli`.

Serialized circuits and matrices must parse back bit for bit, and a
corrupted serialization must either parse or raise ValueError, never any
other exception.  Examples are derandomized so every run sees the same
inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import unitaries
from groupqft.circuit import Circuit, CNot, Local, MultiControlled, QubitPerm
from groupqft.circuit_library import qft_circuit
from groupqft.cli import (
    _fmt_u,
    format_circuit,
    format_gate,
    format_matrix,
    parse_circuit,
    parse_matrix,
)
from groupqft.groups import Family, GroupSpec

PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None)


@st.composite
def circuits(draw) -> Circuit:
    width = draw(st.integers(1, 5))
    qubit = st.integers(0, width - 1)
    kinds = ("local", "perm", "cnot", "mcu") if width >= 2 else ("local", "perm")
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "local":
            gates.append(Local(draw(unitaries()), draw(qubit)))
        elif kind == "perm":
            gates.append(QubitPerm(tuple(draw(st.permutations(range(width))))))
        elif kind == "cnot":
            c, t = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(CNot(c, t))
        else:
            *ctrl, t = draw(st.lists(qubit, min_size=2, max_size=width,
                                     unique=True))
            pols = draw(st.lists(st.booleans(), min_size=len(ctrl),
                                 max_size=len(ctrl)))
            gates.append(MultiControlled(
                draw(unitaries()), tuple(zip(ctrl, pols)), t))
    return Circuit(width, tuple(gates))


@st.composite
def matrices(draw) -> np.ndarray:
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    reals = st.floats(allow_nan=False, allow_infinity=False)
    parts = draw(st.lists(reals, min_size=2 * rows * cols,
                          max_size=2 * rows * cols))
    # re,im pairs viewed as complex128, so -0.0 imaginary parts survive
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(
        rows, cols)


def _gate_key(g) -> tuple:
    """Everything a gate holds, with unitaries compared by their bytes."""
    if isinstance(g, (Local, MultiControlled)):
        controls = getattr(g, "controls", ())
        return type(g).__name__, g.target, controls, g.u.tobytes()
    return type(g).__name__, g


@PROPERTY
@given(circuits())
def test_circuit_text_round_trips_bit_for_bit(c):
    text = format_circuit(c)
    back = parse_circuit(text)
    assert back.width == c.width
    assert [_gate_key(g) for g in back.gates] == [_gate_key(g) for g in c.gates]
    assert format_circuit(back) == text


@PROPERTY
@given(matrices())
def test_matrix_text_round_trips_bit_for_bit(m):
    text = format_matrix(m)
    back = parse_matrix(text)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()
    assert format_matrix(back) == text


ALPHABET = tuple("0123456789-+.,:= \neEinfaqtuclmrxpos")


@st.composite
def mutated(draw, text: str) -> str:
    """Apply one to three character or line edits to text."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ("insert", "delete", "replace", "drop_line", "dup_line")))
        if op in ("drop_line", "dup_line"):
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if op == "drop_line" else [lines[k]] * 2
            text = "\n".join(lines)
            continue
        pos = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        tail = text[pos:] if op == "insert" else text[pos + 1:]
        text = text[:pos] + ("" if op == "delete" else ch) + tail
    return text


@pytest.mark.parametrize("parse, source", [
    (parse_circuit, circuits().map(format_circuit)),
    (parse_matrix, matrices().map(format_matrix)),
], ids=["circuit", "matrix"])
@PROPERTY
@given(data=st.data())
def test_mutated_text_raises_only_value_error(parse, source, data):
    text = data.draw(mutated(data.draw(source)))
    try:
        parse(text)
    except ValueError:
        pass


U_ID = "u=1,0,0,0,0,0,1,0"


@pytest.mark.parametrize("controls, bad", [
    ("0", "0"), ("", ""), ("0:+,", ""), ("0:+,1", "1"), ("+", "+"),
    ("0:x", "0:x"), ("0;+", "0;+"),
])
def test_control_without_polarity_is_explained(controls, bad):
    text = f"circuit width=3 gates=1\nmcu controls={controls} t=2 {U_ID}"
    with pytest.raises(ValueError) as exc:
        parse_circuit(text)
    assert str(exc.value).startswith(
        f"line 2: control must look like Q:+ or Q:-, got {bad!r}")


@pytest.mark.parametrize("text, where", [
    (f"circuit width=2 gates=1\nlocal q=0 q=1 {U_ID}", "line 2: repeated key q="),
    ("circuit width=2 gates=1\ncnot c=0 t=1 c=1", "line 2: repeated key c="),
    ("circuit width=2 width=3 gates=0", "line 1: repeated key width="),
])
def test_repeated_key_is_rejected(text, where):
    with pytest.raises(ValueError) as exc:
        parse_circuit(text)
    assert str(exc.value).startswith(where)


# -0.0, subnormals, huge, non-finite and ordinary values, as every re,im
# pair: a 10 x 10 complex matrix
SPECIAL = (-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, float("nan"),
           float("inf"), float("-inf"), 1 / 3)
SPECIAL_MATRIX = np.array(
    [x for re in SPECIAL for im in SPECIAL for x in (re, im)],
    dtype=np.float64).view(np.complex128).reshape(10, 10)


def _scalar_parts(m: np.ndarray) -> list[str]:
    """re,im of each entry, one numpy scalar at a time through float()."""
    return [f"{format(float(v.real), '.17g')},{format(float(v.imag), '.17g')}"
            for v in m.ravel()]


def test_format_matrix_matches_scalar_reference():
    m = SPECIAL_MATRIX
    want = [f"matrix rows={m.shape[0]} cols={m.shape[1]}"]
    want += [" ".join(_scalar_parts(row)) for row in m]
    assert format_matrix(m) == "\n".join(want)
    assert "-0,-0" in want[1] and "nan,inf" in want[7]


def test_gate_text_matches_scalar_reference():
    for u in SPECIAL_MATRIX.reshape(25, 2, 2):
        assert _fmt_u(u) == ",".join(_scalar_parts(u))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gate", ["local q=1", "mcu controls=0:- t=1"])
@pytest.mark.parametrize("u", ["nan,0,0,0,0,0,1,0", "inf,0,0,0,0,0,1,0",
                               "1,0,0,0,0,0,2,0"],
                         ids=["nan", "inf", "diag(1,2)"])
def test_non_unitary_gate_text_names_its_line(gate, u):
    line = f"{gate} u={u}"
    text = f"circuit width=2 gates=2\ncnot c=0 t=1\n{line}"
    with pytest.raises(ValueError) as exc:
        parse_circuit(text)
    assert str(exc.value) == f"line 3: gate matrix is not unitary in {line!r}"


def test_parsed_gate_matrix_owns_its_data():
    # a reshaped view would keep a second, 1-D array alive in every gate;
    # the matrix's only base is the immutable bytes of its own entries
    text = ("circuit width=2 gates=2\n"
            "local q=0 u=0,1,0,-0.0,0,-0.0,0,-1\n"
            "mcu controls=1:- t=0 u=1,0,-0.0,0,0,-0.0,-1,0")
    for g in parse_circuit(text).gates:
        assert type(g.u.base) is bytes and len(g.u.base) == g.u.nbytes, g
        assert g.u.shape == (2, 2) and g.u.flags.c_contiguous
    local, mcu = parse_circuit(text).gates
    assert np.signbit(local.u[0, 1].imag) and np.signbit(mcu.u[0, 1].real)
    assert np.signbit(mcu.u[1, 0].imag)


U_H = ("u=0.70710678118654746,0,0.70710678118654746,0,"
       "0.70710678118654746,0,-0.70710678118654746,0")
U_X = "u=0,0,1,0,1,0,0,0"


def test_repeated_u_token_gives_one_read_only_array_per_call():
    text = ("circuit width=2 gates=5\n"
            f"local q=0 {U_H}\nmcu controls=0:+ t=1 {U_H}\n"
            f"local q=1 {U_X}\ncnot c=0 t=1\nlocal q=1 {U_H}")
    h0, h1, x, _, h2 = parse_circuit(text).gates
    assert h0.u is h1.u is h2.u
    assert x.u is not h0.u
    for u in (h0.u, x.u):
        with pytest.raises(ValueError):
            u[0, 0] = 0
    # nothing is kept between calls
    assert parse_circuit(text).gates[0].u is not h0.u


def test_non_unitary_token_is_charged_to_its_first_line():
    bad = "u=1,0,0,0,0,0,2,0"
    text = ("circuit width=2 gates=4\n"
            f"cnot c=0 t=1\nmcu controls=1:+ t=0 {bad}\n"
            f"cnot c=1 t=0\nlocal q=1 {bad}")
    with pytest.raises(ValueError) as exc:
        parse_circuit(text)
    assert str(exc.value) == ("line 3: gate matrix is not unitary in "
                              f"'mcu controls=1:+ t=0 {bad}'")


@pytest.mark.parametrize("line, message", [
    (f"local {U_H}", "missing q="),
    (f"mcu t=0 {U_H}", "missing controls="),
    (f"mcu controls=1 t=0 {U_H}", "control must look like Q:+ or Q:-"),
    (f"local q=1.5 {U_H}", "invalid literal for int()"),
    (f"local q=0 q=1 {U_H}", "repeated key q="),
])
def test_malformed_line_after_a_parsed_token_names_its_own_line(line, message):
    text = ("circuit width=2 gates=3\n"
            f"local q=0 {U_H}\nlocal q=1 {U_H}\n{line}")
    with pytest.raises(ValueError) as exc:
        parse_circuit(text)
    assert str(exc.value).startswith(f"line 4: {message}")
    assert str(exc.value).endswith(f" in {line!r}")


def test_format_circuit_keeps_each_zero_sign():
    # -0.0 == 0.0, so a matrix keyed by value would print the first sign
    u = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    v = u.copy()
    v[0, 0] = complex(-0.0, -0.0)
    c = Circuit(1, (Local(u, 0), Local(v, 0), Local(u, 0)))
    lines = format_circuit(c).splitlines()[1:]
    assert lines == [format_gate(g) for g in c.gates]
    assert lines[0] == lines[2] != lines[1]
    assert parse_circuit(format_circuit(c)).gates[1].u.tobytes() == v.tobytes()


@pytest.mark.parametrize("family", list(Family))
def test_format_circuit_is_the_header_and_each_format_gate(family):
    for n in range(1 if family is Family.CYCLIC else 3, 17):
        c = qft_circuit(GroupSpec(family, n))
        header = f"circuit width={c.width} gates={len(c.gates)}"
        assert format_circuit(c) == "\n".join(
            [header] + [format_gate(g) for g in c.gates])
