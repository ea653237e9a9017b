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
from groupqft.cli import (
    _fmt_u,
    format_circuit,
    format_matrix,
    parse_circuit,
    parse_matrix,
)

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
    # a reshaped view would keep a second, 1-D array alive in every gate
    text = ("circuit width=2 gates=2\n"
            "local q=0 u=0,1,0,-0.0,0,-0.0,0,-1\n"
            "mcu controls=1:- t=0 u=1,0,-0.0,0,0,-0.0,-1,0")
    for g in parse_circuit(text).gates:
        assert g.u.base is None and g.u.flags.owndata, g
        assert g.u.shape == (2, 2) and g.u.flags.c_contiguous
    local, mcu = parse_circuit(text).gates
    assert np.signbit(local.u[0, 1].imag) and np.signbit(mcu.u[0, 1].real)
    assert np.signbit(mcu.u[1, 0].imag)
