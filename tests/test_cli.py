from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupqft
from groupqft import cli
from groupqft.circuit import to_matrix
from groupqft.circuit_library import qft_circuit
from groupqft.cli import (
    format_circuit,
    format_matrix,
    main,
    parse_circuit,
    parse_matrix,
)
from groupqft.groups import Family, GroupSpec
from groupqft.synthesis import assemble


# the subprocess imports the same groupqft as the tests, installed or not
SRC = str(Path(groupqft.__file__).resolve().parents[1])


def run_cli(*argv):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "groupqft", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_synth_structured_round_trips(capsys):
    assert main(["synth", "--family", "dihedral", "--n", "4",
                 "--format", "structured"]) == 0
    out = capsys.readouterr().out
    c = parse_circuit(out)
    assert format_circuit(c) == out.strip()
    want = to_matrix(qft_circuit(GroupSpec(Family.DIHEDRAL, 4)))
    assert np.array_equal(to_matrix(c), want)


def test_synth_text_has_summary(capsys):
    assert main(["synth", "--family", "qp", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("family=qp n=3 width=4 gates=")
    assert lines[1].startswith("circuit width=4")


def test_emit_round_trips_bit_identical(capsys):
    assert main(["emit", "--family", "quaternion", "--n", "3"]) == 0
    m = parse_matrix(capsys.readouterr().out)
    assert np.array_equal(m, assemble(GroupSpec(Family.QUATERNION, 3)).b)


def test_format_matrix_idempotent():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    text = format_matrix(m)
    assert np.array_equal(parse_matrix(text), m)
    assert format_matrix(parse_matrix(text)) == text


def test_verify_passes(capsys):
    assert main(["verify", "--family", "qd", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_structured(capsys):
    assert main(["verify", "--family", "dihedral", "--n", "3",
                 "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verify family=dihedral n=3 ")
    assert "pass=1" in out


def test_verify_impossible_tolerance(capsys):
    assert main(["verify", "--family", "dihedral", "--n", "3",
                 "--tol", "1e-30"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    assert main(["verify", "--family", "dihedral", "--n", "3",
                 "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tolerance must be finite and positive" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_rejects_bad_tolerance_before_the_report(monkeypatch, capsys,
                                                        tol):
    def fail(G):
        raise AssertionError("full_report ran before --tol was checked")
    monkeypatch.setattr(cli, "full_report", fail)
    assert main(["verify", "--family", "qd", "--n", "8", "--tol", tol]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err


def test_count_qp_reorder_twiddle_equalizer_constant(capsys):
    assert main(["count", "--family", "qp", "--range", "3..8",
                 "--format", "structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for factor in ("equalizer", "twiddle", "reorder"):
        values = {ln.split(f" {factor}=")[1].split()[0] for ln in lines}
        assert len(values) == 1, factor


def test_count_text_table(capsys):
    assert main(["count", "--family", "cyclic", "--range", "1..4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "width", "total", "cyclic"]
    assert len(lines) == 5


@pytest.mark.parametrize("spec", ["..8", "3..", "3..8..9", "a..b", "35"])
def test_count_malformed_range_is_explained(capsys, spec):
    assert main(["count", "--family", "qp", "--range", spec]) == 2
    err = capsys.readouterr().err
    assert err == f"error: range must look like A..B, got {spec!r}\n"


def test_usage_errors(capsys):
    assert main(["synth", "--family", "dihedral", "--n", "2"]) == 2
    assert main(["synth", "--family", "cyclic", "--n", "0"]) == 2
    assert main(["count", "--family", "qd", "--range", "8..3"]) == 2
    assert main(["count", "--family", "qd", "--range", "35"]) == 2
    assert main(["emit", "--family", "dihedral", "--n", "9"]) == 2
    capsys.readouterr()


def test_unknown_family_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--family", "s4", "--n", "3"])
    assert exc.value.code == 2


def test_entry_point_subprocess():
    code, out, err = run_cli("synth", "--family", "dihedral", "--n", "3",
                             "--format", "structured")
    assert code == 0 and err == ""
    assert np.array_equal(
        to_matrix(parse_circuit(out)),
        to_matrix(qft_circuit(GroupSpec(Family.DIHEDRAL, 3))))
    code, _, err = run_cli("verify", "--family", "qp", "--n", "4",
                           "--tol", "1e-300")
    assert code == 3
    code, _, err = run_cli("synth", "--family", "dihedral", "--n", "99")
    assert code == 2 and "error:" in err


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_circuit("circuit width=2 gates=1\n")
    with pytest.raises(ValueError):
        parse_circuit("noise width=2 gates=0")
    with pytest.raises(ValueError):
        parse_circuit("circuit width=2 gates=1\nwarp q=0 u=1,0,0,0,0,0,1,0")
    with pytest.raises(ValueError):
        parse_matrix("matrix rows=2 cols=2\n1,0 0,0")
    with pytest.raises(ValueError):
        parse_matrix("matrix rows=1 cols=2\n1,0")


U_ID = "u=1,0,0,0,0,0,1,0"


MALFORMED = [
    (parse_circuit, "", "empty input"),
    (parse_circuit, " \n\n", "empty input"),
    (parse_circuit, "circuit width=2", "line 1: missing gates="),
    (parse_circuit, "circuit gates=0", "line 1: missing width="),
    (parse_circuit, "circuit width 2 gates=0", "line 1: expected key=value"),
    (parse_circuit, "circuit width=2 gates=1\nperm", "line 2: perm"),
    (parse_circuit, "circuit width=2 gates=1\n\nlocal q=0", "line 3: missing u="),
    (parse_circuit, f"circuit width=2 gates=1\nlocal {U_ID}", "line 2: missing q="),
    (parse_circuit, "circuit width=2 gates=1\ncnot t=0", "line 2: missing c="),
    (parse_circuit, "circuit width=2 gates=1\ncnot c=1", "line 2: missing t="),
    (parse_circuit, f"circuit width=2 gates=1\nmcu t=0 {U_ID}",
     "line 2: missing controls="),
    (parse_circuit, f"circuit width=2 gates=1\nmcu controls=1 t=0 {U_ID}",
     "line 2: "),
    (parse_circuit, f"circuit width=2 gates=1\nlocal q=5 {U_ID}",
     "line 1: qubit 5 outside width 2"),
    (parse_matrix, "", "empty input"),
    (parse_matrix, "matrix rows=1\n1,0", "line 1: missing cols="),
    (parse_matrix, "matrix cols=1\n1,0", "line 1: missing rows="),
    (parse_matrix, "matrix rows=1 cols=1\n1", "line 2: expected re,im"),
    (parse_matrix, "matrix rows=0 cols=-1", "line 1: "),
    # a key the line does not take, even beside every key it needs
    (parse_circuit, "circuit width=2 gates=1\nlocal q=0 t=1 u=0,0,1,0,1,0,0,0",
     "line 2: unknown key t="),
    (parse_circuit, "circuit width=3 gates=1\ncnot c=0 t=1 q=2",
     "line 2: unknown key q="),
    (parse_circuit, "circuit width=2 gates=0 foo=1", "line 1: unknown key foo="),
    (parse_matrix, "matrix rows=1 cols=1 extra=9\n1,0",
     "line 1: unknown key extra="),
]


@pytest.mark.parametrize("parse, text, where", MALFORMED, ids=[
    f"{parse.__name__}-{i}" for i, (parse, _, _) in enumerate(MALFORMED)])
def test_parse_malformed_names_the_line(parse, text, where):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value).startswith(where)
