"""Command-line interface: target expressions, subcommands, exit codes."""

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qutrit_exact
import qutrit_exact.cli.main as cli_main
import qutrit_exact.sim.gates as sim_gates
from conftest import CT_KINDS, assert_close, numeric_gate, numeric_op, random_word
from qutrit_exact.analysis import is_clifford
from qutrit_exact.circuit.core import Circuit, Op, adjoint, print_circuit
from qutrit_exact.circuit.macros import DATA_ENV, circuits_dir
from qutrit_exact.circuit.parse import parse_circuit, parse_target
from qutrit_exact.cli.main import main, parse_phase_value
from qutrit_exact.errors import DimMismatchError, ParseError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE
from qutrit_exact.sim.gates import (
    MAX_QUTRITS, circuit_matrix, circuit_scalar, gate_matrix, phase_unit,
)
from qutrit_exact.sim.matrix import equal_exact, equal_up_to_phase


def _gate(kind: str, params: tuple = ()):
    return gate_matrix(Op(kind, (0,), params=params), 1)


def _circuit(n: int, *lines: str):
    """The matrix of circuit text: ``lines`` on ``n`` qutrits."""
    return circuit_matrix(parse_circuit("\n".join([f"qutrits {n}", *lines])))


def _target_matrix(text: str):
    """The matrix of a target expression: its circuit's matrix, negated with its sign."""
    negated, circ = parse_target(text)
    m = circuit_matrix(circ)
    return m.scale(MINUS_ONE) if negated else m


_WIDE_CLIFFORD = "DIM_MISMATCH: expected between 1 and 2 qutrits, got dimension 27"
_WIDE_HIERARCHY = (
    "DIM_MISMATCH: hierarchy search expects one or two qutrits, got dimension 27"
)


_LONG = "1" * 5000
# malformed target expressions and their errors, after "line 1, "
_TARGET_ERRORS = {
    "": "col 1: empty target expression",
    "H y H": "col 3: expected tensor separator 'x', got 'y'",
    "C2[H": "col 5: expected ']'",
    "C2 H]": "col 4: expected '[', got 'H'",
    "C2[]": "col 4: unknown gate ']'",
    "Q": "col 1: unknown gate 'Q'",
    "TAU(9)": "col 1: unknown gate 'TAU(9)'",
    "H x": "col 4: expected a gate",
    "C2[H] phase=seven": "col 7: bad phase value 'seven'",
    "ZPHASE(1/2,0)": "col 1: expected an integer or a multiple of 1/3, got '1/2'",
    "-": "col 2: expected a gate",
    "H H": "col 3: expected tensor separator 'x', got 'H'",
    "ZPHASE(2/6,0)": "col 1: expected an integer or a multiple of 1/3, got '2/6'",
    "ZPHASE(1e0,0)": "col 1: expected an integer or a multiple of 1/3, got '1e0'",
    # a '-' hugging a token takes one character off it
    "--H": "col 2: unknown gate '-H'",
    "C2[--H]": "col 5: unknown gate '-H'",
    "H -x I": "col 3: expected tensor separator 'x', got '-x'",
    # more digits than int() converts
    f"ZPHASE({_LONG},0)": f"col 1: expected an integer or a multiple of 1/3, got '{_LONG}'",
    f"C2[H] phase=zeta^{_LONG}": f"col 7: bad phase value 'zeta^{_LONG}'",
}


class TestTargetExpressions:
    def test_single_gates(self):
        assert equal_exact(_target_matrix("H"), _gate("H"))
        assert equal_exact(_target_matrix("TAU(021)"), _gate("TAU", ("021",)))
        assert equal_exact(_target_matrix("R"), _gate("R"))

    def test_target_wider_than_a_circuit_is_refused(self):
        assert _target_matrix("CX x I").dim == 27
        with pytest.raises(DimMismatchError):
            parse_target("I x CX x C2[H]")
        # terms are read one at a time: C2[H] overflows before the bad term Q is read
        with pytest.raises(DimMismatchError):
            parse_target("I x CX x C2[H] x Q")

    def test_identity_and_tensor(self):
        r_i = _target_matrix("R x I")
        assert r_i.dim == 9
        assert equal_exact(r_i, gate_matrix(Op("R", (0,)), 2))
        i_r = _target_matrix("I x R")
        assert equal_exact(i_r, gate_matrix(Op("R", (1,)), 2))

    def test_negation_binds_to_one_term(self):
        h_i = np.kron(numeric_gate("H"), np.eye(3))
        assert_close(_target_matrix("-H x I"), -h_i)
        assert_close(_target_matrix("H x -I"), -h_i)
        assert_close(_target_matrix("-H x -I"), h_i)
        assert equal_exact(_target_matrix("-H x I"), _circuit(2, "H 0").scale(MINUS_ONE))

    def test_spaced_and_hugged_negation_agree(self):
        assert equal_exact(_target_matrix("- H"), _target_matrix("-H"))

    def test_cx_target(self):
        assert equal_exact(_target_matrix("CX"), gate_matrix(Op("CX", (0, 1)), 2))

    def test_controlled_block_with_sign_and_phase(self):
        minus_swap = _circuit(2, "C2[TAU(12) 1] 0 phase=-1")
        for expr in ("C2[-TAU(12)]", "C2[ - TAU(12) ]", "C2[TAU(12)] phase=-1"):
            assert equal_exact(_target_matrix(expr), minus_swap)
        assert equal_exact(
            _target_matrix("C2[SDG] phase=zeta"), _circuit(2, "C2[SDG 1] 0 phase=zeta")
        )
        assert equal_exact(
            _target_matrix("C2[-SDG] phase=zeta^4"), _circuit(2, "C2[SDG 1] 0 phase=-zeta^4")
        )
        # the numeric oracle: phase * g on the control's level-2 block
        numeric = numeric_op(Op("C2", (0,), inner=Op("SDG", (1,)), phase=(-1, 4)), 2)
        assert_close(_target_matrix("C2[-SDG] phase=zeta^4"), numeric)

    def test_parameterized_gates(self):
        assert equal_exact(
            _target_matrix("ZPHASE(1/3,-1/3)"),
            _gate("ZPHASE", (Fraction(1, 3), Fraction(-1, 3))),
        )
        assert equal_exact(_target_matrix("XPHASE(2,1)"), _gate("X"))

    @pytest.mark.parametrize(
        "text,upper",
        [("t", "T"), ("tau(12)", "TAU(12)"), ("C2[x]", "C2[X]"),
         ("zphase(1/3,-1/3)", "ZPHASE(1/3,-1/3)"), ("x x X", "X x X"),
         ("c2[sdg] x i", "C2[SDG] x I"), ("cx", "CX")],
    )
    def test_gate_names_are_case_insensitive(self, text, upper):
        assert parse_target(text) == parse_target(upper)

    @pytest.mark.parametrize("bad", list(_TARGET_ERRORS))
    def test_malformed_expressions(self, bad):
        with pytest.raises(ParseError) as err:
            parse_target(bad)
        assert str(err.value) == f"line 1, {_TARGET_ERRORS[bad]}"

    def test_phase_values(self):
        assert parse_phase_value("1") == ONE
        assert parse_phase_value("-1") == MINUS_ONE
        assert parse_phase_value("omega") == Cyclo36.omega_pow(1)
        assert parse_phase_value("omega^2") == Cyclo36.omega_pow(2)
        assert parse_phase_value("zeta^8") == Cyclo36.zeta9_pow(8)
        assert parse_phase_value("-zeta") == MINUS_ONE * Cyclo36.zeta9_pow(1)
        assert parse_phase_value("zeta^-1") == Cyclo36.zeta9_pow(8)
        assert parse_phase_value("-Omega^-1") == MINUS_ONE * Cyclo36.omega_pow(2)
        with pytest.raises(ParseError):
            parse_phase_value("two")

    @pytest.mark.parametrize("phase", ["zeta^-1", "-omega", "ZETA^4", "-1"])
    def test_target_and_circuit_phases_agree(self, phase):
        circ = parse_circuit(f"qutrits 2\nC2[SDG 1] 0 phase={phase}\n")
        target = _target_matrix(f"C2[SDG] phase={phase}")
        assert equal_exact(target, circuit_matrix(circ))


@pytest.fixture
def t_file(tmp_path):
    path = tmp_path / "t.qc"
    path.write_text("qutrits 1\nT 0\n")
    return str(path)


@pytest.fixture
def r_file(tmp_path):
    path = tmp_path / "r.qc"
    path.write_text("qutrits 1\nR 0\n")
    return str(path)


# classify FILE --ring Dalpha|A on one-qutrit inputs, pinned byte for byte
_MEMBER = "member: true\n  entries lie in {tag} up to global phase 1\n"
_ZETA_PAIR = (
    "refuted: pair (1, zeta)\n"
    "  refuted: entries 1 and zeta have conj(1)*(zeta) = zeta, which is outside "
    "{tag}; no unit global phase can repair this\n"
)
_H_DALPHA = (
    "refuted: pair (1/3 + 2/3*omega, 1/3 + 2/3*omega)\n"
    "  refuted: entries 1/3 + 2/3*omega and 1/3 + 2/3*omega have "
    "conj(1/3 + 2/3*omega)*(1/3 + 2/3*omega) = 1/3, which is outside Dalpha; "
    "no unit global phase can repair this\n"
)
_H_A = (
    "refuted: pair (1/3 + 2/3*omega, -2/3 - 1/3*omega)\n"
    "  refuted: entries 1/3 + 2/3*omega and -2/3 - 1/3*omega have "
    "conj(1/3 + 2/3*omega)*(-2/3 - 1/3*omega) = 1/3*omega, which is outside A; "
    "no unit global phase can repair this\n"
)
_XPHASE_DALPHA = (
    "refuted: pair (2/3 + 1/3*zeta^2, 2/3 + 1/3*zeta^2)\n"
    "  refuted: entries 2/3 + 1/3*zeta^2 and 2/3 + 1/3*zeta^2 have "
    "conj(2/3 + 1/3*zeta^2)*(2/3 + 1/3*zeta^2) = "
    "5/9 - 2/9*zeta + 2/9*zeta^2 - 2/9*zeta^4, which is outside Dalpha; "
    "no unit global phase can repair this\n"
)
_XPHASE_A = (
    "refuted: pair (2/3 + 1/3*zeta^2, 1/3 - 1/3*zeta^2 + 1/3*omega - 1/3*zeta^5)\n"
    "  refuted: entries 2/3 + 1/3*zeta^2 and 1/3 - 1/3*zeta^2 + 1/3*omega - 1/3*zeta^5 "
    "have conj(2/3 + 1/3*zeta^2)*(1/3 - 1/3*zeta^2 + 1/3*omega - 1/3*zeta^5) = "
    "1/9 - 2/9*zeta^2 + 1/9*omega - 1/9*zeta^4 - 2/9*zeta^5, which is outside A; "
    "no unit global phase can repair this\n"
)
_RING_PINS = [
    ("identity", "", "Dalpha", 0, _MEMBER),
    ("identity", "", "A", 0, _MEMBER),
    ("H", "H 0\n", "Dalpha", 1, _H_DALPHA),
    ("H", "H 0\n", "A", 1, _H_A),
    ("T", "T 0\n", "Dalpha", 1, _ZETA_PAIR),
    ("T", "T 0\n", "A", 1, _ZETA_PAIR),
    ("R", "R 0\n", "Dalpha", 0, _MEMBER),
    ("R", "R 0\n", "A", 0, _MEMBER),
    ("zphase", "ZPHASE 1/3 2/3 0\n", "Dalpha", 1, _ZETA_PAIR),
    ("zphase", "ZPHASE 1/3 2/3 0\n", "A", 1, _ZETA_PAIR),
    ("xphase", "XPHASE 2/3 0 0\n", "Dalpha", 1, _XPHASE_DALPHA),
    ("xphase", "XPHASE 2/3 0 0\n", "A", 1, _XPHASE_A),
]


class TestCommands:
    def test_matrix_output(self, t_file, capsys):
        assert main(["matrix", t_file]) == 0
        out = capsys.readouterr().out
        assert "qutrits: 1" in out and "dim: 3" in out and "zeta^8" in out

    def test_tcount_of_r_construction(self, capsys):
        path = str(circuits_dir() / "r_construction.qc")
        assert main(["tcount", path]) == 0
        assert "tcount: 39" in capsys.readouterr().out

    def test_verify_r_construction(self, capsys):
        path = str(circuits_dir() / "r_construction.qc")
        assert main(["verify", path, "--target", "R x I"]) == 0
        assert "result: verified" in capsys.readouterr().out

    def test_verify_refutes_wrong_target(self, t_file, capsys):
        assert main(["verify", t_file, "--target", "S"]) == 1
        assert "result: refuted" in capsys.readouterr().out

    def test_verify_phase_mode(self, tmp_path, capsys):
        path = tmp_path / "h2.qc"
        path.write_text("qutrits 1\nH 0\nH 0\n")
        assert main(["verify", str(path), "--target", "TAU(12)"]) == 1
        assert main(
            ["verify", str(path), "--target", "TAU(12)", "--mode", "phase"]
        ) == 0
        assert "phase: -1" in capsys.readouterr().out
        assert main(
            ["verify", str(path), "--target", "TAU(12)",
             "--mode", "cphase", "--phase", "-1"]
        ) == 0
        assert main(
            ["verify", str(path), "--target", "TAU(12)",
             "--mode", "cphase", "--phase", "omega"]
        ) == 1

    def test_verify_cphase_requires_phase(self, t_file, capsys):
        # a missing or malformed phase is refused before anything is printed;
        # a malformed one also in the modes that do not use it
        bad = "error: line 1, col 1: bad phase value 'bogus'\n"
        for mode, options, error in (
            ("cphase", [], "error: --mode cphase requires --phase VALUE\n"),
            ("cphase", ["--phase", "bogus"], bad),
            ("exact", ["--phase", "bogus"], bad),
            ("phase", ["--phase", "bogus"], bad),
            ("cphase", ["--phase", f"zeta^{_LONG}"],
             f"error: line 1, col 1: bad phase value 'zeta^{_LONG}'\n"),
        ):
            assert main(
                ["verify", t_file, "--target", "T", "--mode", mode, *options]
            ) == 2
            assert capsys.readouterr() == ("", error), (mode, options)

    def test_verify_dimension_mismatch_is_an_error(self, t_file, capsys):
        assert main(["verify", t_file, "--target", "R x I"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_classify_hierarchy(self, t_file, capsys):
        assert main(["classify", t_file, "--hierarchy", "3"]) == 0
        assert "level: 3" in capsys.readouterr().out

    def test_classify_hierarchy_absent(self, r_file, capsys):
        assert main(["classify", r_file, "--hierarchy", "4"]) == 1
        assert "level: none" in capsys.readouterr().out

    def test_classify_clifford(self, tmp_path, capsys):
        path = tmp_path / "h.qc"
        path.write_text("qutrits 1\nH 0\n")
        assert main(["classify", str(path), "--clifford"]) == 0
        assert "clifford: true" in capsys.readouterr().out

    def test_classify_ring_refutation(self, tmp_path, capsys):
        path = tmp_path / "ti.qc"
        path.write_text("qutrits 2\nT 0\n")
        assert main(["classify", str(path), "--ring", "Tomega"]) == 1
        assert "refuted: pair (1, zeta)" in capsys.readouterr().out

    def test_classify_ring_membership(self, t_file, capsys):
        assert main(["classify", t_file, "--ring", "Tzeta"]) == 0
        assert "member: true" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body,tag,code,out", [pin[1:] for pin in _RING_PINS],
        ids=[f"{pin[0]}-{pin[2]}" for pin in _RING_PINS],
    )
    def test_classify_real_ring_output(self, tmp_path, capsys, body, tag, code, out):
        path = tmp_path / "u.qc"
        path.write_text("qutrits 1\n" + body)
        assert main(["classify", str(path), "--ring", tag]) == code
        assert capsys.readouterr() == (out.format(tag=tag), "")

    def test_classify_obstruct(self, t_file, r_file, capsys):
        assert main(["classify", t_file, "--obstruct"]) == 0
        assert "consistent: T-count 1" in capsys.readouterr().out
        assert main(["classify", r_file, "--obstruct"]) == 1
        assert "obstructed:" in capsys.readouterr().out

    def test_classify_combined_flags_any_negative_fails(self, t_file, capsys):
        assert main(
            ["classify", t_file, "--clifford", "--hierarchy", "3"]
        ) == 1
        out = capsys.readouterr().out
        assert "clifford: false" in out and "level: 3" in out

    @pytest.mark.parametrize(
        "options",
        [["--target=--"], ["--target", "T", "--mode", "cphase", "--phase=--"]],
    )
    def test_double_dash_option_value_is_an_error(self, t_file, capsys, options):
        assert main(["verify", t_file, *options]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "qutrits,options",
        [
            (2, ["--clifford", "--obstruct"]),
            (1, ["--clifford", "--ring", "bogus"]),
            (1, ["--clifford", "--hierarchy", "0"]),
            (1, ["--clifford", "--hierarchy", "99"]),
        ],
    )
    def test_classify_rejection_prints_nothing(self, tmp_path, capsys, qutrits, options):
        path = tmp_path / "t.qc"
        path.write_text(f"qutrits {qutrits}\nT 0\n")
        assert main(["classify", str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "qutrits,options,message",
        [
            (2, ["--clifford", "--obstruct"],
             "DIM_MISMATCH: --obstruct applies to single-qutrit circuits only"),
            (1, ["--clifford", "--ring", "bogus"], "unknown ring tag: 'bogus'"),
            (1, ["--clifford", "--hierarchy", "0"], "cap must be between 1 and 5"),
            (1, ["--clifford", "--hierarchy", "99"], "cap must be between 1 and 5"),
            (2, ["--clifford", "--hierarchy", "9", "--obstruct"],
             "cap must be between 1 and 5"),
            (3, ["--clifford"], _WIDE_CLIFFORD),
            (3, ["--hierarchy", "3"], _WIDE_HIERARCHY),
            (3, ["--hierarchy", "0"], _WIDE_HIERARCHY),
            (3, ["--ring", "bogus", "--hierarchy", "3"], _WIDE_HIERARCHY),
            (3, ["--clifford", "--hierarchy", "3"], _WIDE_CLIFFORD),
            (3, ["--clifford", "--hierarchy", "0"], _WIDE_CLIFFORD),
            (3, ["--obstruct", "--clifford"], _WIDE_CLIFFORD),
        ],
    )
    def test_classify_rejection_message(self, tmp_path, capsys, qutrits, options, message):
        # with several faults, the one named is that of the first check in
        # the order --clifford, --hierarchy, --ring, --obstruct
        path = tmp_path / "t.qc"
        path.write_text(f"qutrits {qutrits}\nT 0\n")
        assert main(["classify", str(path), *options]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "lines,calls",
        [("H 0\nCX 0 1\nS 1", 1), ("X 0\nZ 1", 1), ("H 0\nT 1\nCX 1 0", 5)],
    )
    def test_classify_runs_one_clifford_test_on_the_matrix(
        self, tmp_path, capsys, monkeypatch, lines, calls
    ):
        path = tmp_path / "c.qc"
        path.write_text(f"qutrits 2\n{lines}\n")
        seen = []

        def counted(m, *args):
            seen.append(m)
            return is_clifford(m, *args)

        monkeypatch.setattr("qutrit_exact.cli.main.is_clifford", counted)
        monkeypatch.setattr("qutrit_exact.analysis.hierarchy.is_clifford", counted)
        main(["classify", str(path), "--clifford", "--hierarchy", "3"])
        m = circuit_matrix(parse_circuit(path.read_text()))
        assert sum(seen_m == m for seen_m in seen) == 1
        assert len(seen) == calls  # plus one per generator conjugate at level 3

    def test_classify_two_qutrit_clifford_output(self, tmp_path, capsys):
        path = tmp_path / "c.qc"
        path.write_text("qutrits 2\nH 0\nCX 0 1\nS 1\n")
        assert main(["classify", str(path), "--clifford", "--hierarchy", "3"]) == 0
        images = (
            "  Clifford generator images:\n"
            "  X_0 -> X^0Z^1 (x) X^0Z^0\n"
            "  Z_0 -> (omega) * X^2Z^0 (x) X^2Z^2\n"
            "  X_1 -> X^0Z^0 (x) X^1Z^1\n"
            "  Z_1 -> X^0Z^2 (x) X^0Z^1\n"
        )
        assert capsys.readouterr().out == (
            "clifford: true\n" + images + "level: 2\n  hierarchy level 2 (cap 3)\n" + images
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_classify_level_three_lists_the_generators(self, tmp_path, capsys, n):
        path = tmp_path / "t.qc"
        path.write_text(f"qutrits {n}\nT 0\n")
        assert main(["classify", str(path), "--hierarchy", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["level: 3", "  hierarchy level 3 (cap 3)"]
        names = [f"{kind}_{w}" for w in range(n) for kind in "XZ"]
        assert [line.split()[0] for line in out[2:]] == names
        assert all("conjugate is Clifford: X_0 -> " in line for line in out[2:])

    def test_classify_level_three_certificate_on_two_qutrits(self, tmp_path, capsys):
        path = tmp_path / "t.qc"
        path.write_text("qutrits 2\nT 0\n")
        assert main(["classify", str(path), "--hierarchy", "3"]) == 0
        x0, z0 = "X^1Z^0 (x) X^0Z^0", "X^0Z^1 (x) X^0Z^0"
        x1, z1 = "X^0Z^0 (x) X^1Z^0", "X^0Z^0 (x) X^0Z^1"
        assert capsys.readouterr().out == (
            "level: 3\n"
            "  hierarchy level 3 (cap 3)\n"
            "  X_0 conjugate is Clifford: X_0 -> X^1Z^2 (x) X^0Z^0, "
            f"Z_0 -> (omega^2) * {z0}, X_1 -> {x1}, Z_1 -> {z1}\n"
            "  Z_0 conjugate is Clifford: "
            f"X_0 -> (omega) * {x0}, Z_0 -> {z0}, X_1 -> {x1}, Z_1 -> {z1}\n"
            "  X_1 conjugate is Clifford: "
            f"X_0 -> {x0}, Z_0 -> {z0}, X_1 -> {x1}, Z_1 -> (omega^2) * {z1}\n"
            "  Z_1 conjugate is Clifford: "
            f"X_0 -> {x0}, Z_0 -> {z0}, X_1 -> (omega) * {x1}, Z_1 -> {z1}\n"
        )

    def test_classify_without_flags_errors(self, t_file, capsys):
        assert main(["classify", t_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        assert main(["tcount", "no_such_file.qc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_an_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_target_expression_is_an_error(self, t_file, capsys):
        assert main(["verify", t_file, "--target", "T k I"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_target_gate_with_parameters_is_an_error(self, t_file, capsys):
        assert main(["verify", t_file, "--target", "T(1)"]) == 2
        assert capsys.readouterr().err == "error: line 1, col 1: T takes no parameters\n"

    def test_circuit_file_without_statements_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.qc"
        path.write_text("# no statements\n")
        assert main(["tcount", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 1, col 1: empty circuit text\n"


# -- verify as one simulation, against the decoded two-matrix path -----------

_VERIFY_ATOMS = ("I", "H", "HDG", "R", "T", "S", "TAU(12)", "ZPHASE(1/3,2/3)",
                 "XPHASE(1,2)", "CX", "C2[H]", "C2[TAU(12)] phase=zeta^2",
                 "C2[SDG] phase=omega", "C2[T]")
# whole-circuit phases on qutrit 0: none, H H TAU(12) = -I and (S H)^3 = -omega I
_GADGETS = ((), ("H 0", "H 0", "TAU(12) 0"), ("S 0", "H 0") * 3)
_DETAILS = {
    "exact": "circuit matrix equals the target entrywise",
    "phase": "circuit matrix equals a unit multiple of the target",
    "cphase": "circuit matrix equals phase * target entrywise",
}


def _decoded_verify(text: str, target: str, mode: str, phase: str | None):
    """Exit code and stdout of verify the decoded way: the file's matrix and the
    target's matrix, each simulated and decoded, compared entry by entry."""
    m, t = circuit_matrix(parse_circuit(text)), _target_matrix(target)
    out = [f"mode: {mode}"]
    if mode == "exact":
        ok = equal_exact(m, t)
    elif mode == "phase":
        witness = equal_up_to_phase(m, t)
        ok = witness is not None
        if ok:
            out.append(f"phase: {witness}")
    else:
        unit = parse_phase_value(phase)
        out.append(f"phase: {unit}")
        ok = equal_exact(m, t.scale(unit))
    out.append(f"result: verified ({_DETAILS[mode]})" if ok
               else "result: refuted (the matrices differ)")
    return (0 if ok else 1), "\n".join(out) + "\n"


def _phase_text(unit) -> str:
    """The ``[-]zeta^e`` text of a unit +-zeta_9**e."""
    return next(f"{'-' if s < 0 else ''}zeta^{e}" for s in (1, -1) for e in range(9)
                if phase_unit((s, e)) == unit)


def _width(term: str) -> int:
    return 2 if term.lstrip("-").startswith(("CX", "C2")) else 1


def _near_misses(rng):
    """(kind, file text, target): a seeded target and a file equal to it up to a
    whole-circuit phase, then the same pair with one near miss each."""
    n, terms = rng.randint(1, 3), []
    while sum(map(_width, terms)) < n:
        room = n - sum(map(_width, terms))
        atom = rng.choice([a for a in _VERIFY_ATOMS if _width(a) <= room])
        terms.append(("-" if rng.random() < 0.3 else "") + atom)
    _, circ = parse_target(" x ".join(terms))
    word = list(random_word(rng, CT_KINDS, n, 6).ops)
    word.insert(rng.randrange(len(word) + 1), Op("T", (rng.randrange(n),)))
    ops = word + list(adjoint(Circuit(n, tuple(word))).ops) + list(circ.ops)
    gadget = rng.choice(_GADGETS)

    def text(ops):
        return print_circuit(Circuit(n, tuple(ops))) + "".join(f"{g}\n" for g in gadget)

    yield "match", text(ops), " x ".join(terms)
    t = rng.choice([i for i, op in enumerate(word) if op.kind in ("T", "TDG")])
    yield "dropped T", text(ops[:t] + ops[t + 1:]), " x ".join(terms)
    i = rng.randrange(len(ops) - 1)
    yield "moved gate", text(ops[:i] + [ops[i + 1], ops[i]] + ops[i + 2:]), " x ".join(terms)
    flip = list(terms)
    k = rng.randrange(len(flip))
    flip[k] = flip[k][1:] if flip[k].startswith("-") else "-" + flip[k]
    yield "sign", text(ops), " x ".join(flip)
    c2 = [k for k, term in enumerate(terms) if "C2" in term]
    if c2:
        off = list(terms)
        k = rng.choice(c2)
        head = off[k].split(" phase=")[0]
        off[k] = head + " phase=-zeta^5" if off[k] == head else head
        yield "phase", text(ops), " x ".join(off)
    if len(terms) > 1:
        yield "wire", text(ops), " x ".join(terms[1:] + terms[:1])


class TestOneSimulation:
    """verify simulates the file followed by the target's inverse once and compares
    the result with +-I; the oracle compares the two decoded matrices."""

    def _run(self, path: Path, text: str, argv: list[str], capsys):
        path.write_text(text, encoding="utf-8")
        code = main(["verify", str(path), *argv])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("first", [0, 15])
    def test_verdicts_match_the_decoded_path(self, first, tmp_path, capsys):
        seen, path = set(), tmp_path / "pair.qc"
        for seed in range(first, first + 15):
            for kind, text, target in _near_misses(random.Random(seed)):
                want = _decoded_verify(text, target, "phase", None)
                witness = want[1].split("phase: ")[1].split("\n")[0] if want[0] == 0 else None
                phases = ["-omega"] if witness is None else [
                    _phase_text(parse_phase_value(witness) * Cyclo36.omega_pow(k))
                    for k in (0, 1)]
                runs = [("exact", None), ("phase", None)] + [("cphase", p) for p in phases]
                for mode, phase in runs:
                    argv = [f"--target={target}", "--mode", mode]
                    argv += [] if phase is None else [f"--phase={phase}"]
                    got = self._run(path, text, argv, capsys)
                    assert got == _decoded_verify(text, target, mode, phase), (kind, argv)
                    seen.add((kind, mode, got[0]))
        for mode in ("exact", "phase", "cphase"):
            assert {c for _, m, c in seen if m == mode} == {0, 1}, mode
        assert {("match", "exact", 0), ("match", "exact", 1)} <= seen  # a whole-circuit phase
        for kind in ("dropped T", "moved gate", "sign", "phase", "wire"):
            assert (kind, "exact", 1) in seen, kind
        assert ("sign", "phase", 0) in seen  # a '-' off is a phase of -1

    def test_verify_simulates_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(circ):
            calls.append(circ)
            return circuit_scalar(circ)

        def decoded(circ):
            raise AssertionError("verify decoded a matrix")

        for module in (cli_main, sim_gates):
            monkeypatch.setattr(module, "circuit_scalar", counted)
            monkeypatch.setattr(module, "circuit_matrix", decoded)
        path = str(circuits_dir() / "r_construction.qc")
        for options, code in ((["--mode", "exact"], 0), (["--mode", "phase"], 0),
                              (["--mode", "cphase", "--phase", "omega"], 1)):
            calls.clear()
            assert main(["verify", path, "--target", "-R x -I", *options]) == code
            assert len(calls) == 1, options
        assert "phase: 1\n" in capsys.readouterr().out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["qutrit_exact", "qutrit_exact.cli.main"])
    def test_python_dash_m_runs_the_command(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(qutrit_exact.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify", "circuits/c2x.qc",
             "--target", "C2[TAU(12)]"],
            cwd=circuits_dir().parent, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert "result: refuted" in proc.stdout
        assert proc.stderr == ""


CATALOG_OUTPUT = """\
hadamard-fourth-power-identity             VERIFIED  H^4 = identity
hadamard-square-is-minus-swap              VERIFIED  H^2 = -TAU(12)
s-hadamard-cubed-global-phase              VERIFIED  (SH)^3 = -omega * identity
hadamard-euler-zxz                         VERIFIED  H = -ZXZ with phase exponents (2,2)
hadamard-euler-xzx                         VERIFIED  H = -XZX with phase exponents (2,2)
hadamard-adjoint-euler-zxz                 VERIFIED  HDG = -ZXZ with phase exponents (1,1)
hadamard-adjoint-euler-xzx                 VERIFIED  HDG = -XZX with phase exponents (1,1)
hadamard-conjugates-x-to-z                 VERIFIED  H X H^dag = Z
hadamard-conjugates-z-to-xx                VERIFIED  H Z H^dag = X^2
t-conjugates-x-with-zeta-phase             VERIFIED  T X T^dag = zeta * SDG X
zphase-ones-by-x-conjugation               VERIFIED  ZPHASE(1,1) = omega * X SDG X^dag
ctrl-x-tcount-3                            VERIFIED  exact match, T-count 3
ctrl-x-inverse-tcount-3                    VERIFIED  exact match, T-count 3
ctrl-swap12-tcount-15                      VERIFIED  exact match, T-count 15
ctrl-swap01-tcount-15                      VERIFIED  exact match, T-count 15
ctrl-swap02-tcount-15                      VERIFIED  exact match, T-count 15
ctrl-sdg-zeta-phase-tcount-8               VERIFIED  exact match, T-count 8
ctrl-zphase-ones-tcount-8                  VERIFIED  exact match, T-count 8
ctrl-neg-hdg-tcount-24                     VERIFIED  exact match, T-count 24
ctrl-neg-swap12-tcount-24                  VERIFIED  exact match, T-count 24
r-construction-tcount-39                   VERIFIED  R on qutrit 0 of 2, exact, T-count 39
r-construction-naive-tcount-63             VERIFIED  R on qutrit 0 of 2, exact, T-count 63
zeta-outside-triadic-omega-ring            VERIFIED  zeta lies outside the triadic omega ring
cubic-no-rational-root                     VERIFIED  x^3 - 3x + 1 has no rational root
t-gate-refuted-in-triadic-omega-ring       VERIFIED  refuted via pair (1, zeta)
t-gate-with-ancilla-refuted                VERIFIED  refuted via pair (1, zeta)
t-hierarchy-level-three                    VERIFIED  T sits at hierarchy level 3
r-adjoint-pinned-blocks                    VERIFIED  A = D with the pinned third-integer entries, B = C = 0
r-adjoint-obstruction                      VERIFIED  obstructed (LDE of block A = 6): residue of block C at exponent 7 is not monomially equivalent to the bordered all-1 pattern
catalog: 29 claims, 0 failed
"""


class TestCatalog:
    def test_all_claims_verified(self, capsys):
        assert main(["catalog"]) == 0
        assert capsys.readouterr().out == CATALOG_OUTPUT

    def test_corrupted_data_directory_fails_loudly(
        self, tmp_path, monkeypatch, capsys
    ):
        src = circuits_dir()
        for name in src.glob("*.qc"):
            shutil.copy(name, tmp_path / name.name)
        # tamper with one file so the construction no longer matches
        victim = tmp_path / "c2tau12.qc"
        victim.write_text(victim.read_text() + "X 0\n")
        (tmp_path / "c2x.qc").unlink()  # and delete another outright
        monkeypatch.setenv(DATA_ENV, str(tmp_path))

        assert main(["catalog"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if "FAILED" in line]
        assert any("ctrl-swap12-tcount-15" in line for line in failed)
        assert any("ctrl-x-tcount-3" in line for line in failed)
        # intact claims still verify
        assert "r-construction-tcount-39                   VERIFIED" in out


# -- fuzzing the exit contract ----------------------------------------------

_INNERS = ("X", "Z", "S", "SDG", "T", "TDG", "H", "HDG", "R", "TAU(12)",
           "TAU(021)", "ZPHASE 1/3 2", "XPHASE 1 2/3", "XPHASE 0 1/3")
_PHASES = ("", " phase=-1", " phase=zeta^4", " phase=-omega^2", " phase=zeta^-1")
_TARGET_ATOMS = ("I", "CX", "H", "-HDG", "R", "T", "TAU(12)", "ZPHASE(1/3,2/3)",
                 "XPHASE(1,2)", "C2[H]", "C2[-TAU(12)] phase=zeta^2",
                 "C2[XPHASE(1/3,0)]", "C2[SDG] phase=omega")


def _c2(kind: str, params: tuple = (), phase=None):
    return numeric_op(Op("C2", (0,), inner=Op(kind, (1,), params), phase=phase), 2)


# each atom's matrix from the numeric oracle, with its leading '-' if it has one
_ATOM_ORACLE = {
    "I": np.eye(3),
    "CX": numeric_op(Op("CX", (0, 1)), 2),
    "H": numeric_gate("H"),
    "-HDG": -numeric_gate("HDG"),
    "R": numeric_gate("R"),
    "T": numeric_gate("T"),
    "TAU(12)": numeric_gate("TAU", ("12",)),
    "ZPHASE(1/3,2/3)": numeric_gate("ZPHASE", (Fraction(1, 3), Fraction(2, 3))),
    "XPHASE(1,2)": numeric_gate("XPHASE", (1, 2)),
    "C2[H]": _c2("H"),
    "C2[-TAU(12)] phase=zeta^2": _c2("TAU", ("12",), (-1, 2)),
    "C2[XPHASE(1/3,0)]": _c2("XPHASE", (Fraction(1, 3), 0)),
    "C2[SDG] phase=omega": _c2("SDG", (), (1, 3)),
}


class TestTargetPlacement:
    """A target is the Kronecker product of its terms, leftmost term on qutrit 0."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(terms=st.lists(st.tuples(st.sampled_from(_TARGET_ATOMS), st.booleans()),
                          min_size=1, max_size=3))
    def test_terms_match_the_kronecker_product(self, terms):
        texts, numeric = [], np.eye(1)
        for atom, flip in terms:
            m = _ATOM_ORACLE[atom]
            if flip:  # add a leading '-', or drop the one the atom has
                atom, m = atom[1:] if atom.startswith("-") else "-" + atom, -m
            texts.append(atom)
            numeric = np.kron(numeric, m)
        if len(numeric) > 3**MAX_QUTRITS:
            with pytest.raises(DimMismatchError):
                parse_target(" x ".join(texts))
        else:
            assert_close(_target_matrix(" x ".join(texts)), numeric)


@st.composite
def _gate_line(draw, n: int) -> str:
    w = draw(st.integers(0, n - 1))
    if n > 1 and draw(st.booleans()):
        t = draw(st.sampled_from([v for v in range(n) if v != w]))
        head = draw(st.sampled_from(("CX", "C2", "C1", "C0", "LAMBDA")))
        if head == "CX":
            return f"CX {w} {t}"
        inner = draw(st.sampled_from(_INNERS))
        phase = "" if head == "LAMBDA" else draw(st.sampled_from(_PHASES))
        return f"{head}[{inner} {t}] {w}{phase}"
    return f"{draw(st.sampled_from(_INNERS))} {w}"


@st.composite
def _circuit_text(draw) -> str:
    n = draw(st.integers(1, 3))
    lines = draw(st.lists(_gate_line(n), max_size=6 if n < 3 else 3))
    return "\n".join([f"qutrits {n}"] + lines) + "\n"


@st.composite
def _mutated(draw, text: str) -> str:
    """``text`` with a few characters deleted, replaced or inserted."""
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        # counted from the end: small draws, which hypothesis favours, then
        # land in the gates rather than in the header
        i = len(text) - draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(("", "-", "[", "]", " ", "\n", "9", "x", "^", "/", "(", "=")))
        text = text[:i] + piece + text[i + draw(st.integers(0, 1)):]
    return text


class TestExitContractFuzz:
    """Any circuit text and target: exit 0, 1 or 2, and never a traceback."""

    @settings(max_examples=120, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matrix_and_verify(self, data):
        text = data.draw(_circuit_text().flatmap(_mutated), label="circuit")
        atoms = data.draw(st.lists(st.sampled_from(_TARGET_ATOMS), min_size=1, max_size=3))
        target = data.draw(_mutated(" x ".join(atoms)), label="target")
        mode = data.draw(st.sampled_from(("exact", "phase", "cphase")))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "fuzz.qc")
            Path(path).write_text(text, encoding="utf-8")
            for argv in (["matrix", path],
                         ["verify", path, f"--target={target}", f"--mode={mode}",
                          "--phase=-zeta^2"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert "error:" in err.getvalue(), argv
                    assert out.getvalue() == "", argv
