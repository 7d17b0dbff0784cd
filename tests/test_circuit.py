"""Circuit language: parsing, printing, structure, and level permutations."""

from fractions import Fraction

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CT_KINDS, random_any_op, random_word
from qutrit_exact.circuit import TAU_LABELS
from qutrit_exact.circuit.core import (
    Circuit,
    Op,
    adjoint,
    gate_facts,
    op_text,
    print_circuit,
    tensor,
)
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.errors import ParseError
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix


_CLASH = "line 2, col 1: control and target wires must differ"


class TestParsing:
    def test_full_gate_inventory(self):
        text = """
        # every base form on two qutrits
        qutrits 2
        X 0
        Z 1
        S 0
        SDG 1
        H 0
        HDG 1
        T 0
        TDG 1
        R 0
        TAU(12) 1
        TAU(021) 0
        ZPHASE 1/3 -1/3 0
        XPHASE 2 1 1
        CX 0 1
        C2[X 1] 0
        C2[SDG 1] 0 phase=zeta
        C2[HDG 1] 0 phase=-1
        LAMBDA[TAU(12) 1] 0
        """
        circ = parse_circuit(text)
        assert circ.n == 2
        assert len(circ.ops) == 18
        # phase exponents live modulo 3: -1/3 normalizes to 8/3
        assert circ.ops[11].params == (Fraction(1, 3), Fraction(8, 3))
        assert circ.ops[14].inner.kind == "X"
        assert circ.ops[15].phase == (1, 1)
        assert circ.ops[16].phase == (-1, 0)
        assert circ.ops[17].kind == "LAMBDA"

    def test_gate_names_are_case_insensitive(self):
        circ = parse_circuit("qutrits 1\nh 0\nsdg 0\n")
        assert tuple(op.kind for op in circ.ops) == ("H", "SDG")

    def test_comments_and_blank_lines(self):
        circ = parse_circuit("# top\n\nqutrits 1\nH 0  # inline\n\n")
        assert len(circ.ops) == 1

    @pytest.mark.parametrize(
        "text,canonical",
        [("h\t0", "H 0"), ("cx 0 1", "CX 0 1"), ("H +0", "H 0"), ("H -0", "H 0"),
         ("T 0 # comment", "T 0"), ("  Tdg\t 1\t", "TDG 1"), ("cX\t1  +0#c", "CX 1 0"),
         ("tau(021)\t+1", "TAU(021) 1"),
         # shapes the plain reader leaves to the full grammar
         ("H\u00a00", "H 0"), ("H 0001", "H 1"), ("CX 0 \u0661", "CX 0 1"),
         ("C2[H 1] 0", "C2[H 1] 0")],
    )
    def test_accepted_spellings(self, text, canonical):
        assert parse_circuit(f"qutrits 2\n{text}\n") == parse_circuit(f"qutrits 2\n{canonical}\n")

    def test_print_parse_roundtrip(self, rng):
        circ = random_word(rng, CT_KINDS, 2, 30)
        extra = (
            Op("C2", (0,), inner=Op("TAU", (1,), ("12",)), phase=(-1, 0)),
            Op("C2", (1,), inner=Op("SDG", (0,)), phase=(1, 1)),
            Op("LAMBDA", (0,), inner=Op("S", (1,))),
            Op("ZPHASE", (0,), (Fraction(2, 3), Fraction(1, 3))),
        )
        circ = Circuit(2, circ.ops + extra)
        text = print_circuit(circ, header=("roundtrip case",))
        assert parse_circuit(text) == circ

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reader_round_trip_over_varied_text(self, seed):
        """Printed circuits over every gate form, respelled as a person might
        type them, read back as the same ops."""
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3))
        circ = Circuit(n, tuple(random_any_op(rng, n) for _ in range(rng.randint(0, 25))))
        lines = []
        for i, line in enumerate(print_circuit(circ).splitlines()):
            line = "".join(c.swapcase() if rng.random() < 0.5 else c for c in line)
            # after the header, a wire index or a whole exponent may carry a '+'
            line = " ".join("+" + tok if i and re.fullmatch(r"\d+\]?", tok) and rng.random() < 0.3
                            else tok for tok in line.split(" "))
            line = re.sub(" ", lambda _: rng.choice((" ", "  ", "\t", " \t ")), line)
            line = rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "\t", " # note", "#x"))
            lines.append(line)
            if rng.random() < 0.2:
                lines.append(rng.choice(("", "   ", "# a comment", "\t# H 0")))
        assert parse_circuit("\n".join(lines) + "\n") == circ

    def test_level_conjugated_controls(self):
        # C0/C1 trigger on |0> / |1> by conjugating the control wire
        base = parse_circuit("qutrits 2\nC2[S 1] 0\n")
        for head, level in (("C0", 0), ("C1", 1)):
            circ = parse_circuit(f"qutrits 2\n{head}[S 1] 0\n")
            m = circuit_matrix(circ)
            s = gate_matrix(Op("S", (0,)), 1)
            ident = UnitaryMatrix.identity(3)
            blocks = [ident, ident, ident]
            blocks[level] = s
            rows = [
                [
                    blocks[r // 3].entry(r % 3, c % 3)
                    if r // 3 == c // 3 else UnitaryMatrix.identity(9).entry(r, c) * 0
                    for c in range(9)
                ]
                for r in range(9)
            ]
            assert m == UnitaryMatrix(rows)
            assert circuit_matrix(base).dim == 9

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ("H 0\n", "qutrits"),
            ("qutrits 0\nH 0\n", "qutrit count"),
            # digits that str.isdigit accepts but int() does not
            ("qutrits \u00b2\nH 0\n", "line 1, col 9: bad qutrit count '\u00b2'"),
            ("qutrits \u2460\nH 0\n", "line 1, col 9: bad qutrit count '\u2460'"),
            # more digits than int() converts
            (f"qutrits {'9' * 5000}\nH 0\n", "line 1, col 9: bad qutrit count '999"),
            ("qutrits 1\nQ 0\n", "unknown gate"),
            ("qutrits 1\nH 3\n", "wire"),
            ("qutrits 1\nH x\n", "wire"),
            ("qutrits 1\nTAU(99) 0\n", "unknown gate"),
            # more digits than int() converts, at the token's column
            (f"qutrits 1\nH {'9' * 5000}\n",
             f"line 2, col 3: wire {'9' * 5000} out of range for 1 qutrits"),
            (f"qutrits 2\nC2[X 1] 0 phase=zeta^{'9' * 5000}\n",
             f"line 2, col 11: bad phase value 'zeta^{'9' * 5000}'"),
            ("qutrits 1\nZPHASE 1/2 0 0\n", "multiple of 1/3"),
            ("qutrits 2\nC2[X 0] 0\n", "differ"),
            ("qutrits 2\nC2[CX 0 1] 0\n", "unknown gate"),
            ("qutrits 2\nC2[X 1] 0 junk\n", "trailing"),
            ("qutrits 2\nLAMBDA[X 1] 0 phase=zeta\n", "trailing"),
            ("qutrits 1\nH 0 0\n", "trailing"),
            # the wire clash is reported before a bad phase or a trailing token
            ("qutrits 2\nC2[TAU(12) 0] 0 junk\n", _CLASH),
            ("qutrits 2\nC1[SDG 0] 0 phase=bogus\n", _CLASH),
            ("qutrits 2\nLAMBDA[X 0] 0 phase=bogus\n", _CLASH),
            ("qutrits 2\nCX 1 1 junk\n", _CLASH),
            # no statement at all
            ("", "line 1, col 1: empty circuit text"),
            ("# a comment only\n\n", "line 1, col 1: empty circuit text"),
        ],
    )
    def test_rejects_malformed_input(self, bad, fragment):
        with pytest.raises(ParseError) as err:
            parse_circuit(bad)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "bad,error",
        [
            ("Q 0", "col 1: unknown gate 'Q'"),
            ("H 3", "col 3: wire 3 out of range for 2 qutrits"),
            ("H x", "col 3: expected a wire index, got 'x'"),
            ("TAU(99) 0", "col 1: unknown gate 'TAU(99)'"),
            ("H 0 0", "col 5: unexpected trailing token '0'"),
            ("CX 1 1", "col 1: control and target wires must differ"),
            ("CX 0 5", "col 6: wire 5 out of range for 2 qutrits"),
            ("ZPHASE(1,2) 0", "col 1: unknown gate 'ZPHASE(1,2)'"),
            # a non-ASCII digit is a wire index, read as int() reads it
            ("H \u0663", "col 3: wire 3 out of range for 2 qutrits"),
            ("T 0 0 # c", "col 5: unexpected trailing token '0'"),
            ("h\t-1", "col 3: wire -1 out of range for 2 qutrits"),
            ("cx 0 00002", "col 6: wire 2 out of range for 2 qutrits"),
            ("H(1) 0", "col 1: H takes no parameters"),
            ("TAU(0) 1", "col 1: unknown gate 'TAU(0)'"),
        ],
    )
    def test_plain_shaped_lines_report_the_full_error(self, bad, error):
        # a valid line first: the error names the line it is on
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qutrits 2\nH 0\n{bad}\n")
        assert str(err.value) == f"line 3, {error}"

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qutrits 1\nH 0\nQ 0\n")
        assert "line 3" in str(err.value)


class TestStructure:
    def test_wire_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(1, (Op("H", (1,)),))
        with pytest.raises(ValueError):
            Circuit(0, ())

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op("CX", (0, 0))
        with pytest.raises(ValueError):
            Op("TAU", (0,), ("31",))
        with pytest.raises(ValueError):
            Op("ZPHASE", (0,), (Fraction(1, 2), Fraction(0)))
        with pytest.raises(ValueError):
            Op("C2", (0,), inner=Op("CX", (0, 1)))
        with pytest.raises(ValueError, match="T takes no target gate"):
            Op("T", (0,), inner=Op("X", (1,)))
        with pytest.raises(ValueError, match="CX takes no target gate"):
            Op("CX", (0, 1), inner=Op("X", (1,)))
        with pytest.raises(ValueError, match="phase exponent must be an integer"):
            Op("C2", (0,), inner=Op("X", (1,)), phase=(1, 1.5))

    def test_tensor_shifts_bottom_wires(self):
        top = Circuit(1, (Op("H", (0,)),))
        bottom = Circuit(2, (Op("CX", (0, 1)),))
        joined = tensor(top, bottom)
        assert joined.n == 3
        assert joined.ops[1].wires == (1, 2)

    def test_adjoint_reverses_and_inverts(self):
        circ = parse_circuit(
            "qutrits 2\nT 0\nC2[SDG 1] 0 phase=zeta\nZPHASE 1/3 2/3 1\nCX 0 1\n"
        )
        adj = adjoint(circ)
        m = circuit_matrix(circ)
        assert circuit_matrix(adj) == m.dag()

    def test_op_text_forms(self):
        assert op_text(Op("TAU", (1,), ("021",))) == "TAU(021) 1"
        assert (
            op_text(Op("ZPHASE", (0,), (Fraction(1, 3), Fraction(2))))
            == "ZPHASE 1/3 2 0"
        )
        c2 = Op("C2", (0,), inner=Op("SDG", (1,)), phase=(1, 1))
        assert op_text(c2) == "C2[SDG 1] 0 phase=zeta^1"


class TestPermutations:
    def test_matrix_agreement(self):
        for label in TAU_LABELS:
            images = gate_facts("TAU", (label,)).images
            m = gate_matrix(Op("TAU", (0,), (label,)), 1)
            for c in range(3):
                assert not m.entry(images[c], c).is_zero()
