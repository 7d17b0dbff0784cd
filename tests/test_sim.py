"""Exact simulation engine checked against independent numeric oracles."""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import CT_KINDS, TOL, mat_complex, random_word
from qutrit_exact.circuit.core import (
    GATES,
    SINGLE_QUTRIT_KINDS,
    Circuit,
    Op,
    adjoint,
    compose,
    tensor,
)
from qutrit_exact.circuit.macros import circuits_dir, expand_macros
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.circuit.perm import TAU_LABELS
from qutrit_exact.errors import DimMismatchError, RingError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE, ZERO
from qutrit_exact.sim import gates
from qutrit_exact.sim.gates import MAX_QUTRITS, circuit_matrix, gate_local, gate_matrix
from qutrit_exact.sim.matrix import (
    UnitaryMatrix,
    controlled_target,
    equal_exact,
    equal_up_to_phase,
)

W = cmath.exp(2j * cmath.pi / 3)
Z9 = cmath.exp(2j * cmath.pi / 9)


def _numeric_gate(kind: str, params=()) -> np.ndarray:
    if kind == "X":
        return np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    if kind == "Z":
        return np.diag([1, W, W * W])
    if kind == "S":
        return np.diag([1, 1, W])
    if kind == "SDG":
        return _numeric_gate("S").conj().T
    if kind == "T":
        return np.diag([1, Z9, Z9**8])
    if kind == "TDG":
        return _numeric_gate("T").conj().T
    if kind == "H":
        return ((W - W * W) / 3) * np.array(
            [[1, 1, 1], [1, W, W * W], [1, W * W, W]], dtype=complex
        )
    if kind == "HDG":
        return _numeric_gate("H").conj().T
    if kind == "R":
        return np.diag([1, 1, -1]).astype(complex)
    if kind == "TAU":
        images = {
            "01": (1, 0, 2), "02": (2, 1, 0), "12": (0, 2, 1),
            "012": (1, 2, 0), "021": (2, 0, 1),
        }[params[0]]
        m = np.zeros((3, 3), dtype=complex)
        for c, r in enumerate(images):
            m[r][c] = 1
        return m
    if kind == "ZPHASE":
        a, b = (Fraction(p) for p in params)
        return np.diag([1, cmath.exp(2j * cmath.pi * a / 3),
                        cmath.exp(2j * cmath.pi * b / 3)])
    if kind == "XPHASE":
        h = _numeric_gate("H")
        return h @ _numeric_gate("ZPHASE", params) @ h.conj().T
    raise AssertionError(kind)


def _digits(idx: int, n: int) -> list[int]:
    return [(idx // 3 ** (n - 1 - w)) % 3 for w in range(n)]


def _index(digits: list[int], n: int) -> int:
    return sum(d * 3 ** (n - 1 - w) for w, d in enumerate(digits))


def _numeric_op(op: Op, n: int) -> np.ndarray:
    if op.kind == "CX":
        c, t = op.wires
        m = np.zeros((3**n, 3**n), dtype=complex)
        for idx in range(3**n):
            digits = _digits(idx, n)
            digits[t] = (digits[t] + digits[c]) % 3
            m[_index(digits, n)][idx] = 1
        return m
    if op.kind in ("C2", "LAMBDA"):
        # C2[g] applies phase * g when the control holds 2; LAMBDA[g] applies
        # g**j when it holds j
        c, t = op.wires[0], op.inner.wires[0]
        g = _numeric_gate(op.inner.kind, op.inner.params)
        if op.kind == "C2":
            sign, e = op.phase or (1, 0)
            blocks = (np.eye(3), np.eye(3), sign * Z9**e * g)
        else:
            blocks = (np.eye(3), g, g @ g)
        m = np.zeros((3**n, 3**n), dtype=complex)
        for idx in range(3**n):
            digits = _digits(idx, n)
            block, col = blocks[digits[c]], digits[t]
            for row in range(3):
                digits[t] = row
                m[_index(digits, n)][idx] = block[row][col]
        return m
    local = _numeric_gate(op.kind, op.params)
    acc = np.eye(1, dtype=complex)
    for w in range(n):
        acc = np.kron(acc, local if w == op.wires[0] else np.eye(3))
    return acc


def assert_close(exact: UnitaryMatrix, numeric: np.ndarray):
    got = np.array(mat_complex(exact))
    assert np.max(np.abs(got - numeric)) < TOL


class TestGateOracles:
    @pytest.mark.parametrize("kind", ["X", "Z", "S", "SDG", "H", "HDG",
                                      "T", "TDG", "R"])
    def test_plain_gates(self, kind):
        assert_close(gate_matrix(Op(kind, (0,)), 1), _numeric_gate(kind))

    @pytest.mark.parametrize("label", ["01", "02", "12", "012", "021"])
    def test_level_permutations(self, label):
        assert_close(
            gate_matrix(Op("TAU", (0,), (label,)), 1),
            _numeric_gate("TAU", (label,)),
        )

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (2, 2),
                                     (Fraction(1, 3), Fraction(-1, 3)),
                                     (Fraction(2, 3), Fraction(1, 3))])
    def test_phase_gates(self, a, b):
        params = (Fraction(a), Fraction(b))
        assert_close(
            gate_matrix(Op("ZPHASE", (0,), params), 1),
            _numeric_gate("ZPHASE", params),
        )
        assert_close(
            gate_matrix(Op("XPHASE", (0,), params), 1),
            _numeric_gate("XPHASE", params),
        )

    def test_x_gate_equals_its_phase_gate_form(self):
        x = gate_matrix(Op("X", (0,)), 1)
        xp = gate_matrix(Op("XPHASE", (0,), (Fraction(2), Fraction(1))), 1)
        assert equal_exact(x, xp)
        xdg = gate_matrix(Op("TAU", (0,), ("021",)), 1)
        xpdg = gate_matrix(Op("XPHASE", (0,), (Fraction(1), Fraction(2))), 1)
        assert equal_exact(xdg, xpdg)

    def test_t_gate_as_zphase(self):
        t = gate_matrix(Op("T", (0,)), 1)
        zp = gate_matrix(
            Op("ZPHASE", (0,), (Fraction(1, 3), Fraction(-1, 3))), 1
        )
        assert equal_exact(t, zp)

    @pytest.mark.parametrize("wires", [(0, 1), (1, 0)])
    def test_cx_both_orientations(self, wires):
        assert_close(
            gate_matrix(Op("CX", wires), 2), _numeric_op(Op("CX", wires), 2)
        )

    def test_gate_placement_on_either_wire(self):
        for wire in (0, 1):
            op = Op("H", (wire,))
            assert_close(gate_matrix(op, 2), _numeric_op(op, 2))

    def test_width_limits(self):
        with pytest.raises(ValueError):
            gate_matrix(Op("H", (0,)), MAX_QUTRITS + 1)
        assert gate_matrix(Op("H", (0,)), MAX_QUTRITS).dim == 3**MAX_QUTRITS


class TestCircuitMatrix:
    def test_random_words_against_numeric_oracle(self, rng):
        for n in (1, 2):
            for _ in range(20):
                circ = random_word(rng, CT_KINDS, n, 12)
                numeric = np.eye(3**n, dtype=complex)
                for op in circ.ops:
                    numeric = _numeric_op(op, n) @ numeric
                assert_close(circuit_matrix(circ), numeric)

    def test_controlled_words_against_numeric_oracle(self):
        rng = random.Random(0xC2)
        for n in (2, 2, 2, 3):
            for _ in range(15):
                ops = [_random_op(rng, n) for _ in range(8 if n == 2 else 4)]
                ops.append(Op("LAMBDA", (0,), inner=_random_single(rng, n - 1)))
                circ = Circuit(n, tuple(ops))
                numeric = np.eye(3**n, dtype=complex)
                for op in circ.ops:
                    numeric = _numeric_op(op, n) @ numeric
                assert_close(circuit_matrix(circ), numeric)

    def test_words_are_exactly_unitary(self, rng):
        for n in (1, 2):
            for _ in range(15):
                circ = random_word(rng, CT_KINDS, n, 25)
                m = circuit_matrix(circ)
                assert equal_exact(m.dag() @ m, UnitaryMatrix.identity(m.dim))

    def test_ops_apply_in_time_order(self):
        circ = Circuit(1, (Op("H", (0,)), Op("S", (0,))))
        h = gate_matrix(Op("H", (0,)), 1)
        s = gate_matrix(Op("S", (0,)), 1)
        assert equal_exact(circuit_matrix(circ), s @ h)

    def test_compose_multiplies_in_time_order(self, rng):
        a = random_word(rng, CT_KINDS, 2, 8)
        b = random_word(rng, CT_KINDS, 2, 8)
        assert equal_exact(
            circuit_matrix(compose(a, b)),
            circuit_matrix(b) @ circuit_matrix(a),
        )

    def test_adjoint_inverts(self, rng):
        for n in (1, 2):
            circ = random_word(rng, CT_KINDS, n, 20)
            m = circuit_matrix(circ)
            assert equal_exact(circuit_matrix(adjoint(circ)), m.dag())
            assert equal_exact(
                m @ m.dag(), UnitaryMatrix.identity(3**n)
            )

    def test_tensor_matches_kron(self, rng):
        a = random_word(rng, CT_KINDS, 1, 10)
        b = random_word(rng, CT_KINDS, 1, 10)
        ma, mb = circuit_matrix(a), circuit_matrix(b)
        assert equal_exact(circuit_matrix(tensor(a, b)), ma.tensor(mb))
        assert_close(
            ma.tensor(mb),
            np.kron(np.array(mat_complex(ma)), np.array(mat_complex(mb))),
        )

    def test_tensor_and_scale_keep_the_shared_zero(self):
        t = gate_matrix(Op("T", (0,)), 1)
        x = gate_matrix(Op("X", (0,)), 1)
        for m in (t.tensor(x), x.tensor(t), t.scale(MINUS_ONE), t.scale(0)):
            zeros = [e for row in m.rows for e in row if e.is_zero()]
            assert zeros and all(e is ZERO for e in zeros)
        assert t.tensor(x) == gate_matrix(Op("T", (0,)), 2) @ gate_matrix(Op("X", (1,)), 2)


class TestComparisons:
    def test_equal_exact_requires_same_shape(self):
        a = UnitaryMatrix.identity(3)
        b = UnitaryMatrix.identity(9)
        with pytest.raises(DimMismatchError):
            equal_exact(a, b)

    def test_phase_match_finds_the_witness(self):
        h = gate_matrix(Op("H", (0,)), 1)
        tau = gate_matrix(Op("TAU", (0,), ("12",)), 1)
        assert equal_up_to_phase(h @ h, tau) == MINUS_ONE
        assert equal_exact((h @ h), tau.scale(MINUS_ONE))

    def test_phase_match_identity_is_one(self):
        t = gate_matrix(Op("T", (0,)), 1)
        assert equal_up_to_phase(t, t) == ONE

    def test_phase_match_rejects_unrelated(self):
        t = gate_matrix(Op("T", (0,)), 1)
        h = gate_matrix(Op("H", (0,)), 1)
        assert equal_up_to_phase(t, h) is None

    def test_phase_match_checks_the_zeros_of_b(self):
        t = gate_matrix(Op("T", (0,)), 1)
        rows = [list(row) for row in t.rows]
        rows[0][1] = ONE  # a differs from t only where t is 0
        assert equal_up_to_phase(UnitaryMatrix(rows), t) is None

    def test_phase_match_rejects_nonunit_scale(self):
        t = gate_matrix(Op("T", (0,)), 1)
        doubled = t.scale(Cyclo36.from_int(2))
        assert equal_up_to_phase(doubled, t) is None


class TestControlledTarget:
    def test_block_structure(self):
        inner = gate_matrix(Op("SDG", (0,)), 1)
        phase = Cyclo36.zeta9_pow(1)
        m = controlled_target(inner, phase)
        assert m.dim == 9
        for r in range(6):
            for c in range(9):
                want = ONE if r == c else Cyclo36()
                assert m.entry(r, c) == want
                assert m.entry(c, r) == want
        for r in range(3):
            for c in range(3):
                assert m.entry(6 + r, 6 + c) == inner.entry(r, c) * phase

    def test_matches_gate_macro_semantics(self):
        inner = gate_matrix(Op("X", (0,)), 1)
        via_op = gate_matrix(Op("C2", (0,), inner=Op("X", (1,))), 2)
        assert equal_exact(via_op, controlled_target(inner))


def _reference_matrix(circ: Circuit) -> UnitaryMatrix:
    """The circuit matrix over Cyclo36, applying each op's ``gate_local`` rows
    to whole matrix rows: the dense path the integer simulator replaced."""
    n, dim = circ.n, 3**circ.n
    acc = UnitaryMatrix.identity(dim).rows
    for op in circ.ops:
        local, wires = gate_local(op)
        places = [3 ** (n - 1 - w) for w in wires]

        def offset(idx):  # the rows a local index adds on ``wires``
            return sum((idx // 3 ** (len(places) - 1 - i)) % 3 * p
                       for i, p in enumerate(places))

        out = []
        for r in range(dim):
            lrow = sum((r // p) % 3 * 3 ** (len(places) - 1 - i)
                       for i, p in enumerate(places))
            base = r - offset(lrow)
            terms = [(c, acc[base + offset(lcol)])
                     for lcol, c in enumerate(local[lrow]) if not c.is_zero()]
            if len(terms) == 1 and terms[0][0] == ONE:
                out.append(terms[0][1])
                continue
            row = []
            for k in range(dim):
                s = ZERO
                for c, src in terms:
                    if not src[k].is_zero():
                        s = s + c * src[k]
                row.append(s)
            out.append(tuple(row))
        acc = tuple(out)
    return UnitaryMatrix(acc)


def _random_single(rng: random.Random, wire: int) -> Op:
    kind = rng.choice(sorted(SINGLE_QUTRIT_KINDS))
    params: tuple = ()
    if kind == "TAU":
        params = (rng.choice(TAU_LABELS),)
    elif kind in ("ZPHASE", "XPHASE"):
        params = (Fraction(rng.randrange(9), 3), Fraction(rng.randrange(9), 3))
    return Op(kind, (wire,), params)


def _random_op(rng: random.Random, n: int) -> Op:
    """C2 (with or without a phase), LAMBDA, CX or a single-qutrit gate."""
    wire = rng.randrange(n)
    roll = rng.random() if n > 1 else 1.0
    if roll < 0.45:
        other = rng.choice([w for w in range(n) if w != wire])
        if roll < 0.1:
            return Op("CX", (wire, other))
        if roll < 0.2:
            return Op("LAMBDA", (wire,), inner=_random_single(rng, other))
        if roll < 0.3:  # a dense inner gate
            kind = rng.choice(("H", "HDG", "XPHASE"))
            params = (Fraction(rng.randrange(9), 3), Fraction(1, 3)) if kind == "XPHASE" else ()
            inner = Op(kind, (other,), params)
        else:
            inner = _random_single(rng, other)
        phase = (rng.choice((1, -1)), rng.randrange(9)) if rng.random() < 0.7 else None
        return Op("C2", (wire,), inner=inner, phase=phase)
    return _random_single(rng, wire)


def _dense_op(rng: random.Random, n: int) -> Op:
    """H, HDG or an XPHASE with a third on one wire, or C2[H] or LAMBDA[XPHASE]
    on two: each adds 1 or 2 to the circuit's s-exponent d."""
    wire = rng.randrange(n)
    xphase = (Fraction(rng.randrange(9), 3), Fraction(1, 3))
    roll = rng.random() if n > 1 else 0.0
    if roll < 0.4:
        kind = rng.choice(("H", "HDG", "XPHASE"))
        return Op(kind, (wire,), xphase if kind == "XPHASE" else ())
    other = rng.choice([w for w in range(n) if w != wire])
    if roll < 0.7:
        return Op("C2", (wire,), inner=Op("H", (other,)), phase=(-1, rng.randrange(9)))
    return Op("LAMBDA", (wire,), inner=Op("XPHASE", (other,), xphase))


class TestIntegerSimulator:
    """The integer simulator against the Cyclo36 reference, entry for entry."""

    def test_bundled_circuits(self):
        files = sorted(circuits_dir().glob("*.qc"))
        assert len(files) == 11
        for path in files:
            circ = parse_circuit(path.read_text(encoding="utf-8"))
            assert circuit_matrix(circ) == _reference_matrix(circ), path.name

    def test_expanded_three_qutrit_macro(self):
        circ = expand_macros(parse_circuit("qutrits 3\nR 0\nC2[TAU(12) 2] 1\n"))
        assert circ.n == 3 and len(circ.ops) > 300
        assert circuit_matrix(circ) == _reference_matrix(circ)

    def test_random_words_over_every_gate_form(self):
        rng = random.Random(0x51AB)
        for _ in range(240):
            n = rng.choice((1, 1, 2, 2, 2, 3))
            length = rng.randint(1, 10 if n < 3 else 4)
            circ = Circuit(n, tuple(_random_op(rng, n) for _ in range(length)))
            assert circuit_matrix(circ) == _reference_matrix(circ), circ

    @pytest.mark.parametrize("n,dense", [(1, 300), (2, 150), (3, 30)])
    def test_long_dense_words_need_the_full_lane_width(self, n, dense):
        # the final lanes reach 3**(d/2), so lanes of d/2 + O(1) bits overflow
        rng = random.Random(0x1A4E + n)
        circ = Circuit(n, tuple(_dense_op(rng, n) for _ in range(dense)))
        assert circuit_matrix(circ) == _reference_matrix(circ)

    def test_zero_entries_share_one_object(self):
        m = circuit_matrix(Circuit(2, (Op("H", (0,)), Op("CX", (0, 1)))))
        zeros = [e for row in m.rows for e in row if e.is_zero()]
        assert zeros and all(e is ZERO for e in zeros)

    def test_entry_outside_the_ring_is_a_package_error(self):
        half = Cyclo36.from_fraction(Fraction(1, 2))
        with pytest.raises(RingError):
            gates._dense(((half,),))
        with pytest.raises(RingError):
            gates._dense(((Cyclo36.zeta_pow(1),),))

    def test_which_forms_compile_to_monomial_data(self):
        def monomial(op: Op) -> bool:
            inner = (op.inner.kind, op.inner.params) if op.inner else (None, ())
            return gates._compiled(op.kind, op.params, op.phase, *inner)[0] is not None

        def controlled(g: Op) -> list[Op]:
            return [Op("LAMBDA", (0,), inner=g)] + [
                Op("C2", (0,), inner=g, phase=phase) for phase in (None, (-1, 0), (1, 4))
            ]

        pairs = [(Fraction(a, 3), Fraction(b)) for a in range(9)
                 for b in (0, Fraction(1, 3), 1, 2)]
        mono = [Op(kind, (1,)) for kind, facts in GATES.items() if facts.images]
        mono += [Op("TAU", (1,), (label,)) for label in TAU_LABELS]
        mono += [Op("ZPHASE", (1,), ab) for ab in pairs]
        # H * diag(1, omega^a, omega^b) * H^dag is I or a cyclic shift exactly
        # when the diagonal is a power of Z
        shifts = ((0, 0), (1, 2), (2, 1))
        mono += [Op("XPHASE", (1,), ab) for ab in shifts]
        dense = [Op("H", (1,)), Op("HDG", (1,))]
        dense += [Op("XPHASE", (1,), ab) for ab in pairs if ab not in shifts]
        assert monomial(Op("CX", (0, 1)))
        for g in mono:
            assert all(monomial(op) for op in [g] + controlled(g)), g
        for g in dense:
            assert not any(monomial(op) for op in [g] + controlled(g)), g

    def test_hadamard_is_one_power_of_s_with_unit_terms(self):
        for kind in ("H", "HDG"):
            k, terms = gates._dense(gate_local(Op(kind, (0,)))[0])
            assert k == 1
            assert all(len(t) == 1 and abs(t[0][0]) == 1 for row in terms for t in row)
