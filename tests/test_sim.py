"""Exact simulation engine checked against independent numeric oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CT_KINDS,
    assert_close,
    every_controlled_op,
    mat_complex,
    numeric_gate,
    numeric_op,
    random_any_op,
    random_op,
    random_single_op,
    random_word,
)
from qutrit_exact.circuit import TAU_LABELS
from qutrit_exact.circuit.core import GATES, Circuit, Op, adjoint, gate_facts, tensor
from qutrit_exact.circuit.macros import circuits_dir, expand_macros
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.errors import DimMismatchError, RingError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO
from qutrit_exact.sim import gates
from qutrit_exact.sim.gates import MAX_QUTRITS, circuit_matrix, circuit_scalar, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix


class TestGateOracles:
    @pytest.mark.parametrize("kind", ["X", "Z", "S", "SDG", "H", "HDG",
                                      "T", "TDG", "R"])
    def test_plain_gates(self, kind):
        assert_close(gate_matrix(Op(kind, (0,)), 1), numeric_gate(kind))

    @pytest.mark.parametrize("label", ["01", "02", "12", "012", "021"])
    def test_level_permutations(self, label):
        assert_close(
            gate_matrix(Op("TAU", (0,), (label,)), 1),
            numeric_gate("TAU", (label,)),
        )

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (2, 2),
                                     (Fraction(1, 3), Fraction(-1, 3)),
                                     (Fraction(2, 3), Fraction(1, 3))])
    def test_phase_gates(self, a, b):
        params = (Fraction(a), Fraction(b))
        assert_close(
            gate_matrix(Op("ZPHASE", (0,), params), 1),
            numeric_gate("ZPHASE", params),
        )
        assert_close(
            gate_matrix(Op("XPHASE", (0,), params), 1),
            numeric_gate("XPHASE", params),
        )

    def test_x_gate_equals_its_phase_gate_form(self):
        x = gate_matrix(Op("X", (0,)), 1)
        xp = gate_matrix(Op("XPHASE", (0,), (Fraction(2), Fraction(1))), 1)
        assert x == xp
        xdg = gate_matrix(Op("TAU", (0,), ("021",)), 1)
        xpdg = gate_matrix(Op("XPHASE", (0,), (Fraction(1), Fraction(2))), 1)
        assert xdg == xpdg

    def test_t_gate_as_zphase(self):
        t = gate_matrix(Op("T", (0,)), 1)
        zp = gate_matrix(
            Op("ZPHASE", (0,), (Fraction(1, 3), Fraction(-1, 3))), 1
        )
        assert t == zp

    @pytest.mark.parametrize("wires", [(0, 1), (1, 0)])
    def test_cx_both_orientations(self, wires):
        assert_close(
            gate_matrix(Op("CX", wires), 2), numeric_op(Op("CX", wires), 2)
        )
        # CX|j,t> = |j,t+j> is LAMBDA[X]
        lam = Op("LAMBDA", wires[:1], inner=Op("X", wires[1:]))
        assert gate_matrix(Op("CX", wires), 2) == gate_matrix(lam, 2)

    def test_gate_placement_on_either_wire(self):
        for wire in (0, 1):
            op = Op("H", (wire,))
            assert_close(gate_matrix(op, 2), numeric_op(op, 2))

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
                    numeric = numeric_op(op, n) @ numeric
                assert_close(circuit_matrix(circ), numeric)

    def test_controlled_words_against_numeric_oracle(self):
        rng = random.Random(0xC2)
        for n in (2, 2, 2, 3):
            for _ in range(15):
                ops = [random_any_op(rng, n) for _ in range(8 if n == 2 else 4)]
                ops.append(Op("LAMBDA", (0,), inner=random_single_op(rng, n - 1)))
                circ = Circuit(n, tuple(ops))
                numeric = np.eye(3**n, dtype=complex)
                for op in circ.ops:
                    numeric = numeric_op(op, n) @ numeric
                assert_close(circuit_matrix(circ), numeric)

    def test_words_are_exactly_unitary(self, rng):
        for n in (1, 2):
            for _ in range(15):
                circ = random_word(rng, CT_KINDS, n, 25)
                m = circuit_matrix(circ)
                assert m.dag() @ m == UnitaryMatrix.identity(m.dim)

    def test_ops_apply_in_time_order(self):
        circ = Circuit(1, (Op("H", (0,)), Op("S", (0,))))
        h = gate_matrix(Op("H", (0,)), 1)
        s = gate_matrix(Op("S", (0,)), 1)
        assert circuit_matrix(circ) == s @ h

    def test_compose_multiplies_in_time_order(self, rng):
        a = random_word(rng, CT_KINDS, 2, 8)
        b = random_word(rng, CT_KINDS, 2, 8)
        assert circuit_matrix(Circuit(2, a.ops + b.ops)) == circuit_matrix(b) @ circuit_matrix(a)

    def test_adjoint_inverts(self, rng):
        for n in (1, 2):
            circ = random_word(rng, CT_KINDS, n, 20)
            m = circuit_matrix(circ)
            assert circuit_matrix(adjoint(circ)) == m.dag()
            assert m @ m.dag() == UnitaryMatrix.identity(3**n)

    def test_tensor_matches_kron(self, rng):
        a = random_word(rng, CT_KINDS, 1, 10)
        b = random_word(rng, CT_KINDS, 1, 10)
        ma, mb = circuit_matrix(a), circuit_matrix(b)
        assert_close(
            circuit_matrix(tensor(a, b)),
            np.kron(np.array(mat_complex(ma)), np.array(mat_complex(mb))),
        )

    def test_tensor_and_scale_keep_the_shared_zero(self):
        t, x = Circuit(1, (Op("T", (0,)),)), Circuit(1, (Op("X", (0,)),))
        tx = circuit_matrix(tensor(t, x))
        for m in (tx, circuit_matrix(tensor(x, t)), tx.scale(MINUS_ONE), tx.scale(0)):
            zeros = [e for row in m.rows for e in row if e.is_zero()]
            assert zeros and all(e is ZERO for e in zeros)
        assert tx == gate_matrix(Op("T", (0,)), 2) @ gate_matrix(Op("X", (1,)), 2)


def _schoolbook(a: UnitaryMatrix, b: UnitaryMatrix) -> tuple:
    """The rows of a @ b from Cyclo36 ``*`` and ``+``, one entry at a time."""
    n = a.dim
    return tuple(
        tuple(sum((a.entry(i, k) * b.entry(k, j) for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


_THIRDS = tuple(Fraction(k, 3) for k in range(-3, 4))


def _phased_word(rng: random.Random, n: int, length: int) -> UnitaryMatrix:
    """A seeded n-qutrit word over Clifford+T, CX, R and ZPHASE/XPHASE with thirds,
    times an odd power of zeta_36, so that odd coordinates occur."""
    ops = [random_op(rng, CT_KINDS, n) for _ in range(length)]
    for kind in ("R", "ZPHASE", "XPHASE") * 2:
        params = (rng.choice(_THIRDS), rng.choice(_THIRDS)) if kind != "R" else ()
        ops.insert(rng.randrange(len(ops) + 1), Op(kind, (rng.randrange(n),), params))
    return circuit_matrix(Circuit(n, tuple(ops))).scale(Cyclo36.zeta_pow(rng.randrange(1, 36, 2)))


class TestMatmul:
    """``@`` against the schoolbook product it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phased_words(self, rng, n):
        for _ in range(3 if n < 3 else 1):
            a, b = _phased_word(rng, n, 12), _phased_word(rng, n, 12)
            assert any(c for row in a.rows for e in row for c in e.numerators[1::2])
            assert (a @ b).rows == _schoolbook(a, b)

    @pytest.mark.parametrize(
        "bound", [1, 2**20 - 1, 2**40, 3**30], ids=["1", "2^20-1", "2^40", "3^30"]
    )
    def test_widest_lanes(self, rng, bound):
        # non-unitary inputs whose entries have all 12 numerators at +-B with one
        # sign, over mixed denominators (so over their common denominator they grow
        # further), with zero entries; then one sign everywhere, over one denominator
        dens = (1, 2, 3, 5, 9, 27, 4 * 81)

        def entry():
            if rng.random() < 0.2:
                return ZERO
            return Cyclo36([rng.choice((1, -1)) * bound] * 12, rng.choice(dens))

        for dim in (3, 9, 27):
            for _ in range(2 if dim < 27 else 1):
                a, b = (UnitaryMatrix([[entry() for _ in range(dim)] for _ in range(dim)])
                        for _ in range(2))
                assert (a @ b).rows == _schoolbook(a, b), dim
            full = UnitaryMatrix([[Cyclo36([bound] * 12)] * dim] * dim)
            assert (full @ full).rows == _schoolbook(full, full), dim

    def test_entry_without_a_term_is_the_shared_zero(self):
        t, x = gate_matrix(Op("T", (0,)), 2), gate_matrix(Op("X", (1,)), 2)
        zeros = [e for row in (t @ x).rows for e in row if e.is_zero()]
        assert len(zeros) == 72 and all(e is ZERO for e in zeros)

    def test_dimension_mismatch(self):
        with pytest.raises(DimMismatchError, match="^DIM_MISMATCH: 3 vs 9$"):
            UnitaryMatrix.identity(3) @ UnitaryMatrix.identity(9)


class TestControlledTarget:
    def test_block_structure(self):
        inner = gate_matrix(Op("SDG", (0,)), 1)
        phase = Cyclo36.zeta9_pow(1)
        (op,) = parse_circuit("qutrits 2\nC2[SDG 1] 0 phase=zeta\n").ops
        m = gate_matrix(op, 2)
        assert m.dim == 9
        for r in range(6):
            for c in range(9):
                want = ONE if r == c else Cyclo36()
                assert m.entry(r, c) == want
                assert m.entry(c, r) == want
        for r in range(3):
            for c in range(3):
                assert m.entry(6 + r, 6 + c) == inner.entry(r, c) * phase


# H = (omega - omega^2)/3 * [[1,1,1],[1,w,w^2],[1,w^2,w]] and its adjoint,
# written out here so that the reference shares no gate matrix with
# ``gate_local``; every other gate is read off its ``gate_facts``
_REF_H = tuple(tuple((OMEGA - OMEGA2) * Fraction(1, 3) * Cyclo36.omega_pow(r * c)
                     for c in range(3)) for r in range(3))
_REF_HDG = tuple(tuple((OMEGA2 - OMEGA) * Fraction(1, 3) * Cyclo36.omega_pow(-r * c)
                       for c in range(3)) for r in range(3))


def _reference_single(kind: str, params: tuple) -> UnitaryMatrix:
    if kind in ("H", "HDG"):
        return UnitaryMatrix(_REF_H if kind == "H" else _REF_HDG)
    if kind == "XPHASE":
        z = _reference_single("ZPHASE", params)
        return UnitaryMatrix(_REF_H) @ z @ UnitaryMatrix(_REF_HDG)
    facts = gate_facts(kind, params)
    rows = [[ZERO] * 3 for _ in range(3)]
    for col, (row, e) in enumerate(zip(facts.images, facts.zeta18)):
        rows[row][col] = Cyclo36.zeta_pow(2 * e)
    return UnitaryMatrix(tuple(tuple(r) for r in rows))


def _reference_local(op: Op):
    """An op's local rows, with a two-qutrit gate as the block diagonal over
    the control digit j: g**j for LAMBDA[g] and CX = LAMBDA[X], and
    sign * zeta_9**e * g for C2[g] only at j = 2."""
    if op.kind not in ("CX", "C2", "LAMBDA"):
        return _reference_single(op.kind, op.params).rows
    inner = ("X", ()) if op.kind == "CX" else (op.inner.kind, op.inner.params)
    g = _reference_single(*inner)
    eye = UnitaryMatrix.identity(3)
    if op.kind == "C2":
        sign, e = op.phase or (1, 0)
        blocks = (eye, eye, g.scale(Cyclo36.zeta9_pow(e) * sign))
    else:
        blocks = (eye, g, g @ g)
    local = [[ZERO] * 9 for _ in range(9)]
    for j, block in enumerate(blocks):
        for r in range(3):
            for c in range(3):
                local[3 * j + r][3 * j + c] = block.rows[r][c]
    return tuple(tuple(row) for row in local)


def _reference_matrix(circ: Circuit) -> UnitaryMatrix:
    """The circuit matrix over Cyclo36, applying each op's ``_reference_local``
    rows to whole matrix rows: the dense path the integer simulator replaced."""
    n, dim = circ.n, 3**circ.n
    acc = UnitaryMatrix.identity(dim).rows
    for op in circ.ops:
        local, wires = _reference_local(op), op.all_wires()
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


def _phased_dense_word(rng: random.Random, length: int = 40) -> Circuit:
    """A 3-qutrit word in which T, Z and ``C2[...] phase=`` gates put different
    pending exponents on the source rows of every following H, HDG or C2[H]."""
    ops: list[Op] = []
    while len(ops) < length:
        w, other = rng.sample(range(3), 2)
        ops.append(Op(rng.choice(("T", "TDG", "Z")), (w,)))
        inner = Op(rng.choice(("T", "Z", "SDG", "X")), (rng.choice((w, 3 - w - other)),))
        ops.append(Op("C2", (other,), inner=inner, phase=(rng.choice((1, -1)), rng.randrange(1, 9))))
        if rng.random() < 0.5:
            ops.append(Op(rng.choice(("H", "HDG")), (w,)))
        else:
            ops.append(Op("C2", (other,), inner=Op("H", (w,)), phase=(-1, rng.randrange(9))))
    return Circuit(3, tuple(ops))


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
            circ = Circuit(n, tuple(random_any_op(rng, n) for _ in range(length)))
            assert circuit_matrix(circ) == _reference_matrix(circ), circ
        for circ in every_controlled_op():
            assert circuit_matrix(circ) == _reference_matrix(circ), circ

    def test_pending_exponents_differ_across_dense_sources(self):
        rng = random.Random(0x9E7D)
        for _ in range(4):
            circ = _phased_dense_word(rng)
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
            return gates._step(2, op)[0] is not None

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
            k, terms = gates._dense(gates.gate_local(Op(kind, (0,)))[0])
            assert k == 1
            assert all(len(t) == 1 and abs(t[0][0]) == 1 for row in terms for t in row)


def _decoded_scalar(circ: Circuit) -> Cyclo36 | None:
    """m[0][0] when the decoded matrix m is m[0][0] * I, else None."""
    m = circuit_matrix(circ)
    c = m.entry(0, 0)
    return c if m == UnitaryMatrix.identity(m.dim).scale(c) else None


def _on(wire: int, *kinds: str) -> list[Op]:
    return [Op(kind, (wire,), ("12",) if kind == "TAU" else ()) for kind in kinds]


class TestComparisons:
    """Two circuits agree up to a phase c when circuit_scalar of the one
    followed by the adjoint of the other is c."""

    def test_phase_match_finds_the_witness(self):
        h = gate_matrix(Op("H", (0,)), 1)
        tau = gate_matrix(Op("TAU", (0,), ("12",)), 1)
        assert circuit_scalar(Circuit(1, tuple(_on(0, "H", "H", "TAU")))) == MINUS_ONE
        assert h @ h == tau.scale(MINUS_ONE)
        # (S H)^3 = -omega * I; the other order gives the conjugate witness
        sh = Circuit(1, tuple(_on(0, "S", "H") * 3))
        assert circuit_scalar(sh) == -OMEGA
        assert circuit_scalar(adjoint(sh)) == (-OMEGA).conjugate()

    def test_phase_match_rejects_unrelated(self):
        t = gate_matrix(Op("T", (0,)), 1)
        h = gate_matrix(Op("H", (0,)), 1)
        assert circuit_scalar(Circuit(1, tuple(_on(0, "T", "HDG")))) is None
        for unit in (ONE, MINUS_ONE, OMEGA, OMEGA2, Cyclo36.zeta9_pow(1)):
            assert t != h.scale(unit)


class TestCircuitScalar:
    """circuit_scalar reads off the packed rows what the decoded matrix says."""

    # gadgets on one wire: I, -I and -omega * I, the last with an odd power of s
    GADGETS = {(): ONE, ("H", "H", "TAU"): MINUS_ONE, ("S", "H") * 3: -OMEGA}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_words_times_a_scalar_gadget(self, n):
        rng = random.Random(0x5CA1 + n)
        for _ in range(60 if n < 3 else 30):
            word = [random_any_op(rng, n) for _ in range(rng.randint(1, 8 if n < 3 else 4))]
            for kinds, want in self.GADGETS.items():
                ops = word + list(adjoint(Circuit(n, tuple(word))).ops)
                at = rng.randint(0, len(ops))
                circ = Circuit(n, tuple(ops[:at] + _on(rng.randrange(n), *kinds) + ops[at:]))
                assert circuit_scalar(circ) == _decoded_scalar(circ) == want, circ
                # one gate dropped: a scalar only when the decoded matrix is one
                drop = rng.randrange(len(circ.ops))
                cut = Circuit(n, circ.ops[:drop] + circ.ops[drop + 1:])
                assert circuit_scalar(cut) == _decoded_scalar(cut), cut

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_scalar_rows(self, n):
        last = n - 1
        cases = [
            # the first and last rows swap: off-diagonal units in lanes 3**n - 1 and 0
            [Op("TAU", (w,), ("02",)) for w in range(n)],
            # diagonals whose rows differ only by omega, pending or in the planes
            _on(last, "Z"),
            _on(last, "Z", "H", "HDG"),
            _on(last, "S", "H") * 3 + _on(last, "Z"),
        ]
        for ops in cases:
            circ = Circuit(n, tuple(ops))
            assert _decoded_scalar(circ) is None
            assert circuit_scalar(circ) is None, ops

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_equal_only_after_their_pending_exponents(self, n):
        # Z H HDG leaves diag(1, omega, omega^2) in the planes; Z Z puts its
        # inverse into the pending exponents
        for kinds, want in self.GADGETS.items():
            circ = Circuit(n, tuple(_on(0, *kinds, "Z", "H", "HDG", "Z", "Z")))
            exps, planes, _, width = gates._simulate(circ)
            lanes = {tuple(p >> (width * r) for p in row) for r, row in enumerate(planes)}
            assert len(set(exps)) == len(lanes) == 3
            assert circuit_scalar(circ) == _decoded_scalar(circ) == want
