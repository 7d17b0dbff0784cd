"""Recognition: Pauli/Clifford certificates, hierarchy levels, ring verdicts."""

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from conftest import CLIFFORD_KINDS, CT_KINDS, numeric_op, random_cyclo, random_word
from qutrit_exact.analysis import (
    PauliElement,
    WITNESS_UNITS,
    hierarchy_level,
    is_clifford,
    is_pauli,
    matrix_ring_certificate,
    pauli_elements,
    refute_phase_membership,
)
from qutrit_exact.analysis.clifford import _match, _row_index
from qutrit_exact.analysis.hierarchy import _times_pauli
from qutrit_exact.analysis.pauli import column_maps
from qutrit_exact.circuit.core import Op
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.cyclo import OMEGA, OMEGA2, Cyclo36, MINUS_ONE, ONE, ZERO
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix, equal_exact


def _gate(kind: str, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,), params=params), 1)


def _generator(name: str, n: int) -> UnitaryMatrix:
    kind, wire = name.split("_")
    return gate_matrix(Op(kind, (int(wire),)), n)


def _lines(n: int, *lines: str) -> UnitaryMatrix:
    return circuit_matrix(parse_circuit("\n".join([f"qutrits {n}", *lines]) + "\n"))


def _oracle_at_most(m: UnitaryMatrix, k: int, paulis: list, memo: dict) -> bool:
    """Level <= k by the definition: every nontrivial Pauli conjugate lies in level k-1."""
    key = (m.rows, k)
    if key not in memo:
        if k == 1:
            memo[key] = is_pauli(m) is not None
        elif k == 2:
            memo[key] = bool(is_clifford(m))
        else:
            md = m.dag()
            memo[key] = all(
                _oracle_at_most(m @ p @ md, k - 1, paulis, memo) for p in paulis
            )
    return memo[key]


def _oracle_level(m: UnitaryMatrix, cap: int, memo: dict) -> int | None:
    paulis = [p.matrix() for p in pauli_elements(1 if m.dim == 3 else 2)]
    return next(
        (k for k in range(1, cap + 1) if _oracle_at_most(m, k, paulis, memo)), None
    )


class TestPauliRecognition:
    def test_witness_units_are_the_18_signed_ninth_roots(self):
        assert len(set(WITNESS_UNITS)) == 18
        expected = {s * Cyclo36.zeta9_pow(k) for k in range(9)
                    for s in (ONE, MINUS_ONE)}
        assert set(WITNESS_UNITS) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_phased_pauli_is_recognized(self, n, rng):
        units = list(WITNESS_UNITS)
        for element in pauli_elements(n):
            phased = PauliElement(
                element.x_exps, element.z_exps, rng.choice(units)
            )
            assert is_pauli(phased.matrix()) == phased

    def test_identity_is_pauli(self):
        assert is_pauli(UnitaryMatrix.identity(3)) == PauliElement((0,), (0,))
        assert is_pauli(UnitaryMatrix.identity(9)) == PauliElement((0, 0), (0, 0))

    @pytest.mark.parametrize("kind", ["H", "S", "T", "R"])
    def test_non_paulis_rejected(self, kind):
        assert is_pauli(_gate(kind)) is None

    def test_pauli_with_unlisted_phase_rejected(self):
        x = _gate("X").scale(Cyclo36.zeta_pow(1))  # 36th root phase
        assert is_pauli(x) is None

    def test_dimension_guard(self):
        with pytest.raises(DimMismatchError):
            is_pauli(UnitaryMatrix.identity(27))
        with pytest.raises(DimMismatchError):
            is_pauli(UnitaryMatrix.identity(4))


#: The phases a Clifford conjugate of a qutrit Pauli can carry: 1, omega, omega^2.
CUBE_ROOTS = (ONE, OMEGA, OMEGA2)


def _all_paulis(n: int) -> list[PauliElement]:
    """The 9^n phase-free Pauli elements, identity first."""
    return [PauliElement((0,) * n, (0,) * n), *pauli_elements(n)]


@lru_cache(maxsize=None)
def _phased_paulis(n: int) -> dict:
    """All 9^n * 18 products w * P of a Pauli P and a witness unit w, keyed by matrix."""
    return {
        q.matrix().rows: q
        for p in _all_paulis(n)
        for q in (PauliElement(p.x_exps, p.z_exps, w) for w in WITNESS_UNITS)
    }


def _brute_match(m: UnitaryMatrix, v: UnitaryMatrix) -> PauliElement | None:
    """The w * P above with v == w * P @ m (m unitary), or None."""
    return _phased_paulis(1 if m.dim == 3 else 2).get((v @ m.dag()).rows)


def _match_rows(m: UnitaryMatrix, v: UnitaryMatrix) -> PauliElement | None:
    """The Clifford test's matcher: w * P with v == w * P @ m and w**3 == 1, or None."""
    orbits = [[(e, e.times_omega(1), e.times_omega(2)) for e in row] for row in m.rows]
    return _match(_row_index(orbits), v.rows, 1 if m.dim == 3 else 2)


def _ct_matrices(rng, n: int, count: int) -> list[UnitaryMatrix]:
    return [circuit_matrix(random_word(rng, CT_KINDS, n, 12)) for _ in range(count)]


class TestMatchPauli:
    """The Clifford test's row matcher against a search over all phased Paulis."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_phased_pauli_times_m_is_matched_exactly(self, n, rng):
        paulis = _all_paulis(n)
        for m in _ct_matrices(rng, n, 4):
            for p in rng.sample(paulis, 6):
                q = PauliElement(p.x_exps, p.z_exps, rng.choice(CUBE_ROOTS))
                v = q.matrix() @ m
                assert _match_rows(m, v) == q == _brute_match(m, v)

    @pytest.mark.parametrize("n", [1, 2])
    def test_near_misses_are_rejected(self, n, rng):
        s0 = gate_matrix(Op("S", (0,)), n)
        paulis = _all_paulis(n)
        for m in _ct_matrices(rng, n, 4):
            v = rng.choice(paulis).matrix() @ m
            rows = [list(row) for row in v.rows]
            bumped = [row[:] for row in rows]
            r = rng.randrange(m.dim)
            bumped[r] = [OMEGA * e for e in rows[r]]  # one row times an extra omega
            swapped = [row[:] for row in rows]
            r, i, j = next(
                (r, i, j)
                for r, row in enumerate(rows)
                for i in range(m.dim)
                for j in range(i)
                if row[i] not in (row[j], -row[j])
            )
            swapped[r][i], swapped[r][j] = rows[r][j], rows[r][i]
            # one row times -1, which is not a power of omega
            negated = [
                UnitaryMatrix(rows[:r] + [[-e for e in rows[r]]] + rows[r + 1:])
                for r in range(m.dim)
            ]
            # s0 @ v: every row proportional to v's, but the phases are not linear
            for near in (UnitaryMatrix(bumped), s0 @ v, UnitaryMatrix(swapped), *negated):
                assert _match_rows(m, near) is None
                assert _brute_match(m, near) is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_is_pauli_agrees_with_the_search(self, n, rng):
        ident = UnitaryMatrix.identity(3**n)
        p = rng.choice(list(pauli_elements(n)))
        zeta = Cyclo36.zeta_pow(1)  # a 36th root of unity, not a witness unit
        phased = p.matrix().scale(zeta)
        # a conjugate of a qutrit Pauli has a phase with w**3 == 1, so no other w is solved for
        assert _match_rows(ident, phased) is None
        candidates = [
            PauliElement(p.x_exps, p.z_exps, rng.choice(WITNESS_UNITS)).matrix(),
            phased,
            gate_matrix(Op("S", (0,)), n) @ p.matrix(),
            *_ct_matrices(rng, n, 4),
        ]
        for m in candidates:
            assert is_pauli(m) == _brute_match(ident, m)

    def test_is_pauli_on_every_single_qutrit_phased_pauli(self):
        ident = UnitaryMatrix.identity(3)
        phased = _phased_paulis(1)
        assert len(phased) == 9 * 18
        for rows, q in phased.items():
            m = UnitaryMatrix(rows)
            assert is_pauli(m) == _brute_match(ident, m) == q

    def test_is_pauli_on_two_qutrit_paulis_and_near_misses(self, rng):
        ident = UnitaryMatrix.identity(9)
        zeta = Cyclo36.zeta_pow(1)  # a 36th root of unity, not a witness unit
        for q in rng.sample(list(_phased_paulis(2).values()), 24):
            m = q.matrix()
            assert is_pauli(m) == _brute_match(ident, m) == q
            rows = [list(row) for row in m.rows]
            extra = [row[:] for row in rows]  # a second nonzero in one column
            r, c = rng.choice([(r, c) for r in range(9) for c in range(9) if not rows[r][c]])
            extra[r][c] = ONE
            c = rng.randrange(1, 9)  # one column off by omega: the phases are not linear
            turned = [[OMEGA * e if j == c else e for j, e in enumerate(row)] for row in rows]
            for near in (UnitaryMatrix(extra), UnitaryMatrix(turned), m.scale(zeta)):
                assert is_pauli(near) is None
                assert _brute_match(ident, near) is None


class TestCliffordRecognition:
    @pytest.mark.parametrize("kind", ["X", "Z", "S", "SDG", "H", "HDG"])
    def test_single_qutrit_cliffords(self, kind):
        cert = is_clifford(_gate(kind))
        assert cert.found

    def test_cx_is_clifford(self):
        assert is_clifford(gate_matrix(Op("CX", (0, 1)), 2)).found

    @pytest.mark.parametrize("kind", ["T", "TDG", "R"])
    def test_non_cliffords_rejected(self, kind):
        cert = is_clifford(_gate(kind))
        assert not cert.found
        assert cert.failed in ("X_0", "Z_0")

    def test_certificate_images_verify_exactly(self, rng):
        for n in (1, 2):
            for _ in range(10):
                m = circuit_matrix(random_word(rng, CLIFFORD_KINDS, n, 15))
                self._assert_images_verify(m)
                # an odd power of zeta_36: the entries leave Q(zeta_9)
                self._assert_images_verify(m.scale(Cyclo36.zeta_pow(rng.randrange(1, 36, 2))))
        # H, S and CX on two qutrits with phases: common denominators 1 and 3,
        # dense and sparse; a Clifford's nonzero entries share one magnitude,
        # so one matrix never mixes denominators (see the non-Clifford test)
        shapes = set()
        for _ in range(16):
            word = random_word(rng, ("H", "HDG", "S", "SDG"), 2, rng.randrange(1, 8))
            m = circuit_matrix(word).scale(Cyclo36.zeta_pow(rng.randrange(36)))
            den = math.lcm(*(e.denominator for row in m.rows for e in row))
            shapes.add((den, all(e for row in m.rows for e in row)))
            self._assert_images_verify(m)
        assert {(1, False), (3, False), (3, True)} <= shapes

    @staticmethod
    def _assert_images_verify(m: UnitaryMatrix) -> None:
        n = 1 if m.dim == 3 else 2
        cert = is_clifford(m)
        assert cert.found
        assert [name for name, _ in cert.images] == [f"{k}_{w}" for w in range(n) for k in "XZ"]
        md = m.dag()
        for name, image in cert.images:
            assert image.phase in CUBE_ROOTS
            assert equal_exact(m @ _generator(name, n) @ md, image.matrix())

    def test_two_qutrit_non_cliffords_name_the_first_failing_generator(self, rng):
        names = ["X_0", "Z_0", "X_1", "Z_1"]
        # controlled H mixes entries over 1 and 3 in one matrix
        inputs = [_lines(2, "T 1"), _lines(2, "LAMBDA[H 1] 0"), _lines(2, "LAMBDA[H 0] 1")]
        for w in (0, 1, 0, 1):
            c = circuit_matrix(random_word(rng, CLIFFORD_KINDS, 2, 8))
            inputs.append(c @ _lines(2, f"T {w}") @ c.dag())
        failed = []
        for m in inputs:
            md = m.dag()
            brute = [_phased_paulis(2).get((m @ _generator(g, 2) @ md).rows) for g in names]
            first = brute.index(None)
            cert = is_clifford(m)
            assert not cert.found
            assert cert.failed == names[first]
            assert cert.images == tuple(zip(names[:first], brute[:first]))
            failed.append(cert.failed)
        assert failed[0] == "X_1"  # T on wire 1 commutes with X_0 and Z_0

    def test_clifford_with_any_global_phase_is_clifford(self):
        h = _gate("H").scale(Cyclo36.zeta_pow(5))
        assert is_clifford(h).found


class TestCoordinateMaps:
    """omega as a map of coordinates, and products with a Pauli as column relabels."""

    def test_times_omega_is_multiplication_by_omega_powers(self, rng):
        # == compares gcd-normalized pairs, so this also shows no gcd is needed
        for x in [random_cyclo(rng) for _ in range(60)] + [ZERO]:
            for k in range(6):
                assert x.times_omega(k) == OMEGA**k * x

    @pytest.mark.parametrize("n", [1, 2])
    def test_column_maps_multiply_like_the_pauli_matrices(self, n, rng):
        gens = column_maps(n, True)
        assert [name for name, _ in gens] == [f"{k}_{w}" for w in range(n) for k in "XZ"]
        m = circuit_matrix(random_word(rng, CT_KINDS, n, 10)).scale(Cyclo36.zeta_pow(1))
        for name, columns in gens:
            assert _times_pauli(m, columns) == m @ _generator(name, n)
        paulis = list(pauli_elements(n))
        assert [label for label, _ in column_maps(n, False)] == [p.label() for p in paulis]
        for (_, columns), p in zip(column_maps(n, False), paulis):
            assert _times_pauli(m, columns) == m @ p.matrix()


class TestHierarchy:
    def test_t_sits_at_level_three(self):
        report = hierarchy_level(_gate("T"), 3)
        assert report.level == 3

    def test_r_absent_up_to_cap_four(self):
        report = hierarchy_level(_gate("R"), 4)
        assert report.level is None
        assert "undecided" in report.text()

    def test_paulis_sit_at_level_one(self):
        for element in pauli_elements(1):
            assert hierarchy_level(element.matrix(), 2).level == 1

    @pytest.mark.parametrize("kind", ["H", "S", "SDG", "HDG"])
    def test_cliffords_sit_at_level_two(self, kind):
        assert hierarchy_level(_gate(kind), 3).level == 2

    def test_cx_sits_at_level_two(self):
        assert hierarchy_level(gate_matrix(Op("CX", (0, 1)), 2), 2).level == 2

    def test_level_is_minimal(self):
        # level k means the k-1 test failed: T is not Clifford, H not Pauli
        assert hierarchy_level(_gate("T"), 3).level != 2
        assert hierarchy_level(_gate("H"), 3).level != 1

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            hierarchy_level(_gate("T"), 0)
        with pytest.raises(ValueError):
            hierarchy_level(_gate("T"), 6)
        with pytest.raises(DimMismatchError):
            hierarchy_level(UnitaryMatrix.identity(27), 3)

    def test_cap_below_level_reports_absence(self):
        assert hierarchy_level(_gate("T"), 2).level is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_level_three_certificate_lists_the_generator_conjugates(self, n):
        m = _lines(n, "T 0")
        report = hierarchy_level(m, 3)
        names = [f"{kind}_{w}" for w in range(n) for kind in "XZ"]
        assert [line.split()[0] for line in report.lines] == names
        md = m.dag()
        for name, line in zip(names, report.lines):
            assert line.startswith(f"{name} conjugate is Clifford: ")
            cert = is_clifford(m @ _generator(name, n) @ md)
            assert line.endswith(", ".join(f"{g} -> {p}" for g, p in cert.images))

    def test_report_carries_the_clifford_test_of_the_matrix(self):
        h, t = _gate("H"), _gate("T")
        assert hierarchy_level(h, 3).clifford == is_clifford(h)
        assert hierarchy_level(t, 3).clifford == is_clifford(t)
        assert hierarchy_level(t, 1).clifford is None  # cap 1 never runs it
        assert hierarchy_level(_gate("X"), 3).clifford is None  # a Pauli stops first

    def test_controlled_t_sits_at_level_four(self):
        report = hierarchy_level(_lines(2, "LAMBDA[T 1] 0"), 4)
        assert report.level == 4
        assert len(report.lines) == 80
        assert all(line.endswith("conjugate lies in level 3") for line in report.lines)

    def test_r_on_two_qutrits_absent_up_to_cap_four(self):
        report = hierarchy_level(_lines(2, "R 0"), 4)
        assert report.level is None and "undecided" in report.text()


class TestHierarchyOracle:
    """The generator rule at level 3 against the all-Pauli definition."""

    @staticmethod
    def _inputs(rng, n: int) -> dict:
        def conj(core: UnitaryMatrix) -> UnitaryMatrix:
            c = circuit_matrix(random_word(rng, CLIFFORD_KINDS, n, 8))
            return c @ core @ c.dag()

        element = rng.choice(list(pauli_elements(n)))
        inputs = {
            "pauli": PauliElement(element.x_exps, element.z_exps,
                                  rng.choice(WITNESS_UNITS)).matrix(),
            "clifford": conj(circuit_matrix(random_word(rng, CLIFFORD_KINDS, n, 8))),
            "ctc": conj(_lines(n, f"T {rng.randrange(n)}")),
            "r": conj(_lines(n, f"R {rng.randrange(n)}")),
        }
        if n == 1:
            inputs["zeta9_phase"] = conj(_lines(1, "ZPHASE 0 1/3 0"))
        else:
            inputs["lambda_t"] = _lines(2, "LAMBDA[T 1] 0")
        return inputs

    @pytest.mark.parametrize("n", [1, 2])
    def test_same_level_as_the_all_pauli_rule(self, n, rng):
        levels = set()
        for name, m in self._inputs(rng, n).items():
            memo: dict = {}
            for cap in (3, 4):
                if n == 2 and cap == 4 and name in ("r", "lambda_t"):
                    continue  # seconds in the oracle; see the next test
                want = _oracle_level(m, cap, memo)
                assert hierarchy_level(m, cap).level == want, (name, cap)
                levels.add(want)
        assert levels == ({1, 2, 3, 4, None} if n == 1 else {1, 2, 3, None})

    def test_same_level_three_verdicts_inside_the_level_four_search(self, rng):
        # at cap 4 both rules run the same loop over all 80 Pauli conjugates
        # U P U^dag and differ only in the level-3 test of each one; the full
        # all-Pauli search takes seconds here, so compare seeded conjugates
        paulis = [p.matrix() for p in pauli_elements(2)]
        verdicts = set()
        for text in ("LAMBDA[T 1] 0", "R 0"):
            u = _lines(2, text)
            for p in rng.sample(paulis, 3):
                c = u @ p @ u.dag()
                want = _oracle_at_most(c, 3, paulis, {})
                assert (hierarchy_level(c, 3).level is not None) == want, text
                verdicts.add(want)
        assert verdicts == {True, False}


# phase functions phi of diagonal gates diag(exp(2 pi i phi(x))), x in Z_3^n in basis order
def _points(n: int) -> list[tuple[int, ...]]:
    return list(product(range(3), repeat=n))


def _affine(phi: tuple[Fraction, ...], n: int) -> bool:
    """phi(x) = c + b.x/3 mod 1 for some c and b in Z_3^n: a phased diagonal Pauli."""
    points, c = _points(n), phi[0]
    b = [3 * (phi[3 ** (n - 1 - w)] - c) for w in range(n)]
    return all(bw.denominator == 1 for bw in b) and all(
        (v - c - sum(bw * xw for bw, xw in zip(b, x)) / 3) % 1 == 0
        for x, v in zip(points, phi)
    )


def _difference(phi: tuple[Fraction, ...], a: tuple[int, ...], n: int) -> tuple:
    """y -> phi(y) - phi(y - a): U X^a U^dag = diag(exp(2 pi i this)) X^a for diagonal U."""
    points = _points(n)
    index = {x: i for i, x in enumerate(points)}
    return tuple(
        (phi[i] - phi[index[tuple((xw - aw) % 3 for xw, aw in zip(x, a))]]) % 1
        for i, x in enumerate(points)
    )


def _diagonal_at_most(phi: tuple, k: int, n: int, memo: dict) -> bool:
    """Level <= k of a diagonal gate from its phase function alone (after
    Cui-Gottesman-Krishna): level 1 is affine; U P U^dag is a diagonal gate
    times a Pauli, and a level above 1 is closed under Pauli factors, so level
    <= k iff every difference by a != 0 has level <= k-1.  No Pauli conjugation."""
    key = (phi, k)
    if key not in memo:
        if k == 1:
            memo[key] = _affine(phi, n)
        else:
            memo[key] = all(
                _diagonal_at_most(_difference(phi, a, n), k - 1, n, memo)
                for a in _points(n) if any(a)
            )
    return memo[key]


def _diagonal_level(phi: tuple, n: int, cap: int) -> int | None:
    memo: dict = {}
    return next((k for k in range(1, cap + 1) if _diagonal_at_most(phi, k, n, memo)), None)


def _numeric_phases(text: str, n: int) -> tuple[Fraction, ...]:
    """The phase function of a diagonal circuit, read off the numpy oracle in 36ths."""
    acc = np.eye(3**n, dtype=complex)
    for op in parse_circuit(f"qutrits {n}\n{text}\n").ops:
        acc = numeric_op(op, n) @ acc
    assert np.allclose(acc, np.diag(np.diag(acc)))
    turns = [cmath.phase(z) / (2 * cmath.pi) for z in np.diag(acc)]
    phi = tuple(Fraction(round(36 * t) % 36, 36) for t in turns)
    assert np.allclose(np.diag(acc), [cmath.exp(2j * cmath.pi * p) for p in phi])
    return phi


_DIAGONAL_LINES = (
    "T 0", "T 1", "TDG 0", "TDG 1", "S 0", "S 1", "Z 0", "Z 1", "R 0", "R 1",
    "LAMBDA[T 1] 0", "LAMBDA[T 0] 1", "C2[SDG 1] 0", "C2[SDG 0] 1", "C2[R 1] 0",
    "C2[T 1] 0 phase=zeta", "C2[T 0] 1 phase=-omega", "C2[T 1] 0 phase=zeta^-1",
)


class TestDiagonalHierarchyOracle:
    """hierarchy_level against a closed-form oracle for diagonal gates, which shares
    no code with the search: from level 4 up the search conjugates all 80 (two-qutrit)
    Paulis, which the all-Pauli oracle above repeats rather than checks."""

    def test_every_zphase_of_thirds_at_cap_five(self):
        levels = []
        for a, b in product((Fraction(k, 3) for k in range(9)), repeat=2):
            want = _diagonal_level((Fraction(0), a / 3 % 1, b / 3 % 1), 1, 5)
            assert hierarchy_level(_gate("ZPHASE", (a, b)), 5).level == want, (a, b)
            levels.append(want)
        assert sorted(set(levels)) == [1, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_two_qutrit_diagonal_words_at_cap_four(self, seed):
        rng, levels = random.Random(seed), set()
        for _ in range(10):
            text = "\n".join(rng.sample(_DIAGONAL_LINES, rng.randint(1, 3)))
            want = _diagonal_level(_numeric_phases(text, 2), 2, 4)
            assert hierarchy_level(_lines(2, text), 4).level == want, text
            levels.add(want)
        assert len(levels) >= 3


class TestRingVerdicts:
    def test_clifford_words_certified_in_omega_ring(self, rng):
        for n in (1, 2):
            for _ in range(10):
                m = circuit_matrix(random_word(rng, CLIFFORD_KINDS, n, 12))
                cert = matrix_ring_certificate(m, RingTag.TOMEGA)
                assert cert.found
                scaled = m.scale(cert.phase)
                assert all(
                    in_ring(e, RingTag.TOMEGA) for row in scaled.rows for e in row
                )

    def test_t_words_certified_in_zeta_ring(self, rng):
        m = circuit_matrix(random_word(rng, CT_KINDS, 2, 20))
        cert = matrix_ring_certificate(m, RingTag.TZETA)
        assert cert.found

    def test_t_gate_refuted_in_omega_ring(self):
        for n_ancilla in (0, 1):
            m = gate_matrix(Op("T", (0,)), 1 + n_ancilla)
            assert not matrix_ring_certificate(m, RingTag.TOMEGA).found
            ref = refute_phase_membership(m, RingTag.TOMEGA)
            assert ref.refuted
            a, b = ref.pair
            assert {str(a), str(b)} == {"1", "zeta"}

    def test_refutation_product_is_the_exhibited_obstruction(self):
        ref = refute_phase_membership(_gate("T"), RingTag.TOMEGA)
        a, b = ref.pair
        assert ref.product == a.conjugate() * b
        assert not in_ring(ref.product, RingTag.TOMEGA)

    def test_refutation_is_phase_independent(self, rng):
        # scaling by any unit cannot dodge the pairwise refutation
        m = _gate("T").scale(Cyclo36.zeta_pow(rng.randrange(36)))
        assert refute_phase_membership(m, RingTag.TOMEGA).refuted

    def test_clifford_never_refuted_in_omega_ring(self, rng):
        for _ in range(10):
            m = circuit_matrix(random_word(rng, CLIFFORD_KINDS, 1, 10))
            assert not refute_phase_membership(m, RingTag.TOMEGA).refuted

    def test_cap_one_skips_the_clifford_test(self, monkeypatch):
        def refuse(m):
            raise AssertionError("is_clifford ran with cap 1")

        monkeypatch.setattr("qutrit_exact.analysis.hierarchy.is_clifford", refuse)
        assert hierarchy_level(_gate("H"), 1).level is None
        assert hierarchy_level(_gate("Z"), 1).level == 1
