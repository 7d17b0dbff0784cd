"""Adjoint representation: trace oracle, homomorphism, residue patterns, verdicts."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CT_KINDS,
    approx_equal,
    mat_complex,
    random_cyclo,
    random_op,
    random_word,
    to_complex,
)
from qutrit_exact.adjoint import (
    adjoint_of,
    block_lde,
    is_bordered,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.adjoint.rep import _times_i
from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings import NotInAError
from qutrit_exact.rings.cyclo import Cyclo36, conjugate_coords
from qutrit_exact.rings.packed import lane_width
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix


def _gate(kind: str) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,)), 1)


_THIRDS = tuple(Fraction(k, 3) for k in range(-3, 4))
_WORD_KINDS = CT_KINDS + ("R", "ZPHASE", "XPHASE")


def _phased_word(rng, length: int) -> UnitaryMatrix:
    """A seeded word over the Clifford+T kinds, R, and ZPHASE/XPHASE with thirds.

    Each of R, ZPHASE and XPHASE occurs at least once.
    """
    kinds = [rng.choice(_WORD_KINDS) for _ in range(length - 3)] + ["R", "ZPHASE", "XPHASE"]
    rng.shuffle(kinds)
    ops = tuple(
        Op(kind, (0,), (rng.choice(_THIRDS), rng.choice(_THIRDS)))
        if kind in ("ZPHASE", "XPHASE")
        else random_op(rng, (kind,), 1)
        for kind in kinds
    )
    return circuit_matrix(Circuit(1, ops))


def _fifth_rotation() -> UnitaryMatrix:
    """A real rotation by an angle with cosine 3/5: its adjoint leaves the alpha ring."""
    c, s, zero = Fraction(3, 5), Fraction(4, 5), Cyclo36.from_int(0)
    return UnitaryMatrix(
        (
            (Cyclo36.from_fraction(c), Cyclo36.from_fraction(s), zero),
            (Cyclo36.from_fraction(-s), Cyclo36.from_fraction(c), zero),
            (zero, zero, Cyclo36.from_int(1)),
        )
    )


def _exact_basis() -> list[UnitaryMatrix]:
    """P + P^dag, then i(P - P^dag) with i = zeta_36^9, for P = Z, X, XZ, XZ^2."""
    omega, i = Cyclo36.zeta_pow(12), Cyclo36.zeta_pow(9)
    x = UnitaryMatrix([[int(r == (c + 1) % 3) for c in range(3)] for r in range(3)])
    z = UnitaryMatrix([[omega**r if r == c else 0 for c in range(3)] for r in range(3)])

    def combine(p, sign):
        return UnitaryMatrix(
            tuple(a + sign * b for a, b in zip(row, row_dag))
            for row, row_dag in zip(p.rows, p.dag().rows)
        )

    words = (z, x, x @ z, x @ z @ z)
    return [combine(p, 1) for p in words] + [combine(p, -1).scale(i) for p in words]


_SIXTH = Cyclo36.from_fraction(Fraction(1, 6))


def _assert_exact_traces(u: UnitaryMatrix) -> None:
    """All 64 entries of adjoint_of(u) equal Tr(m_i U m_j U^dag) / 6, from exact matrices."""
    basis = _exact_basis()
    adj = adjoint_of(u)
    images = [u @ mj @ u.dag() for mj in basis]
    for i, mi in enumerate(basis):
        for j, w in enumerate(images):
            trace = sum(
                (mi.entry(a, b) * w.entry(b, a) for a in range(3) for b in range(3)),
                Cyclo36.from_int(0),
            )
            assert adj.entry(i, j) == trace * _SIXTH, (i, j)


def _numeric_basis() -> list[np.ndarray]:
    """P + P^dag, then i(P - P^dag), for P = Z, X, XZ, XZ^2, in complex floats."""
    x = np.roll(np.eye(3), 1, axis=0)  # |c> -> |c + 1>
    z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    words = (z, x, x @ z, x @ z @ z)
    return [p + p.conj().T for p in words] + [1j * (p - p.conj().T) for p in words]


class TestAdjointMap:
    def test_identity_maps_to_identity(self):
        adj = adjoint_of(UnitaryMatrix.identity(3))
        for i in range(8):
            for j in range(8):
                want = Cyclo36.from_int(1 if i == j else 0)
                assert adj.entry(i, j) == want
        assert adj == UnitaryMatrix.identity(8)

    def test_requires_single_qutrit(self):
        with pytest.raises(DimMismatchError):
            adjoint_of(UnitaryMatrix.identity(9))

    def test_phase_invariance(self):
        # conjugation kills global phases, so the adjoint image is unchanged
        h = _gate("H")
        assert adjoint_of(h) == adjoint_of(h.scale(Cyclo36.zeta_pow(7)))

    def test_entries_are_real_and_orthogonal(self, rng):
        for _ in range(20):
            m = circuit_matrix(random_word(rng, CT_KINDS, 1, 15))
            adj = adjoint_of(m)
            assert adj.dag() @ adj == UnitaryMatrix.identity(8)
            for i in range(8):
                for j in range(8):
                    assert adj.entry(i, j).is_real()

    def test_homomorphism(self, rng):
        for _ in range(20):
            u = circuit_matrix(random_word(rng, CT_KINDS, 1, 10))
            v = circuit_matrix(random_word(rng, CT_KINDS, 1, 10))
            assert adjoint_of(u @ v) == adjoint_of(u) @ adjoint_of(v)

    def test_numeric_action_oracle(self, rng):
        # all 64 entries against Tr(m_i U m_j U^dag) / 6, with the basis
        # built in floats from its definition
        basis = _numeric_basis()
        inputs = [_phased_word(rng, 12) for _ in range(6)]
        inputs.append(inputs[0].scale(Cyclo36.zeta_pow(7)))
        for u in inputs:
            adj = adjoint_of(u)
            un = np.array(mat_complex(u))
            for i, mi in enumerate(basis):
                for j, mj in enumerate(basis):
                    want = np.trace(mi @ un @ mj @ un.conj().T) / 6
                    assert approx_equal(to_complex(adj.entry(i, j)), want)

    def test_exact_action_oracle(self, rng):
        # all 64 entries equal Tr(m_i U m_j U^dag) / 6 exactly, with the basis
        # built as exact matrices from its definition
        words = [_phased_word(rng, 10) for _ in range(5)]
        inputs = words + [w.scale(Cyclo36.zeta_pow(rng.randrange(1, 36))) for w in words]
        inputs.append(_fifth_rotation())
        for u in inputs:
            _assert_exact_traces(u)

    @pytest.mark.parametrize(
        "bound", [1, 2**20 - 1, 2**40, 3**30], ids=["1", "2^20-1", "2^40", "3^30"]
    )
    def test_widest_lanes(self, rng, bound):
        # non-unitary inputs whose entries have all 12 numerators at +-B with one
        # sign, over mixed denominators (so over their common denominator they
        # grow further), with zero entries: products whose lanes add up with one
        # sign
        dens = (1, 2, 3, 5, 9, 27, 4 * 81)
        for trial in range(4):
            rows = [
                [Cyclo36([rng.choice((1, -1)) * bound] * 12, rng.choice(dens)) for _ in range(3)]
                for _ in range(3)
            ]
            if trial:
                for _ in range(trial):
                    rows[rng.randrange(3)][rng.randrange(3)] = Cyclo36()
            _assert_exact_traces(UnitaryMatrix(rows))
        # one sign everywhere, over one denominator
        _assert_exact_traces(UnitaryMatrix([[Cyclo36([bound] * 12)] * 3] * 3))

    def test_long_words(self, rng):
        # 200 gates with at least 50 T: denominators and numerators as large
        # as a word makes them
        for _ in range(3):
            kinds = [rng.choice(CT_KINDS) for _ in range(150)] + ["T"] * 50
            rng.shuffle(kinds)
            ops = tuple(random_op(rng, (kind,), 1) for kind in kinds)
            _assert_exact_traces(circuit_matrix(Circuit(1, ops)))

    def test_lane_width_is_the_least_that_holds_the_bound(self):
        # a lane of a signed sum of n products is at most 12 A B per product, times n,
        # and 2 for each of the two folds (module docstring of rings.packed); the
        # exact-oracle tests of `@` and `adjoint_of` still pass with a width one bit
        # short, so this test pins the width to the proof
        bounds = (0, 1, 2, 3, 2**20 - 1, 2**40, 3**30)
        for n in (1, 3, 9, 18, 27):
            for a, b in itertools.product(bounds, repeat=2):
                top = 12 * n * 2 * 2 * a * b
                width = lane_width(n, a, b)
                assert top < 2 ** (width - 1), (n, a, b)
                assert top == 0 or top >= 2 ** (width - 2), (n, a, b)

    def test_coordinate_maps(self, rng):
        # conjugation sends zeta^k to zeta^-k and agrees with the numeric conjugate;
        # the factor i on the unpacked lanes agrees with a product by zeta^9
        for k in range(36):
            x = Cyclo36.zeta_pow(k)
            assert conjugate_coords(x.numerators) == Cyclo36.zeta_pow(-k).numerators, k
        for _ in range(50):
            x = random_cyclo(rng)
            conj = Cyclo36(conjugate_coords(x.numerators), x.denominator)
            assert approx_equal(to_complex(conj), to_complex(x).conjugate())
        imag = Cyclo36.zeta_pow(9)
        for k in range(12):
            basis = [0] * 12
            basis[k] = 1
            assert _times_i(basis) == list((Cyclo36(basis) * imag).numerators), k

    def test_ct_words_lie_in_alpha_ring(self, rng):
        for _ in range(10):
            m = circuit_matrix(random_word(rng, CT_KINDS, 1, 12))
            adj = adjoint_of(m)
            adj.check_alpha_ring()  # raises NOT_IN_A outside the ring
            for name in "ABCD":
                assert adj.alpha_block(name) is adj.alpha_block(name)
        with pytest.raises(NotInAError):
            adjoint_of(_fifth_rotation()).check_alpha_ring()


class TestBlocks:
    def test_r_blocks_pinned_values(self):
        adj = adjoint_of(_gate("R"))
        third = Cyclo36.from_fraction(Fraction(1, 3))
        want = ((3, 0, 0, 0), (0, -1, 2, 2), (0, 2, -1, 2), (0, 2, 2, -1))
        for i in range(4):
            for j in range(4):
                v = third * Cyclo36.from_int(want[i][j])
                assert adj.entry(i, j) == v          # block A
                assert adj.entry(i + 4, j + 4) == v  # block D
                assert adj.entry(i, j + 4).is_zero()      # block B
                assert adj.entry(i + 4, j).is_zero()      # block C

    def test_block_lde_values(self):
        assert block_lde(adjoint_of(_gate("R")), "A") == 6
        assert block_lde(adjoint_of(_gate("H")), "A") == 0
        assert block_lde(adjoint_of(_gate("T")), "A") == 2

    def test_bad_block_name(self):
        with pytest.raises(KeyError):
            block_lde(adjoint_of(_gate("T")), "E")


# the bordered all-2 pattern
_ALL_TWO = ((0, 0, 0, 0), (0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2))


def _bordered_orbit() -> set:
    """The bordered all-2 pattern under row/column swaps and x2 scalings, by
    breadth-first search."""

    def row_moves(rows):
        for a in range(4):
            yield rows[:a] + (tuple(2 * v % 3 for v in rows[a]),) + rows[a + 1:]
            for b in range(a + 1, 4):
                swapped = list(rows)
                swapped[a], swapped[b] = rows[b], rows[a]
                yield tuple(swapped)

    def moves(cells):
        yield from row_moves(cells)
        for t in row_moves(tuple(zip(*cells))):
            yield tuple(zip(*t))

    seen, frontier = {_ALL_TWO}, [_ALL_TWO]
    while frontier:
        nxt = []
        for cells in frontier:
            for c in moves(cells):
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def _profile_patterns():
    """The 131,072 patterns with one zero row and exactly one zero in each other row."""
    rows = [r for r in itertools.product(range(3), repeat=4) if r.count(0) == 1]
    for z in range(4):
        for others in itertools.product(rows, repeat=3):
            yield others[:z] + ((0,) * 4,) + others[z:]


def _scrambled(cells, rng):
    """cells under a random monomial row and column action."""
    rows, cols = rng.sample(range(4), 4), rng.sample(range(4), 4)
    rs, cs = [rng.choice((1, 2)) for _ in range(4)], [rng.choice((1, 2)) for _ in range(4)]
    return tuple(
        tuple(cells[rows[i]][cols[j]] * rs[i] * cs[j] % 3 for j in range(4)) for i in range(4)
    )


def _mutations(cells):
    """cells with one entry changed, and with one more row or column zeroed."""
    for r in range(4):
        for c in range(4):
            for d in (1, 2):
                rows = [list(row) for row in cells]
                rows[r][c] = (rows[r][c] + d) % 3
                yield tuple(tuple(row) for row in rows)
    for line in range(4):
        yield tuple((0,) * 4 if i == line else row for i, row in enumerate(cells))
        yield tuple(tuple(0 if j == line else v for j, v in enumerate(row)) for row in cells)


class TestPatterns:
    def test_equiv_is_orbit_membership(self, rng):
        orbit = _bordered_orbit()
        assert len(orbit) == 512  # 4 x 4 border positions x 32 sign patterns
        ones = tuple(tuple(v and 1 for v in row) for row in _ALL_TWO)
        patterns = [ones, ((1, 0, 2, 0), (0, 1, 0, 2), (2, 0, 1, 0), (0, 2, 0, 1))]
        patterns += [_scrambled(ones, rng) for _ in range(20)]
        for cells in rng.sample(sorted(orbit), 40):
            patterns += _mutations(cells)
        # any shape: uniform, and with zeros weighted up so that zero lines occur
        for weights in ((0, 1, 2), (0, 0, 1, 2), (0, 0, 0, 1, 2)):
            patterns += [
                tuple(tuple(rng.choice(weights) for _ in range(4)) for _ in range(4))
                for _ in range(2000)
            ]
        for cells in patterns:
            assert is_bordered(cells) == (cells in orbit)
        # the profile patterns hold the whole orbit
        assert sorted(cells for cells in _profile_patterns() if is_bordered(cells)) == sorted(orbit)

    def test_equiv_under_permutation_and_scaling(self, rng):
        orbit = _bordered_orbit()
        for _ in range(20):
            scrambled = _scrambled(_ALL_TWO, rng)
            assert scrambled in orbit
            assert is_bordered(scrambled)

    def test_inequivalent_patterns(self):
        zero = ((0,) * 4,) * 4
        ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert not is_bordered(zero)
        assert not is_bordered(ident)

    def test_r_residues(self):
        adj = adjoint_of(_gate("R"))
        assert is_bordered(residue_pattern(adj, "A", 6))
        assert not is_bordered(residue_pattern(adj, "C", 7))

    def test_residue_needs_large_enough_exponent(self):
        assert residue_pattern(adjoint_of(_gate("R")), "A", 5) is None


class TestObstructionVerdicts:
    def test_clifford_is_consistent_at_t_count_zero(self):
        verdict = single_qutrit_ct_obstruction(_gate("H"))
        assert not verdict.is_obstructed()
        assert verdict.t_count == 0

    @pytest.mark.parametrize("kind", ["T", "TDG"])
    def test_t_gate_is_consistent_at_t_count_one(self, kind):
        verdict = single_qutrit_ct_obstruction(_gate(kind))
        assert not verdict.is_obstructed()
        assert verdict.t_count == 1

    def test_r_gate_is_obstructed(self):
        verdict = single_qutrit_ct_obstruction(_gate("R"))
        assert verdict.is_obstructed()
        assert verdict.kind == "obstructed"
        assert verdict.lde_a == 6
        assert "residue" in verdict.text()

    def test_unitary_outside_the_ring(self):
        verdict = single_qutrit_ct_obstruction(_fifth_rotation())
        assert verdict.is_obstructed()
        assert verdict.kind == "not_in_ring"

    def test_diagonal_phase_outside_the_ring(self):
        i = Cyclo36.zeta_pow(9)
        phase = (Cyclo36.from_int(3) + i * 4) * Cyclo36.from_fraction(Fraction(1, 5))
        one, zero = Cyclo36.from_int(1), Cyclo36.from_int(0)
        u = UnitaryMatrix(((one, zero, zero), (zero, one, zero), (zero, zero, phase)))
        verdict = single_qutrit_ct_obstruction(u)
        assert verdict.kind == "not_in_ring"
        assert verdict.text().startswith(
            "obstructed: adjoint entry falls outside the alpha ring (NOT_IN_A:"
        )

    def test_lde_zero_but_not_clifford(self):
        # the rotation by 120 degrees of basis states 0 and 1, with
        # sqrt(3) = -i (omega - omega^2)
        sqrt3 = -Cyclo36.zeta_pow(9) * (Cyclo36.omega_pow(1) - Cyclo36.omega_pow(2))
        half = Cyclo36.from_fraction(Fraction(1, 2))
        c, s = -half, sqrt3 * half
        one, zero = Cyclo36.from_int(1), Cyclo36.from_int(0)
        verdict = single_qutrit_ct_obstruction(
            UnitaryMatrix(((c, -s, zero), (s, c, zero), (zero, zero, one)))
        )
        assert verdict.kind == "obstructed"
        assert verdict.lde_a == 0
        assert "denominator exponent 0" in verdict.reason
        assert "not Clifford" in verdict.reason

    def test_random_ct_words_are_never_obstructed(self, rng):
        for _ in range(25):
            m = circuit_matrix(random_word(rng, CT_KINDS, 1, 14))
            verdict = single_qutrit_ct_obstruction(m)
            assert not verdict.is_obstructed()
