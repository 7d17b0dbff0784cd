"""Adjoint representation: trace oracle, homomorphism, residue patterns, verdicts."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import CT_KINDS, approx_equal, mat_complex, random_op, random_word, to_complex
from qutrit_exact.adjoint import (
    BORDERED_ONES,
    BORDERED_TWOS,
    ResiduePattern,
    adjoint_of,
    block_lde,
    pattern_equiv,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings import KTooSmallError
from qutrit_exact.rings.cyclo import Cyclo36
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

    def test_ct_words_lie_in_alpha_ring(self, rng):
        for _ in range(10):
            m = circuit_matrix(random_word(rng, CT_KINDS, 1, 12))
            adjoint_of(m).alpha_entries()  # raises NOT_IN_A outside the ring


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


class TestPatterns:
    def test_bordered_patterns_are_equivalent_to_each_other(self):
        # row scaling by 2 maps the all-2 interior onto the all-1 interior
        assert pattern_equiv(BORDERED_TWOS, BORDERED_ONES)

    def test_equiv_is_reflexive_and_symmetric(self):
        p = ResiduePattern(((1, 0, 2, 0), (0, 1, 0, 2),
                            (2, 0, 1, 0), (0, 2, 0, 1)))
        assert pattern_equiv(p, p)
        assert pattern_equiv(p, BORDERED_ONES) == pattern_equiv(BORDERED_ONES, p)

    def test_equiv_under_permutation_and_scaling(self, rng):
        base = BORDERED_TWOS.cells
        for _ in range(20):
            rows = list(range(4))
            cols = list(range(4))
            rng.shuffle(rows)
            rng.shuffle(cols)
            rscale = [rng.choice((1, 2)) for _ in range(4)]
            cscale = [rng.choice((1, 2)) for _ in range(4)]
            scrambled = ResiduePattern(
                tuple(
                    tuple(
                        (base[rows[i]][cols[j]] * rscale[i] * cscale[j]) % 3
                        for j in range(4)
                    )
                    for i in range(4)
                )
            )
            assert pattern_equiv(scrambled, BORDERED_TWOS)

    def test_inequivalent_patterns(self):
        zero = ResiduePattern(((0,) * 4,) * 4)
        ident = ResiduePattern(tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        ))
        assert not pattern_equiv(zero, BORDERED_ONES)
        assert not pattern_equiv(ident, BORDERED_ONES)
        assert not pattern_equiv(zero, ident)

    def test_r_residues(self):
        adj = adjoint_of(_gate("R"))
        assert pattern_equiv(residue_pattern(adj, "A", 6), BORDERED_TWOS)
        assert not pattern_equiv(residue_pattern(adj, "C", 7), BORDERED_ONES)

    def test_residue_needs_large_enough_exponent(self):
        adj = adjoint_of(_gate("R"))
        with pytest.raises(KTooSmallError):
            residue_pattern(adj, "A", 5)


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
        fifth = Fraction(1, 5)
        m = UnitaryMatrix(
            (
                (Cyclo36.from_fraction(3 * fifth), Cyclo36.from_fraction(4 * fifth), Cyclo36.from_int(0)),
                (Cyclo36.from_fraction(-4 * fifth), Cyclo36.from_fraction(3 * fifth), Cyclo36.from_int(0)),
                (Cyclo36.from_int(0), Cyclo36.from_int(0), Cyclo36.from_int(1)),
            )
        )
        verdict = single_qutrit_ct_obstruction(m)
        assert verdict.is_obstructed()
        assert verdict.kind == "not_in_ring"

    def test_random_ct_words_are_never_obstructed(self, rng):
        for _ in range(25):
            m = circuit_matrix(random_word(rng, CT_KINDS, 1, 14))
            verdict = single_qutrit_ct_obstruction(m)
            assert not verdict.is_obstructed()
