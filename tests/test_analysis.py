"""Recognition: Pauli/Clifford certificates, hierarchy levels, ring verdicts."""

from fractions import Fraction

import pytest

from conftest import CLIFFORD_KINDS, CT_KINDS, random_word
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
from qutrit_exact.circuit.core import Op
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix, equal_exact


def _gate(kind: str, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,), params=params), 1)


def _generator(name: str, n: int) -> UnitaryMatrix:
    kind, wire = name.split("_")
    return gate_matrix(Op(kind, (int(wire),)), n)


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
            witness = is_pauli(phased.matrix())
            assert witness
            assert witness.element == phased

    def test_identity_is_pauli(self):
        assert is_pauli(UnitaryMatrix.identity(3))
        assert is_pauli(UnitaryMatrix.identity(9))

    @pytest.mark.parametrize("kind", ["H", "S", "T", "R"])
    def test_non_paulis_rejected(self, kind):
        assert not is_pauli(_gate(kind))

    def test_pauli_with_unlisted_phase_rejected(self):
        x = _gate("X").scale(Cyclo36.zeta_pow(1))  # 36th root phase
        assert not is_pauli(x)

    def test_dimension_guard(self):
        with pytest.raises(DimMismatchError):
            is_pauli(UnitaryMatrix.identity(27))
        with pytest.raises(DimMismatchError):
            is_pauli(UnitaryMatrix.identity(4))


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
                word = random_word(rng, CLIFFORD_KINDS, n, 15)
                m = circuit_matrix(word)
                cert = is_clifford(m)
                assert cert.found
                md = m.dag()
                for name, image in cert.images:
                    g = _generator(name, n)
                    assert equal_exact(m @ g @ md, image.matrix())

    def test_clifford_with_any_global_phase_is_clifford(self):
        h = _gate("H").scale(Cyclo36.zeta_pow(5))
        assert is_clifford(h).found


class TestHierarchy:
    def test_t_sits_at_level_three(self):
        report = hierarchy_level(_gate("T"), 3)
        assert report.level == 3 and report

    def test_r_absent_up_to_cap_four(self):
        report = hierarchy_level(_gate("R"), 4)
        assert report.level is None and not report
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
            m = _gate("T")
            if n_ancilla:
                m = m.tensor(UnitaryMatrix.identity(3))
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

    def test_string_tags_accepted(self):
        assert matrix_ring_certificate(_gate("T"), "Tzeta").found

    def test_cap_one_skips_the_clifford_test(self, monkeypatch):
        def refuse(m):
            raise AssertionError("is_clifford ran with cap 1")

        monkeypatch.setattr("qutrit_exact.analysis.hierarchy.is_clifford", refuse)
        assert hierarchy_level(_gate("H"), 1).level is None
        assert hierarchy_level(_gate("Z"), 1).level == 1
