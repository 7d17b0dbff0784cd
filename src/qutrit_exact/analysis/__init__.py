"""Structural classification: Pauli/Clifford tests, hierarchy, ring certificates."""

from qutrit_exact.analysis.clifford import CliffordCertificate, is_clifford
from qutrit_exact.analysis.hierarchy import MAX_CAP, HierarchyReport, hierarchy_level
from qutrit_exact.analysis.pauli import (
    PauliElement,
    WITNESS_UNITS,
    is_pauli,
    pauli_elements,
)
from qutrit_exact.analysis.ringcert import (
    Refutation,
    RingCertificate,
    matrix_ring_certificate,
    refute_phase_membership,
)

__all__ = [
    "CliffordCertificate",
    "HierarchyReport",
    "MAX_CAP",
    "PauliElement",
    "Refutation",
    "RingCertificate",
    "WITNESS_UNITS",
    "hierarchy_level",
    "is_clifford",
    "is_pauli",
    "matrix_ring_certificate",
    "pauli_elements",
    "refute_phase_membership",
]
