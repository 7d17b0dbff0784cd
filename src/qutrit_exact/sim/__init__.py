"""Exact unitary simulation."""

from ..circuit.core import MAX_QUTRITS
from .gates import circuit_matrix, circuit_scalar, gate_local, gate_matrix
from .matrix import UnitaryMatrix, equal_exact, equal_up_to_phase

__all__ = [
    "MAX_QUTRITS",
    "UnitaryMatrix",
    "circuit_matrix",
    "circuit_scalar",
    "equal_exact",
    "equal_up_to_phase",
    "gate_local",
    "gate_matrix",
]
