"""Exact unitary simulation."""

from ..circuit.core import MAX_QUTRITS
from .gates import circuit_matrix, circuit_scalar, gate_matrix
from .matrix import UnitaryMatrix

__all__ = [
    "MAX_QUTRITS",
    "UnitaryMatrix",
    "circuit_matrix",
    "circuit_scalar",
    "gate_matrix",
]
