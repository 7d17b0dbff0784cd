"""Adjoint representation, block residue patterns, and T-count obstructions."""

from qutrit_exact.adjoint.patterns import (
    ObstructionVerdict,
    is_bordered,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.adjoint.rep import AdjointMatrix, adjoint_of, block_lde

__all__ = [
    "AdjointMatrix",
    "ObstructionVerdict",
    "adjoint_of",
    "block_lde",
    "is_bordered",
    "residue_pattern",
    "single_qutrit_ct_obstruction",
]
