"""Adjoint representation, block residue patterns, and T-count obstructions."""

from qutrit_exact.adjoint.patterns import (
    BORDERED_ONES,
    BORDERED_TWOS,
    ObstructionVerdict,
    ResiduePattern,
    pattern_equiv,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.adjoint.rep import AdjointMatrix, adjoint_of, block_lde

__all__ = [
    "AdjointMatrix",
    "BORDERED_ONES",
    "BORDERED_TWOS",
    "ObstructionVerdict",
    "ResiduePattern",
    "adjoint_of",
    "block_lde",
    "pattern_equiv",
    "residue_pattern",
    "single_qutrit_ct_obstruction",
]
