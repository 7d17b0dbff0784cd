"""Adjoint representation, block residue patterns, and T-count obstructions."""

from qutrit_exact.adjoint.patterns import (
    ObstructionVerdict,
    is_bordered,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.adjoint.rep import adjoint_of, alpha_block, block_lde, check_alpha_ring

__all__ = [
    "ObstructionVerdict",
    "adjoint_of",
    "alpha_block",
    "block_lde",
    "check_alpha_ring",
    "is_bordered",
    "residue_pattern",
    "single_qutrit_ct_obstruction",
]
