"""Residue patterns of adjoint blocks and the exact T-count obstruction.

For an operator with minimal single-qutrit T-count k over the supported
exact gate set, block A of its adjoint matrix has least denominator
exponent exactly 2k, and the residues rho_2k(A) and rho_(2k+1)(C) are
equivalent, up to generalized (monomial) row and column permutations over
Z_3, to bordered rank-one patterns: one zero row and column framing an
all-2 (for A) or all-1 (for C) 3x3 block.  Violating any of these
necessary conditions certifies that no ancilla-free single-qutrit circuit
over the gate set implements the operator; passing them is consistency
evidence only, never a membership proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from qutrit_exact.adjoint.rep import AdjointMatrix, adjoint_of, block_lde
from qutrit_exact.errors import KTooSmallError, RingError
from qutrit_exact.sim.matrix import UnitaryMatrix


@dataclass(frozen=True)
class ResiduePattern:
    """4x4 matrix over Z_3, compared up to monomial row/column action."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.cells) != 4 or any(len(r) != 4 for r in self.cells):
            raise ValueError("residue pattern must be 4 x 4")
        object.__setattr__(
            self, "cells", tuple(tuple(v % 3 for v in row) for row in self.cells)
        )


#: Bordered patterns: zero first row/column framing a constant 3x3 block.
BORDERED_TWOS = ResiduePattern(
    ((0, 0, 0, 0), (0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2))
)
BORDERED_ONES = ResiduePattern(
    ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 1))
)

_PERMS = tuple(itertools.permutations(range(4)))
# a global factor on the rows is absorbed by the column side, so row 0 keeps scale 1
_SCALES = tuple((1,) + rest for rest in itertools.product((1, 2), repeat=3))


def _canon_column(col: tuple[int, ...]) -> tuple[int, ...]:
    doubled = tuple(2 * v % 3 for v in col)
    return col if col <= doubled else doubled


def _column_profile(cells) -> tuple:
    cols = tuple(tuple(cells[r][c] for r in range(4)) for c in range(4))
    return tuple(sorted(_canon_column(c) for c in cols))


def pattern_equiv(p: ResiduePattern, q: ResiduePattern) -> bool:
    """True iff monomial matrices L, R over Z_3 exist with L p R = q.

    Row transforms are enumerated: the permutations that send each row of p
    to a row of q with as many zeros (a monomial action keeps that count),
    times the 8 scalings with row 0 fixed.  For each, a column transform
    exists iff the multisets of columns agree after canonicalizing each
    column up to a global Z_3 scaling, which is checked directly instead of
    enumerating the column side.
    """
    if p.cells == q.cells:
        return True
    zp = [row.count(0) for row in p.cells]
    zq = [row.count(0) for row in q.cells]
    if sorted(zp) != sorted(zq):
        return False
    target = _column_profile(q.cells)
    for perm in _PERMS:
        if any(zp[perm[i]] != zq[i] for i in range(4)):
            continue
        rows = [p.cells[i] for i in perm]
        for scales in _SCALES:
            transformed = tuple(
                tuple(s * v % 3 for v in row) for s, row in zip(scales, rows)
            )
            if _column_profile(transformed) == target:
                return True
    return False


def residue_pattern(m: AdjointMatrix, block: str, k: int) -> ResiduePattern:
    """Residue of alpha**k * entry over a block; raises K_TOO_SMALL if k is too small."""

    def cell(lde: int, r: int) -> int:
        if k < lde:
            raise KTooSmallError(f"k={k} is below the least denominator exponent")
        return r if k == lde else 0  # the residue map sends alpha to 0

    return ResiduePattern(tuple(tuple(cell(*p) for p in row) for row in m.alpha_block(block)))


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of the exact single-qutrit T-count consistency check."""

    kind: str  # "consistent" | "obstructed" | "not_in_ring"
    t_count: int | None = None
    reason: str | None = None
    lde_a: int | None = None

    def is_obstructed(self) -> bool:
        return self.kind != "consistent"

    def text(self) -> str:
        if self.kind == "consistent":
            return (
                f"consistent with an exact single-qutrit circuit of T-count "
                f"{self.t_count} (necessary conditions only, not a synthesis)"
            )
        if self.kind == "not_in_ring":
            return f"obstructed: {self.reason}"
        return f"obstructed (LDE of block A = {self.lde_a}): {self.reason}"


def single_qutrit_ct_obstruction(u: UnitaryMatrix) -> ObstructionVerdict:
    """Decide the necessary T-count conditions for a 3 x 3 unitary."""
    from qutrit_exact.analysis.clifford import is_clifford

    adj = adjoint_of(u)
    try:
        adj.check_alpha_ring()
    except RingError as e:
        return ObstructionVerdict(
            "not_in_ring",
            reason=f"adjoint entry falls outside the alpha ring ({e})",
        )

    lde_a = block_lde(adj, "A")
    if lde_a % 2:
        return ObstructionVerdict(
            "obstructed",
            reason=f"block A has odd denominator exponent {lde_a}; "
            "an exact circuit forces an even value (twice the T-count)",
            lde_a=lde_a,
        )
    k = lde_a // 2
    if k == 0:
        if is_clifford(u):
            return ObstructionVerdict("consistent", t_count=0, lde_a=0)
        return ObstructionVerdict(
            "obstructed",
            reason="block A has denominator exponent 0, which forces a "
            "Clifford operator, but the matrix is not Clifford",
            lde_a=0,
        )

    if not pattern_equiv(residue_pattern(adj, "A", lde_a), BORDERED_TWOS):
        return ObstructionVerdict(
            "obstructed",
            reason=f"residue of block A at exponent {2 * k} is not monomially "
            "equivalent to the bordered all-2 pattern",
            lde_a=lde_a,
        )
    try:
        pat_c = residue_pattern(adj, "C", 2 * k + 1)
    except KTooSmallError:
        return ObstructionVerdict(
            "obstructed",
            reason=f"block C needs a denominator exponent beyond {2 * k + 1}, "
            "violating the block structure of exact circuits",
            lde_a=lde_a,
        )
    if not pattern_equiv(pat_c, BORDERED_ONES):
        return ObstructionVerdict(
            "obstructed",
            reason=f"residue of block C at exponent {2 * k + 1} is not "
            "monomially equivalent to the bordered all-1 pattern",
            lde_a=lde_a,
        )
    return ObstructionVerdict("consistent", t_count=k, lde_a=lde_a)
