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

The two bordered patterns form one orbit, since diag(1, 2, 2, 2) maps the
all-1 border onto the all-2 one, and ``is_bordered`` tests membership
directly: a 4x4 pattern p over Z_3 is in the orbit iff it has exactly one
zero row and exactly one zero column, and the 3x3 interior M left after
deleting them has no zero entry and rank one.  Proof: a monomial map
permutes and scales rows and columns by units, so it keeps the zero rows,
the zero columns, the zero entries and the rank, which the bordered
patterns have as stated.  Conversely, permute the zero row and column
first; a rank-one interior with no zero is u v^T with u, v in {1, 2}^3, and
scaling the rows by u and the columns by v (each unit is its own inverse)
gives the all-1 block.

The code tests M[r][s] M[0][0] = M[r][0] M[0][s] for all r, s and nothing
more, since M has no zero row or column.  If M[0][0] = 0, each r, s has
M[r][0] = 0 or M[0][s] = 0, so column 0 or row 0 of M is zero; otherwise
M = u v^T with u = M[.][0] and v = M[0][.] / M[0][0], and a zero in u or v
would be a zero row or column of M.  Either way rank one with no zero line
leaves no zero entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.adjoint.rep import AdjointMatrix, adjoint_of, block_lde
from qutrit_exact.errors import RingError
from qutrit_exact.sim.matrix import UnitaryMatrix


def is_bordered(p: tuple[tuple[int, ...], ...]) -> bool:
    """True iff the 4x4 pattern p (entries 0, 1, 2) is monomially equivalent
    to the bordered all-1, equivalently all-2, pattern."""
    zero_rows = [i for i in range(4) if not any(p[i])]
    zero_cols = [j for j in range(4) if not any(row[j] for row in p)]
    if len(zero_rows) != 1 or len(zero_cols) != 1:
        return False
    m = [[v for j, v in enumerate(row) if j not in zero_cols]
         for i, row in enumerate(p) if i not in zero_rows]
    return all(v * m[0][0] % 3 == row[0] * m[0][s] % 3 for row in m for s, v in enumerate(row))


def residue_pattern(m: AdjointMatrix, block: str, k: int) -> tuple[tuple[int, ...], ...] | None:
    """Residues of alpha**k times a block's entries, or None when some entry
    needs an exponent above k."""
    cells = m.alpha_block(block)
    if any(lde > k for row in cells for lde, _ in row):
        return None
    # the residue map sends alpha to 0
    return tuple(tuple(r if lde == k else 0 for lde, r in row) for row in cells)


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

    if not is_bordered(residue_pattern(adj, "A", lde_a)):
        return ObstructionVerdict(
            "obstructed",
            reason=f"residue of block A at exponent {2 * k} is not monomially "
            "equivalent to the bordered all-2 pattern",
            lde_a=lde_a,
        )
    pat_c = residue_pattern(adj, "C", 2 * k + 1)
    if pat_c is None:
        return ObstructionVerdict(
            "obstructed",
            reason=f"block C needs a denominator exponent beyond {2 * k + 1}, "
            "violating the block structure of exact circuits",
            lde_a=lde_a,
        )
    if not is_bordered(pat_c):
        return ObstructionVerdict(
            "obstructed",
            reason=f"residue of block C at exponent {2 * k + 1} is not "
            "monomially equivalent to the bordered all-1 pattern",
            lde_a=lde_a,
        )
    return ObstructionVerdict("consistent", t_count=k, lde_a=lde_a)
