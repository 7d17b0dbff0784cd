"""Adjoint representation of 3x3 unitaries over the basis of Hermitian
Pauli combinations.

The adjoint of U sends a Hermitian M to U M U^dag; its matrix entry (i, j)
in the stored basis is Tr(m_i U m_j U^dag) / Tr(m_i^2), an exact real
cyclotomic number.  ``AdjointMatrix`` is an 8 x 8 ``UnitaryMatrix`` (product,
equality and hashing are the matrix's own) that adds the view the T-count
obstruction reads: for circuits over the supported gate set every entry
lies in the real ring generated by dyadic fractions, alpha = sin(2*pi/9),
and inverse powers of alpha; the conversion is performed lazily and cached,
and a value outside that ring raises NOT_IN_A while the symbolic matrix
stays available for inspection.
"""

from __future__ import annotations

from qutrit_exact.adjoint.basis import BASIS_NORM, build_basis
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.alpha import AlphaElem, to_alpha
from qutrit_exact.rings.cyclo import ZERO
from qutrit_exact.sim.matrix import UnitaryMatrix

_BLOCK_SLICES = {
    "A": (range(0, 4), range(0, 4)),
    "B": (range(0, 4), range(4, 8)),
    "C": (range(4, 8), range(0, 4)),
    "D": (range(4, 8), range(4, 8)),
}


class AdjointMatrix(UnitaryMatrix):
    """8x8 exact real matrix; blocks A, B, C, D are its 4x4 quadrants."""

    __slots__ = ("_alpha",)

    def __init__(self, rows):
        super().__init__(rows)
        if self.dim != 8:
            raise ValueError("adjoint matrix must be 8 x 8")
        self._alpha = None

    def alpha_entries(self) -> tuple[tuple[AlphaElem, ...], ...]:
        """Entrywise conversion; raises NOT_IN_A outside the target ring."""
        if self._alpha is None:
            self._alpha = tuple(tuple(to_alpha(e) for e in row) for row in self.rows)
        return self._alpha

    def alpha_block(self, name: str) -> tuple[tuple[AlphaElem, ...], ...]:
        rows, cols = _BLOCK_SLICES[name]
        alpha = self.alpha_entries()
        return tuple(tuple(alpha[i][j] for j in cols) for i in rows)

    def is_orthogonal(self) -> bool:
        """transpose(M) @ M == identity, checked exactly (the entries are real)."""
        return self.dag() @ self == UnitaryMatrix.identity(8)

    def describe(self) -> str:
        """Entrywise alpha-coefficient lists and exponents; NOT_IN_A outside the ring."""
        lines = []
        for row in self.alpha_entries():
            cells = []
            for a in row:
                coeffs = ",".join(str(c) for c in a.value.coeffs)
                cells.append(f"({coeffs})/alpha^{a.denom_exp}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def adjoint_of(u: UnitaryMatrix) -> AdjointMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 unitary."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    b = build_basis()
    ud = u.dag()
    conjugated = [u @ m @ ud for m in b]
    norm_inv = BASIS_NORM.inverse()
    rows = []
    for i in range(8):
        mi = b[i]
        support = [
            (r, c)
            for r in range(3)
            for c in range(3)
            if mi.entry(r, c) != ZERO
        ]
        row = []
        for j in range(8):
            vj = conjugated[j]
            acc = ZERO
            for r, c in support:
                acc = acc + mi.entry(r, c) * vj.entry(c, r)
            val = acc * norm_inv
            if not val.is_real():
                raise AssertionError("adjoint entry must be real")
            row.append(val)
        rows.append(tuple(row))
    return AdjointMatrix(tuple(rows))


def block_lde(m: AdjointMatrix, name: str) -> int:
    """Largest least denominator exponent over the 16 entries of a block."""
    return max(a.lde() for row in m.alpha_block(name) for a in row)
