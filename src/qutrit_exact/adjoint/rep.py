"""Adjoint representation of 3x3 unitaries over the basis of Hermitian
Pauli combinations.

The adjoint of U sends a Hermitian M to U M U^dag; its matrix entry (i, j)
in the stored basis is Tr(m_i U m_j U^dag) / Tr(m_i^2), an exact real
cyclotomic number.  For circuits over the supported gate set every entry
lies in the real ring generated by dyadic fractions, alpha = sin(2*pi/9),
and inverse powers of alpha; the conversion is performed lazily and a
value outside that ring raises NOT_IN_A while the symbolic matrix stays
available for inspection.
"""

from __future__ import annotations

from qutrit_exact.adjoint.basis import AdjointBasis, BASIS_NORM, build_basis
from qutrit_exact.errors import DimMismatchError, RingError
from qutrit_exact.rings.alpha import AlphaElem, to_alpha
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix

_ZERO = Cyclo36.from_int(0)
_ONE = Cyclo36.from_int(1)
_BASIS: AdjointBasis | None = None

_BLOCK_SLICES = {
    "A": (range(0, 4), range(0, 4)),
    "B": (range(0, 4), range(4, 8)),
    "C": (range(4, 8), range(0, 4)),
    "D": (range(4, 8), range(4, 8)),
}


def basis() -> AdjointBasis:
    global _BASIS
    if _BASIS is None:
        _BASIS = build_basis()
    return _BASIS


class AdjointMatrix:
    """8x8 exact real matrix; blocks A, B, C, D are its 4x4 quadrants."""

    __slots__ = ("entries", "_alpha")

    def __init__(self, entries: tuple[tuple[Cyclo36, ...], ...]):
        if len(entries) != 8 or any(len(row) != 8 for row in entries):
            raise ValueError("adjoint matrix must be 8 x 8")
        self.entries = tuple(tuple(row) for row in entries)
        self._alpha = None

    def entry(self, i: int, j: int) -> Cyclo36:
        return self.entries[i][j]

    def alpha_entries(self) -> tuple[tuple[AlphaElem, ...], ...]:
        """Entrywise conversion; raises NOT_IN_A outside the target ring."""
        if self._alpha is None:
            self._alpha = tuple(
                tuple(to_alpha(e) for e in row) for row in self.entries
            )
        return self._alpha

    def in_alpha_ring(self) -> bool:
        try:
            self.alpha_entries()
            return True
        except RingError:
            return False

    def block(self, name: str) -> tuple[tuple[Cyclo36, ...], ...]:
        rows, cols = _BLOCK_SLICES[name]
        return tuple(tuple(self.entries[i][j] for j in cols) for i in rows)

    def alpha_block(self, name: str) -> tuple[tuple[AlphaElem, ...], ...]:
        rows, cols = _BLOCK_SLICES[name]
        alpha = self.alpha_entries()
        return tuple(tuple(alpha[i][j] for j in cols) for i in rows)

    def __matmul__(self, other: "AdjointMatrix") -> "AdjointMatrix":
        if not isinstance(other, AdjointMatrix):
            return NotImplemented
        rows = []
        for i in range(8):
            row = []
            for j in range(8):
                acc = _ZERO
                for k in range(8):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return AdjointMatrix(tuple(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjointMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def is_orthogonal(self) -> bool:
        """transpose(M) @ M == identity, checked exactly."""
        for i in range(8):
            for j in range(8):
                acc = _ZERO
                for k in range(8):
                    acc = acc + self.entries[k][i] * self.entries[k][j]
                if acc != (_ONE if i == j else _ZERO):
                    return False
        return True

    def describe(self) -> str:
        """Entrywise report: alpha-coefficient lists with denominator exponents."""
        lines = []
        try:
            alpha = self.alpha_entries()
        except RingError:
            for i in range(8):
                lines.append("  ".join(str(self.entries[i][j]) for j in range(8)))
            return "\n".join(lines)
        for i in range(8):
            cells = []
            for j in range(8):
                a = alpha[i][j]
                coeffs = ",".join(str(c) for c in a.value.coeffs)
                cells.append(f"({coeffs})/alpha^{a.denom_exp}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def identity_adjoint() -> AdjointMatrix:
    return AdjointMatrix(
        tuple(
            tuple(_ONE if i == j else _ZERO for j in range(8)) for i in range(8)
        )
    )


def adjoint_of(u: UnitaryMatrix) -> AdjointMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 unitary."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    b = basis()
    ud = u.dag()
    conjugated = [u @ m @ ud for m in b.mats]
    norm_inv = BASIS_NORM.inverse()
    rows = []
    for i in range(8):
        mi = b.mats[i]
        support = [
            (r, c)
            for r in range(3)
            for c in range(3)
            if mi.entry(r, c) != _ZERO
        ]
        row = []
        for j in range(8):
            vj = conjugated[j]
            acc = _ZERO
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
