"""Dense exact matrices over Q(zeta_36)."""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from operator import mul
from typing import Iterable, Sequence

from ..errors import DimMismatchError
from ..rings.cyclo import Cyclo36, ONE, ZERO
from ..rings.packed import lane_width, lanes, over_common_denominator

__all__ = ["UnitaryMatrix", "equal_exact", "equal_up_to_phase"]


def _coerce(entry) -> Cyclo36:
    if isinstance(entry, Cyclo36):
        return entry
    if isinstance(entry, (int, Fraction)):
        return Cyclo36.from_fraction(Fraction(entry))
    raise TypeError(f"cannot use {type(entry).__name__} as a matrix entry")


class UnitaryMatrix:
    """A square matrix with entries in Q(zeta_36); equality is exact."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence]):
        rs = tuple(tuple(_coerce(e) for e in row) for row in rows)
        dim = len(rs)
        if any(len(r) != dim for r in rs):
            raise ValueError("matrix must be square")
        self._rows = rs

    @classmethod
    def _of(cls, rows: tuple[tuple[Cyclo36, ...], ...]) -> UnitaryMatrix:
        """The matrix of ``rows``, square tuples of Cyclo36 entries, taken as they are."""
        m = object.__new__(cls)
        m._rows = rows
        return m

    @classmethod
    def identity(cls, dim: int) -> UnitaryMatrix:
        """The identity: each row a copy of one row of the shared ZERO with ONE
        on the diagonal."""
        row, rows = [ZERO] * dim, []
        for r in range(dim):
            row[r] = ONE
            rows.append(tuple(row))
            row[r] = ZERO
        return cls._of(tuple(rows))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Cyclo36, ...], ...]:
        return self._rows

    def entry(self, r: int, c: int) -> Cyclo36:
        return self._rows[r][c]

    def __matmul__(self, other: UnitaryMatrix) -> UnitaryMatrix:
        if self.dim != other.dim:
            raise DimMismatchError(f"{self.dim} vs {other.dim}")
        n = self.dim
        den_a, bound_a, a = over_common_denominator([e for row in self._rows for e in row])
        den_b, bound_b, b = over_common_denominator([e for row in other._rows for e in row])
        pack, read = lanes(lane_width(n, bound_a, bound_b))
        a, b, den = [*starmap(pack, a)], [*starmap(pack, b)], den_a * den_b
        rows = [a[i:i + n] for i in range(0, n * n, n)]
        cols = [b[j::n] for j in range(n)]
        return UnitaryMatrix._of(tuple(
            tuple(Cyclo36(read(x), den) if (x := sum(map(mul, row, col))) else ZERO
                  for col in cols)
            for row in rows
        ))

    def dag(self) -> UnitaryMatrix:
        return UnitaryMatrix._of(
            tuple(
                tuple(self._rows[c][r].conjugate() for c in range(self.dim))
                for r in range(self.dim)
            )
        )

    def scale(self, c) -> UnitaryMatrix:
        """c times the matrix: the matrix itself for c = 1, and the shared ZERO
        wherever a factor is zero."""
        c = _coerce(c)
        if c == ONE:
            return self
        zero = c.is_zero()
        return UnitaryMatrix._of(tuple(
            tuple(ZERO if zero or e.is_zero() else c * e for e in row) for row in self._rows
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def equal_exact(a: UnitaryMatrix, b: UnitaryMatrix) -> bool:
    """Entrywise exact equality; DIM_MISMATCH if shapes differ."""
    if a.dim != b.dim:
        raise DimMismatchError(f"{a.dim} vs {b.dim}")
    return a.rows == b.rows


def equal_up_to_phase(a: UnitaryMatrix, b: UnitaryMatrix) -> Cyclo36 | None:
    """The unit c with a == c*b, or None when there is none.

    The candidate is a/b at the first nonzero entry of b (1 when b == 0) and
    is then verified against every entry, so a positive answer is a proof.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"{a.dim} vs {b.dim}")
    pairs = [(x, y) for arow, brow in zip(a.rows, b.rows) for x, y in zip(arow, brow)]
    x, y = next(((x, y) for x, y in pairs if not y.is_zero()), (ONE, ONE))
    witness = x * y.inverse()
    if witness * witness.conjugate() != ONE:
        return None
    for x, y in pairs:
        if (x != witness * y) if not y.is_zero() else not x.is_zero():
            return None
    return witness

