"""Dense exact matrices over Q(zeta_36)."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import DimMismatchError
from ..rings.cyclo import Cyclo36, ONE, ZERO

__all__ = [
    "UnitaryMatrix",
    "equal_exact",
    "equal_up_to_phase",
    "controlled_target",
]


def _coerce(entry) -> Cyclo36:
    if isinstance(entry, Cyclo36):
        return entry
    if isinstance(entry, (int, Fraction)):
        return Cyclo36.from_fraction(Fraction(entry))
    raise TypeError(f"cannot use {type(entry).__name__} as a matrix entry")


def _times(a: Cyclo36, b: Cyclo36) -> Cyclo36:
    """a * b, or the shared ZERO without a multiplication when a factor is zero."""
    return ZERO if a.is_zero() or b.is_zero() else a * b


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
    def identity(cls, dim: int) -> UnitaryMatrix:
        return cls(
            tuple(tuple(ONE if r == c else ZERO for c in range(dim)) for r in range(dim))
        )

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
        # each factor's nonzero entries are found once per product, not once
        # per term, and a sum starts from its first term rather than ZERO
        rows = [[(k, a) for k, a in enumerate(row) if not a.is_zero()] for row in self._rows]
        cols = [
            {k: b for k, b in enumerate(col) if not b.is_zero()}
            for col in zip(*other._rows)
        ]
        out = []
        for row in rows:
            out_row = []
            for col in cols:
                acc = None
                for k, a in row:
                    if k in col:
                        term = a * col[k]
                        acc = term if acc is None else acc + term
                out_row.append(ZERO if acc is None else acc)
            out.append(tuple(out_row))
        return UnitaryMatrix(out)

    def dag(self) -> UnitaryMatrix:
        return UnitaryMatrix(
            tuple(
                tuple(self._rows[c][r].conjugate() for c in range(self.dim))
                for r in range(self.dim)
            )
        )

    def tensor(self, other: UnitaryMatrix) -> UnitaryMatrix:
        out = []
        for arow in self._rows:
            for brow in other._rows:
                out.append(tuple(_times(a, b) for a in arow for b in brow))
        return UnitaryMatrix(out)

    def scale(self, c) -> UnitaryMatrix:
        c = _coerce(c)
        return UnitaryMatrix(tuple(tuple(_times(c, e) for e in row) for row in self._rows))

    def trace(self) -> Cyclo36:
        acc = ZERO
        for i in range(self.dim):
            acc = acc + self._rows[i][i]
        return acc

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

    The candidate is fixed by the first nonzero entry of b and then verified
    against every entry, so a positive answer is a proof.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"{a.dim} vs {b.dim}")
    witness: Cyclo36 | None = None
    for r in range(b.dim):
        for c in range(b.dim):
            e = b.entry(r, c)
            if not e.is_zero():
                num = a.entry(r, c)
                if num.is_zero():
                    return None
                witness = num * e.inverse()
                break
        if witness is not None:
            break
    if witness is None:  # b == 0; only a == 0 matches, with phase 1
        return ONE if all(e.is_zero() for row in a.rows for e in row) else None
    if witness * witness.conjugate() != ONE:
        return None
    for arow, brow in zip(a.rows, b.rows):
        for ae, be in zip(arow, brow):
            if ae != witness * be:
                return None
    return witness


def controlled_target(inner: UnitaryMatrix, phase: Cyclo36 = ONE) -> UnitaryMatrix:
    """blockdiag(I, I, phase*inner): apply phase*inner when the control holds 2."""
    if inner.dim != 3:
        raise DimMismatchError("controlled target must be a single-qutrit matrix")
    out = [[ZERO] * 9 for _ in range(9)]
    for k in range(6):
        out[k][k] = ONE
    for r in range(3):
        for c in range(3):
            out[6 + r][6 + c] = phase * inner.entry(r, c)
    return UnitaryMatrix(out)
