"""The real subfield machinery around alpha = sin(2*pi/9).

alpha generates the real subfield of Q(zeta_36); its minimal polynomial is
64*x^6 - 96*x^4 + 36*x^2 - 3 (Eisenstein at 3 after the substitution used to
derive it from 8*x^3 - 6*x = -sqrt(3)).  Two element types live here:

* ``DalphaElem`` -- Z[1/2][alpha]: six integer numerators over the power
  basis 1, alpha, ..., alpha^5, all divided by one least power of two.
* ``AlphaElem`` -- the localization at alpha: a ``DalphaElem`` divided by a
  power of alpha, stored unnormalized; the least denominator exponent is
  computed on demand.

The key arithmetic fact used throughout: 3 = 4*alpha^2*(4*alpha^2 - 3)^2, so
1/alpha = (36*alpha - 96*alpha^3 + 64*alpha^5)/3 and an element divides by
alpha inside Z[1/2][alpha] exactly when its constant numerator is divisible
by 3; and 1/3 = (alpha^6/3) / alpha^6 with
alpha^6/3 = (32*alpha^4 - 12*alpha^2 + 1)/64 a unit times a dyadic element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .cyclo import Cyclo36, embed
from ..errors import KTooSmallError, NotInAError, NotRealError

__all__ = [
    "DalphaElem",
    "AlphaElem",
    "residue",
    "to_alpha",
]

_DEG = 6
_ZEROS = (0,) * _DEG

DalphaLike = Union[int, Fraction, "DalphaElem"]

# alpha^6 = (3 - 36*alpha^2 + 96*alpha^4) / 2^6
_SIX = (3, 0, -36, 0, 96, 0)


def _reduction_table() -> tuple[tuple[tuple[int, ...], ...], int]:
    """alpha^6 .. alpha^10 as integer rows over one common power of two."""
    rows, shifts = [_SIX], [6]
    for _ in range(4):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((a << 6) + top * b for a, b in zip((0,) + prev[:-1], _SIX)))
        shifts.append(shifts[-1] + 6)
    shift = max(shifts)
    return tuple(tuple(c << (shift - s) for c in row) for row, s in zip(rows, shifts)), shift


_TABLE, _SHIFT = _reduction_table()


def _canonical(nums, k: int) -> tuple[tuple[int, ...], int]:
    """(nums, k) with the common factors of two stripped from nums / 2**k."""
    t = 0
    for c in nums:
        t |= c
    if not t:
        return _ZEROS, 0
    s = min(k, (t & -t).bit_length() - 1)
    if s:
        return tuple(c >> s for c in nums), k - s
    return tuple(nums), k


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], int]:
    """Numerators of a*b reduced to degree < 6, and the power of two they are over."""
    prod = [0] * (2 * _DEG - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    if not any(prod[_DEG:]):
        return prod[:_DEG], 0
    out = [c << _SHIFT for c in prod[:_DEG]]
    for c, row in zip(prod[_DEG:], _TABLE):
        if c:
            for i, t in enumerate(row):
                out[i] += c * t
    return out, _SHIFT


def _elem(nums, k: int) -> DalphaElem:
    """A DalphaElem from integer numerators over 2**k, without validation."""
    e = object.__new__(DalphaElem)
    e._num, e._k = _canonical(nums, k)
    return e


class DalphaElem:
    """An element of Z[1/2][alpha]: numerators over 1, alpha, ..., alpha^5, over 2**k.

    k is least (some numerator is odd when k > 0), so equality and hashing
    compare the pair directly.
    """

    __slots__ = ("_num", "_k")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > _DEG:
            raise ValueError("expected at most 6 coordinates")
        exps = []
        for c in cs:
            d = c.denominator
            if d & (d - 1):
                raise ValueError(f"coordinate {c} is not dyadic")
            exps.append(d.bit_length() - 1)
        k = max(exps, default=0)
        nums = [c.numerator << (k - e) for c, e in zip(cs, exps)]
        self._num, self._k = _canonical(nums + [0] * (_DEG - len(nums)), k)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> DalphaElem:
        return cls((Fraction(q),))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = 1 << self._k
        return tuple(Fraction(c, d) for c in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def _coerce(self, other: DalphaLike) -> DalphaElem | None:
        if isinstance(other, DalphaElem):
            return other
        if isinstance(other, (int, Fraction)):
            return DalphaElem.from_fraction(other)
        return None

    def __add__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, k = self._num, o._num, self._k
        if k < o._k:
            a, k = [c << (o._k - k) for c in a], o._k
        elif k > o._k:
            b = [c << (k - o._k) for c in b]
        return _elem([x + y for x, y in zip(a, b)], k)

    __radd__ = __add__

    def __neg__(self) -> DalphaElem:
        return _elem([-c for c in self._num], self._k)

    def __sub__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums, s = _mul(self._num, o._num)
        return _elem(nums, self._k + o._k + s)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DalphaElem.from_fraction(other)
        if not isinstance(other, DalphaElem):
            return NotImplemented
        return self._num == other._num and self._k == other._k

    def __hash__(self) -> int:
        return hash((self._num, self._k))

    def __repr__(self) -> str:
        return f"DalphaElem({[str(c) for c in self.coeffs]})"

    def divide_by_alpha(self) -> DalphaElem | None:
        """Exact quotient self/alpha if it stays in Z[1/2][alpha], else None.

        self/alpha = (n1 + n2*alpha + ... + n5*alpha^4 + n0/alpha) / 2^k with
        n0/alpha = (n0/3)*(36*alpha - 96*alpha^3 + 64*alpha^5), so the quotient
        lies in Z[1/2][alpha] exactly when 3 divides n0.
        """
        n0, n1, n2, n3, n4, n5 = self._num
        if n0 % 3:
            return None
        m = n0 // 3
        return _elem((n1, n2 + 36 * m, n3, n4 - 96 * m, n5, 64 * m), self._k)


# alpha^6 / 3, the dyadic cofactor of 1/3, and its powers, extended on demand
_THIRD_COFACTOR = _elem((1, 0, -12, 0, 32, 0), 6)
_THIRD_COFACTOR_POWERS = [_elem((1,), 0)]


def residue(q: DalphaElem) -> int:
    """Ring map Z[1/2][alpha] -> Z_3: alpha -> 0, 1/2 -> 2."""
    r = q._num[0] % 3
    return (-r) % 3 if q._k & 1 else r


class AlphaElem:
    """An element of the alpha-localization: value / alpha**denom_exp, unnormalized."""

    __slots__ = ("value", "denom_exp")

    def __init__(self, value: DalphaElem, denom_exp: int = 0):
        if denom_exp < 0:
            raise ValueError("denominator exponent must be nonnegative")
        self.value = value
        self.denom_exp = denom_exp

    def lde(self) -> int:
        """Least k >= 0 with alpha**k * self in Z[1/2][alpha]; lde(0) = 0."""
        return self.reduced()[0]

    def reduced(self) -> tuple[int, DalphaElem]:
        """lde(self) = k and alpha**k * self, from one chain of divisions."""
        v = self.value
        if v.is_zero():
            return 0, v
        d = 0
        while d < self.denom_exp:
            w = v.divide_by_alpha()
            if w is None:
                break
            v = w
            d += 1
        return self.denom_exp - d, v

    def k_residue(self, k: int) -> int:
        """residue(alpha**k * self); raises K_TOO_SMALL when k < lde(self)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        m = k - self.denom_exp
        if m > 0 or self.value.is_zero():
            return 0  # the residue map sends alpha to 0
        v = self.value
        for _ in range(-m):
            v = v.divide_by_alpha()
            if v is None:
                raise KTooSmallError(f"k={k} is below the least denominator exponent")
        return residue(v)

    def __repr__(self) -> str:
        return f"AlphaElem({self.value!r}, denom_exp={self.denom_exp})"


# -- conversion from the ambient field --------------------------------------

def _build_projection() -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """Left inverse P (6x12) of the 12x6 matrix M whose columns are alpha^k.

    Returned as integer rows over one common denominator, each row listing
    its nonzero (column, coefficient) pairs.
    """
    alpha = embed("alpha")
    cols = []
    acc = Cyclo36.from_int(1)
    for _ in range(_DEG):
        cols.append(acc.as_fractions())
        acc = acc * alpha
    m = [[cols[j][i] for j in range(_DEG)] for i in range(12)]  # 12 x 6
    # Gram matrix G = M^T M (6x6), invert by Gauss-Jordan.
    g = [[sum(m[r][i] * m[r][j] for r in range(12)) for j in range(_DEG)] for i in range(_DEG)]
    aug = [row[:] + [Fraction(int(i == j)) for j in range(_DEG)] for i, row in enumerate(g)]
    for col in range(_DEG):
        pivot = next(r for r in range(col, _DEG) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(_DEG):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [c - f * p for c, p in zip(aug[r], aug[col])]
    ginv = [row[_DEG:] for row in aug]
    # P = G^-1 M^T  (6 x 12)
    p = [
        [sum(ginv[i][k] * m[r][k] for k in range(_DEG)) for r in range(12)]
        for i in range(_DEG)
    ]
    den = math.lcm(*(c.denominator for row in p for c in row))
    rows = tuple(
        tuple((j, int(c * den)) for j, c in enumerate(row) if c) for row in p
    )
    return rows, den


_P_ROWS, _P_DEN = _build_projection()


def to_alpha(x: Cyclo36) -> AlphaElem:
    """Rewrite a real element of Q(zeta_36) over the alpha power basis.

    Raises NOT_REAL for elements with nonzero imaginary part and NOT_IN_A when
    a coordinate denominator involves a prime other than 2 or 3.  alpha
    generates the whole real subfield, so the projection is exact on every
    real input.
    """
    if x.is_zero():
        return AlphaElem(_elem(_ZEROS, 0))
    if not x.is_real():
        raise NotRealError("value has nonzero imaginary part")
    n = x.numerators
    s = [sum(c * n[j] for j, c in row) for row in _P_ROWS]
    den = _P_DEN * x.denominator
    g = math.gcd(den, *s)
    if g > 1:
        s = [c // g for c in s]
        den //= g
    a = (den & -den).bit_length() - 1
    den >>= a
    b = 0
    while den % 3 == 0:
        den //= 3
        b += 1
    if den != 1:
        raise NotInAError("coordinate denominator has a prime factor other than 2 or 3")
    while len(_THIRD_COFACTOR_POWERS) <= b:
        _THIRD_COFACTOR_POWERS.append(_THIRD_COFACTOR_POWERS[-1] * _THIRD_COFACTOR)
    elem = _elem(s, a)
    if b:
        elem = elem * _THIRD_COFACTOR_POWERS[b]
    return AlphaElem(elem, 6 * b)
