"""The real subfield machinery around alpha = sin(2*pi/9).

alpha generates the real subfield of Q(zeta_36); its minimal polynomial is
64*x^6 - 96*x^4 + 36*x^2 - 3 (Eisenstein at 3 after the substitution used to
derive it from 8*x^3 - 6*x = -sqrt(3)).  Two element types live here:

* ``DalphaElem`` -- Z[1/2][alpha]: six dyadic-rational coordinates over the
  power basis 1, alpha, ..., alpha^5.
* ``AlphaElem`` -- the localization at alpha: a ``DalphaElem`` divided by a
  power of alpha, stored unnormalized; the least denominator exponent is
  computed on demand.

The key arithmetic fact used throughout: 3 = 4*alpha^2*(4*alpha^2 - 3)^2, so
dividing by alpha (when possible) is multiplication by 4*alpha*(4*alpha^2-3)^2
followed by exact division by 3, and 1/3 = (alpha^6/3) / alpha^6 with
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
    "lde",
    "k_residue",
    "to_alpha",
]

_DEG = 6

DalphaLike = Union[int, Fraction, "DalphaElem"]


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# alpha^6 = (96*alpha^4 - 36*alpha^2 + 3)/64, and upward from there.
_ALPHA_POWERS: list[tuple[Fraction, ...]] = []


def _init_power_table() -> None:
    six = tuple(Fraction(c, 64) for c in (3, 0, -36, 0, 96, 0))
    _ALPHA_POWERS.append(six)
    for _ in range(4):  # alpha^7 .. alpha^10
        prev = _ALPHA_POWERS[-1]
        shifted = [Fraction(0)] * _DEG
        overflow = prev[_DEG - 1]
        for i in range(_DEG - 1):
            shifted[i + 1] = prev[i]
        if overflow:
            for i in range(_DEG):
                shifted[i] += overflow * six[i]
        _ALPHA_POWERS.append(tuple(shifted))


_init_power_table()


class DalphaElem:
    """An element of Z[1/2][alpha] in the power basis 1, alpha, ..., alpha^5."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        cs += [Fraction(0)] * (_DEG - len(cs))
        if len(cs) != _DEG:
            raise ValueError("expected at most 6 coordinates")
        for c in cs:
            if not _is_dyadic(c):
                raise ValueError(f"coordinate {c} is not dyadic")
        self._coeffs = tuple(cs)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> DalphaElem:
        return cls((Fraction(q),))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

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
        return DalphaElem(a + b for a, b in zip(self._coeffs, o._coeffs))

    __radd__ = __add__

    def __neg__(self) -> DalphaElem:
        return DalphaElem(-c for c in self._coeffs)

    def __sub__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: DalphaLike) -> DalphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [Fraction(0)] * (2 * _DEG - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(o._coeffs):
                    if b:
                        prod[i + j] += a * b
        out = prod[:_DEG]
        for e in range(_DEG, 2 * _DEG - 1):
            c = prod[e]
            if c:
                table = _ALPHA_POWERS[e - _DEG]
                for i in range(_DEG):
                    out[i] += c * table[i]
        return DalphaElem(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DalphaElem.from_fraction(other)
        if not isinstance(other, DalphaElem):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"DalphaElem({[str(c) for c in self._coeffs]})"

    def times_alpha(self) -> DalphaElem:
        prod = [Fraction(0)] * _DEG
        for i in range(_DEG - 1):
            prod[i + 1] = self._coeffs[i]
        top = self._coeffs[_DEG - 1]
        if top:
            table = _ALPHA_POWERS[0]
            for i in range(_DEG):
                prod[i] += top * table[i]
        return DalphaElem(prod)

    def divide_by_alpha(self) -> DalphaElem | None:
        """Exact quotient self/alpha if it stays in Z[1/2][alpha], else None.

        Since 3 = 4*alpha^2*(4*alpha^2-3)^2, q/alpha = q*(4*alpha*(4*alpha^2-3)^2)/3;
        the quotient is integral exactly when every numerator of the product is
        divisible by 3.
        """
        p = self * _ALPHA_COFACTOR
        out = []
        for c in p._coeffs:
            if c.numerator % 3:
                return None
            out.append(c / 3)
        return DalphaElem(out)


# 4*alpha*(4*alpha^2 - 3)^2 = 64*alpha^5 - 96*alpha^3 + 36*alpha
_ALPHA_COFACTOR = DalphaElem((0, 36, 0, -96, 0, 64))
# alpha^6 / 3, the dyadic cofactor of 1/3
_THIRD_COFACTOR = DalphaElem((Fraction(1, 64), 0, Fraction(-12, 64), 0, Fraction(32, 64), 0))


def residue(q: DalphaElem) -> int:
    """Ring map Z[1/2][alpha] -> Z_3: alpha -> 0, 1/2 -> 2."""
    c = q.coeffs[0]
    k = c.denominator.bit_length() - 1
    r = c.numerator % 3
    if k & 1:
        r = (-r) % 3
    return r


class AlphaElem:
    """An element of the alpha-localization: value / alpha**denom_exp, unnormalized."""

    __slots__ = ("value", "denom_exp")

    def __init__(self, value: DalphaElem, denom_exp: int = 0):
        if denom_exp < 0:
            raise ValueError("denominator exponent must be nonnegative")
        self.value = value
        self.denom_exp = denom_exp

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> AlphaElem:
        q = Fraction(q)
        den = q.denominator
        b = 0
        while den % 3 == 0:
            den //= 3
            b += 1
        dyadic = q * 3**b
        elem = DalphaElem.from_fraction(dyadic)
        for _ in range(b):
            elem = elem * _THIRD_COFACTOR
        return cls(elem, 6 * b)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def lde(self) -> int:
        """Least k >= 0 with alpha**k * self in Z[1/2][alpha]; lde(0) = 0."""
        if self.value.is_zero():
            return 0
        v = self.value
        d = 0
        while d < self.denom_exp:
            w = v.divide_by_alpha()
            if w is None:
                break
            v = w
            d += 1
        return self.denom_exp - d

    def k_residue(self, k: int) -> int:
        """residue(alpha**k * self); raises K_TOO_SMALL when k < lde(self)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self.value.is_zero():
            return 0
        m = k - self.denom_exp
        v = self.value
        if m >= 0:
            for _ in range(m):
                v = v.times_alpha()
        else:
            for _ in range(-m):
                w = v.divide_by_alpha()
                if w is None:
                    raise KTooSmallError(f"k={k} is below the least denominator exponent")
                v = w
        return residue(v)

    def _align(self, other: AlphaElem) -> tuple[DalphaElem, DalphaElem, int]:
        k = max(self.denom_exp, other.denom_exp)
        a, b = self.value, other.value
        for _ in range(k - self.denom_exp):
            a = a.times_alpha()
        for _ in range(k - other.denom_exp):
            b = b.times_alpha()
        return a, b, k

    def _coerce(self, other: object) -> AlphaElem | None:
        if isinstance(other, AlphaElem):
            return other
        if isinstance(other, DalphaElem):
            return AlphaElem(other, 0)
        if isinstance(other, (int, Fraction)):
            return AlphaElem.from_fraction(other)
        return None

    def __add__(self, other) -> AlphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, k = self._align(o)
        return AlphaElem(a + b, k)

    __radd__ = __add__

    def __neg__(self) -> AlphaElem:
        return AlphaElem(-self.value, self.denom_exp)

    def __sub__(self, other) -> AlphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> AlphaElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlphaElem(self.value * o.value, self.denom_exp + o.denom_exp)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, _ = self._align(o)
        return a == b

    def __hash__(self) -> int:
        # hash via the normalized pair (lde, value with denominator cleared)
        d = self.lde()
        v = self.value
        steps = self.denom_exp - d
        for _ in range(steps):
            w = v.divide_by_alpha()
            assert w is not None
            v = w
        return hash((d, v))

    def __repr__(self) -> str:
        return f"AlphaElem({self.value!r}, denom_exp={self.denom_exp})"


def lde(x: AlphaElem | DalphaElem) -> int:
    """Least denominator exponent of x with respect to alpha."""
    if isinstance(x, DalphaElem):
        return 0
    return x.lde()


def k_residue(x: AlphaElem | DalphaElem, k: int) -> int:
    """residue of alpha**k * x; K_TOO_SMALL if that product is not in Z[1/2][alpha]."""
    if isinstance(x, DalphaElem):
        x = AlphaElem(x, 0)
    return x.k_residue(k)


# -- conversion from the ambient field --------------------------------------

def _build_alpha_solver() -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """Left inverse P (6x12) of the 12x6 matrix M whose columns are alpha^k."""
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
    m_t = tuple(tuple(row) for row in m)
    return tuple(tuple(row) for row in p), m_t


_P_SOLVE, _M_COLS = _build_alpha_solver()


def _val3(n: int) -> int:
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def to_alpha(x: Cyclo36) -> AlphaElem:
    """Rewrite a real element of Q(zeta_36) over the alpha power basis.

    Raises NOT_REAL for elements with nonzero imaginary part and NOT_IN_A when
    a coordinate denominator involves a prime other than 2 or 3.
    """
    if not x.is_real():
        raise NotRealError("value has nonzero imaginary part")
    c = x.as_fractions()
    r = [sum(prow[i] * c[i] for i in range(12)) for prow in _P_SOLVE]
    for i in range(12):
        recon = sum(_M_COLS[i][j] * r[j] for j in range(_DEG))
        if recon != c[i]:
            raise NotRealError("value lies outside the real subfield")
    b_max = 0
    for q in r:
        den = q.denominator
        v3 = _val3(den)
        rest = den // 3**v3
        if rest & (rest - 1):
            raise NotInAError("coordinate denominator has a prime factor other than 2 or 3")
        b_max = max(b_max, v3)
    cleared = [q * 3**b_max for q in r]
    elem = DalphaElem(cleared)
    for _ in range(b_max):
        elem = elem * _THIRD_COFACTOR
    return AlphaElem(elem, 6 * b_max)
