"""Exact arithmetic in the 36th cyclotomic field.

Every matrix entry the toolkit touches lives in Q(zeta) with
zeta = exp(2*pi*i/36).  This one field contains omega = zeta^12 (third root
of unity), zeta_9 = zeta^4 (ninth root), i = zeta^9, i*sqrt(3) = omega - omega^2
and alpha = sin(2*pi/9) = (zeta^5 - zeta^13)/2, so a single 12-coordinate
representation covers every gate entry and every derived quantity exactly.

Elements are stored as 12 integer numerators over one positive integer
denominator, reduced mod Phi_36(x) = x^12 - x^6 + 1 and gcd-normalized, so
equality is plain tuple comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["Cyclo36", "ZERO", "ONE", "MINUS_ONE", "OMEGA", "OMEGA2"]

_DEGREE = 12

Scalar = Union[int, Fraction, "Cyclo36"]


def _reduced_power(e: int) -> tuple[int, ...]:
    """Coordinate vector of zeta^e in the power basis 1, zeta, ..., zeta^11."""
    e %= 36
    if e < 12:
        vec = [0] * _DEGREE
        vec[e] = 1
        return tuple(vec)
    if e < 18:
        # zeta^e = zeta^(e-6) - zeta^(e-12)
        vec = [0] * _DEGREE
        vec[e - 6] = 1
        vec[e - 12] = -1
        return tuple(vec)
    # zeta^18 = -1
    return tuple(-c for c in _reduced_power(e - 18))


_POWER_TABLE: tuple[tuple[int, ...], ...] = tuple(_reduced_power(e) for e in range(36))
# sigma_k: zeta -> zeta^k as the images of the basis powers zeta^j -> zeta^(j*k),
# for the Galois group (Z/36)* = {1, 35} x {1, 17} x {1, 13, 25}; sigma_35,
# complex conjugation, is the coordinate map ``conjugate_coords``.
_SIGMA = {k: tuple(_POWER_TABLE[j * k % 36] for j in range(_DEGREE)) for k in (17, 13, 25)}


def conjugate_coords(v) -> tuple[int, ...]:
    """Complex conjugate of 12 numerators as a map of coordinates.

    zeta^j goes to zeta^-j = -zeta^(18-j), and zeta^(18-j) = zeta^(12-j) - zeta^(6-j)
    for 1 <= j <= 6.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = v
    return (a0 + a6, a5, a4, a3, a2, a1,
            -a6, -a5 - a11, -a4 - a10, -a3 - a9, -a2 - a8, -a1 - a7)


def _galois_image(nums: tuple[int, ...], sigma: tuple[tuple[int, ...], ...]) -> list[int]:
    acc = [0] * _DEGREE
    for c, image in zip(nums, sigma):
        if c:
            for idx, t in enumerate(image):
                if t:
                    acc[idx] += c * t
    return acc


def _mul_vectors(a: Iterable[int], b: tuple[int, ...]) -> list[int]:
    prod = [0] * (2 * _DEGREE - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    for e in range(2 * _DEGREE - 2, _DEGREE - 1, -1):
        c = prod[e]
        if c:
            prod[e] = 0
            if e >= 18:
                prod[e - 18] -= c
            else:
                prod[e - 6] += c
                prod[e - 12] -= c
    return prod[:_DEGREE]


class Cyclo36:
    """An element of Q(zeta_36), exact and hashable."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerators: Iterable[int] = (), denominator: int = 1):
        nums = list(numerators) + [0] * _DEGREE
        nums = nums[:_DEGREE]
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if denominator < 0:
            nums = [-c for c in nums]
            denominator = -denominator
        g = math.gcd(denominator, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            denominator //= g
        self._num = tuple(nums)
        self._den = denominator

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> Cyclo36:
        return cls((n,), 1)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> Cyclo36:
        q = Fraction(q)
        return cls((q.numerator,), q.denominator)

    @classmethod
    def zeta_pow(cls, e: int) -> Cyclo36:
        """zeta_36 ** e."""
        return cls(_POWER_TABLE[e % 36], 1)

    @classmethod
    def omega_pow(cls, e: int) -> Cyclo36:
        """omega ** e with omega = zeta^12."""
        return cls(_POWER_TABLE[(12 * e) % 36], 1)

    @classmethod
    def zeta9_pow(cls, e: int) -> Cyclo36:
        """zeta_9 ** e with zeta_9 = zeta^4."""
        return cls(_POWER_TABLE[(4 * e) % 36], 1)

    # -- basic queries -----------------------------------------------------

    @property
    def numerators(self) -> tuple[int, ...]:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    @classmethod
    def from_zeta9_coords(cls, coords: Iterable[int], denominator: int = 1) -> Cyclo36:
        """sum(coords[i] * zeta_9**i) / denominator for i = 0..5."""
        a0, a1, a2, a3, a4, a5 = coords
        # zeta_9**i = zeta**(4i) with zeta**12 = zeta**6 - 1,
        # zeta**16 = zeta**10 - zeta**4 and zeta**20 = -zeta**2
        return cls((a0 - a3, 0, -a5, 0, a1 - a4, 0, a3, 0, a2, 0, a4, 0), denominator)

    def zeta9_coords(self) -> tuple[int, ...] | None:
        """The numerators in the basis zeta_9**0..5, or None outside Q(zeta_9)."""
        n = self._num
        if any(n[1::2]):
            return None
        return (n[0] + n[6], n[4] + n[10], n[8], n[6], n[10], -n[2])

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self._num[0], self._den)

    def conjugate(self) -> Cyclo36:
        return Cyclo36(conjugate_coords(self._num), self._den)

    def is_real(self) -> bool:
        # conjugation is unimodular, so the conjugate keeps the reduced denominator
        return conjugate_coords(self._num) == self._num

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Scalar) -> Cyclo36 | None:
        if isinstance(other, Cyclo36):
            return other
        if isinstance(other, int):
            return Cyclo36((other,), 1)
        if isinstance(other, Fraction):
            return Cyclo36((other.numerator,), other.denominator)
        return None

    def __add__(self, other: Scalar) -> Cyclo36:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        nums = [a * d2 + b * d1 for a, b in zip(self._num, o._num)]
        return Cyclo36(nums, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> Cyclo36:
        return Cyclo36(tuple(-c for c in self._num), self._den)

    def __sub__(self, other: Scalar) -> Cyclo36:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: Scalar) -> Cyclo36:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo36(_mul_vectors(self._num, o._num), self._den * o._den)

    __rmul__ = __mul__

    def times_omega(self, k: int = 1) -> Cyclo36:
        """omega**k * self as a map of coordinates, with no product.

        With numerators lo + zeta^6 hi (lo, hi of degree < 6) and
        zeta^12 = zeta^6 - 1, omega maps them to (-lo - hi) + zeta^6 lo, and
        omega^2 to hi + zeta^6 (-lo - hi).  The map is invertible over Z, so
        the numerators stay reduced over the same denominator and no gcd is
        taken.
        """
        k %= 3
        if not k or self.is_zero():
            return self
        lo, hi = self._num[:6], self._num[6:]
        mixed = tuple(-p - q for p, q in zip(lo, hi))
        out = object.__new__(Cyclo36)
        out._num, out._den = mixed + lo if k == 1 else hi + mixed, self._den
        return out

    def __pow__(self, e: int) -> Cyclo36:
        if e < 0:
            return self.inverse() ** (-e)
        acc = ONE
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> Cyclo36:
        """Multiplicative inverse via the Galois norm.

        With x = n/d, the product c of the 11 conjugates sigma_k(n), k != 1,
        satisfies n*c = N(n), a nonzero integer, so x^-1 = d*c/N(n).  c is
        built up the subgroup tower: n1 = n*sigma_35(n) is fixed by {1, 35},
        n2 = n1*sigma_17(n1) by {1, 17, 19, 35}, and N(n) = n2*t with
        t = sigma_13(n2)*sigma_25(n2).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            q = self.as_fraction()
            return Cyclo36.from_fraction(1 / q)
        n = self._num
        c1 = conjugate_coords(n)
        n1 = _mul_vectors(n, c1)
        c2 = _galois_image(n1, _SIGMA[17])
        n2 = _mul_vectors(n1, c2)
        t = _mul_vectors(_galois_image(n2, _SIGMA[13]), _galois_image(n2, _SIGMA[25]))
        norm = _mul_vectors(n2, t)[0]
        cof = _mul_vectors(_mul_vectors(c1, c2), t)
        return Cyclo36([c * self._den for c in cof], norm)

    # -- comparisons, rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Cyclo36):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclo36({list(self._num)}, {self._den})"

    def __str__(self) -> str:
        """A rational prints as a fraction.  Any other x in Q(zeta_9) prints as
        c*omega^2, c*zeta^7 or c*zeta^8 when it is such a monomial, and
        otherwise as one term per nonzero coordinate in the basis
        1, zeta, zeta^2, omega, zeta^4, zeta^5 (zeta = zeta_9).  Values outside
        Q(zeta_9) print as their 12 numerators over the denominator.
        """
        if self.is_zero():
            return "0"
        if self.is_rational():
            return str(Fraction(self._num[0], self._den))
        d = self.zeta9_coords()
        if d is None:
            body = ",".join(str(c) for c in self._num)
            return f"({body})" if self._den == 1 else f"({body})/{self._den}"
        for m, name in enumerate(("omega^2", "zeta^7", "zeta^8")):
            # zeta_9**(6+m) = -zeta_9**m - zeta_9**(3+m)
            if d == tuple(d[m] if i % 3 == m else 0 for i in range(6)):
                terms = [(-d[m], name)]
                break
        else:
            terms = zip(d, ("1", "zeta", "zeta^2", "omega", "zeta^4", "zeta^5"))
        out = ""
        for c, name in terms:
            if c:
                q = Fraction(abs(c), self._den)
                piece = str(q) if name == "1" else name if q == 1 else f"{q}*{name}"
                if out:
                    out += f" - {piece}" if c < 0 else f" + {piece}"
                else:
                    out = f"-{piece}" if c < 0 else piece
        return out


ZERO = Cyclo36()
ONE = Cyclo36.from_int(1)
MINUS_ONE = Cyclo36.from_int(-1)
OMEGA = Cyclo36.zeta_pow(12)
OMEGA2 = Cyclo36.zeta_pow(24)
