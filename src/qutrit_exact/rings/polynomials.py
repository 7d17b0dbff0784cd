"""Rational-root detection for integer cubics."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["has_rational_root"]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def has_rational_root(c3: int, c2: int, c1: int, c0: int) -> bool:
    """Whether c3*x^3 + c2*x^2 + c1*x + c0 has a rational root.

    By the rational root theorem any root p/q in lowest terms has p | c0 and
    q | c3, so the search space is finite and the answer is exact.
    """
    if c3 == 0:
        raise ValueError("leading coefficient must be nonzero")
    if c0 == 0:
        return True

    def value(x: Fraction) -> Fraction:
        return ((Fraction(c3) * x + c2) * x + c1) * x + c0

    for p in _divisors(c0):
        for q in _divisors(c3):
            for sign in (1, -1):
                if value(Fraction(sign * p, q)) == 0:
                    return True
    return False
