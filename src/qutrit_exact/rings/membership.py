"""Ring membership tests inside Q(zeta_36).

Tags name the subrings that certify gate-set membership:

* ``ZOMEGA``  -- Z[omega], entries of Pauli/permutation words;
* ``T``       -- triadic rationals a/3^k;
* ``TOMEGA``  -- triadic combinations of 1 and omega (Clifford and Clifford+R
  matrices have all entries here);
* ``TZETA``   -- triadic combinations of zeta_9 powers (Clifford+T entries);
* ``D``       -- dyadic rationals a/2^k;
* ``DALPHA``  -- Z[1/2][alpha];
* ``A``       -- the alpha-localization of DALPHA;
* ``Q36``     -- the whole ambient field.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .alpha import to_alpha
from .cyclo import Cyclo36
from ..errors import NotInAError, NotRealError

__all__ = ["RingTag", "in_ring", "zeta9_coordinates"]


class RingTag(enum.Enum):
    """Names for the subrings recognized by membership tests."""

    ZOMEGA = "Zomega"
    T = "T"
    TOMEGA = "Tomega"
    TZETA = "Tzeta"
    D = "D"
    DALPHA = "Dalpha"
    A = "A"
    Q36 = "Q36"

    @classmethod
    def parse(cls, text: str) -> RingTag:
        key = text.strip().lower()
        for tag in cls:
            if tag.value.lower() == key:
                return tag
        raise ValueError(f"unknown ring tag: {text!r}")


def _is_triadic(q: Fraction) -> bool:
    d = q.denominator
    while d % 3 == 0:
        d //= 3
    return d == 1


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def zeta9_coordinates(x: Cyclo36) -> tuple[Fraction, ...] | None:
    """Coordinates of x over 1, zeta_9, ..., zeta_9^5, or None if x is not in Q(zeta_9).

    x is in Q(zeta_9) exactly when the odd-index coordinates over the zeta_36
    power basis vanish; the even powers convert by zeta^2 = -zeta_9^5,
    zeta^4 = zeta_9, zeta^6 = 1 + zeta_9^3, zeta^8 = zeta_9^2,
    zeta^10 = zeta_9 + zeta_9^4.
    """
    c = x.as_fractions()
    if any(c[i] for i in range(1, 12, 2)):
        return None
    return (
        c[0] + c[6],
        c[4] + c[10],
        c[8],
        c[6],
        c[10],
        -c[2],
    )


def in_ring(x: Cyclo36, tag: RingTag) -> bool:
    """Exact membership of x in the tagged subring.

    For the real tags (D, DALPHA, A) a value with nonzero imaginary part
    raises NOT_REAL rather than returning False.
    """
    if tag is RingTag.Q36:
        return True
    if tag is RingTag.T:
        return x.is_rational() and _is_triadic(x.as_fraction())
    if tag is RingTag.D:
        if not x.is_real():
            raise NotRealError("dyadic test on a value with nonzero imaginary part")
        return x.is_rational() and _is_dyadic(x.as_fraction())
    if tag in (RingTag.ZOMEGA, RingTag.TOMEGA):
        coords = zeta9_coordinates(x)
        if coords is None:
            return False
        if any(coords[i] for i in (1, 2, 4, 5)):
            return False
        a, b = coords[0], coords[3]
        if tag is RingTag.ZOMEGA:
            return a.denominator == 1 and b.denominator == 1
        return _is_triadic(a) and _is_triadic(b)
    if tag is RingTag.TZETA:
        coords = zeta9_coordinates(x)
        if coords is None:
            return False
        return all(_is_triadic(q) for q in coords)
    if tag in (RingTag.DALPHA, RingTag.A):
        try:
            elem = to_alpha(x)
        except NotInAError:
            return False
        if tag is RingTag.A:
            return True
        return elem.lde() == 0
    raise ValueError(f"unhandled tag {tag}")
