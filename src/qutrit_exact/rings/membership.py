"""Ring membership tests inside Q(zeta_36).

Tags name the subrings that certify gate-set membership:

* ``ZOMEGA``  -- Z[omega], entries of Pauli/permutation words;
* ``T``       -- triadic rationals a/3^k;
* ``TOMEGA``  -- triadic combinations of 1 and omega (Clifford and Clifford+R
  matrices have all entries here);
* ``TZETA``   -- triadic combinations of zeta_9 powers (Clifford+T entries);
* ``D``       -- dyadic rationals a/2^k;
* ``DALPHA``  -- Z[1/2][alpha]: real, with least denominator exponent 0;
* ``A``       -- Z[1/2][alpha, 1/3]: real, with reduced denominator 2^a 3^b;
* ``Q36``     -- the whole ambient field.
"""

from __future__ import annotations

import enum

from .alpha import to_alpha
from .cyclo import Cyclo36
from ..errors import NotInAError, NotRealError

__all__ = ["RingTag", "in_ring"]


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


def _is_power_of_3(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


def in_ring(x: Cyclo36, tag: RingTag) -> bool:
    """Exact membership of x in the tagged subring.

    For the real tags (D, DALPHA, A) a value with nonzero imaginary part
    raises NOT_REAL rather than returning False.
    """
    if tag is RingTag.Q36:
        return True
    # The zeta_9 coordinates are an integer change of basis of the numerators,
    # so in Q(zeta_9) they share the reduced denominator of x.
    den = x.denominator
    if tag is RingTag.T:
        return x.is_rational() and _is_power_of_3(den)
    if tag is RingTag.D:
        if not x.is_real():
            raise NotRealError("dyadic test on a value with nonzero imaginary part")
        return x.is_rational() and den & (den - 1) == 0
    if tag in (RingTag.ZOMEGA, RingTag.TOMEGA, RingTag.TZETA):
        coords = x.zeta9_coords()
        if coords is None:
            return False
        if tag is not RingTag.TZETA and any(coords[i] for i in (1, 2, 4, 5)):
            return False
        return den == 1 if tag is RingTag.ZOMEGA else _is_power_of_3(den)
    if tag in (RingTag.DALPHA, RingTag.A):
        try:
            lde, _ = to_alpha(x)
        except NotInAError:
            return False
        return tag is RingTag.A or lde == 0
    raise ValueError(f"unhandled tag {tag}")
