"""Exact number rings used by the toolkit."""

from .alpha import to_alpha
from .cyclo import MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO, ZETA9, Cyclo36, embed
from ..errors import KTooSmallError, NotInAError, NotRealError, RingError
from .membership import RingTag, in_ring
from .polynomials import has_rational_root

__all__ = [
    "Cyclo36",
    "KTooSmallError",
    "MINUS_ONE",
    "NotInAError",
    "NotRealError",
    "OMEGA",
    "OMEGA2",
    "ONE",
    "RingError",
    "RingTag",
    "ZERO",
    "ZETA9",
    "embed",
    "has_rational_root",
    "in_ring",
    "to_alpha",
]
