"""Exact number rings used by the toolkit."""

from .alpha import to_alpha
from .cyclo import MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO, Cyclo36
from ..errors import NotInAError, NotRealError, RingError
from .membership import RingTag, in_ring

__all__ = [
    "Cyclo36",
    "MINUS_ONE",
    "NotInAError",
    "NotRealError",
    "OMEGA",
    "OMEGA2",
    "ONE",
    "RingError",
    "RingTag",
    "ZERO",
    "in_ring",
    "to_alpha",
]
