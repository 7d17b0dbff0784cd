"""Sums of products of Q(zeta_36) numerators on Kronecker-packed integers.

A numerator vector (c_0, ..., c_11) packs into the Python int
sum(c_k * 2^(L*k)): the polynomial evaluated at x = 2^L, with one signed
L-bit lane per coordinate (Kronecker substitution).  The product of two
packed ints is their product polynomial of degree 22, not yet reduced, and
a sum of products is an int sum.  ``read`` reduces a packed polynomial of
degree < 36 mod Phi_36(x) = x^12 - x^6 + 1 by two folds, x^18 = -1 (lanes
18.. are subtracted from lanes 0..) and then x^12 = x^6 - 1; a fold splits
the int at lane 18 or 12, rounding so that the low part keeps its signed
lanes.  Only then are the 12 lanes read.

Lane width.  Let S be a signed sum of n products x * y, each possibly times
omega = x^12 or omega^2 = -1 - x^12, where every numerator of an x is at
most A and every numerator of a y at most B in absolute value.  Then
L = bitlen(48 n A B) + 1 keeps every lane c that is split or read within
|c| < 2^(L-1), where adding 2^(L-1) to each lane turns it into an L-bit
digit, so both the rounding split and the read are exact:

- lane m of x * y is the sum of x_a y_b over a + b = m; for each a at most
  one b in 0..11 has a + b = m or a + b = m - 12, so lanes m and m - 12 of
  one product hold together at most 12 A B;
- lane m of omega^k x y is lane m (k = 0), lane m - 12 (k = 1) or minus
  both (k = 2) of x y, so lane m of S is at most 12 n A B;
- the first fold makes each lane m < 18 the difference of lanes m and
  m + 18, at most 24 n A B; the second makes lane m < 6 the difference of
  lanes m and m + 12 and lane 6 <= m < 12 the sum of lanes m and m + 6, at
  most 48 n A B.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import lshift


def over_common_denominator(entries) -> tuple[int, int, list[tuple[int, tuple[int, ...]]]]:
    """The least common denominator D, the largest |numerator| over D, and per
    entry the pair (D / its denominator, its numerators)."""
    den = math.lcm(*(e.denominator for e in entries))
    terms = [(den // e.denominator, e.numerators) for e in entries]
    return den, max((s * max(map(abs, v)) for s, v in terms), default=0), terms


def lane_width(n: int, a: int, b: int) -> int:
    """The least L with 48 n a b < 2^(L-1): every lane of a signed sum of n
    products fits (module docstring)."""
    return (48 * n * a * b).bit_length() + 1


@lru_cache(maxsize=256)
def lanes(width: int):
    """(pack, read) for lanes of ``width`` bits: ``pack(s, v)`` is s times the
    int of the 12 numerators v, ``read`` reduces a packed polynomial of
    degree < 36 and returns its 12 lanes."""
    shifts = range(0, 12 * width, width)
    shift6, shift12, shift18 = 6 * width, 12 * width, 18 * width
    # 2^(width-1) in each of 18 lanes: adding it makes every signed lane a digit
    bias18 = ((1 << shift18) - 1) // ((1 << width) - 1) << (width - 1)
    bias12 = bias18 & ((1 << shift12) - 1)
    mask, half = (1 << width) - 1, 1 << (width - 1)

    def pack(scale: int, v) -> int:
        return scale * sum(map(lshift, v, shifts))

    def read(x: int) -> list[int]:
        hi = (x + bias18) >> shift18
        x -= (hi << shift18) + hi  # x^18 = -1
        hi = (x + bias12) >> shift12
        x += (hi << shift6) - (hi << shift12) - hi + bias12  # x^12 = x^6 - 1, lanes biased
        return [((x >> k) & mask) - half for k in shifts]

    return pack, read
