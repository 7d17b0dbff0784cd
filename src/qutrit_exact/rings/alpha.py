"""The valuation at 3 on the real subfield of Q(zeta_36), read through alpha.

alpha = sin(2*pi/9) generates the real subfield K of Q(zeta_36).  The
T-count obstruction reads a real x through two numbers:

* lde(x), the least L >= 0 with alpha**L * x in Z[1/2][alpha];
* the residue of alpha**lde(x) * x under the ring map Z[1/2][alpha] -> Z_3
  that sends alpha to 0 and 1/2 to 2.

Both are the valuation at the single prime p above 3, read directly on the
``Cyclo36`` numerators; no second element type is built.

beta = 2*alpha = zeta^5 - zeta^13 has minimal polynomial
x^6 - 6x^4 + 9x^2 - 3, which is Eisenstein at 3.  So beta generates p,
3/beta = 9*beta - 6*beta^3 + beta^5 is integral, and 3 = beta^6 * u with
u = 1/(1 - 3*beta^2 + 2*beta^4) a unit that is 1 mod p.  The residue field of
Z[zeta_36] at p is F_9 = Z[i]/3 with zeta -> i; complex conjugation acts on
it as the Frobenius, so a real numerator vector n reduces to the rational
part of sum(n_j * i**j) mod 3, and beta divides n exactly when that is 0.

Dividing by beta is a map of coordinates, ``_over_beta``, with no product:
over the power basis of zeta,
3/beta = zeta + 2 zeta^3 + zeta^5 - 2 zeta^7 - zeta^9 + zeta^11, and each
output coordinate is a line of that product reduced mod Phi_36, divided
exactly by 3.  The constant has only odd powers, so even outputs read only
odd inputs and odd outputs only even ones.

Membership needs no change of basis.  The discriminant of the minimal
polynomial of beta is 2^6 * 3^9 and the polynomial is Eisenstein at 3, so
the index of Z[beta] in the integers of K is a power of 2: Z[1/2][alpha] is
that ring of integers with 2 inverted, and A = Z[1/2][alpha, 1/3] is the one
with 6 inverted.  A real x = n/den, reduced, therefore lies in A exactly when
den = 2^a * 3^b, which is what NOT_IN_A tests.  Then
alpha**L * x = (n / beta^v) * u^-b / 2^(a+L) with v = v_p(n) and L = 6b - v,
so lde(x) = max(0, 6b - v) and the residue is res(n / beta^v) * (-1)^(a+L).
When b > 0, 3 does not divide n (the gcd is normalized away) and p^6 = (3),
so v <= 5: at most five divisions by beta.
"""

from __future__ import annotations

from .cyclo import Cyclo36
from ..errors import NotInAError, NotRealError

__all__ = ["denominator_exponents", "to_alpha"]


def _over_beta(n) -> tuple[int, ...]:
    """n / beta for numerators n that beta divides, as n * (3/beta) / 3."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = n
    return ((-a1 + a3 + 2*a5 - 2*a7 - a9 + a11) // 3,
            (a0 - a2 + a4 + 2*a6 - 2*a8 - a10) // 3,
            (a1 - a3 + a5 + 2*a7 - 2*a9 - a11) // 3,
            (2*a0 + a2 - a4 + a6 + 2*a8 - 2*a10) // 3,
            (2*a1 + a3 - a5 + a7 + 2*a9 - 2*a11) // 3,
            (a0 + 2*a2 + a4 - a6 + a8 + 2*a10) // 3,
            (2*a1 + a3 - a5 + a7 + 2*a9 + a11) // 3,
            (-2*a0 + 2*a2 + a4 - a6 + a8 + 2*a10) // 3,
            (-2*a1 + 2*a3 + a5 - a7 + a9 + 2*a11) // 3,
            (-a0 - 2*a2 + 2*a4 + a6 - a8 + a10) // 3,
            (-a1 - 2*a3 + 2*a5 + a7 - a9 + a11) // 3,
            (a0 - a2 - 2*a4 + 2*a6 + a8 - a10) // 3)


def _residue(n) -> int:
    """Image in Z_3 of a real integer numerator vector, via zeta -> i."""
    return (n[0] - n[2] + n[4] - n[6] + n[8] - n[10]) % 3


def denominator_exponents(den: int) -> tuple[int, int]:
    """(a, b) with den = 2**a * 3**b; raises NOT_IN_A for any other prime factor."""
    a = (den & -den).bit_length() - 1
    den >>= a
    b = 0
    while den % 3 == 0:
        den //= 3
        b += 1
    if den != 1:
        raise NotInAError("coordinate denominator has a prime factor other than 2 or 3")
    return a, b


def to_alpha(x: Cyclo36) -> tuple[int, int]:
    """(lde, residue) of a real element: lde(x) and the residue of alpha**lde(x) * x.

    Raises NOT_REAL for elements with nonzero imaginary part and NOT_IN_A when
    the reduced denominator has a prime factor other than 2 or 3.
    """
    if x.is_zero():
        return 0, 0
    if not x.is_real():
        raise NotRealError("value has nonzero imaginary part")
    a, b = denominator_exponents(x.denominator)
    n = x.numerators
    lde = 6 * b
    while b and not _residue(n):
        if lde == 6 * b - 5:
            # v <= 5 (module docstring), so a sixth division is a defect; not a
            # RingError, which ringcert would read as "not a member"
            raise AssertionError("beta divides a numerator free of 3 more than five times")
        n = _over_beta(n)
        lde -= 1
    r = _residue(n)
    return lde, -r % 3 if (a + lde) & 1 else r
