"""Adjoint representation of 3x3 unitaries over the Hermitian Pauli combinations.

The four Pauli words P = X^x Z^z with (x, z) = (0, 1), (1, 0), (1, 1), (1, 2)
(Z, X, XZ, XZ^2), whose column c holds omega^(z*c) in row c + x, give the
basis P + P^dag (plus type) then i(P - P^dag) (minus type): eight traceless
Hermitian matrices m_i with Tr(m_i m_j) = 6 delta_ij.  The adjoint of U sends
M to U M U^dag, and its entry (i, j) is Tr(m_i U m_j U^dag) / 6.  With
s = Tr(P_i U P_j U^dag) and d = Tr(P_i U P_j^dag U^dag), the four 4x4 blocks
are the Pauli-transfer form

    A = Re(s + d)/3,  B = -Im(s - d)/3,  C = -Im(s + d)/3,  D = -Re(s - d)/3,

computed as (z + conj z)/6 for A, -(z + conj z)/6 for D and i(z - conj z)/6
for B and C.  Each trace is a sum of the 81 products U[a][b] * conj(U[c][e])
times powers of omega read off the words, so the products are formed once
and bucketed by omega power.  This holds for any 3x3 input, with or without
a global phase.

The traces are computed on packed integers (Kronecker substitution: a
polynomial is evaluated at 2^L).  U's entries are brought to one common
denominator D, and each entry's 12 numerators, and those of its conjugate,
become one Python int sum(c_k * 2^(L*k)) with one signed L-bit lane per
coordinate.  Each of the 81 products is then one int product (a polynomial
of degree 22 in x = 2^L, not yet reduced), the omega buckets of a trace are
int sums, and with omega = x^12 and omega^2 = -1 - omega a trace is
b0 - b2 + (b1 - b2) << 12L, of degree 34.  s + d and s - d are reduced on
the packed int by two folds, x^18 = -1 (lanes 18.. are subtracted from
lanes 0..) and then x^12 = x^6 - 1; a fold splits the int at lane 18 or 12,
rounding so that the low part keeps its signed lanes.  Only then are the 12
lanes read, so there are 32 unpacks per matrix.  Conjugation and the factor
i are maps of coordinates on the unpacked lanes, and each entry is built
once as a ``Cyclo36`` over 6 D^2.

Lane width.  Let B be the largest |numerator| of the 18 packed inputs; then
L = bitlen(864 B^2) + 1 keeps every lane c that is split or read within
|c| < 2^(L-1), where adding 2^(L-1) to each lane turns it into an L-bit
digit, so both the rounding split and the read are exact:

- lane m of a product x * y is the sum of x_a y_b over a + b = m; for each
  a at most one b in 0..11 has a + b = m or a + b = m - 12, so lanes m and
  m - 12 of one product hold together at most 12 B^2;
- lane m of a trace takes, from each of its 9 products, lane m, lane m - 12
  or (for omega^2) minus both, so it is at most 9 * 12 B^2 = 108 B^2, and a
  lane of s + d or s - d is at most 216 B^2;
- the first fold makes each lane m < 18 the difference of lanes m and
  m + 18, at most 432 B^2; the second makes lane m < 6 the difference of
  lanes m and m + 12 and lane 6 <= m < 12 the sum of lanes m and m + 6, at
  most 864 B^2.

``AdjointMatrix`` is an 8 x 8 ``UnitaryMatrix`` (product, equality and
hashing are the matrix's own) that adds the view the T-count obstruction
reads.  Every entry is real by construction, and for circuits over the
supported gate set it lies in A = Z[1/2][alpha, 1/3], alpha = sin(2*pi/9),
which holds exactly when its reduced denominator is 2^a * 3^b.
``check_alpha_ring`` reads that off each entry's denominator and raises
NOT_IN_A otherwise, while the symbolic matrix stays available for
inspection.  ``alpha_block`` converts one block to (lde, residue) pairs with
``to_alpha`` on first use and caches it, so the obstruction converts block A
and, only when it gets that far, block C.
"""

from __future__ import annotations

import math
from operator import lshift

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.alpha import denominator_exponents, to_alpha
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix

_BLOCK_SLICES = {
    "A": (range(0, 4), range(0, 4)),
    "B": (range(0, 4), range(4, 8)),
    "C": (range(4, 8), range(0, 4)),
    "D": (range(4, 8), range(4, 8)),
}


def _columns(x: int, z: int):
    """Per column of P = X^x Z^z, then of P^dag: (row of its nonzero entry, omega exponent)."""
    p = tuple(((c + x) % 3, z * c % 3) for c in range(3))
    p_dag = tuple(((c - x) % 3, -z * (c - x) % 3) for c in range(3))
    return p, p_dag


def _trace_buckets(p, q) -> tuple[tuple[int, ...], ...]:
    """Tr(P U Q U^dag) as the products 9(3b + c) + 3a + e, U[b][c] conj(U[a][e]),
    that omega^k multiplies, for k = 0, 1, 2."""
    terms = [
        ((kp + kq) % 3, 9 * (3 * b + c) + 3 * a + e)
        for b, (a, kp) in enumerate(p)
        for e, (c, kq) in enumerate(q)
    ]
    return tuple(tuple(idx for k, idx in terms if k == b) for b in range(3))


# the Pauli words Z, X, XZ, XZ^2, in basis order
_COLUMNS = tuple(_columns(x, z) for x, z in ((0, 1), (1, 0), (1, 1), (1, 2)))

#: (i, j, buckets of s, buckets of d) for the 16 word pairs.
_PAIRS = tuple(
    (i, j, _trace_buckets(p, q), _trace_buckets(p, q_dag))
    for i, (p, _) in enumerate(_COLUMNS)
    for j, (q, q_dag) in enumerate(_COLUMNS)
)


class AdjointMatrix(UnitaryMatrix):
    """8x8 exact real matrix; blocks A, B, C, D are its 4x4 quadrants."""

    __slots__ = ("_alpha",)

    def __init__(self, rows):
        super().__init__(rows)
        if self.dim != 8:
            raise ValueError("adjoint matrix must be 8 x 8")
        self._alpha = {}

    def check_alpha_ring(self) -> None:
        """Raise NOT_IN_A if an entry's denominator has a prime other than 2 or 3."""
        for row in self.rows:
            for e in row:
                denominator_exponents(e.denominator)

    def alpha_block(self, name: str) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(lde, residue) per entry of a block, converted on first use."""
        block = self._alpha.get(name)
        if block is None:
            rows, cols = _BLOCK_SLICES[name]
            block = tuple(tuple(to_alpha(self.rows[i][j]) for j in cols) for i in rows)
            self._alpha[name] = block
        return block


def _lane_width(bound: int) -> int:
    """The least L with 864 * bound^2 < 2^(L-1): every lane fits (module docstring)."""
    return (864 * bound * bound).bit_length() + 1


def _conj(v: list[int]) -> list[int]:
    """Complex conjugate of v as a map of coordinates.

    zeta^j goes to zeta^-j = -zeta^(18-j), and zeta^(18-j) = zeta^(12-j) - zeta^(6-j)
    for 1 <= j <= 6.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = v
    return [a0 + a6, a5, a4, a3, a2, a1,
            -a6, -a5 - a11, -a4 - a10, -a3 - a9, -a2 - a8, -a1 - a7]


def _times_i(v: list[int]) -> list[int]:
    """i * v as a map of coordinates, with no product.

    With v in blocks of three, (v0, v1, v2, v3), and i = zeta^9,
    zeta^12 = zeta^6 - 1 and zeta^18 = -1, i * v = (-v1 - v3, -v2, v1, v0 + v2).
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = v
    return [-a3 - a9, -a4 - a10, -a5 - a11, -a6, -a7, -a8,
            a3, a4, a5, a0 + a6, a1 + a7, a2 + a8]


def adjoint_of(u: UnitaryMatrix) -> AdjointMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 matrix."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    flat = [e for row in u.rows for e in row]
    den = math.lcm(*(e.denominator for e in flat))
    nums = [[c * (den // e.denominator) for c in e.numerators] if e else None for e in flat]
    conj = [_conj(n) if n else None for n in nums]
    bound = max((abs(c) for v in nums + conj if v for c in v), default=0)
    width = _lane_width(bound)
    shifts = [width * k for k in range(12)]
    packed = [sum(map(lshift, v, shifts)) if v else 0 for v in nums + conj]
    products = [x * y for x in packed[:9] for y in packed[9:]]
    product = products.__getitem__
    shift6, shift12, shift18 = 6 * width, 12 * width, 18 * width
    # 2**(width-1) in each of 18 lanes: adding it makes every signed lane a digit
    bias18 = ((1 << shift18) - 1) // ((1 << width) - 1) << (width - 1)
    bias12 = bias18 & ((1 << shift12) - 1)
    mask, half = (1 << width) - 1, 1 << (width - 1)

    def twisted(buckets) -> int:
        # b0 + omega b1 + omega^2 b2 with omega = x^12 and omega^2 = -1 - omega
        b0, b1, b2 = (sum(map(product, idx)) for idx in buckets)
        return b0 - b2 + ((b1 - b2) << shift12)

    def lanes(x: int) -> list[int]:
        hi = (x + bias18) >> shift18
        x -= (hi << shift18) + hi  # x^18 = -1
        hi = (x + bias12) >> shift12
        x += (hi << shift6) - (hi << shift12) - hi  # x^12 = x^6 - 1
        x += bias12
        return [((x >> k) & mask) - half for k in shifts]

    scale = 6 * den * den
    rows = [[None] * 8 for _ in range(8)]
    for i, j, s_buckets, d_buckets in _PAIRS:
        s, d = twisted(s_buckets), twisted(d_buckets)
        plus, minus = lanes(s + d), lanes(s - d)
        plus_c, minus_c = _conj(plus), _conj(minus)
        rows[i][j] = Cyclo36([a + b for a, b in zip(plus, plus_c)], scale)
        rows[i][j + 4] = Cyclo36(_times_i([a - b for a, b in zip(minus, minus_c)]), scale)
        rows[i + 4][j] = Cyclo36(_times_i([a - b for a, b in zip(plus, plus_c)]), scale)
        rows[i + 4][j + 4] = Cyclo36([a + b for a, b in zip(minus, minus_c)], -scale)
    return AdjointMatrix(rows)


def block_lde(m: AdjointMatrix, name: str) -> int:
    """Largest least denominator exponent over the 16 entries of a block."""
    return max(lde for row in m.alpha_block(name) for lde, _ in row)
