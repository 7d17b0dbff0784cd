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

The traces run on the packed-integer kernel of ``rings.packed``.  U's
entries over their common denominator D, and their conjugates, are packed
once; each of the 81 products is one int product, the omega buckets of a
trace are int sums, and with omega = x^12 and omega^2 = -1 - omega a trace
is b0 - b2 + (b1 - b2) << 12L.  s + d and s - d are sums of 18 such
products, read as 12 reduced lanes each (32 reads per matrix).  Conjugation
(``rings.cyclo.conjugate_coords``) and the factor i are maps of coordinates
on the read lanes, and each entry is built once as a ``Cyclo36`` over 6 D^2.

``adjoint_of`` returns a plain 8 x 8 ``UnitaryMatrix``, so a product of
adjoints is a matrix like any other (Ad(U) Ad(V) = Ad(UV) for unitary U and
V), and the block view that the T-count obstruction reads is three functions
of any 8 x 8 matrix.  Every entry is real by construction, and for circuits
over the supported gate set it lies in A = Z[1/2][alpha, 1/3], alpha =
sin(2*pi/9), which holds exactly when its reduced denominator is 2^a * 3^b.
``check_alpha_ring`` reads that off each entry's denominator and raises
NOT_IN_A otherwise, while the symbolic matrix stays available for
inspection.  ``alpha_block`` converts one 4 x 4 quadrant A, B, C or D to
(lde, residue) cells with ``to_alpha``, and ``block_lde`` reads the largest
exponent off such cells; the caller keeps the cells, so the obstruction
converts block A and, only when it gets that far, block C, each once.
"""

from __future__ import annotations

from itertools import starmap

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.alpha import denominator_exponents, to_alpha
from qutrit_exact.rings.cyclo import Cyclo36, conjugate_coords
from qutrit_exact.rings.packed import lane_width, lanes, over_common_denominator
from qutrit_exact.sim.matrix import UnitaryMatrix

#: the first row and column of each 4 x 4 block
_BLOCK_CORNERS = {"A": (0, 0), "B": (0, 4), "C": (4, 0), "D": (4, 4)}


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


def _times_i(v: list[int]) -> list[int]:
    """i * v as a map of coordinates, with no product.

    With v in blocks of three, (v0, v1, v2, v3), and i = zeta^9,
    zeta^12 = zeta^6 - 1 and zeta^18 = -1, i * v = (-v1 - v3, -v2, v1, v0 + v2).
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = v
    return [-a3 - a9, -a4 - a10, -a5 - a11, -a6, -a7, -a8,
            a3, a4, a5, a0 + a6, a1 + a7, a2 + a8]


def adjoint_of(u: UnitaryMatrix) -> UnitaryMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 matrix."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    den, bound, terms = over_common_denominator([e for row in u.rows for e in row])
    # a conjugate coordinate is a sum of at most two coordinates
    width = lane_width(18, bound, 2 * bound)
    pack, read = lanes(width)
    conj = [pack(s, conjugate_coords(v)) for s, v in terms]
    products = [x * y for x in starmap(pack, terms) for y in conj]
    product, shift12 = products.__getitem__, 12 * width

    def twisted(buckets) -> int:
        # b0 + omega b1 + omega^2 b2 with omega = x^12 and omega^2 = -1 - omega
        b0, b1, b2 = (sum(map(product, idx)) for idx in buckets)
        return b0 - b2 + ((b1 - b2) << shift12)

    scale = 6 * den * den
    rows = [[None] * 8 for _ in range(8)]
    for i, j, s_buckets, d_buckets in _PAIRS:
        s, d = twisted(s_buckets), twisted(d_buckets)
        plus, minus = read(s + d), read(s - d)
        plus_c, minus_c = conjugate_coords(plus), conjugate_coords(minus)
        rows[i][j] = Cyclo36([a + b for a, b in zip(plus, plus_c)], scale)
        rows[i][j + 4] = Cyclo36(_times_i([a - b for a, b in zip(minus, minus_c)]), scale)
        rows[i + 4][j] = Cyclo36(_times_i([a - b for a, b in zip(plus, plus_c)]), scale)
        rows[i + 4][j + 4] = Cyclo36([a + b for a, b in zip(minus, minus_c)], -scale)
    return UnitaryMatrix._of(tuple(map(tuple, rows)))


def check_alpha_ring(m: UnitaryMatrix) -> None:
    """Raise NOT_IN_A if an entry's denominator has a prime other than 2 or 3."""
    for row in m.rows:
        for e in row:
            denominator_exponents(e.denominator)


def alpha_block(m: UnitaryMatrix, name: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(lde, residue) of each entry of block A, B, C or D of an 8 x 8 matrix."""
    if m.dim != 8:
        raise DimMismatchError(f"adjoint blocks need an 8 x 8 matrix, got {m.dim} x {m.dim}")
    r, c = _BLOCK_CORNERS[name]
    return tuple(tuple(map(to_alpha, row[c:c + 4])) for row in m.rows[r:r + 4])


def block_lde(cells: tuple[tuple[tuple[int, int], ...], ...]) -> int:
    """Largest least denominator exponent over a block's (lde, residue) cells."""
    return max(lde for row in cells for lde, _ in row)
