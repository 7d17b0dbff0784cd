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

``AdjointMatrix`` is an 8 x 8 ``UnitaryMatrix`` (product, equality and
hashing are the matrix's own) that adds the view the T-count obstruction
reads: for circuits over the supported gate set every entry lies in the real
ring generated by dyadic fractions, alpha = sin(2*pi/9), and inverse powers
of alpha; the conversion is performed lazily and cached, and a value outside
that ring raises NOT_IN_A while the symbolic matrix stays available for
inspection.
"""

from __future__ import annotations

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.alpha import AlphaElem, to_alpha
from qutrit_exact.rings.cyclo import OMEGA, OMEGA2, ZERO, Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix

_BLOCK_SLICES = {
    "A": (range(0, 4), range(0, 4)),
    "B": (range(0, 4), range(4, 8)),
    "C": (range(4, 8), range(0, 4)),
    "D": (range(4, 8), range(4, 8)),
}

_SIXTH = Cyclo36((1,), 6)
_MINUS_SIXTH = -_SIXTH
_I_SIXTH = Cyclo36.zeta_pow(9) * _SIXTH


def _columns(x: int, z: int):
    """Per column of P = X^x Z^z, then of P^dag: (row of its nonzero entry, omega exponent)."""
    p = tuple(((c + x) % 3, z * c % 3) for c in range(3))
    p_dag = tuple(((c - x) % 3, -z * (c - x) % 3) for c in range(3))
    return p, p_dag


def _trace_terms(p, q) -> tuple[tuple[int, int, int], ...]:
    """Tr(P U Q U^dag) as (k, 3b + c, 3a + e): omega^k * U[b][c] * conj(U[a][e])."""
    return tuple(
        ((kp + kq) % 3, 3 * b + c, 3 * a + e)
        for b, (a, kp) in enumerate(p)
        for e, (c, kq) in enumerate(q)
    )


# the Pauli words Z, X, XZ, XZ^2, in basis order
_COLUMNS = tuple(_columns(x, z) for x, z in ((0, 1), (1, 0), (1, 1), (1, 2)))

#: (i, j, terms of s, terms of d) for the 16 word pairs.
_PAIRS = tuple(
    (i, j, _trace_terms(p, q), _trace_terms(p, q_dag))
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
        self._alpha = None

    def alpha_entries(self) -> tuple[tuple[AlphaElem, ...], ...]:
        """Entrywise conversion; raises NOT_IN_A outside the target ring."""
        if self._alpha is None:
            self._alpha = tuple(tuple(to_alpha(e) for e in row) for row in self.rows)
        return self._alpha

    def alpha_block(self, name: str) -> tuple[tuple[AlphaElem, ...], ...]:
        rows, cols = _BLOCK_SLICES[name]
        alpha = self.alpha_entries()
        return tuple(tuple(alpha[i][j] for j in cols) for i in rows)


def _trace(products: dict, terms) -> Cyclo36:
    """The sum of omega^k * product over the terms, with the products bucketed by k."""
    buckets = [ZERO, ZERO, ZERO]
    for k, left, right in terms:
        p = products.get((left, right))
        if p is not None:
            buckets[k] = buckets[k] + p
    return buckets[0] + OMEGA * buckets[1] + OMEGA2 * buckets[2]


def adjoint_of(u: UnitaryMatrix) -> AdjointMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 matrix."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    flat = [e for row in u.rows for e in row]
    conj = [e.conjugate() for e in flat]
    products = {
        (left, right): x * y
        for left, x in enumerate(flat)
        if x
        for right, y in enumerate(conj)
        if y
    }
    rows = [[ZERO] * 8 for _ in range(8)]
    for i, j, s_terms, d_terms in _PAIRS:
        s, d = _trace(products, s_terms), _trace(products, d_terms)
        plus, minus = s + d, s - d
        plus_c, minus_c = plus.conjugate(), minus.conjugate()
        rows[i][j] = (plus + plus_c) * _SIXTH
        rows[i][j + 4] = (minus - minus_c) * _I_SIXTH
        rows[i + 4][j] = (plus - plus_c) * _I_SIXTH
        rows[i + 4][j + 4] = (minus + minus_c) * _MINUS_SIXTH
    return AdjointMatrix(rows)


def block_lde(m: AdjointMatrix, name: str) -> int:
    """Largest least denominator exponent over the 16 entries of a block."""
    return max(a.lde() for row in m.alpha_block(name) for a in row)
