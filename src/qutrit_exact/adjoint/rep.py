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

The traces are computed on integers: U's entries are brought to one common
denominator D, the products are 12-coordinate integer vectors over D^2, and
the sums, omega twists, conjugates and the factor i stay integer vectors
until each entry is built once as a ``Cyclo36`` over 6 D^2.

``AdjointMatrix`` is an 8 x 8 ``UnitaryMatrix`` (product, equality and
hashing are the matrix's own) that adds the view the T-count obstruction
reads: for circuits over the supported gate set every entry lies in the real
ring generated by dyadic fractions, alpha = sin(2*pi/9), and inverse powers
of alpha; the conversion is performed lazily and cached, and a value outside
that ring raises NOT_IN_A while the symbolic matrix stays available for
inspection.
"""

from __future__ import annotations

import math

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.alpha import AlphaElem, to_alpha
from qutrit_exact.rings.cyclo import (
    _POWER_TABLE, _SIGMA, Cyclo36, _galois_image, _mul_vectors,
)
from qutrit_exact.sim.matrix import UnitaryMatrix

_BLOCK_SLICES = {
    "A": (range(0, 4), range(0, 4)),
    "B": (range(0, 4), range(4, 8)),
    "C": (range(4, 8), range(0, 4)),
    "D": (range(4, 8), range(4, 8)),
}

_CONJ = _SIGMA[35]
_OMEGA = _POWER_TABLE[12]
_I = _POWER_TABLE[9]
_ZEROS = (0,) * 12


def _columns(x: int, z: int):
    """Per column of P = X^x Z^z, then of P^dag: (row of its nonzero entry, omega exponent)."""
    p = tuple(((c + x) % 3, z * c % 3) for c in range(3))
    p_dag = tuple(((c - x) % 3, -z * (c - x) % 3) for c in range(3))
    return p, p_dag


def _trace_terms(p, q) -> tuple[tuple[int, int], ...]:
    """Tr(P U Q U^dag) as (k, 9(3b + c) + 3a + e): omega^k U[b][c] conj(U[a][e])."""
    return tuple(
        ((kp + kq) % 3, 9 * (3 * b + c) + 3 * a + e)
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


def _trace(products: list, terms) -> list[int]:
    """Numerators of the sum of omega^k * product over the terms, bucketed by k."""
    buckets = ([_ZEROS], [_ZEROS], [_ZEROS])
    for k, idx in terms:
        p = products[idx]
        if p is not None:
            buckets[k].append(p)
    b0, b1, b2 = ([sum(c) for c in zip(*b)] for b in buckets)
    # b0 + omega b1 + omega^2 b2, with omega^2 = -1 - omega
    twist = _mul_vectors([x - z for x, z in zip(b1, b2)], _OMEGA)
    return [x - z + t for x, z, t in zip(b0, b2, twist)]


def adjoint_of(u: UnitaryMatrix) -> AdjointMatrix:
    """Exact adjoint-representation matrix of a 3 x 3 matrix."""
    if u.dim != 3:
        raise DimMismatchError(
            f"adjoint representation expects a 3 x 3 matrix, got {u.dim} x {u.dim}"
        )
    flat = [e for row in u.rows for e in row]
    den = math.lcm(*(e.denominator for e in flat))
    nums = [[c * (den // e.denominator) for c in e.numerators] if e else None for e in flat]
    conj = [_galois_image(n, _CONJ) if n else None for n in nums]
    products = [_mul_vectors(x, y) if x and y else None for x in nums for y in conj]
    scale = 6 * den * den
    rows = [[None] * 8 for _ in range(8)]
    for i, j, s_terms, d_terms in _PAIRS:
        s, d = _trace(products, s_terms), _trace(products, d_terms)
        plus = [a + b for a, b in zip(s, d)]
        minus = [a - b for a, b in zip(s, d)]
        plus_c, minus_c = _galois_image(plus, _CONJ), _galois_image(minus, _CONJ)
        i_plus = _mul_vectors([a - b for a, b in zip(plus, plus_c)], _I)
        i_minus = _mul_vectors([a - b for a, b in zip(minus, minus_c)], _I)
        rows[i][j] = Cyclo36([a + b for a, b in zip(plus, plus_c)], scale)
        rows[i][j + 4] = Cyclo36(i_minus, scale)
        rows[i + 4][j] = Cyclo36(i_plus, scale)
        rows[i + 4][j + 4] = Cyclo36([a + b for a, b in zip(minus, minus_c)], -scale)
    return AdjointMatrix(rows)


def block_lde(m: AdjointMatrix, name: str) -> int:
    """Largest least denominator exponent over the 16 entries of a block."""
    return max(a.lde() for row in m.alpha_block(name) for a in row)
