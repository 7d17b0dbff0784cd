"""Pauli-group elements, the one phased-Pauli solver and the Pauli test.

A phase-free Pauli X(a)Z(b) on n qutrits (a, b in Z_3^n) holds omega^(b.c)
in row c + a of column c (digitwise) and zeros elsewhere; ``column_map``
lists that, so m @ X(a)Z(b) needs no product: its column c is column c + a
of m times omega^(b.c).  ``is_pauli`` reads a, b and w off columns 0 and
e_w and compares m with w * X(a)Z(b); w must lie in the witness set
{+-zeta_9^k} (18 units), the global phases circuits over the supported
gate set reach.

``match_pauli`` finds w * X(a)Z(b) = v @ m^-1 for the Clifford test on
``integer_rows``: 12 integer numerators over one common denominator per
matrix, converted once, on which omega acts as a map of coordinates
(``omega_times``).  As (X(a)Z(b) m)[r] = omega^(b.(r - a)) * m[r - a], for
each translation a whose row supports fit every row of v must be
proportional to row r - a of m with ratio omega^k_r times that of a
reference row, both tested cross-multiplied so the denominators cancel,
and b solves b.(d(r - a) - d(r0 - a)) = k_r (mod 3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mul
from typing import Sequence

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.cyclo import MINUS_ONE, ONE, ZERO, Cyclo36, _mul_vectors
from qutrit_exact.sim.matrix import UnitaryMatrix

#: Units w such that w * (phase-free Pauli) is still accepted: +-zeta_9^k.
WITNESS_UNITS: tuple[Cyclo36, ...] = tuple(
    sign * Cyclo36.zeta9_pow(k) for sign in (ONE, MINUS_ONE) for k in range(9)
)
_WITNESS_SET = frozenset(WITNESS_UNITS)


def digits(index: int, n: int) -> tuple[int, ...]:
    """Base-3 digits of a basis index, qutrit 0 most significant."""
    out = []
    for w in range(n):
        out.append((index // 3 ** (n - 1 - w)) % 3)
    return tuple(out)


def undigits(ds: tuple[int, ...]) -> int:
    index = 0
    for d in ds:
        index = 3 * index + d % 3
    return index


def column_map(a: Sequence[int], b: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Per column c of X(a)Z(b): (c + a, b.c mod 3), its nonzero's row and omega power."""
    return tuple(
        (undigits(tuple(map(add, ds, a))), sum(map(mul, b, ds)) % 3)
        for ds in (digits(c, n) for c in range(3**n))
    )


def omega_times(x: Sequence[int], k: int = 1) -> Sequence[int]:
    """omega^k * x on 12 numerators, as a map of coordinates.

    With x = lo + zeta^6 hi (lo, hi of degree < 6) and zeta^12 = zeta^6 - 1,
    omega x = (-lo - hi) + zeta^6 lo.
    """
    for _ in range(k):
        lo, hi = x[:6], x[6:]
        x = [-p - q for p, q in zip(lo, hi)] + list(lo)
    return x


def integer_rows(rows: Sequence[Sequence[Cyclo36]]) -> tuple[list[list], int]:
    """Each entry's 12 numerators over one common denominator D (None for 0), and D."""
    den = math.lcm(*(e.denominator for row in rows for e in row))
    return [
        [None if not e else e.numerators if e.denominator == den
         else tuple(c * (den // e.denominator) for c in e.numerators) for e in row]
        for row in rows
    ], den


@dataclass(frozen=True)
class PauliElement:
    """w * tensor_w X^{x_exps[w]} Z^{z_exps[w]} with unit phase w."""

    x_exps: tuple[int, ...]
    z_exps: tuple[int, ...]
    phase: Cyclo36 = field(default=ONE)

    def __post_init__(self):
        if len(self.x_exps) != len(self.z_exps):
            raise ValueError("x_exps and z_exps must have equal length")
        object.__setattr__(self, "x_exps", tuple(a % 3 for a in self.x_exps))
        object.__setattr__(self, "z_exps", tuple(b % 3 for b in self.z_exps))

    @property
    def n(self) -> int:
        return len(self.x_exps)

    def is_identity_up_to_phase(self) -> bool:
        return not any(self.x_exps) and not any(self.z_exps)

    def matrix(self) -> UnitaryMatrix:
        dim = 3**self.n
        phases = [self.phase * Cyclo36.omega_pow(k) for k in range(3)]
        rows = [[ZERO] * dim for _ in range(dim)]
        for col, (row, k) in enumerate(column_map(self.x_exps, self.z_exps, self.n)):
            rows[row][col] = phases[k]
        return UnitaryMatrix(rows)

    def label(self) -> str:
        parts = [
            f"X^{a}Z^{b}" for a, b in zip(self.x_exps, self.z_exps)
        ]
        return " (x) ".join(parts)

    def __str__(self) -> str:
        w = str(self.phase)
        return self.label() if w == "1" else f"({w}) * {self.label()}"


def pauli_elements(n: int):
    """The 9^n - 1 phase-free Pauli elements other than the identity."""
    for xs in itertools.product(range(3), repeat=n):
        for zs in itertools.product(range(3), repeat=n):
            p = PauliElement(xs, zs)
            if not p.is_identity_up_to_phase():
                yield p


@lru_cache(maxsize=None)
def column_maps(n: int, generators: bool) -> tuple[tuple[str, tuple], ...]:
    """(label, column map) of X_w and Z_w on each wire, or of every nontrivial Pauli."""
    if not generators:
        return tuple((p.label(), column_map(p.x_exps, p.z_exps, n)) for p in pauli_elements(n))
    zero, out = (0,) * n, []
    for w in range(n):
        e = tuple(int(v == w) for v in range(n))
        out += [(f"X_{w}", column_map(e, zero, n)), (f"Z_{w}", column_map(zero, e, n))]
    return tuple(out)


def _check_n(m: UnitaryMatrix) -> int:
    n = 0
    dim = m.dim
    while dim > 1:
        if dim % 3:
            raise DimMismatchError(f"dimension {m.dim} is not a power of 3")
        dim //= 3
        n += 1
    if not 1 <= n <= 2:
        raise DimMismatchError(
            f"expected between 1 and 2 qutrits, got dimension {m.dim}"
        )
    return n


@lru_cache(maxsize=None)
def _translations(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(a, the row r - a of each row r) for each translation a."""
    shifts = itertools.product(range(3), repeat=n)
    return tuple((a, tuple(r for r, _ in column_map([-x for x in a], (0,) * n, n)))
                 for a in shifts)


def _row_phases(m_rows, v, src, live, support) -> list[int] | None:
    """k_r with v[r] = omega^k_r * c * m[src[r]] for r in ``live``, one c for all, or None.

    Proportionality within a row and the ratio to the reference row live[0]
    are tested on cross-multiplied numerators; k_r by rotating one side.
    """
    r0, c0 = live[0], support[live[0]][0]
    ref_m, ref_v = m_rows[src[r0]][c0], v[r0][c0]
    ks = []
    for r in live:
        m_row, v_row = m_rows[src[r]], v[r]
        c, *rest = support[r]
        if any(_mul_vectors(v_row[j], m_row[c]) != _mul_vectors(v_row[c], m_row[j])
               for j in rest):
            return None
        lhs, rhs = _mul_vectors(v_row[c], ref_m), _mul_vectors(m_row[c], ref_v)
        k = next((k for k in range(3) if lhs == omega_times(rhs, k)), None)
        if k is None:
            return None
        ks.append(k)
    return ks


def match_pauli(m: tuple[list, int], v: tuple[list, int], n: int) -> PauliElement | None:
    """Find w * X(a)Z(b) with v == w * (X(a)Z(b) @ m), or None; m and v are ``integer_rows``."""
    (m_rows, m_den), (v_rows, v_den) = m, v
    dim = len(m_rows)
    support_m = [tuple(c for c, e in enumerate(row) if e is not None) for row in m_rows]
    support = [tuple(c for c, e in enumerate(row) if e is not None) for row in v_rows]
    live = [r for r in range(dim) if support[r]]  # rows of v with a nonzero entry
    if not live:
        return None
    for a, src in _translations(n):
        if any(support[r] != support_m[src[r]] for r in range(dim)):
            continue
        ks = _row_phases(m_rows, v_rows, src, live, support)
        if ks is None:
            continue
        r0 = live[0]
        d0 = digits(src[r0], n)
        diffs = [tuple(x - y for x, y in zip(digits(src[r], n), d0)) for r in live]
        for b in itertools.product(range(3), repeat=n):
            if all(sum(map(mul, b, d)) % 3 == k for d, k in zip(diffs, ks)):
                c0 = support[r0][0]
                m_inv = Cyclo36(m_rows[src[r0]][c0], m_den).inverse()
                w = Cyclo36(v_rows[r0][c0], v_den) * m_inv
                return PauliElement(a, b, w * Cyclo36.omega_pow(-sum(map(mul, b, d0))))
    return None


def is_pauli(m: UnitaryMatrix) -> PauliElement | None:
    """``m`` as w * X(a)Z(b) with w in the 18-unit witness set, or None.

    a and w are read off column 0 (w X(a)Z(b) holds w in row a there), each
    b_w off the unit column e_w (w omega^b_w in row e_w + a), and then the
    whole matrix is compared with w * X(a)Z(b).
    """
    n = _check_n(m)
    rows = m.rows
    r0 = next((r for r, row in enumerate(rows) if row[0]), None)
    if r0 is None or rows[r0][0] not in _WITNESS_SET:
        return None
    a, w = digits(r0, n), rows[r0][0]
    phases = [w * Cyclo36.omega_pow(k) for k in range(3)]
    shifted = column_map(a, (0,) * n, n)
    entries = [rows[shifted[u][0]][u] for u in (3 ** (n - 1 - wire) for wire in range(n))]
    if any(e not in phases for e in entries):
        return None
    element = PauliElement(a, tuple(phases.index(e) for e in entries), w)
    return element if element.matrix() == m else None
