"""Pauli-group elements, the one phased-Pauli solver and the Pauli test.

A phase-free Pauli on n qutrits is a tensor product of per-wire factors
X^a Z^b (a, b in Z_3); its matrix has exactly one nonzero entry per column,
at the digitwise-translated row, with value a power of omega that is linear
in the column digits.  ``match_pauli`` answers "which w * X(a)Z(b) is this?"
for both the Pauli test and the Clifford test: left multiplication acts on
rows as

    (X(a)Z(b) m)[r] = omega^(b.(r - a)) * m[r - a]   (digitwise index shifts)

so for each translation a whose row supports fit, every row of v must be
proportional to row r - a of m (checked cross-multiplied, with no division)
with ratio omega^k_r times that of a reference row, and b solves the integer
conditions b.(d(r - a) - d(r0 - a)) = k_r (mod 3).  The recognizer accepts a
unitary equal to such an element times a unit from the finite witness set
{+-zeta_9^k} (18 units), the global phases reachable by circuits over the
supported gate set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Sequence

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.cyclo import MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO, Cyclo36
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
        n = self.n
        dim = 3**n
        rows = [[ZERO] * dim for _ in range(dim)]
        for col in range(dim):
            ds = digits(col, n)
            row = undigits(tuple(d + a for d, a in zip(ds, self.x_exps)))
            e = sum(b * d for b, d in zip(self.z_exps, ds))
            rows[row][col] = self.phase * Cyclo36.omega_pow(e)
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


_OMEGA_POWERS = (ONE, OMEGA, OMEGA2)


def _row_phases(m_rows, v, src, live, support) -> list[int] | None:
    """k_r with v[r] = omega^k_r * c * m[src[r]] for r in ``live``, one c for all, or None.

    Proportionality within a row and the ratio to the reference row live[0]
    are both tested cross-multiplied, so nothing is divided.
    """
    r0, c0 = live[0], support[live[0]][0]
    ref_m, ref_v = m_rows[src[r0]][c0], v[r0][c0]
    ks = []
    for r in live:
        m_row, v_row = m_rows[src[r]], v[r]
        c, *rest = support[r]
        if any(v_row[j] * m_row[c] != v_row[c] * m_row[j] for j in rest):
            return None
        lhs, rhs = v_row[c] * ref_m, m_row[c] * ref_v
        k = next((k for k, z in enumerate(_OMEGA_POWERS) if lhs == rhs * z), None)
        if k is None:
            return None
        ks.append(k)
    return ks


def match_pauli(
    m: UnitaryMatrix, v: Sequence[Sequence[Cyclo36]], n: int
) -> PauliElement | None:
    """Find w * X(a)Z(b) with v == w * (X(a)Z(b) @ m), or None."""
    dim, m_rows = m.dim, m.rows
    ds = [digits(r, n) for r in range(dim)]
    support_m = [tuple(c for c, e in enumerate(row) if e) for row in m_rows]
    support = [tuple(c for c, e in enumerate(row) if e) for row in v]
    live = [r for r in range(dim) if support[r]]  # rows of v with a nonzero entry
    if not live:
        return None
    for a in itertools.product(range(3), repeat=n):
        src = [undigits(tuple(d - x for d, x in zip(ds[r], a))) for r in range(dim)]
        if any(support[r] != support_m[src[r]] for r in range(dim)):
            continue
        ks = _row_phases(m_rows, v, src, live, support)
        if ks is None:
            continue
        r0 = live[0]
        d0 = ds[src[r0]]
        diffs = [tuple(x - y for x, y in zip(ds[src[r]], d0)) for r in live]
        for b in itertools.product(range(3), repeat=n):
            if all(sum(map(mul, b, d)) % 3 == k for d, k in zip(diffs, ks)):
                c0 = support[r0][0]
                w = v[r0][c0] * m_rows[src[r0]][c0].inverse()
                return PauliElement(a, b, w * Cyclo36.omega_pow(-sum(map(mul, b, d0))))
    return None


@lru_cache(maxsize=None)
def _identity(dim: int) -> UnitaryMatrix:
    return UnitaryMatrix.identity(dim)


def is_pauli(m: UnitaryMatrix) -> PauliElement | None:
    """``m`` as w * X(a)Z(b) with w in the 18-unit witness set, or None."""
    n = _check_n(m)
    element = match_pauli(_identity(m.dim), m.rows, n)
    if element is None or element.phase not in _WITNESS_SET:
        return None
    return element
