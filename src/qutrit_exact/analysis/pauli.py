"""Pauli-group elements and the Pauli test.

A phase-free Pauli X(a)Z(b) on n qutrits (a, b in Z_3^n) holds omega^(b.c)
in row c + a of column c (digitwise) and zeros elsewhere; ``column_map``
lists that, so m @ X(a)Z(b) needs no product: its column c is column c + a
of m times omega^(b.c), a map of coordinates (``Cyclo36.times_omega``).
``is_pauli`` reads a, b and w off columns 0 and e_w and compares m with
w * X(a)Z(b); w must lie in the witness set {+-zeta_9^k} (18 units), the
global phases circuits over the supported gate set reach.  A Clifford
conjugate w * X(a)Z(b) of a Pauli has w^3 = 1, as every qutrit Pauli has
order 3, so the Clifford test (``analysis.clifford``) finds its rows up to
powers of omega and solves for no other phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mul

from qutrit_exact.errors import DimMismatchError
from qutrit_exact.rings.cyclo import MINUS_ONE, ONE, ZERO, Cyclo36
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


@lru_cache(maxsize=None)
def column_map(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """Per column c of X(a)Z(b): (c + a, b.c mod 3), its nonzero's row and omega power."""
    return tuple(
        (undigits(tuple(map(add, ds, a))), sum(map(mul, b, ds)) % 3)
        for ds in (digits(c, n) for c in range(3**n))
    )


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
        phases = [self.phase.times_omega(k) for k in range(3)]
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
    phases = [w.times_omega(k) for k in range(3)]
    shifted = column_map(a, (0,) * n, n)
    entries = [rows[shifted[u][0]][u] for u in (3 ** (n - 1 - wire) for wire in range(n))]
    if any(e not in phases for e in entries):
        return None
    element = PauliElement(a, tuple(phases.index(e) for e in entries), w)
    return element if element.matrix() == m else None
