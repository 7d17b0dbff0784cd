"""Exact Clifford recognition by generator conjugation.

U is Clifford iff conjugation maps every Pauli to a phased Pauli; because
the Pauli group is closed under multiplication it suffices to check the
generators X_w and Z_w, that is to solve U G = w * Q U for a phase-free
Pauli Q = X(a)Z(b) and a unit w.  Every qutrit Pauli has order 3 (for odd d,
(X(a)Z(b))^d = I), so G^3 = Q^3 = I and (w Q)^3 = U G^3 U^-1 = I give
w^3 = 1: each row of U G is omega^k times a row of U, and w is a power of
omega.  So no general phase is solved for.  Each entry's orbit
(e, omega e, omega^2 e) is formed once per call (``Cyclo36.times_omega``, a
map of coordinates), U's rows are indexed up to omega, U G is a relabel of
the orbits through the generator's column map, and each of its rows is one
lookup in that index.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.pauli import PauliElement, _check_n, column_map, column_maps, digits
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix


@dataclass(frozen=True)
class CliffordCertificate:
    """Truthy iff Clifford; lists the conjugation image of each generator."""

    found: bool
    images: tuple[tuple[str, PauliElement], ...] = ()
    failed: str | None = None

    def __bool__(self) -> bool:
        return self.found

    def text(self) -> str:
        if not self.found:
            return f"not Clifford: conjugate of {self.failed} is not a Pauli element"
        lines = [f"{name} -> {image}" for name, image in self.images]
        return "Clifford generator images:\n" + "\n".join(lines)


def _row_index(orbits) -> dict:
    """{omega^k * row s: (s, k)}: the rows of U up to omega, from each entry's orbit."""
    return {tuple(e[k] for e in row): (s, k) for s, row in enumerate(orbits) for k in range(3)}


def _match(index: dict, rows, n: int) -> PauliElement | None:
    """w * X(a)Z(b) with ``rows`` == w * X(a)Z(b) U for U's ``_row_index``, or None.

    (X(a)Z(b) U)[s + a] = omega^(b.s) * U[s]: the row found at U's row 0 gives
    a and w = omega^k0, those at U's rows e_w give b, and every row must then
    sit where ``column_map(a, b)`` puts it.
    """
    found = [None] * len(rows)  # per row s of U: (row of ``rows``, omega power)
    for r, row in enumerate(rows):
        hit = index.get(row)
        if hit is None:
            return None
        found[hit[0]] = (r, hit[1])
    if None in found:
        return None
    r0, k0 = found[0]
    a = digits(r0, n)
    b = tuple((found[3 ** (n - 1 - w)][1] - k0) % 3 for w in range(n))
    if tuple((r, (k - k0) % 3) for r, k in found) != column_map(a, b, n):
        return None
    return PauliElement(a, b, Cyclo36.omega_pow(k0))


def is_clifford(m: UnitaryMatrix) -> CliffordCertificate:
    """Certify that conjugation by ``m`` preserves the Pauli group."""
    n = _check_n(m)
    orbits = [[(e, e.times_omega(1), e.times_omega(2)) for e in row] for row in m.rows]
    index = _row_index(orbits)
    images = []
    for name, columns in column_maps(n, True):
        image = _match(index, [tuple(row[src][k] for src, k in columns) for row in orbits], n)
        if image is None:
            return CliffordCertificate(False, tuple(images), name)
        images.append((name, image))
    return CliffordCertificate(True, tuple(images))
