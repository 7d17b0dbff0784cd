"""Exact Clifford recognition by generator conjugation.

U is Clifford iff conjugation maps every Pauli to a phased Pauli; because
the Pauli group is closed under multiplication it suffices to check the
generators X_w and Z_w.  The test solves U G = w * (Q U) for a phase-free
Pauli Q = X(a)Z(b) and unit w with no product: U is converted once to
integer numerators over one common denominator (``integer_rows``), U X_w
relabels its columns, U Z_w rotates column c by omega^(d_w(c)), a map of
coordinates, and ``analysis.pauli.match_pauli`` reads a, b and w off the
rows of U G against the rows of U.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.pauli import (
    PauliElement, _check_n, column_maps, integer_rows, match_pauli, omega_times,
)
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


def is_clifford(m: UnitaryMatrix) -> CliffordCertificate:
    """Certify that conjugation by ``m`` preserves the Pauli group."""
    n = _check_n(m)
    rows, den = u = integer_rows(m.rows)
    images = []
    for name, columns in column_maps(n, True):
        ug = [[omega_times(row[src], k) if row[src] else None for src, k in columns]
              for row in rows]
        image = match_pauli(u, (ug, den), n)
        if image is None:
            return CliffordCertificate(False, tuple(images), name)
        images.append((name, image))
    return CliffordCertificate(True, tuple(images))
