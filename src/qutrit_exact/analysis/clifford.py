"""Exact Clifford recognition by generator conjugation.

U is Clifford iff conjugation maps every Pauli to a phased Pauli; because
the Pauli group is closed under multiplication it suffices to check the
generators X_w and Z_w.  The test solves U G = w * (Q U) for a phase-free
Pauli Q = X(a)Z(b) and unit w without forming Q U: U G is U with its
columns relabeled or phased, and ``analysis.pauli.match_pauli`` reads a, b
and w off the rows of U G against the rows of U.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.pauli import (
    PauliElement, _check_n, digits, match_pauli, undigits,
)
from qutrit_exact.rings.cyclo import ZERO, Cyclo36
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


def _right_multiply_generator(
    m: UnitaryMatrix, kind: str, wire: int, n: int
) -> list[list[Cyclo36]]:
    """Rows of m @ G for G = X_wire or Z_wire, by column relabeling."""
    dim = m.dim
    out = [[ZERO] * dim for _ in range(dim)]
    for c in range(dim):
        ds = digits(c, n)
        if kind == "X":
            src = undigits(tuple(d + (1 if w == wire else 0) for w, d in enumerate(ds)))
            for r in range(dim):
                out[r][c] = m.entry(r, src)
        else:
            shift = Cyclo36.omega_pow(ds[wire])
            for r in range(dim):
                out[r][c] = m.entry(r, c) * shift
    return out


def is_clifford(m: UnitaryMatrix) -> CliffordCertificate:
    """Certify that conjugation by ``m`` preserves the Pauli group."""
    n = _check_n(m)
    images = []
    for wire in range(n):
        for kind in ("X", "Z"):
            image = match_pauli(m, _right_multiply_generator(m, kind, wire, n), n)
            name = f"{kind}_{wire}"
            if image is None:
                return CliffordCertificate(False, tuple(images), name)
            images.append((name, image))
    return CliffordCertificate(True, tuple(images))
