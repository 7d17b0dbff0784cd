"""Clifford-hierarchy level search for one- and two-qutrit unitaries.

Level 1 is the Pauli group and level 2 the Clifford group; for k >= 3 a
unitary U lies in level k iff U P U^dag lies in level k-1 for every
nontrivial Pauli P.  Level 2 is a group, the Clifford test ignores global
phase and U A B U^dag = (U A U^dag)(U B U^dag), so at k = 3 the generators
X_w and Z_w suffice.  Level k-1 is not a group once k-1 >= 3, so at k >= 4
every nontrivial Pauli is conjugated.  The search is capped: absence up to
the cap is certified, absence beyond it is not decided.  The level-2 test
looks only for phased Paulis w Q with w^3 = 1, since a conjugate of a qutrit
Pauli, which has order 3, can carry no other phase (``analysis.clifford``).

A conjugate U P U^dag costs one ``matmul``: U P relabels U's columns and
rotates them by powers of omega (``Cyclo36.times_omega``), a map of each
entry's numerators over the same denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.clifford import CliffordCertificate, is_clifford
from qutrit_exact.analysis.pauli import column_maps, is_pauli
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.sim.matrix import UnitaryMatrix

MAX_CAP = 5


@dataclass(frozen=True)
class HierarchyReport:
    """Least hierarchy level up to ``cap``, or None when none was found."""

    level: int | None
    cap: int
    lines: tuple[str, ...]
    clifford: CliffordCertificate | None = None  # is_clifford(m), if the search ran it

    def text(self) -> str:
        if self.level is None:
            head = f"no hierarchy level <= {self.cap} (absence beyond the cap is undecided)"
        else:
            head = f"hierarchy level {self.level} (cap {self.cap})"
        return "\n".join((head,) + self.lines)


def _times_pauli(m: UnitaryMatrix, columns) -> UnitaryMatrix:
    """m @ P for the phase-free Pauli P with this column map: a relabel with omega phases."""
    return UnitaryMatrix._of(
        tuple(tuple(row[src].times_omega(k) for src, k in columns) for row in m.rows)
    )


def _level_at_most(m: UnitaryMatrix, k: int, n: int, memo: dict):
    """Truthy iff ``m`` lies in level k >= 2; at k = 2, its Clifford certificate."""
    key = (m.rows, k)
    if key not in memo:
        if k == 2:
            memo[key] = is_clifford(m)
        else:
            md = m.dag()
            memo[key] = all(
                _level_at_most(_times_pauli(m, p) @ md, k - 1, n, memo)
                for _, p in column_maps(n, k == 3)
            )
    return memo[key]


def hierarchy_level(m: UnitaryMatrix, cap: int = 4) -> HierarchyReport:
    """Least k <= cap with ``m`` in hierarchy level k, with certificates."""
    if m.dim == 3:
        n = 1
    elif m.dim == 9:
        n = 2
    else:
        raise DimMismatchError(
            f"hierarchy search expects one or two qutrits, got dimension {m.dim}"
        )
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")

    element = is_pauli(m)
    if element is not None:
        return HierarchyReport(1, cap, (f"Pauli element: {element}",))
    cert = is_clifford(m) if cap >= 2 else None
    if cert:
        return HierarchyReport(2, cap, tuple(cert.text().splitlines()), cert)

    memo: dict = {}
    md = m.dag()
    for k in range(3, cap + 1):
        lines = []
        for label, p in column_maps(n, k == 3):
            below = _level_at_most(_times_pauli(m, p) @ md, k - 1, n, memo)
            if not below:
                break
            if k == 3:
                images = ", ".join(f"{g} -> {image}" for g, image in below.images)
                lines.append(f"{label} conjugate is Clifford: {images}")
            else:
                lines.append(f"{label} conjugate lies in level {k - 1}")
        else:
            return HierarchyReport(k, cap, tuple(lines), cert)
    return HierarchyReport(None, cap, (f"all levels 1..{cap} fail",), cert)
