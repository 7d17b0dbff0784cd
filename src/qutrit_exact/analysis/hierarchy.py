"""Clifford-hierarchy level search for one- and two-qutrit unitaries.

Level 1 is the Pauli group and level 2 the Clifford group; for k >= 3 a
unitary U lies in level k iff U P U^dag lies in level k-1 for every
nontrivial Pauli P.  Level k-1 is not a group once k-1 >= 3, so the test
conjugates every nontrivial Pauli rather than just the generators.  The
search is capped: absence up to the cap is certified, absence beyond it
is not decided.
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.clifford import is_clifford
from qutrit_exact.analysis.pauli import is_pauli, pauli_elements
from qutrit_exact.errors import DimMismatchError
from qutrit_exact.sim.matrix import UnitaryMatrix

MAX_CAP = 5


@dataclass(frozen=True)
class HierarchyReport:
    """Least hierarchy level up to ``cap``, or None when none was found."""

    level: int | None
    cap: int
    lines: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.level is not None

    def text(self) -> str:
        if self.level is None:
            head = f"no hierarchy level <= {self.cap} (absence beyond the cap is undecided)"
        else:
            head = f"hierarchy level {self.level} (cap {self.cap})"
        return "\n".join((head,) + self.lines)


_PAULI_CACHE: dict[int, tuple] = {}


def _paulis(n: int) -> tuple:
    cached = _PAULI_CACHE.get(n)
    if cached is None:
        elems = tuple(pauli_elements(n))
        cached = (elems, tuple(p.matrix() for p in elems))
        _PAULI_CACHE[n] = cached
    return cached


def _level_at_most(m: UnitaryMatrix, k: int, n: int, memo: dict) -> bool:
    key = (m.rows, k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if k == 1:
        result = bool(is_pauli(m))
    elif k == 2:
        result = bool(is_clifford(m))
    else:
        md = m.dag()
        result = all(
            _level_at_most(m @ p @ md, k - 1, n, memo)
            for p in _paulis(n)[1]
        )
    memo[key] = result
    return result


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

    witness = is_pauli(m)
    if witness:
        return HierarchyReport(1, cap, (witness.text(),))
    if cap >= 2:
        cert = is_clifford(m)
        if cert:
            return HierarchyReport(2, cap, tuple(cert.text().splitlines()))

    memo: dict = {}
    md = m.dag()
    paulis, pauli_mats = _paulis(n)
    for k in range(3, cap + 1):
        lines = []
        ok = True
        for p, pm in zip(paulis, pauli_mats):
            if _level_at_most(m @ pm @ md, k - 1, n, memo):
                lines.append(f"{p.label()} conjugate lies in level {k - 1}")
            else:
                ok = False
                break
        if ok:
            return HierarchyReport(k, cap, tuple(lines))
    return HierarchyReport(None, cap, (f"all levels 1..{cap} fail",))
