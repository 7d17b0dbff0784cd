"""Ring-membership certification of circuits and its phase-free refutation.

A circuit matrix M lies in a ring R "up to global phase" iff some unit w
puts every entry of w*M inside R.  The certificate searches the finite
witness set of reachable global phases {+-zeta_9^k} (18 units).  The
refutation needs no witness set at all: R is closed under conjugation and
|w|^2 = 1, so conj(w*m_i) * (w*m_j) = conj(m_i)*m_j for any unit w.  If a
single pair of nonzero entries has conj(m_i)*m_j outside R, then no unit
phase whatsoever can place all entries in R; otherwise the test is
inconclusive (it never claims membership).
"""

from __future__ import annotations

from dataclasses import dataclass

from qutrit_exact.analysis.pauli import WITNESS_UNITS
from qutrit_exact.rings.cyclo import ZERO, Cyclo36
from qutrit_exact.errors import RingError
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.sim.matrix import UnitaryMatrix


def _member(x: Cyclo36, tag: RingTag) -> bool:
    try:
        return in_ring(x, tag)
    except RingError:
        return False


@dataclass(frozen=True)
class RingCertificate:
    """Whether some witness phase places all entries in the ring, and which."""

    found: bool
    tag: RingTag
    phase: Cyclo36 | None = None

    def text(self) -> str:
        if self.found:
            return f"entries lie in {self.tag.value} up to global phase {self.phase}"
        return (
            f"no witness phase places all entries in {self.tag.value} "
            "(18 units tried)"
        )


@dataclass(frozen=True)
class Refutation:
    """Whether membership up to ANY unit phase is impossible, with a witness pair."""

    refuted: bool
    tag: RingTag
    pair: tuple[Cyclo36, Cyclo36] | None = None
    product: Cyclo36 | None = None

    def text(self) -> str:
        if self.refuted:
            a, b = self.pair
            return (
                f"refuted: entries {a} and {b} have conj({a})*({b}) = "
                f"{self.product}, which is outside {self.tag.value}; no unit "
                "global phase can repair this"
            )
        return (
            f"inconclusive: all pairwise conjugate products lie in {self.tag.value}"
        )


def matrix_ring_certificate(m: UnitaryMatrix, tag: RingTag) -> RingCertificate:
    """Search the 18 witness phases for one placing all entries in the ring."""
    entries = [e for row in m.rows for e in row if e != ZERO]
    for w in WITNESS_UNITS:
        if all(_member(w * e, tag) for e in entries):
            return RingCertificate(True, tag, w)
    return RingCertificate(False, tag)


def refute_phase_membership(m: UnitaryMatrix, tag: RingTag) -> Refutation:
    """Decide impossibility of membership up to an arbitrary unit phase."""
    distinct: dict[Cyclo36, None] = {}
    for row in m.rows:
        for e in row:
            if e != ZERO:
                distinct.setdefault(e, None)
    entries = list(distinct)
    for a in entries:
        ac = a.conjugate()
        for b in entries:
            p = ac * b
            if not _member(p, tag):
                return Refutation(True, tag, (a, b), p)
    return Refutation(False, tag)
