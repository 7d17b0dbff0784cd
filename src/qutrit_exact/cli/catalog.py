"""One-shot verification catalog: every shipped identity and obstruction.

Most claims are ``Equation`` rows, lhs = phase * rhs as circuit matrices,
and one function, ``check_equation``, checks them all with verify's check:
one simulation of lhs followed by the inverse of rhs, read by
``circuit_scalar``.  The single-qutrit relations are written below; the rows
for the bundled data files, with their claim names and pinned T-counts, are
read from ``qutrit_exact.circuit.macros.CONSTRUCTIONS``.
The other claims (ring membership, the cubic, refutations, hierarchy level and
the adjoint obstruction of R) are functions.  The runner prints one line per
claim and succeeds only if every claim verifies.  File-backed claims read macro
circuits through the data directory (QUTRIT_EXACT_CIRCUITS overrides it), so a
tampered or missing data file turns exactly those claims into FAILED lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qutrit_exact.adjoint import adjoint_of, single_qutrit_ct_obstruction
from qutrit_exact.analysis import hierarchy_level, refute_phase_membership
from qutrit_exact.circuit.core import Circuit, Op, adjoint
from qutrit_exact.circuit.macros import CONSTRUCTIONS, load_named, macro_names, t_count
from qutrit_exact.circuit.parse import parse_circuit, parse_phase
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.sim.gates import circuit_scalar, gate_matrix, phase_unit
from qutrit_exact.sim.matrix import UnitaryMatrix


def _g(kind: str) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,)), 1)


def _require(cond: bool, detail: str) -> str:
    if not cond:
        raise AssertionError(detail)
    return detail


def _lines(text: str, n: int) -> Circuit:
    """Circuit lines joined by ';' on ``n`` qutrits."""
    return parse_circuit(f"qutrits {n}\n" + text.replace(";", "\n"))


def check_equation(lhs: Circuit, rhs: str, phase: str = "1", tcount: int | None = None) -> None:
    """Raise AssertionError unless lhs = phase * rhs and, when ``tcount`` is
    given, lhs has that T-count; ``rhs`` is circuit lines joined by ';' on as
    many qutrits as lhs, and ``phase`` a unit read by ``parse_phase``.

    This is verify's check: lhs = c * rhs exactly when rhs^dag lhs = c * I, so
    lhs followed by the inverse of rhs is simulated once and read by
    ``circuit_scalar``, with no matrix decoded."""
    both = Circuit(lhs.n, lhs.ops + adjoint(_lines(rhs, lhs.n)).ops)
    _require(circuit_scalar(both) == phase_unit(parse_phase(phase)), "matrix mismatch")
    if tcount is not None:
        t = t_count(lhs)
        _require(t == tcount, f"T-count {t} != {tcount}")


@dataclass(frozen=True)
class Equation:
    """The claim lhs = phase * rhs; earlier gates act first.

    ``lhs`` is a bundled data file's stem or one-qutrit circuit lines joined
    by ';', ``rhs`` circuit lines in the same grammar.
    """

    slug: str
    lhs: str
    rhs: str
    detail: str
    phase: str = "1"
    tcount: int | None = None

    def __call__(self) -> str:
        lhs = load_named(self.lhs) if self.lhs in macro_names() else _lines(self.lhs, 1)
        check_equation(lhs, self.rhs, self.phase, self.tcount)
        if self.tcount is None:
            return self.detail
        return f"{self.detail}, T-count {self.tcount}"


_RELATIONS = (
    Equation("hadamard-fourth-power-identity", "H 0; H 0; H 0; H 0", "",
             "H^4 = identity"),
    Equation("hadamard-square-is-minus-swap", "H 0; H 0", "TAU(12) 0",
             "H^2 = -TAU(12)", phase="-1"),
    Equation("s-hadamard-cubed-global-phase", "H 0; S 0; H 0; S 0; H 0; S 0", "",
             "(SH)^3 = -omega * identity", phase="-omega"),
    Equation("hadamard-euler-zxz", "H 0", "ZPHASE 2 2 0; XPHASE 2 2 0; ZPHASE 2 2 0",
             "H = -ZXZ with phase exponents (2,2)", phase="-1"),
    Equation("hadamard-euler-xzx", "H 0", "XPHASE 2 2 0; ZPHASE 2 2 0; XPHASE 2 2 0",
             "H = -XZX with phase exponents (2,2)", phase="-1"),
    Equation("hadamard-adjoint-euler-zxz", "HDG 0", "ZPHASE 1 1 0; XPHASE 1 1 0; ZPHASE 1 1 0",
             "HDG = -ZXZ with phase exponents (1,1)", phase="-1"),
    Equation("hadamard-adjoint-euler-xzx", "HDG 0", "XPHASE 1 1 0; ZPHASE 1 1 0; XPHASE 1 1 0",
             "HDG = -XZX with phase exponents (1,1)", phase="-1"),
    Equation("hadamard-conjugates-x-to-z", "HDG 0; X 0; H 0", "Z 0", "H X H^dag = Z"),
    Equation("hadamard-conjugates-z-to-xx", "HDG 0; Z 0; H 0", "X 0; X 0",
             "H Z H^dag = X^2"),
    Equation("t-conjugates-x-with-zeta-phase", "TDG 0; X 0; T 0", "X 0; SDG 0",
             "T X T^dag = zeta * SDG X", phase="zeta"),
    Equation("zphase-ones-by-x-conjugation", "ZPHASE 1 1 0", "TAU(021) 0; SDG 0; X 0",
             "ZPHASE(1,1) = omega * X SDG X^dag", phase="omega"),
)

def _file_detail(line: str) -> str:
    if line.startswith("C2"):
        return "exact match"
    kind, wire = line.split()
    return f"{kind} on qutrit {wire} of 2, exact"


_FILE_EQUATIONS = tuple(
    Equation(f"{claim}-tcount-{tcount}", stem, line, _file_detail(line), tcount=tcount)
    for stem, line, tcount, claim in CONSTRUCTIONS
)


def _claim_zeta_ring() -> str:
    return _require(
        not in_ring(Cyclo36.zeta9_pow(1), RingTag.TOMEGA),
        "zeta lies outside the triadic omega ring",
    )


def _claim_cubic() -> str:
    # by the rational root theorem, a rational root of this monic cubic divides 1
    return _require(
        all(x**3 - 3 * x + 1 != 0 for x in (1, -1)),
        "x^3 - 3x + 1 has no rational root",
    )


def _claim_t_refuted(ancilla: bool) -> Callable[[], str]:
    def run() -> str:
        m = gate_matrix(Op("T", (0,)), 2 if ancilla else 1)
        ref = refute_phase_membership(m, RingTag.TOMEGA)
        _require(ref.refuted, "refutation expected")
        a, b = ref.pair
        return f"refuted via pair ({a}, {b})"

    return run


def _claim_t_level() -> str:
    rep = hierarchy_level(_g("T"), 3)
    return _require(rep.level == 3, "T sits at hierarchy level 3")


def _claim_r_adjoint_blocks() -> str:
    want = ((3, 0, 0, 0), (0, -1, 2, 2), (0, 2, -1, 2), (0, 2, 2, -1))
    rows = [(*row, 0, 0, 0, 0) for row in want] + [(0, 0, 0, 0, *row) for row in want]
    pinned = UnitaryMatrix([[Fraction(v, 3) for v in row] for row in rows])
    _require(adjoint_of(_g("R")) == pinned, "adjoint mismatch")
    return "A = D with the pinned third-integer entries, B = C = 0"


def _claim_r_obstructed() -> str:
    verdict = single_qutrit_ct_obstruction(_g("R"))
    _require(verdict.is_obstructed(), "obstruction expected")
    return verdict.text()


CLAIMS: tuple[tuple[str, Callable[[], str]], ...] = tuple(
    (eq.slug, eq) for eq in _RELATIONS + _FILE_EQUATIONS
) + (
    ("zeta-outside-triadic-omega-ring", _claim_zeta_ring),
    ("cubic-no-rational-root", _claim_cubic),
    ("t-gate-refuted-in-triadic-omega-ring", _claim_t_refuted(False)),
    ("t-gate-with-ancilla-refuted", _claim_t_refuted(True)),
    ("t-hierarchy-level-three", _claim_t_level),
    ("r-adjoint-pinned-blocks", _claim_r_adjoint_blocks),
    ("r-adjoint-obstruction", _claim_r_obstructed),
)


def run_catalog(write: Callable[[str], None]) -> int:
    """Run every claim; print one line each; 0 iff all verified."""
    failures = 0
    for slug, fn in CLAIMS:
        try:
            detail = fn()
            write(f"{slug:<42} VERIFIED  {detail}")
        except Exception as e:  # a failing claim must not stop the others
            failures += 1
            write(f"{slug:<42} FAILED    {e}")
    write(f"catalog: {len(CLAIMS)} claims, {failures} failed")
    return 0 if failures == 0 else 1
