"""One-shot verification catalog: every shipped identity and obstruction.

Each claim is a named, self-contained check that either verifies exactly
or fails; the runner prints one line per claim and succeeds only if every
claim verifies.  File-backed claims read macro circuits through the data
directory (QUTRIT_EXACT_CIRCUITS overrides it), so a tampered or missing
data file turns exactly those claims into FAILED lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from qutrit_exact.adjoint import adjoint_of, single_qutrit_ct_obstruction
from qutrit_exact.analysis import hierarchy_level, refute_phase_membership
from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.circuit.macros import load_named, t_count
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.rings.polynomials import has_rational_root
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix, controlled_target, equal_exact


def _g(kind: str, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,), params=params), 1)


def _zz(a, b) -> UnitaryMatrix:
    return _g("ZPHASE", (Fraction(a), Fraction(b)))


def _xx(a, b) -> UnitaryMatrix:
    return _g("XPHASE", (Fraction(a), Fraction(b)))


def _require(cond: bool, detail: str) -> str:
    if not cond:
        raise AssertionError(detail)
    return detail


def _file_claim(name: str, block: UnitaryMatrix,
                phase: Cyclo36, t_expected: int) -> str:
    circ = load_named(name)
    target = controlled_target(block, phase)
    got = circuit_matrix(circ)
    _require(equal_exact(got, target), "matrix mismatch")
    t = t_count(circ)
    _require(t == t_expected, f"T-count {t} != {t_expected}")
    return f"exact match, T-count {t}"


def _claim_h_fourth() -> str:
    h = _g("H")
    return _require(
        equal_exact(h @ h @ h @ h, UnitaryMatrix.identity(3)),
        "H^4 = identity",
    )


def _claim_h_square() -> str:
    h = _g("H")
    tau = _g("TAU", ("12",)).scale(MINUS_ONE)
    return _require(equal_exact(h @ h, tau), "H^2 = -TAU(12)")


def _claim_sh_cubed() -> str:
    sh = _g("S") @ _g("H")
    target = UnitaryMatrix.identity(3).scale(MINUS_ONE * Cyclo36.omega_pow(1))
    return _require(equal_exact(sh @ sh @ sh, target), "(SH)^3 = -omega * identity")


def _claim_euler(kind: str, order: str) -> Callable[[], str]:
    def run() -> str:
        if kind == "H":
            gate, a = _g("H"), 2
        else:
            gate, a = _g("HDG"), 1
        z, x = _zz(a, a), _xx(a, a)
        prod = (z @ x @ z) if order == "zxz" else (x @ z @ x)
        return _require(
            equal_exact(gate, prod.scale(MINUS_ONE)),
            f"{kind} = -{order.upper()} with phase exponents ({a},{a})",
        )

    return run


def _claim_hxh() -> str:
    h = _g("H")
    return _require(
        equal_exact(h @ _g("X") @ h.dag(), _g("Z")), "H X H^dag = Z"
    )


def _claim_hzh() -> str:
    h = _g("H")
    return _require(
        equal_exact(h @ _g("Z") @ h.dag(), _g("X") @ _g("X")),
        "H Z H^dag = X^2",
    )


def _claim_txt() -> str:
    t = _g("T")
    rhs = (_g("SDG") @ _g("X")).scale(Cyclo36.zeta9_pow(1))
    return _require(
        equal_exact(t @ _g("X") @ t.dag(), rhs), "T X T^dag = zeta * SDG X"
    )


def _claim_z11() -> str:
    x = _g("X")
    rhs = (x @ _g("SDG") @ x.dag()).scale(Cyclo36.omega_pow(1))
    return _require(
        equal_exact(_zz(1, 1), rhs), "ZPHASE(1,1) = omega * X SDG X^dag"
    )


def _claim_r_construction(name: str, t_expected: int) -> Callable[[], str]:
    def run() -> str:
        circ = load_named(name)
        target = gate_matrix(Op("R", (0,)), 2)
        _require(equal_exact(circuit_matrix(circ), target), "matrix mismatch")
        t = t_count(circ)
        _require(t == t_expected, f"T-count {t} != {t_expected}")
        return f"R on qutrit 0 of 2, exact, T-count {t}"

    return run


def _claim_zeta_ring() -> str:
    return _require(
        not in_ring(Cyclo36.zeta9_pow(1), RingTag.TOMEGA),
        "zeta lies outside the triadic omega ring",
    )


def _claim_cubic() -> str:
    return _require(
        not has_rational_root(1, 0, -3, 1),
        "x^3 - 3x + 1 has no rational root",
    )


def _claim_t_refuted(ancilla: bool) -> Callable[[], str]:
    def run() -> str:
        m = _g("T")
        if ancilla:
            m = m.tensor(UnitaryMatrix.identity(3))
        ref = refute_phase_membership(m, RingTag.TOMEGA)
        _require(ref.refuted, "refutation expected")
        a, b = ref.pair
        return f"refuted via pair ({a}, {b})"

    return run


def _claim_t_level() -> str:
    rep = hierarchy_level(_g("T"), 3)
    return _require(rep.level == 3, "T sits at hierarchy level 3")


def _claim_r_adjoint_blocks() -> str:
    adj = adjoint_of(_g("R"))
    third = Cyclo36.from_fraction(Fraction(1, 3))
    want = ((3, 0, 0, 0), (0, -1, 2, 2), (0, 2, -1, 2), (0, 2, 2, -1))
    for i in range(4):
        for j in range(4):
            v = third * Cyclo36.from_int(want[i][j])
            _require(adj.entry(i, j) == v, f"A[{i}][{j}]")
            _require(adj.entry(i + 4, j + 4) == v, f"D[{i}][{j}]")
            _require(adj.entry(i, j + 4).is_zero(), f"B[{i}][{j}]")
            _require(adj.entry(i + 4, j).is_zero(), f"C[{i}][{j}]")
    return "A = D with the pinned third-integer entries, B = C = 0"


def _claim_r_obstructed() -> str:
    verdict = single_qutrit_ct_obstruction(_g("R"))
    _require(verdict.is_obstructed(), "obstruction expected")
    return verdict.text()


_ZETA = Cyclo36.zeta9_pow(1)
_ZETA7 = Cyclo36.zeta9_pow(7)

CLAIMS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("hadamard-fourth-power-identity", _claim_h_fourth),
    ("hadamard-square-is-minus-swap", _claim_h_square),
    ("s-hadamard-cubed-global-phase", _claim_sh_cubed),
    ("hadamard-euler-zxz", _claim_euler("H", "zxz")),
    ("hadamard-euler-xzx", _claim_euler("H", "xzx")),
    ("hadamard-adjoint-euler-zxz", _claim_euler("HDG", "zxz")),
    ("hadamard-adjoint-euler-xzx", _claim_euler("HDG", "xzx")),
    ("hadamard-conjugates-x-to-z", _claim_hxh),
    ("hadamard-conjugates-z-to-xx", _claim_hzh),
    ("t-conjugates-x-with-zeta-phase", _claim_txt),
    ("zphase-ones-by-x-conjugation", _claim_z11),
    ("ctrl-x-tcount-3",
     lambda: _file_claim("c2x", _g("X"), ONE, 3)),
    ("ctrl-x-inverse-tcount-3",
     lambda: _file_claim("c2xdg", _g("X").dag(), ONE, 3)),
    ("ctrl-swap12-tcount-15",
     lambda: _file_claim("c2tau12", _g("TAU", ("12",)), ONE, 15)),
    ("ctrl-swap01-tcount-15",
     lambda: _file_claim("c2tau01", _g("TAU", ("01",)), ONE, 15)),
    ("ctrl-swap02-tcount-15",
     lambda: _file_claim("c2tau02", _g("TAU", ("02",)), ONE, 15)),
    ("ctrl-sdg-zeta-phase-tcount-8",
     lambda: _file_claim("c2sdg_phase", _g("SDG"), _ZETA, 8)),
    ("ctrl-zphase-ones-tcount-8",
     lambda: _file_claim("c2z11_phase", _zz(1, 1), _ZETA7, 8)),
    ("ctrl-neg-hdg-tcount-24",
     lambda: _file_claim("c2neg_hdg", _g("HDG"), MINUS_ONE, 24)),
    ("ctrl-neg-swap12-tcount-24",
     lambda: _file_claim("c2neg_tau12", _g("TAU", ("12",)), MINUS_ONE, 24)),
    ("r-construction-tcount-39", _claim_r_construction("r_construction", 39)),
    ("r-construction-naive-tcount-63",
     _claim_r_construction("r_construction_naive", 63)),
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
