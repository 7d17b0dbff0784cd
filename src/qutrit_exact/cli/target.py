"""Parser for target-matrix expressions used by the verify command.

Grammar (tokens separated by whitespace; brackets may hug):

    EXPR  := TERM ('x' TERM)*            tensor product, left to right
    TERM  := '-'? ATOM
    ATOM  := 'I' | 'CX' | GATE | 'C2' '[' '-'? GATE ']' PHASE?
    GATE  := name, optionally with parameters: TAU(12), ZPHASE(1/3,-1/3), ...
    PHASE := 'phase=' '-'? ('1' | 'omega' | 'zeta') ['^' k]

'I' is the 3 x 3 identity, 'zeta' the primitive ninth root of unity, and
'omega' the primitive cube root; k may be negative.  C2[g] is the two-qutrit
gate applying g (times the optional phase) when the control qutrit is in
state 2.  A target is simulated as one circuit: its terms sit on consecutive
qutrits, the leftmost term on qutrit 0, and each '-' flips one overall sign.
A target acts on at most ``MAX_QUTRITS`` qutrits, as circuits do.
Tokens, gate names and phases are read exactly as in circuit files
(``qutrit_exact.circuit.parse``), so names are case-insensitive; a lone 'x'
between two terms is the tensor separator, and the gate X anywhere else.
"""

from __future__ import annotations

from qutrit_exact.circuit.core import Circuit, Op, tensor
from qutrit_exact.circuit.parse import Tokens, parse_gate_name, parse_phase, parse_third
from qutrit_exact.errors import DimMismatchError, ParseError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE
from qutrit_exact.sim.gates import MAX_QUTRITS, circuit_matrix, phase_unit
from qutrit_exact.sim.matrix import UnitaryMatrix


def parse_phase_value(text: str) -> Cyclo36:
    """'-zeta^2', 'omega', '1', ... as an exact unit."""
    try:
        phase = parse_phase(text)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
    return phase_unit(phase)


def _gate(tok: str, col: int, wire: int) -> Op:
    kind, args = parse_gate_name(tok, 1, col)
    if kind in ("ZPHASE", "XPHASE") and args is not None:
        args = tuple(parse_third(a, 1, col) for a in args)
    try:
        return Op(kind, (wire,), args or ())
    except ValueError as e:
        raise ParseError(str(e), 1, col) from None


def _negated(s: Tokens) -> bool:
    """Consume a leading '-', standing alone or hugging the next token."""
    item = s.peek()
    if item is None or not item[0].startswith("-"):
        return False
    tok, col = item
    if tok == "-":
        s.pos += 1
    else:
        s.items[s.pos] = (tok[1:], col + 1)
    return True


def _parse_atom(s: Tokens) -> Circuit:
    tok, col = s.take("a gate")
    name = tok.upper()
    if name == "I":
        return Circuit(1)
    if name == "CX":
        return Circuit(2, (Op("CX", (0, 1)),))
    if name == "C2":
        s.expect("[")
        sign = -1 if _negated(s) else 1
        inner = _gate(*s.take("a target gate"), 1)
        s.expect("]")
        psign, e = s.take_phase() or (1, 0)
        return Circuit(2, (Op("C2", (0,), inner=inner, phase=(sign * psign, e)),))
    return Circuit(1, (_gate(tok, col, 0),))


def parse_target(text: str) -> UnitaryMatrix:
    """Evaluate a target expression to an exact matrix."""
    s = Tokens(text, 1)
    if s.peek() is None:
        raise ParseError("empty target expression", 1, 1)
    negative = _negated(s)
    circ = _parse_atom(s)
    while s.peek() is not None:
        tok, col = s.take("'x'")
        if tok != "x":
            raise ParseError(
                f"expected tensor separator 'x', got {tok!r}", 1, col
            )
        negative ^= _negated(s)
        term = _parse_atom(s)
        if circ.n + term.n > MAX_QUTRITS:
            raise DimMismatchError(f"the target acts on more than {MAX_QUTRITS} qutrits")
        circ = tensor(circ, term)
    m = circuit_matrix(circ)
    return m.scale(MINUS_ONE) if negative else m
