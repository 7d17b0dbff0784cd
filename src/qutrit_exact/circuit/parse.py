"""Circuit text: circuit files and the target expressions of ``verify``.

A file is a ``qutrits N`` header followed by one gate per line; ``#`` starts
a comment.  Wires are 0-based, qutrit 0 most significant.  Examples::

    qutrits 2
    # phase gate on the top qutrit
    T 0
    TAU(12) 1
    ZPHASE 1/3 -1/3 0
    CX 0 1
    C2[TAU(12) 1] 0 phase=-1

``C2[g t] c`` applies ``g`` to ``t`` when the control holds level 2; the
optional ``phase=PH`` suffix multiplies the controlled block by the unit PH,
written ``[-](1|omega|zeta)[^k]`` (see ``parse_phase``).  ``C1[...]`` and
``C0[...]`` are sugar for conjugating the control by X so the trigger level
moves to 1 or 0.
``LAMBDA[g t] c`` applies ``g`` once per control level.

Within one ``parse_circuit`` call, a table of the line texts read so far
hands a repeated line its ops without reading it again.

A target expression is one line in the same tokens (brackets may hug)::

    EXPR  := TERM ('x' TERM)*            tensor product, left to right
    TERM  := '-'? ATOM
    ATOM  := 'I' | 'CX' | GATE | 'C2' '[' '-'? GATE ']' PHASE?
    GATE  := name, optionally with parameters: TAU(12), ZPHASE(1/3,-1/3), ...
    PHASE := 'phase=' PH

'I' is the 3 x 3 identity and C2[g] the two-qutrit gate applying g (times the
optional phase) when the control qutrit is in state 2.  A '-' may stand alone
or hug the next token.  Names are case-insensitive, as in files; a lone 'x'
between two terms is the tensor separator, and the gate X anywhere else.
``parse_target`` reads a target as one circuit of at most ``MAX_QUTRITS``
qutrits, its terms on consecutive qutrits from qutrit 0, and an overall sign:
each '-' flips it.  No matrix is built here; ``verify`` simulates the file
followed by the target's inverse and compares the result with +-I.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from ..errors import DimMismatchError, ParseError
from .core import MAX_QUTRITS, Circuit, Op, SINGLE_QUTRIT_KINDS, TAU_LABELS, tensor

__all__ = ["parse_circuit", "parse_phase", "parse_target"]

_TOKEN = re.compile(r"\[|\]|[^\s\[\]]+")
_GATE_NAME = re.compile(r"([A-Z][A-Z0-9]*)(?:\(([^()]*)\))?\Z", re.IGNORECASE)
_TAU_ARGS = [(label,) for label in TAU_LABELS]
_PHASE = re.compile(r"(-?)(1|omega|zeta)(?:\^(-?\d+))?\Z", re.IGNORECASE)
_PHASE_KEY = "phase="
_INT = re.compile(r"[+-]?\d+\Z")
_EXPONENT = re.compile(r"([+-]?\d+)(/3)?\Z")


def parse_phase(text: str) -> tuple[int, int]:
    """A unit ``[-](1|omega|zeta)[^k]`` as (sign, e) meaning sign * zeta_9**e.

    ``k`` defaults to 1 and may be negative; names are case-insensitive.
    """
    m = _PHASE.match(text)
    if m is None:
        raise ValueError(f"bad phase value {text!r}")
    step = {"1": 0, "omega": 3, "zeta": 1}[m.group(2).lower()]
    try:
        k = 1 if m.group(3) is None else int(m.group(3))
    except ValueError:  # more digits than int() converts
        raise ValueError(f"bad phase value {text!r}") from None
    return (-1 if m.group(1) else 1, step * k % 9)


@lru_cache(maxsize=1024)  # a circuit file repeats a few gate tokens many times
def _gate_name(tok: str) -> tuple[str, tuple[str, ...] | None] | None:
    """A single-qutrit gate token, such as ``t``, ``TAU(12)`` or ``zphase(1/3,-1/3)``,
    as its upper-cased kind and its parenthesised arguments (None without);
    None if the token names no gate.  TAU takes exactly one known cycle label.
    """
    m = _GATE_NAME.match(tok)
    if m is None:
        return None
    kind, raw = m.group(1).upper(), m.group(2)
    args = None if raw is None else tuple(p.strip() for p in raw.split(","))
    if kind not in SINGLE_QUTRIT_KINDS or (kind == "TAU" and args not in _TAU_ARGS):
        return None
    return kind, args


class _Line:
    """A cursor over the tokens of one line: brackets, and runs of other non-space."""

    def __init__(self, text: str, line_no: int):
        self._items = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(text)]
        self._pos = 0
        self._end = len(text) + 1
        self.line_no = line_no

    def peek(self) -> tuple[str, int] | None:
        if self._pos < len(self._items):
            return self._items[self._pos]
        return None

    def take(self, what: str) -> tuple[str, int]:
        item = self.peek()
        if item is None:
            raise ParseError(f"expected {what}", self.line_no, self._end)
        self._pos += 1
        return item

    def expect(self, literal: str) -> None:
        tok, col = self.take(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, got {tok!r}", self.line_no, col)

    def minus(self) -> bool:
        """Consume a leading '-', standing alone or hugging the next token."""
        item = self.peek()
        if item is None or not item[0].startswith("-"):
            return False
        tok, col = item
        if tok == "-":
            self._pos += 1
        else:
            self._items[self._pos] = (tok[1:], col + 1)
        return True

    def phase(self) -> tuple[int, int] | None:
        """An optional ``phase=PH`` token, read by ``parse_phase``."""
        item = self.peek()
        if item is None or not item[0].lower().startswith(_PHASE_KEY):
            return None
        self._pos += 1
        tok, col = item
        try:
            return parse_phase(tok[len(_PHASE_KEY):])
        except ValueError as exc:
            raise ParseError(str(exc), self.line_no, col) from None

    def third(self, item: tuple[str, int] | None = None) -> Fraction:
        """A phase exponent, an integer or ``k/3``: the next token, or ``item``."""
        tok, col = item or self.take("a phase exponent")
        m = _EXPONENT.match(tok)
        try:
            if m:
                return Fraction(int(m.group(1)), 3 if m.group(2) else 1)
        except ValueError:  # more digits than int() converts
            pass
        raise ParseError(
            f"expected an integer or a multiple of 1/3, got {tok!r}", self.line_no, col
        )

    def wire(self, n: int) -> int:
        tok, col = self.take("a wire index")
        if not _INT.match(tok):
            raise ParseError(f"expected a wire index, got {tok!r}", self.line_no, col)
        try:
            w = int(tok)
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"wire {tok} out of range for {n} qutrits", self.line_no, col
            ) from None
        if not 0 <= w < n:
            raise ParseError(f"wire {w} out of range for {n} qutrits", self.line_no, col)
        return w

    def finish(self) -> None:
        """Reject any token left on the line."""
        item = self.peek()
        if item is not None:
            raise ParseError(f"unexpected trailing token {item[0]!r}", self.line_no, item[1])


def _simple_gate(line: _Line, n: int) -> Op:
    tok, col = line.take("a gate name")
    gate = _gate_name(tok)
    # the exponents of ZPHASE and XPHASE follow the name in a file
    if gate is None or (gate[0] in ("ZPHASE", "XPHASE") and gate[1] is not None):
        raise ParseError(f"unknown gate {tok!r}", line.line_no, col)
    kind, args = gate
    if kind in ("ZPHASE", "XPHASE"):
        args = (line.third(), line.third())
    return Op(kind, (line.wire(n),), args or ())


def _controlled(line: _Line, n: int, head: str, col: int) -> list[Op]:
    line.expect("[")
    inner = _simple_gate(line, n)
    line.expect("]")
    control = line.wire(n)
    if control == inner.wires[0]:
        raise ParseError("control and target wires must differ", line.line_no, col)
    if head == "LAMBDA":
        line.finish()
        return [Op("LAMBDA", (control,), inner=inner)]
    phase = line.phase()
    line.finish()
    core = Op("C2", (control,), inner=inner, phase=phase)
    if head == "C2":
        return [core]
    x = Op("X", (control,))
    xdg = Op("TAU", (control,), ("021",))
    if head == "C1":
        # conjugate so the trigger level is 1: X maps 1 -> 2
        return [x, core, xdg]
    # C0: X^2 = Xdg maps 0 -> 2
    return [xdg, core, x]


def _statement(raw: str, line_no: int, n: int) -> tuple[Op, ...]:
    """The ops of one line after the header: none for a blank or comment line."""
    body = raw.split("#", 1)[0]
    if not body.strip():
        return ()
    line = _Line(body, line_no)
    tok, col = line.peek()
    head = tok.upper()
    try:
        if head in ("C0", "C1", "C2", "LAMBDA"):
            line.take("a statement")
            ops = _controlled(line, n, head, col)
        elif head == "CX":
            line.take("a statement")
            ops = [Op("CX", (line.wire(n), line.wire(n)))]
        else:
            ops = [_simple_gate(line, n)]
        line.finish()
    except ParseError:
        raise
    except ValueError as exc:  # Op's own checks, such as the wires of CX 1 1
        raise ParseError(str(exc), line_no, col) from None
    return tuple(ops)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with line/col on bad input."""
    n: int | None = None
    ops: list[Op] = []
    # the ops of each line text read so far in this call: repeated lines are common
    known: dict[str, tuple[Op, ...]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if n is not None:
            line_ops = known.get(raw)
            if line_ops is None:
                line_ops = known[raw] = _statement(raw, line_no, n)
            ops += line_ops
            continue
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        line = _Line(body, line_no)
        tok, col = line.peek()
        if tok.lower() != "qutrits":
            raise ParseError("first statement must be 'qutrits N'", line_no, col)
        line.take("a statement")
        count, ccol = line.take("a qutrit count")
        try:
            n = int(count) if count.isdecimal() else 0  # as int() reads digits
        except ValueError:  # more digits than int() converts
            n = 0
        if n < 1:
            raise ParseError(f"bad qutrit count {count!r}", line_no, ccol)
        line.finish()
    if n is None:
        raise ParseError("empty circuit text", 1, 1)
    return Circuit(n, tuple(ops))


def _target_gate(line: _Line, tok: str, col: int, wire: int) -> Op:
    gate = _gate_name(tok)
    if gate is None:
        raise ParseError(f"unknown gate {tok!r}", line.line_no, col)
    kind, args = gate
    if kind in ("ZPHASE", "XPHASE") and args is not None:
        args = tuple(line.third((a, col)) for a in args)
    try:
        return Op(kind, (wire,), args or ())
    except ValueError as e:
        raise ParseError(str(e), line.line_no, col) from None


def _atom(line: _Line) -> Circuit:
    tok, col = line.take("a gate")
    name = tok.upper()
    if name == "I":
        return Circuit(1)
    if name == "CX":
        return Circuit(2, (Op("CX", (0, 1)),))
    if name == "C2":
        line.expect("[")
        sign = -1 if line.minus() else 1
        inner = _target_gate(line, *line.take("a target gate"), 1)
        line.expect("]")
        psign, e = line.phase() or (1, 0)
        return Circuit(2, (Op("C2", (0,), inner=inner, phase=(sign * psign, e)),))
    return Circuit(1, (_target_gate(line, tok, col, 0),))


def parse_target(text: str) -> tuple[bool, Circuit]:
    """A target expression as (negated, circuit): its terms on consecutive qutrits,
    the leftmost on qutrit 0, negated when it holds an odd number of '-'."""
    line = _Line(text, 1)
    if line.peek() is None:
        raise ParseError("empty target expression", 1, 1)
    negated, circ = line.minus(), _atom(line)
    while line.peek() is not None:
        tok, col = line.take("'x'")
        if tok != "x":
            raise ParseError(f"expected tensor separator 'x', got {tok!r}", 1, col)
        negated ^= line.minus()
        term = _atom(line)
        # a target too wide fails before a later bad term is read
        if circ.n + term.n > MAX_QUTRITS:
            raise DimMismatchError(f"the target acts on more than {MAX_QUTRITS} qutrits")
        circ = tensor(circ, term)
    return negated, circ
