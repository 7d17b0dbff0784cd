"""Text format for circuits.

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
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from ..errors import ParseError
from .core import Circuit, Op, SINGLE_QUTRIT_KINDS
from .perm import TAU_LABELS

__all__ = ["Tokens", "parse_circuit", "parse_gate_name", "parse_phase", "parse_third"]

_TOKEN = re.compile(r"\[|\]|[^\s\[\]]+")
_GATE_NAME = re.compile(r"([A-Z][A-Z0-9]*)(?:\(([^()]*)\))?\Z", re.IGNORECASE)
_TAU_ARGS = [(label,) for label in TAU_LABELS]
_PHASE = re.compile(r"(-?)(1|omega|zeta)(?:\^(-?\d+))?\Z", re.IGNORECASE)
_PHASE_KEY = "phase="
_INT = re.compile(r"[+-]?\d+\Z")
_THIRD = re.compile(r"([+-]?\d+)/3\Z")


def parse_phase(text: str) -> tuple[int, int]:
    """A unit ``[-](1|omega|zeta)[^k]`` as (sign, e) meaning sign * zeta_9**e.

    ``k`` defaults to 1 and may be negative; names are case-insensitive.
    """
    m = _PHASE.match(text)
    if m is None:
        raise ValueError(f"bad phase value {text!r}")
    step = {"1": 0, "omega": 3, "zeta": 1}[m.group(2).lower()]
    k = 1 if m.group(3) is None else int(m.group(3))
    return (-1 if m.group(1) else 1, step * k % 9)


class Tokens:
    """The tokens of one line of text: brackets, and runs of other non-space."""

    def __init__(self, text: str, line_no: int):
        self.items = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(text)]
        self.pos = 0
        self.line_no = line_no
        self.line_len = len(text)

    def peek(self) -> tuple[str, int] | None:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return None

    def take(self, what: str) -> tuple[str, int]:
        item = self.peek()
        if item is None:
            raise ParseError(f"expected {what}", self.line_no, self.line_len + 1)
        self.pos += 1
        return item

    def expect(self, literal: str) -> None:
        tok, col = self.take(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, got {tok!r}", self.line_no, col)

    def take_phase(self) -> tuple[int, int] | None:
        """An optional ``phase=PH`` token, read by ``parse_phase``."""
        item = self.peek()
        if item is None or not item[0].lower().startswith(_PHASE_KEY):
            return None
        self.pos += 1
        tok, col = item
        try:
            return parse_phase(tok[len(_PHASE_KEY):])
        except ValueError as exc:
            raise ParseError(str(exc), self.line_no, col) from None

    def finish(self) -> None:
        """Reject any token left on the line."""
        item = self.peek()
        if item is not None:
            raise ParseError(f"unexpected trailing token {item[0]!r}", self.line_no, item[1])


def _parse_wire(toks: Tokens, n: int) -> int:
    tok, col = toks.take("a wire index")
    if not _INT.match(tok):
        raise ParseError(f"expected a wire index, got {tok!r}", toks.line_no, col)
    w = int(tok)
    if not 0 <= w < n:
        raise ParseError(f"wire {w} out of range for {n} qutrits", toks.line_no, col)
    return w


def parse_third(tok: str, line_no: int, col: int) -> Fraction:
    """A phase exponent: an integer or ``k/3``; ParseError at (line_no, col) otherwise."""
    if _INT.match(tok):
        return Fraction(int(tok))
    m = _THIRD.match(tok)
    if m:
        return Fraction(int(m.group(1)), 3)
    raise ParseError(f"expected an integer or a multiple of 1/3, got {tok!r}", line_no, col)


def _parse_third(toks: Tokens) -> Fraction:
    tok, col = toks.take("a phase exponent")
    return parse_third(tok, toks.line_no, col)


def parse_gate_name(tok: str, line_no: int, col: int) -> tuple[str, tuple[str, ...] | None]:
    """A single-qutrit gate token, such as ``t``, ``TAU(12)`` or ``zphase(1/3,-1/3)``,
    as its upper-cased kind and its parenthesised arguments (None without).

    Names are case-insensitive; TAU takes exactly one known cycle label.
    """
    gate = _gate_name(tok)
    if gate is None:
        raise ParseError(f"unknown gate {tok!r}", line_no, col)
    return gate


@lru_cache(maxsize=1024)  # a circuit file repeats a few gate tokens many times
def _gate_name(tok: str) -> tuple[str, tuple[str, ...] | None] | None:
    m = _GATE_NAME.match(tok)
    if m is None:
        return None
    kind, raw = m.group(1).upper(), m.group(2)
    args = None if raw is None else tuple(p.strip() for p in raw.split(","))
    if kind not in SINGLE_QUTRIT_KINDS or (kind == "TAU" and args not in _TAU_ARGS):
        return None
    return kind, args


def _parse_simple_gate(toks: Tokens, n: int) -> Op:
    tok, col = toks.take("a gate name")
    kind, args = parse_gate_name(tok, toks.line_no, col)
    if kind in ("ZPHASE", "XPHASE"):
        if args is not None:  # the exponents follow the name in a file
            raise ParseError(f"unknown gate {tok!r}", toks.line_no, col)
        args = (_parse_third(toks), _parse_third(toks))
    return Op(kind, (_parse_wire(toks, n),), args or ())


def _parse_controlled(toks: Tokens, n: int, head: str, col: int) -> list[Op]:
    toks.expect("[")
    inner = _parse_simple_gate(toks, n)
    toks.expect("]")
    control = _parse_wire(toks, n)
    if control == inner.wires[0]:
        raise ParseError("control and target wires must differ", toks.line_no, col)
    if head == "LAMBDA":
        toks.finish()
        return [Op("LAMBDA", (control,), inner=inner)]
    phase = toks.take_phase()
    toks.finish()
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


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with line/col on bad input."""
    n: int | None = None
    ops: list[Op] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        toks = Tokens(body, line_no)
        tok, col = toks.take("a statement")
        if n is None:
            if tok.lower() != "qutrits":
                raise ParseError("first statement must be 'qutrits N'", line_no, col)
            count, ccol = toks.take("a qutrit count")
            if not count.isdigit() or int(count) < 1:
                raise ParseError(f"bad qutrit count {count!r}", line_no, ccol)
            n = int(count)
            toks.finish()
            continue
        head = tok.upper()
        try:
            if head in ("C0", "C1", "C2", "LAMBDA"):
                ops.extend(_parse_controlled(toks, n, head, col))
            elif head == "CX":
                control = _parse_wire(toks, n)
                ops.append(Op("CX", (control, _parse_wire(toks, n))))
            else:
                toks.pos = 0
                ops.append(_parse_simple_gate(toks, n))
            toks.finish()
        except ParseError:
            raise
        except ValueError as exc:  # Op's own checks, such as the wires of CX 1 1
            raise ParseError(str(exc), line_no, col) from None
    if n is None:
        raise ParseError("empty circuit text", 1, 1)
    return Circuit(n, tuple(ops))
