"""Circuit intermediate representation: gates, circuits, structural operations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable

__all__ = [
    "Op",
    "Circuit",
    "adjoint",
    "canonical",
    "tensor",
    "print_circuit",
    "GateFacts",
    "GATES",
    "gate_facts",
    "SINGLE_QUTRIT_KINDS",
    "BASE_KINDS",
    "TAU_LABELS",
    "MAX_QUTRITS",
]

# the widest circuit, or verify target, that has a matrix
MAX_QUTRITS = 3


@dataclass(frozen=True)
class GateFacts:
    """Everything the toolkit uses about one single-qutrit gate.

    A monomial gate sends basis state ``c`` to ``zeta18**zeta18[c]`` times
    basis state ``images[c]``, with zeta18 = exp(2*pi*i/18); its determinant
    is zeta18**sum(zeta18) up to sign.  A dense gate has ``images`` None and
    ``zeta18`` giving a diagonal gate of the same determinant up to sign: the
    one XPHASE conjugates by H, and the identity for H and HDG.
    ``adjoint`` is the inverse as (kind, params).
    """

    images: tuple[int, int, int] | None
    zeta18: tuple[int, int, int]
    adjoint: tuple[str, tuple]


_ID = (0, 1, 2)
# T = diag(1, zeta_9, zeta_9^8); R = diag(1, 1, -1) with -1 = zeta18**9
GATES: dict[str, GateFacts] = {
    "X": GateFacts((1, 2, 0), (0, 0, 0), ("TAU", ("021",))),
    "Z": GateFacts(_ID, (0, 6, 12), ("ZPHASE", (2, 1))),
    "S": GateFacts(_ID, (0, 0, 6), ("SDG", ())),
    "SDG": GateFacts(_ID, (0, 0, 12), ("S", ())),
    "T": GateFacts(_ID, (0, 2, 16), ("TDG", ())),
    "TDG": GateFacts(_ID, (0, 16, 2), ("T", ())),
    "H": GateFacts(None, (0, 0, 0), ("HDG", ())),
    "HDG": GateFacts(None, (0, 0, 0), ("H", ())),
    "R": GateFacts(_ID, (0, 0, 9), ("R", ())),
}

# cycle label -> images: TAU(label) sends basis state c to images[c]
TAU_IMAGES = {
    "01": (1, 0, 2),
    "02": (2, 1, 0),
    "12": (0, 2, 1),
    "012": (1, 2, 0),
    "021": (2, 0, 1),
}
# cycle labels accepted by the circuit language
TAU_LABELS = tuple(TAU_IMAGES)

# single-qutrit gate kinds (usable as controlled targets)
SINGLE_QUTRIT_KINDS = frozenset(GATES) | {"TAU", "ZPHASE", "XPHASE"}
# the base set that full expansion is allowed to emit
BASE_KINDS = frozenset(GATES) - {"R"} | {"TAU", "CX"}
_ALL_KINDS = SINGLE_QUTRIT_KINDS | {"CX", "C2", "LAMBDA"}


def gate_facts(kind: str, params: tuple) -> GateFacts:
    """The facts of a single-qutrit gate: a table row, or computed for a family."""
    if kind == "TAU":
        images = TAU_IMAGES[params[0]]
        inverse = tuple(images.index(k) for k in range(3))
        label = next(lab for lab, img in TAU_IMAGES.items() if img == inverse)
        return GateFacts(images, (0, 0, 0), ("TAU", (label,)))
    if kind in ("ZPHASE", "XPHASE"):
        a, b = params
        return GateFacts(
            _ID if kind == "ZPHASE" else None,
            (0, int(6 * a), int(6 * b)),
            (kind, (-a % 3, -b % 3)),
        )
    return GATES[kind]


def _check_third(value: Fraction, name: str) -> Fraction:
    if value.denominator not in (1, 3):
        raise ValueError(f"{name} must be an integer or a third, got {value}")
    return value % 3


@dataclass(frozen=True)
class Op:
    """One gate application.

    ``kind`` is the canonical gate mnemonic.  ``params`` carries the
    permutation label for TAU and the two phase exponents (in units of
    omega = exp(2*pi*i/3), thirds allowed) for ZPHASE/XPHASE.  Controlled
    gates (C2, LAMBDA) store the target gate in ``inner`` (whose single wire
    is the absolute target wire) and C2 may carry a controlled global phase
    ``phase`` = (sign, e) meaning sign * zeta_9**e.
    """

    kind: str
    wires: tuple[int, ...]
    params: tuple = ()
    inner: "Op | None" = None
    phase: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("C2", "LAMBDA"):
            if len(self.wires) != 1:
                raise ValueError(f"{self.kind} takes one control wire")
            if self.inner is None:
                raise ValueError(f"{self.kind} requires a target gate")
            if self.inner.kind not in SINGLE_QUTRIT_KINDS:
                raise ValueError(f"{self.kind} target must be a single-qutrit gate")
            if self.inner.wires[0] == self.wires[0]:
                raise ValueError("control and target wires must differ")
        elif self.kind == "CX":
            if len(self.wires) != 2:
                raise ValueError("CX takes two wires")
            if self.wires[0] == self.wires[1]:
                raise ValueError("control and target wires must differ")
        elif len(self.wires) != 1:
            raise ValueError(f"{self.kind} takes one wire")
        if self.inner is not None and self.kind not in ("C2", "LAMBDA"):
            raise ValueError(f"{self.kind} takes no target gate")
        if self.kind == "TAU":
            if len(self.params) != 1 or self.params[0] not in TAU_LABELS:
                raise ValueError(f"TAU takes a cycle label from {TAU_LABELS}")
        elif self.kind in ("ZPHASE", "XPHASE"):
            if len(self.params) != 2:
                raise ValueError(f"{self.kind} takes two phase exponents")
            a = _check_third(Fraction(self.params[0]), "first exponent")
            b = _check_third(Fraction(self.params[1]), "second exponent")
            object.__setattr__(self, "params", (a, b))
        elif self.params:
            raise ValueError(f"{self.kind} takes no parameters")
        if self.phase is not None:
            if self.kind != "C2":
                raise ValueError("only C2 carries a controlled phase")
            s, e = self.phase
            if s not in (1, -1):
                raise ValueError("phase sign must be +1 or -1")
            if not isinstance(e, int):
                raise ValueError("phase exponent must be an integer")
            object.__setattr__(self, "phase", (s, e % 9))
            if self.phase == (1, 0):
                object.__setattr__(self, "phase", None)

    def all_wires(self) -> tuple[int, ...]:
        if self.inner is not None:
            return self.wires + self.inner.wires
        return self.wires

    def remap(self, where: Callable[[int], int]) -> Op:
        inner = self.inner.remap(where) if self.inner is not None else None
        return replace(self, wires=tuple(where(w) for w in self.wires), inner=inner)


def canonical(op: Op) -> Op:
    """The op with its wires renumbered 0, 1, ... in ``all_wires`` order."""
    where = {w: i for i, w in enumerate(op.all_wires())}
    return op.remap(where.__getitem__)


@dataclass(frozen=True)
class Circuit:
    """A gate list over ``n`` qutrits; earlier ops act first."""

    n: int
    ops: tuple[Op, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a circuit needs at least one qutrit")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for w in op.all_wires():
                if not 0 <= w < self.n:
                    raise ValueError(f"wire {w} out of range for {self.n} qutrits")

    def __len__(self) -> int:
        return len(self.ops)


def _adjoint_ops(op: Op) -> tuple[Op, ...]:
    k = op.kind
    if k == "CX":
        return (op, op)
    if k in ("C2", "LAMBDA"):
        (inner_adj,) = _adjoint_ops(op.inner)
        phase = None
        if op.phase is not None:
            s, e = op.phase
            phase = (s, (-e) % 9)
        return (Op(k, op.wires, inner=inner_adj, phase=phase),)
    kind, params = gate_facts(k, op.params).adjoint
    return (Op(kind, op.wires, params),)


def adjoint(circ: Circuit) -> Circuit:
    """The inverse circuit: reversed gate order, each gate inverted."""
    ops: list[Op] = []
    for op in reversed(circ.ops):
        ops.extend(_adjoint_ops(op))
    return Circuit(circ.n, tuple(ops))


def tensor(top: Circuit, bottom: Circuit) -> Circuit:
    """Side-by-side product; qutrit 0 of ``top`` stays most significant."""
    shifted = tuple(op.remap(lambda w: w + top.n) for op in bottom.ops)
    return Circuit(top.n + bottom.n, top.ops + shifted)


def _fmt_third(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _fmt_phase(phase: tuple[int, int]) -> str:
    s, e = phase
    sign = "-" if s < 0 else ""
    if e == 0:
        return f"{sign}1"
    return f"{sign}zeta^{e}"


def op_text(op: Op) -> str:
    k = op.kind
    if k == "TAU":
        return f"TAU({op.params[0]}) {op.wires[0]}"
    if k in ("ZPHASE", "XPHASE"):
        a, b = op.params
        return f"{k} {_fmt_third(a)} {_fmt_third(b)} {op.wires[0]}"
    if k == "CX":
        return f"CX {op.wires[0]} {op.wires[1]}"
    if k in ("C2", "LAMBDA"):
        text = f"{k}[{op_text(op.inner)}] {op.wires[0]}"
        if op.phase is not None:
            text += f" phase={_fmt_phase(op.phase)}"
        return text
    return f"{k} {op.wires[0]}"


def print_circuit(circ: Circuit, header: Iterable[str] = ()) -> str:
    """Render a circuit in its canonical text form (parse round-trips it)."""
    lines = [f"# {h}" for h in header]
    lines.append(f"qutrits {circ.n}")
    lines.extend(op_text(op) for op in circ.ops)
    return "\n".join(lines) + "\n"
