"""Expansion of circuits over the base gate set {X, Z, S, S†, H, H†, T, T†, CX, τ}.

Controlled gates expand by splicing in pre-derived two-qutrit circuits stored
as data files (see the ``circuits/`` directory; ``QUTRIT_EXACT_CIRCUITS``
overrides the location).  Phase gates expand algebraically:
ZPHASE a b = Z^a S^(b-2a) for integer exponents, with one T or T† peeled off
first when the exponents are proper thirds; XPHASE conjugates that by H.

A controlled gate C2[g] phase=p is expandable only if det(p*g) is +1 or -1:
every base gate on two qutrits has determinant +1 or -1 (one-qutrit gates embed
as G tensor I with det(G)^3 = +1 or -1, and CX is an even permutation), so a
controlled block whose determinant is any other ninth root of unity cannot be
reached exactly.  Such requests raise UNEXPANDABLE; expandable targets without
a registered data file raise UNKNOWN_MACRO.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from ..errors import UnexpandableError, UnknownMacroError
from .core import BASE_KINDS, Circuit, Op, gate_facts
from .parse import parse_circuit

__all__ = [
    "DATA_ENV",
    "circuits_dir",
    "load_named",
    "macro_names",
    "expand_macros",
    "t_count",
]

DATA_ENV = "QUTRIT_EXACT_CIRCUITS"

# C2 expansions: (inner kind, inner params, phase) -> data file stem
_C2_FILES: dict[tuple, str] = {
    ("X", (), None): "c2x",
    ("TAU", ("012",), None): "c2x",
    ("TAU", ("021",), None): "c2xdg",
    ("TAU", ("12",), None): "c2tau12",
    ("TAU", ("01",), None): "c2tau01",
    ("TAU", ("02",), None): "c2tau02",
    ("SDG", (), (1, 1)): "c2sdg_phase",
    ("ZPHASE", (Fraction(1), Fraction(1)), (1, 7)): "c2z11_phase",
    ("HDG", (), (-1, 0)): "c2neg_hdg",
    ("TAU", ("12",), (-1, 0)): "c2neg_tau12",
}

# named kinds outside the base set -> data file implementing the gate on
# wire 0 of two, with wire 1 borrowed and returned unchanged
_BORROWED_FILES = {"R": "r_construction"}
_STANDALONE = ("r_construction", "r_construction_naive")


def macro_names() -> tuple[str, ...]:
    """Stems of every circuit data file the package relies on."""
    return tuple(sorted(set(_C2_FILES.values()))) + _STANDALONE


def circuits_dir() -> Path:
    """Directory holding the .qc data files."""
    override = os.environ.get(DATA_ENV)
    if override:
        return Path(override)
    for parent in Path(__file__).resolve().parents:
        cand = parent / "circuits"
        if cand.is_dir():
            return cand
    return Path.cwd() / "circuits"


_CACHE: dict[Path, Circuit] = {}


def load_named(name: str) -> Circuit:
    """Load and cache a circuit data file by stem name."""
    path = (circuits_dir() / f"{name}.qc").resolve()
    if path not in _CACHE:
        try:
            text = path.read_text()
        except OSError as exc:
            raise UnknownMacroError(f"cannot read circuit file {path}") from exc
        circ = parse_circuit(text)
        if circ.n != 2:
            raise UnknownMacroError(f"{path} must be a two-qutrit circuit")
        for op in circ.ops:
            if op.kind not in BASE_KINDS:
                raise UnknownMacroError(f"{path} contains non-base gate {op.kind}")
        _CACHE[path] = circ
    return _CACHE[path]


def _c2_obstruction(op: Op) -> str | None:
    """Reason the controlled gate cannot be reached exactly, or None."""
    # zeta18**e = (-1)**e * zeta_9**(5e), so up to sign det(inner) = zeta_9**(5 * sum)
    # and det(phase * inner) = zeta_9**(5 * sum + 3 * phase exponent)
    det = 5 * sum(gate_facts(op.inner.kind, op.inner.params).zeta18)
    if op.phase is not None:
        det += 3 * op.phase[1]
    det %= 9
    if det == 0:
        return None
    text = f"omega^{det // 3}" if det % 3 == 0 else f"zeta^{det}"
    return (
        f"controlled block has determinant {text}, but every two-qutrit "
        "circuit over the base set has determinant +1 or -1"
    )


def _int_zphase_ops(wire: int, a: int, b: int) -> list[Op]:
    """Z(a, b) = Z^a * S^(b - 2a) exactly (all exponents mod 3)."""
    ops = [Op("Z", (wire,))] * (a % 3)
    ops += [Op("S", (wire,))] * ((b - 2 * a) % 3)
    return ops


def _zphase_ops(wire: int, a: Fraction, b: Fraction) -> list[Op]:
    if (a + b) % 1 != 0:
        raise UnexpandableError(
            f"ZPHASE {a} {b} has determinant zeta^{int(3 * ((a + b) % 3))}, "
            "not reachable over the base set"
        )
    if a.denominator == 1:
        return _int_zphase_ops(wire, int(a % 3), int(b % 3))
    m = int(3 * a)  # not divisible by 3
    j0 = ((m + 1) % 3) - 1  # balanced residue in {-1, 0, 1}; here +-1
    ops = [Op("T" if j0 == 1 else "TDG", (wire,))]
    ops += _int_zphase_ops(wire, (m - j0) // 3 % 3, (int(3 * b) + j0) // 3 % 3)
    return ops


def _square_c2(op: Op) -> Op | None:
    """C2 applying inner^2 (with controlled phase where needed), or None if inner^2 = I."""
    square = gate_facts(op.inner.kind, op.inner.params).square
    if square is None:
        return None
    kind, params, phase = square
    return Op("C2", op.wires, inner=Op(kind, op.inner.wires, params), phase=phase)


def _splice(stem: str, wire0: int, wire1: int, out: list[Op]) -> None:
    """Append a two-qutrit data file with its wires 0 and 1 mapped as given."""
    table = {0: wire0, 1: wire1}
    out.extend(sub.remap(lambda x: table[x]) for sub in load_named(stem).ops)


def _expand_op(op: Op, n: int, out: list[Op]) -> None:
    k = op.kind
    if k in BASE_KINDS:
        out.append(op)
        return
    w = op.wires[0]
    if k == "ZPHASE":
        out.extend(_zphase_ops(w, *op.params))
        return
    if k == "XPHASE":
        out.append(Op("HDG", (w,)))
        out.extend(_zphase_ops(w, *op.params))
        out.append(Op("H", (w,)))
        return
    if k == "C2":
        reason = _c2_obstruction(op)
        if reason is not None:
            raise UnexpandableError(reason)
        key = (op.inner.kind, op.inner.params, op.phase)
        stem = _C2_FILES.get(key)
        if stem is None:
            raise UnknownMacroError(
                f"no registered expansion for C2[{op.inner.kind}] with phase {op.phase}"
            )
        _splice(stem, op.wires[0], op.inner.wires[0], out)
        return
    if k == "LAMBDA":
        c, t = op.wires[0], op.inner.wires[0]
        facts = gate_facts(op.inner.kind, op.inner.params)
        # LAMBDA[g] is CX when g = X and CX^2 when g = X^2
        cx_count = {(1, 2, 0): 1, (2, 0, 1): 2}.get(facts.images)
        if cx_count and not any(facts.zeta18):
            out.extend([Op("CX", (c, t))] * cx_count)
            return
        # level-1 trigger: conjugate the control by X so 1 -> 2
        out.append(Op("X", (c,)))
        _expand_op(Op("C2", (c,), inner=op.inner), n, out)
        out.append(Op("TAU", (c,), ("021",)))
        square = _square_c2(op)
        if square is not None:
            _expand_op(square, n, out)
        return
    # what is left is a named kind outside the base set
    if n < 2:
        raise UnexpandableError(
            f"{k} on a lone qutrit: the construction borrows a second qutrit"
        )
    _splice(_BORROWED_FILES[k], w, min(x for x in range(n) if x != w), out)


def expand_macros(circ: Circuit) -> Circuit:
    """Rewrite a circuit over the base gate set; exact to the matrix, phases included."""
    out: list[Op] = []
    for op in circ.ops:
        _expand_op(op, circ.n, out)
    return Circuit(circ.n, tuple(out))


def t_count(circ: Circuit) -> int:
    """Number of T/T† gates after full macro expansion."""
    return sum(1 for op in expand_macros(circ).ops if op.kind in ("T", "TDG"))
