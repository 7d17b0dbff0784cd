"""Expansion of circuits over the base gate set {X, Z, S, S†, H, H†, T, T†, CX, τ}.

Controlled gates and R expand by splicing in pre-derived two-qutrit circuits
stored as data files (see the ``circuits/`` directory; ``QUTRIT_EXACT_CIRCUITS``
overrides the location), listed with the op each implements and its T-count in
``CONSTRUCTIONS``.  Phase gates expand algebraically:
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
from functools import lru_cache
from pathlib import Path

from ..errors import UnexpandableError, UnknownMacroError
from .core import BASE_KINDS, Circuit, Op, canonical, gate_facts, op_text
from .parse import parse_circuit

__all__ = [
    "CONSTRUCTIONS",
    "DATA_ENV",
    "circuits_dir",
    "load_named",
    "macro_names",
    "expand_macros",
    "t_count",
]

DATA_ENV = "QUTRIT_EXACT_CIRCUITS"

# The bundled constructions: (file stem, the op the file implements on two
# qutrits as one circuit line, pinned T-count, name of its catalog claim
# before the "-tcount-N" suffix).  A one-wire op borrows wire 1, which the
# file returns unchanged.
CONSTRUCTIONS: tuple[tuple[str, str, int, str], ...] = (
    ("c2x", "C2[X 1] 0", 3, "ctrl-x"),
    ("c2xdg", "C2[TAU(021) 1] 0", 3, "ctrl-x-inverse"),
    ("c2tau12", "C2[TAU(12) 1] 0", 15, "ctrl-swap12"),
    ("c2tau01", "C2[TAU(01) 1] 0", 15, "ctrl-swap01"),
    ("c2tau02", "C2[TAU(02) 1] 0", 15, "ctrl-swap02"),
    ("c2sdg_phase", "C2[SDG 1] 0 phase=zeta", 8, "ctrl-sdg-zeta-phase"),
    ("c2z11_phase", "C2[ZPHASE 1 1 1] 0 phase=zeta^7", 8, "ctrl-zphase-ones"),
    ("c2neg_hdg", "C2[HDG 1] 0 phase=-1", 24, "ctrl-neg-hdg"),
    ("c2neg_tau12", "C2[TAU(12) 1] 0 phase=-1", 24, "ctrl-neg-swap12"),
    ("r_construction", "R 0", 39, "r-construction"),
    ("r_construction_naive", "R 0", 63, "r-construction-naive"),
)


def macro_names() -> tuple[str, ...]:
    """Stems of every circuit data file the package relies on."""
    return tuple(row[0] for row in CONSTRUCTIONS)


@lru_cache(maxsize=None)
def _stems() -> dict[Op, str]:
    """Canonical op -> stem of its cheapest construction."""
    stems = {}
    # most T gates first, so the cheapest row of an op is written last and wins
    for stem, line, _, _ in sorted(CONSTRUCTIONS, key=lambda row: -row[2]):
        stems[parse_circuit(f"qutrits 2\n{line}\n").ops[0]] = stem
    stems[Op("C2", (0,), inner=Op("TAU", (1,), ("012",)))] = "c2x"  # X = TAU(012)
    return stems


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


def _data_path(name: str) -> Path:
    return (circuits_dir() / f"{name}.qc").resolve()


@lru_cache(maxsize=None)
def _load(path: Path) -> Circuit:
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
    return circ


def load_named(name: str) -> Circuit:
    """Load and cache a circuit data file by stem name."""
    return _load(_data_path(name))


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


def _zphase_ops(kind: str, wire: int, a: Fraction, b: Fraction) -> list[Op]:
    """Z(a, b) = T**j * Z**za * S**(zb - 2za) exactly (exponents mod 3), with j
    the balanced residue of 3a, za = a - j/3 and zb = b + j/3; ``kind`` names
    the ZPHASE or XPHASE op being expanded in the UNEXPANDABLE text."""
    if (a + b) % 1 != 0:
        raise UnexpandableError(
            f"{kind} {a} {b} has determinant zeta^{int(3 * ((a + b) % 3))}, "
            "not reachable over the base set"
        )
    m = int(3 * a)
    j = (m + 1) % 3 - 1  # in {-1, 0, 1}; 0 for an integer a
    ops = [Op("T" if j == 1 else "TDG", (wire,))] if j else []
    za, zb = (m - j) // 3, (int(3 * b) + j) // 3
    return ops + [Op("Z", (wire,))] * (za % 3) + [Op("S", (wire,))] * ((zb - 2 * za) % 3)


@lru_cache(maxsize=None)
def _spliced(path: Path, wire0: int, wire1: int) -> tuple[Op, ...]:
    """The ops of a two-qutrit data file with its wires 0 and 1 mapped as given."""
    table = {0: wire0, 1: wire1}
    return tuple(sub.remap(table.__getitem__) for sub in _load(path).ops)


def _expand_op(op: Op, n: int, out: list[Op]) -> None:
    k = op.kind
    if k in BASE_KINDS:
        out.append(op)
        return
    w = op.wires[0]
    if k == "ZPHASE":
        out.extend(_zphase_ops(k, w, *op.params))
        return
    if k == "XPHASE":
        out.append(Op("HDG", (w,)))
        out.extend(_zphase_ops(k, w, *op.params))
        out.append(Op("H", (w,)))
        return
    if k == "LAMBDA":
        c, t = op.wires[0], op.inner.wires[0]
        facts = gate_facts(op.inner.kind, op.inner.params)
        # LAMBDA[g] is CX when g = X and CX^2 when g = X^2
        cx_count = {(1, 2, 0): 1, (2, 0, 1): 2}.get(facts.images)
        if cx_count and not any(facts.zeta18):
            out.extend([Op("CX", (c, t))] * cx_count)
            return
        # LAMBDA[g] applies g on control 1 and g^2 on control 2; X C2[g] X^dag
        # is the first half, and the whole op because the phase-free C2 rows
        # left in CONSTRUCTIONS are transpositions, g^2 = I (any other C2[g]
        # is refused).  A row for a C2[g] with g^2 != I must add a C2[g^2]
        # step here, or the exhaustive test_expansion_is_exact_or_refused fails.
        out.append(Op("X", (c,)))
        _expand_op(Op("C2", (c,), inner=op.inner), n, out)
        out.append(Op("TAU", (c,), ("021",)))
        return
    if k == "C2":
        reason = _c2_obstruction(op)
        if reason is not None:
            raise UnexpandableError(reason)
    elif n < 2:  # a named kind outside the base set
        raise UnexpandableError(
            f"{k} on a lone qutrit: the construction borrows a second qutrit"
        )
    key = canonical(op)
    stem = _stems().get(key)
    if stem is None:
        raise UnknownMacroError(f"no registered expansion for {op_text(key)}")
    wires = op.all_wires()
    if len(wires) == 1:
        wires += (min(x for x in range(n) if x != w),)
    out.extend(_spliced(_data_path(stem), *wires))


def expand_macros(circ: Circuit) -> Circuit:
    """Rewrite a circuit over the base gate set; exact to the matrix, phases included."""
    out: list[Op] = []
    for op in circ.ops:
        _expand_op(op, circ.n, out)
    return Circuit(circ.n, tuple(out))


def t_count(circ: Circuit) -> int:
    """Number of T/T† gates after full macro expansion."""
    return sum(1 for op in expand_macros(circ).ops if op.kind in ("T", "TDG"))
