"""Exact matrices for gates and circuits.

Basis convention: computational basis of n qutrits ordered with qutrit 0 most
significant, so the basis index of digits (d_0, ..., d_{n-1}) is
sum d_w * 3**(n-1-w).  Circuits list earlier gates first, so the circuit matrix
is the reversed product of the gate matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..circuit.core import Circuit, Op, gate_facts
from ..rings.cyclo import Cyclo36, ONE, ZERO, OMEGA, OMEGA2
from .matrix import UnitaryMatrix

__all__ = ["gate_matrix", "circuit_matrix", "gate_local", "MAX_QUTRITS"]

MAX_QUTRITS = 3

_Rows = tuple[tuple[Cyclo36, ...], ...]

# H = (omega - omega^2)/3 * [[1,1,1],[1,w,w^2],[1,w^2,w]]; the prefactor is
# 1/(omega^2 - omega) since (omega - omega^2)^2 = -3.
_H_PRE = (OMEGA - OMEGA2) * Fraction(1, 3)
_H = UnitaryMatrix(
    tuple(tuple(_H_PRE * Cyclo36.omega_pow(r * c) for c in range(3)) for r in range(3))
)
_DENSE: dict[str, _Rows] = {"H": _H.rows, "HDG": _H.dag().rows}


@lru_cache(maxsize=None)
def _named_rows(kind: str, params: tuple) -> _Rows:
    if kind == "XPHASE":
        z = UnitaryMatrix(_named_rows("ZPHASE", params))
        return (_H @ z @ _H.dag()).rows
    facts = gate_facts(kind, params)
    if facts.images is None:
        return _DENSE[kind]
    rows = [[ZERO] * 3 for _ in range(3)]
    for col, (row, e) in enumerate(zip(facts.images, facts.zeta18)):
        rows[row][col] = Cyclo36.zeta_pow(2 * e)
    return tuple(tuple(r) for r in rows)


def _phase_value(phase: tuple[int, int] | None) -> Cyclo36:
    if phase is None:
        return ONE
    s, e = phase
    val = Cyclo36.zeta9_pow(e)
    return val if s > 0 else -val


def gate_local(op: Op) -> tuple[_Rows, tuple[int, ...]]:
    """The local matrix of a gate and the wires it acts on (in digit order)."""
    if op.kind == "CX":
        rows = [[ZERO] * 9 for _ in range(9)]
        for i in range(3):
            for j in range(3):
                rows[3 * i + (i + j) % 3][3 * i + j] = ONE
        return tuple(tuple(r) for r in rows), op.wires
    if op.kind == "C2":
        inner, _ = gate_local(op.inner)
        phase = _phase_value(op.phase)
        rows = [[ZERO] * 9 for _ in range(9)]
        for k in range(6):
            rows[k][k] = ONE
        for r in range(3):
            for c in range(3):
                rows[6 + r][6 + c] = phase * inner[r][c]
        return tuple(tuple(r) for r in rows), (op.wires[0], op.inner.wires[0])
    if op.kind == "LAMBDA":
        inner, _ = gate_local(op.inner)
        sq = (UnitaryMatrix(inner) @ UnitaryMatrix(inner)).rows
        rows = [[ZERO] * 9 for _ in range(9)]
        for r in range(3):
            rows[r][r] = ONE
            for c in range(3):
                rows[3 + r][3 + c] = inner[r][c]
                rows[6 + r][6 + c] = sq[r][c]
        return tuple(tuple(r) for r in rows), (op.wires[0], op.inner.wires[0])
    return _named_rows(op.kind, op.params), op.wires


def _apply_local(acc: tuple, local: _Rows, wires: tuple[int, ...], n: int) -> tuple:
    """Rows of (gate @ acc) where the gate is ``local`` embedded on ``wires``."""
    dim = 3**n
    places = tuple(3 ** (n - 1 - w) for w in wires)
    m = len(local)
    result: list = [None] * dim
    for r in range(dim):
        lrow = 0
        base = r
        for p in places:
            d = (r // p) % 3
            lrow = 3 * lrow + d
            base -= d * p
        terms = []
        for lcol, coef in enumerate(local[lrow]):
            if coef.is_zero():
                continue
            k = base
            v = lcol
            for p in reversed(places):
                k += (v % 3) * p
                v //= 3
            terms.append((coef, acc[k]))
        if len(terms) == 1:
            coef, src = terms[0]
            if coef == ONE:
                result[r] = src
            else:
                result[r] = tuple(coef * e if not e.is_zero() else e for e in src)
        else:
            out_row = []
            for c in range(dim):
                s = ZERO
                for coef, src in terms:
                    e = src[c]
                    if not e.is_zero():
                        s = s + coef * e
                out_row.append(s)
            result[r] = tuple(out_row)
    return tuple(result)


def gate_matrix(op: Op, n: int) -> UnitaryMatrix:
    """The 3**n-dimensional matrix of one gate."""
    _check_width(n)
    ident = UnitaryMatrix.identity(3**n).rows
    local, wires = gate_local(op)
    return UnitaryMatrix(_apply_local(ident, local, wires, n))


def circuit_matrix(circ: Circuit) -> UnitaryMatrix:
    """The exact unitary of a circuit (earlier gates act first)."""
    _check_width(circ.n)
    acc = UnitaryMatrix.identity(3**circ.n).rows
    for op in circ.ops:
        local, wires = gate_local(op)
        acc = _apply_local(acc, local, wires, circ.n)
    return UnitaryMatrix(acc)


def _check_width(n: int) -> None:
    if not 1 <= n <= MAX_QUTRITS:
        raise ValueError(f"matrices are supported for 1..{MAX_QUTRITS} qutrits, got {n}")
