"""Exact matrices for gates and circuits.

Basis convention: computational basis of n qutrits ordered with qutrit 0 most
significant, so the basis index of digits (d_0, ..., d_{n-1}) is
sum d_w * 3**(n-1-w).  Circuits list earlier gates first, so the circuit matrix
is the reversed product of the gate matrices.

The simulator works on integers.  Every gate entry lies in Z[zeta_9][1/s] with
s = omega - omega^2 (s^2 = -3), so a circuit matrix is held as rows / s**d for
one shared exponent d.  A basis row is a pair (e, planes): a pending factor
zeta_18**e and six planes, plane i holding the zeta_9**i coordinate (power
basis mod Phi_9 = x^6 + x^3 + 1) of every entry of the row as one int with a
signed W-bit lane per column.  A monomial gate (one +-zeta_9**k per column)
only permutes rows and adds to e; a dense gate sets each row to a sum of
rotated source planes and adds its own s-exponent to d.  The matrix over
Q(zeta_36) is decoded once, at the end.

W, the least multiple of 8 with W >= d + 4, is wide enough.  Packing is
Z-linear, so only the final lanes must satisfy |c| < 2**(W-1).  They are the
zeta_9-coordinates of x = (-3)**ceil(d/2) * u for the entries u of the
unitary U.  Complex conjugation commutes with every automorphism sigma of
Q(zeta_9), so sigma(U) is unitary and |sigma(x)| <= 3**ceil(d/2).  As
Tr(zeta_9**k) is 6, -3 or 0 when 9 | k, 3 | k or neither,
9 c_j = 2 Tr(x zeta_9**-j) + Tr(x zeta_9**(-j-3)) for j < 3 (zeta_9**(3-j) for
j >= 3).  Each trace is at most 6 max|sigma(x)|, so
|c_j| <= 2 max|sigma(x)| <= 2 * 3**ceil(d/2) < 2**(d+3).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..circuit.core import Circuit, Op, gate_facts
from ..errors import RingError
from ..rings.cyclo import Cyclo36, ONE, ZERO, OMEGA, OMEGA2
from .matrix import UnitaryMatrix, controlled_target

__all__ = ["gate_matrix", "circuit_matrix", "gate_local", "phase_unit", "MAX_QUTRITS"]

MAX_QUTRITS = 3

_Rows = tuple[tuple[Cyclo36, ...], ...]
# (coefficient, zeta_9 exponent) terms of one integral entry
_Terms = tuple[tuple[int, int], ...]

_S = OMEGA - OMEGA2
# H = (omega - omega^2)/3 * [[1,1,1],[1,w,w^2],[1,w^2,w]]; the prefactor is
# 1/(omega^2 - omega) since (omega - omega^2)^2 = -3.
_H_PRE = _S * Fraction(1, 3)
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


def phase_unit(phase: tuple[int, int] | None) -> Cyclo36:
    """The unit sign * zeta_9**e of a (sign, e) phase; None is 1."""
    if phase is None:
        return ONE
    sign, e = phase
    return Cyclo36.zeta9_pow(e) * sign


def gate_local(op: Op) -> tuple[_Rows, tuple[int, ...]]:
    """The local matrix of a gate and the wires it acts on (in digit order)."""
    if op.kind == "CX":
        rows = [[ZERO] * 9 for _ in range(9)]
        for i in range(3):
            for j in range(3):
                rows[3 * i + (i + j) % 3][3 * i + j] = ONE
        return tuple(tuple(r) for r in rows), op.wires
    if op.kind == "C2":
        inner = UnitaryMatrix(gate_local(op.inner)[0])
        block = controlled_target(inner, phase_unit(op.phase))
        return block.rows, (op.wires[0], op.inner.wires[0])
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


# -- gates as integer data ------------------------------------------------


# coordinates of zeta_9**j; zeta_9**(6+m) = -zeta_9**(3+m) - zeta_9**m
_UNITS = tuple(
    tuple(int(i == j) - int(j >= 6 and i in (j - 3, j - 6)) for i in range(6))
    for j in range(9)
)


def _terms(coords: tuple[int, ...]) -> _Terms:
    """One term for +-zeta_9**j, else one term per nonzero coordinate."""
    for j, unit in enumerate(_UNITS):
        if coords == unit:
            return ((1, j),)
        if coords == tuple(-u for u in unit):
            return ((-1, j),)
    return tuple((c, i) for i, c in enumerate(coords) if c)


def _dense(rows: _Rows) -> tuple[int, tuple[tuple[_Terms, ...], ...]]:
    """The least k with s**k * rows integral, and the terms of s**k * rows."""
    entries = [e for row in rows for e in row if not e.is_zero()]
    den = math.lcm(*(e.denominator for e in entries))
    a = 0
    while den % 3 == 0:
        den //= 3
        a += 1
    if den != 1 or any(e.zeta9_coords() is None for e in entries):
        raise RingError("a gate entry lies outside Z[zeta_9][1/s]")
    # s**(2a) = (-3)**a clears every denominator
    k = next(
        k for k in range(2 * a + 1) if all((_S**k * e).denominator == 1 for e in entries)
    )
    scale = _S**k
    return k, tuple(
        tuple(() if e.is_zero() else _terms((scale * e).zeta9_coords()) for e in row)
        for row in rows
    )


@lru_cache(maxsize=256)
def _compiled(
    kind: str,
    params: tuple,
    phase: tuple[int, int] | None,
    inner_kind: str | None,
    inner_params: tuple,
):
    """(monomial data, None) or (None, dense data) of a gate, keyed without wires.

    Both forms come from the gate's ``gate_local`` rows.  The gate is monomial
    when the rows need no power of s and each column holds one +-zeta_9**j:
    local column c then goes to zeta_18**exps[c] times local basis state
    images[c], with exps[c] = 2j, plus 9 for a minus sign.  The rows are
    unitary, so the one term of a lone entry is such a unit.
    """
    if inner_kind is None:
        op = Op(kind, (0, 1) if kind == "CX" else (0,), params)
    else:
        op = Op(kind, (0,), inner=Op(inner_kind, (1,), inner_params), phase=phase)
    k, terms = _dense(gate_local(op)[0])
    images, exps = [], []
    for col in zip(*terms):
        entries = [(r, t) for r, t in enumerate(col) if t]
        if k or len(entries) != 1 or len(entries[0][1]) != 1:
            return None, (k, terms)
        row, ((coef, j),) = entries[0]
        images.append(row)
        exps.append(2 * j + (9 if coef < 0 else 0))
    return (tuple(images), tuple(exps)), None


@lru_cache(maxsize=None)
def _layout(n: int, wires: tuple[int, ...]):
    """Per basis row: its local index on ``wires`` and the row with those digits
    cleared; per local index: the row with that index and every other digit 0."""
    places = tuple(3 ** (n - 1 - w) for w in wires)
    local, base, offsets = [], [], [0] * 3 ** len(wires)
    for r in range(3**n):
        idx, b = 0, r
        for p in places:
            digit = (r // p) % 3
            idx = 3 * idx + digit
            b -= digit * p
        local.append(idx)
        base.append(b)
        if b == 0:
            offsets[idx] = r
    return tuple(local), tuple(base), tuple(offsets)


# -- integer rows ---------------------------------------------------------


# zeta_18**e as (sign, zeta_9 shift): zeta_9**(e/2), or -zeta_9**((e+9)/2) for odd e
_ZETA18 = tuple((1, e // 2) if e % 2 == 0 else (-1, (e + 9) // 2) for e in range(18))
# the planes that planes 0..5 land on after a zeta_9**s rotation, before the fold
_SHIFTS = tuple(tuple((i + s) % 9 for i in range(6)) for s in range(9))


def _combine(sources) -> tuple:
    """Planes of sum(coef * zeta_9**j * zeta_18**e * planes) over
    (terms, e, planes) sources."""
    acc = [0] * 9
    for terms, e, planes in sources:
        sign, rot = _ZETA18[e % 18]
        p0, p1, p2, p3, p4, p5 = planes
        for coef, j in terms:
            c = sign * coef
            t0, t1, t2, t3, t4, t5 = _SHIFTS[(j + rot) % 9]
            # unrolled over the six planes: this is the simulator's inner loop
            if c == 1:
                acc[t0] += p0; acc[t1] += p1; acc[t2] += p2
                acc[t3] += p3; acc[t4] += p4; acc[t5] += p5
            elif c == -1:
                acc[t0] -= p0; acc[t1] -= p1; acc[t2] -= p2
                acc[t3] -= p3; acc[t4] -= p4; acc[t5] -= p5
            else:
                acc[t0] += c * p0; acc[t1] += c * p1; acc[t2] += c * p2
                acc[t3] += c * p3; acc[t4] += c * p4; acc[t5] += c * p5
    # x^(6+m) = -x^(3+m) - x^m mod Phi_9
    for m in range(3):
        high = acc[6 + m]
        if high:
            acc[3 + m] -= high
            acc[m] -= high
    return tuple(acc[:6])


def _permute(rows: list, images: tuple, exps: tuple, layout) -> list:
    """Rows after a monomial gate: moved, with the gate's exponents added."""
    local, base, offsets = layout
    out: list = [None] * len(rows)
    for r, (e, planes) in enumerate(rows):
        idx = local[r]
        out[base[r] + offsets[images[idx]]] = (e + exps[idx], planes)
    return out


def _mix(rows: list, terms: tuple, layout) -> list:
    """Rows after a dense gate, before its s-exponent is added to d."""
    local, base, offsets = layout
    out = []
    for r in range(len(rows)):
        b = base[r]
        sources = [
            (t, *rows[b + off]) for off, t in zip(offsets, terms[local[r]]) if t
        ]
        out.append((0, _combine(sources)))
    return out


def _to_matrix(rows: list, d: int, width: int) -> UnitaryMatrix:
    # rows / s**d = rows * s**(d % 2) / (-3)**ceil(d / 2), and s = zeta_9^3 - zeta_9^6
    scale = ((1, 3), (-1, 6)) if d % 2 else ((1, 0),)
    den = (-3) ** ((d + 1) // 2)
    dim, step = len(rows), width // 8
    # adding 2**(width-1) to every lane makes each lane c, |c| < 2**(width-1), unsigned
    half, bias = 1 << (width - 1), int.from_bytes((bytes(step - 1) + b"\x80") * dim, "little")
    size, zeros = dim * step, (0,) * dim
    out = []
    for e, planes in rows:
        lanes = []
        for p in _combine(((scale, e, planes),)):
            if not p:
                lanes.append(zeros)
                continue
            raw = (p + bias).to_bytes(size, "little")
            lanes.append([int.from_bytes(raw[i:i + step], "little") - half
                          for i in range(0, size, step)])
        out.append([Cyclo36.from_zeta9_coords(c, den) if any(c) else ZERO
                    for c in zip(*lanes)])
    return UnitaryMatrix(out)


def gate_matrix(op: Op, n: int) -> UnitaryMatrix:
    """The 3**n-dimensional matrix of one gate."""
    return circuit_matrix(Circuit(n, (op,)))


def circuit_matrix(circ: Circuit) -> UnitaryMatrix:
    """The exact unitary of a circuit (earlier gates act first)."""
    _check_width(circ.n)
    n, dim = circ.n, 3**circ.n
    steps, d = [], 0
    for op in circ.ops:
        inner = (op.inner.kind, op.inner.params) if op.inner else (None, ())
        mono, dense = _compiled(op.kind, op.params, op.phase, *inner)
        steps.append((mono, dense, _layout(n, op.all_wires())))
        if dense is not None:
            d += dense[0]
    width = 8 * ((d + 11) // 8)
    rows = [(0, (1 << (width * r), 0, 0, 0, 0, 0)) for r in range(dim)]
    for mono, dense, layout in steps:
        if mono is not None:
            rows = _permute(rows, *mono, layout)
        else:
            rows = _mix(rows, dense[1], layout)
    return _to_matrix(rows, d, width)


def _check_width(n: int) -> None:
    if not 1 <= n <= MAX_QUTRITS:
        raise ValueError(f"matrices are supported for 1..{MAX_QUTRITS} qutrits, got {n}")
