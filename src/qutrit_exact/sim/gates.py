"""Exact matrices for gates and circuits.

Basis convention: computational basis of n qutrits ordered with qutrit 0 most
significant, so the basis index of digits (d_0, ..., d_{n-1}) is
sum d_w * 3**(n-1-w).  Circuits list earlier gates first, so the circuit matrix
is the reversed product of the gate matrices.

The simulator works on integers.  Every gate entry lies in Z[zeta_9][1/s] with
s = omega - omega^2 (s^2 = -3), so a circuit matrix is held as rows / s**d for
one shared exponent d.  The matrix is two lists over the basis rows: a
pending factor zeta_18**e per row, and six planes per row, plane i holding
the zeta_9**i coordinate (power basis mod Phi_9 = x^6 + x^3 + 1) of every
entry of the row as one int with a signed W-bit lane per column.  Every gate
compiles to one form: the least power k of s that makes its local rows
integral, and the terms of their entries.  A gate runs as one cached step
per width and op, built from that form as a program: for each row, its
(source row, c, x) terms of c * zeta_18**x.  One kernel, ``_run``, sums the
terms' sources rotated by zeta_18**(x + e) and folds the result into six
planes; the gate then adds k to d, and the final s**(d % 2) runs on the
same kernel.  A gate with k = 0 is monomial, one term with c = 1 per row
(``_step`` gives the reason), and runs on a fast path read off its program:
one gather of both lists, which permutes the rows and adds each x to its
row's e.  The matrix over Q(zeta_36) is decoded once, at the end.

W, the least multiple of 8 with W >= d + 4, is wide enough.  Packing is
Z-linear, so only the final lanes must satisfy |c| < 2**(W-1).  They are the
zeta_9-coordinates of x = (-3)**ceil(d/2) * u for the entries u of the
unitary U.  Complex conjugation commutes with every automorphism sigma of
Q(zeta_9), so sigma(U) is unitary and |sigma(x)| <= 3**ceil(d/2).  As
Tr(zeta_9**k) is 6, -3 or 0 when 9 | k, 3 | k or neither,
9 c_j = 2 Tr(x zeta_9**-j) + Tr(x zeta_9**(-j-3)) for j < 3 (zeta_9**(3-j) for
j >= 3).  Each trace is at most 6 max|sigma(x)|, so
|c_j| <= 2 max|sigma(x)| <= 2 * 3**ceil(d/2) < 2**(d+3).

``circuit_scalar`` decodes no matrix.  Row r of c * I is lane r alone, so
every plane of row r must be v << (W * r) with |v| < 2**(W-1): balanced
base-2**W digits are unique under that bound, so v is then the lane and
every other lane is 0.  The lanes are read before the final s**(d % 2)
step.  There they are the coordinates of s**d * zeta_18**-e * u, and the
bound above holds for them as well, as
|sigma(s**d * zeta_18**-e)| = 3**(d/2) <= 3**ceil(d/2).  Rows that share e
must agree lane for lane.  One row per e then takes its zeta_18**e and the
s**(d % 2) step on ``_run``, and all must give the same coordinates, those
of (-3)**ceil(d/2) * c.  A row that fails either row test ends the read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter

from ..circuit.core import MAX_QUTRITS, Circuit, Op, canonical, gate_facts
from ..errors import RingError
from ..rings.cyclo import Cyclo36, ONE, ZERO, OMEGA, OMEGA2
from .matrix import UnitaryMatrix

__all__ = [
    "gate_matrix", "circuit_matrix", "circuit_scalar", "check_width", "gate_local", "phase_unit",
]

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
_EYE = UnitaryMatrix.identity(3)


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
    """The local matrix of a gate and the wires it acts on (in digit order).

    A two-qutrit gate is block diagonal over the control digit j: LAMBDA[g]
    applies g**j, CX is LAMBDA[X] (CX|j,t> = |j,t+j>), and C2[g] applies
    phase*g when j = 2 and the identity otherwise.
    """
    if op.kind not in ("CX", "C2", "LAMBDA"):
        return _named_rows(op.kind, op.params), op.wires
    g = UnitaryMatrix(_named_rows("X", ()) if op.kind == "CX" else gate_local(op.inner)[0])
    blocks = (_EYE, _EYE, g.scale(phase_unit(op.phase))) if op.kind == "C2" else (_EYE, g, g @ g)
    pad = (ZERO,) * 3
    return tuple(pad * j + row + pad * (2 - j)
                 for j, block in enumerate(blocks) for row in block.rows), op.all_wires()


# -- gates as integer data ------------------------------------------------


# coordinates of zeta_9**j
_UNITS = tuple(Cyclo36.zeta9_pow(j).zeta9_coords() for j in range(9))


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
def _compiled(op: Op) -> tuple[int, tuple[tuple[_Terms, ...], ...]]:
    """``_dense`` of the gate's ``gate_local`` rows; ``_step`` passes
    ``canonical(op)``, so every placement shares one entry."""
    return _dense(gate_local(op)[0])


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


# zeta_18**E as (negated, the planes that planes 0..5 land on before the fold)
# for every E = x + e, x < 26 the zeta_18 exponent of a term and e < 18 a
# row's pending one: zeta_9**(E/2), or -zeta_9**((E+9)/2) for odd E
_ROTATE = tuple(
    (E % 2 == 1, *((i + (E + 9 * (E % 2)) // 2) % 9 for i in range(6)))
    for E in range(26 + 18)
)


def _run(program, exps, planes) -> list:
    """Planes of every row of ``program``: the sum of c * zeta_18**(x + e) times
    the planes of its (source, c, x) terms, e the source's pending exponent."""
    out = []
    for row in program:
        acc = [0] * 9
        for src, c, x in row:
            neg, t0, t1, t2, t3, t4, t5 = _ROTATE[x + exps[src] % 18]
            p0, p1, p2, p3, p4, p5 = planes[src]
            # unrolled over the six planes: this is the simulator's inner loop
            if c != 1:
                c = -c if neg else c
                acc[t0] += c * p0; acc[t1] += c * p1; acc[t2] += c * p2
                acc[t3] += c * p3; acc[t4] += c * p4; acc[t5] += c * p5
            elif neg:
                acc[t0] -= p0; acc[t1] -= p1; acc[t2] -= p2
                acc[t3] -= p3; acc[t4] -= p4; acc[t5] -= p5
            else:
                acc[t0] += p0; acc[t1] += p1; acc[t2] += p2
                acc[t3] += p3; acc[t4] += p4; acc[t5] += p5
        # x^(6+m) = -x^(3+m) - x^m mod Phi_9
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = acc
        out.append((a0 - a6, a1 - a7, a2 - a8, a3 - a6, a4 - a7, a5 - a8))
    return out


@lru_cache(maxsize=1024)
def _step(n: int, op: Op):
    """A gate on n qutrits as (gather, program, k), the power k of s that it
    adds to d.  The program holds, per row, the (source row, c, x) terms of
    c * zeta_18**x, a minus sign folded into x.  When k is 0 the step is a
    gather instead, with program None: an itemgetter of the rows' sources,
    and their x as the exponents the rows gain (None when all are 0).  Then
    every row is one term with c = 1: each local entry is an algebraic
    integer whose conjugates all have modulus at most 1 (sigma of a unitary
    is unitary), so by Kronecker's theorem it is 0 or +-zeta_9**j, which
    ``_terms`` writes as one term, and a unitary row holds one such unit.
    The sources form a permutation: two rows that each hold one unit are
    orthogonal only if their units sit in different columns."""
    k, terms = _compiled(canonical(op))
    local, base, offsets = _layout(n, op.all_wires())
    program = tuple(
        tuple((base[r] + off, abs(c), 2 * j + (9 if c < 0 else 0))
              for off, t in zip(offsets, terms[local[r]]) for c, j in t)
        for r in range(3**n)
    )
    if k:
        return None, program, k
    source, _, gain = zip(*(row[0] for row in program))
    return (itemgetter(*source), gain if any(gain) else None), None, 0


def _unscaled(exps, planes, d: int):
    """``planes`` times their pending zeta_18**e and s**(d % 2), and the
    denominator (-3)**ceil(d/2) left over: rows / s**d =
    rows * s**(d % 2) / (-3)**ceil(d / 2), and s = zeta_9^3 - zeta_9^6 =
    zeta_18^6 + zeta_18^21.  Row-wise and Z-linear, so it takes packed rows
    and single lanes alike."""
    scale = ((1, 6), (1, 21)) if d % 2 else ((1, 0),)
    program = [tuple((r, c, x) for c, x in scale) for r in range(len(planes))]
    return _run(program, exps, planes), (-3) ** ((d + 1) // 2)


def _to_matrix(exps, planes, d: int, width: int) -> UnitaryMatrix:
    planes, den = _unscaled(exps, planes, d)
    dim, step = len(planes), width // 8
    # adding 2**(width-1) to every lane makes each lane c, |c| < 2**(width-1), unsigned
    half, bias = 1 << (width - 1), int.from_bytes((bytes(step - 1) + b"\x80") * dim, "little")
    size, zeros = dim * step, (0,) * dim
    out = []
    for row in planes:
        lanes = []
        for p in row:
            if not p:
                lanes.append(zeros)
                continue
            raw = (p + bias).to_bytes(size, "little")
            lanes.append([int.from_bytes(raw[i:i + step], "little") - half
                          for i in range(0, size, step)])
        out.append(tuple(Cyclo36.from_zeta9_coords(c, den) if any(c) else ZERO
                         for c in zip(*lanes)))
    return UnitaryMatrix._of(tuple(out))


def _simulate(circ: Circuit):
    """The packed rows of a circuit: (pending exponents, planes, d, lane width)."""
    check_width(circ.n)
    n, dim = circ.n, 3**circ.n
    steps = [_step(n, op) for op in circ.ops]
    d = sum(k for _, _, k in steps)
    width = 8 * ((d + 11) // 8)
    exps = zeros = (0,) * dim
    planes = [(1 << (width * r), 0, 0, 0, 0, 0) for r in range(dim)]
    for gather, program, _ in steps:
        if gather is not None:
            move, gain = gather
            exps, planes = move(exps), move(planes)
            if gain is not None:
                exps = tuple(map(add, exps, gain))
        else:
            planes, exps = _run(program, exps, planes), zeros
    return exps, planes, d, width


def gate_matrix(op: Op, n: int) -> UnitaryMatrix:
    """The 3**n-dimensional matrix of one gate."""
    return circuit_matrix(Circuit(n, (op,)))


def circuit_matrix(circ: Circuit) -> UnitaryMatrix:
    """The exact unitary of a circuit (earlier gates act first)."""
    return _to_matrix(*_simulate(circ))


def circuit_scalar(circ: Circuit) -> Cyclo36 | None:
    """The c with ``circuit_matrix(circ) == c * I``, or None when there is
    none; read off the packed rows, with no matrix decoded."""
    exps, planes, d, width = _simulate(circ)
    half, lanes, shift = 1 << (width - 1), {}, 0
    for e, row in zip(exps, planes):
        # row r of c * I is lane r alone: every plane is v << (width * r), |v| < half
        low, lo, hi = (1 << shift) - 1, -half << shift, half << shift
        for p in row:
            if p & low or not lo < p < hi:
                return None
        # rows that share a pending exponent agree before it is applied
        vs = tuple([p >> shift for p in row])
        if lanes.setdefault(e % 18, vs) != vs:
            return None
        shift += width
    coords, den = _unscaled(tuple(lanes), list(lanes.values()), d)
    if any(x != coords[0] for x in coords):
        return None
    return Cyclo36.from_zeta9_coords(coords[0], den)


def check_width(n: int) -> None:
    """Refuse a circuit width that has no matrix."""
    if not 1 <= n <= MAX_QUTRITS:
        raise ValueError(f"matrices are supported for 1..{MAX_QUTRITS} qutrits, got {n}")
