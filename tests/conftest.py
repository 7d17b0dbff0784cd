"""Shared helpers: numeric oracles, seeded random circuit words and a time limit.

The package itself never touches floating point; tests may, as an
independent oracle.  ``to_complex`` evaluates exact ring elements
numerically; ``numeric_gate`` and ``numeric_op`` build float gate matrices
from the gate definitions alone, and ``assert_close`` compares an exact matrix
with one.  The word builders draw reproducible random circuits, and
``every_controlled_op`` lists 1,760 controlled one-op circuits on two qutrits.
Every test fails once it runs past ``TIME_LIMIT`` seconds.
"""

from __future__ import annotations

import cmath
import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from qutrit_exact.circuit.core import GATES, SINGLE_QUTRIT_KINDS, TAU_LABELS, Circuit, Op
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix

_Z36 = [cmath.exp(2j * cmath.pi * k / 36) for k in range(36)]

# alpha = sin(2*pi/9) = (zeta^5 - zeta^13)/2 and i = zeta^9, with zeta = exp(2*pi*i/36)
ALPHA = (Cyclo36.zeta_pow(5) - Cyclo36.zeta_pow(13)) * Fraction(1, 2)
IMAG = Cyclo36.zeta_pow(9)

TOL = 1e-9

# seconds a single test may run; the slowest one takes under 2 s
TIME_LIMIT = 60

CLIFFORD_KINDS = ("H", "HDG", "S", "SDG", "X", "Z", "TAU")
CT_KINDS = CLIFFORD_KINDS + ("T", "TDG")


def to_complex(x: Cyclo36) -> complex:
    total = sum(n * _Z36[k] for k, n in enumerate(x.numerators))
    return total / x.denominator


def mat_complex(m: UnitaryMatrix) -> list[list[complex]]:
    return [[to_complex(e) for e in row] for row in m.rows]


def approx_equal(a: complex, b: complex) -> bool:
    return abs(a - b) < TOL


W = cmath.exp(2j * cmath.pi / 3)
Z9 = cmath.exp(2j * cmath.pi / 9)


def numeric_gate(kind: str, params=()) -> np.ndarray:
    if kind == "X":
        return np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    if kind == "Z":
        return np.diag([1, W, W * W])
    if kind == "S":
        return np.diag([1, 1, W])
    if kind == "SDG":
        return numeric_gate("S").conj().T
    if kind == "T":
        return np.diag([1, Z9, Z9**8])
    if kind == "TDG":
        return numeric_gate("T").conj().T
    if kind == "H":
        return ((W - W * W) / 3) * np.array(
            [[1, 1, 1], [1, W, W * W], [1, W * W, W]], dtype=complex
        )
    if kind == "HDG":
        return numeric_gate("H").conj().T
    if kind == "R":
        return np.diag([1, 1, -1]).astype(complex)
    if kind == "TAU":
        images = {
            "01": (1, 0, 2), "02": (2, 1, 0), "12": (0, 2, 1),
            "012": (1, 2, 0), "021": (2, 0, 1),
        }[params[0]]
        m = np.zeros((3, 3), dtype=complex)
        for c, r in enumerate(images):
            m[r][c] = 1
        return m
    if kind == "ZPHASE":
        a, b = (Fraction(p) for p in params)
        return np.diag([1, cmath.exp(2j * cmath.pi * a / 3),
                        cmath.exp(2j * cmath.pi * b / 3)])
    if kind == "XPHASE":
        h = numeric_gate("H")
        return h @ numeric_gate("ZPHASE", params) @ h.conj().T
    raise AssertionError(kind)


def _digits(idx: int, n: int) -> list[int]:
    return [(idx // 3 ** (n - 1 - w)) % 3 for w in range(n)]


def _index(digits: list[int], n: int) -> int:
    return sum(d * 3 ** (n - 1 - w) for w, d in enumerate(digits))


def numeric_op(op: Op, n: int) -> np.ndarray:
    if op.kind == "CX":
        c, t = op.wires
        m = np.zeros((3**n, 3**n), dtype=complex)
        for idx in range(3**n):
            digits = _digits(idx, n)
            digits[t] = (digits[t] + digits[c]) % 3
            m[_index(digits, n)][idx] = 1
        return m
    if op.kind in ("C2", "LAMBDA"):
        # C2[g] applies phase * g when the control holds 2; LAMBDA[g] applies
        # g**j when it holds j
        c, t = op.wires[0], op.inner.wires[0]
        g = numeric_gate(op.inner.kind, op.inner.params)
        if op.kind == "C2":
            sign, e = op.phase or (1, 0)
            blocks = (np.eye(3), np.eye(3), sign * Z9**e * g)
        else:
            blocks = (np.eye(3), g, g @ g)
        m = np.zeros((3**n, 3**n), dtype=complex)
        for idx in range(3**n):
            digits = _digits(idx, n)
            block, col = blocks[digits[c]], digits[t]
            for row in range(3):
                digits[t] = row
                m[_index(digits, n)][idx] = block[row][col]
        return m
    local = numeric_gate(op.kind, op.params)
    acc = np.eye(1, dtype=complex)
    for w in range(n):
        acc = np.kron(acc, local if w == op.wires[0] else np.eye(3))
    return acc


def assert_close(exact: UnitaryMatrix, numeric: np.ndarray):
    got = np.array(mat_complex(exact))
    assert np.max(np.abs(got - numeric)) < TOL


def random_op(rng: random.Random, kinds: tuple[str, ...], n: int) -> Op:
    choices = list(kinds)
    if n >= 2:
        choices.append("CX")
    kind = rng.choice(choices)
    if kind == "CX":
        c, t = rng.sample(range(n), 2)
        return Op("CX", (c, t))
    wire = rng.randrange(n)
    if kind == "TAU":
        return Op("TAU", (wire,), (rng.choice(TAU_LABELS),))
    return Op(kind, (wire,))


def random_word(
    rng: random.Random, kinds: tuple[str, ...], n: int, length: int
) -> Circuit:
    return Circuit(n, tuple(random_op(rng, kinds, n) for _ in range(length)))


def random_single_op(rng: random.Random, wire: int) -> Op:
    kind = rng.choice(sorted(SINGLE_QUTRIT_KINDS))
    params: tuple = ()
    if kind == "TAU":
        params = (rng.choice(TAU_LABELS),)
    elif kind in ("ZPHASE", "XPHASE"):
        params = (Fraction(rng.randrange(9), 3), Fraction(rng.randrange(9), 3))
    return Op(kind, (wire,), params)


def random_any_op(rng: random.Random, n: int) -> Op:
    """C2 (with or without a phase), LAMBDA, CX or a single-qutrit gate."""
    wire = rng.randrange(n)
    roll = rng.random() if n > 1 else 1.0
    if roll < 0.45:
        other = rng.choice([w for w in range(n) if w != wire])
        if roll < 0.1:
            return Op("CX", (wire, other))
        if roll < 0.2:
            return Op("LAMBDA", (wire,), inner=random_single_op(rng, other))
        if roll < 0.3:  # a dense inner gate
            kind = rng.choice(("H", "HDG", "XPHASE"))
            params = (Fraction(rng.randrange(9), 3), Fraction(1, 3)) if kind == "XPHASE" else ()
            inner = Op(kind, (other,), params)
        else:
            inner = random_single_op(rng, other)
        phase = (rng.choice((1, -1)), rng.randrange(9)) if rng.random() < 0.7 else None
        return Op("C2", (wire,), inner=inner, phase=phase)
    return random_single_op(rng, wire)


def every_controlled_op():
    """LAMBDA[g], and C2[g] with no phase, zeta, zeta^7 or -1, on both wire
    orders of two qutrits: g is every table kind, every TAU and every
    ZPHASE/XPHASE with exponents in thirds 0..8/3 (1,760 ops)."""
    thirds = [Fraction(k, 3) for k in range(9)]
    forms = [(kind, ()) for kind in sorted(GATES)] + [("TAU", (lab,)) for lab in TAU_LABELS]
    forms += [(kind, (a, b)) for kind in ("ZPHASE", "XPHASE") for a in thirds for b in thirds]
    for c, t in ((0, 1), (1, 0)):
        for kind, params in forms:
            inner = Op(kind, (t,), params)
            yield Circuit(2, (Op("LAMBDA", (c,), inner=inner),))
            for phase in (None, (1, 1), (1, 7), (-1, 0)):
                yield Circuit(2, (Op("C2", (c,), inner=inner, phase=phase),))


def random_cyclo(rng: random.Random, span: int = 9) -> Cyclo36:
    nums = [rng.randint(-span, span) for _ in range(12)]
    den = rng.choice((1, 2, 3, 4, 6, 9, 12))
    return Cyclo36(nums, den)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC1FF)


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT, where it would hang the suite."""

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
