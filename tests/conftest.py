"""Shared helpers: numeric oracles, seeded random circuit words and a time limit.

The package itself never touches floating point; tests may, as an
independent oracle.  ``to_complex`` evaluates exact ring elements
numerically, and the word builders draw reproducible random circuits.
Every test fails once it runs past ``TIME_LIMIT`` seconds.
"""

from __future__ import annotations

import cmath
import random
import signal
from fractions import Fraction

import pytest

from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.circuit.perm import TAU_LABELS
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.matrix import UnitaryMatrix

_Z36 = [cmath.exp(2j * cmath.pi * k / 36) for k in range(36)]

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
