"""A second exact oracle: sympy polynomial arithmetic in QQ[x]/Phi_36(x).

x stands for zeta_36.  Ring operations and circuit matrices are recomputed
with sympy's own polynomial code and must agree with the package exactly.
The alpha ring is checked the same way in QQ[a]/(64a^6 - 96a^4 + 36a^2 - 3).
"""

import math
from fractions import Fraction

from sympy import QQ, cyclotomic_poly, symbols
from sympy.polys.rings import ring

from conftest import CT_KINDS, random_cyclo, random_word
from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.rings.alpha import DalphaElem, residue
from qutrit_exact.rings.cyclo import ONE, Cyclo36
from qutrit_exact.sim.gates import circuit_matrix

QX, x = ring("x", QQ)
PHI36 = QX.from_expr(cyclotomic_poly(36, symbols("x")))


def to_poly(a: Cyclo36):
    return sum((QQ(c, a.denominator) * x**k for k, c in enumerate(a.numerators)), QX.zero)


def from_poly(p) -> Cyclo36:
    p = p.rem(PHI36)
    coeffs = [p.coeff(x**k) for k in range(12)]
    fracs = [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return Cyclo36([int(f * den) for f in fracs], den)


class TestRingOracle:
    def test_mul(self, rng):
        for _ in range(25):
            a, b = random_cyclo(rng), random_cyclo(rng)
            assert a * b == from_poly(to_poly(a) * to_poly(b))

    def test_conjugate(self, rng):
        # conj(zeta) = zeta**-1 = zeta**35
        for _ in range(25):
            a = random_cyclo(rng)
            assert a.conjugate() == from_poly(to_poly(a).compose(x, x**35))

    def test_inverse(self, rng):
        for _ in range(10):
            a = random_cyclo(rng)
            if a.is_zero():
                continue
            s, _, h = to_poly(a).gcdex(PHI36)  # s*a + t*Phi_36 = h, a unit
            inv = from_poly(s.quo_ground(h.LC))
            assert a.inverse() == inv
            assert a * inv == ONE


QA, a = ring("a", QQ)
ALPHA_MIN = 64 * a**6 - 96 * a**4 + 36 * a**2 - 3
_s, _, _h = a.gcdex(ALPHA_MIN)  # s*a + t*min = h, a nonzero constant
ALPHA_INV = _s.quo_ground(_h.LC)
ALPHA = DalphaElem((0, 1))


def to_alpha_poly(e: DalphaElem):
    return sum((QQ(c.numerator, c.denominator) * a**k for k, c in enumerate(e.coeffs)), QA.zero)


def from_alpha_poly(p) -> DalphaElem | None:
    """The DalphaElem of p mod the minimal polynomial; None if a coefficient is not dyadic."""
    p = p.rem(ALPHA_MIN)
    coeffs = [p.coeff(a**k) for k in range(6)]
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs]
    if any(c.denominator & (c.denominator - 1) for c in coeffs):
        return None
    return DalphaElem(coeffs)


def random_dalpha(rng) -> DalphaElem:
    return DalphaElem([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 3)) for _ in range(6)])


class TestAlphaOracle:
    def test_mul_and_times_alpha(self, rng):
        for _ in range(40):
            u, v = random_dalpha(rng), random_dalpha(rng)
            assert u * v == from_alpha_poly(to_alpha_poly(u) * to_alpha_poly(v))
            assert u * ALPHA == from_alpha_poly(to_alpha_poly(u) * a)

    def test_divide_by_alpha(self, rng):
        outcomes = set()
        for _ in range(40):
            u = random_dalpha(rng)
            for w in (u, u * ALPHA, u * 3, u * u * ALPHA):
                want = from_alpha_poly(to_alpha_poly(w) * ALPHA_INV)
                assert w.divide_by_alpha() == want
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_residue(self, rng):
        for _ in range(60):
            u = random_dalpha(rng) * random_dalpha(rng)
            c = to_alpha_poly(u).rem(ALPHA_MIN).coeff(1)
            assert residue(u) == int(c.numerator) * pow(int(c.denominator), -1, 3) % 3


# gate matrices written out from their definitions, over x = zeta_36:
# omega = x**12, zeta_9 = x**4, H = (omega - omega**2)/3 * [omega**(r*c)]
_W = x**12
_TAU_IMAGES = {"01": (1, 0, 2), "02": (2, 1, 0), "12": (0, 2, 1),
               "012": (1, 2, 0), "021": (2, 0, 1)}


def _diag(*entries):
    return [[QX(entries[r]) if r == c else QX.zero for c in range(3)] for r in range(3)]


def _perm(images):
    return [[QX.one if images[c] == r else QX.zero for c in range(3)] for r in range(3)]


_H = [[(_W - _W**2) * QQ(1, 3) * _W ** (r * c) for c in range(3)] for r in range(3)]
_GATES = {
    "X": _perm((1, 2, 0)), "Z": _diag(1, _W, _W**2), "S": _diag(1, 1, _W),
    "SDG": _diag(1, 1, _W**2), "T": _diag(1, x**4, x**32),
    "TDG": _diag(1, x**32, x**4), "H": _H, "R": _diag(1, 1, -1),
    # H is symmetric, so its adjoint is its entrywise conjugate x -> x**35
    "HDG": [[e.compose(x, x**35) for e in row] for row in _H],
}


def _sympy_circuit(circ: Circuit):
    acc = _diag(1, 1, 1)
    for op in circ.ops:  # later gates multiply on the left
        g = _perm(_TAU_IMAGES[op.params[0]]) if op.kind == "TAU" else _GATES[op.kind]
        acc = [[sum((g[r][k] * acc[k][c] for k in range(3)), QX.zero).rem(PHI36)
                for c in range(3)] for r in range(3)]
    return acc


class TestCircuitOracle:
    def test_single_qutrit_words(self, rng):
        words = [random_word(rng, CT_KINDS + ("R",), 1, 12) for _ in range(6)]
        words.append(Circuit(1, (Op("H", (0,)), Op("T", (0,)), Op("HDG", (0,)))))
        for circ in words:
            m = circuit_matrix(circ)
            want = _sympy_circuit(circ)
            for r in range(3):
                for c in range(3):
                    assert m.entry(r, c) == from_poly(want[r][c]), (circ, r, c)
