"""A second exact oracle: sympy polynomial arithmetic in QQ[x]/Phi_36(x).

x stands for zeta_36.  Ring operations and circuit matrices are recomputed
with sympy's own polynomial code and must agree with the package exactly.
The valuation read by ``to_alpha`` is checked the same way: QQ[a]/(64a^6 -
96a^4 + 36a^2 - 3) gives the least a-power with dyadic coefficients and the
residue of its constant coefficient.
"""

import math
from fractions import Fraction

from sympy import QQ, Matrix, cyclotomic_poly, symbols
from sympy.polys.rings import ring

from conftest import CT_KINDS, random_cyclo, random_word
from qutrit_exact.circuit.core import Circuit, Op
from qutrit_exact.adjoint import adjoint_of
from qutrit_exact.rings.alpha import to_alpha
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
ALPHA = from_poly((x**5 - x**13) * QQ(1, 2))


def _coeffs(p) -> list:
    p = p.rem(ALPHA_MIN)
    return [p.coeff(a**k) for k in range(6)]


def oracle_pair(p) -> tuple[int, int]:
    """(lde, residue) of p in QQ[a]/min: the least L with dyadic coefficients
    of a**L * p, and the constant coefficient of that product mod 3."""
    for lde in range(64):
        cs = _coeffs(a**lde * p)
        if all(c.denominator & (c.denominator - 1) == 0 for c in cs):
            c0 = cs[0]
            return lde, int(c0.numerator) * pow(int(c0.denominator), -1, 3) % 3
    raise AssertionError("no alpha power clears the denominators")


def from_alpha_poly(p) -> Cyclo36:
    """p evaluated at alpha, computed in Q(zeta_36) by the package."""
    return sum((ALPHA**k * Fraction(int(c.numerator), int(c.denominator))
                for k, c in enumerate(_coeffs(p))), Cyclo36())


# the columns alpha^k over QQ[x]/Phi_36 and a left inverse, in sympy
_COLUMNS = Matrix([[to_poly(ALPHA**k).coeff(x**j) for k in range(6)] for j in range(12)])
_LEFT_INVERSE = (_COLUMNS.T * _COLUMNS).inv() * _COLUMNS.T


def to_alpha_poly(e: Cyclo36):
    """A real element of Q(zeta_36) over the alpha power basis, solved by sympy."""
    b = Matrix([to_poly(e).coeff(x**j) for j in range(12)])
    c = _LEFT_INVERSE * b
    assert _COLUMNS * c == b
    return sum((QQ(int(v.p), int(v.q)) * a**k for k, v in enumerate(c)), QA.zero)


def random_alpha_poly(rng, dens=(1, 2, 4, 8)):
    return sum((QQ(rng.randint(-9, 9), rng.choice(dens)) * a**k for k in range(6)), QA.zero)


class TestAlphaOracle:
    def test_mul_and_times_alpha(self, rng):
        for _ in range(40):
            p, q = random_alpha_poly(rng, (1, 2, 3, 6, 9)), random_alpha_poly(rng)
            u, v = from_alpha_poly(p), from_alpha_poly(q)
            assert to_alpha(u * v) == oracle_pair(p * q)
            assert to_alpha(u * ALPHA) == oracle_pair(p * a)

    def test_divide_by_alpha(self, rng):
        # 1/3^b, and seeded elements over 3^b, divided by alpha up to 7 times
        lde_steps = set()
        for b in range(5):
            third = QA(QQ(1, 3**b))
            assert to_alpha(from_alpha_poly(third)) == oracle_pair(third) == (6 * b, 1)
            for _ in range(8):
                p = random_alpha_poly(rng) * third
                u = from_alpha_poly(p)
                for _ in range(rng.randint(0, 7)):
                    p, u = p * ALPHA_INV, u * ALPHA.inverse()
                want = oracle_pair(p)
                assert to_alpha(u) == want
                lde_steps.add(want[0] % 6)
        assert len(lde_steps) == 6

    def test_residue(self, rng):
        # seeded adjoint entries of words with R, ZPHASE 1/3 2/3 and XPHASE 2/3 0
        fixed = (Op("R", (0,)), Op("ZPHASE", (0,), (Fraction(1, 3), Fraction(2, 3))),
                 Op("XPHASE", (0,), (Fraction(2, 3), Fraction(0))))
        seen = set()
        for _ in range(8):
            ops = list(random_word(rng, CT_KINDS, 1, 8).ops) + [rng.choice(fixed) for _ in range(2)]
            rng.shuffle(ops)
            for row in adjoint_of(circuit_matrix(Circuit(1, tuple(ops)))).rows:
                seen.update(row)
        assert len(seen) > 60
        ldes = set()
        for e in seen:
            want = oracle_pair(to_alpha_poly(e))
            assert to_alpha(e) == want, e
            ldes.add(want[0])
        assert max(ldes) > 6


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
