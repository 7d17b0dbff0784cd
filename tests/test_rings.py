"""Exact cyclotomic arithmetic, subring membership, and the alpha ring."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import ALPHA, CT_KINDS, IMAG, approx_equal, random_cyclo, random_word, to_complex
from qutrit_exact.adjoint import adjoint_of
from qutrit_exact.circuit.core import Op
from qutrit_exact.rings import NotInAError, NotRealError
from qutrit_exact.rings.alpha import _over_beta, to_alpha
from qutrit_exact.rings.cyclo import MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO, Cyclo36
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix


class TestCycloArithmetic:
    def test_embeddings_numeric(self):
        assert approx_equal(to_complex(OMEGA), cmath.exp(2j * cmath.pi / 3))
        assert approx_equal(to_complex(Cyclo36.zeta9_pow(1)), cmath.exp(2j * cmath.pi / 9))
        assert approx_equal(to_complex(IMAG), 1j)
        assert approx_equal(to_complex(ALPHA), math.sin(2 * math.pi / 9))
        assert approx_equal(to_complex(OMEGA - OMEGA2), math.sqrt(3) * 1j)

    def test_power_relations(self):
        zeta = Cyclo36.zeta9_pow(1)
        assert zeta**3 == OMEGA
        assert zeta**9 == ONE
        assert zeta**6 == OMEGA * OMEGA
        assert OMEGA**3 == ONE
        assert IMAG**2 == MINUS_ONE

    def test_zeta9_coordinates_round_trip(self, rng):
        for k in range(9):
            z = Cyclo36.zeta9_pow(k)
            assert Cyclo36.from_zeta9_coords(z.zeta9_coords()) == z
        for _ in range(20):
            coords = [rng.randint(-9, 9) for _ in range(6)]
            x = Cyclo36.from_zeta9_coords(coords, 9)
            want = sum((c * Cyclo36.zeta9_pow(i) for i, c in enumerate(coords)), ZERO)
            assert x == want * Fraction(1, 9)
            assert Cyclo36.from_zeta9_coords(x.zeta9_coords(), x.denominator) == x
        assert Cyclo36.zeta_pow(1).zeta9_coords() is None

    def test_ring_ops_against_numeric_oracle(self, rng):
        for _ in range(200):
            a, b = random_cyclo(rng), random_cyclo(rng)
            za, zb = to_complex(a), to_complex(b)
            assert approx_equal(to_complex(a + b), za + zb)
            assert approx_equal(to_complex(a - b), za - zb)
            assert approx_equal(to_complex(a * b), za * zb)
            assert approx_equal(to_complex(-a), -za)
            assert approx_equal(to_complex(a.conjugate()), za.conjugate())

    def test_inverse(self, rng):
        for _ in range(60):
            a = random_cyclo(rng)
            if a.is_zero():
                continue
            assert a * a.inverse() == ONE
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_associativity_and_distributivity(self, rng):
        for _ in range(60):
            a, b, c = (random_cyclo(rng, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_rational_detection(self):
        x = Cyclo36.from_fraction(Fraction(-7, 9))
        assert x.is_rational() and x.as_fraction() == Fraction(-7, 9)
        assert not OMEGA.is_rational()
        assert ALPHA.is_real()
        assert not IMAG.is_real()

    def test_str_named_forms(self):
        assert str(ONE) == "1"
        assert str(Cyclo36.omega_pow(1)) == "omega"
        assert str(Cyclo36.zeta9_pow(1)) == "zeta"
        assert str(Cyclo36.zeta9_pow(6)) == "omega^2"
        assert str(MINUS_ONE * Cyclo36.omega_pow(2)) == "-omega^2"
        assert str(Cyclo36.zeta9_pow(7)) == "zeta^7"
        z9, omega = Cyclo36.zeta9_pow, Cyclo36.omega_pow(1)
        third, half = Fraction(1, 3), Fraction(1, 2)
        # c*zeta_9**k for k = 6, 7, 8 is one term; every other value is a
        # sum over the basis 1, zeta, zeta^2, omega, zeta^4, zeta^5
        assert str(z9(8) * 3) == "3*zeta^8"
        assert str(z9(7) * -2 * third) == "-2/3*zeta^7"
        assert str(z9(6) * half) == "1/2*omega^2"
        assert str(z9(6) * -4 * third) == "-4/3*omega^2"
        assert str(omega * -3 + 2) == "2 - 3*omega"
        assert str(omega * 5 * half * third - 1) == "-1 + 5/6*omega"
        assert str((z9(1) * 3 - z9(4) + z9(5) * 7) * half + third) == (
            "1/3 + 3/2*zeta - 1/2*zeta^4 + 7/2*zeta^5"
        )
        assert str(z9(2) * Fraction(-2, 5) + omega) == "-2/5*zeta^2 + omega"
        # outside Q(zeta_9): the 12 numerators over the denominator
        assert str(Cyclo36.zeta_pow(1)) == "(0,1,0,0,0,0,0,0,0,0,0,0)"
        assert str((Cyclo36.zeta_pow(1) * 2 - Cyclo36.zeta_pow(9)) * half * third) == (
            "(0,2,0,0,0,0,0,0,0,-1,0,0)/6"
        )
        assert str(Cyclo36.from_fraction(Fraction(-3, 4))) == "-3/4"

    def test_is_real_matches_conjugate(self, rng):
        outcomes = set()
        for _ in range(60):
            a = Cyclo36([rng.randint(-9, 9) for _ in range(12)], rng.randint(1, 60))
            for x in (a, a + a.conjugate(), a * a.conjugate(), a - a.conjugate()):
                assert x.is_real() == (x.conjugate() == x)
                outcomes.add(x.is_real())
        assert outcomes == {True, False}

    def test_conjugate_is_involution(self, rng):
        for _ in range(40):
            a = random_cyclo(rng)
            assert a.conjugate().conjugate() == a
            assert (a * a.conjugate()).is_real()


class TestMembership:
    def test_tag_parse(self):
        assert RingTag.parse("tomega") is RingTag.TOMEGA
        assert RingTag.parse("Dalpha") is RingTag.DALPHA
        with pytest.raises(ValueError):
            RingTag.parse("nope")

    def test_zeta_not_in_triadic_omega_ring(self):
        assert not in_ring(Cyclo36.zeta9_pow(1), RingTag.TOMEGA)

    def test_omega_ring_members(self):
        third = Cyclo36.from_fraction(Fraction(1, 3))
        assert in_ring(OMEGA, RingTag.ZOMEGA)
        assert in_ring(OMEGA * 5 - 2, RingTag.ZOMEGA)
        assert not in_ring(third, RingTag.ZOMEGA)
        assert in_ring(third, RingTag.TOMEGA)
        assert in_ring(third * OMEGA, RingTag.TOMEGA)
        assert not in_ring(Cyclo36.from_fraction(Fraction(1, 2)), RingTag.TOMEGA)

    def test_triadic_and_dyadic_rationals(self):
        assert in_ring(Cyclo36.from_fraction(Fraction(5, 27)), RingTag.T)
        assert not in_ring(Cyclo36.from_fraction(Fraction(5, 6)), RingTag.T)
        assert in_ring(Cyclo36.from_fraction(Fraction(5, 8)), RingTag.D)
        assert not in_ring(Cyclo36.from_fraction(Fraction(5, 6)), RingTag.D)
        with pytest.raises(NotRealError):
            in_ring(IMAG, RingTag.D)

    def test_zeta_ring_contains_t_entries(self):
        zeta = Cyclo36.zeta9_pow(1)
        third = Cyclo36.from_fraction(Fraction(1, 3))
        assert in_ring(zeta, RingTag.TZETA)
        assert in_ring(zeta * third + zeta**8, RingTag.TZETA)
        assert not in_ring(Cyclo36.from_fraction(Fraction(1, 2)), RingTag.TZETA)

    def test_alpha_rings(self):
        assert in_ring(ALPHA, RingTag.DALPHA)
        assert in_ring(ALPHA, RingTag.A)
        third = Cyclo36.from_fraction(Fraction(1, 3))
        # 1/3 has positive alpha-denominator exponent but lies in the localization
        assert not in_ring(third, RingTag.DALPHA)
        assert in_ring(third, RingTag.A)

    def test_everything_in_q36(self, rng):
        for _ in range(20):
            assert in_ring(random_cyclo(rng), RingTag.Q36)

    def test_zeta9_coordinates_roundtrip(self):
        zeta = Cyclo36.zeta9_pow(1)
        x = zeta * 2 - zeta**4 * 7
        coords = x.zeta9_coords()
        assert coords is not None
        recon = sum(
            (Cyclo36.zeta9_pow(k) * c for k, c in enumerate(coords)),
            start=ZERO,
        )
        assert recon * Fraction(1, x.denominator) == x
        # a value outside Q(zeta_9) has no such coordinates
        assert IMAG.zeta9_coords() is None


def _alpha_poly(coeffs) -> Cyclo36:
    """sum(coeffs[i] * alpha**i), evaluated in Q(zeta_36)."""
    return sum((ALPHA**i * c for i, c in enumerate(coeffs)), ZERO)


def _dyadic(x: Cyclo36) -> bool:
    """x lies in Z[1/2][alpha] (for real x): its reduced denominator is a power of 2."""
    return x.denominator & (x.denominator - 1) == 0


def _check_pair(x: Cyclo36) -> None:
    """to_alpha(x) = (l, r) against the definitions, with no change of basis.

    alpha**l * x lies in Z[1/2][alpha] and, for l > 0, alpha**(l-1) * x does
    not; r is the one value with alpha**l * x - r in alpha * Z[1/2][alpha].
    """
    lde, r = to_alpha(x)
    y = x * ALPHA**lde
    assert _dyadic(y)
    assert lde == 0 or not _dyadic(y * ALPHA**-1)
    for c in range(3):
        assert _dyadic((y - c) * ALPHA**-1) == (c == r)


class TestAlphaRing:
    def test_alpha_satisfies_its_minimal_polynomial(self):
        a = ALPHA
        a2 = a * a
        a4 = a2 * a2
        assert (a4 * a2 * 64 - a4 * 96 + a2 * 36 - 3).is_zero()
        # beta = 2 alpha generates the prime above 3: x^6 - 6x^4 + 9x^2 - 3
        b2 = a2 * 4
        assert (b2 * b2 * b2 - b2 * b2 * 6 + b2 * 9 - 3).is_zero()

    def test_numeric_oracle(self, rng):
        alpha = math.sin(2 * math.pi / 9)
        for _ in range(60):
            coeffs = [Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3)) for _ in range(6)]
            d = [rng.randint(-8, 8) for _ in range(6)]
            x, y = _alpha_poly(coeffs), _alpha_poly(d)
            fx = sum(float(c) * alpha**k for k, c in enumerate(coeffs))
            fy = sum(float(c) * alpha**k for k, c in enumerate(d))
            assert x.is_real() and abs(to_complex(x) - fx) < 1e-8
            assert abs(to_complex(x * y) - fx * fy) < 1e-8

    def test_rejects_non_dyadic_coeffs(self):
        # alpha^6 / 3 = (32 alpha^4 - 12 alpha^2 + 1)/64 has residue 1
        for k in range(6):
            x = _alpha_poly([0] * k + [Fraction(1, 3)])
            assert to_alpha(x) == (6 - k, 1)
            assert not in_ring(x, RingTag.DALPHA) and in_ring(x, RingTag.A)

    def test_residue_is_ring_map(self, rng):
        for _ in range(100):
            x = _alpha_poly([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                             for _ in range(6)])
            y = _alpha_poly([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                             for _ in range(6)])
            (lx, rx), (ly, ry) = to_alpha(x), to_alpha(y)
            assert lx == ly == 0
            assert to_alpha(x + y) == (0, (rx + ry) % 3)
            assert to_alpha(x * y) == (0, rx * ry % 3)
        assert to_alpha(ONE) == (0, 1)
        assert to_alpha(Cyclo36.from_fraction(Fraction(1, 2))) == (0, 2)
        assert to_alpha(ALPHA) == (0, 0)
        assert to_alpha(Cyclo36.from_int(3)) == (0, 0)

    def test_lde_and_k_residue(self):
        assert to_alpha(ALPHA**-1) == (1, 1)
        assert to_alpha(ALPHA**-2 * Fraction(1, 2)) == (2, 2)
        # 3 = alpha^6 * unit, so 1/3 has alpha-denominator exponent 6
        assert to_alpha(Cyclo36.from_fraction(Fraction(1, 3))) == (6, 1)
        assert to_alpha(ZERO) == (0, 0)

    def test_to_alpha_roundtrip_numeric(self, rng):
        alpha = math.sin(2 * math.pi / 9)
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)) for _ in range(6)]
            x = _alpha_poly(coeffs)
            c0 = coeffs[0]
            assert to_alpha(x) == (0, c0.numerator * pow(c0.denominator, -1, 3) % 3)
            fx = sum(float(c) * alpha**k for k, c in enumerate(coeffs))
            assert abs(to_complex(x).real - fx) < 1e-8

    def test_over_beta_inverts_the_product_by_beta(self):
        # the reference is Cyclo36's product by beta = 2*alpha, not the map
        beta = ALPHA * 2
        for j in range(6):
            assert _over_beta((beta ** (j + 1)).numerators) == (beta**j).numerators
        rng = random.Random(0xBE7A)
        for _ in range(500):
            c = Cyclo36([rng.randint(-10**6, 10**6) for _ in range(12)])
            m = c + c.conjugate()
            assert m.is_real()
            assert _over_beta((beta * m).numerators) == m.numerators

    def test_division_loop_is_bounded(self, monkeypatch):
        # with a wrong map, beta seems to divide alpha/3 forever; as 3 does
        # not divide its numerators, the sixth division raises, and not as a
        # RingError, which ringcert would read as "not a member"
        monkeypatch.setattr("qutrit_exact.rings.alpha._over_beta", lambda n: n)
        with pytest.raises(AssertionError):
            to_alpha(ALPHA * Fraction(1, 3))

    def test_to_alpha_rejects_imaginary_and_foreign_denominators(self):
        for x in (IMAG, OMEGA):
            with pytest.raises(NotRealError):
                to_alpha(x)
        with pytest.raises(NotInAError):
            to_alpha(Cyclo36.from_fraction(Fraction(1, 5)))


# the cells of adjoint_of(H) and adjoint_of(T), pinned as
# (alpha coefficients)/alpha^k, and their (lde, residue) pairs
_Z = "(0,0,0,0,0,0)/alpha^0"
_ONE, _NEG = "(1,0,0,0,0,0)/alpha^0", "(-1,0,0,0,0,0)/alpha^0"
_HALF = "(-1/2,0,0,0,0,0)/alpha^0"
_H_ADJOINT = (
    (_Z, _ONE, _Z, _Z, _Z, _Z, _Z, _Z),
    (_ONE, _Z, _Z, _Z, _Z, _Z, _Z, _Z),
    (_Z, _Z, _Z, _HALF, _Z, _Z, _Z, "(0,-3,0,4,0,0)/alpha^0"),
    (_Z, _Z, _ONE, _Z, _Z, _Z, _Z, _Z),
    (_Z, _Z, _Z, _Z, _Z, _ONE, _Z, _Z),
    (_Z, _Z, _Z, _Z, _NEG, _Z, _Z, _Z),
    (_Z, _Z, _Z, "(0,3,0,-4,0,0)/alpha^0", _Z, _Z, _Z, _HALF),
    (_Z, _Z, _Z, _Z, _Z, _Z, _NEG, _Z),
)
_P, _Q = "(-3/64,0,15/32,0,-5/8,0)/alpha^6", "(9/128,0,-3/4,0,5/4,0)/alpha^6"
_U, _UN = "(0,-3/64,0,1/2,0,-1)/alpha^6", "(0,3/64,0,-1/2,0,1)/alpha^6"
_V, _VN = "(0,3/64,0,-7/16,0,1/2)/alpha^6", "(0,-3/64,0,7/16,0,-1/2)/alpha^6"
_T_ADJOINT = (
    (_ONE, _Z, _Z, _Z, _Z, _Z, _Z, _Z),
    (_Z, _P, _P, _Q, _Z, _U, _U, _V),
    (_Z, _Q, _P, _P, _Z, _V, _U, _U),
    (_Z, _P, _Q, _P, _Z, _U, _V, _U),
    (_Z, _Z, _Z, _Z, _ONE, _Z, _Z, _Z),
    (_Z, _UN, _UN, _VN, _Z, _P, _P, _Q),
    (_Z, _VN, _UN, _UN, _Z, _Q, _P, _P),
    (_Z, _UN, _VN, _UN, _Z, _P, _Q, _P),
)
_H_PAIRS = {_Z: (0, 0), _ONE: (0, 1), _NEG: (0, 2), _HALF: (0, 1),
            "(0,-3,0,4,0,0)/alpha^0": (0, 0), "(0,3,0,-4,0,0)/alpha^0": (0, 0)}
_T_PAIRS = {_Z: (0, 0), _ONE: (0, 1), _P: (2, 2), _Q: (2, 2),
            _U: (3, 2), _V: (3, 2), _UN: (3, 1), _VN: (3, 1)}


def _pinned_value(cell: str) -> Cyclo36:
    coeffs, exp = cell.split("/alpha^")
    num = _alpha_poly([Fraction(c) for c in coeffs.strip("()").split(",")])
    return num * ALPHA**-int(exp)


class TestIntegerAlphaRing:
    def test_to_alpha_is_exact_on_adjoint_entries(self, rng):
        seen = set()
        for _ in range(40):
            adj = adjoint_of(circuit_matrix(random_word(rng, CT_KINDS + ("R",), 1, 12)))
            for row in adj.rows:
                for x in row:
                    if x not in seen:
                        seen.add(x)
                        _check_pair(x)
        assert len(seen) > 100

    def test_to_alpha_is_exact_with_powers_of_three(self, rng):
        for _ in range(30):
            x = _alpha_poly([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 9, 27)))
                             for _ in range(6)])
            _check_pair(x)
        # (alpha^6/3)^b has residue 1, so q/3^b reads q's residue at exponent 6b
        for q, pair in ((Fraction(5, 27), (18, 2)), (Fraction(1, 81), (24, 1))):
            x = Cyclo36.from_fraction(q)
            assert to_alpha(x) == pair
            _check_pair(x)

    def test_normal_form(self, rng):
        # the pair is read off the gcd-normalized numerators, so it depends
        # only on the value; times_omega builds its result without the gcd
        for _ in range(50):
            x = _alpha_poly([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 9)))
                             for _ in range(6)])
            y = random_cyclo(rng)
            routes = ((x + y) - y, x * 3 * Fraction(1, 3), x.times_omega(1).times_omega(2),
                      Cyclo36([c * 4 for c in x.numerators], x.denominator * 4))
            for z in routes:
                assert z == x and hash(z) == hash(x) and to_alpha(z) == to_alpha(x)

    def test_describe_pinned(self):
        for kind, cells, pairs in (("H", _H_ADJOINT, _H_PAIRS), ("T", _T_ADJOINT, _T_PAIRS)):
            adj = adjoint_of(gate_matrix(Op(kind, (0,)), 1))
            for row, pinned in zip(adj.rows, cells):
                assert row == tuple(_pinned_value(c) for c in pinned)
                assert tuple(to_alpha(x) for x in row) == tuple(pairs[c] for c in pinned)
