"""Exact cyclotomic arithmetic, subring membership, and the alpha ring."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import CT_KINDS, approx_equal, random_cyclo, random_word, to_complex
from qutrit_exact.adjoint import adjoint_of
from qutrit_exact.circuit.core import Op
from qutrit_exact.rings import (
    KTooSmallError,
    NotInAError,
    NotRealError,
)
from qutrit_exact.rings.alpha import (
    AlphaElem,
    DalphaElem,
    residue,
    to_alpha,
)
from qutrit_exact.rings.cyclo import (
    Cyclo36,
    MINUS_ONE,
    ONE,
    ZERO,
    embed,
)
from qutrit_exact.rings.membership import RingTag, in_ring
from qutrit_exact.rings.polynomials import has_rational_root
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix


class TestCycloArithmetic:
    def test_embeddings_numeric(self):
        assert approx_equal(to_complex(embed("omega")), cmath.exp(2j * cmath.pi / 3))
        assert approx_equal(to_complex(embed("zeta9")), cmath.exp(2j * cmath.pi / 9))
        assert approx_equal(to_complex(embed("i")), 1j)
        assert approx_equal(to_complex(embed("alpha")), math.sin(2 * math.pi / 9))
        assert approx_equal(
            to_complex(embed("sqrt3_times_i")), math.sqrt(3) * 1j
        )

    def test_embed_rejects_unknown(self):
        with pytest.raises(ValueError):
            embed("tau")

    def test_power_relations(self):
        zeta = embed("zeta9")
        omega = embed("omega")
        assert zeta**3 == omega
        assert zeta**9 == ONE
        assert zeta**6 == omega * omega
        assert omega**3 == ONE
        assert embed("i") ** 2 == MINUS_ONE

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
        assert not embed("omega").is_rational()
        assert embed("alpha").is_real()
        assert not embed("i").is_real()

    def test_str_named_forms(self):
        assert str(ONE) == "1"
        assert str(Cyclo36.omega_pow(1)) == "omega"
        assert str(Cyclo36.zeta9_pow(1)) == "zeta"
        assert str(Cyclo36.zeta9_pow(6)) == "omega^2"
        assert str(MINUS_ONE * Cyclo36.omega_pow(2)) == "-omega^2"
        assert str(Cyclo36.zeta9_pow(7)) == "zeta^7"

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
        assert not in_ring(embed("zeta9"), RingTag.TOMEGA)

    def test_omega_ring_members(self):
        omega = embed("omega")
        third = Cyclo36.from_fraction(Fraction(1, 3))
        assert in_ring(omega, RingTag.ZOMEGA)
        assert in_ring(omega * 5 - 2, RingTag.ZOMEGA)
        assert not in_ring(third, RingTag.ZOMEGA)
        assert in_ring(third, RingTag.TOMEGA)
        assert in_ring(third * omega, RingTag.TOMEGA)
        assert not in_ring(Cyclo36.from_fraction(Fraction(1, 2)), RingTag.TOMEGA)

    def test_triadic_and_dyadic_rationals(self):
        assert in_ring(Cyclo36.from_fraction(Fraction(5, 27)), RingTag.T)
        assert not in_ring(Cyclo36.from_fraction(Fraction(5, 6)), RingTag.T)
        assert in_ring(Cyclo36.from_fraction(Fraction(5, 8)), RingTag.D)
        assert not in_ring(Cyclo36.from_fraction(Fraction(5, 6)), RingTag.D)
        with pytest.raises(NotRealError):
            in_ring(embed("i"), RingTag.D)

    def test_zeta_ring_contains_t_entries(self):
        zeta = embed("zeta9")
        third = Cyclo36.from_fraction(Fraction(1, 3))
        assert in_ring(zeta, RingTag.TZETA)
        assert in_ring(zeta * third + zeta**8, RingTag.TZETA)
        assert not in_ring(Cyclo36.from_fraction(Fraction(1, 2)), RingTag.TZETA)

    def test_alpha_rings(self):
        alpha = embed("alpha")
        assert in_ring(alpha, RingTag.DALPHA)
        assert in_ring(alpha, RingTag.A)
        third = Cyclo36.from_fraction(Fraction(1, 3))
        # 1/3 has positive alpha-denominator exponent but lies in the localization
        assert not in_ring(third, RingTag.DALPHA)
        assert in_ring(third, RingTag.A)

    def test_everything_in_q36(self, rng):
        for _ in range(20):
            assert in_ring(random_cyclo(rng), RingTag.Q36)

    def test_zeta9_coordinates_roundtrip(self):
        zeta = embed("zeta9")
        x = zeta * 2 - zeta**4 * 7
        coords = x.zeta9_coords()
        assert coords is not None
        recon = sum(
            (Cyclo36.zeta9_pow(k) * c for k, c in enumerate(coords)),
            start=ZERO,
        )
        assert recon * Fraction(1, x.denominator) == x
        # a value outside Q(zeta_9) has no such coordinates
        assert embed("i").zeta9_coords() is None


class TestPolynomials:
    def test_cubic_without_rational_root(self):
        assert not has_rational_root(1, 0, -3, 1)

    def test_cubics_with_rational_roots(self):
        assert has_rational_root(1, 0, 0, -1)  # r = 1
        assert has_rational_root(1, -3, 0, 4)  # r = -1
        assert has_rational_root(2, -1, 0, 0)  # r = 0 and r = 1/2

    def test_random_planted_roots(self, rng):
        for _ in range(50):
            p, q = rng.randint(-9, 9), rng.randint(1, 9)
            root = Fraction(p, q)
            # (q x - p)(x^2 + u x + v) has the planted rational root p/q
            u, v = rng.randint(-5, 5), rng.randint(-5, 5)
            a3 = q
            a2 = q * u - p
            a1 = q * v - p * u
            a0 = -p * v
            assert has_rational_root(a3, a2, a1, a0)


class TestAlphaRing:
    def test_alpha_satisfies_its_minimal_polynomial(self):
        a = DalphaElem((0, 1))
        a2 = a * a
        a4 = a2 * a2
        a6 = a4 * a2
        poly = a6 * 64 - a4 * 96 + a2 * 36 - 3
        assert poly.is_zero()

    def test_numeric_oracle(self, rng):
        alpha = math.sin(2 * math.pi / 9)
        for _ in range(60):
            coeffs = [
                Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
                for _ in range(6)
            ]
            d = [rng.randint(-8, 8) for _ in range(6)]
            x, y = DalphaElem(coeffs), DalphaElem(d)
            fx = sum(float(c) * alpha**k for k, c in enumerate(coeffs))
            fy = sum(float(c) * alpha**k for k, c in enumerate(d))
            prod = x * y
            fprod = sum(float(c) * alpha**k for k, c in enumerate(prod.coeffs))
            assert abs(fprod - fx * fy) < 1e-8

    def test_rejects_non_dyadic_coeffs(self):
        with pytest.raises(ValueError):
            DalphaElem((Fraction(1, 3),))

    def test_residue_is_ring_map(self, rng):
        for _ in range(100):
            x = DalphaElem([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                            for _ in range(6)])
            y = DalphaElem([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                            for _ in range(6)])
            assert residue(x + y) == (residue(x) + residue(y)) % 3
            assert residue(x * y) == (residue(x) * residue(y)) % 3
        assert residue(DalphaElem((1,))) == 1
        assert residue(DalphaElem((Fraction(1, 2),))) == 2
        assert residue(DalphaElem((0, 1))) == 0
        assert residue(DalphaElem((3,))) == 0

    def test_lde_and_k_residue(self):
        one_over_alpha = AlphaElem(DalphaElem((1,)), 1)
        assert one_over_alpha.lde() == 1
        assert one_over_alpha.k_residue(1) == residue(DalphaElem((1,)))
        with pytest.raises(KTooSmallError):
            one_over_alpha.k_residue(0)
        assert AlphaElem(DalphaElem((0, 1))).lde() == 0
        # 3 = alpha^6 * unit, so 1/3 has alpha-denominator exponent 6
        third = to_alpha(Cyclo36.from_fraction(Fraction(1, 3)))
        assert third.lde() == 6
        zero = to_alpha(ZERO)
        assert zero.lde() == 0 and zero.denom_exp == 0 and zero.value == 0

    def test_to_alpha_roundtrip_numeric(self, rng):
        alpha = math.sin(2 * math.pi / 9)
        base = embed("alpha")
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2))
                      for _ in range(6)]
            x = sum(
                (base**k * c for k, c in enumerate(coeffs)),
                start=ZERO,
            )
            elem = to_alpha(x)
            assert elem.lde() == 0
            fx = to_complex(x).real
            approx = sum(
                float(c) * alpha**k
                for k, c in enumerate(elem.value.coeffs)
            ) / alpha ** elem.denom_exp
            assert abs(fx - approx) < 1e-8

    def test_to_alpha_rejects_imaginary_and_foreign_denominators(self):
        for x in (embed("i"), embed("omega")):
            with pytest.raises(NotRealError):
                to_alpha(x)
        with pytest.raises(NotInAError):
            to_alpha(Cyclo36.from_fraction(Fraction(1, 5)))


# alpha_entries() of adjoint_of(H) and adjoint_of(T), pinned cell by cell as
# (alpha coefficients)/alpha^denom_exp
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


def _alpha_value(elem: AlphaElem) -> Cyclo36:
    """sum(coeffs[i] * alpha**i) / alpha**denom_exp, rebuilt in Q(zeta_36)."""
    alpha = embed("alpha")
    num = sum((alpha**i * c for i, c in enumerate(elem.value.coeffs)), ZERO)
    return num * alpha ** -elem.denom_exp


class TestIntegerAlphaRing:
    def test_to_alpha_is_exact_on_adjoint_entries(self, rng):
        seen = set()
        for _ in range(40):
            adj = adjoint_of(circuit_matrix(random_word(rng, CT_KINDS + ("R",), 1, 12)))
            for row in adj.rows:
                for x in row:
                    if x not in seen:
                        seen.add(x)
                        assert _alpha_value(to_alpha(x)) == x
        assert len(seen) > 100

    def test_to_alpha_is_exact_with_powers_of_three(self, rng):
        alpha = embed("alpha")
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 9, 27)))
                      for _ in range(6)]
            x = sum((alpha**i * c for i, c in enumerate(coeffs)), ZERO)
            elem = to_alpha(x)
            assert elem.denom_exp % 6 == 0
            assert _alpha_value(elem) == x
        # 1/81 takes the cofactor power (alpha^6/3)^4
        for q, exp in ((Fraction(5, 27), 18), (Fraction(1, 81), 24)):
            elem = to_alpha(Cyclo36.from_fraction(q))
            assert elem.denom_exp == exp and _alpha_value(elem) == q

    def test_normal_form(self, rng):
        half, alpha = DalphaElem((Fraction(1, 2),)), DalphaElem((0, 1))
        for a, b in ((half * 2, DalphaElem((1,))), (half + half, DalphaElem((1,))),
                     (DalphaElem((Fraction(2, 4), 6)), DalphaElem((half.coeffs[0], 6))),
                     (DalphaElem((Fraction(3, 8),)) * 8 - 3, DalphaElem())):
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        for _ in range(50):
            x = DalphaElem([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                            for _ in range(6)])
            y = DalphaElem([Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
                            for _ in range(6)])
            for z in ((x + y) - y, (x * alpha).divide_by_alpha(), (x * 4) * half * half):
                assert z == x and hash(z) == hash(x)
        coeffs = DalphaElem((Fraction(6, 4), Fraction(-2, 8), 4)).coeffs
        assert coeffs == (Fraction(3, 2), Fraction(-1, 4), 4, 0, 0, 0)
        assert all(isinstance(c, Fraction) for c in coeffs)
        assert [c.denominator for c in coeffs] == [2, 4, 1, 1, 1, 1]
        assert DalphaElem((3,)) == 3 and DalphaElem((half.coeffs[0],)) == Fraction(1, 2)

    def test_describe_pinned(self):
        for kind, cells in (("H", _H_ADJOINT), ("T", _T_ADJOINT)):
            got = tuple(
                tuple(
                    f"({','.join(str(c) for c in a.value.coeffs)})/alpha^{a.denom_exp}"
                    for a in row
                )
                for row in adjoint_of(gate_matrix(Op(kind, (0,)), 1)).alpha_entries()
            )
            assert got == cells
