"""Acceptance suite: every headline result, one test per catalog claim.

Each catalog claim (``qutrit_exact.cli.catalog.CLAIMS``) runs as one test,
with its slug as the id; the criteria below check what the catalog does not.
Every verdict uses exact arithmetic only: tolerance zero, no floating point.
Run with ``pytest -v`` to get one pass/fail line per claim and criterion.
"""

import random
from fractions import Fraction

import pytest

from conftest import ALPHA, CLIFFORD_KINDS, CT_KINDS, random_word
from qutrit_exact.adjoint import (
    adjoint_of,
    alpha_block,
    block_lde,
    is_bordered,
    residue_pattern,
    single_qutrit_ct_obstruction,
)
from qutrit_exact.analysis import (
    hierarchy_level,
    is_clifford,
    matrix_ring_certificate,
    pauli_elements,
)
from qutrit_exact.circuit.core import Circuit, Op, adjoint
from qutrit_exact.circuit.macros import load_named, macro_names
from qutrit_exact.circuit.parse import parse_circuit, parse_phase
from qutrit_exact.cli.catalog import CLAIMS, Equation, check_equation
from qutrit_exact.rings.alpha import to_alpha
from qutrit_exact.rings.cyclo import ZERO
from qutrit_exact.rings.membership import RingTag
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix, phase_unit
from qutrit_exact.sim.matrix import UnitaryMatrix


def _g(kind: str, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,), params=params), 1)


@pytest.mark.parametrize("slug,claim", CLAIMS, ids=[slug for slug, _ in CLAIMS])
def test_catalog_claim(slug, claim):
    claim()


def test_criterion_01_clifford_relations():
    """X is the phase gate XPHASE(2,1); the other relations are catalog claims."""
    assert _g("X") == _g("XPHASE", (2, 1))


def _circuit(lines: str, n: int) -> Circuit:
    return parse_circuit(f"qutrits {n}\n" + lines.replace(";", "\n"))


def _decoded_equal(lhs: Circuit, rhs: str, phase: str) -> bool:
    """The reference for ``check_equation``: both sides simulated and decoded,
    compared entry by entry."""
    unit = phase_unit(parse_phase(phase))
    return circuit_matrix(lhs) == circuit_matrix(_circuit(rhs, lhs.n)).scale(unit)


def _lhs(text: str) -> Circuit:
    """An ``Equation`` lhs: a bundled data file's stem or one-qutrit lines."""
    return load_named(text) if text in macro_names() else _circuit(text, 1)


def _perturbed(eq: Equation):
    """(lhs, rhs, phase) of the claim with its phase times omega, zeta and -1,
    and with one gate dropped: the last of rhs, or of lhs when rhs is empty."""
    sign, e = parse_phase(eq.phase)
    for s, step in ((1, 3), (1, 1), (-1, 0)):
        yield eq.lhs, eq.rhs, f"{'-' if sign * s < 0 else ''}zeta^{(e + step) % 9}"
    if eq.rhs:
        yield eq.lhs, eq.rhs.rpartition(";")[0], eq.phase
    else:
        yield eq.lhs.rpartition(";")[0], eq.rhs, eq.phase


_EQUATIONS = [claim for _, claim in CLAIMS if isinstance(claim, Equation)]


@pytest.mark.parametrize("eq", _EQUATIONS, ids=[eq.slug for eq in _EQUATIONS])
def test_equation_check_matches_the_decoded_matrices(eq):
    """``check_equation`` reads one simulation; it holds exactly when the two
    decoded matrices agree, and refutes every perturbed row."""
    lhs = _lhs(eq.lhs)
    assert _decoded_equal(lhs, eq.rhs, eq.phase)
    check_equation(lhs, eq.rhs, eq.phase, eq.tcount)
    for lhs_text, rhs, phase in _perturbed(eq):
        wrong = _lhs(lhs_text)
        assert not _decoded_equal(wrong, rhs, phase), (lhs_text, rhs, phase)
        with pytest.raises(AssertionError, match="^matrix mismatch$"):
            check_equation(wrong, rhs, phase, eq.tcount)


def test_equation_check_reads_the_witness():
    """H H = -TAU(12) holds with the phase -1; T against H holds with none."""
    check_equation(_circuit("H 0; H 0", 1), "TAU(12) 0", "-1")
    for phase in ("1", "-1", "omega", "zeta"):
        assert not _decoded_equal(_circuit("T 0", 1), "H 0", phase)
        with pytest.raises(AssertionError, match="^matrix mismatch$"):
            check_equation(_circuit("T 0", 1), "H 0", phase)


def test_criterion_02_controlled_x_three_t():
    """The adjoint of the 3-T two-controlled X applies X^dag = TAU(021)."""
    check_equation(adjoint(load_named("c2x")), "C2[TAU(021) 1] 0", tcount=3)


def test_criterion_07_r_adjoint_obstruction():
    """The adjoint image of R has the least denominator exponent and the
    residue patterns that the obstruction reads."""
    adj = adjoint_of(_g("R"))
    cells_a = alpha_block(adj, "A")
    assert block_lde(cells_a) == 6
    assert is_bordered(residue_pattern(cells_a, 6))
    assert not is_bordered(residue_pattern(alpha_block(adj, "C"), 7))


def test_criterion_09_property_suites():
    """Randomized invariants: ring certificates, obstruction consistency,
    adjoint homomorphism/orthogonality, and residue multiplicativity."""
    rng = random.Random(0xACCE97)

    # (a) 200 random Clifford words on <= 2 qutrits: Clifford-certified
    # and omega-ring-entried up to a global phase
    for i in range(200):
        n = 1 + (i % 2)
        m = circuit_matrix(random_word(rng, CLIFFORD_KINDS, n, 14))
        assert is_clifford(m).found
        assert matrix_ring_certificate(m, RingTag.TOMEGA).found

    # (b) 200 random Clifford+T words: zeta-ring-entried up to a phase
    for i in range(200):
        n = 1 + (i % 2)
        m = circuit_matrix(random_word(rng, CT_KINDS, n, 14))
        assert matrix_ring_certificate(m, RingTag.TZETA).found

    # (c) 100 random single-qutrit Clifford+T words are never obstructed
    for _ in range(100):
        m = circuit_matrix(random_word(rng, CT_KINDS, 1, 16))
        assert not single_qutrit_ct_obstruction(m).is_obstructed()

    # (d) the adjoint map is a homomorphism with orthogonal images
    # (100 random words, compared pairwise)
    words = [
        circuit_matrix(random_word(rng, CT_KINDS, 1, 10)) for _ in range(100)
    ]
    images = [adjoint_of(u) for u in words]
    eye8 = UnitaryMatrix.identity(8)
    for img in images:
        assert img.dag() @ img == eye8
    for k in range(0, 100, 2):
        u, v = words[k], words[k + 1]
        assert adjoint_of(u @ v) == images[k] @ images[k + 1]

    # (e) the residue map is a ring homomorphism on 500 random pairs of
    # elements sum(c_k alpha^k) with dyadic c_k, which all have LDE 0
    powers = [ALPHA ** k for k in range(6)]

    def residue(x) -> int:
        lde, r = to_alpha(x)
        assert lde == 0
        return r

    def rand_elem():
        return sum(
            (p * Fraction(rng.randint(-12, 12), 2 ** rng.randint(0, 5)) for p in powers),
            ZERO,
        )

    for _ in range(500):
        x, y = rand_elem(), rand_elem()
        assert residue(x * y) == (residue(x) * residue(y)) % 3
        assert residue(x + y) == (residue(x) + residue(y)) % 3


def test_criterion_10_hierarchy_levels():
    """R is absent through level 4, Paulis sit at level 1, and H, S, and CX
    sit at level 2; T at level 3 is a catalog claim."""
    assert hierarchy_level(_g("R"), 4).level is None
    for element in pauli_elements(1):
        assert hierarchy_level(element.matrix(), 2).level == 1
    assert hierarchy_level(UnitaryMatrix.identity(3), 2).level == 1
    assert hierarchy_level(_g("H"), 3).level == 2
    assert hierarchy_level(_g("S"), 3).level == 2
    assert hierarchy_level(gate_matrix(Op("CX", (0, 1)), 2), 2).level == 2
