"""Target matrices of the verify command.

The grammar of a target expression, terms such as ``-TAU(12)`` or
``C2[-SDG] phase=zeta^4`` joined by ``x``, is read by
``qutrit_exact.circuit.parse.target_terms`` and described in that module.
A target is simulated as one circuit: its terms sit on consecutive qutrits,
the leftmost term on qutrit 0, and each '-' flips one overall sign.
A target acts on at most ``MAX_QUTRITS`` qutrits, as circuits do.
"""

from __future__ import annotations

from qutrit_exact.circuit.core import tensor
from qutrit_exact.circuit.parse import parse_phase, target_terms
from qutrit_exact.errors import DimMismatchError, ParseError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE
from qutrit_exact.sim.gates import MAX_QUTRITS, circuit_matrix, phase_unit
from qutrit_exact.sim.matrix import UnitaryMatrix


def parse_phase_value(text: str) -> Cyclo36:
    """'-zeta^2', 'omega', '1', ... as an exact unit."""
    try:
        phase = parse_phase(text)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
    return phase_unit(phase)


def parse_target(text: str) -> UnitaryMatrix:
    """Evaluate a target expression to an exact matrix."""
    terms = target_terms(text)
    negative, circ = next(terms)
    # terms are read one at a time, so a target too wide fails before a later bad term
    for negated, term in terms:
        if circ.n + term.n > MAX_QUTRITS:
            raise DimMismatchError(f"the target acts on more than {MAX_QUTRITS} qutrits")
        negative ^= negated
        circ = tensor(circ, term)
    m = circuit_matrix(circ)
    return m.scale(MINUS_ONE) if negative else m
