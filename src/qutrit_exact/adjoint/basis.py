"""Orthogonal basis for the traceless Hermitian 3x3 matrices.

From each Pauli word P in {Z, X, XZ, XZ^2} two Hermitian combinations are
formed: P_plus = P^dag + P and P_minus = i(P - P^dag).  The eight results
are traceless, pairwise orthogonal under <M, N> = Tr(M N), and each has
Tr(M^2) = 6.  They are kept UNNORMALIZED: the normalizing factors involve
square roots outside the coefficient field, and they cancel in the ratio
Tr(m_i U m_j U^dag) / Tr(m_i^2) used to build adjoint representations.

Basis order: Z_plus, X_plus, (XZ)_plus, (XZ^2)_plus, then the same four
minus-type elements.
"""

from __future__ import annotations

from functools import lru_cache

from qutrit_exact.circuit.core import Op
from qutrit_exact.rings.cyclo import ZERO, Cyclo36, embed
from qutrit_exact.sim.gates import gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix

#: Tr(m^2) shared by all eight basis elements.
BASIS_NORM = Cyclo36.from_int(6)

_LABELS = (
    "Z_plus", "X_plus", "(XZ)_plus", "(XZ^2)_plus",
    "Z_minus", "X_minus", "(XZ)_minus", "(XZ^2)_minus",
)


def _pauli_words() -> tuple[UnitaryMatrix, ...]:
    z, x = (gate_matrix(Op(kind, (0,)), 1) for kind in ("Z", "X"))
    return z, x, x @ z, x @ z @ z


@lru_cache(maxsize=None)
def build_basis() -> tuple[UnitaryMatrix, ...]:
    """Construct the basis and verify all its structural invariants."""
    i_unit = embed("i")
    mats = []
    for p in _pauli_words():
        pd = p.dag()
        plus_rows = [
            [pd.entry(r, c) + p.entry(r, c) for c in range(3)] for r in range(3)
        ]
        mats.append(UnitaryMatrix(plus_rows))
    for p in _pauli_words():
        pd = p.dag()
        minus_rows = [
            [i_unit * (p.entry(r, c) - pd.entry(r, c)) for c in range(3)]
            for r in range(3)
        ]
        mats.append(UnitaryMatrix(minus_rows))

    for m in mats:
        if m.trace() != ZERO:
            raise AssertionError("basis element is not traceless")
        if m.dag() != m:
            raise AssertionError("basis element is not Hermitian")
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            t = (a @ b).trace()
            want = BASIS_NORM if i == j else ZERO
            if t != want:
                raise AssertionError(
                    f"<{_LABELS[i]}, {_LABELS[j]}> = {t}, expected {want}"
                )
    return tuple(mats)
