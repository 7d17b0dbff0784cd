"""Floating-point cross-check of exact circuit matrices.

``python3 perfbench/oracle.py FILE...`` rebuilds each circuit as a product of
numpy gate matrices, defined here from the gate table and independent of the
package, and compares it with the package's exact matrix at tolerance 1e-9.
It prints one line per file and exits 0 only if every file agrees.  It runs
in its own process so that numpy stays out of the measured process.
"""

from __future__ import annotations

import cmath
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TOL = 1e-9
W = cmath.exp(2j * cmath.pi / 3)
Z9 = cmath.exp(2j * cmath.pi / 9)
Z36 = [cmath.exp(2j * cmath.pi * k / 36) for k in range(36)]

_H = ((W - W * W) / 3) * np.array([[1, 1, 1], [1, W, W * W], [1, W * W, W]])
_IMAGES = {"01": (1, 0, 2), "02": (2, 1, 0), "12": (0, 2, 1),
           "012": (1, 2, 0), "021": (2, 0, 1)}


def _perm(images) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    for c, r in enumerate(images):
        m[r][c] = 1
    return m


GATES = {
    "X": _perm(_IMAGES["012"]),
    "Z": np.diag([1, W, W * W]),
    "S": np.diag([1, 1, W]),
    "SDG": np.diag([1, 1, W * W]),
    "T": np.diag([1, Z9, Z9 ** 8]),
    "TDG": np.diag([1, Z9 ** 8, Z9]),
    "H": _H,
    "HDG": _H.conj().T,
    "R": np.diag([1, 1, -1]).astype(complex),
    **{f"TAU({k})": _perm(v) for k, v in _IMAGES.items()},
}


def _embed(local: np.ndarray, wire: int, n: int) -> np.ndarray:
    acc = np.eye(1, dtype=complex)
    for w in range(n):
        acc = np.kron(acc, local if w == wire else np.eye(3))
    return acc


def _cx(c: int, t: int, n: int) -> np.ndarray:
    m = np.zeros((3 ** n, 3 ** n), dtype=complex)
    for idx in range(3 ** n):
        digits = [(idx // 3 ** (n - 1 - w)) % 3 for w in range(n)]
        digits[t] = (digits[t] + digits[c]) % 3
        m[sum(d * 3 ** (n - 1 - w) for w, d in enumerate(digits))][idx] = 1
    return m


def numeric(text: str) -> np.ndarray:
    """Float matrix of a circuit over the base gates and R (earlier gates first)."""
    n, acc = None, None
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if not body:
            continue
        if n is None:
            n = int(body[1])
            acc = np.eye(3 ** n, dtype=complex)
            continue
        name, *wires = body
        gate = (_cx(int(wires[0]), int(wires[1]), n) if name == "CX"
                else _embed(GATES[name], int(wires[0]), n))
        acc = gate @ acc
    return acc


def exact(text: str) -> np.ndarray:
    from qutrit_exact.circuit.parse import parse_circuit
    from qutrit_exact.sim.gates import circuit_matrix

    m = circuit_matrix(parse_circuit(text))
    return np.array([[sum(c * Z36[k] for k, c in enumerate(e.numerators)) / e.denominator
                      for e in row] for row in m.rows])


def main(paths: list[str]) -> int:
    bad = 0
    for path in paths:
        text = Path(path).read_text()
        diff = float(np.max(np.abs(exact(text) - numeric(text))))
        ok = diff < TOL
        bad += not ok
        print(f"oracle {'ok' if ok else 'MISMATCH'} {path} max|exact - float| = {diff:.3g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
