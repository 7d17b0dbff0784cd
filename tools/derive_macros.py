"""Derive, verify, and freeze the controlled-gate circuit data files.

Every circuit under circuits/ is reconstructed here from scratch:

* ``c2x`` / ``c2xdg``  -- from the diagonal exponent formula
  F(i,j) = -g(j) - g(i+j+1) - g(2i+j+2) with g = (0, 1, -1): conjugating the
  diagonal by a target Hadamard turns the i=2 row (the only nonzero one) into
  an X block.  3 T gates.
* ``c2tau12`` (and tau01/tau02 by conjugation) -- breadth-first search over
  products of "line cycles": conjugates of the two-controlled X by affine
  permutation gates.  Each line cycle shifts one affine line of the 3x3 digit
  grid along its direction and costs 3 T gates; the two-controlled transposition
  is odd, so it factors as (odd affine permutation) * (even product of cycles).
  The search stops after the first layer that holds such a factorization.
  15 T gates.
* ``c2sdg_phase`` -- phase kickback: commuting one T through the controlled X
  leaves blockdiag(I, I, zeta * Sdg).  8 T gates.
* ``c2z11_phase`` -- the same conjugated by tau02 on the target:
  blockdiag(I, I, zeta^7 * Z(1,1)).  8 T gates.
* ``c2neg_hdg`` -- three controlled-phase blocks interleaved with target
  Hadamards, using -Hdg = Z(1,1) X(1,1) Z(1,1).  24 T gates.
* ``c2neg_tau12`` -- three conjugates of the ``c2sdg_phase`` block whose
  Clifford parts multiply to -omega^2 * tau12; found by searching the
  Clifford class of Sdg.  24 T gates.
* ``r_construction`` -- c2tau12 then c2neg_tau12: blockdiag(I, I, -I), which
  is R on the control with the target as a borrowed (exactly restored) wire.
  39 T gates.  ``r_construction_naive`` uses two c2neg_hdg blocks instead of
  c2neg_tau12 (Hdg^2 = -tau12): 63 T gates.

Every basis permutation used in the searches (X, its inverse, the TAUs and both
CXs, the two-controlled X and tau12) is read off the package's gate matrices by
``perm_of``; a permutation is a 9-byte ``bytes`` object, composed with
``bytes.translate``.  The peephole pass cancels a gate followed by its
``adjoint``.

The targets and T-counts come from the table of bundled constructions,
``qutrit_exact.circuit.macros.CONSTRUCTIONS``: every file is written only after
``qutrit_exact.cli.catalog.check_equation`` finds that its matrix equals the
op of its row exactly and that its T count equals the row's pinned value.

Run ``python3 tools/derive_macros.py`` to rewrite circuits/; ``derive()``
returns the same file texts without writing them.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qutrit_exact.circuit.core import Circuit, Op, adjoint, print_circuit
from qutrit_exact.circuit.macros import CONSTRUCTIONS
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.cli.catalog import check_equation
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE, ZERO
from qutrit_exact.sim import UnitaryMatrix, gate_matrix

OUT_DIR = Path(__file__).resolve().parents[1] / "circuits"

# file stem -> (the op the file implements, pinned T-count)
TABLE = {stem: (line, tcount) for stem, line, tcount, _ in CONSTRUCTIONS}


def say(msg: str) -> None:
    print(f"[derive] {msg}", flush=True)


def gate1(kind: str, wire: int = 0, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (wire,), params), 1)


# ---------------------------------------------------------------------------
# peephole tidy-up (derivation-time only; never touches T gates)

_TRIPLE = {"X", "Z", "S", "CX"}


def _cancels(op: Op, nxt: Op) -> bool:
    """``nxt`` undoes ``op``; T and TDG are kept, since they carry the T-count."""
    return op.kind not in ("T", "TDG") and (nxt,) == adjoint(Circuit(2, (op,))).ops


def simplify(ops: list[Op]) -> list[Op]:
    ops = list(ops)
    changed = True
    while changed:
        changed = False
        i = 0
        out: list[Op] = []
        while i < len(ops):
            if (
                i + 2 < len(ops)
                and ops[i].kind in _TRIPLE
                and ops[i] == ops[i + 1] == ops[i + 2]
            ):
                i += 3
                changed = True
                continue
            if i + 1 < len(ops) and _cancels(ops[i], ops[i + 1]):
                i += 2
                changed = True
                continue
            out.append(ops[i])
            i += 1
        ops = out
    return ops


def verified(name: str, ops: list[Op]) -> list[Op]:
    """``ops``, once they implement the op of their table row with its T-count."""
    line, tcount = TABLE[name]
    try:
        check_equation(Circuit(2, tuple(ops)), line, tcount=tcount)
    except AssertionError as exc:
        raise SystemExit(f"{name}: {exc}") from None
    say(f"{name}: exact match, {len(ops)} gates, {tcount} T")
    return ops


# ---------------------------------------------------------------------------
# two-controlled X from the diagonal exponent formula


def build_c2x() -> list[Op]:
    cx = Op("CX", (0, 1))
    x = Op("X", (1,))
    xdg = Op("TAU", (1,), ("021",))
    tdg = Op("TDG", (1,))
    ops: list[Op] = [Op("HDG", (1,))]
    # exponent piece -g(2i + j + 2): conjugate a target Tdg by |i,j> -> |i, 2i+j+2>
    ops += [cx, cx, x, x, tdg, xdg, xdg, cx, cx, cx, cx]
    # exponent piece -g(i + j + 1): conjugate by |i,j> -> |i, i+j+1>
    ops += [cx, x, tdg, xdg, cx, cx]
    # exponent piece -g(j)
    ops += [tdg]
    ops += [Op("H", (1,))]
    return simplify(ops)


# ---------------------------------------------------------------------------
# basis permutations of the 3x3 digit grid, read off the gate matrices

# a permutation is 9 bytes: basis state 3*i + j goes to state perm[3*i + j]
Perm = bytes

IDENT: Perm = bytes(range(9))


def perm_of(op: Op) -> Perm:
    """The basis permutation of a two-qutrit gate; ValueError unless its matrix is 0/1."""
    mat = gate_matrix(op, 2)
    img = bytes(row for col in range(9) for row in range(9) if mat.entry(row, col) != ZERO)
    if sorted(img) != list(IDENT) or any(mat.entry(r, c) != ONE for c, r in enumerate(img)):
        raise ValueError(f"{op} is not a permutation gate")
    return img


def line_op(stem: str) -> Op:
    """The op that the table row of ``stem`` names."""
    (op,) = parse_circuit(f"qutrits 2\n{TABLE[stem][0]}\n").ops
    return op


def table_of(p: Perm) -> bytes:
    """The 256-byte table with which ``s.translate`` computes p after s."""
    return p + bytes(range(9, 256))


def compose(g: Perm, s: Perm) -> Perm:
    """g after s."""
    return s.translate(table_of(g))


def inverse(p: Perm) -> Perm:
    return bytes(p.index(x) for x in range(9))


def perm_parity(p: Perm) -> int:
    return sum(p[i] > p[j] for i in range(9) for j in range(i + 1, 9)) & 1


# X, its inverse and the three transpositions on each wire, then both CXs; the
# order picks which of several shortest words the BFS keeps
AFFINE_GENERATORS = [
    op
    for w in (0, 1)
    for op in [Op("X", (w,))] + [Op("TAU", (w,), (label,)) for label in ("021", "01", "02", "12")]
] + [Op("CX", (0, 1)), Op("CX", (1, 0))]


def bfs_affine_words() -> dict[Perm, list[Op]]:
    """Shortest gate word for every element of the affine group of the grid."""
    gens = [(table_of(perm_of(op)), op) for op in AFFINE_GENERATORS]
    words: dict[Perm, list[Op]] = {IDENT: []}
    queue: deque[Perm] = deque([IDENT])
    while queue:
        s = queue.popleft()
        for table, op in gens:
            nxt = s.translate(table)
            if nxt not in words:
                words[nxt] = words[s] + [op]
                queue.append(nxt)
    assert len(words) == 432, len(words)
    return words


# ---------------------------------------------------------------------------
# two-controlled tau12 via line-cycle search


def build_c2tau12(c2x_ops: list[Op], affine_words: dict[Perm, list[Op]]) -> list[Op]:
    # the two-controlled X adds 1 to the target digit on the line i = 2
    base_cycle = perm_of(line_op("c2x"))

    # all distinct conjugates sigma . base . sigma^-1, keyed by permutation
    cycles: dict[Perm, tuple[list[Op], list[Op]]] = {}
    for a, word in affine_words.items():
        perm = compose(a, compose(base_cycle, inverse(a)))
        prev = cycles.get(perm)
        if prev is None or len(word) < len(prev[0]):
            cycles[perm] = (word, affine_words[inverse(a)])
    say(f"line cycles: {len(cycles)} distinct conjugates")
    assert len(cycles) == 24

    cycle_items = list(cycles.items())
    tables = [table_of(perm) for perm, _ in cycle_items]

    # the two-controlled tau12 is the transposition of |2,1> and |2,2>; it is
    # a * need for each odd affine a, with need the product of cycles to find
    target = perm_of(line_op("c2tau12"))
    needs = [
        (compose(inverse(a), target), word)
        for a, word in affine_words.items()
        if perm_parity(a) == 1
    ]

    # breadth-first search over products of line cycles, with parents, up to
    # the first layer that holds a needed product
    parent: dict[Perm, tuple[Perm, int] | None] = {IDENT: None}
    layer = [IDENT]
    depth = 0
    t0 = time.time()
    while not any(need in parent for need, _ in needs):
        if not layer:
            raise SystemExit("no affine * cycles factorization found")
        nxt_layer = []
        for s in layer:
            for idx, table in enumerate(tables):
                nxt = s.translate(table)
                if nxt not in parent:
                    parent[nxt] = (s, idx)
                    nxt_layer.append(nxt)
        layer = nxt_layer
        depth += 1
    say(f"cycle products reached: {len(parent)} states in {time.time() - t0:.1f}s")

    # the shortest affine word among the factorizations at that depth
    p_best, a_word = min(
        ((need, word) for need, word in needs if need in parent),
        key=lambda item: len(item[1]),
    )
    say(f"factorization: {depth} cycles + affine word of {len(a_word)} gates")
    if depth != 5:
        say(f"NOTE: minimal cycle count is {depth}, not 5")

    # reconstruct the cycle word (earliest factor first)
    gen_seq: list[int] = []
    s = p_best
    while parent[s] is not None:
        prev, idx = parent[s]
        gen_seq.append(idx)
        s = prev
    gen_seq.reverse()

    ops: list[Op] = []
    for idx in gen_seq:
        _, (word, word_inv) = cycle_items[idx]
        ops += word_inv + c2x_ops + word
    ops += a_word
    return simplify(ops)


# ---------------------------------------------------------------------------
# Clifford-class search for the -tau12 block


def clifford_words_mod_phase() -> list[tuple[UnitaryMatrix, list[Op]]]:
    """Each single-qutrit Clifford mod global phase as (exact matrix, shortest
    S/H word); the matrix is the word's product, phase included."""
    gens = [Op(k, (0,)) for k in ("S", "SDG", "H", "HDG")]
    gen_mats = [gate1(op.kind) for op in gens]

    def canon(m: UnitaryMatrix) -> tuple:
        first = None
        for row in m.rows:
            for e in row:
                if not e.is_zero():
                    first = e
                    break
            if first is not None:
                break
        inv = first.inverse()
        return tuple(tuple(inv * e for e in row) for row in m.rows)

    ident = UnitaryMatrix.identity(3)
    words: dict[tuple, tuple[UnitaryMatrix, list[Op]]] = {canon(ident): (ident, [])}
    queue: deque[tuple] = deque([canon(ident)])
    while queue:
        key = queue.popleft()
        mat, word = words[key]
        for op, gmat in zip(gens, gen_mats):
            nxt = gmat @ mat
            nkey = canon(nxt)
            if nkey not in words:
                words[nkey] = (nxt, word + [op])
                queue.append(nkey)
    assert len(words) == 216, len(words)
    return list(words.values())


def build_c2neg_tau12(c2sdg_ops: list[Op]) -> list[Op]:
    sdg = gate1("SDG")
    cliffords = clifford_words_mod_phase()
    say(f"single-qutrit Cliffords mod phase: {len(cliffords)}")

    # conjugacy classes of Sdg and S with a shortest conjugator word each
    class_dn: dict[tuple, tuple[UnitaryMatrix, list[Op]]] = {}
    for u, word in cliffords:
        v = u @ sdg @ u.dag()
        if v.rows not in class_dn or len(word) < len(class_dn[v.rows][1]):
            class_dn[v.rows] = (v, word)
    class_up = {v.dag().rows: (v.dag(), word) for v, word in class_dn.values()}
    say(f"class of Sdg: {len(class_dn)} elements")

    tau12 = gate1("TAU", params=("12",))
    omega = Cyclo36.omega_pow(1)

    # Each gadget contributes a block zeta**s * W with s = +-1 and W a
    # conjugate of Sdg (s=+1) or S (s=-1); a trailing S**b on the control
    # scales the controlled block by a free power of omega.  Solve
    # W3 W2 W1 = -zeta**(-s1-s2-s3) * omega**j * tau12.
    by_sign = {1: class_dn, -1: class_up}

    def triples():
        for signs in ((1, 1, 1), (-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                      (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            s1, s2, s3 = signs
            for j in range(3):
                scale = MINUS_ONE * Cyclo36.zeta9_pow(-(s1 + s2 + s3)) * omega**j
                target3 = tau12.scale(scale)
                for v1, w1 in by_sign[s1].values():
                    for v2, w2 in by_sign[s2].values():
                        hit = by_sign[s3].get((target3 @ v1.dag() @ v2.dag()).rows)
                        if hit is not None:
                            yield signs, j, (v1, w1), (v2, w2), hit

    found = next(triples(), None)
    if found is None:
        raise SystemExit("no Clifford triple yields -tau12 up to a control phase")
    signs, j, *pieces = found
    say(f"block triple found: signs {signs}, control correction omega^{(-j) % 3}")

    gadget_up = list(adjoint(Circuit(2, tuple(c2sdg_ops))).ops)
    ops: list[Op] = []
    for sign, (v, word) in zip(signs, pieces):
        word1 = [op.remap(lambda _: 1) for op in word]
        inv = list(adjoint(Circuit(2, tuple(word1))).ops)
        ops += inv + (c2sdg_ops if sign == 1 else gadget_up) + word1
    ops += [Op("S", (0,))] * ((-j) % 3)
    return simplify(ops)


# ---------------------------------------------------------------------------


def derive() -> dict[str, str]:
    """Every data file's text by stem, each verified; nothing is written."""

    c2x_ops = verified("c2x", build_c2x())
    c2xdg_ops = verified("c2xdg", list(adjoint(Circuit(2, tuple(c2x_ops))).ops))

    # phase kickback: T_t . tau01_t . C2Xdg . tau01_t . Tdg_t . C2Xdg
    kick = (
        c2xdg_ops
        + [Op("TDG", (1,)), Op("TAU", (1,), ("01",))]
        + c2xdg_ops
        + [Op("TAU", (1,), ("01",)), Op("T", (1,))]
    )
    c2sdg_ops = verified("c2sdg_phase", simplify(kick))

    z11_ops = verified("c2z11_phase", simplify(
        [Op("TAU", (1,), ("02",))] + c2sdg_ops + [Op("TAU", (1,), ("02",))]
    ))

    neg_hdg_ops = verified("c2neg_hdg", simplify(
        [Op("SDG", (0,))]
        + z11_ops
        + [Op("HDG", (1,))]
        + z11_ops
        + [Op("H", (1,))]
        + z11_ops
    ))

    affine_words = bfs_affine_words()
    say(f"affine group words: {len(affine_words)}")
    tau12_ops = verified("c2tau12", build_c2tau12(c2x_ops, affine_words))

    tau01_ops = verified("c2tau01", simplify(
        [Op("TAU", (1,), ("02",))] + tau12_ops + [Op("TAU", (1,), ("02",))]
    ))
    tau02_ops = verified("c2tau02", simplify(
        [Op("TAU", (1,), ("01",))] + tau12_ops + [Op("TAU", (1,), ("01",))]
    ))

    neg_tau12_ops = verified("c2neg_tau12", build_c2neg_tau12(c2sdg_ops))

    # R on the control, second qutrit borrowed and exactly restored
    r_ops = verified("r_construction", tau12_ops + neg_tau12_ops)
    r_naive_ops = verified("r_construction_naive", tau12_ops + neg_hdg_ops + neg_hdg_ops)

    files = {
        "c2x": (c2x_ops, "two-controlled X on (control 0, target 1)"),
        "c2xdg": (c2xdg_ops, "two-controlled X inverse on (control 0, target 1)"),
        "c2tau12": (tau12_ops, "two-controlled swap of levels 1,2"),
        "c2tau01": (tau01_ops, "two-controlled swap of levels 0,1"),
        "c2tau02": (tau02_ops, "two-controlled swap of levels 0,2"),
        "c2sdg_phase": (c2sdg_ops, "blockdiag(I, I, zeta * Sdg)"),
        "c2z11_phase": (z11_ops, "blockdiag(I, I, zeta^7 * Z(1,1))"),
        "c2neg_hdg": (neg_hdg_ops, "blockdiag(I, I, -Hdg)"),
        "c2neg_tau12": (neg_tau12_ops, "blockdiag(I, I, -tau12)"),
        "r_construction": (r_ops, "R on qutrit 0, qutrit 1 borrowed"),
        "r_construction_naive": (r_naive_ops, "R on qutrit 0 via two -Hdg blocks"),
    }
    return {
        stem: print_circuit(Circuit(2, tuple(ops)), header=[f"{desc}; {TABLE[stem][1]} T gates"])
        for stem, (ops, desc) in files.items()
    }


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for stem, text in derive().items():
        path = OUT_DIR / f"{stem}.qc"
        path.write_text(text)
        say(f"wrote {path.name}")


if __name__ == "__main__":
    main()
