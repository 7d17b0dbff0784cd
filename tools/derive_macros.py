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

The targets and T-counts come from the table of bundled constructions,
``qutrit_exact.circuit.macros.CONSTRUCTIONS``: every file is written only after
``qutrit_exact.cli.catalog.check_equation`` finds that its matrix equals the
op of its row exactly and that its T count equals the row's pinned value.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qutrit_exact.circuit.core import Circuit, Op, adjoint, print_circuit
from qutrit_exact.circuit.macros import CONSTRUCTIONS
from qutrit_exact.cli.catalog import check_equation
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE
from qutrit_exact.sim import UnitaryMatrix, gate_matrix

OUT_DIR = Path(__file__).resolve().parents[1] / "circuits"

# file stem -> (the op the file implements, pinned T-count)
TABLE = {stem: (line, tcount) for stem, line, tcount in CONSTRUCTIONS}


def say(msg: str) -> None:
    print(f"[derive] {msg}", flush=True)


def gate1(kind: str, wire: int = 0, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (wire,), params), 1)


# ---------------------------------------------------------------------------
# peephole tidy-up (derivation-time only; never touches T gates)

_TRIPLE = {"X", "Z", "S", "CX"}
_PAIR = {
    ("H", "HDG"), ("HDG", "H"), ("S", "SDG"), ("SDG", "S"),
    ("X", "TAU:021"), ("TAU:021", "X"), ("TAU:012", "TAU:021"), ("TAU:021", "TAU:012"),
    ("TAU:01", "TAU:01"), ("TAU:02", "TAU:02"), ("TAU:12", "TAU:12"),
}


def _tag(op: Op) -> str:
    if op.kind == "TAU":
        return f"TAU:{op.params[0]}"
    return op.kind


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
            if (
                i + 1 < len(ops)
                and ops[i].wires == ops[i + 1].wires
                and (_tag(ops[i]), _tag(ops[i + 1])) in _PAIR
            ):
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
# affine permutation machinery over the 3x3 digit grid

Aff = tuple[int, int, int, int, int, int]  # (m00, m01, m10, m11, v0, v1), all mod 3

AFF_ID: Aff = (1, 0, 0, 1, 0, 0)


def aff_apply(a: Aff, x0: int, x1: int) -> tuple[int, int]:
    return ((a[0] * x0 + a[1] * x1 + a[4]) % 3, (a[2] * x0 + a[3] * x1 + a[5]) % 3)


def aff_compose(g: Aff, s: Aff) -> Aff:
    # g after s
    m00 = (g[0] * s[0] + g[1] * s[2]) % 3
    m01 = (g[0] * s[1] + g[1] * s[3]) % 3
    m10 = (g[2] * s[0] + g[3] * s[2]) % 3
    m11 = (g[2] * s[1] + g[3] * s[3]) % 3
    v0 = (g[0] * s[4] + g[1] * s[5] + g[4]) % 3
    v1 = (g[2] * s[4] + g[3] * s[5] + g[5]) % 3
    return (m00, m01, m10, m11, v0, v1)


def aff_inverse(a: Aff) -> Aff:
    det = (a[0] * a[3] - a[1] * a[2]) % 3
    dinv = det  # 1->1, 2->2 since 2*2=4=1 mod 3
    n00 = (dinv * a[3]) % 3
    n01 = (-dinv * a[1]) % 3
    n10 = (-dinv * a[2]) % 3
    n11 = (dinv * a[0]) % 3
    w0 = (-(n00 * a[4] + n01 * a[5])) % 3
    w1 = (-(n10 * a[4] + n11 * a[5])) % 3
    return (n00, n01, n10, n11, w0, w1)


def aff_to_perm(a: Aff) -> tuple[int, ...]:
    img = [0] * 9
    for x0 in range(3):
        for x1 in range(3):
            y0, y1 = aff_apply(a, x0, x1)
            img[3 * x0 + x1] = 3 * y0 + y1
    return tuple(img)


def perm_parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            parity ^= (length - 1) & 1
    return parity


# single-op generators: (name, affine map, op)
def affine_generators() -> list[tuple[Aff, Op]]:
    gens: list[tuple[Aff, Op]] = []
    for w in (0, 1):
        one = (1, 0) if w == 0 else (0, 1)
        # X: +1 on wire w; Xdg: +2
        gens.append(((1, 0, 0, 1, one[0], one[1]), Op("X", (w,))))
        gens.append(((1, 0, 0, 1, 2 * one[0] % 3, 2 * one[1] % 3), Op("TAU", (w,), ("021",))))
        # tau01: k -> 1-k; tau02: k -> 2-k; tau12: k -> 2k
        neg = (2, 0, 0, 1, 0, 0) if w == 0 else (1, 0, 0, 2, 0, 0)
        for label, shift in (("01", 1), ("02", 2)):
            a = list(neg)
            a[4 + w] = shift
            gens.append((tuple(a), Op("TAU", (w,), (label,))))
        gens.append((neg, Op("TAU", (w,), ("12",))))
    gens.append(((1, 0, 1, 1, 0, 0), Op("CX", (0, 1))))  # (i,j) -> (i, i+j)
    gens.append(((1, 1, 0, 1, 0, 0), Op("CX", (1, 0))))  # (i,j) -> (i+j, j)
    return gens


def bfs_affine_words() -> dict[Aff, list[Op]]:
    """Shortest gate word for every element of the affine group of the grid."""
    gens = affine_generators()
    words: dict[Aff, list[Op]] = {AFF_ID: []}
    queue: deque[Aff] = deque([AFF_ID])
    while queue:
        s = queue.popleft()
        for a, op in gens:
            nxt = aff_compose(a, s)
            if nxt not in words:
                words[nxt] = words[s] + [op]
                queue.append(nxt)
    assert len(words) == 432, len(words)
    return words


# sanity: affine generator tables match the gate matrices exactly
def check_affine_generators() -> None:
    for a, op in affine_generators():
        mat = gate_matrix(op, 2)
        perm = aff_to_perm(a)
        for col in range(9):
            for row in range(9):
                want = ONE if perm[col] == row else Cyclo36.from_int(0)
                if mat.entry(row, col) != want:
                    raise SystemExit(f"affine table wrong for {op}")


# ---------------------------------------------------------------------------
# two-controlled tau12 via line-cycle search


def compose_perm(g: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[s[x]] for x in range(9))


def build_c2tau12(c2x_ops: list[Op], affine_words: dict[Aff, list[Op]]) -> list[Op]:
    # point permutation of the two-controlled X: adds 1 to the target digit on
    # the line i = 2
    img = list(range(9))
    for j in range(3):
        img[3 * 2 + j] = 3 * 2 + (j + 1) % 3
    base_cycle = tuple(img)

    # all distinct conjugates sigma . base . sigma^-1, keyed by permutation
    cycles: dict[tuple[int, ...], tuple[list[Op], list[Op]]] = {}
    for a, word in affine_words.items():
        perm = compose_perm(
            aff_to_perm(a), compose_perm(base_cycle, aff_to_perm(aff_inverse(a)))
        )
        prev = cycles.get(perm)
        if prev is None or len(word) < len(prev[0]):
            cycles[perm] = (word, affine_words[aff_inverse(a)])
    say(f"line cycles: {len(cycles)} distinct conjugates")
    assert len(cycles) == 24

    cycle_items = list(cycles.items())

    # breadth-first search over products of line cycles, with parents
    ident = tuple(range(9))
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {ident: None}
    dist = {ident: 0}
    queue: deque[tuple[int, ...]] = deque([ident])
    t0 = time.time()
    while queue:
        s = queue.popleft()
        d = dist[s] + 1
        for idx, (perm, _) in enumerate(cycle_items):
            nxt = compose_perm(perm, s)
            if nxt not in dist:
                dist[nxt] = d
                parent[nxt] = (s, idx)
                queue.append(nxt)
    say(f"cycle products reachable: {len(dist)} states in {time.time() - t0:.1f}s")

    # the two-controlled tau12 is the transposition of |2,1> and |2,2>
    target = list(range(9))
    target[3 * 2 + 1], target[3 * 2 + 2] = target[3 * 2 + 2], target[3 * 2 + 1]
    target = tuple(target)

    best: tuple[int, int, Aff, tuple[int, ...]] | None = None
    for a, word in affine_words.items():
        perm_a = aff_to_perm(a)
        if perm_parity(perm_a) != 1:
            continue
        need = compose_perm(aff_to_perm(aff_inverse(a)), target)
        d = dist.get(need)
        if d is None:
            continue
        key = (d, len(word))
        if best is None or key < (best[0], best[1]):
            best = (d, len(word), a, need)
    if best is None:
        raise SystemExit("no affine * cycles factorization found")
    d, wlen, a_best, p_best = best
    say(f"factorization: {d} cycles + affine word of {wlen} gates")
    if d != 5:
        say(f"NOTE: minimal cycle count is {d}, not 5")

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
        perm, (word, word_inv) = cycle_items[idx]
        ops += word_inv + c2x_ops + word
    ops += affine_words[a_best]
    return simplify(ops)


# ---------------------------------------------------------------------------
# Clifford-class search for the -tau12 block


def clifford_words_mod_phase() -> dict[tuple, list[Op]]:
    """Shortest S/H word for each single-qutrit Clifford mod global phase."""
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
    return {k: v[1] for k, v in words.items()}


def build_c2neg_tau12(c2sdg_ops: list[Op]) -> list[Op]:
    sdg = gate1("SDG")
    cliffords = clifford_words_mod_phase()
    say(f"single-qutrit Cliffords mod phase: {len(cliffords)}")

    # conjugacy classes of Sdg and S with a shortest conjugator word each
    class_dn: dict[tuple, tuple[UnitaryMatrix, list[Op]]] = {}
    for word in cliffords.values():
        u = UnitaryMatrix.identity(3)
        for op in word:
            u = gate1(op.kind) @ u
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
    found = None
    for signs in ((1, 1, 1), (-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
                  (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        s1, s2, s3 = signs
        for j in range(3):
            scale = MINUS_ONE * Cyclo36.zeta9_pow(-(s1 + s2 + s3)) * omega**j
            target3 = tau12.scale(scale)
            for v1, w1 in by_sign[s1].values():
                for v2, w2 in by_sign[s2].values():
                    v3 = target3 @ v1.dag() @ v2.dag()
                    hit = by_sign[s3].get(v3.rows)
                    if hit is not None:
                        found = (signs, j, (v1, w1), (v2, w2), hit)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
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


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    check_affine_generators()

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
    for stem, (ops, desc) in files.items():
        path = OUT_DIR / f"{stem}.qc"
        header = f"{desc}; {TABLE[stem][1]} T gates"
        path.write_text(print_circuit(Circuit(2, tuple(ops)), header=[header]))
        say(f"wrote {path.name} ({len(ops)} gates)")


if __name__ == "__main__":
    main()
