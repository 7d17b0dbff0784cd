"""Seeded request streams for the benchmark, each with a known answer.

Every expected verdict below comes from theory, never from running the
package:

* the bundled ``circuits/*.qc`` files implement closed-form targets with the
  pinned T-counts 3/3/15/15/15/8/8/24/24/39/63;
* dropping one T (or T-dagger) from such a file changes its matrix by a
  factor B^dag T^dag B, which is not a scalar, so the file must be refuted in
  exact and in phase mode;
* W W^dag = I for every word W;
* a Clifford+T word with t T/T-dagger gates has minimal T-count at most t, so
  the obstruction test must call it consistent with a T-count of at most t;
* R = diag(1, 1, -1) has no ancilla-free Clifford+T circuit, and neither has
  C R C^dag for a Clifford C, so the obstruction test must reject it;
* C G C^dag, with C a Clifford word on two qutrits and G a Clifford that is
  not a Pauli, is Clifford but not a Pauli (Cliffords normalize the Pauli
  group), so it sits at hierarchy level 2; its entries lie in Z[1/3, omega]
  (H contributes (omega - omega^2)/3, every other generator is a monomial
  over Z[omega]);
* C T C' with Cliffords C, C' is not Clifford, sits at level 3 (conjugation
  by a Clifford keeps the level of T tensor I) and no unit phase puts it in
  Z[1/3, omega] (that would put zeta_9 in Q(omega)).

A workload is a list of rounds.  Every round holds the same number of
requests of each kind; the seed picks the words, files and order, so the mix
of costs is the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify", "obstruct", "classify2q")
CIRCUITS = "circuits"  # the bundled circuit files, relative to the checkout

VERIFIED = "result: verified"
REFUTED = "result: refuted"


@dataclass(frozen=True)
class Expect:
    """What stdout and the exit code must show for a verdict to count."""

    code: int
    lines: tuple[str, ...] = ()        # each must begin some stdout line
    absent: tuple[str, ...] = ()       # no stdout line may begin with these
    tcount_at_most: int | None = None  # bound on 'consistent: T-count k'


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    expect: Expect
    path: str                  # circuit file, relative to the checkout
    text: str | None = None    # contents to write at set-up; None: bundled
    matrix: bool = True        # the request simulates the circuit


def check(expect: Expect, code: int, out: str) -> bool:
    """True iff the exit code and the stdout verdict lines match."""
    if code != expect.code:
        return False
    lines = out.splitlines()
    for want in expect.lines:
        if not any(line.startswith(want) for line in lines):
            return False
    for bad in expect.absent:
        if any(line.startswith(bad) for line in lines):
            return False
    if expect.tcount_at_most is not None:
        head = "consistent: T-count "
        found = [line[len(head):] for line in lines if line.startswith(head)]
        if len(found) != 1 or not found[0].isdigit():
            return False
        if int(found[0]) > expect.tcount_at_most:
            return False
    return True


# -- circuit text --------------------------------------------------------

# stem, target expression, pinned T-count, macro-level C2 inner gate + phase
BUNDLED = (
    ("c2x", "C2[X]", 3, "X", ""),
    ("c2xdg", "C2[TAU(021)]", 3, "TAU(021)", ""),
    ("c2tau12", "C2[TAU(12)]", 15, "TAU(12)", ""),
    ("c2tau01", "C2[TAU(01)]", 15, "TAU(01)", ""),
    ("c2tau02", "C2[TAU(02)]", 15, "TAU(02)", ""),
    ("c2sdg_phase", "C2[SDG] phase=zeta", 8, "SDG", " phase=zeta"),
    ("c2z11_phase", "C2[ZPHASE(1,1)] phase=zeta^7", 8, "ZPHASE 1 1", " phase=zeta^7"),
    ("c2neg_hdg", "C2[-HDG]", 24, "HDG", " phase=-1"),
    ("c2neg_tau12", "C2[-TAU(12)]", 24, "TAU(12)", " phase=-1"),
    ("r_construction", "R x I", 39, None, None),
    ("r_construction_naive", "R x I", 63, None, None),
)
# the controlled blocks of 107-114 gates
_LARGE_CONTROLLED = tuple(b for b in BUNDLED if b[3] is not None and b[2] >= 15)
R_TCOUNT = 39

CLIFFORD_1Q = ("H", "HDG", "S", "SDG", "X", "Z", "TAU")
TAU_LABELS = ("01", "02", "12", "012", "021")
_INVERSE = {"H": ("HDG",), "HDG": ("H",), "S": ("SDG",), "SDG": ("S",),
            "T": ("TDG",), "TDG": ("T",), "X": ("TAU(021)",), "Z": ("Z", "Z"),
            "TAU(01)": ("TAU(01)",), "TAU(02)": ("TAU(02)",),
            "TAU(12)": ("TAU(12)",), "TAU(012)": ("TAU(021)",),
            "TAU(021)": ("TAU(012)",)}


def gate_lines(text: str) -> list[str]:
    """The gate lines of a circuit file, without comments or header."""
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body and not body.lower().startswith("qutrits"):
            out.append(body)
    return out


def remap(lines: list[str], wires: dict[int, int]) -> list[str]:
    """Relabel the wires of base-gate lines ('NAME w' or 'CX c t')."""
    out = []
    for line in lines:
        name, *ws = line.split()
        out.append(" ".join([name] + [str(wires[int(w)]) for w in ws]))
    return out


def inverse(lines: list[str]) -> list[str]:
    """Lines of the inverse circuit: reversed order, each gate inverted."""
    out = []
    for line in reversed(lines):
        name, *ws = line.split()
        if name == "CX":  # CX^3 = I
            out += [line, line]
        else:
            out += [" ".join([g] + ws) for g in _INVERSE[name]]
    return out


def circuit_text(n: int, lines: list[str]) -> str:
    return "\n".join([f"qutrits {n}"] + lines) + "\n"


def _gate(rng: random.Random, kind: str, n: int) -> str:
    if kind == "CX":
        c, t = rng.sample(range(n), 2)
        return f"CX {c} {t}"
    w = rng.randrange(n)
    if kind == "TAU":
        return f"TAU({rng.choice(TAU_LABELS)}) {w}"
    return f"{kind} {w}"


def word(rng: random.Random, n: int, length: int, kinds: tuple[str, ...],
         special: tuple[str, ...] = (), count: int = 0) -> list[str]:
    """Random word over ``kinds`` with exactly ``count`` gates from ``special``."""
    spots = set(rng.sample(range(length), count))
    rest = tuple(k for k in kinds if k not in special)
    return [_gate(rng, rng.choice(special if i in spots else rest), n)
            for i in range(length)]


def t_gates(lines: list[str]) -> int:
    return sum(1 for line in lines if line.split()[0] in ("T", "TDG"))


# -- workloads -------------------------------------------------------------

class _Files:
    """Names the generated circuit files of one workload."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def file(self, text: str) -> tuple[str, str]:
        self.count += 1
        return f"{self.workdir}/r{self.count:05d}.qc", text


def _verify_round(rng: random.Random, b: _Files) -> list[Request]:
    """21 requests whose costs keep the percentiles inside clusters.

    From cheap to dear: 4 T-counts and the 4 small bundled files; the 5
    bundled files of 107-114 gates and one of them with a T dropped, where
    the median falls; the two R constructions and a W W^dag word; and the 4
    three-qutrit macro circuits, where the 90th percentile falls.
    """
    reqs = []
    for stem, target, _, _, _ in BUNDLED:
        mode = rng.choice(("exact", "phase"))
        lines = (VERIFIED, "phase: 1") if mode == "phase" else (VERIFIED,)
        reqs.append(Request(
            "verify-bundled",
            ("verify", f"{CIRCUITS}/{stem}.qc", "--target", target, "--mode", mode),
            Expect(0, lines), f"{CIRCUITS}/{stem}.qc"))
    for stem, _, tcount, _, _ in rng.sample(BUNDLED, 2):
        path = f"{CIRCUITS}/{stem}.qc"
        reqs.append(Request("tcount-bundled", ("tcount", path),
                            Expect(0, (f"tcount: {tcount}",)), path, matrix=False))

    # one bundled file with a single T or T-dagger removed
    stem, target, _, _, _ = rng.choice(_LARGE_CONTROLLED)
    lines = gate_lines((Path(CIRCUITS) / f"{stem}.qc").read_text())
    ts = [i for i, line in enumerate(lines) if line.split()[0] in ("T", "TDG")]
    drop = rng.choice(ts)
    path, text = b.file(circuit_text(2, lines[:drop] + lines[drop + 1:]))
    mode = rng.choice(("exact", "phase"))
    reqs.append(Request("verify-dropped-t",
                        ("verify", path, "--target", target, "--mode", mode),
                        Expect(1, (REFUTED,)), path, text))

    # four three-qutrit macro circuits: R on one end, a controlled block on
    # the other two wires; verified after expansion, two T-counted before it
    r_body = gate_lines((Path(CIRCUITS) / "r_construction.qc").read_text())
    for i, (stem, target, tcount, inner, phase) in enumerate(
            rng.sample(_LARGE_CONTROLLED, 4)):
        body = gate_lines((Path(CIRCUITS) / f"{stem}.qc").read_text())
        if rng.random() < 0.5:  # R 0 ; C2[g 2] 1
            parts = [remap(r_body, {0: 0, 1: 1}), remap(body, {0: 1, 1: 2})]
            expr = f"R x {target}"
            macro = ["R 0", f"C2[{inner} 2] 1{phase}"]
        else:                   # C2[g 1] 0 ; R 2
            parts = [remap(body, {0: 0, 1: 1}), remap(r_body, {0: 2, 1: 0})]
            expr = f"{target} x R"
            macro = [f"C2[{inner} 1] 0{phase}", "R 2"]
        if rng.random() < 0.5:
            parts.reverse()
            macro.reverse()
        path, text = b.file(circuit_text(3, parts[0] + parts[1]))
        reqs.append(Request("verify-macro-3q", ("verify", path, "--target", expr),
                            Expect(0, (VERIFIED,)), path, text))
        if i < 2:
            path, text = b.file(circuit_text(3, macro))
            reqs.append(Request("tcount-macro-3q", ("tcount", path),
                                Expect(0, (f"tcount: {R_TCOUNT + tcount}",)), path,
                                text, matrix=False))

    # one H-dense three-qutrit word W W^dag
    w = word(rng, 3, 22, CLIFFORD_1Q + ("T", "TDG", "CX"), ("H", "HDG"), 6)
    path, text = b.file(circuit_text(3, w + inverse(w)))
    reqs.append(Request("verify-word-3q",
                        ("verify", path, "--target", "I x I x I"),
                        Expect(0, (VERIFIED,)), path, text))
    return reqs


def _obstruct_round(rng: random.Random, b: _Files) -> list[Request]:
    reqs = []
    for i in range(8):  # lengths 10..80, one per stratum, a fifth of them T
        length = 10 + int(70 * (i + rng.random()) / 8)
        w = word(rng, 1, length, CLIFFORD_1Q, ("T", "TDG"), length // 5)
        path, text = b.file(circuit_text(1, w))
        reqs.append(Request("obstruct-word",
                            ("classify", path, "--obstruct"),
                            Expect(0, tcount_at_most=t_gates(w)), path, text))
    for _ in range(2):
        c = word(rng, 1, rng.randint(3, 10), CLIFFORD_1Q)
        path, text = b.file(circuit_text(1, c + ["R 0"] + inverse(c)))
        reqs.append(Request("obstruct-conjugated-r",
                            ("classify", path, "--obstruct"),
                            Expect(1, ("obstructed:",)), path, text))
    return reqs


_CLASSIFY = ("--clifford", "--hierarchy", "3", "--ring", "Tomega")
MONOMIAL_2Q = ("X", "Z", "S", "SDG", "TAU", "CX")


def _hadamard(rng: random.Random, w: int) -> str:
    return f"{rng.choice(('H', 'HDG'))} {w}"


def _cx(rng: random.Random) -> str:
    c = rng.randrange(2)
    return f"CX {c} {1 - c}"


def _classify2q_round(rng: random.Random, b: _Files) -> list[Request]:
    """P K P^dag with P a random monomial Clifford word and K a core.

    Conjugating by a monomial permutes rows and columns and multiplies
    entries by phases, so the cost of a request is set by its core alone.
    The Clifford cores are not Paulis, and the median falls among the four
    with one H; the last core is C T C^dag, where the 90th percentile falls.
    """
    cores = [
        [rng.choice((f"{rng.choice(('S', 'SDG'))} {rng.randrange(2)}", _cx(rng)))],
        [_hadamard(rng, rng.randrange(2))],
        [_hadamard(rng, rng.randrange(2)), _cx(rng)],
        [_hadamard(rng, rng.randrange(2))],
        [_hadamard(rng, rng.randrange(2)), _cx(rng)],
        [_hadamard(rng, 0), _hadamard(rng, 1)],
    ]
    w = rng.randrange(2)
    h = _hadamard(rng, w)
    ctc = [h, f"{rng.choice(('T', 'TDG'))} {w}"] + inverse([h])
    reqs = []
    for core in cores + [ctc]:
        p = word(rng, 2, rng.randint(6, 10), MONOMIAL_2Q)
        path, text = b.file(circuit_text(2, p + core + inverse(p)))
        if core is ctc:
            expect = Expect(1, ("clifford: false", "level: 3"), absent=("member: true",))
        else:
            expect = Expect(0, ("clifford: true", "level: 2", "member: true"))
        reqs.append(Request("classify-ctc" if core is ctc else "classify-clifford",
                            ("classify", path) + _CLASSIFY, expect, path, text))
    return reqs


def build(workload: str, seed: int, rounds: int, workdir: str) -> list[list[Request]]:
    """``rounds`` shuffled rounds of requests; paths are relative to the checkout."""
    rng = random.Random(f"{workload}:{seed}")
    b = _Files(workdir)
    out = []
    for _ in range(rounds):
        if workload == "verify":
            reqs = _verify_round(rng, b)
        elif workload == "obstruct":
            reqs = _obstruct_round(rng, b)
        elif workload == "classify2q":
            reqs = _classify2q_round(rng, b)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rng.shuffle(reqs)
        out.append(reqs)
    return out
