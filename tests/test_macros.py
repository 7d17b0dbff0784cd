"""Macro expansion: data-file constructions, T-counts, and obstructions."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import every_controlled_op
from qutrit_exact.circuit import TAU_LABELS
from qutrit_exact.circuit.core import (
    BASE_KINDS,
    SINGLE_QUTRIT_KINDS,
    Circuit,
    Op,
    adjoint,
    print_circuit,
)
from qutrit_exact.circuit.macros import (
    CONSTRUCTIONS,
    DATA_ENV,
    circuits_dir,
    expand_macros,
    load_named,
    macro_names,
    t_count,
)
from qutrit_exact.circuit.parse import parse_circuit
from qutrit_exact.cli.catalog import check_equation
from qutrit_exact.errors import UnexpandableError, UnknownMacroError
from qutrit_exact.rings.cyclo import Cyclo36
from qutrit_exact.sim.gates import circuit_matrix, gate_matrix
from qutrit_exact.sim.matrix import UnitaryMatrix, equal_exact


def _single(kind: str, params: tuple = ()) -> UnitaryMatrix:
    return gate_matrix(Op(kind, (0,), params=params), 1)


_REPO = Path(__file__).resolve().parents[1]
_CONTROLLED = [
    (stem, line, tcount) for stem, line, tcount, _ in CONSTRUCTIONS if line.startswith("C2")
]
_BORROWED = [(stem, tcount) for stem, line, tcount, _ in CONSTRUCTIONS if line == "R 0"]
_ALIAS = "C2[TAU(012) 1] 0"  # the one op outside the table; it splices c2x, as X = TAU(012)


class TestProvenance:
    def test_derive_macros_regenerates_every_bundled_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_ENV, str(tmp_path))  # derive() reads no data file
        spec = importlib.util.spec_from_file_location(
            "derive_macros", _REPO / "tools" / "derive_macros.py"
        )
        tool = importlib.util.module_from_spec(spec)
        path = list(sys.path)
        spec.loader.exec_module(tool)
        assert sys.path == path  # loading the tool leaves the import path alone
        derived = {stem: text.encode() for stem, text in tool.derive().items()}
        committed = {path.stem: path.read_bytes() for path in (_REPO / "circuits").glob("*.qc")}
        assert derived == committed


class TestDataFiles:
    @pytest.mark.parametrize("stem,line,tcount", _CONTROLLED, ids=[r[0] for r in _CONTROLLED])
    def test_controlled_construction(self, stem, line, tcount):
        check_equation(load_named(stem), line, tcount=tcount)

    @pytest.mark.parametrize("stem,tcount", _BORROWED)
    def test_r_constructions(self, stem, tcount):
        check_equation(load_named(stem), "R 0", tcount=tcount)  # R on qutrit 0, 1 borrowed

    def test_table_and_expander_agree(self):
        # an op expands to the file of its cheapest row
        cheapest = {}
        for stem, line, _, _ in sorted(CONSTRUCTIONS, key=lambda row: -row[2]):
            cheapest[line] = stem
        assert cheapest["R 0"] == "r_construction"
        for line, stem in [*cheapest.items(), (_ALIAS, "c2x")]:
            flat = expand_macros(parse_circuit(f"qutrits 2\n{line}\n"))
            assert flat.ops == load_named(stem).ops, line
        assert macro_names() == tuple(stem for stem, _, _, _ in CONSTRUCTIONS)

    def test_every_registered_name_loads(self):
        for stem in macro_names():
            circ = load_named(stem)
            assert circ.ops, stem

    def test_directory_override(self, tmp_path, monkeypatch):
        (tmp_path / "c2x.qc").write_text("qutrits 2\nH 0\n")
        monkeypatch.setenv(DATA_ENV, str(tmp_path))
        assert circuits_dir() == tmp_path
        assert len(load_named("c2x").ops) == 1
        with pytest.raises(UnknownMacroError):
            load_named("c2tau12")  # absent from the override directory

    def test_expansion_follows_the_directory_override(self, tmp_path, monkeypatch):
        circ = parse_circuit("qutrits 3\nC2[X 2] 0\n")
        bundled = expand_macros(circ)
        (tmp_path / "c2x.qc").write_text("qutrits 2\nH 0\nCX 1 0\n")
        monkeypatch.setenv(DATA_ENV, str(tmp_path))
        assert expand_macros(circ).ops == (Op("H", (0,)), Op("CX", (2, 0)))
        monkeypatch.delenv(DATA_ENV)
        assert expand_macros(circ) == bundled

    def test_unknown_stem(self):
        with pytest.raises(UnknownMacroError):
            load_named("未registered")


class TestExpansion:
    def test_expansion_is_exact_for_every_registry_entry(self):
        for line in [line for _, line, _, _ in CONSTRUCTIONS] + [_ALIAS]:
            circ = parse_circuit(f"qutrits 2\n{line}\n")
            flat = expand_macros(circ)
            assert all(op.kind in BASE_KINDS for op in flat.ops), line
            assert circuit_matrix(flat) == circuit_matrix(circ), line

    def test_control_wire_can_be_either_qutrit(self):
        circ = parse_circuit("qutrits 2\nC2[X 0] 1\n")
        flat = expand_macros(circ)
        got = circuit_matrix(flat)
        x = _single("X")
        # control on qutrit 1: |j,2> -> X|j>,2 applied blockwise over the target
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        e = got.entry(3 * a + b, 3 * c + d)
                        if b == 2 and d == 2:
                            assert e == x.entry(a, c)
                        elif (a, b) == (c, d):
                            assert e == Cyclo36.from_int(1)
                        else:
                            assert e.is_zero()

    def test_zphase_and_xphase_expand_to_base_gates(self):
        circ = parse_circuit("qutrits 1\nZPHASE 1/3 2/3 0\nXPHASE 2 2 0\n")
        flat = expand_macros(circ)
        assert all(op.kind in BASE_KINDS for op in flat.ops)
        assert equal_exact(circuit_matrix(flat), circuit_matrix(circ))
        # every pair of thirds: exact when a + b is an integer, else refused
        # with a text naming the op and its determinant zeta^(3(a + b))
        thirds = [Fraction(k, 3) for k in range(9)]
        for kind in ("ZPHASE", "XPHASE"):
            for a in thirds:
                for b in thirds:
                    circ = Circuit(1, (Op(kind, (0,), (a, b)),))
                    if (a + b).denominator == 3:
                        det = f"{kind} {a} {b} has determinant zeta\\^{3 * (a + b) % 9}"
                        with pytest.raises(UnexpandableError, match=det):
                            expand_macros(circ)
                        continue
                    flat = expand_macros(circ)
                    assert all(op.kind in BASE_KINDS for op in flat.ops)
                    assert equal_exact(circuit_matrix(flat), circuit_matrix(circ)), (kind, a, b)

    def test_r_expansion_borrows_a_partner_qutrit(self):
        circ = parse_circuit("qutrits 2\nR 1\n")
        flat = expand_macros(circ)
        assert all(op.kind in BASE_KINDS for op in flat.ops)
        assert equal_exact(circuit_matrix(flat), circuit_matrix(circ))
        assert t_count(circ) == 39

    def test_r_alone_is_unexpandable(self):
        with pytest.raises(UnexpandableError):
            expand_macros(parse_circuit("qutrits 1\nR 0\n"))

    def test_lambda_of_x_is_cx(self):
        circ = parse_circuit("qutrits 2\nLAMBDA[X 1] 0\n")
        flat = expand_macros(circ)
        assert [op.kind for op in flat.ops] == ["CX"]
        cx = gate_matrix(Op("CX", (0, 1)), 2)
        assert equal_exact(circuit_matrix(flat), cx)
        assert equal_exact(circuit_matrix(circ), cx)

    def test_lambda_applies_power_per_control_level(self):
        circ = parse_circuit("qutrits 2\nLAMBDA[TAU(12) 1] 0\n")
        flat = expand_macros(circ)
        assert all(op.kind in BASE_KINDS for op in flat.ops)
        tau = _single("TAU", ("12",))
        got = circuit_matrix(flat)
        ident = UnitaryMatrix.identity(3)
        blocks = (ident, tau, ident)  # tau^0, tau^1, tau^2 = identity
        for r in range(9):
            for c in range(9):
                want = blocks[r // 3].entry(r % 3, c % 3) if r // 3 == c // 3 \
                    else Cyclo36()
                assert got.entry(r, c) == want

    def test_determinant_obstruction_refuses_expansion(self):
        circ = parse_circuit("qutrits 2\nC2[ZPHASE 1/3 1/3 1] 0\n")
        with pytest.raises(UnexpandableError) as err:
            expand_macros(circ)
        assert "determinant" in str(err.value)
        assert "zeta^2" in str(err.value)

    def test_det_consistent_t_block_is_merely_unregistered(self):
        # det(T) = zeta^0 = 1, so only the missing registration stops it
        circ = parse_circuit("qutrits 2\nC2[T 1] 0\n")
        with pytest.raises(UnknownMacroError):
            expand_macros(circ)

    def test_determinant_obstruction_reports_omega_for_s(self):
        circ = parse_circuit("qutrits 2\nC2[S 1] 0\n")
        with pytest.raises(UnexpandableError) as err:
            expand_macros(circ)
        assert "omega" in str(err.value)

    def test_consistent_determinant_without_registration(self):
        # det(-X) = -1 is fine, but no construction is registered for it
        circ = parse_circuit("qutrits 2\nC2[X 1] 0 phase=-1\n")
        with pytest.raises(UnknownMacroError):
            expand_macros(circ)

    def test_tcount_counts_only_t_family(self):
        circ = parse_circuit("qutrits 2\nT 0\nTDG 1\nH 0\nC2[X 1] 0\n")
        assert t_count(circ) == 2 + 3


class TestAdjointsOfMacros:
    def test_c2x_adjoint_is_c2xdg(self):
        c2xdg = circuit_matrix(load_named("c2xdg"))
        assert circuit_matrix(adjoint(load_named("c2x"))) == c2xdg

    def test_adjoint_preserves_t_count(self):
        for stem in macro_names():
            circ = load_named(stem)
            flat_t = sum(op.kind in ("T", "TDG") for op in circ.ops)
            adj_t = sum(op.kind in ("T", "TDG") for op in adjoint(circ).ops)
            assert flat_t == adj_t, stem


# C2 forms with a registered expansion: (inner kind, inner params, phase)
_REGISTERED_C2 = [
    ("X", (), None),
    ("TAU", ("021",), None),
    ("TAU", ("12",), (-1, 0)),
    ("SDG", (), (1, 1)),
    ("HDG", (), (-1, 0)),
    ("ZPHASE", (1, 1), (1, 7)),
]


def _random_single(rng: random.Random, wire: int) -> Op:
    kind = rng.choice(sorted(SINGLE_QUTRIT_KINDS))
    params: tuple = ()
    if kind == "TAU":
        params = (rng.choice(TAU_LABELS),)
    elif kind in ("ZPHASE", "XPHASE"):
        params = (Fraction(rng.randrange(9), 3), Fraction(rng.randrange(9), 3))
    return Op(kind, (wire,), params)


def _random_gate(rng: random.Random, n: int) -> Op:
    roll = rng.random() if n > 1 else 1.0
    wire = rng.randrange(n)
    other = (wire + 1) % n
    if roll < 0.15:
        kind, params, phase = rng.choice(_REGISTERED_C2)
        return Op("C2", (wire,), inner=Op(kind, (other,), params), phase=phase)
    if roll < 0.3:
        phase = (rng.choice((1, -1)), rng.randrange(9))
        return Op("C2", (wire,), inner=_random_single(rng, other), phase=phase)
    if roll < 0.45:
        return Op("LAMBDA", (wire,), inner=_random_single(rng, other))
    if roll < 0.5:
        return Op("CX", (wire, other))
    return _random_single(rng, wire)


def _random_words(count: int):
    """Seeded words over every gate form, on at most two qutrits."""
    rng = random.Random(0x7AB1E)
    for _ in range(count):
        n = rng.choice((1, 2))
        yield Circuit(n, tuple(_random_gate(rng, n) for _ in range(rng.randint(1, 3))))


class TestGateTableProperties:
    def test_print_parse_roundtrip(self):
        for circ in _random_words(200):
            assert parse_circuit(print_circuit(circ)) == circ

    def test_adjoint_matrix_is_dagger(self):
        for circ in _random_words(150):
            m = circuit_matrix(circ)
            assert circuit_matrix(adjoint(circ)) == m.dag(), print_circuit(circ)

    def test_expansion_is_exact_or_refused(self):
        for circuits, least in ((_random_words(150), 50), (every_controlled_op(), 32)):
            expanded = 0
            for circ in circuits:
                try:
                    flat = expand_macros(circ)
                except (UnexpandableError, UnknownMacroError):
                    continue
                expanded += 1
                assert all(op.kind in BASE_KINDS for op in flat.ops)
                assert circuit_matrix(flat) == circuit_matrix(circ), print_circuit(circ)
            assert expanded >= least
