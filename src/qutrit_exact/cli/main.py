"""Command-line interface for exact qutrit circuit work.

Commands
--------
matrix FILE            print the exact unitary of a circuit file
tcount FILE            expand macros and print the T-gate count
verify FILE --target EXPR [--mode exact|phase|cphase --phase VALUE]
                       compare the circuit against a target expression
classify FILE [--clifford] [--hierarchy N] [--ring TAG] [--obstruct]
                       run recognition and obstruction analyses
catalog                verify every shipped identity and print a table

Exit codes: 0 when the requested check verifies (or every claim does),
1 when a check is refuted or a claim fails, 2 on malformed input or
other errors (a diagnostic starting with ``error:`` goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from qutrit_exact.adjoint import single_qutrit_ct_obstruction
from qutrit_exact.analysis import (
    hierarchy_level,
    is_clifford,
    matrix_ring_certificate,
    refute_phase_membership,
)
from qutrit_exact.circuit.core import Circuit, adjoint
from qutrit_exact.circuit.macros import t_count
from qutrit_exact.circuit.parse import parse_circuit, parse_phase, parse_target
from qutrit_exact.cli.catalog import run_catalog
from qutrit_exact.errors import DimMismatchError, ParseError
from qutrit_exact.rings.cyclo import Cyclo36, MINUS_ONE, ONE
from qutrit_exact.rings.membership import RingTag
from qutrit_exact.sim.gates import check_width, circuit_matrix, circuit_scalar, phase_unit
from qutrit_exact.sim.matrix import UnitaryMatrix


def _load_circuit(path: str) -> Circuit:
    text = Path(path).read_text(encoding="utf-8")
    return parse_circuit(text)


def parse_phase_value(text: str) -> Cyclo36:
    """'-zeta^2', 'omega', '1', ... as an exact unit."""
    try:
        phase = parse_phase(text)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None
    return phase_unit(phase)


def _print_matrix(m: UnitaryMatrix) -> None:
    cells = [[str(e) for e in row] for row in m.rows]
    widths = [max(len(cells[r][c]) for r in range(m.dim)) for c in range(m.dim)]
    for row in cells:
        print(" | ".join(s.ljust(w) for s, w in zip(row, widths)).rstrip())


def _cmd_matrix(args: argparse.Namespace) -> int:
    circ = _load_circuit(args.file)
    m = circuit_matrix(circ)
    print(f"qutrits: {circ.n}")
    print(f"dim: {m.dim}")
    _print_matrix(m)
    return 0


def _cmd_tcount(args: argparse.Namespace) -> int:
    circ = _load_circuit(args.file)
    print(f"tcount: {t_count(circ)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circ = _load_circuit(args.file)
    check_width(circ.n)
    negated, target = parse_target(args.target)
    if circ.n != target.n:
        raise DimMismatchError(
            f"circuit acts on a {3**circ.n}-dimensional space "
            f"but the target acts on {3**target.n} dimensions"
        )
    # parsed in every mode and before anything is printed, like classify's checks
    phase = None if args.phase is None else parse_phase_value(args.phase)
    if args.mode == "cphase" and phase is None:
        raise ValueError("--mode cphase requires --phase VALUE")
    # U = c * (+-V) exactly when V^dag U = +-c * I: one simulation, no matrix decoded
    c = circuit_scalar(Circuit(circ.n, circ.ops + adjoint(target).ops))
    unit = MINUS_ONE if negated else ONE
    if args.mode == "cphase":
        unit *= phase
    print(f"mode: {args.mode}")
    if args.mode == "exact":
        ok = c == unit
        detail = "circuit matrix equals the target entrywise"
    elif args.mode == "phase":
        witness = None if c is None else c * unit.inverse()
        ok = witness is not None and witness * witness.conjugate() == ONE
        if ok:
            print(f"phase: {witness}")
        detail = "circuit matrix equals a unit multiple of the target"
    else:  # cphase
        print(f"phase: {phase}")
        ok = c == unit
        detail = "circuit matrix equals phase * target entrywise"
    if ok:
        print(f"result: verified ({detail})")
        return 0
    print("result: refuted (the matrices differ)")
    return 1


def _classify_ring(m: UnitaryMatrix, tag: RingTag, out: list[str]) -> bool:
    cert = matrix_ring_certificate(m, tag)
    if cert.found:
        out += ["member: true", f"  {cert.text()}"]
        return True
    ref = refute_phase_membership(m, tag)
    if ref.refuted:
        a, b = ref.pair
        out += [f"refuted: pair ({a}, {b})", f"  {ref.text()}"]
        return False
    out += [
        "member: unknown",
        f"  no unit phase in the witness set puts the matrix inside "
        f"{tag.value}, and no entry pair refutes membership",
    ]
    return False


def _cmd_classify(args: argparse.Namespace) -> int:
    if not (args.clifford or args.hierarchy is not None
            or args.ring or args.obstruct):
        raise ValueError(
            "nothing to do: pass --clifford, --hierarchy N, --ring TAG, "
            "and/or --obstruct"
        )
    circ = _load_circuit(args.file)
    m = circuit_matrix(circ)
    all_positive = True
    # every check runs before anything is printed, so a check that rejects
    # its input leaves stdout empty
    out: list[str] = []

    if args.clifford and m.dim > 9:
        is_clifford(m)  # raises before the hierarchy search can: --clifford is reported first
    report = None if args.hierarchy is None else hierarchy_level(m, cap=args.hierarchy)

    if args.clifford:
        cert = None if report is None else report.clifford  # the search's own test
        if cert is None:
            cert = is_clifford(m)
        out.append(f"clifford: {'true' if cert.found else 'false'}")
        out += [f"  {line}" for line in cert.text().splitlines()]
        all_positive &= cert.found

    if report is not None:
        out.append(f"level: {report.level if report.level is not None else 'none'}")
        out += [f"  {line}" for line in report.text().splitlines()]
        all_positive &= report.level is not None

    if args.ring:
        all_positive &= _classify_ring(m, RingTag.parse(args.ring), out)

    if args.obstruct:
        if m.dim != 3:
            raise DimMismatchError(
                "--obstruct applies to single-qutrit circuits only"
            )
        verdict = single_qutrit_ct_obstruction(m)
        if verdict.is_obstructed():
            out.append(f"obstructed: {verdict.reason}")
            all_positive = False
        else:
            out.append(f"consistent: T-count {verdict.t_count}")
        out.append(f"  {verdict.text()}")

    print("\n".join(out))
    return 0 if all_positive else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    return run_catalog(print)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-exact",
        description="exact construction, simulation, and verification "
                    "of qutrit circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the exact unitary of a circuit")
    p.add_argument("file", help="circuit file")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("tcount", help="print the expanded T-gate count")
    p.add_argument("file", help="circuit file")
    p.set_defaults(func=_cmd_tcount)

    p = sub.add_parser("verify", help="compare a circuit against a target")
    p.add_argument("file", help="circuit file")
    p.add_argument("--target", required=True,
                   help="target expression, e.g. 'R x I' or 'C2[-TAU(12)]'")
    p.add_argument("--mode", choices=("exact", "phase", "cphase"),
                   default="exact",
                   help="exact equality, equality up to any unit phase, "
                        "or equality up to the given --phase")
    p.add_argument("--phase", default=None,
                   help="phase value for --mode cphase, e.g. '-omega^2'")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="recognition and obstruction checks")
    p.add_argument("file", help="circuit file")
    p.add_argument("--clifford", action="store_true",
                   help="test for Clifford with a conjugation certificate")
    p.add_argument("--hierarchy", type=int, metavar="N", default=None,
                   help="search hierarchy levels up to N (one or two qutrits)")
    p.add_argument("--ring", metavar="TAG", default=None,
                   help="entry-ring membership up to a unit phase "
                        "(Zomega, T, Tomega, Tzeta, D, Dalpha, A, Q36)")
    p.add_argument("--obstruct", action="store_true",
                   help="exact T-count consistency check (single qutrit)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="verify every shipped identity")
    p.set_defaults(func=_cmd_catalog)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        for name, value in vars(args).items():
            if value == []:  # argparse reads '--opt=--' as an empty list
                raise ValueError(f"--{name} needs a value")
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
