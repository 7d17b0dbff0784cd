"""Circuit intermediate representation, text format, and macro expansion."""

from qutrit_exact.circuit.core import (
    BASE_KINDS,
    Circuit,
    Op,
    SINGLE_QUTRIT_KINDS,
    TAU_LABELS,
    adjoint,
    op_text,
    print_circuit,
    tensor,
)
from qutrit_exact.circuit.macros import (
    DATA_ENV,
    circuits_dir,
    expand_macros,
    load_named,
    macro_names,
    t_count,
)
from qutrit_exact.circuit.parse import parse_circuit, parse_target

__all__ = [
    "BASE_KINDS",
    "Circuit",
    "DATA_ENV",
    "Op",
    "SINGLE_QUTRIT_KINDS",
    "TAU_LABELS",
    "adjoint",
    "circuits_dir",
    "expand_macros",
    "load_named",
    "macro_names",
    "op_text",
    "parse_circuit",
    "parse_target",
    "print_circuit",
    "t_count",
    "tensor",
]
