"""Command-line interface: target matrices and subcommands."""

from qutrit_exact.cli.catalog import CLAIMS, run_catalog
from qutrit_exact.cli.target import parse_phase_value, parse_target

__all__ = [
    "CLAIMS",
    "parse_phase_value",
    "parse_target",
    "run_catalog",
]
