"""Command-line interface: the claim catalog; ``cli.main`` (not imported here) runs the commands."""

from qutrit_exact.cli.catalog import CLAIMS, run_catalog

__all__ = [
    "CLAIMS",
    "run_catalog",
]
