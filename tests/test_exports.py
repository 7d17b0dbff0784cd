"""Every name a module lists in ``__all__`` exists, so no re-export outlives its definition."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import qutrit_exact

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(qutrit_exact.__path__, "qutrit_exact.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_perfbench_trace_hooks_resolve():
    """Every name ``perfbench/tracing.py`` rebinds exists: a rename fails here, not in a trace."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
