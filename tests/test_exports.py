"""Every name a module lists in ``__all__`` exists, so no re-export outlives its definition;
the private layout of ``rings.cyclo`` and ``rings.packed`` stays inside ``rings/``, and the
text cursor of ``circuit.parse`` inside that module."""

import ast
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
    """Every name ``perfbench/tracing.py`` rebinds exists but three: a rename fails here, not
    in a trace.  The three stay reported missing until the hook table is rebound: the two
    ``sim.compare`` hooks, because verify reads its scalar off the packed rows with
    ``circuit_scalar`` and ``cli.main`` no longer binds ``equal_exact`` or
    ``equal_up_to_phase``; and the hook of the monomial-equivalence search that the direct
    bordered test replaced."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [label.split()[0] for label in tracer.missing] == [
            "sim.compare", "sim.compare", "adjoint.patterns"]
    finally:
        tracer.uninstall()


def _imported_names(path: Path, package: str):
    """(absolute module, name) for each ``from ... import name`` in one source file."""
    parts = package.split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def _private_imports(module: str, allowed) -> list[str]:
    """``path: name`` for each ``_``-prefixed name imported from ``module`` by a package
    file for which ``allowed(root, path)`` is false."""
    root = Path(qutrit_exact.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if allowed(root, path):
            continue
        package = ".".join(("qutrit_exact",) + path.relative_to(root).parent.parts)
        offenders += [
            f"{path.relative_to(root)}: {name}"
            for imported, name in _imported_names(path, package)
            if imported == module and name.startswith("_")
        ]
    return offenders


@pytest.mark.parametrize("module", ["qutrit_exact.rings.cyclo", "qutrit_exact.rings.packed"])
def test_ring_internals_stay_in_rings(module):
    """Only ``rings/`` imports the ``_``-prefixed helpers of the 12-numerator arithmetic
    and of the packed-integer kernel; the adjoint and the matrix product use public names."""
    offenders = _private_imports(module, lambda root, path: (root / "rings") in path.parents)
    assert not offenders, offenders


def test_parse_internals_stay_in_parse():
    """No module imports the line cursor or the other private names of ``circuit.parse``."""
    offenders = _private_imports("qutrit_exact.circuit.parse", lambda root, path: False)
    assert not offenders, offenders
