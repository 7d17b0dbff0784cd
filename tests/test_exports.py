"""Every name a module lists in ``__all__`` exists, so no re-export outlives its definition."""

import importlib
import pkgutil

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
