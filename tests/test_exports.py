import importlib
import pkgutil

import pytest

import eqss

MODULES = sorted(m.name for m in pkgutil.iter_modules(eqss.__path__))


def test_modules_are_found():
    assert {"cli", "cohomology", "forms", "linalg", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"eqss.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"eqss.{name}.__all__ names undefined {missing}"
