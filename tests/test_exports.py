import importlib
import pkgutil

import pytest

import ptdfa

# Every module of the package that declares a public API; the command
# line modules declare none.
MODULES = ["ptdfa"] + [f"ptdfa.{info.name}"
                       for info in pkgutil.iter_modules(ptdfa.__path__)
                       if info.name not in ("__main__", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
