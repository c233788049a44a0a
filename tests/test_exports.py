import importlib
import pkgutil

import pytest

import afem_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(afem_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails here,
    # not at a user's ``from afem_lab.<module> import *``
    module = importlib.import_module(f"afem_lab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
