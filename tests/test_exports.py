"""Every exported name resolves, so a pruned helper cannot stay listed."""

import importlib
import pkgutil

import pytest

import crcforge

MODULES = sorted(info.name for info in pkgutil.iter_modules(crcforge.__path__))


@pytest.mark.parametrize("module", ["crcforge"] + [f"crcforge.{name}" for name in MODULES])
def test_star_import_gives_every_listed_name(module):
    names = getattr(importlib.import_module(module), "__all__", [])
    assert len(set(names)) == len(names), "duplicate __all__ entries"
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert [name for name in names if name not in namespace] == []
