"""Every exported name resolves, so a pruned helper cannot stay listed, and
the README's library example runs as written."""

import importlib
import pathlib
import pkgutil
import re

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


def test_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    exec(example, {})
    assert capsys.readouterr().out.splitlines() == ["0x63", "{12: 735, 14: 2310, 16: 13965}"]
