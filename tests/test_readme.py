"""README.md names only what the package has.

Every backticked `module.name` with a package module in front must be an
attribute of that module or the name of an `osl verify all` check, and
every "`module.CONSTANT` = value" must state the constant's value.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import oseledets
from oseledets import verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(oseledets.__path__))
NAMED = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_][A-Za-z0-9_]*)`")
# a stated value: an integer, a float or a power a^b, maybe across a line break
STATED = re.compile(rf"`({'|'.join(MODULES)})\.([A-Z][A-Z0-9_]*)`\s*=\s*([0-9.]+(?:\^[0-9]+)?)")

NAMES = sorted(set(NAMED.findall(README)))
CHECKS = {check.name for check in verify._suite("all")}


def test_readme_names_some_of_the_package():
    # 8 module attributes (3 with a stated value) and 16 battery checks when
    # this test was written
    assert len(NAMES) >= 20
    assert len(STATED.findall(README)) >= 3


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_named_object_exists(module, name):
    mod = importlib.import_module(f"oseledets.{module}")
    assert hasattr(mod, name) or f"{module}.{name}" in CHECKS, f"{module}.{name}"


def _value(text: str) -> float:
    base, _, power = text.partition("^")
    return float(base) ** int(power) if power else float(base)


@pytest.mark.parametrize("module,name,stated", STATED.findall(README))
def test_stated_constant_matches_code(module, name, stated):
    actual = getattr(importlib.import_module(f"oseledets.{module}"), name)
    assert _value(stated) == actual, f"README: {module}.{name} = {stated}, code: {actual}"
