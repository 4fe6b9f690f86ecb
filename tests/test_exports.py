"""Every name a barrierpd module exports in __all__ resolves.

A deletion that forgets the module's __all__ entry fails here rather than at
a user's ``from barrierpd.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import barrierpd

MODULES = sorted(
    name
    for name in (f"barrierpd.{m.name}" for m in pkgutil.iter_modules(barrierpd.__path__))
    if hasattr(importlib.import_module(name), "__all__")
)


def test_modules_with_exports_are_found():
    assert {"barrierpd.imaging", "barrierpd.jordan", "barrierpd.pedi"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
