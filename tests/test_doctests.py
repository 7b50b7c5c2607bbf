"""The ``>>>`` examples in stratakit's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import stratakit


def test_docstring_examples_hold():
    names = ["stratakit"] + [m.name for m in pkgutil.iter_modules(stratakit.__path__, "stratakit.")]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert results["stratakit.gf"].attempted == 5
