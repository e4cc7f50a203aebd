"""Run the module-level doctests of every ``repro.analysis`` module.

Each analysis module's docstring states its inputs, outputs, and
AnalysisManager tier, and carries a small executable example; this test
keeps those examples honest under the plain ``pytest`` invocation
(tier-1 runs without ``--doctest-modules``).  A module added to the
package without a passing doctest fails here.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.analysis

MODULES = sorted(
    f"repro.analysis.{info.name}"
    for info in pkgutil.iter_modules(repro.analysis.__path__)
)


def test_every_module_is_covered():
    assert "repro.analysis.bitset" in MODULES
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctest(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failure(s)"
    assert results.attempted > 0, f"{module_name} docstring has no doctest"
