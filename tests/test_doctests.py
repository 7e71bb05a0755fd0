"""Run the doctests embedded in the library's public docstrings."""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.session",
    "repro.search",
    "repro.core.intern",
    "repro.core.join",
    "repro.ted.api",
    "repro.ted.cutoff",
    "repro.ted.string_edit",
    "repro.ted.zhang_shasha",
    "repro.ted.binary_branch",
    "repro.baselines.nested_loop",
    "repro.baselines.str_join",
    "repro.baselines.set_join",
    "repro.baselines.histogram_join",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"expected doctests in {name}"
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"
