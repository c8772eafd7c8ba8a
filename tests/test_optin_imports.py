"""The opt-in suites import cleanly.

Tier-1 never collects tests/optin_*.py (the names do not match test_*.py),
so a library or test name that one of them imports could be deleted or
renamed without a failing test.  These tests import each module and run
none of its cases.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["optin_high_n", "optin_exact_rates", "optin_eps_layout"])
def test_optin_module_imports(module):
    assert importlib.import_module(module).__file__.endswith(f"{module}.py")
