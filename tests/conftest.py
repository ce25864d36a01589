"""Shared test configuration.

Hypothesis deadlines are disabled: the property tests exercise exact
rational arithmetic whose per-example cost varies with the drawn
coefficients and with machine load, so wall-clock deadlines only add
flakiness.

The benchmark's ``bench/workloads.py`` holds the golden CLI outputs'
inputs and the one loader of ``bench/golden.json``; it imports only the
standard library, and is imported here without writing a ``.pyc`` under
``bench/``.
"""

import os
import sys

import pytest
from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode


@pytest.fixture(scope="session")
def golden():
    """``bench/golden.json``: the outputs recorded at the seed commit."""
    return workloads.load_golden()
