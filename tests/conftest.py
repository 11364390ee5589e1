"""Fixtures shared by every test module."""

import pytest

from cherednik import verma


@pytest.fixture(autouse=True)
def _verdict_memo_keeps_nothing(monkeypatch):
    # every classify of a test runs the engine: a kept verdict would answer a
    # twist or a repeat, and so before a fault that a test injects could run
    monkeypatch.setattr(verma._VERDICTS, "budget", 0)
    verma.classify.cache_clear()


@pytest.fixture
def verdict_memo(monkeypatch):
    """The verdict memo under classify, empty and at its budget: for the
    tests of the memo itself."""
    monkeypatch.setattr(verma._VERDICTS, "budget", verma.VERDICT_BUDGET)
    verma.classify.cache_clear()
