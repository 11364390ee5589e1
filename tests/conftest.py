"""Fixtures shared by every test module."""

import pytest

from cherednik import verma

_CLASS_VERDICT = verma._class_verdict  # the memo under verma.classify


@pytest.fixture(autouse=True)
def _verdict_memo_keeps_nothing(monkeypatch):
    # every classify of a test runs the engine: a kept verdict would answer a
    # twist or a repeat, and so before a fault that a test injects could run
    monkeypatch.setattr(verma, "_class_verdict", _CLASS_VERDICT.__wrapped__)
    _CLASS_VERDICT.cache_clear()


@pytest.fixture
def verdict_memo(monkeypatch):
    """The verdict memo under classify, empty and in use: for the tests of
    the memo itself."""
    monkeypatch.setattr(verma, "_class_verdict", _CLASS_VERDICT)
    _CLASS_VERDICT.cache_clear()
