"""Fixtures shared by every test module: each test starts with an empty
verdict memo, as a fresh process does, and runs it as shipped."""

import pytest

from cherednik import verma


@pytest.fixture(autouse=True)
def _memo_starts_empty():
    verma.classify.cache_clear()
