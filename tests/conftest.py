"""Fixtures shared by the test modules."""

from collections import Counter

import pytest


@pytest.fixture
def counted(monkeypatch):
    """Count calls of a function of a module, by name, while the test runs."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    yield calls, count
