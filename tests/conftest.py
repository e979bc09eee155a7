"""Fixtures shared between test modules."""

import pytest

from triboverify import triples


@pytest.fixture
def fresh_search_sweep(monkeypatch):
    """A new shared search sweep of the default table for one test, so that
    a test counting the z searched sees none done before it, whatever ran
    earlier in the process."""
    sweep = triples.SearchSweep()
    monkeypatch.setattr(triples, "_DEFAULT_SWEEP", sweep)
    return sweep
