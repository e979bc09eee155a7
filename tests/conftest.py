"""Fixtures shared between test modules."""

import pytest

from triboverify import expansion, triples


@pytest.fixture(autouse=True)
def _fresh_expansion_errors():
    """No measured expansion error remembered from an earlier test, so a
    test that patches what the error is computed from, or counts its
    computations, sees them happen."""
    expansion.expansion_error.cache_clear()
    yield
    expansion.expansion_error.cache_clear()


@pytest.fixture
def fresh_search_sweep(monkeypatch):
    """A new shared search sweep of the default table for one test, so that
    a test counting the z searched sees none done before it, whatever ran
    earlier in the process."""
    sweep = triples.SearchSweep()
    monkeypatch.setattr(triples, "_DEFAULT_SWEEP", sweep)
    return sweep
