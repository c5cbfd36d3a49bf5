"""Schedules the acceptance suite's reference trainings around the rest of the suite.

Tests that need the 2,000-step reference trainings (through the
``reference_runs`` fixture) run last.  The trainings start in worker
processes once collection has selected such a test, so the other tests run
while they train.  The ``forward_calls`` fixture counts model forwards.
"""

import pytest

from redlab.enhancer import ToyEnhancer
from reference_training import ReferenceRuns

_RUNS = pytest.StashKey()


def _needs_runs(item) -> bool:
    return "reference_runs" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    items.sort(key=_needs_runs)  # stable: every other test keeps its order


def pytest_collection_finish(session):
    if not session.config.option.collectonly and any(map(_needs_runs, session.items)):
        session.config.stash[_RUNS] = ReferenceRuns()


def pytest_sessionfinish(session):
    runs = session.config.stash.get(_RUNS, None)
    if runs is not None:
        runs.close()


@pytest.fixture(scope="session")
def reference_runs(pytestconfig):
    """``reference_runs(name)``: (trained model, loss history, seconds) of one
    run of ``reference_training.RUNS``, waiting for it to finish."""
    return pytestconfig.stash[_RUNS].result


@pytest.fixture
def forward_calls(monkeypatch):
    """A list that gains one entry per ``ToyEnhancer.forward`` call in the test."""
    calls = []
    real = ToyEnhancer.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ToyEnhancer, "forward", counted)
    return calls
