"""Keep tier-1 independent of the caller's environment."""

import pytest


@pytest.fixture(autouse=True)
def _no_default_seed(monkeypatch):
    # a test that wants OSL_DEFAULT_SEED sets it with monkeypatch.setenv
    monkeypatch.delenv("OSL_DEFAULT_SEED", raising=False)
