"""Keep tier-1 independent of the caller's environment, and stub the battery."""

import pytest

from oseledets import verify


@pytest.fixture(autouse=True)
def _no_default_seed(monkeypatch):
    # a test that wants OSL_DEFAULT_SEED sets it with monkeypatch.setenv
    monkeypatch.delenv("OSL_DEFAULT_SEED", raising=False)


@pytest.fixture
def stub_checks(monkeypatch):
    """Swap the battery for two stubs: a fast check that passes, a slow one that fails."""
    passes = verify._Check("stub.passes", True, 1.0, lambda: None)
    fails = verify._Check("stub.fails", False, 1.0, lambda: verify._expect(False, "on purpose"))
    monkeypatch.setattr(verify, "_CHECKS", [passes, fails])
