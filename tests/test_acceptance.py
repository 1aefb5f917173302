"""End-to-end acceptance gate: every check of `osl verify all`, one test each.

The thirteen acceptance criteria of the paper's claims are checks of the
``oseledets.verify`` battery, defined there once beside the library's
invariants (README's Testing section tables them).  Each check must pass
within the runtime budget its registration declares.
"""

import pytest

from oseledets import verify

CHECKS = {check.name: check for check in verify._suite("all")}


@pytest.mark.parametrize("name", CHECKS)
def test_check(name):
    result = verify.run_check(CHECKS[name])
    assert result.ok, result.message
    assert result.seconds < CHECKS[name].budget_s
