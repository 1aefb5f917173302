"""End-to-end acceptance gate: every check of `osl verify all`, one test each.

The thirteen acceptance criteria of the paper's claims are checks of the
``oseledets.verify`` battery, defined there once beside the library's
invariants (README's Testing section tables them).  Each check must pass
within the runtime budget its registration declares.  Criteria 01, 05 and
13 also keep a test of their own name, which reads the same single run of
their check.
"""

import functools

import pytest

from oseledets import verify

CHECKS = {check.name: check for check in verify._suite("all")}


@functools.lru_cache(maxsize=None)
def _run(name: str) -> verify.CheckResult:
    return verify.run_check(CHECKS[name])


def _expect_passes(name: str) -> None:
    result = _run(name)
    assert result.ok, result.message
    assert result.seconds < CHECKS[name].budget_s


@pytest.mark.parametrize("name", CHECKS)
def test_check(name):
    _expect_passes(name)


def test_criterion_01_pair_map_singular_values_closed_form():
    _expect_passes("gl2.pair_map_singular_values_closed_form")


def test_criterion_05_sup_mean_exact_vs_monte_carlo():
    _expect_passes("estimation.sup_mean_exact_vs_monte_carlo")


def test_criterion_13_negative_drift_supremum():
    _expect_passes("estimation.negative_drift_supremum_law")
