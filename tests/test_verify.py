"""Tests for the named invariant battery.

Oracles: stub checks for the runner's report; the healthy fast suite under
python -O; a corrupted svd2 must fail by name (negative control for the
battery's sensitivity); README's criterion table against the registrations.
"""

import ast
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oseledets import gl2, verify


def test_suite_names_and_membership():
    fast = [c.name for c in verify._suite("fast")]
    full = [c.name for c in verify._suite("all")]
    assert set(fast) < set(full)
    assert len(full) == len(set(full))  # names are unique
    assert all("." in name for name in full)  # module-qualified
    with pytest.raises(ValueError):
        verify._suite("bogus")
    with pytest.raises(ValueError):
        verify.run_suite("bogus")


@pytest.fixture
def stub_run(stub_checks):
    out = io.StringIO()
    return verify.run_suite("all", out=out), out.getvalue()


def test_fast_suite_passes(stub_run):
    (ok, bad), text = stub_run
    assert text.splitlines() == [
        f"PASS stub.passes ({ok.seconds:.2f}s)",
        f"FAIL stub.fails ({bad.seconds:.2f}s): AssertionError: on purpose",
        "1/2 checks passed",
    ]


def test_results_report_timing_and_messages(stub_run):
    results, _ = stub_run
    assert all(r.seconds >= 0.0 for r in results)
    assert [r.message for r in results] == ["", "AssertionError: on purpose"]


def test_corrupted_svd2_is_a_named_failure(monkeypatch):
    real = gl2.svd2

    def corrupted(g):
        sv = real(g)
        return sv._replace(left=gl2.canon_line(sv.left + 0.4))

    monkeypatch.setattr(gl2, "svd2", corrupted)
    svd_checks = [c for c in verify._suite("fast") if c.name.startswith("gl2.svd")]
    bad = [r for r in map(verify.run_check, svd_checks) if not r.ok]
    assert bad, "a corrupted svd2 must be caught by a gl2.svd* check"
    for r in bad:
        assert r.message  # the failure explains itself


def test_battery_survives_python_optimize():
    # -O strips assert statements: the healthy battery must still pass and
    # the corrupted svd2 above must still fail a gl2.svd* check
    code = textwrap.dedent("""
        import io
        from oseledets import gl2, verify

        healthy = verify.run_suite("fast", out=io.StringIO())
        print(sum(not r.ok for r in healthy))
        real = gl2.svd2

        def corrupted(g):
            sv = real(g)
            return sv._replace(left=gl2.canon_line(sv.left + 0.4))

        gl2.svd2 = corrupted
        svd_checks = [c for c in verify._suite("fast") if c.name.startswith("gl2.svd")]
        print(" ".join(r.name for r in map(verify.run_check, svd_checks) if not r.ok))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    healthy_failures, corrupted_failures = proc.stdout.splitlines()
    assert healthy_failures == "0"
    assert any(name.startswith("gl2.svd") for name in corrupted_failures.split())


def test_src_has_no_assert_statements():
    # python -O strips assert: the battery and the runtime contracts raise instead
    src = Path(verify.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_readme_criterion_table_matches_registrations():
    # each table row: number | criterion | checks | budget(s) | fast
    registered = {(c.name, c.budget_s, c.fast) for c in verify._suite("all")}
    rows = {}
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"\d\d", cells[0]):
            names = re.findall(r"`([^`]+)`", cells[2])
            budgets = [float(b) for b in re.findall(r"([\d.]+) s\b", cells[3])]
            assert names and len(budgets) == len(names) and cells[4] in ("yes", "no"), line
            for name, budget in zip(names, budgets):
                assert (name, budget, cells[4] == "yes") in registered, line
            rows[cells[0]] = names
    assert sorted(rows) == [f"{n:02d}" for n in range(1, 14)]
    # each `# criterion NN` comment marks a check that its table row names
    source = Path(verify.__file__).read_text()
    marked = re.findall(r"# criterion (\d\d)\b.*\n@_check\(\"([^\"]+)\"", source)
    assert sorted(number for number, _ in marked) == sorted(rows)
    assert all(name in rows[number] for number, name in marked), marked
