"""Tests for the named invariant battery.

Oracles: the battery itself must pass on a healthy tree; a deliberately
corrupted svd2 must surface as a failure naming the broken invariant
(negative control for the battery's sensitivity).
"""

import ast
import io
import os
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


@pytest.fixture(scope="module")
def fast_run():
    # the healthy fast suite runs once; its results and printed report are shared
    out = io.StringIO()
    results = verify.run_suite("fast", out=out)
    return results, out.getvalue()


def test_fast_suite_passes(fast_run):
    results, text = fast_run
    assert results and all(r.ok for r in results)
    assert f"{len(results)}/{len(results)} checks passed" in text
    for r in results:
        assert f"PASS {r.name} ({r.seconds:.2f}s)" in text


def test_results_report_timing_and_messages(fast_run):
    results, _ = fast_run
    for r in results:
        assert r.seconds >= 0.0
        assert r.message == ""


def test_corrupted_svd2_is_a_named_failure(monkeypatch):
    real = gl2.svd2

    def corrupted(g):
        sv = real(g)
        return sv._replace(left=gl2.canon_line(sv.left + 0.4))

    monkeypatch.setattr(gl2, "svd2", corrupted)
    results = verify.run_suite("fast", out=io.StringIO())
    bad = [r for r in results if not r.ok]
    assert bad, "a corrupted svd2 must be caught"
    assert any(r.name.startswith("gl2.svd") for r in bad)
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
        print(" ".join(r.name for r in verify.run_suite("fast", out=io.StringIO()) if not r.ok))
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
