"""The traced benchmark child still runs against the library.

``bench/spans.py`` wraps library functions by name and reads their
arguments by name, so a renamed function or parameter breaks the traced
benchmark run.  Oracle: the exit code of ``bench/child.py`` in a fresh
interpreter, and the work counters that ``spans.layer_metrics`` reads
from its trace file.  Each call is a benchmark call at its warm-up size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the counter each call's sampler or writer must move
COUNTERS = {
    "rotgain": "estimation.angle_matrix_steps",
    "heavy": "estimation.neglog_terms",
    "bounded": "flexible.csv_rows",
}


@pytest.fixture(scope="module")
def bench_modules():
    # no bytecode is cached under bench/: the test only reads it
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode, keep = True, sys.dont_write_bytecode
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = keep
    calls = [c for w in workloads.make(workloads.TINY).values() for c in w.calls]
    return spans, {c.name: c for c in calls}


@pytest.mark.parametrize("name", COUNTERS)
def test_traced_child_counts_its_work(name, bench_modules, tmp_path):
    spans, calls = bench_modules
    call = calls[name]
    (tmp_path / f"{name}.json").write_text(json.dumps(call.spec))
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(tmp_path / "stamp"), str(trace),
           *call.warmup, "--seed", "7", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    metrics = spans.layer_metrics(json.loads(trace.read_text()))
    assert metrics[COUNTERS[name]] > 0
