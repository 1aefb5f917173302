"""End-to-end benchmark of the ``osl`` command line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs the workload's ``osl`` invocations in order, each
through ``oseledets.cli.main`` in a fresh interpreter (``bench/child.py``),
single-threaded (``--jobs 1`` and one BLAS/OpenMP thread), timed from
outside and checked after it exits by ``bench/workloads.py``.  Operations
repeat until ``--seconds`` have passed.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics (medians
over the operations); with ``--trace 1`` one more operation runs with
every layer wrapped (``bench/spans.py``) and the object holds the
per-layer metrics instead.  See ``bench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # children inherit these; set before numpy loads here
    os.environ[_var] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
CHILD_LIMIT_S = 120.0
SEED_CANDIDATES = 8

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_rate": "1/s"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: "s" for name in spans.TIME_METRICS},
    **{name: "count" for name in spans.COUNT_METRICS},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


@dataclass(frozen=True)
class Child:
    """One finished ``osl`` process."""

    code: int
    wall_s: float    # spawn to reaped exit
    setup_s: float   # spawn to just before main(); nan if it never got there
    rss_mb: float    # this child's own peak RSS
    stderr: str


def child_env() -> dict:
    """This environment (one thread per library), with the checkout's
    sources on the path, bytecode caching on and no default seed."""
    env = {k: v for k, v in os.environ.items() if k != "OSL_DEFAULT_SEED"}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path, trace_file: Path | None = None) -> Child:
    """Run ``osl argv`` through child.py and reap it with ``os.wait4``, so
    the peak RSS is this child's alone (``RUSAGE_CHILDREN`` would keep the
    maximum over every child this process has run)."""
    stamp = cwd / "stamp.txt"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(stamp),
           "-" if trace_file is None else str(trace_file), *argv]
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        setup = float(stamp.read_text()) - t0
    except (OSError, ValueError):
        setup = float("nan")
    return Child(proc.returncode, t1 - t0, setup, usage.ru_maxrss / 1024.0,
                 (cwd / "stderr.txt").read_text(errors="replace"))


def osl_seeds(seed: int):
    """Candidate ``--seed`` values for ``osl``: the run seed first."""
    for j in range(SEED_CANDIDATES):
        yield (seed + j * 0x9E3779B97F4A7C15) % 2**64


def prepare(call: workloads.Call, seed: int, run_dir: Path) -> int:
    """Write the call's spec, warm the interpreter's caches with a small
    invocation, and return the ``osl`` seed to use.  A seed whose warm-up
    ends in the call's known fault is replaced by the next candidate."""
    (run_dir / f"{call.name}.json").write_text(json.dumps(call.spec, sort_keys=True))
    out = f"out-{call.name}"
    for osl_seed in osl_seeds(seed):
        shutil.rmtree(run_dir / out, ignore_errors=True)
        warm = spawn([*call.warmup, "--seed", str(osl_seed), "--out", out], run_dir)
        if warm.code == 0:
            return osl_seed
        if call.skip_fault is None or call.skip_fault not in warm.stderr:
            raise BenchError(f"{call.name} warm-up failed with exit {warm.code}:\n{warm.stderr}")
        print(f"{call.name}: seed {osl_seed} meets the known fault {call.skip_fault}; "
              "next candidate", file=sys.stderr)
    raise BenchError(f"{call.name}: no candidate seed avoids {call.skip_fault}")


def invoke(call, osl_seed, reference, run_dir, trace_file=None) -> tuple[Child, str | None]:
    """Run one call of ``osl`` and check its outputs.  Returns the child
    and the reason it failed, or None."""
    out = run_dir / f"out-{call.name}"
    shutil.rmtree(out, ignore_errors=True)
    child = spawn([*call.argv, "--seed", str(osl_seed), "--out", out.name], run_dir, trace_file)
    if child.code != 0:
        return child, f"{call.name}: exit {child.code}: {child.stderr.strip()[-500:]}"
    try:
        call.check(out, reference)
    except (workloads.CheckFailed, OSError, ValueError, KeyError) as err:
        return child, f"{call.name}: check failed: {type(err).__name__}: {err}"
    return child, None


def operate(wl, osl_seeds, references, run_dir, traced=False) -> tuple[list[Child], str | None]:
    """One operation: every call of the workload in order, each checked
    after it exits.  The first failure ends the operation."""
    children = []
    for call, osl_seed, reference in zip(wl.calls, osl_seeds, references):
        trace_file = run_dir / f"trace-{call.name}.json" if traced else None
        child, why = invoke(call, osl_seed, reference, run_dir, trace_file)
        children.append(child)
        if why is not None:
            return children, why
    return children, None


def measure(wl, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    osl_seeds = [prepare(call, seed, run_dir) for call in wl.calls]
    references = [call.reference(seed) for call in wl.calls]
    good: list[list[Child]] = []
    attempted = failed = 0
    wrong = False
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        children, why = operate(wl, osl_seeds, references, run_dir)
        attempted += 1
        if why is None:
            good.append(children)
        else:
            failed += 1
            wrong = wrong or "check failed" in why
            print(f"operation {attempted} failed: {why}", file=sys.stderr)
    if not good:
        raise BenchError("every operation failed")
    walls = [sum(c.wall_s for c in op) for op in good]
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(c.setup_s for op in good for c in op),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in op) for op in good),
            "work_rate": statistics.median(wl.work / w for w in walls),
        }
        units = END_TO_END_UNITS
    else:
        children, why = operate(wl, osl_seeds, references, run_dir, traced=True)
        attempted += 1
        if why is not None:
            raise BenchError(f"traced operation failed: {why}")
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
        for call in wl.calls:
            dump = json.loads((run_dir / f"trace-{call.name}.json").read_text())
            for name, value in spans.layer_metrics(dump).items():
                metrics[name] += value
        metrics["trace.overhead_s"] = sum(c.wall_s for c in children) - statistics.median(walls)
        units = PER_LAYER_UNITS
    print(f"{wl.name}: {len(good)} timed operations, osl seeds {osl_seeds}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Measure in a scratch directory under the checkout, removed afterwards."""
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUNS))
    try:
        return measure(wl, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    table = workloads.make(workloads.FULL)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oseledets" / "cli.py").is_file():
        print(f"no oseledets sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(table[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
