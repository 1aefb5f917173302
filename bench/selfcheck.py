"""Self-check of the benchmark harness at tiny sizes (about a minute).

Usage, from the repository root:  python3 bench/selfcheck.py

- every metric named in BENCHMARK.json is printed with its unit, traced
  and untraced, and the traced counts repeat exactly for one seed;
- peak RSS is per child: a small ``osl`` run after a large one reads
  smaller;
- each output check fails on a corrupted output;
- without the sources beside it, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

SEED = 11


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END_UNITS, "end-to-end metrics and units match BENCHMARK.json")
    expect(layer == run.PER_LAYER_UNITS, "per-layer metrics and units match BENCHMARK.json")
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(workloads.make(workloads.FULL)), "workloads match BENCHMARK.json")


def tiny_runs(table) -> None:
    for wl in table.values():
        plain = run.run(wl, SEED, 0.0, trace=False)
        traced = [run.run(wl, SEED, 0.0, trace=True) for _ in range(2)]
        for result, units in ((plain, run.END_TO_END_UNITS), (traced[0], run.PER_LAYER_UNITS)):
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{wl.name}: correct, nothing failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == units, f"{wl.name}: every metric printed with its unit")
        counts = [{k: r["metrics"][k]["value"] for k in spans.COUNT_METRICS} for r in traced]
        expect(counts[0] == counts[1], f"{wl.name}: traced counts repeat exactly")


def per_child_rss(table, scratch: Path) -> None:
    call = table["flexible"].calls[0]
    large = workloads.make({**workloads.TINY, "bounded_steps": 200000})["flexible"].calls[0]
    (scratch / f"{call.name}.json").write_text(json.dumps(call.spec))
    big = run.spawn([*large.argv, "--out", "out"], scratch)
    small = run.spawn([*call.warmup, "--out", "out"], scratch)
    expect(big.code == 0 and small.code == 0 and small.rss_mb < 0.8 * big.rss_mb,
           f"peak RSS is per child ({small.rss_mb:.0f} MB after {big.rss_mb:.0f} MB)")


ONESTEP = "onestep_report.json"
ONESTEP_CSV = "onestep_tail.csv"
FLEX = "flexible_report.json"
FLEX_CSV = "flexible_steps.csv"


def _edit_json(path: Path, edit) -> None:
    """Edit a report; an onestep tail CSV is rewritten to match, as osl would."""
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    if path.name == ONESTEP:
        tail = obj["angle_tail"]
        rows = zip(tail["thresholds"], tail["truncated_means"], tail["stderrs"])
        (path.parent / ONESTEP_CSV).write_text(
            "threshold,truncated_mean,stderr\n" + "".join(f"{t},{m},{e}\n" for t, m, e in rows))


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _set_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)


# call -> label -> (file, edit, words the failure message must hold)
CORRUPTIONS = {
    "rotgain": {
        "verdict flipped": (ONESTEP, lambda o: o["angle_tail"].update(verdict="growing"), "verdict"),
        "top exponent off": (ONESTEP, lambda o: o["lambda_hat"].update(top="0.6", bottom="-0.6"),
                             "log cosh"),
        "det identity broken": (ONESTEP, lambda o: o["lambda_hat"].update(bottom="-0.4"), "det is 1"),
        "truncated mean off": (ONESTEP, lambda o: o["angle_tail"]["truncated_means"].__setitem__(3, "0.2"),
                               "quadrature"),
        "sample count short": (ONESTEP, lambda o: o["angle_tail"].update(sample_count=1), "sample_count"),
        "tail CSV off": (ONESTEP_CSV, lambda rows: _set_cell(rows, 2, 1, "0.5"), "disagrees"),
    },
    "heavy": {
        "verdict flipped": (ONESTEP, lambda o: o["angle_tail"].update(verdict="converging"), "verdict"),
        "contracting line moved": (ONESTEP, lambda o: o["directions"].update(contracting_line="0.5"),
                                   "first axis"),
        "top exponent off": (ONESTEP, lambda o: o["lambda_hat"].update(top="0.5", bottom="-1.5"),
                             "near 0"),
        "truncated mean off": (ONESTEP, lambda o: o["angle_tail"]["truncated_means"].__setitem__(2, "9.0"),
                               "reference"),
    },
    "bounded": {
        "cost above budget": (FLEX_CSV, lambda rows: _set_cell(rows, 5, 1, "0.75"), "budget"),
        "label jump": (FLEX_CSV, lambda rows: _set_cell(rows, 5, 2, "40"), "label"),
        "row missing": (FLEX_CSV, lambda rows: rows.pop(7), "rows"),
        "agreement low": (FLEX, lambda o: o["report"].update(agreement_fraction="0.5"), "agreement"),
        "exponent off": (FLEX, lambda o: o["report"].update(lambda_hat=["0.6", "-0.5"]), "exponents"),
    },
    "lowcost": {
        "mean cost above epsilon": (FLEX_CSV, lambda rows: [
            _set_cell(rows, i, 1, "1.0") for i in range(1, len(rows))], "epsilon"),
        "exponent off": (FLEX, lambda o: o["report"].update(lambda_hat=["0.5", "-0.6"]), "exponents"),
    },
}


def corrupted_outputs_fail(table, scratch: Path) -> None:
    calls = [call for wl in table.values() for call in wl.calls]
    expect({call.name for call in calls} == set(CORRUPTIONS), "every call has corruptions")
    for call in calls:
        run_dir = scratch / call.name
        run_dir.mkdir()
        osl_seed = run.prepare(call, SEED, run_dir)
        reference = call.reference(SEED)
        _, why = run.invoke(call, osl_seed, reference, run_dir)
        expect(why is None, f"{call.name}: intact outputs pass")
        for label, (name, edit, words) in CORRUPTIONS[call.name].items():
            bad = run_dir / "bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(run_dir / f"out-{call.name}", bad)
            (_edit_csv if name.endswith(".csv") else _edit_json)(bad / name, edit)
            try:
                call.check(bad, reference)
                message = ""
            except workloads.CheckFailed as err:
                message = str(err)
            expect(words in message, f"{call.name}: check fails on '{label}' ({message})")


def refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "flexible",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the sources run.py exits nonzero and prints no result")


def main() -> int:
    table = workloads.make(workloads.TINY)
    metric_names()
    tiny_runs(table)
    run.RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.RUNS))
    try:
        per_child_rss(table, scratch)
        corrupted_outputs_fail(table, scratch)
        refuses_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
