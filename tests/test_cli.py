"""Tests for the osl command-line front end.

Oracles: exit codes against the documented contract (0 success, 1 battery
failure, 2 infeasible construction, 64 usage error); diagonal-atom
exponents against the closed form; byte determinism by running twice.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oseledets import cli, flexible, gl2, scalars
from oseledets.cocycle import MatrixDistribution, atoms_distribution, triangular_distribution
from oseledets.estimation import build_counterexample_cocycle
from oseledets.flexible import (
    EtaSpec,
    TailRule,
    atom_cell,
    decompose_eta,
    direction_depth,
    piece_cost_caps,
    uniform_cell,
)
from oseledets.gl2 import NotInvertible

DIAG = atoms_distribution([(((2.0, 0.0), (0.0, 0.5)), 1.0)])

TWO_CELL = EtaSpec(
    pieces=(
        (0.6, uniform_cell(0.2, 0.9, 0.4, 0.6)),
        (0.4, uniform_cell(1.5, 2.2, 0.9, 1.1)),
    )
)
# its largest certified cost cap C at rates 0.5,-0.5: lowcost mode puts the
# costliest piece on a tower more than 2 C / epsilon high
TWO_CELL_CAP = float(piece_cost_caps(decompose_eta(TWO_CELL), 0.5, -0.5)[-1])


def write_spec(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(obj.to_json())
    return str(path)


# ---------------------------------------------------------------------------
# onestep


def test_onestep_diag_atom_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "nu.json", DIAG)
    code = cli.main(
        ["onestep", "--spec", spec, "--steps", "1500", "--trials", "64",
         "--seed", "3", "--out", str(tmp_path / "r")]
    )
    assert code == 0
    obj = json.loads((tmp_path / "r" / "onestep_report.json").read_text())
    assert float(obj["lambda_hat"]["top"]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert float(obj["lambda_hat"]["bottom"]) == pytest.approx(-math.log(2.0), abs=1e-12)
    # constant diagonal atoms keep the splitting on the axes
    assert float(obj["directions"]["gap_angle"]) == pytest.approx(math.pi / 2, abs=1e-9)
    assert obj["angle_tail"]["verdict"] == "converging"
    assert obj["config"]["command"] == "onestep" and obj["seed"] == "3"
    csv = (tmp_path / "r" / "onestep_tail.csv").read_text().splitlines()
    assert csv[0] == "threshold,truncated_mean,stderr"
    assert "wrote" in capsys.readouterr().out


def test_onestep_counterexample_grows(tmp_path):
    spec = write_spec(tmp_path, "nu.json", build_counterexample_cocycle())
    code = cli.main(
        ["onestep", "--spec", spec, "--steps", "1200", "--trials", "60000",
         "--seed", "1", "--out", str(tmp_path), "--thresholds", "4,8,16,32,64"]
    )
    assert code == 0
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert obj["angle_tail"]["verdict"] == "growing"


def test_onestep_jobs_do_not_change_samples(tmp_path):
    spec = write_spec(tmp_path, "nu.json", DIAG)
    blobs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        code = cli.main(
            ["onestep", "--spec", spec, "--steps", "1100", "--trials", "80",
             "--seed", "5", "--jobs", jobs, "--out", str(tmp_path / sub)]
        )
        assert code == 0
        blobs.append(
            [(tmp_path / sub / name).read_bytes()
             for name in ("onestep_report.json", "onestep_tail.csv")]
        )
    assert blobs[0] == blobs[1]


def test_onestep_rarely_signed_law_uses_matrix_sampler(tmp_path, capsys):
    # a < 0 has probability 0.001: a small probe would rarely see it, the
    # law's support always does, so the run never reaches the log domain
    nu = triangular_distribution(
        scalars.atoms([(-0.5, 0.001), (0.5, 0.999)]), scalars.uniform(0.5, 1.5)
    )
    spec = write_spec(tmp_path, "nu.json", nu)
    code = cli.main(
        ["onestep", "--spec", spec, "--trials", "2000", "--seed", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert obj["angle_tail"]["sample_count"] == 2000


def test_onestep_law_supported_from_zero_uses_log_domain(tmp_path, monkeypatch):
    # a ~ uniform(0, 1): its closed support starts at 0, which the log
    # domain takes (log 0 = -inf drops later terms); the matrix sampler
    # would form b = exp(psi) and overflow once psi >= 1024
    from oseledets import estimation

    def no_matrix_sampler(*args, **kwargs):
        raise AssertionError("routed to the matrix-product sampler")

    monkeypatch.setattr(estimation, "oseledets_angle_samples", no_matrix_sampler)
    nu = triangular_distribution(scalars.uniform(0.0, 1.0), scalars.dyadic(), log_scale_b=True)
    spec = write_spec(tmp_path, "nu.json", nu)
    code = cli.main(["onestep", "--spec", spec, "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert obj["angle_tail"]["sample_count"] == obj["config"]["trials"]


def test_onestep_expanding_a_uses_the_matrix_sampler(tmp_path):
    # a = 2 almost surely: the first axis is expanding, so the log-domain
    # series does not apply; the gap angle of this law is about 0.8 rad
    nu = triangular_distribution(scalars.constant(2.0), scalars.uniform(0.5, 1.5))
    spec = write_spec(tmp_path, "nu.json", nu)
    argv = ["onestep", "--spec", spec, "--steps", "2000", "--trials", "4000", "--seed", "1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    tail = json.loads((tmp_path / "onestep_report.json").read_text())["angle_tail"]
    means = [float(m) for m in tail["truncated_means"]]
    assert means[0] < float(tail["thresholds"][0])
    assert tail["verdict"] == "converging"


def test_import_does_not_load_scipy():
    code = "import sys, oseledets.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_defers_process_pool_and_battery():
    # both load only for the run that needs them: --jobs > 1 and `osl verify`
    code = (
        "import sys, oseledets.cli; "
        "sys.exit(any(m in sys.modules for m in ('concurrent.futures.process', 'oseledets.verify')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_module_run_prints_no_runpy_warning():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "oseledets.cli", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "onestep" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_onestep_jobs_do_not_change_stopped_samples(tmp_path):
    # rotgain has bounded condition: each chunk's halves stop at their own depth
    nu = MatrixDistribution.from_obj({
        "kind": "rotgain",
        "angle": {"kind": "uniform", "lo": "0.0", "hi": repr(math.pi)},
        "log_gain": {"kind": "atoms", "values": ["1.0"], "weights": ["1.0"]},
    })
    assert nu.bounded_condition
    spec = write_spec(tmp_path, "nu.json", nu)
    blobs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        code = cli.main(
            ["onestep", "--spec", spec, "--steps", "1100", "--trials", "3000",
             "--seed", "6", "--jobs", jobs, "--out", str(tmp_path / sub)]
        )
        assert code == 0
        blobs.append(
            [(tmp_path / sub / name).read_bytes()
             for name in ("onestep_report.json", "onestep_tail.csv")]
        )
    assert blobs[0] == blobs[1]


def test_onestep_signed_law_with_underflowing_angles_exits_zero(tmp_path, capsys):
    # a = +-0.3 with a dyadic log|b|: some gap angles underflow to 0 (below
    # float resolution) and some b = e^psi overflow a float
    nu = triangular_distribution(
        scalars.atoms([(-0.3, 0.5), (0.3, 0.5)]), scalars.dyadic(), log_scale_b=True
    )
    spec = write_spec(tmp_path, "nu.json", nu)
    code = cli.main(
        ["onestep", "--spec", spec, "--steps", "1000", "--trials", "20000",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert obj["angle_tail"]["sample_count"] == 20000
    assert all(0.0 < float(m) <= t for m, t in
               zip(obj["angle_tail"]["truncated_means"], cli.DEFAULT_THRESHOLDS))


@pytest.mark.parametrize("lo,hi", [(90.0, 110.0), (350.0, 360.0), (700.0, 705.0)])
def test_onestep_short_products_of_huge_gains_exit_zero(lo, hi, tmp_path, capsys):
    # depth-8 direction products of log-gains near 100 overflow a float
    # unless every pair product is renormalized, and past about 354 unless
    # each factor is renormalized before the first pair
    nu = MatrixDistribution.from_obj({
        "kind": "rotgain",
        "angle": {"kind": "uniform", "lo": "0.0", "hi": repr(math.pi)},
        "log_gain": {"kind": "uniform", "lo": repr(lo), "hi": repr(hi)},
    })
    spec = write_spec(tmp_path, "nu.json", nu)
    code = cli.main(
        ["onestep", "--spec", spec, "--steps", "2000", "--trials", "400",
         "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert lo < float(obj["lambda_hat"]["top"]) < hi


@pytest.mark.parametrize("entries", [
    ((1e200, 0.0), (0.0, 1e200)),
    ((1e300, 1e300), (1e300, -1e300)),
])
def test_onestep_determinant_past_the_float_range(entries, tmp_path, capsys):
    # a multiple of an orthogonal matrix: both exponents are log of its
    # singular value, though det = s^2 overflows a float
    spec = write_spec(tmp_path, "nu.json", atoms_distribution([(entries, 1.0)]))
    argv = ["onestep", "--spec", spec, "--steps", "500", "--trials", "200", "--seed", "1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    lam = json.loads((tmp_path / "onestep_report.json").read_text())["lambda_hat"]
    top, bottom = float(lam["top"]), float(lam["bottom"])
    assert bottom == pytest.approx(top, rel=1e-12)
    assert top == pytest.approx(math.log(math.hypot(*entries[0])), rel=1e-12)


def _rotgain(log_gain):
    return MatrixDistribution.from_obj(
        {"kind": "rotgain", "angle": {"kind": "uniform", "lo": "0.0", "hi": repr(math.pi)},
         "log_gain": log_gain}
    )


def _onestep_exponents(nu, steps, trials, tmp_path):
    spec = write_spec(tmp_path, "nu.json", nu)
    argv = ["onestep", "--spec", spec, "--steps", str(steps), "--trials", str(trials),
            "--jobs", "1", "--seed", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    lam = json.loads((tmp_path / "onestep_report.json").read_text())["lambda_hat"]
    return float(lam["top"]), float(lam["bottom"])


# log-gains past ln(DBL_MAX) = 709.8: each factor is drawn as a scaled matrix
@pytest.mark.parametrize("log_gain,steps,trials,lo,hi", [
    ({"kind": "uniform", "lo": "710.0", "hi": "720.0"}, 2000, 400, 710.0, 720.0),
    ({"kind": "exponential", "rate": "0.01"}, 500, 200, 0.0, math.inf),
], ids=["rotgain-gain-past-709", "rotgain-exponential-gain"])
def test_onestep_factors_past_the_float_range_exit_zero(log_gain, steps, trials, lo, hi,
                                                        tmp_path):
    top, bottom = _onestep_exponents(_rotgain(log_gain), steps, trials, tmp_path)
    assert lo < top < hi
    assert bottom == pytest.approx(-top, rel=1e-12)


# Known fault (ROADMAP open item 1): factors whose entries span more than
# about e^700 can end in a traceback.  Each factor is drawn finite, but the
# product tree keeps one scale per product: dividing by the max-abs entry
# underflows the small entries, and two such products can multiply to the
# zero matrix.  A triangular law with a heavy log b does it once a
# product's b entry passes about e^745; so do one atom with entries 1e200
# and 1e-200, and rotgain gains e^300 and e^-300 in crossing directions
# (both exit 0 at --steps 2).  Each reproducer is pinned, so a fix shows
# as XPASS.
@pytest.mark.xfail(
    strict=True, raises=NotInvertible,
    reason="the one-scale product tree underflows a product's small entries and collapses",
)
@pytest.mark.parametrize("nu,steps,trials", [
    pytest.param(build_counterexample_cocycle(), 100000, 2000, id="heavy-long-window"),
    pytest.param(triangular_distribution(scalars.constant(2.0), scalars.exponential(0.01),
                                         log_scale_b=True), 500, 200,
                 id="expanding-a-heavy-log-b"),
    pytest.param(atoms_distribution([(((-1.0, 1e200), (1e-200, 0.5)), 1.0)]), 10, 50,
                 id="atom-spanning-e400"),
    pytest.param(MatrixDistribution.from_obj({
        "kind": "rotgain", "angle": {"kind": "atoms", "values": ["0.0"], "weights": ["1.0"]},
        "log_gain": {"kind": "atoms", "values": ["-300.0", "300.0"], "weights": ["0.5", "0.5"]},
    }), 10, 50, id="rotgain-gains-e300-crossing"),
])
def test_onestep_heavy_triangular_products_exit_zero(nu, steps, trials, tmp_path):
    _onestep_exponents(nu, steps, trials, tmp_path)


@pytest.mark.parametrize("entries,code", [
    (((1e300, 1e300), (1e300, 1e300)), 64),  # det2 is inf - inf = nan
    (((1.0, 1.0), (1.0, 1.0)), 64),
    (((1e300, 0.0), (0.0, 1e-300)), 0),  # det 1, condition 1e600
    (((1e300, 1e300), (1e300, 2e300)), 0),  # det 1e600 past the float range
    (((1e-200, 0.0), (0.0, 1e-200)), 0),  # det 1e-400 below it
], ids=["huge-rank-1", "rank-1", "ill-conditioned", "huge-det", "tiny-det"])
def test_onestep_atom_singularity_reads_log_det(entries, code, tmp_path, capsys):
    # written by hand: a singular atom fails already in atoms_distribution
    spec = tmp_path / "nu.json"
    spec.write_text(json.dumps({"kind": "atoms", "atoms": [
        {"m": [[repr(v) for v in row] for row in entries], "w": "1.0"}]}))
    argv = ["onestep", "--spec", str(spec), "--steps", "1000", "--trials", "50", "--seed", "1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "singular" in err


@settings(max_examples=40, deadline=None, database=None)
@seed(20262)
@given(
    law=st.one_of(
        st.tuples(st.just("rotgain"),
                  st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=2, unique=True)),
        st.tuples(st.just("conformal"), st.integers(-300, 300)),
    ),
    steps=st.integers(1, 500),
    trials=st.integers(1, 200),
)
def test_onestep_huge_and_tiny_factors_exit_zero(law, steps, trials, tmp_path_factory):
    # rotgain with log-gains up to 1e4, and atoms c R(0.7) with c = 10^k:
    # bottom = -top for rotgain (det 1), bottom = top = log c for c R
    kind, arg = law
    tmp_path = tmp_path_factory.mktemp("onestep")
    if kind == "rotgain":
        lo, hi = sorted(arg)
        nu = _rotgain({"kind": "uniform", "lo": repr(lo), "hi": repr(hi)})
    else:
        nu = atoms_distribution([(10.0**arg * gl2.rotation(0.7), 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # short windows warn on purpose
        top, bottom = _onestep_exponents(nu, steps, trials, tmp_path)
    if kind == "rotgain":
        assert -1e-9 <= top <= max(-lo, hi) + 1e-9
        assert bottom == pytest.approx(-top, rel=1e-12, abs=1e-12)
    else:
        assert top == pytest.approx(arg * math.log(10.0), rel=1e-12, abs=1e-12)
        assert bottom == pytest.approx(top, rel=1e-12, abs=1e-12)


def test_onestep_env_seed(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "nu.json", DIAG)
    monkeypatch.setenv("OSL_DEFAULT_SEED", "42")
    code = cli.main(
        ["onestep", "--spec", spec, "--steps", "1100", "--trials", "40",
         "--out", str(tmp_path)]
    )
    assert code == 0
    obj = json.loads((tmp_path / "onestep_report.json").read_text())
    assert obj["seed"] == "42" and obj["config"]["seed"] == "42"


def test_onestep_config_block_in_full(tmp_path):
    spec = write_spec(tmp_path, "nu.json", DIAG)
    argv = ["onestep", "--spec", spec, "--steps", "1100", "--trials", "40", "--seed", "11",
            "--thresholds", "2,4.5,9", "--jobs", "2", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    config = json.loads((tmp_path / "r" / "onestep_report.json").read_text())["config"]
    assert config == {
        "command": "onestep", "spec": spec, "steps": 1100, "trials": 40, "seed": "11",
        "thresholds": ["2.0", "4.5", "9.0"],
    }
    assert "out" not in config and "jobs" not in config


# ---------------------------------------------------------------------------
# flexible


def test_flexible_bounded_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    code = cli.main(
        ["flexible", "--spec", spec, "--mode", "bounded", "--budget", "0.6",
         "--steps", "4000", "--seed", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    obj = json.loads((tmp_path / "flexible_report.json").read_text())
    assert obj["config"]["mode"] == "bounded" and obj["config"]["budget"] == "0.6"
    assert obj["report"]["steps"] == 4000
    assert float(obj["report"]["max_cost"]) < 0.6
    rows = (tmp_path / "flexible_steps.csv").read_text().splitlines()
    assert rows[0] == "step,cost,label,theta" and len(rows) == 4000
    assert "max step cost" in capsys.readouterr().out


def test_flexible_asks_for_its_csv_part_by_part(tmp_path, monkeypatch):
    calls, to_csv = [], flexible.ConstructionReport.to_csv

    def recording(rep, start=0, stop=None):
        calls.append((start, stop))
        return to_csv(rep, start, stop)

    monkeypatch.setattr(flexible, "STEP_BLOCK", 1000)
    monkeypatch.setattr(flexible.ConstructionReport, "to_csv", recording)
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    code = cli.main(
        ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.3",
         "--steps", "2500", "--seed", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    assert calls == [(0, 1000), (1000, 2000), (2000, 3000)]
    rows = (tmp_path / "flexible_steps.csv").read_text().splitlines()
    assert rows[0] == "step,cost,label,theta"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(-1250, 1249))


def test_flexible_config_block_in_full(tmp_path, monkeypatch):
    # both bounds are recorded, whichever the mode reads; the seed comes
    # from the environment and is written as a string
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    monkeypatch.setenv("OSL_DEFAULT_SEED", "123")
    argv = ["flexible", "--spec", spec, "--mode", "bounded", "--budget", "0.6",
            "--epsilon", "0.25", "--rates=0.75,-0.25", "--steps", "4000",
            "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    obj = json.loads((tmp_path / "r" / "flexible_report.json").read_text())
    assert obj["seed"] == "123"
    assert obj["config"] == {
        "command": "flexible", "spec": spec, "mode": "bounded", "steps": 4000,
        "seed": "123", "budget": "0.6", "epsilon": "0.25", "rates": ["0.75", "-0.25"],
    }
    assert "out" not in obj["config"] and "jobs" not in obj["config"]


def test_flexible_lowcost_prints_mean_cost(tmp_path, capsys):
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    code = cli.main(
        ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.4",
         "--steps", "4000", "--seed", "2", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "mean step cost" in capsys.readouterr().out


@pytest.mark.parametrize("mode,bound", [("bounded", "0.5"), ("lowcost", "0.2")])
def test_flexible_atom_at_alpha_pi_builds(mode, bound, tmp_path, capsys):
    # alpha = pi is the line alpha = 0, which the build stores as 0
    spec = write_spec(tmp_path, "eta.json", EtaSpec(pieces=((1.0, atom_cell(math.pi, 0.5)),)))
    flag = "--budget" if mode == "bounded" else "--epsilon"
    argv = ["flexible", "--spec", spec, "--mode", mode, flag, bound, "--steps", "5000"]
    assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "flexible_report.json").read_text())["report"]
    assert float(rep["tv_distance"]) == 0.0 and float(rep["agreement_fraction"]) == 1.0
    assert "Traceback" not in capsys.readouterr().err


def test_text_parts_are_written_whole_one_at_a_time(tmp_path, monkeypatch):
    # each part goes to the file in one write before the next part is made,
    # so a lazy iterable of parts holds one part at a time
    import tracemalloc
    from pathlib import Path

    size, count = 3 << 20, 4
    writes, real_open = [], Path.open

    class Recording:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            writes.append(len(text))
            return self.f.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    def parts():
        for i in range(count):
            assert len(writes) == i, "a part was made before the one before it was written"
            yield f"{i}" * size

    monkeypatch.setattr(Path, "open", lambda self, *a, **k: Recording(real_open(self, *a, **k)))
    cli._write_text(str(tmp_path / "d"), "steps.csv", parts())
    monkeypatch.undo()
    assert writes == [size] * count
    tracemalloc.start()
    try:
        lazy = (f"{i}" * size for i in range(count))
        path = cli._write_text(str(tmp_path / "e"), "steps.csv", lazy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == "".join(f"{i}" * size for i in range(count))
    # one part and its encoded copy, not the four parts
    assert peak < 3 * size, peak


def test_flexible_csv_is_written_part_by_part(tmp_path):
    # what osl flexible passes: one lazy to_csv call per STEP_BLOCK rows
    import tracemalloc

    rows, k = 200_000, flexible.STEP_BLOCK
    rng = np.random.default_rng(4)
    rep = flexible.ConstructionReport(
        lambda_hat=(0.5, -0.5), tv_distance=0.0, ks_theta=0.0, max_cost=0.0,
        mean_cost=0.0, agreement_fraction=1.0, steps=rows + 1, offset=-(rows // 2),
        mode="bounded", rates=(0.5, -0.5), seed=None, step_cost=rng.random(rows),
        step_label=rng.integers(0, 40, rows), step_theta=rng.uniform(0.3, 1.4, rows),
    )
    text = rep.to_csv(k, 2 * k)
    tracemalloc.start()
    try:
        rep.to_csv(k, 2 * k)
        one = tracemalloc.get_traced_memory()[1]  # formatting one part
        tracemalloc.reset_peak()
        parts = (rep.to_csv(lo, lo + k) for lo in range(0, rows, k))
        path = cli._write_text(str(tmp_path / "d"), "steps.csv", parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == rep.to_csv()
    # beside the part being formatted, at most two parts of text; the whole
    # CSV (about 25 parts) joined from its chunks would hold over ten times that
    assert peak < one + 2 * len(text), (peak, one, len(text))


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["flexible", "--spec", "eta.json", "--mode", "wat", "--steps", "10"],
        ["onestep"],  # missing --spec
        ["nonsense"],
    ],
)
def test_bad_arguments_exit_sixtyfour(argv):
    assert cli.main(argv) == 64


def test_semantic_usage_errors_exit_sixtyfour(tmp_path, capsys):
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    nu = write_spec(tmp_path, "nu.json", DIAG)
    cases = [
        ["flexible", "--spec", spec, "--mode", "bounded"],  # no --budget
        ["flexible", "--spec", spec, "--mode", "lowcost"],  # no --epsilon
        ["flexible", "--spec", spec, "--mode", "bounded", "--budget", "0.5",
         "--rates", "0.1,0.5"],  # r1 <= r2
        ["onestep", "--spec", nu, "--steps", "0"],
        ["onestep", "--spec", nu, "--thresholds", "8,4"],
        ["onestep", "--spec", nu, "--thresholds", "a,b"],
        ["onestep", "--spec", nu, "--seed", str(2**64)],
        ["onestep", "--spec", str(tmp_path / "missing.json")],
    ]
    for argv in cases:
        assert cli.main(argv) == 64, argv
        assert "usage error" in capsys.readouterr().err


def test_flexible_window_too_short_for_directions_exits_sixtyfour(tmp_path, capsys):
    # rates 0.01,-0.01 give direction depth 10000, so 20010 steps at least
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    base = ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.4",
            "--out", str(tmp_path)]
    assert cli.main(base + ["--rates", "0.01,-0.01", "--steps", "20000"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "20010" in err and err.count("\n") == 1
    assert cli.main(base + ["--rates", "1e-320,0", "--steps", "20000"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error") and err.count("\n") == 1
    assert not (tmp_path / "flexible_report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["onestep", "--spec", "NU", "--thresholds", "nan"],
        ["onestep", "--spec", "NU", "--thresholds", "4,nan,16"],
        ["flexible", "--spec", "ETA", "--mode", "bounded", "--budget", "-1"],
        ["flexible", "--spec", "ETA", "--mode", "bounded", "--budget", "nan"],
        ["flexible", "--spec", "ETA", "--mode", "lowcost", "--epsilon", "0"],
        ["flexible", "--spec", "ETA", "--mode", "lowcost", "--epsilon", "nan"],
        ["flexible", "--spec", "ETA", "--mode", "lowcost", "--epsilon", "0.1", "--rates", "inf,0"],
        ["flexible", "--spec", "ETA", "--mode", "bounded", "--budget", "0.5", "--rates", "0.5,-inf"],
        # more than max(2000, 2^20) / 16 = 65536 gap-angle bands, or tower levels
        ["flexible", "--spec", "ETA", "--mode", "bounded", "--budget", "1e-300"],
        ["flexible", "--spec", "ETA", "--mode", "lowcost", "--epsilon", "1e-300"],
        # 2 C / epsilon = 65536: towers of 65537 and 65538 levels
        ["flexible", "--spec", "ETA", "--mode", "lowcost", "--epsilon", repr(TWO_CELL_CAP / 32768)],
    ],
)
def test_bad_numbers_exit_sixtyfour(argv, tmp_path, capsys):
    specs = {"NU": write_spec(tmp_path, "nu.json", DIAG), "ETA": write_spec(tmp_path, "eta.json", TWO_CELL)}
    argv = [specs.get(a, a) for a in argv] + ["--steps", "2000", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def _scalar_atoms(values, weights=None):
    weights = weights or ["1.0"] * len(values)
    return {"kind": "atoms", "values": values, "weights": weights}


_E_INV = _scalar_atoms([repr(math.exp(-1.0))])


@pytest.mark.parametrize(
    "law",
    [
        {"kind": "rotgain", "angle": {"kind": "uniform", "lo": "-inf", "hi": "1.0"},
         "log_gain": _scalar_atoms(["1.0"])},
        {"kind": "triangular", "a": _scalar_atoms(["inf"]), "b": _scalar_atoms(["1.0"])},
        {"kind": "triangular", "a": _scalar_atoms(["nan"]), "b": _scalar_atoms(["1.0"])},
        {"kind": "triangular", "a": _E_INV,
         "log_b": {"kind": "affine", "base": {"kind": "dyadic"}, "scale": "inf", "shift": "0.0"}},
        {"kind": "triangular", "a": _E_INV,
         "log_b": {"kind": "affine", "base": {"kind": "dyadic"}, "scale": "nan", "shift": "0.0"}},
        {"kind": "atoms", "atoms": [{"m": [["nan", "0.0"], ["0.0", "1.0"]], "w": "1.0"}]},
        {"kind": "atoms", "atoms": [{"m": [["2.0", "inf"], ["0.0", "1.0"]], "w": "1.0"}]},
        {"kind": "atoms", "atoms": [{"m": [["2.0", "0.0"], ["0.0", "1.0"]], "w": "nan"}]},
        {"kind": "triangular", "a": _scalar_atoms(["0.5", "2.0"], ["nan", "1.0"]),
         "b": _scalar_atoms(["1.0"])},
        {"kind": "triangular", "a": _E_INV, "b": {"kind": "exponential", "rate": "inf"}},
    ],
)
def test_non_finite_law_parameters_exit_sixtyfour(law, tmp_path, capsys):
    spec = tmp_path / "nu.json"
    spec.write_text(json.dumps(law))
    argv = ["onestep", "--spec", str(spec), "--steps", "600", "--trials", "200",
            "--seed", "1", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed matrix law spec") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_flexible_tallest_tower_at_the_limit_builds(tmp_path):
    # 2 C / epsilon = 65534: towers of 65535 and 65536 levels, 2^20 / 16
    spec = write_spec(tmp_path, "eta.json", TWO_CELL)
    argv = ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", repr(TWO_CELL_CAP / 32767),
            "--steps", "2000", "--seed", "1", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    assert json.loads((tmp_path / "r" / "flexible_report.json").read_text())["report"]["steps"] == 2000


# smallest gap angle 0.3, where the rate gap limit log(1e-9 sin(0.3) 2^52) is 14.10
NARROW = EtaSpec(
    pieces=(
        (0.6, uniform_cell(0.1, 0.8, 0.3, 0.5)),
        (0.4, uniform_cell(1.0, 1.7, 0.6, 0.9)),
    )
)


@pytest.mark.parametrize("mode", [["bounded", "--budget", "0.5"], ["lowcost", "--epsilon", "0.1"]])
def test_flexible_rate_gap_limit(mode, tmp_path, capsys):
    spec = write_spec(tmp_path, "eta.json", NARROW)
    base = ["flexible", "--spec", spec, "--mode", *mode, "--steps", "2000", "--seed", "1"]
    assert cli.main(base + ["--rates", "14,0", "--out", str(tmp_path / "ok")]) == 0
    for rates in ("15,0", "10,-10", "800,0"):
        assert cli.main(base + ["--rates", rates, "--out", str(tmp_path / "bad")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "14.1" in err and err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


def test_flexible_rate_gap_limit_at_tiny_gap_angles(tmp_path, capsys):
    # default rates (gap 1): the limit passes 1 between theta_lo = 1e-7 and 1e-6
    for theta_lo, code in ((1e-6, 0), (1e-7, 64)):
        eta = EtaSpec(pieces=((0.6, uniform_cell(0.1, 0.8, theta_lo, 0.5)), NARROW.pieces[1]))
        spec = write_spec(tmp_path, "eta.json", eta)
        argv = ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.1",
                "--steps", "2000", "--out", str(tmp_path)]
        assert cli.main(argv) == code


# the build moves e^m, m = (r1 + r2) / 2 over the total weight, into its
# log-scale at every rate magnitude; each case's id still names the exit
# code it had when a usage error stood at max(r1, -r2) = 353.7
@pytest.mark.parametrize("mode", [["bounded", "--budget", "0.5"], ["lowcost", "--epsilon", "0.1"]])
@pytest.mark.parametrize("rates", [
    pytest.param("353,352", id="353,352-0"), pytest.param("-352,-353", id="-352,-353-0"),
    pytest.param("355,354", id="355,354-64"), pytest.param("800,799", id="800,799-64"),
    pytest.param("-375,-376", id="-375,-376-64"),
])
def test_flexible_rate_magnitude_limit(mode, rates, tmp_path):
    spec = write_spec(tmp_path, "eta.json", NARROW)
    argv = ["flexible", "--spec", spec, "--mode", *mode, "--steps", "2000", "--seed", "1",
            f"--rates={rates}", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "r" / "flexible_report.json").read_text())["report"]
    r1, r2 = (float(r) for r in rates.split(","))
    top, bottom = (float(v) for v in report["lambda_hat"])
    assert abs(top - r1) < 0.05 and abs(bottom - r2) < 0.05
    assert float(report["agreement_fraction"]) == 1.0
    if mode[0] == "bounded":
        assert float(report["tv_distance"]) < 0.03
    bound = {"budget": 0.5} if mode[0] == "bounded" else {"epsilon": 0.1}
    window = flexible.simulate_flexible(NARROW, r1, r2, mode[0], 2000, 1, **bound)
    total = math.fsum(p.weight for p in decompose_eta(NARROW))
    assert np.all(window.log_scales == (r1 + r2) / 2 / total)


def test_flexible_lowcost_builds_at_a_million(tmp_path):
    # lowcost towers are priced at the centred rates, so a common rate of
    # 1e6 needs no taller tower than 0.5,-0.5
    eta = EtaSpec(pieces=(
        (0.4, uniform_cell(0.1, 0.8, 0.30, 0.50)), (0.3, uniform_cell(1.0, 1.7, 0.50, 0.70)),
        (0.2, uniform_cell(1.9, 2.6, 0.80, 1.00)), (0.1, uniform_cell(2.7, 3.1, 1.20, 1.40)),
    ))
    spec = write_spec(tmp_path, "eta.json", eta)
    argv = ["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.1",
            "--rates=1000000.5,999999.5", "--steps", "20000", "--seed", "7"]
    assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "flexible_report.json").read_text())["report"]
    top, bottom = (float(v) for v in report["lambda_hat"])
    assert abs(top - 1000000.5) < 0.05 and abs(bottom - 999999.5) < 0.05


def test_flexible_lowcost_one_piece_builds(tmp_path, capsys):
    # a lone tower needs height 1 for gcd 1; this cell needs more, so the
    # piece takes two coprime heights
    eta = EtaSpec(pieces=((1.0, uniform_cell(0.1, 0.8, 0.3, 0.5)),))
    spec = write_spec(tmp_path, "eta.json", eta)
    code = cli.main(["flexible", "--spec", spec, "--mode", "lowcost", "--epsilon", "0.1",
                     "--steps", "20000", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "flexible_report.json").read_text())["report"]
    assert float(report["mean_cost"]) < 0.1


# chains whose refined labels outgrow the window: a heavy mass after a
# light one splits into int(heavy / light) + 1 labels
LABEL_BLOWUPS = {
    "two-atoms": ({"pieces": [
        {"weight": "1e-09", "cell": {"alpha": ["0.2", "0.2"], "theta": ["1.0", "1.0"]}},
        {"weight": "0.999999999", "cell": {"alpha": ["1.0", "1.0"], "theta": ["0.5", "0.5"]}},
    ]}, ["--budget", "3.0", "--steps", "2000"]),
    "tail-rule": ({
        "pieces": [{"weight": "0.8888888888888888",
                    "cell": {"alpha": ["0.001", "3.0"], "theta": ["0.01", "1.5"]}}],
        "tail_rule": {"first_weight": "0.1", "weight_ratio": "0.1", "theta_ratio": "1.0",
                      "cell": {"alpha": ["0.5", "1.2"], "theta": ["0.1", "1.5707963267948966"]}},
    }, ["--budget", "3.0", "--rates", "1.0,-9.0", "--steps", "500", "--seed", "245"]),
    # a label count past the float range: 1.0 / 1e-320 overflows
    "subnormal-weight": ({"pieces": [
        {"weight": "1e-320", "cell": {"alpha": ["0.2", "0.2"], "theta": ["1.0", "1.0"]}},
        {"weight": "1.0", "cell": {"alpha": ["1.0", "1.0"], "theta": ["0.5", "0.5"]}},
    ]}, ["--budget", "3.0", "--steps", "2000"]),
    # found by test_flexible_exit_contract: a band 1e-9 wide in gap angle
    "thin-band": ({"pieces": [
        {"weight": "0.3333333333333333", "cell": {"alpha": ["0.0", "0.0"], "theta": ["1.0", "1.0"]}},
        {"weight": "0.3333333333333333",
         "cell": {"alpha": ["0.0", "0.0"], "theta": ["1.000000001", "1.000000001"]}},
        {"weight": "0.3333333333333333",
         "cell": {"alpha": ["0.0", "0.0"], "theta": ["1.0", "1.5707963267948966"]}},
    ]}, ["--budget", "1.0", "--rates", "1.0,0.0", "--steps", "410"]),
}


@pytest.mark.parametrize("name", list(LABEL_BLOWUPS))
def test_flexible_label_blowup_exits_sixtyfour(name, tmp_path, capsys):
    obj, extra = LABEL_BLOWUPS[name]
    spec = tmp_path / "eta.json"
    spec.write_text(json.dumps(obj))
    argv = ["flexible", "--spec", str(spec), "--mode", "bounded", *extra]
    assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: budget {extra[1]} needs ")
    assert err.endswith("labels, past the limit 32768\n") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _flexible_cells(draw):
    """An atom or rectangle with gap angles down to 1e-12, most of them above
    1e-3, where rates 1 apart are carried accurately."""
    t0 = draw(st.one_of(_log_uniform(1e-3, math.pi / 2), _log_uniform(1e-12, math.pi / 2)))
    t0 = min(t0, math.pi / 2)
    a0 = draw(st.floats(0.0, math.pi))
    if draw(st.booleans()):
        return atom_cell(a0, t0)
    t1 = min(math.pi / 2, t0 * draw(_log_uniform(1.0, 100.0)))
    return uniform_cell(a0, draw(st.floats(a0, math.pi)), t0, t1)


@st.composite
def _flexible_runs(draw):
    """A mixture of 1-4 cells with weights down to 1e-9 and an optional tail
    rule, a mode with its bound in [1e-3, 50], rates 1 or more apart with
    magnitudes up to 1e6, and at most 600 steps.  Most draws pass the
    up-front checks: rates near 0 and a few apart, and enough steps for the
    direction estimates."""
    tail = None
    if draw(st.booleans()):
        ratio = draw(st.floats(0.01, 0.5))
        mass = draw(_log_uniform(1e-9, 0.5))
        tail = TailRule(mass * (1.0 - ratio), ratio, draw(_flexible_cells()),
                        draw(st.floats(0.1, 1.0)))
    cells = draw(st.lists(_flexible_cells(), min_size=1, max_size=4))
    raw = [draw(_log_uniform(1e-9, 1.0)) for _ in cells]
    rest = 1.0 - (tail.total_mass if tail else 0.0)
    eta = EtaSpec(tuple((rest * w / math.fsum(raw), c) for w, c in zip(raw, cells)), tail)
    mode = draw(st.sampled_from(["bounded", "lowcost"]))
    flag = "--budget" if mode == "bounded" else "--epsilon"
    gap = draw(st.one_of(st.floats(1.0, 8.0), st.floats(1.0, 2000.0)))
    r2 = min(draw(st.one_of(st.floats(-8.0, 8.0), st.floats(-1e6, 1e6))), 1e6 - gap)
    least = min(2 * direction_depth(r2 + gap, r2) + 10, 600)
    steps = draw(st.one_of(st.integers(least, 600), st.integers(1, 600)))
    argv = ["--mode", mode, flag, repr(draw(_log_uniform(1e-3, 50.0))),
            f"--rates={r2 + gap!r},{r2!r}", "--steps", str(steps)]
    return eta, argv


@settings(max_examples=200, deadline=None, database=None)
@seed(20263)
@given(run=_flexible_runs())
def test_flexible_exit_contract(run, tmp_path_factory):
    # every accepted spec ends in a report (0), an infeasible bipartition
    # (2) or a one-line usage error (64), never in a traceback
    eta, argv = run
    tmp_path = tmp_path_factory.mktemp("flexible")
    spec = write_spec(tmp_path, "eta.json", eta)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", UserWarning)  # short windows warn on purpose
        code = cli.main(["flexible", "--spec", spec, *argv, "--seed", "1",
                         "--out", str(tmp_path / "r")])
    assert code in (0, 2, 64)
    if code == 64:
        assert err.getvalue().startswith("usage error") and err.getvalue().count("\n") == 1


def test_malformed_specs_exit_sixtyfour(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["onestep", "--spec", str(bad)]) == 64
    assert "malformed" in capsys.readouterr().err
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "unheard-of"}))
    assert cli.main(["flexible", "--spec", str(wrong), "--mode", "bounded",
                     "--budget", "1.0"]) == 64
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [["0.1"], ["0.1", "0.2", "0.9"]])
def test_cell_edges_must_be_pairs(alpha, tmp_path, capsys):
    # a one-edge list was an IndexError traceback; three edges dropped the last
    spec = tmp_path / "eta.json"
    cell = {"alpha": alpha, "theta": ["0.3", "0.5"]}
    spec.write_text(json.dumps({"pieces": [{"weight": "1.0", "cell": cell}]}))
    argv = ["flexible", "--spec", str(spec), "--mode", "bounded", "--budget", "0.5",
            "--steps", "2000", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed mixture spec") and err.count("\n") == 1


# a tail rule whose gap angles underflow to 0 before its mass is spent, and
# a gap angle so small that sin(theta) * 1e-9 underflows: each ends in a
# one-line usage error, not a traceback
TINY_ANGLE_SPECS = {
    "tail-underflow": ({
        "pieces": [{"weight": "0.5", "cell": {"alpha": ["0.1", "0.8"], "theta": ["0.3", "0.5"]}}],
        "tail_rule": {"first_weight": "0.05", "weight_ratio": "0.9", "theta_ratio": "0.01",
                      "cell": {"alpha": ["1.0", "1.7"], "theta": ["0.6", "0.9"]}},
    }, "usage error: malformed mixture spec: tail piece 162 scales theta_lo 0.6 to 0\n"),
    "subnormal-theta": ({"pieces": [
        {"weight": "0.5", "cell": {"alpha": ["0.1", "0.8"], "theta": ["1e-320", "0.5"]}},
        {"weight": "0.5", "cell": {"alpha": ["1.0", "1.7"], "theta": ["0.6", "0.9"]}},
    ]}, "usage error: rates r1 - r2 = 1 exceed -721.5, "),
}


@pytest.mark.parametrize("mode", [["bounded", "--budget", "0.5"], ["lowcost", "--epsilon", "0.1"]])
@pytest.mark.parametrize("name", list(TINY_ANGLE_SPECS))
def test_tiny_gap_angles_exit_sixtyfour(name, mode, tmp_path, capsys):
    obj, message = TINY_ANGLE_SPECS[name]
    spec = tmp_path / "eta.json"
    spec.write_text(json.dumps(obj))
    argv = ["flexible", "--spec", str(spec), "--mode", *mode, "--steps", "2000"]
    assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 64
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_integer_past_the_float_range_exits_sixtyfour(tmp_path, capsys):
    # float() of a JSON integer like 10**400 raises OverflowError, not ValueError
    law = {"kind": "rotgain", "angle": {"kind": "uniform", "lo": "0.0", "hi": "1.0"},
           "log_gain": {"kind": "exponential", "rate": 10**400}}
    spec = tmp_path / "nu.json"
    spec.write_text(json.dumps(law))
    assert cli.main(["onestep", "--spec", str(spec), "--out", str(tmp_path / "r")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed matrix law spec") and err.count("\n") == 1


def test_zero_atom_exits_sixtyfour_with_one_line(tmp_path, capsys):
    # the log of its zero max-abs entry warned on stderr on the way
    zero = {"kind": "atoms", "atoms": [{"m": [["0.0", "0.0"], ["0.0", "0.0"]], "w": "1.0"}]}
    spec = tmp_path / "nu.json"
    spec.write_text(json.dumps(zero))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["onestep", "--spec", str(spec), "--out", str(tmp_path / "r")]) == 64
    err = capsys.readouterr().err
    assert err == "usage error: malformed matrix law spec: atom matrix is singular\n"


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    spec = write_spec(tmp_path, "nu.json", DIAG)
    monkeypatch.setenv("OSL_DEFAULT_SEED", "not-a-number")
    assert cli.main(["onestep", "--spec", spec]) == 64
    assert "OSL_DEFAULT_SEED" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "onestep" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_subcommand_runs_fast_suite(stub_checks, capsys):
    assert cli.main(["verify", "fast"]) == 0
    out = capsys.readouterr().out
    assert "1/1 checks passed" in out and "FAIL" not in out


def test_verify_exits_one_when_a_check_fails(stub_checks, capsys):
    assert cli.main(["verify", "all"]) == 1
    assert "FAIL stub.fails" in capsys.readouterr().out


def test_verify_rejects_unknown_suite():
    assert cli.main(["verify", "sometimes"]) == 64


def test_round_trip_spec_formats(tmp_path):
    # the law files the CLI consumes reload bit-exactly through their JSON
    nu_text = DIAG.to_json()
    assert MatrixDistribution.from_json(nu_text).to_json() == nu_text
    eta_text = TWO_CELL.to_json()
    assert EtaSpec.from_json(eta_text).to_json() == eta_text
