"""The two benchmark workloads: their inputs, sizes and output checks.

A workload's operation is a fixed sequence of ``osl`` invocations
(``Call``): ``onestep`` runs the square-integrable control and then the
heavy-tailed counterexample, ``flexible`` runs the bounded-cost and then
the lowcost construction.  Specs are written here as plain JSON, and every
check compares the outputs with a computation of its own (a closed form, a
quadrature, a plain-numpy Monte Carlo from its own generator) or with a
property the method must have, never with bytes an earlier version of
``osl`` wrote.  A check raises ``CheckFailed``.

The run sizes (``FULL``) keep the measured work well above interpreter
start-up; the self-check sizes (``TINY``) exercise the same code paths in
a second or so.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

STEPS_ONESTEP = 4096  # the `osl onestep` default window half-width
THRESHOLDS = (4.0, 8.0, 16.0, 32.0)  # the `osl onestep` default thresholds
BUDGET = 0.5
EPSILON = 0.1
RATES = (0.5, -0.5)
# the four-cell mixture of the verify battery (verify._FOUR_CELL):
# (weight, alpha range, theta range)
FOUR_CELL = (
    ("0.4", ("0.1", "0.8"), ("0.30", "0.50")),
    ("0.3", ("1.0", "1.7"), ("0.50", "0.70")),
    ("0.2", ("1.9", "2.6"), ("0.80", "1.00")),
    ("0.1", ("2.7", "3.1"), ("1.20", "1.40")),
)
# the verify battery's long-run tolerance on each exponent
EXPONENT_TOL = 0.05
# z-score for statistical checks: a false alarm at 5 standard errors has
# probability ~6e-7 per comparison, negligible over every run made
Z = 5.0
HEAVY_REF_DEPTH = 1024  # terms of the reference series sum

FULL = {"rotgain_trials": 20000, "heavy_trials": 50000,
        "bounded_steps": 500000, "lowcost_steps": 800000}
TINY = {"rotgain_trials": 400, "heavy_trials": 2000,
        "bounded_steps": 20000, "lowcost_steps": 40000}


class CheckFailed(AssertionError):
    """An output of ``osl`` is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One `osl` invocation of a workload and what it must produce.

    ``name`` also names the call's spec file (``<name>.json``) and output
    directory (``out-<name>``).  ``argv`` lacks ``--seed`` and ``--out``,
    which each run adds.  ``warmup`` is a cheap invocation run before
    timing starts.  ``work`` is the requested work: angle trials or
    construction steps.  ``skip_fault`` names a known seed-dependent fault
    (see README): a seed whose warm-up ends in it is replaced by the next
    candidate.  ``reference(seed)`` computes what ``check(out_dir,
    reference)`` compares against.
    """

    name: str
    spec: dict
    argv: tuple
    warmup: tuple
    work: int
    reference: Callable[[int], object]
    check: Callable[[Path, object], None]
    skip_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    """A workload: one operation runs ``calls`` in order."""

    name: str
    calls: tuple[Call, ...]

    @property
    def work(self) -> int:
        return sum(call.work for call in self.calls)


# ---------------------------------------------------------------------------
# specs


def _atoms(value: float) -> dict:
    return {"kind": "atoms", "values": [repr(value)], "weights": ["1.0"]}


ROTGAIN_SPEC = {
    "kind": "rotgain",
    "angle": {"kind": "uniform", "lo": "0.0", "hi": repr(math.pi)},
    "log_gain": _atoms(1.0),
}
HEAVY_SPEC = {
    "kind": "triangular",
    "a": _atoms(math.exp(-1.0)),
    "log_b": {"kind": "dyadic"},
}
ETA_SPEC = {
    "pieces": [
        {"weight": w, "cell": {"alpha": list(a), "theta": list(t)}}
        for w, a, t in FOUR_CELL
    ]
}


# ---------------------------------------------------------------------------
# onestep checks


def _read_onestep(out: Path, trials: int) -> tuple[float, float, dict, dict]:
    rep = json.loads((out / "onestep_report.json").read_text())
    lam = rep["lambda_hat"]
    top, bottom = float(lam["top"]), float(lam["bottom"])
    tail = rep["angle_tail"]
    require(tail["sample_count"] == trials,
            f"sample_count {tail['sample_count']} != trials {trials}")
    ts = tuple(float(t) for t in tail["thresholds"])
    require(ts == THRESHOLDS, f"thresholds {ts}")
    rows = (out / "onestep_tail.csv").read_text().splitlines()
    require(rows[0] == "threshold,truncated_mean,stderr", "tail CSV header")
    table = [tuple(float(x) for x in row.split(",")) for row in rows[1:]]
    expect = [(t, float(m), float(s)) for t, m, s in
              zip(ts, tail["truncated_means"], tail["stderrs"])]
    require(table == expect, "tail CSV disagrees with the JSON report")
    return top, bottom, rep["directions"], tail


def _uniform_gap_truncated_mean(t: float) -> float:
    """E[min(-log sin theta, t)] for theta ~ U(0, pi/2], by quadrature.

    Below theta_t = arcsin(e^-t) the integrand is the constant t; above it
    -log sin is smooth, so Gauss-Legendre on [theta_t, pi/2] is exact to
    rounding.
    """
    lo = math.asin(math.exp(-t))
    x, w = np.polynomial.legendre.leggauss(200)
    half = (math.pi / 2.0 - lo) / 2.0
    theta = lo + half * (x + 1.0)
    integral = t * lo + half * float(np.dot(w, -np.log(np.sin(theta))))
    return integral / (math.pi / 2.0)


def rotgain_reference(seed: int, trials: int) -> dict:
    """Quadrature truncated means and the error bar of the top exponent.

    The law is R(phi) diag(e, 1/e) with phi uniform, invariant under
    rotations on the left, so the uniform law on lines is stationary: the
    top exponent is Furstenberg's (1/pi) int log|diag(e, 1/e) v| = log cosh 1,
    and the expanding line is uniform and independent of the contracting
    line, so the gap angle is U(0, pi/2].  The error bar of a window
    estimate is the spread of batch means: 64 independent vector chains of
    the window length, drawn here with plain numpy from their own
    generator.
    """
    rng = np.random.default_rng([seed, 1])
    chains = 64
    v = np.stack([np.ones(chains), np.zeros(chains)])
    growth = np.zeros(chains)
    for _ in range(STEPS_ONESTEP):
        phi = rng.uniform(0.0, math.pi, chains)
        x, y = math.e * v[0], v[1] / math.e
        v = np.stack([np.cos(phi) * x - np.sin(phi) * y,
                      np.sin(phi) * x + np.cos(phi) * y])
        norm = np.hypot(v[0], v[1])
        growth += np.log(norm)
        v /= norm
    batch = growth / STEPS_ONESTEP
    return {
        "trials": trials,
        "top": math.log(math.cosh(1.0)),
        "top_se": float(batch.std(ddof=1)),
        "means": [_uniform_gap_truncated_mean(t) for t in THRESHOLDS],
    }


def rotgain_check(out: Path, ref: dict) -> None:
    top, bottom, _, tail = _read_onestep(out, ref["trials"])
    require(abs(top + bottom) < 1e-12, f"top + bottom = {top + bottom}, det is 1")
    require(abs(top - ref["top"]) < Z * ref["top_se"],
            f"top {top} vs log cosh 1 = {ref['top']} (se {ref['top_se']})")
    require(tail["verdict"] == "converging", f"verdict {tail['verdict']}")
    for t, m, s, q in zip(THRESHOLDS, tail["truncated_means"], tail["stderrs"], ref["means"]):
        m, s = float(m), float(s)
        require(s > 0.0 and abs(m - q) < Z * s,
                f"truncated mean at {t}: {m} vs quadrature {q} (se {s})")


def heavy_reference(seed: int, trials: int) -> dict:
    """Truncated means of (1/2) log(1 + X^2), X = sum_n e^(psi_n - n).

    That is -log sin of the gap angle of [[1/e, e^psi], [0, 1]] products:
    the contracting line is the first axis and the expanding one is
    spanned by (X, 1).  psi is dyadic, P(psi = 2^k) = (3/4) 4^-k, drawn as
    2^floor(E / log 4) with E exponential, from this function's own
    generator; the sum keeps HEAVY_REF_DEPTH terms in the log domain.
    """
    rng = np.random.default_rng([seed, 2])
    lag = np.arange(HEAVY_REF_DEPTH)
    vals = np.empty(trials)
    done = 0
    while done < trials:
        m = min(1000, trials - done)
        k = np.floor(rng.exponential(size=(m, HEAVY_REF_DEPTH)) / math.log(4.0))
        z = np.exp2(k) - lag
        peak = z.max(axis=1)
        log_x = peak + np.log(np.exp(z - peak[:, None]).sum(axis=1))
        vals[done : done + m] = 0.5 * np.logaddexp(0.0, 2.0 * log_x)
        done += m
    clipped = [np.minimum(vals, t) for t in THRESHOLDS]
    return {
        "trials": trials,
        "means": [float(c.mean()) for c in clipped],
        "stderrs": [float(c.std(ddof=1) / math.sqrt(trials)) for c in clipped],
    }


def heavy_check(out: Path, ref: dict) -> None:
    top, bottom, directions, tail = _read_onestep(out, ref["trials"])
    require(abs(top + bottom + 1.0) < 1e-12, f"top + bottom = {top + bottom}, log det is -1")
    # top = log s1 / n >= 0 because the (2, 2) entry of every product is 1;
    # a draw of 2^9 at the window's end lifts it to about 512/4096
    require(-1e-12 <= top < 0.2, f"top exponent {top}, expected near 0")
    line = float(directions["contracting_line"])
    require(min(line, math.pi - line) < 1e-6, f"contracting line {line} is not the first axis")
    require(tail["verdict"] == "growing", f"verdict {tail['verdict']}")
    for t, m, s, rm, rs in zip(THRESHOLDS, tail["truncated_means"], tail["stderrs"],
                               ref["means"], ref["stderrs"]):
        m, s = float(m), float(s)
        require(abs(m - rm) < Z * math.hypot(s, rs),
                f"truncated mean at {t}: {m} (se {s}) vs reference {rm} (se {rs})")


# ---------------------------------------------------------------------------
# flexible checks


def _read_flexible(out: Path, steps: int) -> np.ndarray:
    rep = json.loads((out / "flexible_report.json").read_text())["report"]
    require(rep["steps"] == steps, f"report steps {rep['steps']} != {steps}")
    top, bottom = (float(v) for v in rep["lambda_hat"])
    require(abs(top - RATES[0]) < EXPONENT_TOL and abs(bottom - RATES[1]) < EXPONENT_TOL,
            f"exponents ({top}, {bottom}) vs rates {RATES}")
    agreement = float(rep["agreement_fraction"])
    require(agreement >= 0.99, f"agreement_fraction {agreement}")
    csv = out / "flexible_steps.csv"
    with csv.open() as fh:
        require(fh.readline() == "step,cost,label,theta\n", "steps CSV header")
    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    require(table.shape == (steps - 1, 4), f"steps CSV shape {table.shape}, want {steps - 1} rows")
    require(bool(np.all(np.diff(table[:, 0]) == 1.0)), "steps CSV steps are not consecutive")
    return table


def bounded_check(out: Path, ref: dict) -> None:
    table = _read_flexible(out, ref["steps"])
    cost, label = table[:, 1], table[:, 2]
    require(float(cost.max()) < BUDGET, f"step cost {cost.max()} >= budget {BUDGET}")
    require(float(np.abs(np.diff(label)).max()) <= 1.0, "a label moved by more than 1 in one step")


def lowcost_check(out: Path, ref: dict) -> None:
    table = _read_flexible(out, ref["steps"])
    means = np.array([blk.mean() for blk in np.array_split(table[:, 1], 40)])
    se = float(means.std(ddof=1) / math.sqrt(means.size))
    mean = float(means.mean())
    require(mean < EPSILON + 3.0 * se, f"mean cost {mean} vs epsilon {EPSILON} (se {se})")


# ---------------------------------------------------------------------------
# the table


def _flex_argv(mode: str, steps: int) -> tuple:
    bound = ("--budget", repr(BUDGET)) if mode == "bounded" else ("--epsilon", repr(EPSILON))
    return ("flexible", "--spec", f"{mode}.json", "--mode", mode, *bound,
            "--rates", f"{RATES[0]!r},{RATES[1]!r}", "--steps", str(steps))


def _onestep_argv(law: str, trials: int) -> tuple:
    return ("onestep", "--spec", f"{law}.json", "--steps", str(STEPS_ONESTEP),
            "--trials", str(trials), "--jobs", "1")


def make(sizes: dict) -> dict[str, Workload]:
    """The workloads at the given sizes (``FULL`` or ``TINY``), by name."""
    rt, ht = sizes["rotgain_trials"], sizes["heavy_trials"]
    bs, ls = sizes["bounded_steps"], sizes["lowcost_steps"]
    return {
        "onestep": Workload("onestep", (
            Call("rotgain", ROTGAIN_SPEC, _onestep_argv("rotgain", rt),
                 _onestep_argv("rotgain", 8), rt,
                 lambda seed: rotgain_reference(seed, rt), rotgain_check),
            # the window is drawn at full size in the warm-up, so a seed
            # whose window meets the overflow fault is seen there (README)
            Call("heavy", HEAVY_SPEC, _onestep_argv("heavy", ht),
                 _onestep_argv("heavy", 8), ht,
                 lambda seed: heavy_reference(seed, ht), heavy_check,
                 skip_fault="NotInvertible"),
        )),
        "flexible": Workload("flexible", (
            Call("bounded", ETA_SPEC, _flex_argv("bounded", bs), _flex_argv("bounded", 2000),
                 bs, lambda seed: {"steps": bs}, bounded_check),
            Call("lowcost", ETA_SPEC, _flex_argv("lowcost", ls), _flex_argv("lowcost", 2000),
                 ls, lambda seed: {"steps": ls}, lowcost_check),
        )),
    }
