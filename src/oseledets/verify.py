"""Named invariant battery with fixed seeds.

Every library module promises a handful of invariants; this module
re-checks them end to end as a battery of named checks.  ``run_suite``
runs one of two budgets: "fast" keeps to the cheap deterministic checks
(well under a minute), "all" adds the long statistical runs.  The runner
never stops early; each check passes quietly or fails with its name and
message, so a regression is identified by the invariant it broke.

Checks call into the library through module attributes (``gl2.svd2``,
never a local alias), so fault injection on a module function is seen by
every check that depends on it.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import cocycle, estimation, flexible, gl2, scalars, skyscraper

FAST_SEED = 20260816


class CheckResult(NamedTuple):
    name: str
    ok: bool
    seconds: float
    message: str


class _Check(NamedTuple):
    name: str
    fast: bool
    fn: Callable[[], None]


_CHECKS: list[_Check] = []


def _expect(ok, message: str = "") -> None:
    """The checks' assert, kept under python -O: fail the running check unless ok."""
    if not ok:
        raise AssertionError(message)


def _check(name: str, fast: bool = True):
    def deco(fn):
        _CHECKS.append(_Check(name, fast, fn))
        return fn

    return deco


def _suite(suite: str) -> list[_Check]:
    if suite not in ("fast", "all"):
        raise ValueError("suite must be 'fast' or 'all'")
    return [c for c in _CHECKS if c.fast or suite == "all"]


def run_suite(suite: str = "fast", out=None) -> list[CheckResult]:
    """Run the battery; print one pass/fail line per check; return results."""
    stream = sys.stdout if out is None else out
    results = []
    for check in _suite(suite):
        t0 = time.perf_counter()
        try:
            check.fn()
            ok, msg = True, ""
        except Exception as err:  # any failure is a finding, never a crash
            ok, msg = False, f"{type(err).__name__}: {err}"
        dt = time.perf_counter() - t0
        tail = "" if ok else f": {msg}"
        print(f"{'PASS' if ok else 'FAIL'} {check.name} ({dt:.2f}s){tail}", file=stream)
        results.append(CheckResult(check.name, ok, dt, msg))
    npass = sum(r.ok for r in results)
    print(f"{npass}/{len(results)} checks passed", file=stream)
    return results


def _random_invertible(rng, n):
    g = rng.normal(size=(n, 2, 2))
    g += 0.3 * np.sign(gl2.det2(g))[:, None, None] * np.eye(2)
    return g[np.abs(gl2.det2(g)) > 1e-3]


# ---------------------------------------------------------------------------
# plane and matrix identities


@_check("gl2.svd_factors_reconstruct")
def _svd_reconstructs():
    rng = np.random.default_rng(FAST_SEED)
    g = _random_invertible(rng, 400)
    sv = gl2.svd2(g)
    _expect(np.all(sv.s1 >= sv.s2) and np.all(sv.s2 > 0))
    prod_err = np.abs(sv.s1 * sv.s2 - np.abs(gl2.det2(g)))
    _expect(float(prod_err.max()) < 1e-9, "s1*s2 must equal |det|")
    vr = gl2._unit_columns(sv.right, sv.right + math.pi / 2.0)
    img = g @ vr
    n1 = np.linalg.norm(img[..., 0], axis=-1)
    n2 = np.linalg.norm(img[..., 1], axis=-1)
    _expect(float(np.abs(n1 - sv.s1).max()) < 1e-9, "right line must attain s1")
    _expect(float(np.abs(n2 - sv.s2).max()) < 1e-9, "co-line must attain s2")
    img_angle = np.arctan2(img[..., 1, 0], img[..., 0, 0])
    miss = gl2.line_angle(img_angle, sv.left)
    _expect(float(miss.max()) < 1e-9, "image of the right line must be the left line")


@_check("gl2.angle_drift_parallelogram")
def _parallelogram():
    rng = np.random.default_rng(FAST_SEED + 1)
    g = _random_invertible(rng, 2000)
    a1 = rng.uniform(0.0, math.pi, len(g))
    a2 = rng.uniform(0.0, math.pi, len(g))
    lhs, rhs = gl2.angle_drift_gap(g, a1, a2)
    _expect(float((rhs - lhs).min()) >= -1e-9, "one-step drift bound violated")


@_check("gl2.interp_values_match_svd")
def _interp_match():
    rng = np.random.default_rng(FAST_SEED + 2)
    for _ in range(300):
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        t1, t2 = rng.uniform(0.05, math.pi / 2, 2)
        x = gl2.splitting(a1, gl2.canon_line(a1 + t1))
        y = gl2.splitting(a2, gl2.canon_line(a2 + t2))
        pair = gl2.interp_singular_values(gl2.gap_angle(x), gl2.gap_angle(y))
        sv = gl2.svd2(gl2.interp_matrix(gl2.canonical_lift(x), gl2.canonical_lift(y)))
        _expect(abs(max(pair) - sv.s1) < 1e-10)
        _expect(abs(min(pair) - sv.s2) < 1e-10)


@_check("gl2.bounded_cost_is_pair_map_norm")
def _bounded_cost_norm():
    rng = np.random.default_rng(FAST_SEED + 3)
    for _ in range(300):
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        t1, t2 = rng.uniform(0.05, math.pi / 2, 2)
        x = gl2.splitting(a1, gl2.canon_line(a1 + t1))
        y = gl2.splitting(a2, gl2.canon_line(a2 + t2))
        got = gl2.transfer_cost_bounded(x, y)
        m = gl2.interp_matrix(gl2.canonical_lift(x), gl2.canonical_lift(y))
        _expect(abs(got - float(gl2.log_norm_max(m))) < 1e-10)
        _expect(abs(got - gl2.transfer_cost_bounded(y, x)) < 1e-10, "must be symmetric")


def _lift_cost(x, y, psi1: float, psi2: float) -> float:
    """Reference travel cost by enumeration: the largest log_norm_max of
    interp_matrix(xt, yt) @ eigen_matrix(x, psi1, psi2) over the 16 pairs of
    unit-vector lifts xt of the splitting x and yt of y."""
    psi = gl2.eigen_matrix(x, psi1, psi2)
    flips = [np.array([i, j]) * math.pi for i in (0, 1) for j in (0, 1)]
    xs = [gl2.canonical_lift(x) + f for f in flips]
    ys = [gl2.canonical_lift(y) + f for f in flips]
    return max(float(gl2.log_norm_max(gl2.interp_matrix(xt, yt) @ psi)) for xt in xs for yt in ys)


@_check("gl2.general_cost_rotation_invariant")
def _general_cost_invariant():
    # the library sees only the gap angles, the oracle the whole splittings
    # at random line angles, so agreement is also rotation invariance
    rng = np.random.default_rng(FAST_SEED + 4)
    for _ in range(100):
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        t1, t2 = rng.uniform(0.1, math.pi / 2, 2)
        r2, r1 = np.sort(rng.uniform(-1.0, 1.0, 2)).tolist()
        x = gl2.splitting(a1, gl2.canon_line(a1 + t1))
        y = gl2.splitting(a2, gl2.canon_line(a2 + t2))
        got = gl2.transfer_cost_general(gl2.gap_angle(x), gl2.gap_angle(y), r1, r2)
        want = _lift_cost(x, y, r1, r2)
        _expect(abs(float(got) - want) < 1e-9, "cost must match the lift enumeration")


# ---------------------------------------------------------------------------
# scalar laws and products


@_check("scalars.inverse_cdf_moments")
def _scalar_moments():
    rng = np.random.default_rng(FAST_SEED + 5)
    laws = [
        scalars.atoms([(0.0, 0.25), (2.0, 0.75)]),
        scalars.uniform(-1.0, 3.0),
        scalars.exponential(0.5),
        scalars.dyadic(),
    ]
    for law in laws:
        draws = np.asarray(law.sample(rng, 200000), dtype=float)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        _expect(abs(draws.mean() - law.mean()) < 5.0 * max(se, 1e-12), law.kind)


@_check("cocycle.scaled_product_matches_direct")
def _scaled_product():
    rng = np.random.default_rng(FAST_SEED + 6)
    mats = _random_invertible(rng, 80)[:30]
    _expect(len(mats) == 30)
    w = cocycle.OrbitWindow(offset=-10, matrices=mats)
    scaled = cocycle.cocycle_product_scaled(w, -5, 20)
    direct = np.eye(2)
    for i in range(-5, 15):
        direct = w.matrix_at(i) @ direct
    got = scaled.mat * math.exp(scaled.log_scale)
    _expect(float(np.abs(got - direct).max()) < 1e-9 * float(np.abs(direct).max()))


@_check("cocycle.windows_deterministic_in_seed")
def _window_determinism():
    nu = cocycle.rotgain_distribution(
        scalars.uniform(0.0, math.pi), scalars.uniform(-0.5, 0.5)
    )
    w1 = cocycle.sample_onestep(nu, 200, seed=FAST_SEED)
    w2 = cocycle.sample_onestep(nu, 200, seed=FAST_SEED)
    _expect(np.array_equal(w1.matrices, w2.matrices))


# ---------------------------------------------------------------------------
# exponent and direction estimators


@_check("estimation.diagonal_atom_exponents")
def _diag_exponents():
    nu = cocycle.atoms_distribution([(((2.0, 0.0), (0.0, 0.5)), 1.0)])
    w = cocycle.sample_onestep(nu, 2000, seed=FAST_SEED)
    lam = estimation.lyapunov_estimates(w)
    _expect(abs(lam.top - math.log(2.0)) < 1e-12)
    _expect(abs(lam.bottom + math.log(2.0)) < 1e-12)


@_check("estimation.triangular_directions_converge")
def _triangular_directions():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1.0)), scalars.constant(1.0)
    )
    w = cocycle.sample_onestep(nu, 200, seed=FAST_SEED)
    x_const = 1.0 / (1.0 - math.exp(-1.0))
    e1 = estimation.estimate_E1_backward(w, 60)
    _expect(float(gl2.line_angle(e1, math.atan2(1.0, x_const))) < 1e-6)
    e2 = estimation.estimate_E2_forward(w, 60)
    _expect(float(gl2.line_angle(e2, 0.0)) < 1e-6, "contracting line must be the first axis")


@_check("estimation.tail_verdicts_on_samples", fast=False)
def _tail_verdicts():
    grow = estimation.build_counterexample_cocycle()
    v = estimation.triangular_gap_neglog_samples(grow, 200000, seed=FAST_SEED)
    rep = estimation.angle_tail_report_neglog(v, (4.0, 8.0, 16.0, 32.0, 64.0))
    _expect(rep.verdict == "growing", f"heavy-tail control read as {rep.verdict}")
    calm = cocycle.rotgain_distribution(
        scalars.uniform(0.0, math.pi), scalars.constant(1.0)
    )
    s = estimation.oseledets_angle_samples(calm, 30000, 300, seed=FAST_SEED)
    rep2 = estimation.angle_tail_report(s, (4.0, 8.0, 16.0, 32.0, 64.0))
    _expect(rep2.verdict == "converging", f"light-tail control read as {rep2.verdict}")


# ---------------------------------------------------------------------------
# towers


@_check("skyscraper.kac_masses_normalize")
def _kac_normalizes():
    rng = np.random.default_rng(FAST_SEED + 8)
    for _ in range(20):
        # height 1 keeps the support's gcd at 1 whatever else is drawn
        ks = np.unique(np.concatenate([[1], rng.integers(2, 30, rng.integers(1, 6))]))
        p = rng.dirichlet(np.ones(len(ks)))
        tower = skyscraper.TowerVector(dict(zip((int(k) for k in ks), p)))
        base = skyscraper.kac_base_measures(tower)
        total = math.fsum(k * m for k, m in base.items())
        _expect(abs(total - 1.0) <= 1e-12)
        for k, m in base.items():
            _expect(abs(m * k - tower.entries[k]) <= 1e-12)


@_check("skyscraper.labels_move_one_floor_at_a_time")
def _labels_lipschitz():
    p = (0.75, 0.2, 0.05)
    tower = skyscraper.bounded_tower_vector(p)
    heights, levels = skyscraper.renewal_trajectory(tower, 100000, seed=FAST_SEED)
    labels = skyscraper.trajectory_labels(heights, levels)
    _expect(int(np.abs(np.diff(labels)).max()) <= 1)
    want = skyscraper.label_measures(p)
    for lab, mass in want.items():
        freq = float((labels == lab).mean())
        se = math.sqrt(mass * (1.0 - mass) / labels.size)
        _expect(abs(freq - mass) < 6.0 * se + 1e-6, f"label {lab} occupancy off")


@_check("skyscraper.bounded_vectors_step_down")
def _bounded_vectors():
    rng = np.random.default_rng(FAST_SEED + 9)
    for _ in range(20):
        q = rng.dirichlet(np.ones(rng.integers(1, 8)))
        values, owners = skyscraper.refine_weights(q)
        _expect(np.all(np.diff(values) < 0.0))
        d = np.diff(owners)
        _expect(np.all((d == 0) | (d == 1)) and owners[0] == 0)
        tower = skyscraper.bounded_tower_vector(values)
        ks = sorted(tower.entries)
        _expect(ks[0] == 1 and all(k % 2 == 0 for k in ks[1:]))


@_check("skyscraper.lowcost_heights_certify_budget")
def _lowcost_heights():
    rng = np.random.default_rng(FAST_SEED + 10)
    for _ in range(20):
        caps = np.sort(rng.uniform(0.0, 4.0, rng.integers(2, 7)))
        eps = float(rng.uniform(0.05, 0.5))
        ks = skyscraper.lowcost_heights(caps, eps)
        _expect(all(2.0 * c / k < eps for c, k in zip(caps, ks)))
        _expect(all(b > a for a, b in zip(ks, ks[1:])))
        _expect(math.gcd(*ks) == 1)


# ---------------------------------------------------------------------------
# prescribed-splitting constructions


def _min_cut_value(cells) -> float:
    """Largest, over the bipartitions of the cells, of the smallest
    log-sin-gap interval gap between the two sides, by exhaustion (-inf for
    one cell).  A mixture of these cells fits budget b iff this is below b."""
    n = len(cells)
    gap = [[flexible._interval_gap(a.u_lo, a.u_hi, b.u_lo, b.u_hi) for b in cells] for a in cells]
    best = -math.inf
    for mask in range(1, 2 ** (n - 1)):  # cell 0 stays on side a
        side_b = [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        side_a = [i for i in range(n) if i not in side_b]
        best = max(best, min(gap[i][j] for i in side_a for j in side_b))
    return best


@_check("flexible.budget_check_matches_bipartition_search")
def _budget_vs_brute():
    rng = np.random.default_rng(FAST_SEED + 11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        cells = []
        for _ in range(n):
            lo = float(rng.uniform(0.05, 1.2))
            hi = float(rng.uniform(lo, min(lo + 0.4, math.pi / 2)))
            cells.append(flexible.uniform_cell(0.1, 0.3, lo, hi))
        eta = flexible.EtaSpec(pieces=tuple(zip(rng.dirichlet(np.ones(n)), cells)))
        cut = _min_cut_value(cells)
        for b in (0.05, 0.3, 1.0):
            _expect(flexible.budget_fit_check(eta, b).fits == (cut < b))


_FOUR_CELL = flexible.EtaSpec(
    pieces=(
        (0.4, flexible.uniform_cell(0.1, 0.8, 0.30, 0.50)),
        (0.3, flexible.uniform_cell(1.0, 1.7, 0.50, 0.70)),
        (0.2, flexible.uniform_cell(1.9, 2.6, 0.80, 1.00)),
        (0.1, flexible.uniform_cell(2.7, 3.1, 1.20, 1.40)),
    )
)


@_check("flexible.chain_respects_budget")
def _chain_contracts():
    pieces = flexible.decompose_eta(_FOUR_CELL)
    b = 0.5
    chain = flexible.march_chain(pieces, b)
    spans = [(c.cell.u_lo, c.cell.u_hi) for c in chain]
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        _expect(max(hi1, hi2) - min(lo1, lo2) < b)
    _expect(abs(math.fsum(c.mass for c in chain) - 1.0) <= 1e-12)
    per = {}
    for c in chain:
        _expect(c.mass > 0.0)
        per[c.piece] = per.get(c.piece, 0.0) + c.mass
    for n, piece in enumerate(pieces):
        _expect(abs(per[n] - piece.weight) <= 1e-12)


def _bounded_run(steps, tv_tol, exp_tol):
    b = 0.5
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "bounded", steps, seed=FAST_SEED, budget=b
    )
    costs = flexible.step_costs(w, "bounded", 0.5, -0.5)
    _expect(float(costs.max()) < b, "per-step budget is a hard bound")
    _expect(int(np.abs(np.diff(w.labels)).max()) <= 1)
    rep = flexible.verify_flexible(w, _FOUR_CELL, 0.5, -0.5, mode="bounded")
    _expect(abs(rep.lambda_hat[0] - 0.5) < exp_tol, f"top exponent {rep.lambda_hat[0]}")
    _expect(abs(rep.lambda_hat[1] + 0.5) < exp_tol, f"bottom exponent {rep.lambda_hat[1]}")
    _expect(rep.tv_distance < tv_tol, f"tv distance {rep.tv_distance}")
    _expect(rep.agreement_fraction >= 0.99)


@_check("flexible.bounded_steps_stay_in_budget")
def _bounded_run_fast():
    _bounded_run(200000, 0.03, 0.05)


@_check("flexible.bounded_run_hits_long_tolerances", fast=False)
def _bounded_run_long():
    _bounded_run(1000000, 0.02, 0.05)


@_check("flexible.prescribed_lines_are_carried")
def _prescribed_invariance():
    for mode, kw in (("bounded", {"budget": 0.5}), ("lowcost", {"epsilon": 0.2})):
        w = flexible.simulate_flexible(
            _FOUR_CELL, 0.5, -0.5, mode, 20000, seed=FAST_SEED, **kw
        )
        for j in (0, 1):
            img = gl2.projective_action(w.matrices, w.prescribed_f[:, j])
            miss = gl2.line_angle(img[:-1], w.prescribed_f[1:, j])
            _expect(float(miss.max()) < 1e-9, f"{mode} line {j} not carried")


def _lowcost_run(steps, eps):
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "lowcost", steps, seed=FAST_SEED, epsilon=eps
    )
    costs = flexible.step_costs(w, "lowcost", 0.5, -0.5)
    blocks = np.array_split(costs, 40)
    means = np.array([blk.mean() for blk in blocks])
    se = means.std(ddof=1) / math.sqrt(len(means))
    _expect(means.mean() < eps + 3.0 * se, f"mean cost {means.mean()} vs epsilon {eps}")


@_check("flexible.lowcost_mean_under_epsilon")
def _lowcost_run_fast():
    _lowcost_run(200000, 0.2)


@_check("flexible.lowcost_run_hits_long_tolerances", fast=False)
def _lowcost_run_long():
    _lowcost_run(1000000, 0.1)


@_check("flexible.atom_construction_is_exact")
def _atom_exact():
    eta = flexible.EtaSpec(pieces=((1.0, flexible.atom_cell(0.7, math.pi / 3)),))
    w = flexible.simulate_flexible(
        eta, 1.0, -1.0, "bounded", 12000, seed=FAST_SEED, budget=0.3
    )
    rep = flexible.verify_flexible(w, eta, 1.0, -1.0, mode="bounded")
    _expect(rep.tv_distance == 0.0 and rep.ks_theta == 0.0)
    _expect(rep.max_cost == 0.0 and rep.agreement_fraction == 1.0)


# ---------------------------------------------------------------------------
# the batch front end


@_check("cli.reports_byte_identical")
def _cli_deterministic():
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from . import cli

    nu = cocycle.atoms_distribution([(((2.0, 0.0), (0.0, 0.5)), 1.0)])
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "nu.json"
        spec.write_text(nu.to_json())
        outs = []
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(
                    [
                        "onestep", "--spec", str(spec), "--steps", "1200",
                        "--trials", "400", "--seed", "7", "--out", str(out),
                    ]
                )
            _expect(code == 0)
            outs.append((out / "onestep_report.json").read_bytes())
        _expect(outs[0] == outs[1], "same config and seed must give identical bytes")
        obj = json.loads(outs[0])
        _expect(obj["config"]["seed"] == "7" and obj["seed"] == "7")


@_check("cli.infeasible_budget_exits_two")
def _cli_infeasible():
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli

    eta = flexible.EtaSpec(
        pieces=(
            (0.5, flexible.atom_cell(0.3, 1.5)),
            (0.5, flexible.atom_cell(0.9, 0.01)),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "eta.json"
        spec.write_text(eta.to_json())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(
                [
                    "flexible", "--spec", str(spec), "--mode", "bounded",
                    "--budget", "0.5", "--steps", "2000", "--seed", "0", "--out", tmp,
                ]
            )
        _expect(code == 2)
        _expect("witness" in err.getvalue())
