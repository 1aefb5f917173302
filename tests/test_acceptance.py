"""End-to-end acceptance gate: thirteen criteria, one test each.

Each criterion re-checks a headline contract at full scale, against an
independent oracle (closed forms, exhaustive search, or batch-means error
bars), and asserts its stated runtime budget.  Criteria:

 1. pair-map singular values match the closed form         (1e-10, < 1 s)
 2. bounded travel cost equals the pair-map norm           (1e-10, < 1 s)
 3. one-step angle-drift bound along every simulated orbit (hard)
 4. solvable triangular family: exponents and direction    (< 30 s)
 5. lag-discounted supremum: exact mean vs Monte Carlo     (< 30 s)
 6. heavy-tail verdict "growing" with light-tail control   (< 5 min)
 7. tower base masses and renewal occupancy                (< 1 min)
 8. closed-form labels, Lipschitz steps, label occupancy   (< 1 min)
 9. bounded-mode construction at a million steps           (< 5 min)
10. lowcost-mode construction at a million steps           (< 5 min)
11. budget checker vs exhaustive bipartition search        (< 1 min)
12. product lower/upper bounds on random term lists        (< 5 s)
13. negative-drift supremum: exact zero, stabilization     (< 2 min)
"""

import functools
import math
import time

import numpy as np

from oseledets import flexible as fx
from oseledets import gl2, scalars, skyscraper, verify
from oseledets.cocycle import (
    rotgain_distribution,
    sample_onestep,
    triangular_distribution,
)
from oseledets.estimation import (
    angle_tail_report,
    angle_tail_report_neglog,
    build_counterexample_cocycle,
    estimate_E1_backward,
    exact_sup_tail,
    lyapunov_estimates,
    negative_drift_supremum,
    oseledets_angle_samples,
    sample_sup_values,
    triangular_gap_neglog_samples,
    weierstrass_bounds,
)
from oseledets.flexible import (
    EtaSpec,
    atom_cell,
    budget_fit_check,
    simulate_flexible,
    step_costs,
    uniform_cell,
    verify_flexible,
)

FOUR_CELL = EtaSpec(
    pieces=(
        (0.4, uniform_cell(0.1, 0.8, 0.30, 0.50)),
        (0.3, uniform_cell(1.0, 1.7, 0.50, 0.70)),
        (0.2, uniform_cell(1.9, 2.6, 0.80, 1.00)),
        (0.1, uniform_cell(2.7, 3.1, 1.20, 1.40)),
    )
)
BUDGET_B = 0.5
RATES = (0.5, -0.5)


@functools.lru_cache(maxsize=None)
def bounded_window():
    return simulate_flexible(
        FOUR_CELL, *RATES, "bounded", 1_000_000, seed=101, budget=BUDGET_B
    )


@functools.lru_cache(maxsize=None)
def lowcost_window():
    return simulate_flexible(
        FOUR_CELL, *RATES, "lowcost", 1_000_000, seed=102, epsilon=0.1
    )


def batch_mean_se(values, blocks=50):
    per = np.array([b.mean() for b in np.array_split(np.asarray(values, float), blocks)])
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(blocks))


def test_criterion_01_pair_map_singular_values_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 10_000
    base_x = rng.uniform(0.0, 2.0 * math.pi, n)
    base_y = rng.uniform(0.0, 2.0 * math.pi, n)
    gap_x = rng.uniform(0.01, math.pi - 0.01, n)
    gap_y = rng.uniform(0.01, math.pi - 0.01, n)
    m = gl2.interp_matrix((base_x, base_x + gap_x), (base_y, base_y + gap_y))
    sv = gl2.svd2(m)
    a, b = gl2.interp_singular_values(gap_x, gap_y)
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    assert float(np.abs(hi - sv.s1).max()) < 1e-10
    assert float(np.abs(lo - sv.s2).max()) < 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_bounded_cost_equals_pair_map_norm():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    n = 10_000
    ax = rng.uniform(0.0, math.pi, n)
    ay = rng.uniform(0.0, math.pi, n)
    tx = rng.uniform(1e-3, math.pi / 2, n)
    ty = rng.uniform(1e-3, math.pi / 2, n)
    costs = np.empty(n)
    lifts = np.empty((4, n))
    for i in range(n):
        x = gl2.splitting(ax[i], gl2.canon_line(ax[i] + tx[i]))
        y = gl2.splitting(ay[i], gl2.canon_line(ay[i] + ty[i]))
        costs[i] = gl2.transfer_cost_bounded(x, y)
        lifts[0, i], lifts[1, i] = gl2.canonical_lift(x)
        lifts[2, i], lifts[3, i] = gl2.canonical_lift(y)
    m = gl2.interp_matrix((lifts[0], lifts[1]), (lifts[2], lifts[3]))
    ref = gl2.log_norm_max(m)
    assert float(np.abs(costs - ref).max()) < 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_angle_drift_bound_on_every_simulated_orbit():
    worst = math.inf
    for w in (bounded_window(), lowcost_window()):
        lhs, rhs = gl2.angle_drift_gap(
            w.matrices, w.prescribed_f[:, 0], w.prescribed_f[:, 1]
        )
        worst = min(worst, float((rhs - lhs).min()))
    rng = np.random.default_rng(13)
    iid_laws = (
        rotgain_distribution(scalars.uniform(0.0, math.pi), scalars.uniform(-1.0, 1.0)),
        triangular_distribution(scalars.uniform(0.5, 2.0), scalars.uniform(-1.0, 1.0)),
    )
    for seed, nu in enumerate(iid_laws):
        w = sample_onestep(nu, 50_000, seed=seed)
        n = w.matrices.shape[0]
        a1 = rng.uniform(0.0, math.pi, n)
        a2 = gl2.canon_line(a1 + rng.uniform(0.01, math.pi / 2, n))
        lhs, rhs = gl2.angle_drift_gap(w.matrices, a1, a2)
        worst = min(worst, float((rhs - lhs).min()))
    assert worst >= -1e-9


def test_criterion_04_triangular_exponents_and_direction():
    t0 = time.perf_counter()
    nu = triangular_distribution(
        scalars.constant(math.exp(-1.0)), scalars.constant(1.0)
    )
    w = sample_onestep(nu, 1_000_000, seed=14)
    lam = lyapunov_estimates(w)
    assert abs(lam.top - 0.0) < 0.02
    assert abs(lam.bottom + 1.0) < 0.02
    e1 = estimate_E1_backward(w, 60)
    x_hat = math.cos(e1) / math.sin(e1)
    x_const = 1.0 / (1.0 - math.exp(-1.0))
    assert abs(x_hat - x_const) < 1e-5
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_sup_mean_exact_vs_monte_carlo():
    t0 = time.perf_counter()
    psi = scalars.atoms([(0.0, 0.5), (2.0, 0.5)])
    tail = exact_sup_tail(psi)
    assert tail.expectation == 1.25  # closed form, exact
    assert not tail.infinite
    y = sample_sup_values(psi, trials=100_000, seed=15)
    se = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - 1.25) < 3.0 * se
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_heavy_tail_grows_and_control_converges():
    t0 = time.perf_counter()
    thresholds = (4.0, 8.0, 16.0, 32.0, 64.0)
    grow = build_counterexample_cocycle()
    v = triangular_gap_neglog_samples(grow, 120_000, seed=16)
    rep = angle_tail_report_neglog(v, thresholds)
    assert rep.verdict == "growing"
    d = np.minimum(v, 64.0) - np.minimum(v, 4.0)
    joint_se = d.std(ddof=1) / math.sqrt(d.size)
    assert d.mean() > 5.0 * joint_se
    calm = rotgain_distribution(scalars.uniform(0.0, math.pi), scalars.constant(1.0))
    s = oseledets_angle_samples(calm, 100_000, 200, seed=16)
    rep2 = angle_tail_report(s, thresholds)
    assert rep2.verdict == "converging"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_07_tower_base_masses_and_occupancy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    towers = [skyscraper.bounded_tower_vector((0.75, 0.2, 0.05))]
    for _ in range(10):
        p = np.sort(rng.dirichlet(np.ones(rng.integers(2, 7))))[::-1]
        p = p[np.concatenate([[True], np.diff(p) < 0.0])]  # strictly decreasing
        towers.append(skyscraper.bounded_tower_vector(tuple(p)))
        ks = np.unique(np.concatenate([[1], rng.integers(2, 25, 4)]))
        towers.append(
            skyscraper.TowerVector(
                dict(zip((int(k) for k in ks), rng.dirichlet(np.ones(len(ks)))))
            )
        )
    for tower in towers:
        base = skyscraper.kac_base_measures(tower)
        assert abs(math.fsum(k * m for k, m in base.items()) - 1.0) <= 1e-12
    pi = towers[0]
    heights, levels = skyscraper.renewal_trajectory(pi, 1_000_000, seed=17)
    for k, mass in pi.entries.items():
        mean, se = batch_mean_se(heights == k)
        assert abs(mean - mass) < 3.0 * max(se, 1e-5), f"tower {k} occupancy"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_labels_closed_form_and_occupancy():
    t0 = time.perf_counter()
    # the label table on heights 1, 4, 6, checked level by level
    heights = np.array([1] + [4] * 4 + [6] * 6 + [4] * 4 + [1])
    levels = np.array([0] + list(range(4)) + list(range(6)) + list(range(4)) + [0])
    labels = skyscraper.trajectory_labels(heights, levels)
    assert np.array_equal(labels, np.minimum(levels, heights - 1 - levels))
    # simulated occupancy at a million steps
    p = (0.75, 0.2, 0.05)
    pi = skyscraper.bounded_tower_vector(p)
    assert sorted(pi.entries) == [1, 4, 6]
    h, i = skyscraper.renewal_trajectory(pi, 1_000_000, seed=18)
    lab = skyscraper.trajectory_labels(h, i)
    assert int(np.abs(np.diff(lab)).max()) <= 1
    for n, mass in enumerate(p):
        mean, se = batch_mean_se(lab == n)
        assert abs(mean - mass) < 3.0 * max(se, 1e-5), f"label {n} occupancy"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_bounded_construction_at_scale():
    t0 = time.perf_counter()
    w = bounded_window()
    costs = step_costs(w, "bounded", *RATES)
    assert float(costs.max()) < BUDGET_B  # hard, every step
    rep = verify_flexible(w, FOUR_CELL, *RATES, mode="bounded")
    assert abs(rep.lambda_hat[0] - RATES[0]) < 0.05
    assert abs(rep.lambda_hat[1] - RATES[1]) < 0.05
    assert rep.tv_distance < 0.02
    assert rep.agreement_fraction >= 0.99
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_lowcost_construction_at_scale():
    t0 = time.perf_counter()
    w = lowcost_window()
    costs = step_costs(w, "lowcost", *RATES)
    mean, se = batch_mean_se(costs)
    assert mean < 0.1 + 3.0 * se
    rep = verify_flexible(w, FOUR_CELL, *RATES, mode="lowcost")
    assert abs(rep.lambda_hat[0] - RATES[0]) < 0.05
    assert abs(rep.lambda_hat[1] - RATES[1]) < 0.05
    assert rep.tv_distance < 0.02
    assert rep.agreement_fraction >= 0.99
    assert time.perf_counter() - t0 < 300.0


def test_criterion_11_budget_checker_vs_exhaustive_bipartitions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    specs = []
    for n in range(2, 13):
        cells = []
        for j in range(n):
            lo = float(rng.uniform(0.05, 1.4))
            width = 0.0 if j % 3 == 0 else float(rng.uniform(0.0, 0.15))
            hi = min(lo + width, math.pi / 2)
            cells.append(uniform_cell(0.1, 0.4, lo, hi) if hi > lo else atom_cell(0.2, lo))
        specs.append(EtaSpec(pieces=tuple(zip(rng.dirichlet(np.ones(n)), cells))))
    specs.append(  # touching intervals: zero gaps, fits any positive budget
        EtaSpec(
            pieces=(
                (0.5, uniform_cell(0.1, 0.4, 0.3, 0.5)),
                (0.3, uniform_cell(0.6, 0.9, 0.5, 0.7)),
                (0.2, uniform_cell(1.1, 1.4, 0.7, 0.9)),
            )
        )
    )
    for eta in specs:
        cells = [cell for _, cell in eta.pieces]
        cut = verify._min_cut_value(cells)
        grid = [0.05, 0.2, 0.5, 1.0, 2.0, cut + 1e-9]
        if cut > 1e-9:
            grid.append(cut - 1e-9)
        for b in grid:
            res = budget_fit_check(eta, b)
            assert res.fits == (cut < b), (len(cells), b, cut)
            if not res.fits:
                a_side, b_side = res.witness
                for i in a_side:
                    for j in b_side:
                        gap = fx._interval_gap(
                            cells[i].u_lo, cells[i].u_hi,
                            cells[j].u_lo, cells[j].u_hi,
                        )
                        assert gap >= b  # the witness split really is out of reach
    assert time.perf_counter() - t0 < 60.0


def test_criterion_12_product_bounds_on_random_term_lists():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    lengths = rng.integers(1, 9, 100_000)
    pool = rng.uniform(0.0, 1.0, int(lengths.sum()))
    pool[rng.random(pool.size) < 0.01] = 0.0
    pool[rng.random(pool.size) < 0.01] = 1.0
    start = 0
    for m in lengths:
        terms = pool[start : start + m]
        start += m
        lo, value, up = weierstrass_bounds(terms)
        assert lo <= value + 1e-12
        assert value <= min(up, 1.0) + 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_13_negative_drift_supremum():
    t0 = time.perf_counter()
    rep = negative_drift_supremum(scalars.constant(3.0), horizon=200, trials=50, seed=0)
    assert rep.value == 0.0 and rep.stderr == 0.0 and rep.stabilized
    square = scalars.atoms([(0.0, 0.5), (6.0, 0.5)])
    rep2 = negative_drift_supremum(square, horizon=4000, trials=4000, seed=0)
    assert rep2.stabilized and rep2.value > 0.0
    heavy = scalars.affine(scalars.dyadic(), scale=-1.0, shift=2.0)
    rep3 = negative_drift_supremum(heavy, horizon=1000, trials=60_000, seed=0)
    assert not rep3.stabilized
    assert rep3.value > rep3.half_value
    assert time.perf_counter() - t0 < 120.0
