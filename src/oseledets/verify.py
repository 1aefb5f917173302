"""Named battery of the paper's checks, with fixed seeds.

Every library module promises a handful of invariants, and the paper's
claims give thirteen acceptance criteria; this module is the one list of
both, as named checks.  ``run_suite`` runs one of two suites: "fast"
keeps to the cheap checks (each about 0.3 s or less), "all" adds the
long statistical runs.  The runner never stops early; each check passes
quietly or fails with its name and message, so a regression is
identified by the invariant it broke.

Each check declares its runtime budget where it is registered
(``budget_s``).  ``osl verify`` prints the times but does not judge them,
so its exit code reads only pass or fail; tier-1 runs every check of
"all" as one test (``tests/test_acceptance.py``) and holds it to its
budget.  A ``# criterion NN`` comment marks each acceptance criterion,
and README's Testing section tables them.

Checks call into the library through module attributes (``gl2.svd2``,
never a local alias), so fault injection on a module function is seen by
every check that depends on it.  They fail through ``_expect``, never
``assert``, so the battery still checks under ``python -O``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cocycle, estimation, flexible, gl2, scalars, skyscraper

FAST_SEED = 20260816

# a check with no budget of its own is held to the fast suite's minute
DEFAULT_BUDGET_S = 60.0


class CheckResult(NamedTuple):
    name: str
    ok: bool
    seconds: float
    message: str


class _Check(NamedTuple):
    name: str
    fast: bool
    budget_s: float
    fn: Callable[[], None]


_CHECKS: list[_Check] = []


def _expect(ok, message: str = "") -> None:
    """The checks' assert, kept under python -O: fail the running check unless ok."""
    if not ok:
        raise AssertionError(message)


def _check(name: str, fast: bool = True, budget_s: float = DEFAULT_BUDGET_S):
    def deco(fn):
        _CHECKS.append(_Check(name, fast, budget_s, fn))
        return fn

    return deco


def _suite(suite: str) -> list[_Check]:
    if suite not in ("fast", "all"):
        raise ValueError("suite must be 'fast' or 'all'")
    return [c for c in _CHECKS if c.fast or suite == "all"]


def run_check(check: _Check) -> CheckResult:
    """Run one check and time it; whatever it raises is its failure."""
    t0 = time.perf_counter()
    try:
        check.fn()
        ok, msg = True, ""
    except Exception as err:  # any failure is a finding, never a crash
        ok, msg = False, f"{type(err).__name__}: {err}"
    return CheckResult(check.name, ok, time.perf_counter() - t0, msg)


def run_suite(suite: str = "fast", out=None) -> list[CheckResult]:
    """Run the battery; print one pass/fail line per check; return results."""
    stream = sys.stdout if out is None else out
    results = []
    for check in _suite(suite):
        r = run_check(check)
        tail = "" if r.ok else f": {r.message}"
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.2f}s){tail}", file=stream)
        results.append(r)
    npass = sum(r.ok for r in results)
    print(f"{npass}/{len(results)} checks passed", file=stream)
    return results


def _batch_mean_se(values, blocks: int) -> tuple[float, float]:
    """Mean of values and its batch-means standard error over equal blocks."""
    per = np.array([b.mean() for b in np.array_split(np.asarray(values, float), blocks)])
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(blocks))


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


# criterion 01
@_check("gl2.pair_map_singular_values_closed_form", budget_s=1.0)
def _pair_map_closed_form():
    rng = np.random.default_rng(11)
    base_x, base_y = rng.uniform(0.0, 2.0 * math.pi, (2, 10_000))
    gap_x, gap_y = rng.uniform(0.01, math.pi - 0.01, (2, 10_000))
    sv = gl2.svd2(gl2.interp_matrix((base_x, base_x + gap_x), (base_y, base_y + gap_y)))
    a, b = gl2.interp_singular_values(gap_x, gap_y)
    _expect(float(np.abs(np.maximum(a, b) - sv.s1).max()) < 1e-10, "s1 off the closed form")
    _expect(float(np.abs(np.minimum(a, b) - sv.s2).max()) < 1e-10, "s2 off the closed form")


# criterion 02
@_check("gl2.bounded_cost_is_pair_map_norm", budget_s=1.0)
def _bounded_cost_norm():
    rng = np.random.default_rng(12)
    ax, ay = rng.uniform(0.0, math.pi, (2, 10_000))
    tx, ty = rng.uniform(1e-3, math.pi / 2, (2, 10_000))
    x = gl2.splitting(ax, gl2.canon_line(ax + tx))
    y = gl2.splitting(ay, gl2.canon_line(ay + ty))
    got = gl2.transfer_cost_bounded(gl2.gap_angle(x), gl2.gap_angle(y))
    m = gl2.interp_matrix(gl2.canonical_lift(x), gl2.canonical_lift(y))
    _expect(float(np.abs(got - gl2.log_norm_max(m)).max()) < 1e-10, "cost must be log_norm_max")
    back = gl2.transfer_cost_bounded(gl2.gap_angle(y), gl2.gap_angle(x))
    _expect(float(np.abs(got - back).max()) < 1e-10, "must be symmetric")


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


@_check("cocycle.counterexample_log_norm_has_mean_not_variance")
def _counterexample_moments():
    # log|b| dyadic: E[log_norm_max] is finite and matches an atom-by-atom
    # oracle over the dyadic support; E[log_norm_max^2] is infinite, so its
    # estimate keeps climbing as the trials grow
    nu = estimation.build_counterexample_cocycle()
    small = cocycle.moment(nu, 2, trials=300, seed=12)
    big = cocycle.moment(nu, 2, trials=300_000, seed=12)
    _expect(big.value > 1.5 * small.value, f"second moment {small.value} -> {big.value}")
    oracle = 0.0
    for k in range(60):
        psi = 2.0**k
        if psi <= 300:
            s = np.linalg.svd([[math.exp(-1), math.exp(psi)], [0.0, 1.0]], compute_uv=False)
            v = max(math.log(s[0]), -math.log(s[1]))
        else:
            v = psi + 1.0  # ||g|| = |b| to machine precision; det = a
        oracle += 0.75 * 4.0**-k * v
    _expect(abs(oracle - 2.554833305296073) <= 1e-12, f"oracle {oracle}")
    first = cocycle.moment(nu, 1, trials=100_000, seed=12)
    _expect(abs(first.value - oracle) <= 4 * first.stderr, f"first moment {first.value}")


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


# criterion 04
@_check("estimation.triangular_exponents_and_direction", fast=False, budget_s=30.0)
def _triangular_exponents():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1.0)), scalars.constant(1.0)
    )
    w = cocycle.sample_onestep(nu, 1_000_000, seed=14)
    lam = estimation.lyapunov_estimates(w)
    _expect(abs(lam.top) < 0.02 and abs(lam.bottom + 1.0) < 0.02, f"exponents {lam}")
    e1 = estimation.estimate_E1_backward(w, 60)
    x_hat = math.cos(e1) / math.sin(e1)
    _expect(abs(x_hat - 1.0 / (1.0 - math.exp(-1.0))) < 1e-5, f"cotangent {x_hat}")


@_check("estimation.expanding_line_is_series_cotangent")
def _series_cotangent():
    # for [[1/e, e^psi], [0, 1]] the expanding line at time 0 is spanned by
    # (X, 1), X = sum over the past of e^(psi_n - n); so X dominates the
    # lag-discounted supremum of psi, which carries its tail to the angle
    psi = scalars.atoms([(0.0, 0.5), (2.0, 0.5)])
    nu = estimation.build_counterexample_cocycle(psi)
    for seed in range(10):
        w = cocycle.sample_onestep(nu, 60, seed=FAST_SEED + seed)
        past = w.matrices[59::-1]  # times -1, -2, ..., -60
        x = estimation.triangular_series(past[:, 0, 0], past[:, 0, 1], tol=1e-9)
        line = estimation.estimate_E1_backward(w, 60)
        _expect(float(gl2.line_angle(line, math.atan2(1.0, x))) < 1e-5, "line off the series")
        sup = estimation.lag_discounted_sup(np.log(past[:, 0, 1]), upper_bound=2.0)
        _expect(math.log(x) >= sup, f"series {x} below the supremum {sup}")


# criterion 05
@_check("estimation.sup_mean_exact_vs_monte_carlo", budget_s=30.0)
def _sup_mean():
    psi = scalars.atoms([(0.0, 0.5), (2.0, 0.5)])
    tail = estimation.exact_sup_tail(psi)
    _expect(np.allclose(tail.b[:2], [0.75, 0.5], rtol=1e-7, atol=0.0), f"P(Y >= k) {tail.b[:2]}")
    _expect(tail.expectation == 1.25 and not tail.infinite, "E[Y] must be 5/4 exactly")
    y = estimation.sample_sup_values(psi, trials=100_000, seed=15)
    se = y.std(ddof=1) / math.sqrt(y.size)
    _expect(abs(y.mean() - 1.25) < 3.0 * se, f"Monte Carlo mean {y.mean()}")


# criterion 06
@_check("estimation.tail_verdicts_on_samples", fast=False, budget_s=300.0)
def _tail_verdicts():
    thresholds = (4.0, 8.0, 16.0, 32.0, 64.0)
    grow = estimation.build_counterexample_cocycle()
    v = estimation.triangular_gap_neglog_samples(grow, 200_000, seed=FAST_SEED)
    rep = estimation.angle_tail_report_neglog(v, thresholds)
    _expect(rep.verdict == "growing", f"heavy-tail control read as {rep.verdict}")
    d = np.minimum(v, 64.0) - np.minimum(v, 4.0)
    se = d.std(ddof=1) / math.sqrt(d.size)
    _expect(d.mean() > 5.0 * se, f"truncated mean grew {d.mean()} +- {se} from 4 to 64")
    calm = cocycle.rotgain_distribution(
        scalars.uniform(0.0, math.pi), scalars.constant(1.0)
    )
    s = estimation.oseledets_angle_samples(calm, 100_000, 300, seed=16)
    rep2 = estimation.angle_tail_report(s, thresholds)
    _expect(rep2.verdict == "converging", f"light-tail control read as {rep2.verdict}")


NEGLOG_ORACLE_DEPTH = 8192


def _deep_neglog_oracle(a: float, b: scalars.ScalarDist, log_b: bool, rows: int, rng) -> np.ndarray:
    """-log sin(gap angle) from an explicit sum of NEGLOG_ORACLE_DEPTH terms
    of the series of [[a, b], [0, 1]], every b drawn through its inverse CDF."""
    lag = np.arange(NEGLOG_ORACLE_DEPTH) * math.log(a)
    out = np.empty(rows)
    for r in range(0, rows, 8):
        n = min(8, rows - r)
        z = b.icdf(rng.random((n, NEGLOG_ORACLE_DEPTH)))
        if not log_b:
            np.log(z, out=z)
        z += lag
        top = z.max(axis=1, keepdims=True)
        z -= top
        log_x = np.log(np.exp(z, out=z).sum(axis=1)) + top[:, 0]
        out[r : r + n] = 0.5 * np.logaddexp(0.0, 2.0 * log_x)
    return out


# the exact log-domain series against an explicit sum of its first 8192
# terms; a later term passes a row's max in about 1e-4 of the rows of the
# dyadic law at a = 1/e, below what 3000 oracle rows resolve
@_check("estimation.neglog_exact_tail_vs_deep_oracle", fast=False, budget_s=30.0)
def _neglog_deep_oracle():
    laws = (  # (a, law of b or of log b, log_b)
        (math.exp(-1.0), scalars.dyadic(), True),  # the counterexample
        (0.7, scalars.exponential(0.5), False),  # psi = log b: sf(t) = P(b > e^t)
        (0.8, scalars.atoms([(0.0, 0.6), (2.0, 0.3), (6.0, 0.1)]), True),
        (0.5, scalars.affine(scalars.dyadic(), 1.5, -1.0), True),
    )
    for i, (a, b, log_b) in enumerate(laws):
        nu = cocycle.triangular_distribution(scalars.constant(a), b, log_scale_b=log_b)
        v = estimation.triangular_gap_neglog_samples(nu, 40_000, seed=FAST_SEED + i)
        w = _deep_neglog_oracle(a, b, log_b, 3000, np.random.default_rng([FAST_SEED, i]))
        for t in (4.0, 8.0, 16.0, 32.0):
            cv, cw = np.minimum(v, t), np.minimum(w, t)
            se = math.hypot(cv.std(ddof=1) / math.sqrt(cv.size), cw.std(ddof=1) / math.sqrt(cw.size))
            diff = cv.mean() - cw.mean()
            _expect(abs(diff) <= 3.0 * se, f"law {i}, threshold {t}: exact - deep = {diff} (se {se})")


# criterion 12
@_check("estimation.weierstrass_bounds_sandwich_products", fast=False, budget_s=5.0)
def _product_bounds():
    rng = np.random.default_rng(20)
    lengths = rng.integers(1, 9, 100_000)
    pool = rng.uniform(0.0, 1.0, int(lengths.sum()))
    pool[rng.random(pool.size) < 0.01] = 0.0
    pool[rng.random(pool.size) < 0.01] = 1.0
    # each row holds one term list, zero-padded to 8: zeros change neither S nor the product
    terms = np.zeros((lengths.size, 8))
    terms[np.arange(8) < lengths[:, None]] = pool
    lo, value, up = estimation.weierstrass_bounds(terms)
    _expect(np.all(lo <= value + 1e-12), "S/(1+S) above 1 - prod(1 - a)")
    _expect(np.all(value <= np.minimum(up, 1.0) + 1e-12), "1 - prod(1 - a) above min(S, 1)")


# criterion 13
@_check("estimation.negative_drift_supremum_law", fast=False, budget_s=120.0)
def _drift_supremum():
    # a constant phi only falls: the supremum is the start, 0, at c = E[phi]/3
    rep = estimation.negative_drift_supremum(scalars.constant(3.0), horizon=200, trials=50, seed=0)
    _expect(rep.value == 0.0 and rep.stderr == 0.0 and rep.stabilized, f"{rep}")
    _expect(abs(rep.drift_c - 1.0) <= 1e-6, f"default drift {rep.drift_c}")
    # a finite second moment stabilizes as the horizon doubles
    square = scalars.atoms([(0.0, 0.5), (6.0, 0.5)])
    rep2 = estimation.negative_drift_supremum(square, horizon=4000, trials=4000, seed=0)
    _expect(rep2.stabilized and rep2.value > 0.0, f"{rep2}")
    # a finite mean with an infinite second moment keeps growing
    heavy = scalars.affine(scalars.dyadic(), scale=-1.0, shift=2.0)
    _expect(heavy.mean() == 0.5 and heavy.second_moment() == math.inf)
    rep3 = estimation.negative_drift_supremum(heavy, horizon=1000, trials=60_000, seed=0)
    _expect(not rep3.stabilized and rep3.value > rep3.half_value, f"{rep3}")


# ---------------------------------------------------------------------------
# towers


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


# criterion 07
@_check("skyscraper.kac_masses_and_renewal_occupancy", budget_s=60.0)
def _tower_occupancy():
    rng = np.random.default_rng(17)
    towers = [skyscraper.bounded_tower_vector((0.75, 0.2, 0.05))]
    for _ in range(10):
        p = np.sort(rng.dirichlet(np.ones(rng.integers(2, 7))))[::-1]
        p = p[np.concatenate([[True], np.diff(p) < 0.0])]  # strictly decreasing
        towers.append(skyscraper.bounded_tower_vector(tuple(p)))
        ks = np.unique(np.concatenate([[1], rng.integers(2, 25, 4)]))
        weights = rng.dirichlet(np.ones(len(ks)))
        towers.append(skyscraper.TowerVector(dict(zip((int(k) for k in ks), weights))))
    for tower in towers:
        base = skyscraper.kac_base_measures(tower)
        _expect(abs(math.fsum(k * m for k, m in base.items()) - 1.0) <= 1e-12, "Kac sum")
        for k, m in base.items():
            _expect(abs(k * m - tower.entries[k]) <= 1e-12, f"tower {k} base mass {m}")
    pi = towers[0]
    heights, _ = skyscraper.renewal_trajectory(pi, 1_000_000, seed=17)
    for k, mass in pi.entries.items():
        mean, se = _batch_mean_se(heights == k, 50)
        _expect(abs(mean - mass) < 3.0 * max(se, 1e-5), f"tower {k} occupancy {mean}")


# criterion 08
@_check("skyscraper.labels_closed_form_and_occupancy", budget_s=60.0)
def _label_occupancy():
    # the label table on heights 1, 4, 6, checked level by level
    heights = np.array([1] + [4] * 4 + [6] * 6 + [4] * 4 + [1])
    levels = np.array([0] + list(range(4)) + list(range(6)) + list(range(4)) + [0])
    labels = skyscraper.trajectory_labels(heights, levels)
    _expect(np.array_equal(labels, np.minimum(levels, heights - 1 - levels)), "label table")
    p = (0.75, 0.2, 0.05)
    want = skyscraper.label_measures(p)
    _expect(list(want) == [0, 1, 2], f"labels {list(want)}")
    _expect(all(abs(want[n] - mass) <= 1e-12 for n, mass in enumerate(p)), f"label law {want}")
    pi = skyscraper.bounded_tower_vector(p)
    _expect(sorted(pi.entries) == [1, 4, 6], f"heights {sorted(pi.entries)}")
    lab = skyscraper.trajectory_labels(*skyscraper.renewal_trajectory(pi, 1_000_000, seed=18))
    _expect(int(np.abs(np.diff(lab)).max()) <= 1, "labels must move one floor at a time")
    for n, mass in enumerate(p):
        mean, se = _batch_mean_se(lab == n, 50)
        _expect(abs(mean - mass) < 3.0 * max(se, 1e-5), f"label {n} occupancy {mean}")


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


# criterion 11
@_check("flexible.budget_check_matches_bipartition_search", budget_s=60.0)
def _budget_vs_brute():
    rng = np.random.default_rng(19)
    specs = []
    for n in range(2, 13):
        cells = []
        for j in range(n):
            lo = float(rng.uniform(0.05, 1.4))
            width = 0.0 if j % 3 == 0 else float(rng.uniform(0.0, 0.15))
            hi = min(lo + width, math.pi / 2)
            cell = flexible.uniform_cell(0.1, 0.4, lo, hi) if hi > lo else flexible.atom_cell(0.2, lo)
            cells.append(cell)
        specs.append(flexible.EtaSpec(pieces=tuple(zip(rng.dirichlet(np.ones(n)), cells))))
    specs.append(  # touching intervals: zero gaps, fits any positive budget
        flexible.EtaSpec(
            pieces=(
                (0.5, flexible.uniform_cell(0.1, 0.4, 0.3, 0.5)),
                (0.3, flexible.uniform_cell(0.6, 0.9, 0.5, 0.7)),
                (0.2, flexible.uniform_cell(1.1, 1.4, 0.7, 0.9)),
            )
        )
    )
    for eta in specs:
        cells = [cell for _, cell in eta.pieces]
        cut = _min_cut_value(cells)
        grid = [0.05, 0.2, 0.3, 0.5, 1.0, 2.0, cut + 1e-9] + ([cut - 1e-9] if cut > 1e-9 else [])
        for b in grid:
            res = flexible.budget_fit_check(eta, b)
            _expect(res.fits == (cut < b), f"{len(cells)} cells, budget {b}, cut {cut}")
            if not res.fits:  # the witness split really is out of reach
                gaps = [
                    flexible._interval_gap(cells[i].u_lo, cells[i].u_hi, cells[j].u_lo, cells[j].u_hi)
                    for i in res.witness[0]
                    for j in res.witness[1]
                ]
                _expect(min(gaps) >= b, f"witness sides {min(gaps)} apart at budget {b}")


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


def _expect_prescribed_law(w, mode: str, tv_tol: float):
    """Closed-loop check of a _FOUR_CELL window at rates (0.5, -0.5); returns the report."""
    rep = flexible.verify_flexible(w, _FOUR_CELL, 0.5, -0.5, mode=mode)
    _expect(abs(rep.lambda_hat[0] - 0.5) < 0.05, f"top exponent {rep.lambda_hat[0]}")
    _expect(abs(rep.lambda_hat[1] + 0.5) < 0.05, f"bottom exponent {rep.lambda_hat[1]}")
    _expect(rep.tv_distance < tv_tol, f"tv distance {rep.tv_distance}")
    _expect(rep.agreement_fraction >= 0.99, f"agreement {rep.agreement_fraction}")
    return rep


def _expect_drift_bound(g, a1, a2) -> None:
    """Criterion 03's one-step angle-drift bound at every step of an orbit."""
    lhs, rhs = gl2.angle_drift_gap(g, a1, a2)
    worst = float((rhs - lhs).min())
    _expect(worst >= -1e-9, f"a step beats the drift bound by {-worst}")


def _bounded_run(w, tv_tol):
    rep = _expect_prescribed_law(w, "bounded", tv_tol)
    _expect(rep.max_cost < 0.5, "per-step budget is a hard bound")
    _expect(int(np.abs(np.diff(w.labels)).max()) <= 1)


@_check("flexible.bounded_steps_stay_in_budget")
def _bounded_run_fast():
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "bounded", 200_000, seed=FAST_SEED, budget=0.5
    )
    _bounded_run(w, 0.03)


# criterion 09
@_check("flexible.bounded_run_hits_long_tolerances", fast=False, budget_s=300.0)
def _bounded_run_long():
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "bounded", 1_000_000, seed=101, budget=0.5
    )
    _bounded_run(w, 0.02)
    _expect_drift_bound(w.matrices, *w.prescribed_f.T)


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


def _lowcost_mean_cost(w, eps, blockings):
    """Mean step cost below eps plus three batch-means standard errors, under
    each number of blocks in blockings."""
    costs = flexible.step_costs(w, "lowcost", 0.5, -0.5)
    for blocks in blockings:
        mean, se = _batch_mean_se(costs, blocks)
        _expect(mean < eps + 3.0 * se, f"mean cost {mean} vs epsilon {eps}, {blocks} blocks")


@_check("flexible.lowcost_mean_under_epsilon")
def _lowcost_run_fast():
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "lowcost", 200_000, seed=FAST_SEED, epsilon=0.2
    )
    _lowcost_mean_cost(w, 0.2, (40,))


# criterion 10
@_check("flexible.lowcost_run_hits_long_tolerances", fast=False, budget_s=300.0)
def _lowcost_run_long():
    w = flexible.simulate_flexible(
        _FOUR_CELL, 0.5, -0.5, "lowcost", 1_000_000, seed=102, epsilon=0.1
    )
    _lowcost_mean_cost(w, 0.1, (40, 50))
    _expect_prescribed_law(w, "lowcost", 0.02)
    _expect_drift_bound(w.matrices, *w.prescribed_f.T)


# criterion 03 (with 09 and 10, which check it along their million-step windows)
@_check("gl2.angle_drift_bound_on_every_orbit", fast=False)
def _orbit_drift_bound():
    rng = np.random.default_rng(13)
    iid_laws = (
        cocycle.rotgain_distribution(scalars.uniform(0.0, math.pi), scalars.uniform(-1.0, 1.0)),
        cocycle.triangular_distribution(scalars.uniform(0.5, 2.0), scalars.uniform(-1.0, 1.0)),
    )
    for seed, nu in enumerate(iid_laws):
        w = cocycle.sample_onestep(nu, 50_000, seed=seed)
        a1 = rng.uniform(0.0, math.pi, len(w.matrices))
        a2 = gl2.canon_line(a1 + rng.uniform(0.01, math.pi / 2, len(w.matrices)))
        _expect_drift_bound(w.matrices, a1, a2)


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


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``osl argv`` in-process, its stdout dropped: (exit code, stderr)."""
    from . import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@_check("cli.reports_byte_identical")
def _cli_deterministic():
    nu = cocycle.atoms_distribution([(((2.0, 0.0), (0.0, 0.5)), 1.0)])
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "nu.json"
        spec.write_text(nu.to_json())
        outs = []
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            code, _ = _run_cli(
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
    eta = flexible.EtaSpec(
        pieces=(
            (0.5, flexible.atom_cell(0.3, 1.5)),
            (0.5, flexible.atom_cell(0.9, 0.01)),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "eta.json"
        spec.write_text(eta.to_json())
        code, err = _run_cli(
            [
                "flexible", "--spec", str(spec), "--mode", "bounded",
                "--budget", "0.5", "--steps", "2000", "--seed", "0", "--out", tmp,
            ]
        )
        _expect(code == 2)
        _expect("witness" in err and "pieces [0]" in err)
