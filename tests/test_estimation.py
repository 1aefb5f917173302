"""Tests for exponent/direction estimation and the heavy-tail machinery.

Oracles: diagonal and rotation families have exact exponents; the
triangular family's expanding line has the explicit series cotangent
1/(1 - 1/e) for constant entries; the lag-discounted supremum has a
closed-form tail law; LAPACK and brute-force sums pin everything else.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oseledets import cocycle, estimation as est, gl2, scalars
from oseledets.cocycle import WindowExhausted
from oseledets.estimation import (
    NeedMoreSamples,
    NoData,
    NonNegativeDrift,
    SeriesDiverging,
    angle_tail_report,
    angle_tail_report_neglog,
    build_counterexample_cocycle,
    counterexample_psi,
    estimate_E1_backward,
    estimate_E2_forward,
    exact_sup_tail,
    lag_discounted_sup,
    lyapunov_estimates,
    negative_drift_supremum,
    oseledets_angle_samples,
    sample_sup_values,
    suggested_depth,
    triangular_gap_neglog_samples,
    triangular_series,
    weierstrass_bounds,
)
from oseledets.scalars import BadTerm, Unsupported

X_CONST = 1.0 / (1.0 - math.exp(-1))  # series value for a = 1/e, b = 1


def mat2(a11, a12, a21, a22):
    """A 2x2 float matrix from its entries, row-major."""
    return np.array([[a11, a12], [a21, a22]], dtype=float)


def constant_window(mat, half_width, seed=0):
    nu = cocycle.atoms_distribution([(mat, 1.0)])
    return cocycle.sample_onestep(nu, half_width, seed=seed)


# ---------------------------------------------------------------------------
# exponents


def test_lyapunov_diagonal_exact():
    w = constant_window(mat2(2, 0, 0, 0.5), 1500)
    lam = lyapunov_estimates(w)
    assert lam.top == pytest.approx(math.log(2.0), abs=1e-12)
    assert lam.bottom == pytest.approx(-math.log(2.0), abs=1e-12)


def test_lyapunov_rotation_zero():
    w = constant_window(gl2.rotation(0.7), 1500)
    lam = lyapunov_estimates(w)
    assert lam.top == pytest.approx(0.0, abs=1e-9)
    assert lam.bottom == pytest.approx(0.0, abs=1e-9)


def test_lyapunov_triangular_constant_b():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.constant(1.0)
    )
    w = cocycle.sample_onestep(nu, 100_000, seed=0)
    lam = lyapunov_estimates(w)
    assert lam.top == pytest.approx(0.0, abs=0.05)
    assert lam.bottom == pytest.approx(-1.0, abs=0.05)


def test_lyapunov_ordering_and_warning():
    rng = np.random.default_rng(0)
    mats = rng.uniform(-2, 2, size=(600, 2, 2))
    mats = mats[np.abs(gl2.det2(mats)) > 1e-2]
    w = cocycle.OrbitWindow(offset=0, matrices=mats)
    with pytest.warns(UserWarning):
        lam = lyapunov_estimates(w)
    assert lam.top >= lam.bottom
    with pytest.raises(WindowExhausted):
        lyapunov_estimates(cocycle.OrbitWindow(offset=-4, matrices=mats[:4]))


# ---------------------------------------------------------------------------
# splitting directions


def test_directions_diagonal_exact():
    w = constant_window(mat2(2, 0, 0, 0.5), 80)
    assert estimate_E2_forward(w, 60) == pytest.approx(math.pi / 2, abs=1e-12)
    assert estimate_E1_backward(w, 60) == pytest.approx(0.0, abs=1e-12)


def test_directions_triangular_constant():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.constant(1.0)
    )
    w = cocycle.sample_onestep(nu, 60, seed=0)
    assert gl2.line_angle(estimate_E2_forward(w, 60), 0.0) < 1e-6
    e1 = estimate_E1_backward(w, 60)
    assert gl2.line_angle(e1, math.atan2(1.0, X_CONST)) < 1e-6


def test_directions_triangular_zero_b():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.constant(0.0)
    )
    w = cocycle.sample_onestep(nu, 60, seed=0)
    assert gl2.line_angle(estimate_E1_backward(w, 60), math.pi / 2) < 1e-12


def test_backward_direction_matches_series_on_random_b():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.uniform(0.5, 1.5)
    )
    for seed in range(10):
        w = cocycle.sample_onestep(nu, 60, seed=seed)
        a_vals = [w.matrix_at(-j - 1)[0, 0] for j in range(60)]
        b_vals = [w.matrix_at(-j - 1)[0, 1] for j in range(60)]
        x = triangular_series(a_vals, b_vals, tol=1e-9)
        d = gl2.line_angle(estimate_E1_backward(w, 60), math.atan2(1.0, x))
        assert d < 1e-5


def test_direction_estimates_contract_with_depth():
    nu = cocycle.rotgain_distribution(scalars.uniform(0, 2 * math.pi), scalars.constant(1.0))
    w = cocycle.sample_onestep(nu, 60, seed=3)
    assert gl2.line_angle(estimate_E2_forward(w, 30), estimate_E2_forward(w, 60)) < 1e-9
    assert gl2.line_angle(estimate_E1_backward(w, 30), estimate_E1_backward(w, 60)) < 1e-9


def test_suggested_depth():
    assert suggested_depth(2.0) >= math.log(1e8) / 2.0
    d = suggested_depth(0.5, target=1e-6)
    assert math.exp(-0.5 * d) < 1e-6
    with pytest.raises(ValueError):
        suggested_depth(0.0)


# ---------------------------------------------------------------------------
# the invariant series


def test_series_zero_b():
    assert triangular_series([0.5] * 10, [0.0] * 10, tol=1e-9) == 0.0


def test_series_finite_support():
    a = [0.5] * 40
    b = [2.0, 4.0] + [0.0] * 38
    assert triangular_series(a, b, tol=1e-9) == 4.0


def test_series_geometric():
    n = 60
    x = triangular_series([math.exp(-1)] * n, [1.0] * n, tol=1e-9)
    assert x == pytest.approx(X_CONST, abs=2e-9)
    assert x == pytest.approx(1.581977, abs=1e-6)


def test_series_diverging():
    with pytest.raises(SeriesDiverging):
        triangular_series([1.1] * 2000, [1.0] * 2000, tol=1e-9)


def test_series_needs_more_samples():
    with pytest.raises(NeedMoreSamples) as exc:
        triangular_series([math.exp(-1)] * 5, [1.0] * 5, tol=1e-9)
    need = exc.value.required
    assert 20 <= need <= 40
    assert triangular_series(
        [math.exp(-1)] * need, [1.0] * need, tol=1e-9
    ) == pytest.approx(X_CONST, abs=2e-9)


# ---------------------------------------------------------------------------
# angle samples


def test_angle_samples_diagonal():
    nu = cocycle.atoms_distribution([(mat2(2, 0, 0, 0.5), 1.0)])
    th = oseledets_angle_samples(nu, trials=50, depth=20, seed=0)
    np.testing.assert_allclose(th, math.pi / 2, atol=1e-12)


def test_angle_samples_deterministic_and_in_range():
    nu = cocycle.rotgain_distribution(scalars.uniform(0, 2 * math.pi), scalars.constant(1.0))
    a = oseledets_angle_samples(nu, trials=300, depth=15, seed=9)
    b = oseledets_angle_samples(nu, trials=300, depth=15, seed=9)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0) and np.all(a <= math.pi / 2 + 1e-12)


def _stack_angle_samples(nu, trials, depth, seed, retire=False):
    """Reference sampler: full (trials, 2, 2) stacks, one matrix draw and
    one @ per step, renormalized by the max-abs entry every step, always to
    the full depth.  The backward half multiplies the transposed draws, and
    both halves read right singular lines.

    The retiring twin (``retire``): every STOP_EVERY steps each trial whose
    reading settled since the previous check, with a product rank-1 to
    STOP_TOL, keeps the line it has, and each later step draws
    sample_matrices(rng, live) for the live trials."""
    rng_b, rng_f = est._spawn_rngs(seed, 2)

    def right_lines(rng, transpose):
        prod = np.tile(np.eye(2), (trials, 1, 1))
        lines, live, last = np.empty(trials), np.arange(trials), None
        for step in range(1, depth + 1):
            g, _, _ = nu.sample_matrices(rng, live.size)
            prod = (g.transpose(0, 2, 1) if transpose else g) @ prod
            prod /= np.abs(prod).reshape(live.size, 4).max(axis=1)[:, None, None]
            if retire and step % est.STOP_EVERY == 0:
                now = est._doubled_right_angles(prod.transpose(1, 2, 0))
                if last is not None:
                    done = est._settled(last, now) & est._rank_one(prod.transpose(1, 2, 0))
                    lines[live[done]] = gl2.singular_lines(prod[done])[1]
                    live, prod, now = live[~done], prod[~done], now[:, ~done]
                last = now
            if not live.size:
                break
        lines[live] = gl2.singular_lines(prod)[1]
        return lines

    e1 = right_lines(rng_b, transpose=True)
    right = right_lines(rng_f, transpose=False)
    return gl2.line_angle(e1, gl2.canon_line(right + math.pi / 2.0))


KERNEL_LAWS = {
    "rotgain": cocycle.rotgain_distribution(scalars.uniform(0, math.pi), scalars.constant(1.0)),
    "diagonal_atoms": cocycle.atoms_distribution(
        [(mat2(2, 0, 0, 0.5), 0.5), (mat2(1.5, 0, 0, 0.25), 0.5)]
    ),
    "signed_triangular": cocycle.triangular_distribution(
        scalars.atoms([(-0.5, 0.3), (0.5, 0.7)]), scalars.uniform(-1.0, 2.0)
    ),
}


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
@pytest.mark.parametrize(
    "trials, depth, block_elements",
    [
        (300, 40, 1 << 16),  # one block covers every step
        (300, 23, 300 * 5),  # depth not a multiple of the 5-step block
        (300, 12, 100),  # budget below the trial count: one step per block
    ],
)
def test_angle_kernel_matches_stack_oracle(monkeypatch, law, trials, depth, block_elements):
    nu = KERNEL_LAWS[law]
    monkeypatch.setattr(est, "BLOCK_ELEMENTS", block_elements)
    got = oseledets_angle_samples(nu, trials, depth, seed=21)
    want = _stack_angle_samples(nu, trials, depth, seed=21, retire=nu.bounded_condition)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
def test_angle_samples_do_not_depend_on_block(monkeypatch, law):
    # blocks only group the step-major draws: any block size gives the same bits
    want = oseledets_angle_samples(KERNEL_LAWS[law], 300, 40, seed=5)
    for block_elements in (1, 300 * 3, 1 << 16):
        monkeypatch.setattr(est, "BLOCK_ELEMENTS", block_elements)
        got = oseledets_angle_samples(KERNEL_LAWS[law], 300, 40, seed=5)
        np.testing.assert_array_equal(got, want)


def _rotgain_block_oracle(nu, rng, steps, n):
    """Rotgain draws written out: each rotation from the tangent t of its
    half angle, cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2), and
    both columns scaled at once through a stacked (2, steps, n) array of
    e^t and e^-t."""
    u = rng.random((steps, 2, n))
    out = np.empty((2, 2, steps, n))
    tan = np.tan(nu.angle.icdf(u[:, 0]) / 2.0)
    cos, sin = (1.0 - tan**2) / (1.0 + tan**2), 2.0 * tan / (1.0 + tan**2)
    out[0, 0], out[0, 1] = cos, -sin
    out[1, 0], out[1, 1] = sin, cos
    t = nu.log_gain.icdf(u[:, 1])
    out *= np.exp([t, -t])
    return out


@pytest.mark.parametrize(
    "log_gain", [scalars.constant(1.0), scalars.uniform(-2.0, 0.5)], ids=["atom", "signed"]
)
@pytest.mark.parametrize("steps, n", [(1, 1), (1, 300), (7, 1), (7, 300)])
def test_rotgain_block_matches_stacked_oracle(log_gain, steps, n):
    nu = cocycle.rotgain_distribution(scalars.uniform(0, 2 * math.pi), log_gain)
    want = _rotgain_block_oracle(nu, np.random.default_rng(6), steps, n)
    got, log_scale, log_det = nu.sample_block(np.random.default_rng(6), steps, n)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(log_scale, np.zeros((steps, n)))
    np.testing.assert_array_equal(log_det, np.zeros((steps, n)))


def test_sample_block_steps_match_sample_matrices():
    for nu in KERNEL_LAWS.values():
        block, log_scale, log_det = nu.sample_block(np.random.default_rng(4), 3, 50)
        rng = np.random.default_rng(4)
        for s in range(3):
            mats, step_scale, step_det = nu.sample_matrices(rng, 50)
            np.testing.assert_array_equal(block[:, :, s].transpose(2, 0, 1), mats)
            np.testing.assert_array_equal(log_scale[s], step_scale)
            np.testing.assert_array_equal(log_det[s], step_det)


def _record_draws(monkeypatch):
    """Record (rng, steps, n) of every sample_block call."""
    draws = []
    draw = cocycle.MatrixDistribution.sample_block

    def recording(self, rng, n_steps, n):
        draws.append((rng, n_steps, n))
        return draw(self, rng, n_steps, n)

    monkeypatch.setattr(cocycle.MatrixDistribution, "sample_block", recording)
    return draws


BOUNDED_LAWS = {
    "rotgain": KERNEL_LAWS["rotgain"],
    "shear_atoms": cocycle.atoms_distribution(
        [(mat2(1, 1, 0, 1), 0.5), (mat2(1, 0, 1, 1), 0.5)]
    ),
    # a run of STOP_EVERY rotations (0.7^8 = 0.058 per check) leaves every
    # right line exactly in place, converged or not
    "rotation_atoms": cocycle.atoms_distribution(
        [(mat2(4, 0, 0, 0.25), 0.3), (gl2.rotation(0.3), 0.7)]
    ),
    "negative_a_triangular": cocycle.triangular_distribution(
        scalars.uniform(-0.6, -0.2), scalars.uniform(-1.0, 2.0)
    ),
}


@pytest.mark.parametrize("law", ["negative_a_triangular", "rotgain", "shear_atoms"])
def test_bounded_laws_stop_early_and_match_full_depth(monkeypatch, law):
    nu = BOUNDED_LAWS[law]
    assert nu.bounded_condition
    draws = _record_draws(monkeypatch)
    got = oseledets_angle_samples(nu, 400, 256, seed=13)
    halves = {}  # per product half: (steps, matrices drawn)
    for rng, n_steps, n in draws:
        steps, drawn = halves.get(id(rng), (0, 0))
        halves[id(rng)] = steps + n_steps, drawn + n_steps * n
    assert len(halves) == 2
    steps, drawn = (sum(col) for col in zip(*halves.values()))
    assert steps < 256  # both halves together stop before one reaches the cap
    # settled trials retire: fewer draws than a batch that stops at its last
    # step.  Rotgain trials settle from step 40 to 80; the other two laws'
    # within 16 steps of each other, which leaves less to save
    share = 0.6 if law == "rotgain" else 0.85
    assert drawn <= share * 2 * 400 * max(s for s, _ in halves.values())
    monkeypatch.undo()
    want = _stack_angle_samples(nu, 400, 256, seed=13, retire=True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("law", sorted(BOUNDED_LAWS))
def test_retired_lines_are_converged_lines(monkeypatch, law):
    # the oracle twin shares the retirement rule, so check the rule itself:
    # 256 more factors from a fresh stream turn no written-out line by 1e-9
    nu, trials = BOUNDED_LAWS[law], 400
    finals, right_lines = [], est._right_lines

    def recording(prod):  # each half's written-out products, retired or at the cap
        finals.append(prod)
        return right_lines(prod)

    monkeypatch.setattr(est, "_right_lines", recording)
    draws = _record_draws(monkeypatch)
    rng = np.random.default_rng(3)
    for transpose in (True, False):
        est._product_right_lines(nu, rng, trials, 256, transpose)
    assert sum(steps * n for _, steps, n in draws) < 0.3 * 2 * trials * 256
    more = np.random.default_rng(4)
    for prod, transpose in zip(finals, (True, False)):
        prod = prod.transpose(2, 0, 1)
        lines = gl2.singular_lines(prod)[1]
        for _ in range(256):
            g = nu.sample_matrices(more, trials)[0]
            prod = (g.transpose(0, 2, 1) if transpose else g) @ prod
            prod /= np.abs(prod).reshape(trials, 4).max(axis=1)[:, None, None]
        assert gl2.line_angle(lines, gl2.singular_lines(prod)[1]).max() < 1e-9


@pytest.mark.parametrize("law", ["rotgain", "shear_atoms", "rotation_atoms"])
def test_retiring_sampler_keeps_the_full_depth_tail(law):
    # retiring settled trials draws a different stream, but not a different
    # law: truncated means agree with an independent full-depth run
    nu = BOUNDED_LAWS[law]
    with np.errstate(divide="ignore"):  # a gap of 0 reads as -log sin 0 = inf
        got, want = (
            angle_tail_report_neglog(-np.log(np.sin(th)), (4.0, 8.0, 16.0, 32.0))
            for th in (
                oseledets_angle_samples(nu, 4000, est.PRODUCT_DEPTH, seed=41),
                _stack_angle_samples(nu, 4000, est.PRODUCT_DEPTH, seed=42),
            )
        )
    for m1, s1, m2, s2 in zip(got.truncated_means, got.stderrs, want.truncated_means, want.stderrs):
        assert abs(m1 - m2) <= 3.0 * math.hypot(s1, s2)


@pytest.mark.parametrize(
    "nu",
    [
        # signed a with a heavy log|b|: a huge factor can turn a settled line
        cocycle.triangular_distribution(
            scalars.atoms([(-0.3, 0.5), (0.3, 0.5)]), scalars.dyadic(), log_scale_b=True
        ),
        # bounded, but a gap near 0.02 leaves the lines moving at the cap
        cocycle.rotgain_distribution(scalars.uniform(0, math.pi), scalars.constant(0.15)),
    ],
    ids=["signed_a_dyadic_log_b", "rotgain_gain_0.15"],
)
def test_unsettled_laws_run_to_the_cap(monkeypatch, nu):
    draws = _record_draws(monkeypatch)
    th = oseledets_angle_samples(nu, 300, 100, seed=4)
    assert sum(steps for _, steps, _ in draws) == 2 * 100
    assert np.all((th >= 0) & (th <= math.pi / 2))


def test_settled_readings_compare_right_lines():
    def reading(t):  # diag(2, 1/2) R(-t) has its s1 right line at angle t
        prod = mat2(2, 0, 0, 0.5) @ gl2.rotation(-np.asarray(t))
        return est._doubled_right_angles(prod.transpose(1, 2, 0))

    def settled(a, b):
        return est._settled(reading(a), reading(b)).tolist()

    base = np.array([0.3, 1.2, 2.9])
    assert settled(base, base + 0.5e-12) == [True] * 3
    assert settled(base, base + math.pi) == [True] * 3  # the same lines
    assert settled(base, base + [0.0, 2e-12, 0.0]) == [True, False, True]
    assert settled(base, base + [0.0, 0.0, math.pi / 2]) == [True, True, False]
    # a conformal product has no s1 line: never settled
    eye = est._doubled_right_angles(np.eye(2)[:, :, None].repeat(3, axis=2))
    assert est._settled(eye, eye).tolist() == [False] * 3


def test_rank_one_reads_s2_over_s1():
    # s2/s1 of R(0.7) diag(1, r) R(-1.1) is r; rotations and -I never pass
    r = np.array([0.0, 1e-14, 0.4e-12, 2e-12, 1e-6, 1.0])
    diag = np.eye(2) * np.stack([np.ones_like(r), r], axis=1)[:, None]
    prods = gl2.rotation(0.7) @ diag @ gl2.rotation(-1.1)
    assert est._rank_one(prods.transpose(1, 2, 0)).tolist() == [True] * 3 + [False] * 3
    conformal = np.stack([gl2.rotation(0.3), -np.eye(2)]).transpose(1, 2, 0)
    assert est._rank_one(conformal).tolist() == [False, False]


def test_bounded_condition_from_supports():
    pos = scalars.uniform(0.2, 0.6)
    b = scalars.uniform(-1.0, 2.0)
    tri = cocycle.triangular_distribution
    assert KERNEL_LAWS["diagonal_atoms"].bounded_condition
    assert cocycle.rotgain_distribution(scalars.uniform(0, 1), pos).bounded_condition
    assert tri(pos, b).bounded_condition
    assert tri(scalars.affine(pos, -1.0, 0.0), b).bounded_condition
    assert tri(pos, scalars.uniform(700, 800), log_scale_b=True).bounded_condition
    for nu in [
        cocycle.rotgain_distribution(scalars.uniform(0, 1), scalars.exponential(1.0)),
        tri(scalars.atoms([(-0.3, 0.5), (0.3, 0.5)]), b),  # a of both signs
        tri(scalars.uniform(0.0, 1.0), b),  # a reaches 0
        tri(scalars.exponential(1.0), b),  # a unbounded
        tri(pos, scalars.exponential(1.0)),  # b unbounded
        tri(pos, scalars.dyadic(), log_scale_b=True),  # log|b| unbounded
    ]:
        assert not nu.bounded_condition
    # decided from the laws, so a reloaded law agrees and equality ignores it
    nu = tri(pos, b)
    assert cocycle.MatrixDistribution.from_json(nu.to_json()).bounded_condition
    assert nu == tri(pos, b)


def test_draws_past_the_safe_range_come_scaled():
    nu = cocycle.rotgain_distribution(
        scalars.uniform(0, 2 * math.pi), scalars.uniform(350.0, 705.0)
    )
    raw = _rotgain_block_oracle(nu, np.random.default_rng(6), 5, 400)  # finite below 709.8
    g, log_scale, log_det = nu.sample_block(np.random.default_rng(6), 5, 400)
    assert np.all(np.abs(g) <= math.exp(cocycle.LOG_SAFE) * (1 + 1e-15))
    np.testing.assert_array_equal(log_det, 0.0)
    kept = log_scale == 0.0
    assert 0 < kept.sum() < kept.size
    np.testing.assert_array_equal(g[:, :, kept], raw[:, :, kept])
    # e^log_scale g is the raw draw: its e^t column entry for entry, the
    # whole matrix to 1e-14 of its largest entry (the e^-t column underflows)
    scaled = np.exp(log_scale) * g
    np.testing.assert_allclose(scaled[:, 0], raw[:, 0], rtol=1e-14)
    assert np.all(np.abs(scaled - raw) <= 1e-14 * np.abs(raw).max(axis=(0, 1)))


def test_triangular_draws_past_the_safe_range_keep_a_and_log_b():
    nu = cocycle.triangular_distribution(
        scalars.uniform(0.2, 0.5), scalars.uniform(300.0, 900.0), log_scale_b=True
    )
    u = np.random.default_rng(6).random((5, 2, 400))
    a, log_b = nu.a.icdf(u[:, 0]), nu.b.icdf(u[:, 1])
    g, log_scale, log_det = nu.sample_block(np.random.default_rng(6), 5, 400)
    assert np.all(np.abs(g) <= math.exp(cocycle.LOG_SAFE) * (1 + 1e-15))
    np.testing.assert_array_equal(log_det, np.log(a))
    kept = log_b <= cocycle.LOG_SAFE
    assert 0 < kept.sum() < kept.size
    np.testing.assert_array_equal(log_scale[kept], 0.0)
    np.testing.assert_array_equal(g[0, 1][kept], np.exp(log_b[kept]))
    np.testing.assert_array_equal(g[1, 1][kept], 1.0)
    # a scaled factor is the raw one over e^log_scale: same a, same log b
    np.testing.assert_allclose(g[0, 0] / g[1, 1], a, rtol=1e-14)
    np.testing.assert_allclose(log_scale + np.log(g[0, 1]), log_b, rtol=1e-14)
    np.testing.assert_allclose(-np.log(g[1, 1]), log_scale, rtol=1e-14)


def test_rank_one_factors_give_zero_angles_without_nan():
    # b = e^2000 or more: each projective factor underflows to rank 1, and
    # the true gap angle, about 1/|b|, is below float resolution
    nu = cocycle.triangular_distribution(
        scalars.atoms([(-0.3, 0.5), (0.3, 0.5)]),
        scalars.uniform(2000.0, 3000.0),
        log_scale_b=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = oseledets_angle_samples(nu, 200, 40, seed=1)
    np.testing.assert_array_equal(th, 0.0)


def test_neglog_point_mass_advance_keeps_b_draws():
    # advancing past a chunk's a draws must leave the b stream exactly where
    # drawing and discarding them would
    (rng,) = est._spawn_rngs(17, 1)
    rng.bit_generator.advance(2048 * 8)
    skipped = scalars.dyadic().sample(rng, 2048 * 8)
    (rng,) = est._spawn_rngs(17, 1)
    scalars.constant(math.exp(-1)).sample(rng, 2048 * 8)
    drawn = scalars.dyadic().sample(rng, 2048 * 8)
    np.testing.assert_array_equal(skipped, drawn)


def test_neglog_point_mass_matches_drawn_prefix():
    # with b <= 1.5 and a = 1/e no term past the head can pass its threshold,
    # so the exact path is the head: the first 64 b of each row, row-major
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.uniform(0.5, 1.5)
    )
    trials, head = est.CHUNK + 5, est.NEGLOG_HEAD
    assert est._exact_plan(math.exp(-1))[2] == head
    got = triangular_gap_neglog_samples(nu, trials, seed=8)
    (rng,) = est._spawn_rngs(8, 1)
    b = np.concatenate([nu.b.sample(rng, m * head) for m in (est.CHUNK, 5)])
    x = (b.reshape(trials, head) * np.exp(-np.arange(head))).sum(axis=1)
    np.testing.assert_allclose(got, 0.5 * np.log1p(x**2), rtol=1e-13)


@np.errstate(divide="ignore")
def _chunk_neglog_samples(nu, trials, depth, seed):
    """The drawn-a log-domain sampler with each CHUNK of rows drawn and
    reduced whole: per chunk all a, then all b."""
    (rng,) = est._spawn_rngs(seed, 1)
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(est.CHUNK, trials - done)
        la = np.log(np.asarray(nu.a.sample(rng, m * depth), dtype=float))
        prefix = np.cumsum(la.reshape(m, depth)[:, :-1], axis=1)
        braw = np.asarray(nu.b.sample(rng, m * depth), dtype=float).reshape(m, depth)
        terms = braw if nu.log_scale_b else np.log(braw)
        terms[:, 1:] += prefix
        out[done : done + m] = 0.5 * np.logaddexp(0.0, 2.0 * est._logsumexp_rows(terms)[0])
        done += m
    return out


NEGLOG_DEPTH = 512
NEGLOG_ROWS = est.NEGLOG_BLOCK_ELEMENTS // NEGLOG_DEPTH


# a point a this close to 1 is past NEGLOG_DEPTH and is summed to depth
@pytest.mark.parametrize(
    "a", [scalars.constant(0.9999), scalars.uniform(0.0, 0.5)], ids=["point", "uniform"]
)
@pytest.mark.parametrize(
    "b, log_b",
    [(scalars.dyadic(), True), (scalars.exponential(1.0), False)],
    ids=["log_b", "b"],
)
@pytest.mark.parametrize(
    "trials", [1, NEGLOG_ROWS - 1, NEGLOG_ROWS + 1, est.CHUNK + 3]
)
def test_neglog_row_blocks_match_chunk_oracle(a, b, log_b, trials):
    assert NEGLOG_ROWS > 2  # the trial counts straddle a row block
    nu = cocycle.triangular_distribution(a, b, log_scale_b=log_b)
    got = triangular_gap_neglog_samples(nu, trials, depth=NEGLOG_DEPTH, seed=12)
    want = _chunk_neglog_samples(nu, trials, NEGLOG_DEPTH, seed=12)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("a", [1.0 - 1e-12, math.nextafter(1.0, 0.0)])
def test_neglog_point_a_near_one_sums_to_depth(a):
    # the exact head of a point a near 1 would hold c / kappa, over
    # 46 / (1 - a) terms; past NEGLOG_DEPTH the series is cut at depth
    # like a drawn a's
    assert est._exact_plan(a)[2] > est.NEGLOG_DEPTH
    nu = cocycle.triangular_distribution(scalars.constant(a), scalars.dyadic(), log_scale_b=True)
    got = triangular_gap_neglog_samples(nu, 300, depth=NEGLOG_DEPTH, seed=5)
    np.testing.assert_array_equal(got, _chunk_neglog_samples(nu, 300, NEGLOG_DEPTH, seed=5))


def test_exact_head_cap_boundary():
    # NEGLOG_DEPTH = 512 admits a up to about 0.9248
    assert est._exact_plan(0.92)[2] <= est.NEGLOG_DEPTH < est._exact_plan(0.93)[2]
    assert est._exact_plan(0.0)[2] == 1
    assert est._exact_plan(0.5)[2] == est.NEGLOG_HEAD


# psi laws of the exact path, with whether b is given as log b; atoms at 0
# in b itself are -inf terms
EXACT_PSI_LAWS = [
    (scalars.dyadic(), True),
    (scalars.exponential(0.7), True),
    (scalars.atoms([(-3.0, 0.5), (1.0, 0.4), (9.0, 0.1)]), True),
    (scalars.affine(scalars.dyadic(), 2.5, -4.0), True),
    (scalars.affine(scalars.exponential(1.0), -2.0, 1.0), True),
    (scalars.uniform(-1.0, 4.0), True),
    (scalars.exponential(0.5), False),
    (scalars.atoms([(0.0, 0.9), (3.0, 0.1)]), False),
    (scalars.dyadic(), False),
]


@settings(max_examples=80, deadline=None, database=None)
@seed(20261)
@given(
    a=st.floats(0.02, 0.92),
    law=st.sampled_from(range(len(EXACT_PSI_LAWS))),
    trials=st.integers(1, 40),
)
def test_neglog_exact_path_properties(a, law, trials):
    b, log_b = EXACT_PSI_LAWS[law]
    nu = cocycle.triangular_distribution(scalars.constant(a), b, log_scale_b=log_b)
    assert est._exact_plan(a)[2] <= est.NEGLOG_DEPTH
    got = triangular_gap_neglog_samples(nu, trials, seed=law)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(est, "NEGLOG_BLOCK_ELEMENTS", 1)
        np.testing.assert_array_equal(
            triangular_gap_neglog_samples(nu, trials, seed=law), got
        )
        mp.setattr(est, "_add_exceedances", lambda *args: None)
        head_only = triangular_gap_neglog_samples(nu, trials, seed=law)
    assert np.all(got >= head_only)


def test_neglog_drawn_a_stays_in_row_blocks():
    # a chunk's a (2048 x 512 doubles, 8 MiB) is read one row block at a time
    import tracemalloc

    nu = cocycle.triangular_distribution(
        scalars.uniform(0.0, 0.5), scalars.dyadic(), log_scale_b=True
    )
    tracemalloc.start()
    try:
        with np.errstate(divide="ignore"):
            triangular_gap_neglog_samples(nu, est.CHUNK, depth=NEGLOG_DEPTH, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_logsumexp_rows_matches_scipy():
    from scipy.special import logsumexp

    x = np.random.default_rng(3).normal(scale=30.0, size=(50, 200))
    x[7, :50] = -np.inf
    x[9, 0] = -np.inf
    want = logsumexp(x, axis=1)
    got, top = est._logsumexp_rows(x.copy())
    np.testing.assert_array_max_ulp(got, want, maxulp=4)
    np.testing.assert_array_equal(top, x.max(axis=1))


def test_logsumexp_rows_all_neginf_row():
    x = np.full((2, 5), -np.inf)
    x[1, 3] = 2.0
    with np.errstate(divide="ignore"):
        total, top = est._logsumexp_rows(x)
    np.testing.assert_array_equal(total, [-np.inf, 2.0])
    np.testing.assert_array_equal(top, [-np.inf, 2.0])


def test_log_domain_support_predicate():
    pos = scalars.uniform(0.5, 1.5)
    rare_negative = scalars.atoms([(-0.5, 0.001), (0.5, 0.999)])
    for a, b, log_b in [
        (pos, pos, False),
        (scalars.uniform(0.0, 1.0), pos, False),  # closed support starts at 0
        (scalars.exponential(1.0), scalars.exponential(2.0), False),
        (scalars.atoms([(0.0, 0.5), (0.5, 0.5)]), pos, False),  # a = 0 drops later terms
        (pos, scalars.atoms([(0.0, 0.5), (1.0, 0.5)]), False),  # b = 0 drops its term
        (pos, rare_negative, True),  # log|b| may take any sign
        (scalars.affine(scalars.uniform(0.0, 1.0), 0.5, 0.5), pos, False),  # on [0.5, 1]
    ]:
        assert est.log_domain_supported(cocycle.triangular_distribution(a, b, log_scale_b=log_b))
    for a, b, log_b in [
        (rare_negative, pos, False),
        (pos, rare_negative, False),
        (scalars.affine(scalars.dyadic(), -1.0, 3.0), pos, False),  # unbounded below
        (scalars.constant(2.0), pos, False),  # a >= 1: the first axis is not contracting
        (scalars.uniform(1.0, 2.0), pos, True),
        # E log a >= 0 though a reaches below 1: the products expand on average
        (scalars.uniform(0.5, 5.0), pos, False),
        (scalars.uniform(0.9, 1.3), pos, False),
        (scalars.exponential(0.5), pos, False),  # E log a = 0.116
        (scalars.atoms([(0.5, 0.0), (1.0, 1.0)]), pos, False),  # the point 1
        (scalars.affine(scalars.uniform(0.0, 1.0), 1.5, 0.5), pos, False),  # on [0.5, 2]
    ]:
        nu = cocycle.triangular_distribution(a, b, log_scale_b=log_b)
        assert not est.log_domain_supported(nu)
        with pytest.raises(Unsupported):
            triangular_gap_neglog_samples(nu, trials=10, depth=4)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_spawned_streams_are_seed_sequence_children(seed):
    # np.random.default_rng(child) spelled out
    children = np.random.SeedSequence(seed).spawn(2)
    for rng, child in zip(est._spawn_rngs(seed, 2), children):
        want = np.random.Generator(np.random.PCG64(child)).random(16)
        np.testing.assert_array_equal(rng.random(16), want)


@pytest.mark.parametrize("lo, hi", [(0.5, 5.0), (0.9, 1.3)])
def test_expanding_on_average_a_reads_the_product_sampler_tail(lo, hi):
    # the series read m(4) = 4 +- 0, "growing", for these laws: it summed a
    # diverging sum b_k a_0 ... a_(k-1)
    nu = cocycle.triangular_distribution(scalars.uniform(lo, hi), scalars.uniform(0.0, 1.0))
    rep = est.angle_tail_report_neglog(est.gap_neglog_samples(nu, 4000, seed=3), (4.0, 8.0))
    theta = oseledets_angle_samples(nu, 4000, est.PRODUCT_DEPTH, seed=11)
    ref = est.angle_tail_report_neglog(-np.log(np.sin(theta)), (4.0, 8.0))
    assert rep.verdict == "converging"
    se = math.hypot(rep.stderrs[0], ref.stderrs[0])
    assert abs(rep.truncated_means[0] - ref.truncated_means[0]) < 5.0 * se


def test_gap_neglog_samples_picks_the_sampler_and_its_depth():
    pos = scalars.uniform(0.5, 1.5)
    drawn_a = cocycle.triangular_distribution(scalars.uniform(0.0, 0.5), pos)
    np.testing.assert_array_equal(
        est.gap_neglog_samples(drawn_a, 300, seed=4),
        triangular_gap_neglog_samples(drawn_a, 300, est.NEGLOG_DEPTH, seed=4),
    )
    expanding = cocycle.triangular_distribution(scalars.constant(2.0), pos)
    theta = oseledets_angle_samples(expanding, 300, est.PRODUCT_DEPTH, seed=4)
    np.testing.assert_array_equal(
        est.gap_neglog_samples(expanding, 300, seed=4), -np.log(np.sin(theta))
    )


def test_neglog_zero_a_or_b_terms_drop_out():
    b = scalars.uniform(0.5, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a = 0: X = b_0 exactly
        zero_a = cocycle.triangular_distribution(scalars.constant(0.0), b)
        got = triangular_gap_neglog_samples(zero_a, trials=500, depth=16, seed=2)
        # b = 0: X = 0, the gap angle is pi/2
        zero_b = cocycle.triangular_distribution(b, scalars.constant(0.0))
        flat = triangular_gap_neglog_samples(zero_b, trials=500, depth=16, seed=2)
    (rng,) = est._spawn_rngs(2, 1)
    b0 = b.sample(rng, 500)  # a = 0: the head is term 0 alone, and a is not drawn
    np.testing.assert_allclose(got, 0.5 * np.log1p(b0**2), rtol=1e-14)
    np.testing.assert_array_equal(flat, 0.0)


def test_neglog_sampler_constant_family():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.constant(1.0)
    )
    v = triangular_gap_neglog_samples(nu, trials=64, depth=512, seed=1)
    want = 0.5 * math.log(1.0 + X_CONST**2)
    np.testing.assert_allclose(v, want, atol=1e-10)


def test_neglog_sampler_agrees_with_matrix_path():
    nu = cocycle.triangular_distribution(
        scalars.constant(math.exp(-1)), scalars.uniform(0.5, 1.5)
    )
    v1 = triangular_gap_neglog_samples(nu, trials=4000, depth=200, seed=3)
    ang = oseledets_angle_samples(nu, trials=4000, depth=60, seed=4)
    v2 = -np.log(np.sin(ang))
    se = math.hypot(v1.std(ddof=1), v2.std(ddof=1)) / math.sqrt(4000)
    assert abs(v1.mean() - v2.mean()) < 4 * se


def test_neglog_sampler_rejects_signed_entries():
    nu = cocycle.triangular_distribution(
        scalars.uniform(-0.5, 0.5), scalars.constant(1.0)
    )
    with pytest.raises(Unsupported):
        triangular_gap_neglog_samples(nu, trials=100, depth=16, seed=0)
    with pytest.raises(Unsupported):
        triangular_gap_neglog_samples(
            cocycle.rotgain_distribution(scalars.constant(0.0), scalars.constant(1.0)),
            trials=10,
            depth=4,
        )


# ---------------------------------------------------------------------------
# tail reports


def test_report_right_angles_all_zero():
    rep = angle_tail_report([math.pi / 2] * 20, [1.0, 2.0])
    assert rep.truncated_means == (0.0, 0.0)
    assert rep.verdict == "converging"
    assert rep.sample_count == 20


def test_report_constant_angle():
    rep = angle_tail_report([math.pi / 6] * 50, [0.5, 1.0, 2.0])
    assert rep.truncated_means[0] == pytest.approx(0.5)
    assert rep.truncated_means[1] == pytest.approx(math.log(2.0))
    assert rep.truncated_means[2] == pytest.approx(math.log(2.0))
    assert rep.verdict == "converging"


def test_report_invariants_on_random_samples():
    rng = np.random.default_rng(1)
    th = rng.uniform(1e-6, math.pi / 2, size=4000)
    ms = [0.5, 1.0, 3.0, 9.0]
    rep = angle_tail_report(th, ms)
    assert all(b >= a for a, b in zip(rep.truncated_means, rep.truncated_means[1:]))
    assert all(v <= m for v, m in zip(rep.truncated_means, ms))


def test_report_infinite_neglog_grows():
    rep = angle_tail_report_neglog([np.inf] * 40, [4.0, 64.0])
    assert rep.truncated_means == (4.0, 64.0)
    assert rep.verdict == "growing"


def test_report_zero_angle_reads_below_resolution():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = angle_tail_report([0.0, math.pi / 2, math.pi / 2, math.pi / 2], [4.0, 8.0])
    assert rep.truncated_means == (1.0, 2.0)


def test_report_rejects_nan():
    with pytest.raises(BadTerm):
        angle_tail_report(np.array([np.nan, 0.5, 0.2]), (4.0, 8.0))
    with pytest.raises(BadTerm):
        angle_tail_report_neglog(np.array([np.nan, 0.5, 0.2]), (4.0, 8.0))


def test_report_errors():
    with pytest.raises(NoData):
        angle_tail_report([], [1.0, 2.0])
    with pytest.raises(BadTerm):
        angle_tail_report([0.1], [2.0, 1.0])
    with pytest.raises(BadTerm):
        angle_tail_report([2.0], [1.0, 2.0])  # angle beyond pi/2
    with pytest.raises(BadTerm):
        angle_tail_report_neglog([-0.1], [1.0, 2.0])
    for bad in ([], [math.nan], [1.0, math.nan], [1.0, math.nan, 4.0], [0.0, 1.0], [1.0, math.inf]):
        with pytest.raises(BadTerm):
            angle_tail_report_neglog([0.5], bad)


def test_report_serialization():
    rep = angle_tail_report([math.pi / 6] * 5, [1.0, 2.0])
    obj = rep.to_obj()
    assert obj["verdict"] == "converging"
    assert obj["sample_count"] == 5
    assert float(obj["truncated_means"][0]) == rep.truncated_means[0]
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "threshold,truncated_mean,stderr"
    assert len(csv.splitlines()) == 3


# ---------------------------------------------------------------------------
# product bounds and the lag-discounted supremum


def test_weierstrass_fixture():
    assert weierstrass_bounds([0.5, 0.5]) == (0.5, 0.75, 1.0)
    assert weierstrass_bounds([0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0)
    assert weierstrass_bounds([]) == (0.0, 0.0, 0.0)
    lo, val, up = weierstrass_bounds([0.3, 1.0, 0.2])
    assert val == 1.0 and val <= min(up, 1.0) and lo <= val


def test_weierstrass_sandwich_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a = rng.random(int(rng.integers(1, 40))) ** 2
        lo, val, up = weierstrass_bounds(a)
        assert lo <= val + 1e-12
        assert val <= min(up, 1.0) + 1e-12


def test_weierstrass_rows_match_one_dimensional_calls():
    # an (m, n) array reduces over its last axis, one 1-D call per row
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (7, 3), (50, 40), (4, 0)]:
        a = np.where(rng.random(shape) < 0.1, 0.0, rng.random(shape))
        want = np.array([weierstrass_bounds(row) for row in a]).reshape(shape[0], 3).T
        np.testing.assert_array_equal(np.array(weierstrass_bounds(a)), want)
    with pytest.raises(BadTerm):
        weierstrass_bounds([[0.5, 0.5], [0.5, 1.5]])


def test_weierstrass_bad_terms():
    with pytest.raises(BadTerm):
        weierstrass_bounds([0.5, -0.1])
    with pytest.raises(BadTerm):
        weierstrass_bounds([1.2])


def test_sup_fixture():
    assert lag_discounted_sup([3.5, 0.0, 10.0], upper_bound=10.0) == 8.0
    assert lag_discounted_sup([0.0], upper_bound=0.0) == 0.0


def test_sup_needs_more_samples():
    with pytest.raises(NeedMoreSamples) as exc:
        lag_discounted_sup([1.0], upper_bound=10.0)
    assert exc.value.required == 10
    vals = [1.0] + [0.0] * 9
    assert lag_discounted_sup(vals, upper_bound=10.0) == 1.0


def test_sup_value_above_bound_rejected():
    with pytest.raises(BadTerm):
        lag_discounted_sup([11.0], upper_bound=10.0)


def test_sup_truncated_means_match_oracle():
    # independent first-principles oracle: P(Y >= k) = 1 - prod_{j>=k} P(psi < j)
    pairs = [(0.0, 0.4), (1.0, 0.3), (3.0, 0.2), (7.0, 0.1)]
    psi = scalars.atoms(pairs)
    b_oracle = []
    for k in range(1, 8):
        prod = 1.0
        for j in range(k, 8):
            prod *= sum(w for v, w in pairs if v < j)
        b_oracle.append(1.0 - prod)
    tail = exact_sup_tail(psi)
    np.testing.assert_allclose(tail.b[:7], b_oracle, atol=1e-14)
    assert tail.expectation == pytest.approx(sum(b_oracle), abs=1e-14)
    y = sample_sup_values(psi, trials=60_000, seed=8)
    for m in (1.0, 2.0, 4.0, 8.0):
        exact = sum(min(bk, 1.0) for bk in tail.b[: int(m)])
        clipped = np.minimum(y, m)
        se = clipped.std(ddof=1) / math.sqrt(y.size)
        assert clipped.mean() == pytest.approx(exact, abs=3 * se)


def test_sup_tail_degenerate_zero():
    tail = exact_sup_tail(scalars.constant(0.0))
    assert tail.expectation == 0.0
    assert np.all(tail.b == 0.0)
    assert np.all(sample_sup_values(scalars.constant(0.0), trials=100, seed=0) == 0.0)


def test_sup_tail_noninteger_atoms():
    assert exact_sup_tail(scalars.constant(1.5)).expectation == pytest.approx(1.5)
    # hand-computed layer cake: P(Y>t) = 1 on [0,.5), 1 on [.25..), .75, .5
    psi = scalars.atoms([(0.5, 0.5), (2.25, 0.5)])
    assert exact_sup_tail(psi).expectation == pytest.approx(1.5625, abs=1e-12)


def test_sup_tail_dyadic_blockwise():
    tail = exact_sup_tail(counterexample_psi(), max_terms=8)
    assert tail.infinite and tail.expectation == math.inf
    assert tail.b[0] == 1.0
    # independent vectorized oracle for b_2: a_j = 4^-ceil(log2 j)
    j = np.arange(2, 2**20)
    m = np.ceil(np.log2(j))
    log_prod = np.log1p(-(4.0**-m)).sum()
    tail_beyond = sum(2 ** (mm - 1) * math.log1p(-(4.0**-mm)) for mm in range(21, 60))
    b2 = -np.expm1(log_prod + tail_beyond)
    assert tail.b[1] == pytest.approx(b2, abs=1e-9)


def test_sup_tail_errors():
    with pytest.raises(Unsupported):
        exact_sup_tail(scalars.uniform(0, 1))
    with pytest.raises(BadTerm):
        exact_sup_tail(scalars.atoms([(-1.0, 0.5), (2.0, 0.5)]))
    with pytest.raises(BadTerm):
        sample_sup_values(scalars.atoms([(-1.0, 1.0)]), trials=10)


# ---------------------------------------------------------------------------
# the counterexample family


def test_counterexample_psi_is_dyadic():
    psi = counterexample_psi()
    assert psi.mean() == 1.5
    assert psi.second_moment() == math.inf


def test_build_counterexample():
    nu = build_counterexample_cocycle()
    assert nu.kind == "triangular" and nu.log_scale_b
    assert nu.a.atom_pairs() == [(math.exp(-1), 1.0)]
    with pytest.raises(BadTerm):
        build_counterexample_cocycle(scalars.atoms([(-0.5, 1.0)]))


def test_counterexample_neglog_floor():
    # X >= e^(psi_0) >= e, so -log sin >= 0.5 log(1 + e^2)
    v = triangular_gap_neglog_samples(build_counterexample_cocycle(), 2000, seed=11)
    assert v.min() >= 0.5 * math.log(1.0 + math.e**2) - 1e-12


# ---------------------------------------------------------------------------
# negative drift


def test_drift_misconfiguration():
    phi = scalars.constant(3.0)
    with pytest.raises(NonNegativeDrift):
        negative_drift_supremum(phi, drift_c=1.5, horizon=100, trials=10)
    with pytest.raises(NonNegativeDrift):
        negative_drift_supremum(phi, drift_c=2.0, horizon=100, trials=10)
    with pytest.raises(NonNegativeDrift):
        negative_drift_supremum(scalars.constant(-1.0), horizon=100, trials=10)
