"""Tests for tower vectors and the renewal skyscraper dynamics.

Oracles: base-cell masses and label occupancies have closed forms
(mass/height; telescoping sums), so simulation statistics are checked
against exact values with batch-means error bars; the vectorized
trajectory and labels are checked against a one-step-at-a-time chain.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from oseledets import flexible as fx
from oseledets import gl2
from oseledets import skyscraper as sky
from oseledets.skyscraper import (
    BadHeightForLabels,
    BadTowerVector,
    NeedStrictDecrease,
    TowerVector,
    bounded_tower_vector,
    kac_base_measures,
    label_measures,
    lowcost_heights,
    refine_weights,
    renewal_trajectory,
    trajectory_labels,
)

GEOM_P = 0.5 ** np.arange(1, 42)  # residual 2^-42 folds away


@dataclass(frozen=True)
class SkyscraperState:
    """Position in the skyscraper: tower height and level above the base."""

    height: int
    level: int

    def __post_init__(self):
        if self.height < 1 or not (0 <= self.level < self.height):
            raise BadTowerVector(f"level {self.level} outside [0, {self.height})")


def renewal_start_stationary(pi: TowerVector, seed=0) -> SkyscraperState:
    """Stationary draw: height with probability mass(k), level uniform below it."""
    rng = np.random.default_rng(seed)
    ks = np.array(list(pi.entries))
    k = int(rng.choice(ks, p=[pi.entries[k] for k in ks]))
    return SkyscraperState(k, int(rng.integers(0, k)))


def renewal_step(state: SkyscraperState, pi: TowerVector, rng) -> SkyscraperState:
    """One step up the tower, or from the top into a fresh tower whose height
    is drawn proportional to mass(k)/k, the base-cell law."""
    if state.level + 1 < state.height:
        return SkyscraperState(state.height, state.level + 1)
    base = kac_base_measures(pi)
    ks = np.array(list(base))
    q = np.array(list(base.values()))
    return SkyscraperState(int(rng.choice(ks, p=q / q.sum())), 0)


def label_of(state: SkyscraperState) -> int:
    """Distance to the nearer end of the tower, for height 1 and even heights >= 4."""
    if not (state.height == 1 or (state.height >= 4 and state.height % 2 == 0)):
        raise BadHeightForLabels(f"height {state.height}")
    return min(state.level, state.height - 1 - state.level)


def batch_freq(flags, blocks=50):
    """Mean and batch-means stderr of a 0/1 trajectory statistic."""
    per = np.array([b.mean() for b in np.array_split(np.asarray(flags, float), blocks)])
    return per.mean(), per.std(ddof=1) / math.sqrt(blocks)


# ---------------------------------------------------------------------------
# tower vectors


def test_kac_fixture():
    assert kac_base_measures(TowerVector({1: 0.5, 2: 0.5})) == {1: 0.5, 2: 0.25}
    assert kac_base_measures(TowerVector({1: 1.0})) == {1: 1.0}
    got = kac_base_measures(TowerVector({2: 0.5, 3: 0.5}))
    assert got[2] == 0.25 and got[3] == pytest.approx(1 / 6, abs=1e-15)


def test_kac_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ks = [1] + [int(k) for k in rng.choice(np.arange(2, 40), size=4, replace=False)]
        w = rng.random(5)
        pi = TowerVector(dict(zip(ks, w / w.sum())))
        total = math.fsum(k * m for k, m in kac_base_measures(pi).items())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_tower_vector_validation():
    with pytest.raises(BadTowerVector):
        TowerVector({1: 0.5, 2: 0.4})  # mass 0.9
    with pytest.raises(BadTowerVector):
        TowerVector({2: 0.5, 4: 0.5})  # gcd 2
    with pytest.raises(BadTowerVector):
        TowerVector({1: 1.5, 2: -0.5})
    with pytest.raises(BadTowerVector):
        TowerVector({0: 1.0})
    with pytest.raises(BadTowerVector):
        TowerVector({})
    tv = TowerVector({1: 0.5, 3: 0.0, 2: 0.5})
    assert list(tv.entries) == [1, 2]


def test_state_validation():
    with pytest.raises(BadTowerVector):
        SkyscraperState(3, 3)
    with pytest.raises(BadTowerVector):
        SkyscraperState(3, -1)


# ---------------------------------------------------------------------------
# renewal chain


def test_stationary_start_forced():
    for seed in range(20):
        st = renewal_start_stationary(TowerVector({1: 1.0}), seed=seed)
        assert st == SkyscraperState(1, 0)


def test_stationary_start_frequencies():
    pi = TowerVector({1: 0.5, 2: 0.5})
    rng = np.random.default_rng(5)
    draws = [renewal_start_stationary(pi, rng) for _ in range(20_000)]
    f21 = np.mean([d == SkyscraperState(2, 1) for d in draws])
    f_h2 = np.mean([d.height == 2 for d in draws])
    assert abs(f21 - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 20_000)
    assert abs(f_h2 - 0.5) < 3 * math.sqrt(0.25 / 20_000)


def test_step_climbs_and_recycles():
    pi = TowerVector({1: 0.5, 2: 0.5})
    rng = np.random.default_rng(0)
    assert renewal_step(SkyscraperState(6, 2), pi, rng) == SkyscraperState(6, 3)
    nxt = renewal_step(SkyscraperState(2, 1), pi, rng)
    assert nxt.level == 0 and nxt.height in (1, 2)
    one = TowerVector({1: 1.0})
    st = SkyscraperState(1, 0)
    for _ in range(10):
        st = renewal_step(st, one, rng)
        assert st == SkyscraperState(1, 0)


def test_step_preserves_stationary_law():
    pi = TowerVector({1: 0.5, 2: 0.5})
    rng = np.random.default_rng(2)
    counts = {(1, 0): 0, (2, 0): 0, (2, 1): 0}
    chains = 1200
    for c in range(chains):
        st = renewal_start_stationary(pi, seed=10_000 + c)
        for _ in range(100):
            st = renewal_step(st, pi, rng)
        counts[(st.height, st.level)] += 1
    observed = [counts[(1, 0)], counts[(2, 0)], counts[(2, 1)]]
    expected = [0.5 * chains, 0.25 * chains, 0.25 * chains]
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_trajectory_moves_are_legal():
    pi = bounded_tower_vector(GEOM_P[:20] / GEOM_P[:20].sum())
    h, l = renewal_trajectory(pi, 5000, seed=3)
    assert np.all((0 <= l) & (l < h))
    climb = (l[1:] == l[:-1] + 1) & (h[1:] == h[:-1])
    reset = (l[1:] == 0) & (l[:-1] == h[:-1] - 1)
    assert np.all(climb | reset)


def test_trajectory_deterministic():
    pi = TowerVector({1: 0.5, 2: 0.5})
    a = renewal_trajectory(pi, 1000, seed=4)
    b = renewal_trajectory(pi, 1000, seed=4)
    c = renewal_trajectory(pi, 1000, seed=5)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0]) or not np.array_equal(a[1], c[1])


def test_trajectory_matches_one_step_chain():
    # the vectorized trajectory and the one-step chain have the same law of
    # (height, level) pairs two steps apart
    pi = TowerVector({1: 0.25, 4: 0.25, 6: 0.5})
    rng = np.random.default_rng(11)
    chain = []
    for c in range(1500):
        st = renewal_start_stationary(pi, seed=20_000 + c)
        end = renewal_step(renewal_step(st, pi, rng), pi, rng)
        chain.append((st.height, st.level, end.height, end.level))
    traj = []
    for c in range(1500):
        h, l = renewal_trajectory(pi, 3, seed=30_000 + c)
        traj.append((int(h[0]), int(l[0]), int(h[2]), int(l[2])))
    keys = sorted(set(chain) | set(traj))
    table = [[chain.count(k) for k in keys], [traj.count(k) for k in keys]]
    assert stats.chi2_contingency(table).pvalue > 1e-3


def test_trajectory_occupancy_matches_kac():
    # every level of tower k carries mass(k)/k in the stationary law
    pi = TowerVector({1: 0.25, 4: 0.25, 6: 0.1875, 8: 0.3125})
    h, l = renewal_trajectory(pi, 200_000, seed=6)
    for k, i, want in ((1, 0, 0.25), (4, 2, 0.0625), (6, 5, 0.03125), (8, 0, 0.0390625)):
        mean, se = batch_freq((h == k) & (l == i))
        assert abs(mean - want) < 3 * max(se, 1e-4)


def overdrawn_trajectory(pi: TowerVector, steps: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Reference walk, unrolled step by step as it is drawn: every batch of
    towers becomes per-step heights and levels before the cut at steps."""
    ks = np.array(list(pi.entries), dtype=np.int64)
    ws = np.array(list(pi.entries.values()))
    ws = ws / ws.sum()
    k0 = int(rng.choice(ks, p=ws))
    i0 = int(rng.integers(0, k0))
    q = ws / ks
    q = q / q.sum()
    mean_return = float(ks @ q)
    hs, ls = [np.full(k0 - i0, k0, dtype=np.int64)], [np.arange(i0, k0, dtype=np.int64)]
    total = k0 - i0
    while total < steps:
        m = int((steps - total) / mean_return * 1.2) + sky.OVERDRAW_TOWERS
        draw = rng.choice(ks, p=q, size=m)
        hs.append(np.repeat(draw, draw))
        csum = np.cumsum(draw)
        ls.append(np.arange(csum[-1], dtype=np.int64) - np.repeat(csum - draw, draw))
        total += int(csum[-1])
    return np.concatenate(hs)[:steps], np.concatenate(ls)[:steps]


TOWER_VECTORS = [
    {1: 1.0},
    {1: 0.25, 4: 0.25, 6: 0.5},
    {2: 0.5, 3: 0.5},
    {7: 0.5, 8: 0.5},
    {1: 0.1, 4: 0.2, 6: 0.3, 100: 0.4},
]


@pytest.mark.parametrize("entries", TOWER_VECTORS)
@pytest.mark.parametrize("steps", [1, 2, 5, 99, 5000])
def test_towers_unroll_to_the_reference_walk(entries, steps):
    pi = TowerVector(entries)
    for seed in range(8):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = overdrawn_trajectory(pi, steps, want_rng)
        got = renewal_trajectory(pi, steps, got_rng)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        heights, lengths, start = sky.renewal_towers(pi, steps, seed)
        assert lengths.sum() == steps and np.all(lengths >= 1)
        assert np.all(lengths[1:-1] == heights[1:-1])
        assert start == want[1][0]


def test_walk_that_ends_inside_its_first_tower():
    # towers of 99 and 100 levels: seed 0 starts low enough that 5 steps stay inside one
    pi = TowerVector({99: 0.5, 100: 0.5})
    heights, lengths, start = sky.renewal_towers(pi, 5, 0)
    assert len(heights) == 1 and lengths.tolist() == [5] and start + 5 <= heights[0]
    h, l = renewal_trajectory(pi, 5, 0)
    assert h.tolist() == [heights[0]] * 5 and l.tolist() == list(range(start, start + 5))



# ---------------------------------------------------------------------------
# labels


def test_label_fixtures():
    for k in (1, 4, 6, 8):
        want = [label_of(SkyscraperState(k, i)) for i in range(k)]
        assert trajectory_labels([k] * k, range(k)).tolist() == want
    assert label_of(SkyscraperState(6, 2)) == 2
    assert label_of(SkyscraperState(4, 3)) == 0
    assert label_of(SkyscraperState(1, 0)) == 0
    assert [label_of(SkyscraperState(4, i)) for i in range(4)] == [0, 1, 1, 0]
    assert [label_of(SkyscraperState(6, i)) for i in range(6)] == [0, 1, 2, 2, 1, 0]


def test_label_height_domain():
    for bad in (2, 3, 5, 7):
        with pytest.raises(BadHeightForLabels):
            label_of(SkyscraperState(bad, 0))
        with pytest.raises(BadHeightForLabels):
            trajectory_labels([bad], [0])
    with pytest.raises(BadHeightForLabels):
        trajectory_labels([4, 3], [0, 0])


def test_labels_lipschitz_along_trajectory():
    pi = bounded_tower_vector(GEOM_P[:20] / GEOM_P[:20].sum())
    h, l = renewal_trajectory(pi, 100_000, seed=7)
    lab = trajectory_labels(h, l)
    assert np.all(np.abs(np.diff(lab)) <= 1)
    assert lab.min() == 0


def test_label_occupancy_matches_p():
    pi = bounded_tower_vector(GEOM_P)
    h, l = renewal_trajectory(pi, 200_000, seed=8)
    lab = trajectory_labels(h, l)
    for n in range(3):
        mean, se = batch_freq(lab == n)
        assert abs(mean - GEOM_P[n]) < 3 * max(se, 1e-4)


# ---------------------------------------------------------------------------
# bounded-mode tower masses


def test_bounded_tower_vector_geometric_half():
    tv = bounded_tower_vector(GEOM_P)
    assert tv.entries.get(1, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert tv.entries.get(4, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert tv.entries.get(6, 0.0) == pytest.approx(0.1875, abs=1e-12)
    assert tv.entries.get(8, 0.0) == pytest.approx(0.125, abs=1e-12)
    assert tv.entries.get(2, 0.0) == 0.0
    assert math.fsum(tv.entries.values()) == pytest.approx(1.0, abs=1e-12)


def test_bounded_tower_vector_geometric_third():
    p = (2 / 3) * (1 / 3) ** np.arange(0, 26)
    tv = bounded_tower_vector(p)
    assert tv.entries.get(1, 0.0) == pytest.approx(4 / 9, abs=1e-12)
    assert tv.entries.get(4, 0.0) == pytest.approx(8 / 27, abs=1e-12)


def test_bounded_tower_vector_rejects_bad_p():
    with pytest.raises(NeedStrictDecrease):
        bounded_tower_vector([0.5, 0.5])
    with pytest.raises(NeedStrictDecrease):
        bounded_tower_vector([0.9, -0.1, 0.2])
    with pytest.raises(NeedStrictDecrease):
        bounded_tower_vector([0.5, 0.25])  # mass 0.75
    with pytest.raises(NeedStrictDecrease):
        bounded_tower_vector([])


def test_label_measures_reproduce_p():
    lm = label_measures(GEOM_P)
    assert lm[0] == pytest.approx(0.5, abs=1e-12)
    for n in range(10):
        assert lm[n] == pytest.approx(GEOM_P[n], abs=1e-12)
    assert math.fsum(lm.values()) == pytest.approx(1.0, abs=1e-12)
    p = (2 / 3) * (1 / 3) ** np.arange(0, 26)
    lm2 = label_measures(p)
    for n in range(6):
        assert lm2[n] == pytest.approx(p[n], abs=1e-12)


# ---------------------------------------------------------------------------
# weight refinement and low-cost heights


def test_refine_identity_on_decreasing():
    v, o = refine_weights([0.6, 0.3, 0.1])
    np.testing.assert_array_equal(v, [0.6, 0.3, 0.1])
    np.testing.assert_array_equal(o, [0, 1, 2])


def test_refine_splits_ties():
    v, o = refine_weights([0.5, 0.5])
    assert np.all(np.diff(v) < 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(o, [0, 1, 1])
    np.testing.assert_allclose(v[o == 1].sum(), 0.5, atol=1e-12)


def test_refine_random_property():
    rng = np.random.default_rng(9)
    for _ in range(40):
        w = rng.random(int(rng.integers(1, 12)))
        w = w / w.sum()
        v, o = refine_weights(w)
        assert np.all(np.diff(v) < 0) and np.all(v > 0)
        assert math.fsum(v) == pytest.approx(1.0, abs=1e-12)
        for idx in range(w.size):
            assert math.fsum(v[o == idx]) == pytest.approx(w[idx], abs=1e-12)


def test_refined_size_counts_without_allocating():
    rng = np.random.default_rng(9)
    for _ in range(40):
        w = rng.random(int(rng.integers(1, 12)))
        w = w / w.sum()
        assert sky.refined_size(w) == len(refine_weights(w)[0])
    # a heavy weight after a light one splits into int(heavy / light) + 1 pieces
    assert sky.refined_size([1e-9, 1.0 - 1e-9]) == 1 + int((1.0 - 1e-9) / 1e-9) + 1
    # a quotient past the float range still counts
    assert sky.refined_size([1e-320, 1.0]) > 2**62


def test_refine_rejects_bad_weights():
    with pytest.raises(ValueError):
        refine_weights([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        refine_weights([0.5, 0.4])


def test_lowcost_heights_fixtures():
    assert lowcost_heights([1.0, 1.0, 1.0], 1.0) == [3, 4, 5]
    assert lowcost_heights([1.0, 2.0, 3.0], 1e9) == [1, 2, 3]
    assert lowcost_heights([1.0, 100.0], 1.0) == [3, 202]  # 201 shares factor 3
    assert lowcost_heights([0.0], 5.0) == [1]
    assert lowcost_heights([3.0], 1.0) == [7, 8]  # a lone tower takes k and k + 1 for gcd 1


def test_lowcost_heights_contract():
    rng = np.random.default_rng(10)
    for _ in range(40):
        c = np.sort(rng.random(int(rng.integers(2, 9))) * 10)
        eps = float(rng.uniform(0.05, 2.0))
        ks = lowcost_heights(c, eps)
        assert all(cn / kn < eps / 2 for cn, kn in zip(c, ks))
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert math.gcd(*ks) == 1


def test_lowcost_heights_errors():
    with pytest.raises(ValueError):
        lowcost_heights([2.0, 1.0], 1.0)  # decreasing costs
    with pytest.raises(ValueError):
        lowcost_heights([1.0], 0.0)
    with pytest.raises(ValueError):
        lowcost_heights([], 1.0)


# ---------------------------------------------------------------------------
# the lowcost schedule, tower by tower


def per_step_lowcost_schedule(eta, steps: int, seed: int, epsilon: float):
    """simulate_flexible's lowcost (alpha, theta, labels) through the
    reference walk: per-step heights and levels, a segment index that
    counts tower bases, one draw per segment, read back per step."""
    pieces = fx.decompose_eta(eta)
    ks = lowcost_heights(fx.piece_cost_caps(pieces, 0.5, -0.5), epsilon)
    weights = [p.weight for p in pieces]
    if len(ks) > len(pieces):
        weights = [weights[0] / 2.0] * 2
    rng = np.random.default_rng(seed)
    heights, levels = overdrawn_trajectory(TowerVector(dict(zip(ks, weights))), steps + 1, rng)
    piece_idx = np.minimum(np.searchsorted(np.asarray(ks), heights), len(pieces) - 1)
    seg = np.cumsum(levels == 0)
    seg -= seg[0]
    seg_piece = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
    seg_piece[seg] = piece_idx
    seg_alpha, seg_theta = fx._draw_cells([p.cell for p in pieces], seg_piece, rng)
    return seg_alpha[seg], seg_theta[seg], piece_idx[:steps], levels[0]


MIXTURES = {
    "two_cell": fx.EtaSpec(pieces=(
        (0.6, fx.uniform_cell(0.2, 0.9, 0.4, 0.6)),
        (0.4, fx.uniform_cell(1.5, 2.2, 0.9, 1.1)),
    )),
    "four_cell": fx.EtaSpec(pieces=(
        (0.4, fx.uniform_cell(0.1, 0.8, 0.30, 0.50)),
        (0.3, fx.uniform_cell(1.0, 1.7, 0.50, 0.70)),
        (0.2, fx.uniform_cell(1.9, 2.6, 0.80, 1.00)),
        (0.1, fx.uniform_cell(2.7, 3.1, 1.20, 1.40)),
    )),
    "one_piece": fx.EtaSpec(pieces=((1.0, fx.uniform_cell(0.1, 0.8, 0.3, 0.5)),)),
}


@pytest.mark.parametrize("name", MIXTURES)
@pytest.mark.parametrize("seed", [3, 23, 80])
def test_lowcost_build_matches_the_per_step_schedule(name, seed):
    eta, steps = MIXTURES[name], 3000
    w = fx.simulate_flexible(eta, 0.5, -0.5, "lowcost", steps, seed=seed, epsilon=0.1)
    alpha, theta, labels, first_level = per_step_lowcost_schedule(eta, steps, seed, 0.1)
    if (name, seed) == ("four_cell", 80):
        assert first_level == 0  # this walk starts on a tower base
    np.testing.assert_array_equal(w.labels, labels)
    np.testing.assert_array_equal(w.prescribed_f[:, 0], gl2.canon_line(alpha[:-1]))
    np.testing.assert_array_equal(w.prescribed_f[:, 1], gl2.canon_line(alpha[:-1] + theta[:-1]))
