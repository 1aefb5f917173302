"""Tests for matrix distributions, orbit windows, and cocycle products.

The product oracle is a plain left-folding numpy reduce (no scaling); it
is valid at desk-scale lengths and pins the renormalized implementation.
"""

import json
import math
from functools import reduce

import numpy as np
import pytest
import scipy.stats

from oseledets import cocycle, gl2, scalars
from oseledets.cocycle import (
    MatrixDistribution,
    OrbitWindow,
    WindowExhausted,
    atoms_distribution,
    cocycle_product_scaled,
    moment,
    product_scaled,
    rotgain_distribution,
    sample_onestep,
    triangular_distribution,
)

RNG = np.random.default_rng(7)


def mat2(a11, a12, a21, a22):
    """A 2x2 float matrix from its entries, row-major."""
    return np.array([[a11, a12], [a21, a22]], dtype=float)


def plain_product(mats):
    return reduce(lambda acc, m: m @ acc, mats, np.eye(2))


def cocycle_product(window, from_time, n):
    # the scaled product as a plain matrix (desk-scale n; may overflow otherwise)
    m, log_scale = cocycle_product_scaled(window, from_time, n)
    return math.exp(log_scale) * m


def random_window(n, seed=0, offset=None):
    rng = np.random.default_rng(seed)
    mats = np.empty((n, 2, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform(-2, 2, size=(n - filled, 2, 2))
        keep = np.abs(gl2.det2(cand)) >= 1e-3
        k = int(keep.sum())
        mats[filled : filled + k] = cand[keep]
        filled += k
    if offset is None:
        offset = -(n // 2)
    return OrbitWindow(offset=offset, matrices=mats, seed=seed)


# ---------------------------------------------------------------------------
# products


def test_zero_step_product_is_identity():
    w = random_window(10)
    np.testing.assert_array_equal(cocycle_product(w, -2, 0), np.eye(2))


def test_cocycle_identity_random_windows():
    # F^(m+n)(omega) = F^(m)(T^n omega) @ F^(n)(omega), m + n <= 40
    for seed in range(20):
        w = random_window(40, seed=seed, offset=0)
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            m = int(rng.integers(0, 20))
            n = int(rng.integers(0, 20))
            whole = cocycle_product(w, 0, m + n)
            split = cocycle_product(w, n, m) @ cocycle_product(w, 0, n)
            scale = np.abs(whole).max()
            assert np.abs(whole - split).max() / scale < 1e-9


def test_product_matches_plain_reduce():
    w = random_window(50, seed=3, offset=-25)
    got = cocycle_product(w, -25, 50)
    want = plain_product(w.matrices)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_negative_steps_are_inverse_products():
    w = random_window(30, seed=4, offset=-15)
    fwd = cocycle_product(w, -10, 7)
    bwd = cocycle_product(w, -3, -7)
    np.testing.assert_allclose(bwd @ fwd, np.eye(2), atol=1e-9)


def test_det_multiplicativity():
    # short products only: extracting det from an explicit product loses
    # eps * cond(P) absolute accuracy, so long ill-conditioned products
    # cannot preserve it in float64
    for seed in range(10):
        w = random_window(15, seed=seed, offset=0)
        p = cocycle_product(w, 0, 15)
        np.testing.assert_allclose(
            gl2.det2(p), np.prod(gl2.det2(w.matrices)), rtol=1e-9
        )


def test_log_norm_subadditivity():
    for seed in range(10):
        w = random_window(40, seed=seed, offset=0)
        n = 17
        m = 21
        lw = math.log(float(gl2.svd2(cocycle_product(w, 0, n + m)).s1))
        l1 = math.log(float(gl2.svd2(cocycle_product(w, 0, n)).s1))
        l2 = math.log(float(gl2.svd2(cocycle_product(w, n, m)).s1))
        assert lw <= l1 + l2 + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 257])
def test_tree_and_sequential_products_agree(n):
    rng = np.random.default_rng(11)
    mats = rng.uniform(-3, 3, size=(300, 2, 2))
    mats = mats[np.abs(gl2.det2(mats)) > 1e-2][:n]
    assert len(mats) == n
    tree = product_scaled(mats, np.zeros(n))
    seq_mat, seq_scale = np.eye(2), 0.0
    for m in mats:
        seq_mat = m @ seq_mat
        peak = np.abs(seq_mat).max()
        seq_mat /= peak
        seq_scale += math.log(peak)
    # compare as log(s1) and normalized directions
    t_log_s1 = tree.log_scale + math.log(float(gl2.svd2(tree.mat).s1))
    s_log_s1 = seq_scale + math.log(float(gl2.svd2(seq_mat).s1))
    assert t_log_s1 == pytest.approx(s_log_s1, abs=1e-8)
    a = tree.mat / np.abs(tree.mat).max()
    b = seq_mat / np.abs(seq_mat).max()
    if np.sign(a.flat[np.argmax(np.abs(a))]) != np.sign(b.flat[np.argmax(np.abs(b))]):
        b = -b
    np.testing.assert_allclose(a, b, atol=1e-8)


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_single_degenerate_factor_is_not_invertible(bad):
    with pytest.raises(gl2.NotInvertible):
        product_scaled(np.full((1, 2, 2), bad), np.zeros(1))


def test_factor_scales_seed_the_product_tree():
    # diag(e^1000, e^-1000) as sample_block stores it: diag(e^354, 0) at scale 646
    big = np.diag([math.exp(cocycle.LOG_SAFE), 0.0])
    scales = [1000.0 - cocycle.LOG_SAFE, 0.0, 1000.0 - cocycle.LOG_SAFE]
    prod = product_scaled(np.stack([big, 2.0 * np.eye(2), big]), scales)
    assert prod.log_scale == pytest.approx(2000.0 + math.log(2.0), rel=1e-15)
    np.testing.assert_array_equal(prod.mat, np.diag([1.0, 0.0]))
    with pytest.raises(gl2.NotInvertible), np.errstate(invalid="ignore"):  # inf * 0
        product_scaled(np.stack([big, np.full((2, 2), np.inf), big]), scales)
    # a window carries the scales into its products
    w = OrbitWindow(offset=0, matrices=np.stack([big, big]), log_scales=np.array(scales[::2]))
    assert cocycle_product_scaled(w, 0, 2).log_scale == pytest.approx(2000.0, rel=1e-15)


def levelwise_product(mats, log_scales):
    """Reference tree over the whole stack: pair neighbours level by level,
    later on the left, renormalize each pair product, carry an odd last
    entry up as it is; a single factor is renormalized alone."""
    cur = np.asarray(mats, dtype=float)
    scales = np.asarray(log_scales, float)
    if len(cur) == 1:
        return cocycle._normalized(cur, scales)
    while len(cur) > 1:
        half = len(cur) // 2
        prod, new = cocycle._normalized(
            cur[1 : 2 * half : 2] @ cur[0 : 2 * half : 2],
            scales[0 : 2 * half : 2] + scales[1 : 2 * half : 2],
        )
        if len(cur) % 2:
            prod, new = np.concatenate([prod, cur[-1:]]), np.concatenate([new, scales[-1:]])
        cur, scales = prod, new
    return cur, scales


B = cocycle.TREE_BLOCK
TREE_LENGTHS = [1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B + 7]


@pytest.mark.parametrize(
    "n", TREE_LENGTHS + np.random.default_rng(12).integers(3, 6 * B, 4).tolist())
@pytest.mark.parametrize("scaled", [False, True])
def test_blocked_tree_is_the_levelwise_tree(n, scaled):
    rng = np.random.default_rng(n)
    mats = rng.normal(size=(n, 2, 2))
    scales = rng.normal(scale=50.0, size=n) if scaled else np.zeros(n)
    got = product_scaled(mats, scales)
    want_mat, want_scale = levelwise_product(mats, scales)
    np.testing.assert_array_equal(got.mat, want_mat[0])
    assert got.log_scale == float(want_scale[0])


def test_long_product_holds_a_block_of_temporaries():
    import tracemalloc

    mats = np.random.default_rng(5).normal(size=(1 << 20, 2, 2))
    scales = np.zeros(len(mats))
    # first-call allocations stay out of the count
    product_scaled(mats[: 2 * B], scales[: 2 * B])
    tracemalloc.start()
    try:
        product_scaled(mats, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-window tree held about 26 bytes per factor (26 MB here)
    assert peak < 2e6, peak


def test_window_exhausted():
    w = random_window(10, seed=6, offset=-5)
    with pytest.raises(WindowExhausted):
        cocycle_product(w, -5, 11)
    with pytest.raises(WindowExhausted):
        cocycle_product(w, -6, 2)
    with pytest.raises(WindowExhausted):
        w.matrix_at(5)


# ---------------------------------------------------------------------------
# sampling


def test_sample_onestep_deterministic_and_shaped():
    nu = atoms_distribution([(mat2(2, 0, 0, 0.5), 0.5), (gl2.rotation(0.3), 0.5)])
    w1 = sample_onestep(nu, 16, seed=42)
    w2 = sample_onestep(nu, 16, seed=42)
    assert w1.offset == -16 and len(w1) == 32
    np.testing.assert_array_equal(w1.matrices, w2.matrices)
    w3 = sample_onestep(nu, 16, seed=43)
    assert np.abs(w1.matrices - w3.matrices).max() > 0


def test_sample_onestep_atom_frequencies():
    nu = atoms_distribution([(mat2(2, 0, 0, 0.5), 0.25), (gl2.rotation(0.3), 0.75)])
    w = sample_onestep(nu, 20_000, seed=9)
    frac = (w.matrices[:, 0, 0] == 2.0).mean()
    assert frac == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / 40_000))


def test_onestep_halves_independent_chi_square():
    # bins = atom identity immediately left and right of time 0
    nu = atoms_distribution(
        [
            (mat2(2, 0, 0, 0.5), 0.5),
            (gl2.rotation(0.3), 0.3),
            (mat2(1, 1, 0, 1), 0.2),
        ]
    )
    firsts = np.array([2.0, math.cos(0.3), 1.0])

    def bin_of(m):
        return int(np.argmin(np.abs(firsts - m[0, 0])))

    counts = np.zeros((3, 3))
    for seed in range(4000):
        w = sample_onestep(nu, 2, seed=seed)
        counts[bin_of(w.matrix_at(-1)), bin_of(w.matrix_at(0))] += 1
    expected = counts.sum(axis=1)[:, None] * counts.sum(axis=0)[None, :] / counts.sum()
    stat = ((counts - expected) ** 2 / expected).sum()
    p = scipy.stats.chi2.sf(stat, df=4)
    assert p > 0.001


def test_triangular_sampling_shape():
    nu = triangular_distribution(scalars.constant(math.exp(-1)), scalars.constant(1.0))
    w = sample_onestep(nu, 8, seed=0)
    np.testing.assert_allclose(w.matrices[:, 0, 0], math.exp(-1))
    np.testing.assert_allclose(w.matrices[:, 0, 1], 1.0)
    np.testing.assert_allclose(w.matrices[:, 1, 0], 0.0)
    np.testing.assert_allclose(w.matrices[:, 1, 1], 1.0)


def test_rotgain_sampling_is_rotation_times_diag():
    nu = rotgain_distribution(scalars.uniform(0, 2 * math.pi), scalars.constant(1.0))
    w = sample_onestep(nu, 64, seed=5)
    s1, s2, _, _ = gl2.svd2(w.matrices)
    np.testing.assert_allclose(s1, math.e, rtol=1e-12)
    np.testing.assert_allclose(s2, 1 / math.e, rtol=1e-12)
    np.testing.assert_allclose(gl2.det2(w.matrices), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# moments


def test_moment_atomic_exact():
    nu = atoms_distribution([(mat2(3, 0, 0, 1), 0.5), (gl2.rotation(1.0), 0.5)])
    est = moment(nu, 1)
    assert est.exact and est.stderr == 0.0
    assert est.value == pytest.approx(0.5 * math.log(3.0), abs=1e-14)
    est2 = moment(nu, 2)
    assert est2.value == pytest.approx(0.5 * math.log(3.0) ** 2, abs=1e-14)


def test_moment_montecarlo_rotgain():
    nu = rotgain_distribution(scalars.uniform(0, 2 * math.pi), scalars.uniform(0.0, 2.0))
    est = moment(nu, 1, trials=200_000, seed=3)
    assert not est.exact
    assert est.value == pytest.approx(1.0, abs=4 * est.stderr)


# ---------------------------------------------------------------------------
# serialization


def test_matrix_distribution_json_roundtrip_bit_exact():
    nus = [
        atoms_distribution([(mat2(0.1, 0.2, -0.3, 7.0), 1 / 3), (np.eye(2), 2 / 3)]),
        triangular_distribution(scalars.uniform(0.5, 1.5), scalars.exponential(2.5)),
        triangular_distribution(scalars.constant(math.exp(-1)), scalars.dyadic(), log_scale_b=True),
        rotgain_distribution(scalars.uniform(0, 2 * math.pi), scalars.constant(1.0)),
    ]
    for nu in nus:
        text = nu.to_json()
        back = MatrixDistribution.from_json(text)
        assert back.to_json() == text
        w1 = sample_onestep(nu, 8, seed=77)
        w2 = sample_onestep(back, 8, seed=77)
        np.testing.assert_array_equal(w1.matrices, w2.matrices)


def test_scalar_dist_json_roundtrip_bit_exact():
    for d in [
        scalars.atoms([(0.1, 0.25), (2.0 / 3.0, 0.75)]),
        scalars.uniform(-1.0, 1.0 / 3.0),
        scalars.exponential(3.7),
        scalars.dyadic(),
    ]:
        text = json.dumps(d.to_obj(), sort_keys=True)
        back = scalars.ScalarDist.from_obj(json.loads(text))
        assert json.dumps(back.to_obj(), sort_keys=True) == text


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_window_stream_is_the_seed_sequence_pcg64(seed):
    # np.random.default_rng(seed) spelled out
    nu = rotgain_distribution(scalars.uniform(0, math.pi), scalars.constant(1.0))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    want = nu.sample_matrices(rng, 8)[0]
    np.testing.assert_array_equal(sample_onestep(nu, 4, seed).matrices, want)


def test_window_extras_validated():
    with pytest.raises(ValueError):
        OrbitWindow(offset=0, matrices=np.tile(np.eye(2), (4, 1, 1)), labels=np.zeros(3))
