"""Tests for the closed-form 2x2 geometry core.

Oracle routes: numpy.linalg.svd (iterative LAPACK) cross-checks the
closed-form svd2; interp fixtures were hand-solved from the defining
linear system; angle fixtures derive from projective_action.
"""

import math

import numpy as np
import pytest

from oseledets import gl2
from oseledets.gl2 import (
    DegeneratePair,
    DegenerateSplitting,
    IllConditionedPair,
    NotInvertible,
    SplittingPair,
    UnitVectorPair,
)

def mat2(a11, a12, a21, a22):
    """A 2x2 float matrix from its entries, row-major."""
    return np.array([[a11, a12], [a21, a22]], dtype=float)


RNG = np.random.default_rng(20260816)


def random_invertible(n, rng=RNG, lo=-5.0, hi=5.0, det_floor=1e-6):
    out = np.empty((n, 2, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform(lo, hi, size=(n - filled, 2, 2))
        keep = np.abs(gl2.det2(cand)) >= det_floor
        m = int(keep.sum())
        out[filled : filled + m] = cand[keep]
        filled += m
    return out


# ---------------------------------------------------------------------------
# svd2


def test_cos_sin_from_the_half_angle_tangent():
    rng = np.random.default_rng(11)
    edges = [0.0, math.pi, -math.pi, math.pi / 2, 1e-300, 1e6, -1e6, 3e15]
    angle = np.concatenate(
        [rng.uniform(0.0, math.pi, 1_000_000), rng.uniform(-50.0, 50.0, 1_000_000), edges]
    )
    c, s = gl2.cos_sin(angle)
    assert np.abs(c - np.cos(angle)).max() <= 4.5e-16
    assert np.abs(s - np.sin(angle)).max() <= 4.5e-16
    assert np.abs(c * c + s * s - 1.0).max() <= 1e-15
    # rotation is built from the same pair
    c, s = c[-len(edges) :], s[-len(edges) :]
    want = np.stack([[c, -s], [s, c]]).transpose(2, 0, 1)
    np.testing.assert_array_equal(gl2.rotation(edges), want)


def test_svd2_diagonal_fixture():
    s1, s2, left, right = gl2.svd2(mat2(2, 0, 0, 0.5))
    assert s1 == pytest.approx(2.0, abs=1e-15)
    assert s2 == pytest.approx(0.5, abs=1e-15)
    assert gl2.line_angle(left, 0.0) < 1e-12
    assert gl2.line_angle(right, 0.0) < 1e-12


def test_svd2_reconstruction_random():
    g = random_invertible(10_000)
    s1, s2, left, right = gl2.svd2(g)
    sy = s2 * np.sign(gl2.det2(g))
    d = np.zeros_like(g)
    d[:, 0, 0] = s1
    d[:, 1, 1] = sy
    rebuilt = gl2.rotation(left) @ d @ gl2.rotation(-right)
    err_plus = np.abs(rebuilt - g).max(axis=(1, 2))
    err_minus = np.abs(rebuilt + g).max(axis=(1, 2))
    assert np.minimum(err_plus, err_minus).max() < 1e-11


def test_svd2_matches_lapack():
    g = random_invertible(2_000)
    s1, s2, _, _ = gl2.svd2(g)
    ref = np.linalg.svd(g, compute_uv=False)
    np.testing.assert_allclose(s1, ref[:, 0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(s2, ref[:, 1], rtol=1e-10, atol=1e-12)


def test_svd2_product_of_gains_is_determinant():
    g = random_invertible(10_000)
    s1, s2, _, _ = gl2.svd2(g)
    np.testing.assert_allclose(s1 * s2, np.abs(gl2.det2(g)), rtol=1e-11)


def test_svd2_maps_right_line_to_left_line():
    g = random_invertible(2_000)
    s1, s2, left, right = gl2.svd2(g)
    img = gl2.projective_action(g, right)
    assert gl2.line_angle(img, left).max() < 1e-7
    # the orthogonal complement maps with gain s2
    img2 = gl2.projective_action(g, right + math.pi / 2)
    assert gl2.line_angle(img2, left + math.pi / 2).max() < 1e-7


def test_svd2_rejects_singular():
    with pytest.raises(NotInvertible):
        gl2.svd2(mat2(1, 2, 2, 4))
    with pytest.raises(NotInvertible):
        gl2.inv2(mat2(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# norms, lines, projective action


def test_log_norm_max_nonnegative_and_conformal_zero():
    g = random_invertible(5_000)
    assert (gl2.log_norm_max(g) >= 0).all()
    assert gl2.log_norm_max(3.0 * gl2.rotation(0.7)) == pytest.approx(math.log(3.0))
    assert gl2.log_norm_max(gl2.rotation(1.1)) == pytest.approx(0.0, abs=1e-15)


def test_line_angle_basics():
    assert gl2.line_angle(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert gl2.line_angle(0.1, 0.1 + math.pi) == pytest.approx(0.0, abs=1e-12)
    a = RNG.uniform(0, math.pi, 1000)
    b = RNG.uniform(0, math.pi, 1000)
    th = gl2.line_angle(a, b)
    assert ((0 <= th) & (th <= math.pi / 2 + 1e-15)).all()
    np.testing.assert_allclose(th, gl2.line_angle(b, a))


def test_projective_action_fixture():
    # diag(2, 1/2) sends the diagonal line to slope 1/4
    g = mat2(2, 0, 0, 0.5)
    got = gl2.projective_action(g, math.pi / 4)
    assert got == pytest.approx(0.24497866312686414, abs=1e-12)


def test_projective_action_respects_scaling_and_inverse():
    g = random_invertible(1_000)
    alpha = RNG.uniform(0, math.pi, 1_000)
    np.testing.assert_allclose(
        gl2.projective_action(g, alpha),
        gl2.projective_action(-2.5 * g, alpha),
        atol=1e-9,
    )
    back = gl2.projective_action(gl2.inv2(g), gl2.projective_action(g, alpha))
    assert gl2.line_angle(back, alpha).max() < 1e-7


# ---------------------------------------------------------------------------
# angle drift (one-step parallelogram bound)


def test_angle_drift_gap_fixture():
    g = mat2(2, 0, 0, 0.5)
    lhs, rhs = gl2.angle_drift_gap(g, math.pi / 4, 3 * math.pi / 4)
    # image lines at +/- atan(1/4); gap sine 8/17, from projective_action
    assert lhs == pytest.approx(math.log(17.0 / 8.0), abs=1e-12)
    assert rhs == pytest.approx(math.log(4.0), abs=1e-12)
    assert lhs <= rhs


def test_angle_drift_gap_random_inequality():
    g = random_invertible(10_000)
    a1 = RNG.uniform(0, math.pi, 10_000)
    a2 = gl2.canon_line(a1 + RNG.uniform(1e-3, math.pi - 1e-3, 10_000))
    lhs, rhs = gl2.angle_drift_gap(g, a1, a2)
    assert (lhs <= rhs + 1e-9).all()


def test_angle_drift_gap_rejects_equal_lines():
    with pytest.raises(DegenerateSplitting):
        gl2.angle_drift_gap(np.eye(2), 0.3, 0.3 + math.pi)


# ---------------------------------------------------------------------------
# pair-to-pair interpolation


def test_interp_matrix_fixture():
    src = UnitVectorPair(0.0, math.pi / 4)
    dst = UnitVectorPair(0.0, math.pi / 2)
    m = gl2.interp_matrix(src, dst)
    np.testing.assert_allclose(
        m, [[1.0, -1.0], [0.0, math.sqrt(2.0)]], atol=1e-14
    )


def test_interp_matrix_maps_the_vectors():
    for _ in range(200):
        u1, u2, v1, v2 = RNG.uniform(0, 2 * math.pi, 4)
        if min(abs(math.sin(u1 - u2)), abs(math.sin(v1 - v2))) < 1e-3:
            continue
        m = gl2.interp_matrix(UnitVectorPair(u1, u2), UnitVectorPair(v1, v2))
        np.testing.assert_allclose(
            m @ [math.cos(u1), math.sin(u1)], [math.cos(v1), math.sin(v1)], atol=1e-12
        )
        np.testing.assert_allclose(
            m @ [math.cos(u2), math.sin(u2)], [math.cos(v2), math.sin(v2)], atol=1e-12
        )


def test_interp_matrix_rejects_collinear():
    with pytest.raises(IllConditionedPair):
        gl2.interp_matrix(UnitVectorPair(0.2, 0.2 + math.pi), UnitVectorPair(0, 1))
    with pytest.raises(IllConditionedPair):
        gl2.interp_matrix(UnitVectorPair(0, 1), UnitVectorPair(0.2, 0.2 + 5e-14))


def test_interp_singular_values_fixture():
    got = sorted(gl2.interp_singular_values(math.pi / 4, math.pi / 2))
    assert got[1] == pytest.approx(1.8477590650225733, abs=1e-12)
    assert got[0] == pytest.approx(0.7653668647301796, abs=1e-12)


def test_interp_singular_values_match_interp_matrix():
    n = 10_000
    u1 = RNG.uniform(0, 2 * math.pi, n)
    th = RNG.uniform(1e-2, math.pi - 1e-2, n)
    v1 = RNG.uniform(0, 2 * math.pi, n)
    thp = RNG.uniform(1e-2, math.pi - 1e-2, n)
    u = gl2._unit_columns(u1, u1 + th)
    v = gl2._unit_columns(v1, v1 + thp)
    m = v @ gl2.inv2(u)
    s1, s2, _, _ = gl2.svd2(m)
    f1, f2 = gl2.interp_singular_values(th, thp)
    hi = np.maximum(f1, f2)
    lo = np.minimum(f1, f2)
    np.testing.assert_allclose(s1, hi, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(s2, lo, rtol=1e-10, atol=1e-10)


def test_interp_singular_values_rejects_boundary():
    with pytest.raises(DegeneratePair):
        gl2.interp_singular_values(0.0, 1.0)
    with pytest.raises(DegeneratePair):
        gl2.interp_singular_values(1.0, math.pi)


# ---------------------------------------------------------------------------
# canonical lift, eigen matrix


def test_canonical_lift_identity_when_acute():
    u1, u2 = gl2.canonical_lift(SplittingPair(0.0, math.pi / 2))
    assert (u1, u2) == (0.0, math.pi / 2)


def test_canonical_lift_flips_obtuse():
    u1, u2 = gl2.canonical_lift(SplittingPair(0.0, 3 * math.pi / 4))
    assert u1 == 0.0
    assert u2 == pytest.approx(7 * math.pi / 4)
    # vector angle now equals the line gap
    assert gl2.vector_angle(u1, u2) == pytest.approx(math.pi / 4)


def test_canonical_lift_vector_angle_equals_gap():
    for _ in range(500):
        x1 = RNG.uniform(0, math.pi)
        x2 = gl2.canon_line(x1 + RNG.uniform(1e-6, math.pi - 1e-6))
        pair = SplittingPair(x1, x2)
        u1, u2 = gl2.canonical_lift(pair)
        assert gl2.vector_angle(u1, u2) == pytest.approx(gl2.gap_angle(pair), abs=1e-12)
        assert gl2.line_angle(u1, x1) < 1e-12
        assert gl2.line_angle(u2, x2) < 1e-12


def test_splitting_helpers_take_arrays_pair_by_pair():
    rng = np.random.default_rng(31)
    a = rng.uniform(0, math.pi, (2, 300))
    b = gl2.canon_line(a + rng.uniform(1e-3, math.pi / 2, (2, 300)))
    x, y = gl2.splitting(a[0], b[0]), gl2.splitting(a[1], b[1])
    lift_x = np.array(gl2.canonical_lift(x))
    cost = gl2.transfer_cost_bounded(gl2.gap_angle(x), gl2.gap_angle(y))
    for i in range(300):
        xi = gl2.splitting(float(a[0, i]), float(b[0, i]))
        yi = gl2.splitting(float(a[1, i]), float(b[1, i]))
        assert tuple(lift_x[:, i]) == gl2.canonical_lift(xi)  # the same bits
        assert gl2.gap_angle(x)[i] == gl2.gap_angle(xi)
        # numpy may round a transcendental function differently on arrays
        one = gl2.transfer_cost_bounded(gl2.gap_angle(xi), gl2.gap_angle(yi))
        assert abs(cost[i] - one) <= 1e-14
    with pytest.raises(DegenerateSplitting):
        gl2.splitting([0.1, 0.2], [0.5, 0.2 + math.pi])  # the second pair is one line
    with pytest.raises(DegenerateSplitting):
        gl2.canonical_lift(SplittingPair(np.array([0.1, 0.2]), np.array([0.5, 0.2])))


def test_eigen_matrix_fixture():
    m = gl2.eigen_matrix(SplittingPair(0.0, math.pi / 4), math.log(2.0), 0.0)
    np.testing.assert_allclose(m, [[2.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_eigen_matrix_identity_on_zero_gains():
    m = gl2.eigen_matrix(SplittingPair(0.3, 1.9), 0.0, 0.0)
    np.testing.assert_array_equal(m, np.eye(2))


def test_eigen_matrix_eigenlines_fixed():
    for _ in range(200):
        x1 = RNG.uniform(0, math.pi)
        x2 = gl2.canon_line(x1 + RNG.uniform(0.05, math.pi - 0.05))
        l1, l2 = RNG.normal(0, 1, 2)
        m = gl2.eigen_matrix(SplittingPair(x1, x2), l1, l2)
        assert gl2.line_angle(gl2.projective_action(m, x1), x1) < 1e-9
        assert gl2.line_angle(gl2.projective_action(m, x2), x2) < 1e-9
        v1 = np.array([math.cos(x1), math.sin(x1)])
        np.testing.assert_allclose(m @ v1, math.exp(l1) * v1, atol=1e-9)


# ---------------------------------------------------------------------------
# transfer costs


def test_transfer_cost_bounded_fixture():
    x = gl2.gap_angle(SplittingPair(0.0, math.pi / 2))  # gap pi/2
    y = gl2.gap_angle(SplittingPair(0.0, math.pi / 6))  # gap pi/6
    got = gl2.transfer_cost_bounded(x, y)
    assert got == pytest.approx(1.005052538742381, abs=1e-12)
    assert gl2.transfer_cost_bounded(x, x) == 0.0
    assert got == pytest.approx(gl2.transfer_cost_bounded(y, x))


def test_transfer_cost_bounded_equals_norm_of_canonical_map():
    for _ in range(2_000):
        x = SplittingPair(
            RNG.uniform(0, math.pi),
            gl2.canon_line(RNG.uniform(0, math.pi)),
        )
        y = SplittingPair(
            RNG.uniform(0, math.pi),
            gl2.canon_line(RNG.uniform(0, math.pi)),
        )
        if min(gl2.line_angle(*x), gl2.line_angle(*y)) < 1e-3:
            continue
        m = gl2.interp_matrix(gl2.canonical_lift(x), gl2.canonical_lift(y))
        assert gl2.transfer_cost_bounded(gl2.gap_angle(x), gl2.gap_angle(y)) == pytest.approx(
            float(gl2.log_norm_max(m)), abs=1e-10
        )


def test_mean_value_sandwich():
    # |log cos(t'/2) - log cos(t/2)| <= |t'/2 - t/2| <= |log sin(t'/2) - log sin(t/2)|
    t = RNG.uniform(1e-3, math.pi / 2, 20_000)
    tp = RNG.uniform(1e-3, math.pi / 2, 20_000)
    coss = np.abs(np.log(np.cos(tp / 2)) - np.log(np.cos(t / 2)))
    mid = np.abs(tp / 2 - t / 2)
    sins = np.abs(np.log(np.sin(tp / 2)) - np.log(np.sin(t / 2)))
    assert (coss <= mid + 1e-12).all()
    assert (mid <= sins + 1e-12).all()


def test_transfer_cost_general_orthogonal_diagonal_is_zero():
    x = SplittingPair(0.0, math.pi / 2)
    got = gl2.transfer_cost_general(gl2.gap_angle(x), gl2.gap_angle(x), 0.0, 0.0)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_transfer_cost_general_dominates_bounded():
    for _ in range(100):
        x = gl2.splitting(RNG.uniform(0, math.pi), RNG.uniform(0, math.pi))
        y = gl2.splitting(RNG.uniform(0, math.pi), RNG.uniform(0, math.pi))
        if min(gl2.gap_angle(x), gl2.gap_angle(y)) < 0.05:
            continue
        general = gl2.transfer_cost_general(gl2.gap_angle(x), gl2.gap_angle(y), 0.0, 0.0)
        assert general >= gl2.transfer_cost_bounded(gl2.gap_angle(x), gl2.gap_angle(y)) - 1e-12
