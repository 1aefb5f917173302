"""Tests for scalar laws: inverse CDFs, exact moments, and error cases."""

import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from oseledets import scalars
from oseledets.scalars import BadTerm, ScalarDist, Unsupported


def test_atoms_icdf_boundaries():
    d = scalars.atoms([(10.0, 0.25), (20.0, 0.5), (30.0, 0.25)])
    got = d.icdf([0.0, 0.2, 0.25, 0.7, 0.75, 0.999])
    np.testing.assert_array_equal(got, [10, 10, 10, 20, 20, 30])


def test_uniform_icdf_endpoints_and_midpoint():
    d = scalars.uniform(-1.0, 3.0)
    np.testing.assert_allclose(d.icdf([0.0, 0.5, 0.75]), [-1.0, 1.0, 2.0])


def test_exponential_icdf_median():
    d = scalars.exponential(4.0)
    assert float(d.icdf(0.5)) == pytest.approx(math.log(2.0) / 4.0, rel=1e-15)


def test_dyadic_icdf_breakpoints():
    # mass (3/4) 4^-k on 2^k, so the CDF through 2^k is 1 - 4^-(k+1)
    d = scalars.dyadic()
    eps = 1e-12
    got = d.icdf([0.0, 0.75 - eps, 0.75 + eps, 15 / 16 - eps, 15 / 16 + eps])
    np.testing.assert_array_equal(got, [1.0, 1.0, 2.0, 2.0, 4.0])


def _dyadic_log1p_icdf(u):
    """The dyadic inverse CDF in floating point: k = ceil(-log1p(-u) / ln 4 - 1)."""
    k = np.ceil(-np.log1p(-np.asarray(u, dtype=float)) / math.log(4.0) - 1.0)
    return np.exp2(np.maximum(k, 0.0))


def _dyadic_threshold_grid():
    """Every multiple of 2^-53 in [0, 1) within 2^16 grid steps of a
    threshold 1 - 4^-(k+1), k = 0..26, plus both ends of [0, 1)."""
    steps = np.arange(-(1 << 16), (1 << 16) + 1)
    idx = [(1 << 53) - (1 << 53) // 4 ** (k + 1) + steps for k in range(27)]
    idx = np.concatenate(idx + [np.array([0, (1 << 53) - 1])])
    return idx[(idx >= 0) & (idx < 1 << 53)] * 2.0**-53


def test_dyadic_icdf_bits_match_log1p_formula():
    d = scalars.dyadic()
    grid = _dyadic_threshold_grid()
    draws = np.random.default_rng(13).random(10**6)
    for u in (grid, draws):
        np.testing.assert_array_equal(d.icdf(u), _dyadic_log1p_icdf(u))
    assert d.icdf(0.0) == 1.0 and d.icdf(1.0 - 2.0**-53) == 2.0**26
    zero_d = d.icdf(0.9)
    assert np.ndim(zero_d) == 0 and zero_d == _dyadic_log1p_icdf(0.9) == 2.0
    mirrored = scalars.affine(d, -1.0, 0.0)
    np.testing.assert_array_equal(
        mirrored.icdf(grid), -_dyadic_log1p_icdf((1.0 - 2.0**-53) - grid)
    )


def test_dyadic_sample_frequencies():
    d = scalars.dyadic()
    rng = np.random.default_rng(2026)
    x = d.sample(rng, 200_000)
    assert set(np.unique(x)) <= {2.0**k for k in range(30)}
    for k in range(4):
        p = 0.75 * 4.0**-k
        se = math.sqrt(p * (1 - p) / x.size)
        assert (x == 2.0**k).mean() == pytest.approx(p, abs=4 * se)


def test_icdf_monotone():
    rng = np.random.default_rng(5)
    u = np.sort(rng.random(1000))
    for d in [
        scalars.atoms([(0.0, 0.5), (2.0, 0.5)]),
        scalars.uniform(0, 1),
        scalars.exponential(1.0),
        scalars.dyadic(),
    ]:
        assert np.all(np.diff(d.icdf(u)) >= 0)


def test_exact_moments():
    assert scalars.atoms([(1.0, 0.5), (3.0, 0.5)]).mean() == 2.0
    assert scalars.atoms([(1.0, 0.5), (3.0, 0.5)]).second_moment() == 5.0
    assert scalars.uniform(0.0, 2.0).mean() == 1.0
    assert scalars.uniform(0.0, 2.0).second_moment() == pytest.approx(4.0 / 3.0)
    assert scalars.exponential(2.0).mean() == 0.5
    assert scalars.exponential(2.0).second_moment() == 0.5
    assert scalars.dyadic().mean() == 1.5
    assert scalars.dyadic().second_moment() == math.inf


def test_mc_means_match_exact():
    rng = np.random.default_rng(99)
    for d in [scalars.uniform(-2, 5), scalars.exponential(0.7), scalars.dyadic()]:
        x = d.sample(rng, 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert x.mean() == pytest.approx(d.mean(), abs=5 * se)


def test_constant_is_single_atom():
    d = scalars.constant(7.5)
    assert d.is_atomic
    assert d.atom_pairs() == [(7.5, 1.0)]
    assert float(d.icdf(0.3)) == 7.5


def test_atom_pairs_unsupported_for_continuous():
    with pytest.raises(Unsupported):
        scalars.uniform(0, 1).atom_pairs()
    with pytest.raises(Unsupported):
        scalars.dyadic().atom_pairs()


def test_bad_terms():
    with pytest.raises(BadTerm):
        scalars.atoms([(1.0, 0.7), (2.0, 0.7)])
    with pytest.raises(BadTerm):
        scalars.atoms([(1.0, -0.5), (2.0, 1.5)])
    with pytest.raises(BadTerm):
        scalars.uniform(1.0, 1.0)
    with pytest.raises(BadTerm):
        scalars.exponential(0.0)
    with pytest.raises(Unsupported):
        ScalarDist(kind="cauchy")


def test_affine_transform():
    d = scalars.affine(scalars.atoms([(1.0, 0.5), (3.0, 0.5)]), scale=2.0, shift=-1.0)
    assert d.atom_pairs() == [(1.0, 0.5), (5.0, 0.5)]
    assert d.mean() == 3.0
    assert d.second_moment() == 13.0
    assert d.is_atomic


def test_affine_negated_heavy_tail():
    # 2 - dyadic: positive mean, heavy tail on the negative side
    d = scalars.affine(scalars.dyadic(), scale=-1.0, shift=2.0)
    assert d.mean() == 0.5
    assert d.second_moment() == math.inf
    rng = np.random.default_rng(3)
    x = d.sample(rng, 100_000)
    assert x.max() == 1.0
    p = 0.75  # P(x = 1) = P(dyadic = 1)
    se = math.sqrt(p * (1 - p) / x.size)
    assert (x == 1.0).mean() == pytest.approx(p, abs=4 * se)
    assert (x == 0.0).mean() == pytest.approx(0.75 / 4, abs=4 * se)
    text = json.dumps(d.to_obj(), sort_keys=True)
    back = scalars.ScalarDist.from_obj(json.loads(text))
    assert json.dumps(back.to_obj(), sort_keys=True) == text


def test_affine_bad_terms():
    with pytest.raises(BadTerm):
        scalars.affine(scalars.dyadic(), scale=0.0, shift=1.0)
    with pytest.raises(BadTerm):
        ScalarDist(kind="affine")


@pytest.mark.parametrize(
    "law, lo, hi",
    [
        (scalars.atoms([(0.5, 0.999), (-0.5, 0.001)]), -0.5, 0.5),
        (scalars.constant(2.0), 2.0, 2.0),
        (scalars.uniform(-1.0, 3.0), -1.0, 3.0),
        (scalars.exponential(2.0), 0.0, math.inf),
        (scalars.dyadic(), 1.0, math.inf),
        (scalars.affine(scalars.uniform(1.0, 2.0), scale=2.0, shift=-1.0), 1.0, 3.0),
        (scalars.affine(scalars.uniform(1.0, 2.0), scale=-2.0, shift=5.0), 1.0, 3.0),
        (scalars.affine(scalars.dyadic(), scale=-1.0, shift=2.0), -math.inf, 1.0),
        (scalars.affine(scalars.exponential(1.0), scale=3.0, shift=0.5), 0.5, math.inf),
    ],
)
def test_support_holds_every_draw(law, lo, hi):
    assert law.support() == (lo, hi)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(5).random(20_000)])
    with np.errstate(all="raise"):
        x = law.icdf(u)
    assert x.min() >= lo and x.max() <= hi


@pytest.mark.parametrize("base", [scalars.dyadic(), scalars.exponential(1.0)])
def test_negative_scale_mirrors_on_the_uniform_grid(base):
    # u = k 2^-53 mirrors to (2^53 - 1 - k) 2^-53, never to 1.0
    d = scalars.affine(base, -1.0, 2.0)
    top = np.nextafter(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = d.icdf(np.array([0.0, top, 0.25]))
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, 2.0 - base.icdf(np.array([top, 0.0, top - 0.25])))


def test_point_mass_icdf_skips_lookup_exactly():
    d = scalars.constant(math.exp(-1))
    u = np.random.default_rng(2).random((3, 7))
    np.testing.assert_array_equal(d.icdf(u), np.full((3, 7), math.exp(-1)))


# ---------------------------------------------------------------------------
# the float format


def test_float_strs_match_float_str():
    values = np.array([0.0, -0.0, -0.0, 0.0, np.nan, 5e-324, 1e16, 1e16, 0.1, 0.1, 2.0 / 3.0])
    assert scalars.float_strs(values) == [scalars.float_str(v) for v in values]
    assert [float(t) for t in scalars.float_strs(values[5:])] == values[5:].tolist()
    assert scalars.float_str(np.float64(0.5)) == "0.5"  # not "np.float64(0.5)"


def test_float_format_lives_in_one_helper():
    # every float reaches a spec, report or CSV through scalars.float_str or
    # float_strs, so repr is named nowhere else in the package
    found = []
    for path in sorted(Path(scalars.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        helpers = [
            range(fn.lineno, fn.end_lineno + 1)
            for fn in tree.body
            if path.name == "scalars.py"
            and isinstance(fn, ast.FunctionDef)
            and fn.name in ("float_str", "float_strs")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "repr":
                if not any(node.lineno in lines for lines in helpers):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"repr outside the float helper at {found}"
