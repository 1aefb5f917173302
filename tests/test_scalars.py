"""Tests for scalar laws: inverse CDFs, exact moments, and error cases."""

import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from oseledets import cocycle, flexible, gl2, scalars
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


TAIL_LAWS = {
    "atoms": scalars.atoms([(3.0, 0.2), (-1.0, 0.5), (2.0, 0.3)]),
    "uniform": scalars.uniform(-1.0, 3.0),
    "exponential": scalars.exponential(2.0),
    "dyadic": scalars.dyadic(),
    "affine": scalars.affine(scalars.dyadic(), 2.5, -1.0),
    "affine_neg_dyadic": scalars.affine(scalars.dyadic(), -1.0, 2.0),
    "affine_neg_exponential": scalars.affine(scalars.exponential(1.5), -3.0, 0.5),
    "affine_neg_atoms": scalars.affine(scalars.atoms([(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]), -2.0, 1.0),
    "affine_neg_uniform": scalars.affine(scalars.uniform(1.0, 2.0), -2.0, 5.0),
    "affine_twice": scalars.affine(scalars.affine(scalars.dyadic(), -1.0, 0.0), -0.5, 1.0),
}


@pytest.mark.parametrize("law", TAIL_LAWS.values(), ids=TAIL_LAWS.keys())
def test_sf_matches_inverse_cdf_draws(law):
    # on an even grid of 2^16 uniforms the share of icdf draws above x is
    # P(X > x) to within one grid step
    n = 1 << 16
    x = np.sort(law.icdf((np.arange(n) + 0.5) / n))
    probes = np.concatenate([x[::97], x[::97] + 1e-9, x[::97] - 1e-9, [-np.inf, np.inf]])
    share = 1.0 - np.searchsorted(x, probes, side="right") / n
    assert np.max(np.abs(law.sf(probes) - share)) <= 1.0 / n + 1e-12


@pytest.mark.parametrize("law", TAIL_LAWS.values(), ids=TAIL_LAWS.keys())
def test_isf_is_the_least_point_below_q(law):
    # isf(q) = inf{x : sf(x) < q}: sf at isf(q) is at most q, and just below
    # isf(q) it is at least q
    q = np.concatenate([np.random.default_rng(4).random(500) + 2.0**-53, 2.0 ** -np.arange(0, 1001, 37)])
    x = law.isf(q)
    assert not np.any(np.isnan(x))
    assert np.all(law.sf(x) <= q * (1.0 + 1e-9))
    below = x - 1e-9 * np.maximum(1.0, np.abs(x))
    assert np.all(law.sf(below) >= q * (1.0 - 1e-9))


@pytest.mark.parametrize("law", TAIL_LAWS.values(), ids=TAIL_LAWS.keys())
def test_isf_conditional_draws_land_above_the_threshold(law):
    # isf(sf(t) U), U in (0, 1], lies above t; at U = 1 too for an atomic law
    t = law.isf(np.array([0.9, 0.5, 0.1, 1e-3]))
    p = law.sf(t)
    p = p[p > 0]
    t = t[: p.size]
    u = np.concatenate([[1.0], np.random.default_rng(6).random(200) + 2.0**-53])
    x = law.isf(p[:, None] * u[None, :])
    if law.is_atomic:
        assert np.all(x > t[:, None])
    else:
        assert np.all(x >= t[:, None] - 1e-12 * np.maximum(1.0, np.abs(t[:, None])))


def test_dyadic_and_exponential_isf_exact_deep_in_the_tail():
    d = scalars.dyadic()
    k = np.arange(537)
    np.testing.assert_array_equal(d.sf(np.ldexp(1.0, k)), np.ldexp(1.0, -2 * k - 2))
    np.testing.assert_array_equal(d.isf(np.ldexp(1.0, -2 * k - 2)), np.ldexp(1.0, k + 1))
    assert float(d.isf(2.0**-1000)) == 2.0**500
    assert float(d.isf(2.0**-1000 * 1.5)) == 2.0**499
    assert float(d.sf(np.inf)) == 0.0
    e = scalars.exponential(2.0)
    # log(2^-1000) is exact to rounding: one ulp off the product 1000 log 2
    assert float(e.isf(2.0**-1000)) == pytest.approx(500 * math.log(2.0), rel=2.0**-52)
    assert float(e.sf(1000 * math.log(2.0) / 2.0)) == pytest.approx(2.0**-1000, rel=1e-13)


def test_affine_negative_scale_tail_functions():
    d = scalars.affine(scalars.dyadic(), -1.0, 2.0)  # 2 - 2^k: 1, 0, -2, -6, ...
    np.testing.assert_array_equal(d.sf([1.0, 0.0, -0.5, -2.0, -np.inf]), [0.0, 0.75, 15 / 16, 15 / 16, 1.0])
    np.testing.assert_array_equal(d.isf([1.0, 0.9, 0.75, 0.5, 1e-300]), [-np.inf, 0.0, 1.0, 1.0, 1.0])
    e = scalars.affine(scalars.exponential(1.0), -1.0, 0.0)  # -Exp(1)
    assert float(e.sf(-1.0)) == pytest.approx(-math.expm1(-1.0), rel=1e-15)
    assert float(e.isf(1e-300)) == pytest.approx(-1e-300, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert float(e.isf(1.0)) == -math.inf


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
    # float_strs, so repr is named nowhere else in the package; and the JSON
    # writers (every to_obj and cli._config) list their fields and leave the
    # format to scalars.encode, so none of them names float_str
    found, by_hand = [], []
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
            if isinstance(node, ast.FunctionDef) and node.name in ("to_obj", "_config"):
                if any(
                    isinstance(inner, ast.Name) and inner.id == "float_str"
                    or isinstance(inner, ast.Attribute) and inner.attr == "float_str"
                    for inner in ast.walk(node)
                ):
                    by_hand.append(f"{path.name}:{node.lineno}")
    assert not found, f"repr outside the float helper at {found}"
    assert not by_hand, f"a JSON writer formats floats by hand at {by_hand}"


def test_encode_formats_floats_and_passes_the_rest():
    obj = {
        "f": 0.1, "np": np.float64(-0.0), "tuple": (1.0, 2), "n": np.int64(7),
        "law": scalars.uniform(0, 1), "s": "x", "none": None, "i": 3, "flag": True,
    }
    assert scalars.encode(obj) == {
        "f": "0.1", "np": "-0.0", "tuple": ["1.0", 2], "n": 7,
        "law": {"kind": "uniform", "lo": "0.0", "hi": "1.0"}, "s": "x", "none": None, "i": 3,
        "flag": True,
    }
    assert type(scalars.encode(np.int64(7))) is int


# ---------------------------------------------------------------------------
# E log X


@pytest.mark.parametrize(
    "law",
    [
        scalars.atoms([(0.5, 0.25), (3.0, 0.75)]),
        scalars.uniform(0.5, 1.5),
        scalars.uniform(0.0, 2.0),
        scalars.exponential(1.0),
        scalars.exponential(0.25),
        scalars.dyadic(),
    ],
)
def test_mean_log_matches_the_inverse_cdf_integral(law):
    # E log X = integral of log icdf(u) over [0, 1), by the midpoint rule
    u = (np.arange(2_000_000) + 0.5) / 2_000_000
    assert law.mean_log() == pytest.approx(np.log(law.icdf(u)).mean(), abs=2e-4)


def test_mean_log_values_and_unsupported_laws():
    assert scalars.uniform(0.5, 1.5).mean_log() == pytest.approx(-0.0452287, abs=1e-7)
    assert scalars.exponential(1.0).mean_log() == -np.euler_gamma
    assert scalars.dyadic().mean_log() == math.log(2.0) / 3.0
    assert scalars.atoms([(0.0, 0.5), (2.0, 0.5)]).mean_log() == -math.inf
    assert scalars.atoms([(0.0, 0.0), (2.0, 1.0)]).mean_log() == math.log(2.0)
    for law in (scalars.affine(scalars.uniform(0, 1), 0.5, 0.0), scalars.uniform(-1.0, 1.0)):
        with pytest.raises(Unsupported):
            law.mean_log()


# ---------------------------------------------------------------------------
# the JSON codec: every spec reloads to the same bytes


_NUMBERS = st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _atom_law(draw):
    values = draw(st.lists(_NUMBERS, min_size=1, max_size=4))
    if len(values) == 1:
        return scalars.atoms([(values[0], 1)])
    parts = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return scalars.atoms([(v, k / sum(parts)) for v, k in zip(values, parts)])


@st.composite
def _uniform_law(draw):
    lo, hi = sorted(draw(st.lists(_NUMBERS, min_size=2, max_size=2, unique=True)))
    assume(lo < hi)  # 0 and -0.0 are distinct floats but equal numbers
    return scalars.uniform(lo, hi)


_SCALAR_LAWS = st.recursive(
    st.one_of(
        _atom_law(),
        _uniform_law(),
        st.builds(scalars.exponential, st.one_of(st.integers(1, 100), st.floats(1e-300, 1e300))),
        st.just(scalars.dyadic()),
    ),
    lambda base: st.builds(scalars.affine, base, _NUMBERS.filter(bool), _NUMBERS),
    max_leaves=3,
)


@st.composite
def _matrix_law(draw):
    kind = draw(st.sampled_from(["atoms", "triangular", "rotgain"]))
    if kind == "triangular":
        return cocycle.triangular_distribution(
            draw(_SCALAR_LAWS), draw(_SCALAR_LAWS), log_scale_b=draw(st.booleans())
        )
    if kind == "rotgain":
        return cocycle.rotgain_distribution(draw(_SCALAR_LAWS), draw(_SCALAR_LAWS))
    entries = st.one_of(st.integers(-9, 9), st.floats(-1e6, 1e6, allow_nan=False))
    mats = draw(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=3))
    try:
        return cocycle.atoms_distribution(
            [(np.reshape(m, (2, 2)), 1 if len(mats) == 1 else 1 / len(mats)) for m in mats]
        )
    except gl2.NotInvertible:
        return reject()


@st.composite
def _eta_spec(draw):
    def edges(choices):
        return sorted(draw(st.lists(st.sampled_from(choices), min_size=2, max_size=2)))

    def cell():
        return flexible.uniform_cell(*edges([0, 0.25, 1, 3]), *edges([1e-12, 0.5, 1, 1.5]))

    tail = None
    if draw(st.booleans()):
        ratio = draw(st.sampled_from([0.25, 0.5, 0.9]))
        tail = flexible.TailRule(0.5 * (1 - ratio), ratio, cell(), draw(st.sampled_from([1, 0.5])))
    rest = 1 - (0.5 if tail else 0)
    n = draw(st.integers(1, 3))
    weights = [1] if n == 1 and tail is None else [rest / n] * n
    return flexible.EtaSpec([(w, cell()) for w in weights], tail)


def _leaves(obj):
    if isinstance(obj, dict):
        return [leaf for v in obj.values() for leaf in _leaves(v)]
    if isinstance(obj, list):
        return [leaf for v in obj for leaf in _leaves(v)]
    return [obj]


@settings(max_examples=200, deadline=None)
@given(_SCALAR_LAWS)
def test_scalar_law_json_reloads_to_the_same_bytes(law):
    text = json.dumps(law.to_obj(), sort_keys=True)
    back = ScalarDist.from_obj(json.loads(text))
    assert json.dumps(back.to_obj(), sort_keys=True) == text
    assert back == law
    assert all(isinstance(leaf, str) for leaf in _leaves(json.loads(text)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrix_law(), _eta_spec()))
def test_spec_json_reloads_to_the_same_bytes(spec):
    text = spec.to_json()
    assert type(spec).from_json(text).to_json() == text
    # every number of a spec is a string: an int parameter writes as "0.0"
    assert all(isinstance(leaf, str) for leaf in _leaves(json.loads(text)))
