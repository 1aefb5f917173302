"""Lyapunov exponents, splitting directions, and gap-angle tail statistics.

The estimators follow the contraction mechanics of long products: the
most-expanded direction of a backward product approximates the slow/fast
splitting's expanding line, the most-contracted forward direction
approximates the contracting line, and both converge at rate
exp(-(top - bottom) * depth).

The heavy-tail side lives here too: the upper-triangular family whose
invariant-series cotangent makes the gap angle explicit, the
lag-discounted supremum with its exact tail oracle, product bounds for
tail certification, and the negative-drift supremum with a
horizon-doubling stabilization verdict.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import gl2
from .cocycle import (
    MatrixDistribution,
    OrbitWindow,
    ScaledMat2,
    WindowExhausted,
    cocycle_product_scaled,
    triangular_distribution,
)
from .scalars import BadTerm, ScalarDist, Unsupported, constant, dyadic, encode, float_str
from .skyscraper import ensure

# row chunk for the big vectorized Monte Carlo loops; fixed so a given seed
# always produces the same stream layout
CHUNK = 2048

# elements per block of draws (steps x trials in the product sampler, rows x
# depth in the log-domain one); samples do not depend on them.  Block arrays stay
# in cache and below malloc's 128 KiB mmap threshold, so blocks reuse memory
BLOCK_ELEMENTS = 1 << 12
NEGLOG_BLOCK_ELEMENTS = 1 << 13

# explicit head terms of the log-domain series for a point-mass a; the
# exceedance rounds after it stop at the term index NEGLOG_HORIZON, where
# float positions stop being exact integers
NEGLOG_HEAD = 64
NEGLOG_HORIZON = 2.0**53

# depths of gap_neglog_samples: the explicit terms of one log-domain row (a
# point a past 0.924 and a drawn a are cut here), and factors per product half
NEGLOG_DEPTH = 512
PRODUCT_DEPTH = 256

# triangular_series gives up once more than this many prefix products exceed 1
SERIES_DIVERGE_CAP = 1000

# a product sampler of bounded condition checks its lines every STOP_EVERY
# steps and stops once none moved by STOP_TOL radians since the last check
STOP_EVERY = 8
STOP_TOL = 1e-12

# a truncated-mean increment below this fraction of the mean reads as
# converging even when statistically resolved: smooth angle laws keep an
# exactly positive exp(-M) tail forever, and at large sample counts a pure
# noise test would flag that vanishing remainder as growth
REL_GROWTH = 0.05


class SeriesDiverging(ArithmeticError):
    """Prefix products fail to decay, so the series sum is not certified."""


class NeedMoreSamples(ValueError):
    """The input list ended before the result could be certified.

    ``required`` is a sufficient total length given what was seen so far.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class NoData(ValueError):
    """An empty sample list where at least one sample is required."""


class NonNegativeDrift(ValueError):
    """Drift configuration fails 0 < 2c < E[phi]."""


# ---------------------------------------------------------------------------
# exponents and splitting directions


class LyapunovPair(NamedTuple):
    top: float
    bottom: float


def lyapunov_estimates(window: OrbitWindow) -> LyapunovPair:
    """Exponent estimates from the forward stretch [0, end) of a window.

    top = (1/n) log s1 of the n-step product; bottom uses the exact
    determinant identity log s1 + log s2 = log|det|, so top >= bottom
    always.  Lengths below 1000 trigger a warning: the estimates are then
    dominated by transients.
    """
    n = window.end
    if n < 1:
        raise WindowExhausted(f"window [{window.offset}, {window.end}) has no forward part")
    scaled = cocycle_product_scaled(window, 0, n)
    return exponents_of_product(scaled, window.log_dets[window.slot(0) :])


def exponents_of_product(scaled: ScaledMat2, log_dets: np.ndarray) -> LyapunovPair:
    """lyapunov_estimates from the scaled product of n factors and their n
    log|det| values, for callers that stream the factors."""
    n = len(log_dets)
    if n < 1000:
        warnings.warn("fewer than 1000 forward steps; exponent estimates are noisy")
    # top_singular, not svd2: the renormalized product of a long window
    # can be numerically singular (s2 underflows) while s1 stays exact
    log_s1 = scaled.log_scale + math.log(float(gl2.top_singular(scaled.mat)))
    top = log_s1 / n
    return LyapunovPair(top, float(np.sum(log_dets)) / n - top)


def contracted_line(forward: ScaledMat2) -> float:
    """E2 read off a forward product: its s2 right-singular line."""
    # singular_lines, not svd2: a deep product is numerically rank-1 and
    # trips svd2's invertibility guard, but its lines stay well-conditioned
    _, right = gl2.singular_lines(forward.mat)
    return float(gl2.canon_line(right + math.pi / 2.0))


def expanded_line(backward: ScaledMat2) -> float:
    """E1 read off a backward product: the image of its top right-singular
    line, i.e. its left line."""
    left, _ = gl2.singular_lines(backward.mat)
    return float(left)


def estimate_E2_forward(window: OrbitWindow, depth: int) -> float:
    """Forward-contracted line at time 0, read off the depth-step product
    over [0, depth).  Error decays like exp(-(top - bottom) * depth)."""
    return contracted_line(cocycle_product_scaled(window, 0, depth))


def estimate_E1_backward(window: OrbitWindow, depth: int) -> float:
    """Backward-expanded line at time 0, read off the product over [-depth, 0)."""
    return expanded_line(cocycle_product_scaled(window, -depth, depth))


def suggested_depth(gap: float, target: float = 1e-8) -> int:
    """Smallest depth with exp(-gap * depth) < target."""
    if not gap > 0:
        raise ValueError("need a positive exponent gap")
    return math.ceil(-math.log(target) / gap) + 1


# ---------------------------------------------------------------------------
# the invariant series of upper-triangular cocycles


def triangular_series(a_vals, b_vals, tol: float) -> float:
    """Sum of b[n] * prod(a[:n]) truncated once certified below tol.

    a_vals[j] and b_vals[j] are the entries one-step-deeper in the past; the
    series value is the cotangent coordinate of the expanding line.  The
    truncation rule: stop at the first n whose running |a|-prefix-product
    times the max |b| seen drops below tol.  A prefix product that stays
    above 1 for more than SERIES_DIVERGE_CAP indices raises SeriesDiverging;
    running out of terms before certification raises NeedMoreSamples with
    a decay-extrapolated sufficient length.
    """
    a = np.asarray(a_vals, dtype=float)
    b = np.asarray(b_vals, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a_vals and b_vals must be equal-length 1d lists")
    if b.size == 0:
        raise NeedMoreSamples("empty series input", required=1)
    prefix = np.concatenate([[1.0], np.cumprod(a[:-1])])
    decay = np.abs(prefix) * float(np.abs(b).max())
    if int((np.abs(prefix) > 1.0).sum()) > SERIES_DIVERGE_CAP:
        raise SeriesDiverging("prefix products stay above 1 beyond the cap")
    certified = np.nonzero(decay < tol)[0]
    if certified.size == 0:
        # extrapolate from the observed geometric decay rate
        n = a.size
        rate = np.abs(prefix[-1]) ** (1.0 / max(n - 1, 1))
        if rate >= 1.0:
            required = n + SERIES_DIVERGE_CAP
        else:
            extra = math.log(tol / max(decay[-1], 1e-300)) / math.log(rate)
            required = n + max(math.ceil(extra), 1)
        raise NeedMoreSamples(
            f"series not certified below tol={tol} after {n} terms", required=required
        )
    stop = int(certified[0])
    return float(np.dot(prefix[:stop], b[:stop]))


# ---------------------------------------------------------------------------
# gap-angle sampling


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


def _right_lines(prod: np.ndarray) -> np.ndarray:
    """s1 right singular lines of a (2, 2, trials) entry array.

    singular_lines, not svd2: deep products are numerically rank-1 and trip
    svd2's invertibility guard; the lines stay conditioned."""
    return gl2.singular_lines(prod.transpose(2, 0, 1))[1]


def _doubled_right_angles(prod: np.ndarray) -> np.ndarray:
    """r (cos 2t, sin 2t), t the s1 right line of a (2, 2, trials) entry
    array: the top eigenvector of prod^T prod, with no arctan or mod."""
    a, b, c, d = prod.reshape(4, -1)
    return np.stack([a * a + c * c - b * b - d * d, 2.0 * (a * b + c * d)])


def _all_settled(last: np.ndarray, now: np.ndarray) -> bool:
    """Whether every line moved less than STOP_TOL between two doubled-angle
    readings: a change dt has |sin 2dt| < sin(2 STOP_TOL) and cos 2dt > 0."""
    (x0, y0), (x1, y1) = last, now
    bound = (2.0 * STOP_TOL) ** 2 * (x0 * x0 + y0 * y0) * (x1 * x1 + y1 * y1)
    return bool(np.all(((x0 * y1 - y0 * x1) ** 2 < bound) & (x0 * x1 + y0 * y1 > 0.0)))


def _product_right_lines(
    nu: MatrixDistribution, rng, trials: int, depth: int, transpose: bool
) -> np.ndarray:
    """s1 right lines of g_d ... g_1 (each g transposed if asked), trials at once.

    The product, a (2, 2, trials) entry array, takes each new factor on the
    left, without its scale, which moves no line, and is renormalized by its
    max-abs entry every step.  For a law of bounded condition it stops at
    the first multiple of STOP_EVERY steps where every line moved less than
    STOP_TOL since the previous multiple; otherwise it runs to depth.
    """
    settles = nu.bounded_condition
    prod = np.eye(2)[:, :, None].repeat(trials, axis=2)
    block = max(1, BLOCK_ELEMENTS // trials)
    if settles:  # draw little beyond the step where the product may stop
        block = min(block, STOP_EVERY)
    last = None
    for start in range(0, depth, block):
        g = nu.sample_block(rng, min(block, depth - start), trials)[0]
        if transpose:
            g = g.swapaxes(0, 1)
        for s in range(g.shape[2]):  # g[s] @ prod: later factors act on the left
            new = g[:, 0, s, None] * prod[0] + g[:, 1, s, None] * prod[1]
            scale = np.abs(new).reshape(4, trials).max(axis=0)
            if not scale.all():
                # a rank-1 (underflowed) factor annihilated a rank-1 product
                # u v^T: exactly, g u is only tiny, and the lines stay those of u v^T
                dead = scale == 0.0
                new[:, :, dead], scale[dead] = prod[:, :, dead], 1.0
            prod = new / scale
            if settles and (start + s + 1) % STOP_EVERY == 0:
                now = _doubled_right_angles(prod)
                if last is not None and _all_settled(last, now):
                    return _right_lines(prod)
                last = now
    return _right_lines(prod)


def oseledets_angle_samples(
    nu: MatrixDistribution, trials: int, depth: int, seed: int = 0
) -> np.ndarray:
    """Gap angles between the two splitting lines, one per trial.

    For an i.i.d. product the expanding line at time 0 depends only on the
    past and the contracting line only on the future, so the two are
    independent: each trial builds one backward and one independent forward
    product from their own streams, and the pair has exactly the stationary
    joint law.  Both halves read right singular lines, which converge
    pathwise as factors are added: the forward half the s2 line of
    g_d ... g_1, the backward half the s1 line of g_d^T ... g_1^T, which is
    the left s1 line of g_1 ... g_d with g_1 the factor nearest time 0.

    ``depth`` caps the number of factors.  A law of bounded condition
    (``MatrixDistribution.bounded_condition``) stops each half of a call
    once every trial's line has settled (see _product_right_lines), usually
    well before the cap; such a law cannot bring a huge factor after its
    lines look settled.  Every other law runs to the cap, since under a
    heavy tail a rare huge factor can still turn a settled line.  Draws are
    step-major, so a stopped half consumes a prefix of the full-depth stream.
    A gap below the resolution of a line (about 1e-16 rad) comes out as 0.
    """
    rng_b, rng_f = _spawn_rngs(seed, 2)
    e1 = _product_right_lines(nu, rng_b, trials, depth, transpose=True)
    right = _product_right_lines(nu, rng_f, trials, depth, transpose=False)
    return gl2.line_angle(e1, gl2.canon_line(right + math.pi / 2.0))


def log_domain_supported(nu: MatrixDistribution) -> bool:
    """Triangular, with a (and b unless given as log|b|) supported in [0, inf),
    and E log a < 0 for certain.  The series sum b_k a_0 ... a_(k-1) is the
    expanding line only when the first axis contracts: the exponents of
    [[a, b], [0, 1]] products are E log a and 0 (Furstenberg and Kesten,
    Ann. Math. Statist. 31, 1960).  E log a < 0 is read off the closed-form
    ``mean_log``, or for an affine a off a support in [0, 1] other than {1}."""
    if nu.kind != "triangular":
        return False
    laws = (nu.a,) if nu.log_scale_b else (nu.a, nu.b)
    if any(law.support()[0] < 0 for law in laws):
        return False
    try:
        return nu.a.mean_log() < 0.0
    except Unsupported:
        lo, hi = nu.a.support()
        return lo < 1.0 and hi <= 1.0


def gap_neglog_samples(nu: MatrixDistribution, trials: int, seed: int = 0) -> np.ndarray:
    """-log sin(gap angle) samples of nu, one per trial: from the log-domain
    series where ``log_domain_supported`` holds (NEGLOG_DEPTH terms for an a
    it does not sum whole), from matrix products of PRODUCT_DEPTH factors
    per half otherwise.  A product gap of exactly 0 gives +inf."""
    if log_domain_supported(nu):
        return triangular_gap_neglog_samples(nu, trials, NEGLOG_DEPTH, seed)
    with np.errstate(divide="ignore"):  # -log sin 0 = +inf
        return -np.log(np.sin(oseledets_angle_samples(nu, trials, PRODUCT_DEPTH, seed)))


def _exact_plan(a: float) -> tuple[float, float, int]:
    """(kappa, c, head) of the exact series for a point a = e^-kappa in
    [0, 1): the threshold offset c of ``triangular_gap_neglog_samples`` and
    the head length max(NEGLOG_HEAD, ceil(c / kappa)).  a = 0 keeps term 0
    alone."""
    if a == 0.0:
        return math.inf, 0.0, 1
    kappa = -math.log(a)
    c = 53.0 * math.log(2.0) - math.log(-math.expm1(-kappa / 2.0))
    return kappa, c, max(NEGLOG_HEAD, math.ceil(c / kappa))


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x), axis=1)) by a max shift; overwrites x.  All -inf rows give -inf."""
    top = x.max(axis=1)
    top[np.isneginf(top)] = 0.0
    x -= top[:, None]
    return np.log(np.exp(x, out=x).sum(axis=1)) + top


@np.errstate(divide="ignore")  # log 0 = -inf is intended
def triangular_gap_neglog_samples(
    nu: MatrixDistribution, trials: int, depth: int = NEGLOG_DEPTH, seed: int = 0
) -> np.ndarray:
    """-log sin(gap angle) samples for positive upper-triangular families.

    The contracting line of [[a, b], [0, 1]] products is the first axis
    exactly, and the expanding line is spanned by (X, 1) where X is the
    invariant series sum_k b_k a_0...a_(k-1), so -log sin(theta) =
    log sqrt(1 + X^2).  Everything runs in the log domain, which keeps
    tails like log b = 2^26 representable where explicit matrices would
    overflow.  A zero a or b is a -inf log term that drops out exactly.

    Each chunk of CHUNK rows draws its explicit terms row block by row block.
    For a point a = e^-kappa in [0, 1) whose head (``_exact_plan``) fits in
    NEGLOG_DEPTH terms, the series is summed whole and ``depth`` plays
    no part.  Term k is z_k = psi_k - kappa k, psi = log b; after the head,
    the exceedance rounds (``_add_exceedances``) add a term k only when
    psi_k passes tau_k = M - c + kappa (k + head) / 2, with M the row's
    running max term.  A term below its threshold is below
    e^(M - c) e^(-kappa (k - head) / 2), so c = 53 log 2 -
    log(1 - e^(-kappa / 2)) keeps all of them together below 2^-53 e^M, at
    most 2^-53 X.  The head holds at least c / kappa terms, so the first
    threshold is at least M and the rounds visit only rare terms.

    Any other a sums the first ``depth`` terms: each chunk draws all its a
    before its b, and a is read from a copy of the stream.
    """
    if not log_domain_supported(nu):
        raise Unsupported(
            "log-domain series needs a triangular law with nonnegative a and b"
            " and a not supported in [1, inf)"
        )
    (rng,) = _spawn_rngs(seed, 1)
    point = nu.a.kind == "atoms" and len(nu.a.values) == 1  # in [0, 1): supported
    kappa, c, head = _exact_plan(float(nu.a.values[0])) if point else (0.0, 0.0, math.inf)
    exact = head <= NEGLOG_DEPTH
    if exact:
        depth = head
        lag = -kappa * np.arange(1, head)  # log(a^k) of the terms k >= 1
    block_rows = max(1, NEGLOG_BLOCK_ELEMENTS // depth)
    out = np.empty(trials)
    for done in range(0, trials, CHUNK):
        m = min(CHUNK, trials - done)
        total, top = np.empty(m), np.empty(m)
        if not exact:
            a_rng = copy.deepcopy(rng)
            rng.bit_generator.advance(m * depth)
        for r in range(0, m, block_rows):
            n = min(block_rows, m - r)
            if not exact:
                la = np.log(np.asarray(nu.a.sample(a_rng, n * depth), dtype=float)).reshape(n, depth)
                lag = np.cumsum(la, axis=1, out=la)[:, :-1]
            terms = np.asarray(nu.b.sample(rng, n * depth), dtype=float).reshape(n, depth)
            if not nu.log_scale_b:
                np.log(terms, out=terms)
            terms[:, 1:] += lag
            if exact:  # the exceedance thresholds rise from the row max
                top[r : r + n] = terms.max(axis=1)
            total[r : r + n] = _logsumexp_rows(terms)
        if exact and kappa < math.inf:  # a = 0 keeps term 0 alone
            _add_exceedances(nu, total, top, kappa, c, head, rng)
        out[done : done + m] = 0.5 * np.logaddexp(0.0, 2.0 * total)
    return out


@np.errstate(over="ignore")  # e^tau past the float range has sf 0
def _add_exceedances(nu, total, top, kappa: float, c: float, head: int, rng) -> None:
    """Add to each row's log-sum ``total`` (running max ``top``) the terms
    k >= head with psi_k > tau_k, by thinning (Devroye 1986, ch. X).

    Each round, for every live row at position pos: a Geometric(p) skip,
    p = sf(tau_pos), to the next candidate k (tau rises with k, so p bounds
    every sf(tau_k) on the way); acceptance with probability
    sf(tau_k) / p; then psi_k = isf(sf(tau_k) U) given psi_k > tau_k.  A row
    ends when p is 0 or its candidate lies at or past NEGLOG_HORIZON.  Past
    that horizon a row misses a term that would pass its threshold with
    probability at most sum_(k >= 2^53) sf(tau_k); for the dyadic psi at
    a = 1/e that is about 2^-52.
    """
    if nu.log_scale_b:
        sf, isf = nu.b.sf, nu.b.isf
    else:  # psi = log b
        sf = lambda t: nu.b.sf(np.exp(t))  # noqa: E731
        isf = lambda q: np.log(nu.b.isf(q))  # noqa: E731
    rows = np.arange(total.size)
    pos = np.full(total.size, float(head))
    while rows.size:
        p = sf(top[rows] - c + kappa * (pos + head) / 2.0)
        live = p > 0.0
        rows, pos, p = rows[live], pos[live], p[live]
        # failures before the first success, in float: a tiny p cannot overflow
        skip = np.floor(-np.log1p(-rng.random(rows.size)) / -np.log1p(-p))
        k = pos + skip
        live = k < NEGLOG_HORIZON
        rows, k, p = rows[live], k[live], p[live]
        s = sf(top[rows] - c + kappa * (k + head) / 2.0)
        ensure(np.all(s <= p), "a tail probability rose along the thresholds")
        hit = rng.random(rows.size) * p < s
        at = rows[hit]
        z = isf(s[hit] * (1.0 - rng.random(at.size))) - kappa * k[hit]
        total[at] = np.logaddexp(total[at], z)
        top[at] = np.maximum(top[at], z)
        pos = k + 1.0


# ---------------------------------------------------------------------------
# angle tail reports


@dataclass(frozen=True)
class AngleTailReport:
    """Truncated means of -log sin(theta) at increasing thresholds.

    ``verdict`` is comparative, never a claim about the untruncated
    integral: "growing" when the increment between the last two truncated
    means clears both the noise floor (two standard errors of the
    per-sample differences) and the scale floor (REL_GROWTH times the last
    mean), "converging" otherwise.  The scale floor keeps laws with thin
    exponential tails from reading as growth once the sample count makes
    their tiny-but-real remainder statistically visible.
    """

    thresholds: tuple[float, ...]
    truncated_means: tuple[float, ...]
    stderrs: tuple[float, ...]
    sample_count: int
    verdict: str

    def to_obj(self) -> dict:
        return encode({f.name: getattr(self, f.name) for f in fields(self)})

    def to_csv(self) -> str:
        lines = ["threshold,truncated_mean,stderr"]
        for row in zip(self.thresholds, self.truncated_means, self.stderrs):
            lines.append(",".join(map(float_str, row)))
        return "\n".join(lines) + "\n"


def check_thresholds(thresholds) -> tuple[float, ...]:
    """The thresholds as floats; BadTerm unless they are finite, positive and
    strictly increasing (nan fails every comparison, so it fails here too)."""
    ts = tuple(float(t) for t in thresholds)
    if not (ts and 0 < ts[0] and ts[-1] < math.inf and all(a < b for a, b in zip(ts, ts[1:]))):
        raise BadTerm("thresholds must be finite, positive and strictly increasing")
    return ts


def angle_tail_report_neglog(neglog_samples, thresholds) -> AngleTailReport:
    """Build the report from -log sin(theta) values directly.

    This is the entry point for samplers that never materialize the angle
    (tiny gaps underflow a float angle long before their log does).
    """
    v = np.asarray(neglog_samples, dtype=float)
    if v.size == 0:
        raise NoData("no angle samples")
    if not np.all(v >= 0):  # nan fails too
        raise BadTerm("-log sin values must be nonnegative")
    ts = check_thresholds(thresholds)
    means, errs = [], []
    for t in ts:
        clipped = np.minimum(v, t)
        means.append(float(clipped.mean()))
        errs.append(float(clipped.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0)
    if len(ts) >= 2:
        d = np.minimum(v, ts[-1]) - np.minimum(v, ts[-2])
        se = float(d.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
        grown = float(d.mean()) > 2.0 * se and float(d.mean()) > REL_GROWTH * means[-1]
        verdict = "growing" if grown else "converging"
    else:
        verdict = "converging"
    return AngleTailReport(ts, tuple(means), tuple(errs), int(v.size), verdict)


def angle_tail_report(samples, thresholds) -> AngleTailReport:
    """Report on gap-angle samples in [0, pi/2]; nan is rejected.

    A gap angle of exactly 0 reads as below float resolution (the product
    sampler resolves lines to about 1e-16 rad): its -log sin is +inf, which
    clips to t at every threshold t.
    """
    th = np.asarray(samples, dtype=float)
    if th.size == 0:
        raise NoData("no angle samples")
    if not np.all((th >= 0) & (th <= math.pi / 2.0 + 1e-12)):  # nan fails too
        raise BadTerm("gap angles must lie in [0, pi/2]")
    with np.errstate(divide="ignore"):  # -log sin 0 = +inf
        neglog = -np.log(np.sin(th))
    return angle_tail_report_neglog(neglog, thresholds)


# ---------------------------------------------------------------------------
# product bounds and the lag-discounted supremum


def weierstrass_bounds(a):
    """(S/(1+S), 1 - prod(1 - a_n), S) for a_n in [0, 1], S = sum a_n.

    Reduces over the last axis: a 1-D term list gives three floats, an
    (m, n) array three length-m arrays, one triple per row.  The middle
    value is sandwiched: lower <= value <= min(upper, 1).  The upper bound
    is returned unclipped.
    """
    arr = np.asarray(a, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # nan fails too
        raise BadTerm("terms must lie in [0, 1]")
    s = arr.sum(axis=-1)
    out = (s / (1.0 + s), 1.0 - np.prod(1.0 - arr, axis=-1), s)
    return tuple(map(float, out)) if arr.ndim == 1 else out


def lag_discounted_sup(values, upper_bound: float) -> float:
    """sup over n of (values[n] - n), certified by the a-priori bound.

    Reading stops at the first index n with upper_bound - n below the
    running max: no unseen term can beat it.  Values above upper_bound
    break the certificate and raise BadTerm; exhausting the list first
    raises NeedMoreSamples with a sufficient total length.
    """
    best = -math.inf
    n = 0
    values = list(values)
    while True:
        if upper_bound - n < best:
            return best
        if n >= len(values):
            if best == -math.inf:
                raise NeedMoreSamples("need at least one value", required=1)
            raise NeedMoreSamples(
                f"certification needs more than {n} values",
                required=math.floor(upper_bound - best) + 1,
            )
        v = float(values[n])
        if v > upper_bound + 1e-12:
            raise BadTerm(f"value {v} exceeds the stated upper bound {upper_bound}")
        best = max(best, v - n)
        n += 1


def sample_sup_values(psi: ScalarDist, trials: int, seed: int = 0) -> np.ndarray:
    """Monte Carlo draws of the lag-discounted supremum for atomic psi.

    For nonnegative psi bounded by its largest atom B, indices beyond
    floor(B) cannot matter, so each draw is an exact supremum over
    floor(B) + 1 lagged samples.
    """
    pairs = psi.atom_pairs()
    vals = np.array([v for v, _ in pairs])
    if np.any(vals < 0):
        raise BadTerm("psi must be nonnegative")
    bound = float(vals.max())
    width = math.floor(bound) + 1
    (rng,) = _spawn_rngs(seed, 1)
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(CHUNK, trials - done)
        draws = np.asarray(psi.sample(rng, m * width), dtype=float).reshape(m, width)
        out[done : done + m] = (draws - np.arange(width)).max(axis=1)
        done += m
    return out


class SupTail(NamedTuple):
    """Exact tail data for the lag-discounted supremum Y of i.i.d. psi.

    ``b[k-1]`` = P(Y >= k) = 1 - prod_{j >= k} (1 - P(psi >= j));
    ``expectation`` is exact for atomic psi (math.inf when the infinite
    flag is set, which happens exactly when psi has infinite second
    moment).
    """

    b: np.ndarray
    expectation: float
    infinite: bool


def _dyadic_tail_log_products(max_terms: int) -> np.ndarray:
    """log prod_{j >= k}(1 - a_j) for the dyadic law, k = 1..max_terms.

    a_j = P(psi >= j) is 1 for j = 1 and 4^-m on the block
    2^(m-1) < j <= 2^m, so the product groups into closed-form block
    counts; blocks beyond machine precision are dropped.
    """
    out = np.empty(max_terms)
    out[0] = -math.inf  # the j = 1 factor is zero
    for k in range(2, max_terms + 1):
        m0 = math.ceil(math.log2(k))
        total = 0.0
        # partial block containing k
        count = 2**m0 - k + 1
        total += count * math.log1p(-(4.0**-m0))
        m = m0 + 1
        while m < 64:
            term = 2 ** (m - 1) * math.log1p(-(4.0**-m))
            total += term
            if abs(term) < 1e-18:
                break
            m += 1
        out[k - 1] = total
    return out


def exact_sup_tail(psi: ScalarDist, max_terms: int = 64) -> SupTail:
    """Exact P(Y >= k) sequence and E[Y] for atomic nonnegative psi.

    Finite atoms: reversed cumulative products give every b_k exactly and
    E[Y] follows by the layer-cake integral (a plain sum when psi is
    integer-valued).  The dyadic law gets closed-form block products and
    the infinite flag.  Non-atomic laws are not supported.
    """
    if not psi.is_atomic:
        raise Unsupported("exact tail oracle needs an atomic law")
    if psi.kind == "dyadic":
        b = -np.expm1(_dyadic_tail_log_products(max_terms))
        return SupTail(b, math.inf, True)
    pairs = psi.atom_pairs()
    vals = np.array([v for v, _ in pairs])
    wts = np.array([w for _, w in pairs])
    if np.any(vals < 0):
        raise BadTerm("psi must be nonnegative")
    bound = float(vals.max())
    j_max = math.ceil(bound)
    a = np.array([wts[vals >= j].sum() for j in range(1, j_max + 1)])
    rev = np.cumprod((1.0 - a)[::-1])[::-1]
    b = 1.0 - rev
    integer_valued = bool(np.all(np.abs(vals - np.round(vals)) < 1e-12))
    if integer_valued:
        expectation = float(b.sum())
    else:
        # layer-cake: P(Y <= t) = prod_n F(t + n), piecewise constant in t
        cuts = {0.0, bound}
        for v in vals:
            for n in range(math.floor(v) + 1):
                t = v - n
                if 0.0 <= t <= bound:
                    cuts.add(float(t))
        grid = np.array(sorted(cuts))
        expectation = 0.0
        for left, right in zip(grid[:-1], grid[1:]):
            mid = 0.5 * (left + right)
            prob_le = 1.0
            n = 0
            while mid + n < bound:
                prob_le *= wts[vals <= mid + n].sum()
                n += 1
            expectation += (right - left) * (1.0 - prob_le)
    if max_terms > b.size:
        b = np.concatenate([b, np.zeros(max_terms - b.size)])
    return SupTail(b[:max_terms], expectation, False)


# ---------------------------------------------------------------------------
# the heavy-tail family


def counterexample_psi() -> ScalarDist:
    """The dyadic law: finite mean 3/2, infinite second moment."""
    return dyadic()


def build_counterexample_cocycle(psi: ScalarDist | None = None) -> MatrixDistribution:
    """Triangular family [[1/e, e^psi], [0, 1]].

    The exponents are (0, -1); the series cotangent dominates the
    lag-discounted supremum of psi, so an infinite-second-moment psi makes
    -log sin(gap angle) non-integrable while the first moment stays
    finite.
    """
    if psi is None:
        psi = counterexample_psi()
    if psi.mean() == math.inf:
        raise BadTerm("psi needs a finite mean")
    try:
        if min(v for v, _ in psi.atom_pairs()) < 0:
            raise BadTerm("psi must be nonnegative")
    except Unsupported:
        pass  # infinite-support or continuous laws vouch for themselves
    return triangular_distribution(constant(math.exp(-1.0)), psi, log_scale_b=True)


# ---------------------------------------------------------------------------
# negative-drift supremum


class DriftReport(NamedTuple):
    value: float
    stderr: float
    half_value: float
    half_stderr: float
    stabilized: bool
    drift_c: float
    horizon: int
    trials: int


def _sup_walk_batch(phi: ScalarDist, c: float, horizon: int, trials: int, rng) -> np.ndarray:
    sups = np.empty(trials)
    done = 0
    rows = max(1, min(CHUNK, (4 << 20) // max(horizon, 1)))
    while done < trials:
        m = min(rows, trials - done)
        steps = 2.0 * c - np.asarray(phi.sample(rng, m * horizon), dtype=float).reshape(
            m, horizon
        )
        walk = np.cumsum(steps, axis=1)
        sups[done : done + m] = np.maximum(walk.max(axis=1), 0.0)
        done += m
    return sups


def negative_drift_supremum(
    phi: ScalarDist,
    drift_c: float | None = None,
    horizon: int = 10_000,
    trials: int = 2_000,
    seed: int = 0,
) -> DriftReport:
    """Monte Carlo E[sup of the walk 2c n - sum(phi)] with a stabilization check.

    The walk starts at 0 and drifts down when 2c < E[phi]; drift_c defaults
    to E[phi]/3.  Two independent batches run at horizon/2 and horizon;
    "stabilized" means their means agree within 3 joint standard errors.
    A square-integrable phi stabilizes; a phi with a heavy enough negative
    tail keeps growing with the horizon and fails the check.
    """
    mean_phi = phi.mean()
    if not mean_phi > 0:
        raise NonNegativeDrift("phi needs a positive mean")
    c = mean_phi / 3.0 if drift_c is None else float(drift_c)
    if not 0 < 2.0 * c < mean_phi:
        raise NonNegativeDrift("need 0 < 2c < E[phi] for a negative drift")
    if horizon < 2 or trials < 2:
        raise ValueError("horizon and trials must be at least 2")
    rng_half, rng_full = _spawn_rngs(seed, 2)
    half = _sup_walk_batch(phi, c, horizon // 2, trials, rng_half)
    full = _sup_walk_batch(phi, c, horizon, trials, rng_full)
    hv, hs = float(half.mean()), float(half.std(ddof=1) / math.sqrt(trials))
    fv, fs = float(full.mean()), float(full.std(ddof=1) / math.sqrt(trials))
    stabilized = abs(fv - hv) <= 3.0 * math.hypot(fs, hs)
    return DriftReport(fv, fs, hv, hs, stabilized, c, horizon, trials)
