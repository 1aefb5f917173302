"""Matrix distributions, orbit windows, and cocycle product machinery.

An orbit window holds the one-step matrices F(T^i omega) for i in
[offset, offset + n), each drawn as e^log_scale times a matrix whose max-abs
entry lies within e^+-LOG_SAFE.  Products reduce pairwise in a tree seeded
with those scales, and every pair product is divided by its max-abs entry,
whose log moves into a separate accumulator, so window lengths of 10^6 and
matrix norms like e^500000 stay representable.

Seed discipline: sample_onestep draws every field from one default_rng(seed),
step after step and field-major within a step (sample_block).  Only
estimation's Monte Carlo samplers spawn SeedSequence children (_spawn_rngs),
e.g. one per product half.  Scalar laws are sampled by inverse CDF only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gl2
from .scalars import ScalarDist, Unsupported, encode

# drawn factors keep their max-abs entry within e^-LOG_SAFE..e^LOG_SAFE, so
# a pair product is finite: a margin below log sqrt(DBL_MAX / 2) = 354.54
LOG_SAFE = 354.0

# product_scaled's tree reduces aligned blocks of this many factors first
TREE_BLOCK = 1 << 12


class WindowExhausted(IndexError):
    """Requested product range leaves the stored window."""


@dataclass(frozen=True)
class MatrixDistribution:
    """A law on invertible 2x2 matrices.

    Kinds:

    - ``atoms``: finite list of (matrix, weight)
    - ``triangular``: rows [[a, b], [0, 1]] with scalar laws for a and
      either b directly or log|b| (``log_scale_b=True``); the log form keeps
      heavy-tailed b in the representable range of downstream closed forms
    - ``rotgain``: rotation(angle) @ diag(e^t, e^-t) with scalar laws for
      the rotation angle and the log-gain t

    ``bounded_condition`` is decided from the scalar laws' supports when the
    law is built: it holds for atoms, for rotgain with a bounded log-gain,
    and for triangular laws with bounded b (or log|b|) and with a supported
    in a bounded interval that excludes 0.  Such factors have condition
    numbers below a fixed bound.
    """

    # the scalar-law fields of each parametric kind; a triangular b given as
    # log|b| is written as log_b
    LAWS = {"triangular": ("a", "b"), "rotgain": ("angle", "log_gain")}

    kind: str
    matrices: tuple = ()          # atoms: tuple of 2x2 tuples
    weights: tuple = ()           # atoms
    a: ScalarDist | None = None   # triangular
    b: ScalarDist | None = None   # triangular: law of b or of log|b|
    log_scale_b: bool = False
    angle: ScalarDist | None = None     # rotgain
    log_gain: ScalarDist | None = None  # rotgain
    bounded_condition: bool = field(default=False, init=False, repr=False, compare=False)
    # atoms: (g, log_scale, log_det) of each atom, as sample_block draws them
    _atoms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "atoms":
            object.__setattr__(self, "weights", tuple(map(float, self.weights)))
            object.__setattr__(self, "matrices", tuple(
                tuple(tuple(map(float, row)) for row in m) for m in self.matrices
            ))
            if len(self.matrices) == 0 or len(self.matrices) != len(self.weights):
                raise ValueError("atoms need matching matrix and weight lists")
            w = np.asarray(self.weights)
            if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("atom weights must be finite, nonnegative and sum to 1")
            mats = np.asarray(self.matrices, dtype=float)
            if not np.all(np.isfinite(mats)):
                raise ValueError("atom matrix entries must be finite")
            atoms = _atom_factors(mats)
            if not np.all(np.isfinite(atoms[2])):
                raise gl2.NotInvertible("atom matrix is singular")
            object.__setattr__(self, "_atoms", atoms)
        elif self.kind == "triangular":
            if self.a is None or self.b is None:
                raise ValueError("triangular kind needs scalar laws a and b")
        elif self.kind == "rotgain":
            if self.angle is None or self.log_gain is None:
                raise ValueError("rotgain kind needs angle and log_gain laws")
        else:
            raise Unsupported(f"unknown matrix distribution kind {self.kind!r}")
        object.__setattr__(self, "bounded_condition", self._bounded_condition())

    def _bounded_condition(self) -> bool:
        def bounded(law):
            return all(math.isfinite(v) for v in law.support())

        if self.kind == "atoms":
            return True
        if self.kind == "rotgain":
            return bounded(self.log_gain)
        lo, hi = self.a.support()
        return bounded(self.b) and bounded(self.a) and (lo > 0 or hi < 0)

    # -- sampling ---------------------------------------------------------

    def sample_block(self, rng: np.random.Generator, steps: int, n: int) -> tuple:
        """Draw steps x n i.i.d. factors e^log_scale * g as (g, log_scale,
        log_det): g entry arrays of shape (2, 2, steps, n), the others
        (steps, n).  A factor with its max-abs entry within e^-LOG_SAFE..
        e^LOG_SAFE has log_scale 0 and comes bit for bit as drawn; any
        other is scaled to the nearer end.  log_det is log|det| from the law,
        as det(g) can underflow: log|a| (triangular), 0 (rotgain), per atom.

        Uniforms are consumed step after step, field-major within a step:
        atoms use one stream of n uniforms; triangular draws all a then all
        b; rotgain all angles then all gains, and builds each rotation from
        the tangent of its half angle (``gl2.cos_sin``)."""
        if self.kind == "atoms":
            idx = np.searchsorted(np.cumsum(self.weights), rng.random((steps, n)), side="left")
            idx = np.minimum(idx, len(self.weights) - 1)
            g, log_scale, log_det = self._atoms
            return g[:, :, idx], log_scale[idx], log_det[idx]
        u = rng.random((steps, 2, n))
        out = np.empty((2, 2, steps, n))
        log_scale = np.zeros((steps, n))
        if self.kind == "triangular":
            a, b = self.a.icdf(u[:, 0]), self.b.icdf(u[:, 1])
            with np.errstate(divide="ignore"):  # a or b = 0 has log -inf
                log_det = np.log(np.abs(a))
                log_peak = np.maximum(log_det, b if self.log_scale_b else np.log(np.abs(b)))
            unit = 1.0  # the (2, 2) entry, which keeps log_peak >= 0
            if log_peak.max() > LOG_SAFE:
                log_scale = np.maximum(log_peak - LOG_SAFE, 0.0)
                unit = np.exp(-log_scale)
                a = a * unit
                b = b - log_scale if self.log_scale_b else b * unit
            out[0, 0], out[0, 1] = a, np.exp(b) if self.log_scale_b else b
            out[1, 0], out[1, 1] = 0.0, unit
            return out, log_scale, log_det
        c, s = gl2.cos_sin(self.angle.icdf(u[:, 0]))
        t = self.log_gain.icdf(u[:, 1])
        up, down = t, -t
        if np.abs(t).max() > LOG_SAFE:  # one test per block; scaling is rare
            log_scale = np.maximum(np.abs(t) - LOG_SAFE, 0.0)
            up, down = t - log_scale, -t - log_scale
        up, down = np.exp(up), np.exp(down)  # columns scale by e^t and e^-t
        np.multiply(c, up, out=out[0, 0])
        np.multiply(s, up, out=out[1, 0])
        np.multiply(s, -down, out=out[0, 1])
        np.multiply(c, down, out=out[1, 1])
        return out, log_scale, np.zeros((steps, n))

    def sample_matrices(self, rng: np.random.Generator, n: int) -> tuple:
        """One step of sample_block: g of shape (n, 2, 2), log_scale, log_det."""
        g, log_scale, log_det = self.sample_block(rng, 1, n)
        return np.ascontiguousarray(g[:, :, 0].transpose(2, 0, 1)), log_scale[0], log_det[0]

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        if self.kind == "atoms":
            atoms = [{"m": m, "w": w} for m, w in zip(self.matrices, self.weights)]
            return encode({"kind": "atoms", "atoms": atoms})
        laws = {_spec_key(f, self.log_scale_b): getattr(self, f) for f in self.LAWS[self.kind]}
        return encode({"kind": self.kind, **laws})

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "MatrixDistribution":
        kind = obj["kind"]
        if kind == "atoms":
            mats = tuple(entry["m"] for entry in obj["atoms"])
            wts = tuple(entry["w"] for entry in obj["atoms"])
            return MatrixDistribution(kind="atoms", matrices=mats, weights=wts)
        log_form = kind == "triangular" and "log_b" in obj
        keys = {f: _spec_key(f, log_form) for f in MatrixDistribution.LAWS.get(kind, ())}
        laws = {f: ScalarDist.from_obj(obj[key]) for f, key in keys.items()}
        return MatrixDistribution(kind=kind, log_scale_b=log_form, **laws)

    @staticmethod
    def from_json(text: str) -> "MatrixDistribution":
        return MatrixDistribution.from_obj(json.loads(text))


def _spec_key(name: str, log_scale_b: bool) -> str:
    return "log_b" if name == "b" and log_scale_b else name


def _atom_factors(mats: np.ndarray) -> tuple:
    """(g, log_scale, log_det) of a (k, 2, 2) atom stack as sample_block
    draws it.  log|det| is read from det2 where its log is finite, else
    from the matrix over its max-abs entry; -inf or nan marks a singular atom."""
    with np.errstate(all="ignore"):  # huge or tiny dets; a zero atom gives nan
        log_peak = np.log(np.abs(mats).reshape(-1, 4).max(axis=1))
        log_det = np.log(np.abs(gl2.det2(mats)))
        redo = ~np.isfinite(log_det)
        unit = mats[redo] / np.exp(log_peak[redo])[:, None, None]
        log_det[redo] = np.log(np.abs(gl2.det2(unit))) + 2.0 * log_peak[redo]
        log_scale = log_peak - np.clip(log_peak, -LOG_SAFE, LOG_SAFE)
        g = mats * np.exp(-log_scale)[:, None, None]
    return g.transpose(1, 2, 0), log_scale, log_det


def atoms_distribution(pairs) -> MatrixDistribution:
    """Atomic matrix law from (2x2 array-like, weight) pairs."""
    mats, wts = zip(*pairs)
    return MatrixDistribution(kind="atoms", matrices=mats, weights=wts)


def triangular_distribution(a: ScalarDist, b: ScalarDist, log_scale_b: bool = False):
    return MatrixDistribution(kind="triangular", a=a, b=b, log_scale_b=log_scale_b)


def rotgain_distribution(angle: ScalarDist, log_gain: ScalarDist):
    return MatrixDistribution(kind="rotgain", angle=angle, log_gain=log_gain)


# ---------------------------------------------------------------------------
# orbit windows


@dataclass(frozen=True)
class OrbitWindow:
    """One-step matrices along a finite orbit stretch.

    F(T^i omega) for i = offset + j is e^log_scales[j] * matrices[j] with
    log|det| log_dets[j], as ``MatrixDistribution.sample_block`` and the
    flexible build draw it.  A hand-built window may leave both out: its
    scales are then zeros and its log-dets are read off the matrices, here
    and nowhere else.  ``prescribed_f`` (same length, pairs of line angles)
    and ``labels`` are optional extras attached by constructions that know
    them.  A window may also be one block of a longer stretch:
    ``flexible.simulate_blocks`` yields a build as consecutive blocks,
    which ``flexible.verify_flexible`` consumes one at a time and
    ``flexible.simulate_flexible`` joins into one window.
    """

    offset: int
    matrices: np.ndarray
    prescribed_f: np.ndarray | None = None
    labels: np.ndarray | None = None
    seed: int | None = None
    log_scales: np.ndarray = None
    log_dets: np.ndarray = None

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "matrices", m)
        if m.ndim != 3 or m.shape[1:] != (2, 2):
            raise ValueError("matrices must have shape (n, 2, 2)")
        if self.log_scales is None:  # zeros in 0 bytes
            object.__setattr__(self, "log_scales", np.broadcast_to(0.0, len(m)))
        if self.log_dets is None:
            with np.errstate(all="ignore"):  # a singular or huge matrix: -inf, inf or nan
                log_dets = np.log(np.abs(gl2.det2(m))) + 2.0 * self.log_scales
            object.__setattr__(self, "log_dets", log_dets)
        for name in ("prescribed_f", "labels", "log_scales", "log_dets"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != len(m):
                raise ValueError(f"{name} must match the matrix count")

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @property
    def end(self) -> int:
        return self.offset + len(self)

    def slot(self, time: int) -> int:
        """Array index of orbit time ``time``; raises WindowExhausted."""
        j = time - self.offset
        if not 0 <= j < len(self):
            raise WindowExhausted(f"time {time} outside [{self.offset}, {self.end})")
        return j

    def matrix_at(self, time: int) -> np.ndarray:
        return self.matrices[self.slot(time)]


def sample_onestep(
    nu: MatrixDistribution, half_width: int, seed: int
) -> OrbitWindow:
    """I.i.d. window over [-half_width, half_width); deterministic in seed."""
    if half_width < 1:
        raise ValueError("half_width must be at least 1")
    rng = np.random.default_rng(seed)
    mats, log_scales, log_dets = nu.sample_matrices(rng, 2 * half_width)
    return OrbitWindow(-half_width, mats, seed=seed, log_scales=log_scales, log_dets=log_dets)


# ---------------------------------------------------------------------------
# products


class ScaledMat2(NamedTuple):
    """A 2x2 matrix stored as exp(log_scale) * mat."""

    mat: np.ndarray
    log_scale: float


def _normalized(prods: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each matrix of a stack by its max-abs entry, adding the log of
    that entry to its scale; raises NotInvertible on a zero or non-finite one."""
    peaks = np.abs(prods).reshape(len(prods), 4).max(axis=1)
    if np.any(peaks == 0.0) or not np.all(np.isfinite(peaks)):
        raise gl2.NotInvertible("product degenerated during renormalization")
    return prods / peaks[:, None, None], scales + np.log(peaks)


def _pairwise(cur: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a stack level by level, later factors on the left, to a stack
    of one; an odd last entry is carried up unnormalized."""
    while cur.shape[0] > 1:
        k = cur.shape[0]
        half = k // 2
        # later time acts on the left
        prod, new_scales = _normalized(
            cur[1 : 2 * half : 2] @ cur[0 : 2 * half : 2],
            scales[0 : 2 * half : 2] + scales[1 : 2 * half : 2],
        )
        if k % 2:
            prod = np.concatenate([prod, cur[-1:]], axis=0)
            new_scales = np.concatenate([new_scales, scales[-1:]])
        cur, scales = prod, new_scales
    return cur, scales


class ProductTree:
    """product_scaled fed in time order, in chunks of any length.

    Factors are regrouped into blocks of TREE_BLOCK counted from the first
    one pushed, and each block is reduced by _pairwise as it fills, so only
    the pending part of one block and one matrix per reduced block are held;
    ``result`` then reduces the block results.  product_scaled is this tree
    fed in one push, so any chunking gives product_scaled's bits.
    """

    def __init__(self):
        self.count = 0
        self._pending: list = []  # (mats, scales) pieces of the open block
        self._heads: list = []  # (mat, scale) stacks of one per reduced block

    def push(self, mats: np.ndarray, log_scales: np.ndarray) -> None:
        mats = np.asarray(mats, dtype=float)
        lo = 0
        while lo < len(mats):
            hi = min(lo + TREE_BLOCK - self.count % TREE_BLOCK, len(mats))
            self._pending.append((mats[lo:hi], np.asarray(log_scales[lo:hi], float)))
            self.count += hi - lo
            lo = hi
            if self.count % TREE_BLOCK == 0:
                self._reduce(_pairwise)

    def _reduce(self, reduce) -> None:
        block, scales = (p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*self._pending))
        self._heads.append(reduce(block, scales))
        self._pending = []

    def result(self) -> ScaledMat2:
        if self.count == 0:
            return ScaledMat2(np.eye(2), 0.0)
        if self._pending:  # a single factor is renormalized alone
            self._reduce(_normalized if self.count == 1 else _pairwise)
        cur, scales = _pairwise(*map(np.concatenate, zip(*self._heads)))
        return ScaledMat2(cur[0], float(scales[0]))


def product_scaled(mats: np.ndarray, log_scales: np.ndarray) -> ScaledMat2:
    """Ordered product of e^log_scales[i] * mats[i], later factors on the
    left, as exp(log_scale) * mat.

    A pairwise tree at every length, bit-stable given the input, seeded
    with the factor scales: each pair product is renormalized at once (the
    periodic renormalization of Benettin et al., Meccanica 15, 1980); a
    single factor is renormalized alone.  The tree's first log2(TREE_BLOCK)
    levels never pair across a block edge, so ProductTree reduces one block
    at a time, then the block results.  Factors as sample_block draws them
    give finite pair products.  A zero or non-finite factor or product
    raises NotInvertible.
    """
    tree = ProductTree()
    tree.push(mats, log_scales)
    return tree.result()


def cocycle_product_scaled(
    window: OrbitWindow, from_time: int, n: int
) -> ScaledMat2:
    """Scaled n-step product starting at orbit time ``from_time``.

    n >= 0 gives F(T^(from+n-1)) ... F(T^from); n < 0 gives the inverse of
    the |n|-step product starting at from+n, so that the cocycle identity
    holds for signed times.  F^(0) is the identity.
    """
    if n == 0:
        return ScaledMat2(np.eye(2), 0.0)
    if n > 0:
        lo, hi = from_time, from_time + n
    else:
        lo, hi = from_time + n, from_time
    if lo < window.offset or hi > window.end:
        raise WindowExhausted(
            f"product over [{lo}, {hi}) exceeds window [{window.offset}, {window.end})"
        )
    lo, hi = lo - window.offset, hi - window.offset
    fwd = product_scaled(window.matrices[lo:hi], window.log_scales[lo:hi])
    if n > 0:
        return fwd
    return ScaledMat2(gl2.inv2(fwd.mat), -fwd.log_scale)


# ---------------------------------------------------------------------------
# moments of log_norm_max


class MomentEstimate(NamedTuple):
    value: float
    stderr: float
    exact: bool


def moment(
    nu: MatrixDistribution,
    order: int,
    trials: int = 10_000,
    seed: int = 0,
) -> MomentEstimate:
    """Mean of log_norm_max(g)^order under nu, read off scaled factors as
    max(log s1, log s1 - log|det g|).

    Atomic nu: exact weighted sum, zero standard error.  Otherwise Monte
    Carlo over one sample_block step of the stated trial count; a
    heavy-tailed law shows up as an estimate that keeps growing with trials
    (reported, never raised).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if nu.kind == "atoms":
        g, log_scale, log_det = nu._atoms
    else:
        rng = np.random.default_rng(seed)
        g, log_scale, log_det = nu.sample_block(rng, 1, trials)
    log_s1 = log_scale + np.log(gl2.top_singular(np.moveaxis(g, (0, 1), (-2, -1))))
    vals = np.maximum(log_s1, log_s1 - log_det) ** order
    if nu.kind == "atoms":
        return MomentEstimate(float(np.dot(vals, nu.weights)), 0.0, True)
    return MomentEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials)), False)
