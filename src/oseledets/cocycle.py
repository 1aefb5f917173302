"""Matrix distributions, orbit windows, and cocycle product machinery.

An orbit window holds the one-step matrices F(T^i omega) for i in
[offset, offset + n).  Products reduce pairwise in a tree, and every pair
product is divided by its max-abs entry, whose log moves into a separate
accumulator, so window lengths of 10^6 and matrix norms like e^500000 stay
representable.

Seed discipline: all randomness flows through numpy SeedSequence children
spawned from the master seed in a fixed documented order, one stream per
logical field, and scalar laws are sampled by inverse CDF only (one
uniform per draw).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gl2
from .scalars import ScalarDist, Unsupported, float_str

# projective draws divide a factor by a positive scalar once an entry would
# pass e^LOG_ENTRY_CAP, so a sum of two entry products stays finite
LOG_ENTRY_CAP = 700.0
# a product of two factors with entries up to this is finite: each of its
# entries sums two products of at most DBL_MAX / 2
_PAIR_SAFE = math.sqrt(np.finfo(float).max / 2)


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

    kind: str
    matrices: tuple = ()          # atoms: tuple of 2x2 tuples
    weights: tuple = ()           # atoms
    a: ScalarDist | None = None   # triangular
    b: ScalarDist | None = None   # triangular: law of b or of log|b|
    log_scale_b: bool = False
    angle: ScalarDist | None = None     # rotgain
    log_gain: ScalarDist | None = None  # rotgain
    bounded_condition: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "atoms":
            if len(self.matrices) == 0 or len(self.matrices) != len(self.weights):
                raise ValueError("atoms need matching matrix and weight lists")
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("atom weights must be finite, nonnegative and sum to 1")
            mats = np.asarray(self.matrices, dtype=float)
            if not np.all(np.isfinite(mats)):
                raise ValueError("atom matrix entries must be finite")
            if np.any(np.abs(gl2.det2(mats)) <= gl2.DET_FLOOR):
                raise gl2.NotInvertible("atom matrix is singular")
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

    def sample_block(
        self, rng: np.random.Generator, steps: int, n: int, projective: bool = False
    ) -> np.ndarray:
        """Draw steps x n i.i.d. matrices as entry arrays, shape (2, 2, steps, n).

        Uniforms are consumed step after step, field-major within a step:
        atoms use one stream of n uniforms; triangular draws all a then all
        b; rotgain all angles then all gains.  With ``projective``, a
        triangular factor with log|b| > LOG_ENTRY_CAP comes divided by
        e^(log|b| - LOG_ENTRY_CAP), which keeps its entries finite and the
        lines of every product the same (not its norm or determinant); all
        other factors are drawn bit for bit as without it."""
        if self.kind == "atoms":
            w = np.asarray(self.weights, dtype=float)
            idx = np.searchsorted(np.cumsum(w), rng.random((steps, n)), side="left")
            idx = np.minimum(idx, len(w) - 1)
            return np.asarray(self.matrices, dtype=float).transpose(1, 2, 0)[:, :, idx]
        u = rng.random((steps, 2, n))
        out = np.empty((2, 2, steps, n))
        if self.kind == "triangular":
            braw = self.b.icdf(u[:, 1])
            out[0, 0] = self.a.icdf(u[:, 0])
            out[1, 0], out[1, 1] = 0.0, 1.0
            if self.log_scale_b:
                if projective and (big := braw > LOG_ENTRY_CAP).any():
                    shrink = np.exp(LOG_ENTRY_CAP - braw[big])
                    out[0, 0][big] *= shrink
                    out[1, 1][big] = shrink
                    braw[big] = LOG_ENTRY_CAP
                braw = np.exp(braw)
            out[0, 1] = braw
            return out
        ang = self.angle.icdf(u[:, 0])
        np.cos(ang, out=out[0, 0])
        np.sin(ang, out=out[1, 0])
        out[0, 1], out[1, 1] = -out[1, 0], out[0, 0]
        t = self.log_gain.icdf(u[:, 1])
        out[:, 0] *= np.exp(t)  # columns scale by e^t and e^-t
        out[:, 1] *= np.exp(-t)
        return out

    def sample_matrices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. matrices, shape (n, 2, 2): one step of sample_block."""
        return np.ascontiguousarray(self.sample_block(rng, 1, n)[:, :, 0].transpose(2, 0, 1))

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        if self.kind == "atoms":
            return {
                "kind": "atoms",
                "atoms": [
                    {
                        "m": [[float_str(v) for v in row] for row in m],
                        "w": float_str(w),
                    }
                    for m, w in zip(self.matrices, self.weights)
                ],
            }
        if self.kind == "triangular":
            key = "log_b" if self.log_scale_b else "b"
            return {"kind": "triangular", "a": self.a.to_obj(), key: self.b.to_obj()}
        return {
            "kind": "rotgain",
            "angle": self.angle.to_obj(),
            "log_gain": self.log_gain.to_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @staticmethod
    def from_obj(obj: dict) -> "MatrixDistribution":
        kind = obj["kind"]
        if kind == "atoms":
            mats = tuple(
                tuple(tuple(float(v) for v in row) for row in entry["m"])
                for entry in obj["atoms"]
            )
            wts = tuple(float(entry["w"]) for entry in obj["atoms"])
            return MatrixDistribution(kind="atoms", matrices=mats, weights=wts)
        if kind == "triangular":
            log_form = "log_b" in obj
            return MatrixDistribution(
                kind="triangular",
                a=ScalarDist.from_obj(obj["a"]),
                b=ScalarDist.from_obj(obj["log_b" if log_form else "b"]),
                log_scale_b=log_form,
            )
        if kind == "rotgain":
            return MatrixDistribution(
                kind="rotgain",
                angle=ScalarDist.from_obj(obj["angle"]),
                log_gain=ScalarDist.from_obj(obj["log_gain"]),
            )
        raise Unsupported(f"unknown matrix distribution kind {kind!r}")

    @staticmethod
    def from_json(text: str) -> "MatrixDistribution":
        return MatrixDistribution.from_obj(json.loads(text))


def atoms_distribution(pairs) -> MatrixDistribution:
    """Atomic matrix law from (2x2 array-like, weight) pairs."""
    mats = tuple(tuple(tuple(float(v) for v in row) for row in np.asarray(m)) for m, _ in pairs)
    wts = tuple(float(w) for _, w in pairs)
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

    ``matrices[j]`` is F(T^i omega) for i = offset + j.  ``prescribed_f``
    (same length, pairs of line angles) and ``labels`` are optional extras
    attached by constructions that know them.
    """

    offset: int
    matrices: np.ndarray
    prescribed_f: np.ndarray | None = None
    labels: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "matrices", m)
        if m.ndim != 3 or m.shape[1:] != (2, 2):
            raise ValueError("matrices must have shape (n, 2, 2)")
        for name in ("prescribed_f", "labels"):
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    mats = nu.sample_matrices(rng, 2 * half_width)
    return OrbitWindow(offset=-half_width, matrices=mats, seed=seed)


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


def product_scaled(mats: np.ndarray) -> ScaledMat2:
    """Ordered product mats[n-1] @ ... @ mats[0] as exp(log_scale) * mat.

    A pairwise tree at every length, bit-stable given the input: each pair
    product is renormalized at once (the periodic renormalization of
    Benettin et al., Meccanica 15, 1980), and so, before the first level, is
    every factor with an entry past sqrt(DBL_MAX / 2), so no pair product
    overflows; a single factor is renormalized alone.  A zero or non-finite
    factor or product raises NotInvertible.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    if n == 0:
        return ScaledMat2(np.eye(2), 0.0)
    cur, scales = mats, np.zeros(n)
    if n == 1:
        cur, scales = _normalized(cur, scales)
    elif mats.max() > _PAIR_SAFE or mats.min() < -_PAIR_SAFE:
        big = np.abs(mats).reshape(n, 4).max(axis=1) > _PAIR_SAFE
        cur = mats.copy()
        cur[big], scales[big] = _normalized(mats[big], scales[big])
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
    return ScaledMat2(cur[0], float(scales[0]))


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
    mats = window.matrices[lo - window.offset : hi - window.offset]
    fwd = product_scaled(mats)
    if n > 0:
        return fwd
    return ScaledMat2(gl2.inv2(fwd.mat), -fwd.log_scale)


# ---------------------------------------------------------------------------
# moments of log_norm_max


class MomentEstimate(NamedTuple):
    value: float
    stderr: float
    exact: bool


def _log_norm_max_triangular(a: np.ndarray, log_abs_b: np.ndarray) -> np.ndarray:
    """log_norm_max of [[a, b], [0, 1]] from a and log|b|, overflow-safe.

    For log|b| <= 300 the matrix is materialized and svd2 applies; beyond
    that, s1 = |b| to within less than a unit in the last place, so
    log s1 = log|b| and log s2 = log|a| - log|b|.
    """
    shape = np.broadcast(np.asarray(a, dtype=float), np.asarray(log_abs_b, dtype=float)).shape
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)
    lb = np.broadcast_to(np.asarray(log_abs_b, dtype=float), shape)
    out = np.empty(shape)
    big = lb > 300.0
    small = ~big
    if np.any(small):
        mats = np.zeros((int(small.sum()), 2, 2))
        mats[:, 0, 0] = a[small]
        mats[:, 0, 1] = np.exp(lb[small])
        mats[:, 1, 1] = 1.0
        out[small] = gl2.log_norm_max(mats)
    if np.any(big):
        la = np.log(np.abs(a[big]))
        out[big] = np.maximum(lb[big], lb[big] - la)
    return out


def moment(
    nu: MatrixDistribution,
    order: int,
    trials: int = 10_000,
    seed: int = 0,
) -> MomentEstimate:
    """Mean of log_norm_max(g)^order under nu.

    Atomic nu: exact weighted sum, zero standard error.  Otherwise Monte
    Carlo with the stated trial count; a heavy-tailed law shows up as an
    estimate that keeps growing with trials (reported, never raised).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if nu.kind == "atoms":
        vals = gl2.log_norm_max(np.asarray(nu.matrices, dtype=float))
        value = float(np.dot(vals**order, nu.weights))
        return MomentEstimate(value, 0.0, True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if nu.kind == "triangular":
        a = nu.a.sample(rng, trials)
        braw = nu.b.sample(rng, trials)
        lb = braw if nu.log_scale_b else np.log(np.abs(braw))
        vals = _log_norm_max_triangular(a, lb)
    else:  # rotgain: rotations are isometries, so log_norm_max = |log gain|
        rng.random(trials)  # angle draws, consumed to keep the stream layout fixed
        t = nu.log_gain.sample(rng, trials)
        vals = np.abs(t)
    vals = vals**order
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return MomentEstimate(value, stderr, False)
