"""Skyscraper base dynamics: towers with prescribed measures over a renewal
chain.

A tower vector assigns mass ``pi_k`` to a tower of height ``k``; the base
cell of that tower then carries mass ``pi_k / k`` (each tower is a stack of
``k`` equal-measure levels).  The dynamics move a point one level up per
step and resample a fresh tower height, with probability proportional to
``pi_k / k``, when the top is reached.  The stationary law of the resulting
(height, level) chain puts mass ``pi_k / k`` on every level, which is what
makes every prescribed-measure claim directly testable by simulation.

Two height-selection rules feed the cocycle constructions elsewhere in the
package: ``bounded_tower_vector`` turns a strictly decreasing sequence of
target label measures into tower masses (heights 1, 4, 6, 8, ...), and
``lowcost_heights`` picks sparse heights so that per-piece costs spread
thinner than a requested rate.

Masses are finite maps throughout; constructors fold any sub-1e-9 residual
into the last retained entry so the unit-mass invariant holds bit-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# tower masses, and flexible's mixture weights and chain masses, sum to 1 this tightly
MASS_TOL = 1e-12

# Constructors accept inputs whose mass is off by at most this much and
# fold the residual into the last retained piece.
FOLD_TOL = 1e-9

# renewal_towers draws this many towers beyond its estimate whenever the
# walk runs short
OVERDRAW_TOWERS = 16


class BadTowerVector(ValueError):
    """Tower masses violate positivity, unit mass, or the gcd-1 condition."""


class BadHeightForLabels(ValueError):
    """Labels are defined only for heights 1, 4, 6, 8, ..."""


class NeedStrictDecrease(ValueError):
    """The target sequence must be strictly decreasing; refine_weights fixes this."""


class ContractViolation(RuntimeError):
    """A construction broke one of its own runtime contracts (a bug, not bad input)."""


def ensure(ok, message: str) -> None:
    """Raise ContractViolation(message) unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise ContractViolation(message)


@dataclass(frozen=True)
class TowerVector:
    """Sparse map height -> mass with unit total and gcd-1 support."""

    entries: dict[int, float]

    def __post_init__(self):
        clean: dict[int, float] = {}
        for k, w in self.entries.items():
            kk = int(k)
            if kk != k or kk < 1:
                raise BadTowerVector(f"height {k!r} is not a positive integer")
            if not (w >= 0.0) or not math.isfinite(w):
                raise BadTowerVector(f"mass {w!r} at height {kk} out of range")
            if w > 0.0:
                clean[kk] = clean.get(kk, 0.0) + w
        if not clean:
            raise BadTowerVector("no positive masses")
        total = math.fsum(clean.values())
        if abs(total - 1.0) > MASS_TOL:
            raise BadTowerVector(f"masses sum to {total!r}, not 1")
        if math.gcd(*clean.keys()) != 1:
            raise BadTowerVector(f"support {sorted(clean)} has gcd > 1")
        object.__setattr__(self, "entries", dict(sorted(clean.items())))


def kac_base_measures(pi: TowerVector) -> dict[int, float]:
    """Mass of each tower's base cell: mass(k) / k.

    Summing height * base measure over the support recovers 1 exactly,
    since the k levels of tower k split its mass evenly.
    """
    return {k: w / k for k, w in pi.entries.items()}


def renewal_towers(pi: TowerVector, steps: int, seed=0) -> tuple[np.ndarray, np.ndarray, int]:
    """Stationary walk of steps steps as (heights, lengths, start): each
    tower entered, the steps spent in it, and the level the walk starts on.

    The start is stationary: height k with probability mass(k), level
    uniform below it.  Each step climbs one level; from the top it enters a
    fresh tower whose height is drawn proportional to mass(k)/k, the
    base-cell law, which preserves the stationary law.  Towers are drawn in
    batches, and the last one entered is cut where the walk ends.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    ks = np.array(list(pi.entries), dtype=np.int64)
    ws = np.array(list(pi.entries.values()))
    ws = ws / ws.sum()
    k0 = int(rng.choice(ks, p=ws))
    i0 = int(rng.integers(0, k0))
    q = ws / ks  # height of the next tower entered from a base cell
    q = q / q.sum()
    mean_return = float(ks @ q)
    hs = [np.array([k0], dtype=np.int64)]
    total = k0 - i0
    while total < steps:
        m = int((steps - total) / mean_return * 1.2) + OVERDRAW_TOWERS
        hs.append(rng.choice(ks, p=q, size=m))
        total += int(hs[-1].sum())
    heights = np.concatenate(hs)
    ends = np.minimum(np.cumsum(heights) - i0, steps)  # the step that leaves each tower
    count = int(np.searchsorted(ends, steps)) + 1
    return heights[:count], np.diff(ends[:count], prepend=0), i0


def renewal_trajectory(pi: TowerVector, steps: int, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """The walk of renewal_towers step by step: (heights, levels), each of
    length steps, from the same generator calls."""
    heights, lengths, start = renewal_towers(pi, steps, seed)
    levels = np.arange(steps, dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    levels[: lengths[0]] += start
    return np.repeat(heights, lengths), levels


def trajectory_labels(heights, levels) -> np.ndarray:
    """Labels along a trajectory: the distance to the nearer end of the
    tower, min(level, height - 1 - level).

    Defined for height 1 and even heights >= 4; there each label below the
    midpoint appears exactly twice per tower, and consecutive labels along
    any trajectory differ by at most 1 (checked).
    """
    h = np.asarray(heights, dtype=np.int64)
    i = np.asarray(levels, dtype=np.int64)
    labelable = (h == 1) | ((h >= 4) & (h % 2 == 0))
    if not np.all(labelable):
        bad = int(h[~labelable][0])
        raise BadHeightForLabels(f"height {bad}: heights must be 1 or even and >= 4")
    lab = np.minimum(i, h - 1 - i)
    ensure(np.all(np.abs(np.diff(lab)) <= 1), "label moved by more than 1 in one step")
    return lab


def _check_p(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise NeedStrictDecrease("need a nonempty 1d sequence")
    if not np.all(p > 0):
        raise NeedStrictDecrease("entries must be positive")
    if not np.all(np.diff(p) < 0):
        raise NeedStrictDecrease("sequence must be strictly decreasing")
    if abs(math.fsum(p) - 1.0) > FOLD_TOL:
        raise NeedStrictDecrease(f"mass {math.fsum(p)!r} too far from 1")
    return p


def bounded_tower_vector(p) -> TowerVector:
    """Tower masses realizing label measures p_0 > p_1 > ... as occupancies.

    Height 1 gets p[0] - p[1]; height 2n+2 gets (n+1) * (p[n] - p[n+1]) for
    n >= 1, with p treated as 0 past the end.  Telescoping makes the total
    mass equal sum(p) = 1, and the two levels per label in each even tower
    make the label-n occupancy come out to exactly p[n] (see
    label_measures).  Any float residual is folded into the last height.
    """
    p = _check_p(p)
    ext = np.append(p, 0.0)
    entries = {1: ext[0] - ext[1]}
    for n in range(1, p.size):
        entries[2 * n + 2] = (n + 1) * (ext[n] - ext[n + 1])
    ks = sorted(entries)
    entries[ks[-1]] += 1.0 - math.fsum(entries.values())
    return TowerVector(entries)


def label_measures(p) -> dict[int, float]:
    """Closed-form label occupancies of bounded_tower_vector(p), by tower.

    Sums mass(k)/k times the per-tower multiplicity of each label (1 for
    the height-1 tower's label 0, else 2); comes out to p[n] for label n,
    which is the point of the construction.
    """
    pi = bounded_tower_vector(p)
    base = kac_base_measures(pi)
    out: dict[int, float] = {}
    for k, mb in base.items():
        if k == 1:
            out[0] = out.get(0, 0.0) + mb
        else:
            for label in range(k // 2):
                out[label] = out.get(label, 0.0) + 2.0 * mb
    return dict(sorted(out.items()))


def _splits(p):
    """(w, k, prev) for each weight w of p: refine_weights cuts w into k
    pieces strictly below prev, the last piece before it (inf at first)."""
    prev = math.inf
    for w in p:
        k = int(min(w / prev, 2.0**62)) + 1  # a count past 2^62 is moot
        yield w, k, prev
        mean = w / k
        prev = mean + min(prev - mean, mean) / k * ((k - 1) / 2.0 - (k - 1))


def refined_size(p) -> int:
    """How many values refine_weights(p) returns, without allocating them."""
    return sum(k for _, k, _ in _splits(p))


def refine_weights(p) -> tuple[np.ndarray, np.ndarray]:
    """Split weights into a strictly decreasing sequence, preserving mass.

    Walks the weights in order; a weight that is not strictly below the
    previous output piece is split into the minimal number of pieces that
    can all fit strictly below it, laid out in arithmetic progression so
    the pieces themselves strictly decrease.  Returns (values, owners)
    where owners[j] is the index of the source weight of piece j, so
    mixture components can be replicated consistently.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or not np.all(p > 0):
        raise ValueError("need a nonempty sequence of positive weights")
    if abs(math.fsum(p) - 1.0) > FOLD_TOL:
        raise ValueError(f"weights sum to {math.fsum(p)!r}, not 1")
    values: list[float] = []
    owners: list[int] = []
    for idx, (w, k, prev) in enumerate(_splits(p.tolist())):
        mean = w / k
        # top piece stays below prev, bottom stays positive; slack 1/k
        values.extend(mean + min(prev - mean, mean) / k * ((k - 1) / 2.0 - np.arange(k)))
        owners.extend([idx] * k)
    return np.asarray(values), np.asarray(owners, dtype=np.int64)


def lowcost_heights(costs, epsilon: float) -> list[int]:
    """Strictly increasing heights with costs[n] / height[n] < epsilon / 2.

    Heights are chosen minimally subject to the strict rate bound and the
    strict increase; if the resulting set has a common factor, the last
    height is bumped upward until the gcd is 1 (bumping can only improve
    the rate bound).  A lone tower has gcd 1 only at height 1, so a single
    cost whose height k is above 1 gets the coprime pair k, k + 1.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1 or costs.size == 0:
        raise ValueError("need a nonempty 1d cost sequence")
    if not np.all(np.isfinite(costs)) or np.any(costs < 0):
        raise ValueError("costs must be finite and nonnegative")
    if np.any(np.diff(costs) < 0):
        raise ValueError("costs must be nondecreasing")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    heights: list[int] = []
    prev = 0
    for c in costs:
        k = max(prev + 1, int(2.0 * c / epsilon) + 1)
        heights.append(k)
        prev = k
    if len(heights) == 1 and k > 1:
        heights.append(k + 1)
    while math.gcd(*heights) != 1:
        heights[-1] += 1
    return heights
