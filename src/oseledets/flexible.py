"""Cocycles with prescribed Oseledets data over renewal skyscrapers.

Splittings are coordinatized by (alpha, theta): alpha is the line angle of
the expanding direction x1 in [0, pi) and theta in (0, pi/2] is the gap
angle, so the contracting direction is the line at alpha + theta.  A target
joint law for the splitting process is a mixture of uniform laws on
rectangles in these coordinates (EtaSpec), finitely many pieces plus an
optional certified geometric tail.

The builders here draw a stationary skyscraper trajectory, attach a
splitting to every step, and emit one-step matrices that map each splitting
onto the next one with prescribed log-gains (r1, r2), so the window's
Lyapunov exponents and Oseledets directions are known in advance and every
estimator in the package can be checked against ground truth.

Two scheduling regimes control how expensive the splitting's moves are:

* bounded: the mixture rectangles are cut into gap-angle bands and
  chained in one sweep down the gap angle (march_chain) so that the
  symmetric gap-ratio cost |log sin(theta'/2) - log sin(theta/2)| of every
  single step stays below a hard budget b.  Feasible exactly when
  the mixture has no budget-splitting gap (budget_fit_check).
* lowcost: each mixture piece is parked on its own tall tower; moves
  between pieces may be expensive, but tower heights grow with the
  certified per-piece cost caps so the mean step cost drops below any
  requested epsilon.  Works for every valid mixture.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import gl2, skyscraper
from .cocycle import OrbitWindow
from .estimation import (
    NoData,
    estimate_E1_backward,
    estimate_E2_forward,
    lyapunov_estimates,
)
from .scalars import encode, float_strs
from .skyscraper import ensure

# a declarative tail is expanded until its remaining mass drops below this
TAIL_RESIDUAL = 1e-12

# march_chain cuts the log-sin-gap axis into intervals no wider than this
# fraction of the budget, so two chain entries in one interval, or in two
# touching intervals, fit the budget outright
SLICE_SPAN_FRACTION = 0.45

# hard per-step tolerance: the cocycle must carry each prescribed line to
# its successor at least this accurately
COVARIANCE_TOL = 1e-9

# an estimated direction agrees with the prescribed one below this angle
AGREEMENT_TOL = 1e-3

CSV_ROWS = 1 << 16  # rows per ConstructionReport.to_csv chunk, and per part osl writes

# steps per block in simulate_flexible and verify_flexible's KS statistic:
# 800k lowcost steps built in 0.48 s at 2^13 or 2^14, 0.54 s at 2^12, 0.64 s at
# 2^10 and 0.65 s in one block (best of 5, 2-core x86); largest array 256 KiB
STEP_BLOCK = 1 << 13

# a build may need at most max(steps, 2^20) / skyscraper.OVERDRAW_TOWERS
# (16) lowcost tower levels or bounded gap-angle bands, so what it allocates
# stays a small multiple of the window (or of 2^20 steps), however small
# the budget or epsilon
SIZE_FLOOR = 1 << 20


class BadEtaSpec(ValueError):
    """Mixture weights or rectangle bounds violate the domain invariants."""


class BuildTooLarge(ValueError):
    """The budget or epsilon is so small, or the chain masses so uneven, that
    the build needs more bands or tower levels than its window affords."""


class UnboundedGap(ValueError):
    """The mixture splits into parts no budget-priced path can join.

    ``witness`` is the offending bipartition: a pair of tuples of piece
    indices with every crossing cost at or above the budget.
    """

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# gap-angle <-> log-sin-gap coordinates


def _u_of_theta(theta):
    """Log half-gap sine; strictly increasing on (0, pi]."""
    return np.log(np.sin(np.asarray(theta, dtype=float) / 2.0))


def _theta_of_u(u):
    return 2.0 * np.arcsin(np.minimum(np.exp(np.asarray(u, dtype=float)), 1.0))


# ---------------------------------------------------------------------------
# mixture description


@dataclass(frozen=True)
class Cell:
    """Closed rectangle [alpha_lo, alpha_hi] x [theta_lo, theta_hi] carrying
    the uniform law; degenerate edges collapse the law to an atom.

    alpha is a line angle in [0, pi] (pi identified with 0) and theta a gap
    angle, so theta_lo > 0 keeps the closure away from collinear splittings.
    """

    alpha_lo: float
    alpha_hi: float
    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        vals = {}
        for name in ("alpha_lo", "alpha_hi", "theta_lo", "theta_hi"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise BadEtaSpec(f"{name} must be finite")
            vals[name] = v
            object.__setattr__(self, name, v)
        if not 0.0 <= vals["alpha_lo"] <= vals["alpha_hi"] <= math.pi:
            raise BadEtaSpec("need 0 <= alpha_lo <= alpha_hi <= pi")
        if not 0.0 < vals["theta_lo"] <= vals["theta_hi"] <= math.pi / 2.0:
            raise BadEtaSpec("need 0 < theta_lo <= theta_hi <= pi/2")

    @property
    def is_atom(self) -> bool:
        return self.alpha_lo == self.alpha_hi and self.theta_lo == self.theta_hi

    @property
    def u_lo(self) -> float:
        return float(_u_of_theta(self.theta_lo))

    @property
    def u_hi(self) -> float:
        return float(_u_of_theta(self.theta_hi))

    def sample(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n independent (alpha, theta) draws from the cell's law."""
        alpha = rng.uniform(self.alpha_lo, self.alpha_hi, size=n)
        theta = rng.uniform(self.theta_lo, self.theta_hi, size=n)
        return alpha, theta

    def contains(self, alpha, theta) -> np.ndarray:
        """Whether (alpha, theta) lies in the cell, alpha read modulo pi: a
        line angle in [0, pi) near 0 also matches a range that reaches pi."""
        alpha = np.asarray(alpha, dtype=float)
        theta = np.asarray(theta, dtype=float)
        tol = 1e-12  # angles recomputed from stored lines can land an ulp off an edge
        return (
            (((alpha >= self.alpha_lo - tol) & (alpha <= self.alpha_hi + tol))
             | (alpha <= self.alpha_hi + tol - math.pi))
            & (theta >= self.theta_lo - tol)
            & (theta <= self.theta_hi + tol)
        )

    def to_obj(self) -> dict:
        alpha, theta = (self.alpha_lo, self.alpha_hi), (self.theta_lo, self.theta_hi)
        return encode({"alpha": alpha, "theta": theta})

    @classmethod
    def from_obj(cls, obj: dict) -> "Cell":
        (alpha_lo, alpha_hi), (theta_lo, theta_hi) = obj["alpha"], obj["theta"]
        return cls(alpha_lo, alpha_hi, theta_lo, theta_hi)


def uniform_cell(alpha_lo, alpha_hi, theta_lo, theta_hi) -> Cell:
    return Cell(alpha_lo, alpha_hi, theta_lo, theta_hi)


def atom_cell(alpha, theta) -> Cell:
    return Cell(alpha, alpha, theta, theta)


class Piece(NamedTuple):
    """One mixture component."""

    weight: float
    cell: Cell


@dataclass(frozen=True)
class TailRule:
    """Geometric continuation of a mixture: extra piece j = 0, 1, 2, ... has
    weight first_weight * weight_ratio**j and the base cell with both theta
    edges scaled by theta_ratio**j.  Total extra mass is closed-form, which
    is what certifies the truncation residual."""

    first_weight: float
    weight_ratio: float
    cell: Cell
    theta_ratio: float = 1.0

    def __post_init__(self):
        for name in ("first_weight", "weight_ratio", "theta_ratio"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.first_weight:
            raise BadEtaSpec("tail first_weight must be positive")
        if not 0.0 < self.weight_ratio < 1.0:
            raise BadEtaSpec("tail weight_ratio must lie in (0, 1)")
        if not 0.0 < self.theta_ratio <= 1.0:
            raise BadEtaSpec("tail theta_ratio must lie in (0, 1]")

    @property
    def total_mass(self) -> float:
        return self.first_weight / (1.0 - self.weight_ratio)

    def expand(self) -> list[Piece]:
        """Truncate once the undistributed mass certifiably drops below
        TAIL_RESIDUAL; that remainder is folded into the last retained piece
        so the expansion carries exactly total_mass."""
        out: list[Piece] = []
        w = self.first_weight
        scale = 1.0
        remaining = self.total_mass
        while True:
            remaining -= w
            cell = Cell(
                self.cell.alpha_lo,
                self.cell.alpha_hi,
                self.cell.theta_lo * scale,
                self.cell.theta_hi * scale,
            )
            if remaining < TAIL_RESIDUAL:
                out.append(Piece(w + remaining, cell))
                return out
            out.append(Piece(w, cell))
            w *= self.weight_ratio
            scale *= self.theta_ratio

    def to_obj(self) -> dict:
        return encode({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_obj(cls, obj: dict) -> "TailRule":
        cell = Cell.from_obj(obj["cell"])
        return cls(obj["first_weight"], obj["weight_ratio"], cell, obj.get("theta_ratio", 1.0))


@dataclass(frozen=True)
class EtaSpec:
    """Mixture of uniform rectangle laws: Pieces (weight, Cell), given as
    any (weight, Cell) pairs, plus an optional TailRule; all weights (tail
    included) must sum to 1."""

    pieces: tuple
    tail_rule: TailRule | None = None

    def __post_init__(self):
        pieces = tuple(Piece(float(w), cell) for w, cell in self.pieces)
        for w, cell in pieces:
            if not math.isfinite(w) or w < 0.0:
                raise BadEtaSpec(f"piece weight {w!r} must be finite and >= 0")
            if not isinstance(cell, Cell):
                raise BadEtaSpec(f"piece cell {cell!r} is not a Cell")
        object.__setattr__(self, "pieces", pieces)
        total = math.fsum(w for w, _ in self.pieces)
        if self.tail_rule is not None:
            total += self.tail_rule.total_mass
        if abs(total - 1.0) > skyscraper.MASS_TOL:
            raise BadEtaSpec(f"mixture mass {total!r} is not 1")

    def to_obj(self) -> dict:
        obj = {"pieces": [{"weight": w, "cell": cell} for w, cell in self.pieces]}
        if self.tail_rule is not None:
            obj["tail_rule"] = self.tail_rule
        return encode(obj)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_obj(cls, obj: dict) -> "EtaSpec":
        pieces = tuple((p["weight"], Cell.from_obj(p["cell"])) for p in obj["pieces"])
        tail = obj.get("tail_rule")
        return cls(pieces, TailRule.from_obj(tail) if tail else None)

    @classmethod
    def from_json(cls, text: str) -> "EtaSpec":
        return cls.from_obj(json.loads(text))


def decompose_eta(eta: EtaSpec) -> list[Piece]:
    """Flatten the mixture into ordered pieces.

    The declarative tail is expanded (truncated at a certified residual
    below 1e-12, folded into its last piece); zero-mass pieces are dropped
    with a warning.  Order is exactly: explicit pieces, then tail pieces.
    """
    flat = list(eta.pieces)
    if eta.tail_rule is not None:
        flat.extend(eta.tail_rule.expand())
    for idx, piece in enumerate(flat):
        if piece.weight <= 0.0:
            warnings.warn(f"dropping zero-mass mixture piece {idx}")
    return [piece for piece in flat if piece.weight > 0.0]


# ---------------------------------------------------------------------------
# budget feasibility


def _interval_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    return max(lo1 - hi2, lo2 - hi1, 0.0)


def _holes(spans) -> list[tuple[float, float]]:
    """The gaps (lo, hi) between u-intervals that no interval covers, from
    the bottom up."""
    ends = sorted(spans)
    holes, reach = [], ends[0][1]
    for lo, hi in ends[1:]:
        if lo > reach:
            holes.append((reach, lo))
        reach = max(reach, hi)
    return holes


def _separation(spans, b: float) -> tuple | None:
    """None when the graph "interval gap below b" is connected, that is when
    no hole of width b or more splits the u-intervals; else the witness
    bipartition (interval 0's component, all other indices), each sorted."""
    wide = [(lo, hi) for lo, hi in _holes(spans) if hi - lo >= b]
    if not wide:
        return None
    floor = max((hi for lo, hi in wide if hi <= spans[0][0]), default=-math.inf)
    ceil = min((lo for lo, hi in wide if lo >= spans[0][1]), default=math.inf)
    first = [i for i, (lo, hi) in enumerate(spans) if floor <= lo and hi <= ceil]
    return tuple(first), tuple(i for i in range(len(spans)) if i not in first)


class BudgetFit(NamedTuple):
    fits: bool
    witness: tuple | None


def budget_fit_check(eta: EtaSpec, b: float) -> BudgetFit:
    """Can every positive-mass bipartition of the mixture be crossed below
    cost b?

    The symmetric step cost depends only on the gap angle, so the min cost
    between two rectangles is exactly the gap between their log-sin-gap
    intervals.  The mixture fits iff the graph with edges "interval gap
    below b" is connected; otherwise the witness is a separating
    bipartition of piece indices.
    """
    if not b > 0.0:
        raise ValueError("budget must be positive")
    witness = _separation([(p.cell.u_lo, p.cell.u_hi) for p in decompose_eta(eta)], b)
    return BudgetFit(witness is None, witness)


# ---------------------------------------------------------------------------
# the chain of sub-cells for the bounded regime


class SubCell(NamedTuple):
    """A chain entry: a rectangle with the uniform law, its mixture mass,
    and the index of the piece it was carved from."""

    cell: Cell
    mass: float
    piece: int


def march_chain(pieces: list[Piece], b: float) -> list[SubCell]:
    """Chain the mixture into sub-rectangles with every consecutive pair's
    worst-case gap-ratio cost strictly below b.

    One sweep down the log-sin-gap axis u.  The axis is cut at both u ends
    of every piece, at (b - d) / 4 inside each side of every hole of width
    d that no piece covers, and evenly in between until no interval is
    wider than SLICE_SPAN_FRACTION * b.  Walking from the largest gap angle
    down, each cut point and then the interval below it emit the band of
    every piece covering them, in piece order; a piece with a single gap
    angle sits on its point.  Consecutive entries then share an interval,
    lie in two touching intervals (span at most 0.9 b), or face each other
    across a hole of width d < b from intervals at most (b - d) / 4 wide
    (span below d + (b - d) / 2); both contracts are re-checked exactly
    before returning.  Walking down keeps the masses mostly decreasing, so
    skyscraper.refine_weights barely splits them.

    Masses follow the uniform law, so the chain is a partition of the
    mixture (per-piece totals preserved) and sums to 1.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    if not b > 0.0:
        raise ValueError("budget must be positive")
    spans = [(p.cell.u_lo, p.cell.u_hi) for p in pieces]
    witness = _separation(spans, b)
    if witness is not None:
        raise UnboundedGap(
            f"mixture does not fit budget {b!r}: pieces {witness[0]} are "
            f"separated from {witness[1]}",
            witness,
        )

    cuts = {u for span in spans for u in span}
    for lo, hi in _holes(spans):  # each narrower than b, since the mixture fits
        pad = (b - (hi - lo)) / 4.0
        cuts.update((lo - pad, hi + pad))
    coarse = sorted(cuts)
    for lo, hi in zip(coarse, coarse[1:]):
        m = math.ceil((hi - lo) / (SLICE_SPAN_FRACTION * b))
        cuts.update((lo + (hi - lo) * np.arange(1, m) / m).tolist())
    edges = np.array(sorted(cuts))

    # sweep position 2i is the cut point edges[i], 2i + 1 the interval above it
    entries = []
    for n, (piece, span) in enumerate(zip(pieces, spans)):
        cell = piece.cell
        i, j = (int(k) for k in np.searchsorted(edges, span))
        if i == j:
            entries.append((2 * i, n, cell, piece.weight))
            continue
        theta = _theta_of_u(edges[i : j + 1])
        theta[0], theta[-1] = cell.theta_lo, cell.theta_hi  # bands telescope exactly
        mass = piece.weight * np.diff(theta) / (cell.theta_hi - cell.theta_lo)
        for k in range(j - i):
            ensure(mass[k] > 0.0, "chain band lost its mass to rounding")
            band = Cell(cell.alpha_lo, cell.alpha_hi, float(theta[k]), float(theta[k + 1]))
            entries.append((2 * (i + k) + 1, n, band, float(mass[k])))
    entries.sort(key=lambda e: (-e[0], e[1]))
    chain = [SubCell(cell, mass, n) for _, n, cell, mass in entries]

    # exact re-verification of the two contracts
    bands = [(c.cell.u_lo, c.cell.u_hi) for c in chain]
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        ensure(max(hi1, hi2) - min(lo1, lo2) < b, "consecutive chain cells exceed the budget")
    drift = math.fsum(c.mass for c in chain) - math.fsum(p.weight for p in pieces)
    ensure(abs(drift) <= skyscraper.MASS_TOL, "chain masses drifted")
    return chain


# ---------------------------------------------------------------------------
# travel costs


def piece_cost_caps(pieces: list[Piece], r1: float, r2: float) -> np.ndarray:
    """Nondecreasing caps C_n for the worst travel cost within the union of
    cells 0..n; the lowcost height schedule divides epsilon by these.

    A pair cap bounds the worst-lift cost from any splitting in cell x to
    any in cell y: ||M|| <= e^r1 * cos(theta'/2) / sin(theta/2) and
    ||M^-1|| <= e^-r2 * cos(theta/2) / sin(theta'/2), both maximized at the
    cells' lower theta edges; between two atoms it is the exact
    gl2.transfer_cost_general, 0 for identical ones.  C_n is the running
    max of the caps between cell n and each cell i <= n, both ways, taken
    one numpy row per n.
    """
    cells = [p.cell for p in pieces]
    lsin = np.array([math.log(math.sin(c.theta_lo / 2.0)) for c in cells])
    lcos = np.array([math.log(math.cos(c.theta_lo / 2.0)) for c in cells])
    theta = np.array([c.theta_lo for c in cells])
    alpha = np.array([c.alpha_lo for c in cells])
    atom = np.array([c.is_atom for c in cells], dtype=bool)
    caps = np.empty(len(cells))
    best = 0.0
    for n in range(len(cells)):
        into = np.maximum(r1 + lcos[n] - lsin[: n + 1], -r2 + lcos[: n + 1] - lsin[n])
        out = np.maximum(r1 + lcos[:n] - lsin[n], -r2 + lcos[n] - lsin[:n])
        if atom[n]:
            both = np.flatnonzero(atom[: n + 1])
            fresh = both[(alpha[both] != alpha[n]) | (theta[both] != theta[n])]
            into[both] = out[both[:-1]] = 0.0  # identical splittings travel for free
            into[fresh] = gl2.transfer_cost_general(theta[fresh], theta[n], r1, r2)
            out[fresh] = gl2.transfer_cost_general(theta[n], theta[fresh], r1, r2)
        best = caps[n] = max(best, into.max(), out.max(initial=0.0))
    return caps


def step_costs(window: OrbitWindow, mode: str, r1: float, r2: float, theta=None) -> np.ndarray:
    """Per-transition travel cost along the window's prescribed splittings.

    One entry per consecutive stored pair (length len(window) - 1).  The
    bounded regime prices every step by the symmetric gap-ratio cost; the
    lowcost regime prices only actual splitting changes, by the worst-lift
    cost gl2.transfer_cost_general, since an unchanged splitting travels
    for free.  theta: the prescribed gap angles, when the caller holds them.
    """
    if window.prescribed_f is None:
        raise ValueError("window carries no prescribed splittings")
    x1 = window.prescribed_f[:, 0]
    if theta is None:
        theta = gl2.line_angle(x1, window.prescribed_f[:, 1])
    if mode == "bounded":
        return gl2.transfer_cost_bounded(theta[:-1], theta[1:])
    if mode == "lowcost":
        changed = (np.diff(x1) != 0.0) | (np.diff(theta) != 0.0)
        out = np.zeros(len(x1) - 1)
        if changed.any():
            out[changed] = gl2.transfer_cost_general(
                theta[:-1][changed], theta[1:][changed], r1, r2
            )
        return out
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# simulation


def _draw_cells(cells: list[Cell], idx: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, theta) with entry i drawn from cells[idx[i]], one
    cell.sample call per cell, in cell order.  A stable sort groups the
    entries by cell once, each group in entry order."""
    alpha = np.empty(idx.size)
    theta = np.empty(idx.size)
    order = np.argsort(idx, kind="stable")
    counts = np.bincount(idx, minlength=len(cells))
    for cell, n, end in zip(cells, counts, np.cumsum(counts)):
        if n:
            at = order[end - n : end]
            alpha[at], theta[at] = cell.sample(rng, int(n))
    return alpha, theta


def simulate_flexible(
    eta: EtaSpec,
    r1: float,
    r2: float,
    mode: str,
    steps: int,
    seed: int = 0,
    *,
    budget: float | None = None,
    epsilon: float | None = None,
) -> OrbitWindow:
    """Window of one-step matrices whose Oseledets data is prescribed.

    A stationary skyscraper trajectory schedules which mixture component
    the splitting f occupies at each time.  Each matrix composes the
    eigen-matrix of f with the constant log-eigenvalues (r1, r2) / (total
    weight) and the unit-frame map from f's canonical lift to its
    successor's, so f is carried exactly onto its shift with log-gains
    (r1, r2) and the exponents/directions are known in advance.

    mode "bounded" (keyword budget): chain the mixture by march_chain,
    refine the chain masses into label occupancies, and draw f fresh each
    step from the chain element owning the current tower label; adjacent
    labels own adjacent chain elements, so every per-step gap-ratio cost is
    below the budget (asserted, hard).  mode "lowcost" (keyword epsilon):
    park piece n on a tower of height k_n chosen so the certified cap C_n
    satisfies 2 C_n / k_n < epsilon (a lone piece that needs k > 1 takes
    heights k and k + 1, for gcd 1), and hold f constant up each tower;
    travel is paid only at tower changes, so the mean step cost is below
    epsilon (statistical).  Either mode raises BuildTooLarge before it
    builds bands or a tower past max(steps, SIZE_FLOOR) / 16.

    prescribed_f[i] is (x1, x2) line angles at time offset + i; labels[i]
    is the tower label (bounded) or the piece index (lowcost); the window
    is centered so both causal direction estimates have room.  Factors
    carry one constant log-scale, 0 while max(r1, -r2) stays within half
    the float range (at the smallest gap angle), else r1 / total weight.
    """
    if not r1 >= r2:
        raise ValueError("need r1 >= r2")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pieces = decompose_eta(eta)
    # every splitting is drawn inside a mixture cell, where the log-gains are
    # the constants r_j / (total weight), so their mixture averages are r_j
    total = math.fsum(p.weight for p in pieces)
    # entries of a factor or its inverse reach e^max(r1, -r2) / sin t at the
    # smallest gap angle t; past half the float range e^(r1 / total) moves
    # into a constant log-scale, and the matrix part's entries stay bounded
    theta_min = min(p.cell.theta_lo for p in pieces)
    size = 0.5 * math.log(np.finfo(float).max) + math.log(math.sin(theta_min))
    log_scale = 0.0 if max(r1, -r2) <= size else r1 / total
    gains = np.exp([r1 / total - log_scale, r2 / total - log_scale])
    size_limit = max(steps, SIZE_FLOOR) // skyscraper.OVERDRAW_TOWERS
    rng = np.random.default_rng(seed)

    if mode == "bounded":
        if budget is None or not budget > 0.0:
            raise ValueError("bounded mode needs a positive budget")
        # march_chain cuts the u-axis into at least span / (SLICE_SPAN_FRACTION b) bands
        span = max(p.cell.u_hi for p in pieces) - min(p.cell.u_lo for p in pieces)
        if span > size_limit * SLICE_SPAN_FRACTION * budget:
            raise BuildTooLarge(f"budget {budget!r} cuts over {size_limit} gap-angle bands")
        chain = march_chain(pieces, budget)
        masses = [c.mass for c in chain]
        labels = skyscraper.refined_size(masses)
        if 2 * labels > size_limit:  # the tallest tower is 2 x labels high
            raise BuildTooLarge(
                f"budget {budget!r} needs {labels} labels, past the limit {size_limit // 2}")
        values, owners = skyscraper.refine_weights(masses)
        pi = skyscraper.bounded_tower_vector(values)
        heights, levels = skyscraper.renewal_trajectory(pi, steps + 1, rng)
        labels_all = skyscraper.trajectory_labels(heights, levels)
        del heights, levels
        alpha, theta = _draw_cells([c.cell for c in chain], owners[labels_all], rng)
        labels = labels_all[:steps]
    elif mode == "lowcost":
        if epsilon is None or not epsilon > 0.0:
            raise ValueError("lowcost mode needs a positive epsilon")
        caps = piece_cost_caps(pieces, r1, r2)
        # the costliest piece's tower is at least 2 C / epsilon + 1 high
        if 2.0 * caps[-1] >= size_limit * epsilon:
            raise BuildTooLarge(f"epsilon {epsilon!r} needs a tower of over {size_limit} levels")
        ks = skyscraper.lowcost_heights(caps, epsilon)
        weights = [p.weight for p in pieces]
        if len(ks) > len(pieces):  # a lone piece on heights k and k + 1
            weights = [weights[0] / 2.0] * 2
        pi = skyscraper.TowerVector(dict(zip(ks, weights)))
        # f is constant up each tower: one draw per tower entered
        heights, lengths, _ = skyscraper.renewal_towers(pi, steps + 1, rng)
        seg_piece = np.searchsorted(np.asarray(ks), heights)
        np.minimum(seg_piece, len(pieces) - 1, out=seg_piece)  # a split lone piece reads 0
        seg_alpha, seg_theta = _draw_cells([p.cell for p in pieces], seg_piece, rng)
        alpha = np.repeat(seg_alpha, lengths)
        theta = np.repeat(seg_theta, lengths)
        labels = np.repeat(seg_piece, lengths)[:steps]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # steps [lo, hi) read the splittings at lo..hi, so neighbouring blocks
    # share one splitting and every move across a block edge is checked
    matrices = np.empty((steps, 2, 2))
    log_dets = np.empty(steps)
    prescribed = np.empty((steps, 2))
    for lo in range(0, steps, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, steps)
        a, t = alpha[lo : hi + 1], theta[lo : hi + 1]
        # canonical-lift frames: theta <= pi/2 makes (alpha, alpha + theta)
        # the lift outright, no flip needed
        frames = gl2._unit_columns(a, a + t)
        # F = frames[1:] diag(gains) frames[:-1]^-1: the diagonal scales rows
        mats = gl2.inv2(frames[:-1])
        mats *= gains[:, None]
        mats = np.matmul(frames[1:], mats, out=matrices[lo:hi])
        log_dets[lo:hi] = np.log(np.abs(gl2.det2(mats))) + 2.0 * log_scale

        # hard contracts: the cocycle carries each prescribed line to its
        # successor, and the bounded regime never exceeds its budget
        for angles in (a, a + t):
            miss = gl2.line_angle(gl2.projective_action(mats, angles[:-1]), angles[1:])
            ensure(np.all(miss < COVARIANCE_TOL), "prescribed line not carried")
        if mode == "bounded":
            moves = gl2.transfer_cost_bounded(t[:-1], t[1:])
            ensure(np.all(moves < budget), "budget exceeded along the window")

        prescribed[lo:hi, 0] = gl2.canon_line(a[:-1])
        prescribed[lo:hi, 1] = gl2.canon_line(a[:-1] + t[:-1])
    return OrbitWindow(
        offset=-(steps // 2),
        matrices=matrices,
        prescribed_f=prescribed,
        labels=np.asarray(labels, dtype=np.int64),
        seed=seed if isinstance(seed, (int, np.integer)) else None,
        log_scales=np.broadcast_to(log_scale, steps),
        log_dets=log_dets,
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class ConstructionReport:
    """Verification summary for a prescribed-splitting window.

    lambda_hat: exponent estimates (top, bottom).  tv_distance: total
    variation between empirical piece frequencies and the mixture weights.
    ks_theta: Kolmogorov-Smirnov distance between the empirical gap-angle
    law and the mixture's closed-form marginal.  max_cost / mean_cost: step
    travel cost stats.  agreement_fraction: fraction of sampled times where
    both estimated directions match the prescribed ones within 1e-3 rad.
    Per-step arrays (step_cost, step_label, step_theta; one entry per
    stored transition) feed to_csv and stay out of to_obj.
    """

    lambda_hat: tuple
    tv_distance: float
    ks_theta: float
    max_cost: float
    mean_cost: float
    agreement_fraction: float
    steps: int
    offset: int
    mode: str
    rates: tuple
    seed: int | None
    step_cost: np.ndarray = field(repr=False)
    step_label: np.ndarray = field(repr=False)
    step_theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("tv_distance", "ks_theta", "max_cost"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.agreement_fraction <= 1.0:
            raise ValueError("agreement_fraction must lie in [0, 1]")
        if not 0.0 <= self.tv_distance <= 1.0:
            raise ValueError("tv_distance must lie in [0, 1]")
        if not 0.0 <= self.ks_theta <= 1.0:
            raise ValueError("ks_theta must lie in [0, 1]")

    def to_obj(self) -> dict:
        return encode({f.name: getattr(self, f.name) for f in fields(self) if f.repr})

    def to_csv(self, start: int = 0, stop: int | None = None) -> str:
        """Rows [start, stop) of the CSV, the header first when start is 0:
        one row per stored transition, with the absolute step, its travel
        cost, the label at the step's source, and the source gap angle.
        The whole text by default, formatted CSV_ROWS rows at a time."""
        stop = len(self.step_cost) if stop is None else min(stop, len(self.step_cost))
        parts = ["step,cost,label,theta\n"] if start == 0 else []
        for lo in range(start, stop, CSV_ROWS):
            part = slice(lo, min(lo + CSV_ROWS, stop))
            cost, theta = float_strs(self.step_cost[part]), float_strs(self.step_theta[part])
            steps = range(self.offset + lo, self.offset + lo + len(cost))
            rows = zip(steps, cost, self.step_label[part].tolist(), theta)
            parts.append("".join(f"{s},{c},{k},{t}\n" for s, c, k, t in rows))
        return "".join(parts)


def _ks_distance(pieces: list[Piece], theta: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the gap angles' empirical law and
    the mixture marginal, over the sorted sample in blocks of STEP_BLOCK.

    Atom comparisons get a 1e-12 cushion: the gap angles are recomputed
    from stored line angles, which can land one ulp off the atom.
    """
    ts, n, ks = np.sort(theta), len(theta), 0.0
    for lo in range(0, n, STEP_BLOCK):
        t = ts[lo : lo + STEP_BLOCK]
        below, upto = np.zeros_like(t), np.zeros_like(t)  # P(theta < t), P(theta <= t)
        for w, cell in pieces:
            t0, t1 = cell.theta_lo, cell.theta_hi
            if t1 == t0:
                below += w * (t > t0 + 1e-12)
                upto += w * (t >= t0 - 1e-12)
            else:
                ramp = w * np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
                below += ramp
                upto += ramp
        ranks = np.arange(lo, lo + t.size, dtype=float)
        ks = max(ks, float(np.max((ranks + 1.0) / n - upto)), float(np.max(below - ranks / n)))
    return ks


def direction_depth(r1: float, r2: float) -> int:
    """Depth of verify_flexible's direction estimates, ceil(20 / (r1 - r2)) * 10;
    the window needs at least 2 * depth + 10 steps."""
    return math.ceil(20.0 / (r1 - r2)) * 10


def rate_limit_error(eta: EtaSpec, r1: float, r2: float) -> str | None:
    """Why simulate_flexible cannot build rates (r1, r2) on this mixture, or
    None when it can.  Carrying a line errs by about e^(r1 - r2) 2^-52 / sin t
    rad at the mixture's smallest gap angle t, so r1 - r2 must stay below
    log(COVARIANCE_TOL sin(t) 2^52), 14.1 at t = 0.3.  The rates' magnitude
    is free: the build moves e^(r1 / total weight) into a log-scale."""
    sin_t = math.sin(min(p.cell.theta_lo for p in decompose_eta(eta)))
    gap = math.log(COVARIANCE_TOL * sin_t * 2.0**52)
    if r1 - r2 > gap:
        return (
            f"rates r1 - r2 = {r1 - r2:.4g} exceed {gap:.4g}, the most at which this "
            f"mixture's smallest gap angle keeps lines carried within {COVARIANCE_TOL:g}"
        )
    return None


def verify_flexible(
    window: OrbitWindow, eta: EtaSpec, r1: float, r2: float, mode: str = "bounded"
) -> ConstructionReport:
    """Close the loop: re-estimate everything the construction prescribed.

    Exponents via lyapunov_estimates; the splitting's empirical law against
    the mixture (total variation over the piece partition, KS on the
    gap-angle marginal); step cost stats for the given mode; and direction
    agreement at 100 evenly spread interior times, estimating E1 backward
    and E2 forward with depth ceil(20 / (r1 - r2)) * 10 and comparing both
    to the prescribed splitting within 1e-3 rad.
    """
    if window.prescribed_f is None or window.labels is None:
        raise ValueError("window lacks prescribed splittings or labels")
    if not r1 > r2:
        raise ValueError("need r1 > r2 for a direction-estimate depth")
    n = len(window)
    depth = direction_depth(r1, r2)
    if n < 2 * depth + 10:
        raise NoData(f"window of {n} steps is too short for depth {depth}")
    pieces = decompose_eta(eta)

    lam = lyapunov_estimates(window)

    x1 = window.prescribed_f[:, 0]
    x2 = window.prescribed_f[:, 1]
    theta = gl2.line_angle(x1, x2)
    unassigned = np.ones(n, dtype=bool)
    freqs = np.empty(len(pieces))
    for idx, piece in enumerate(pieces):
        hit = unassigned & piece.cell.contains(x1, theta)
        freqs[idx] = hit.sum() / n
        unassigned &= ~hit
    ensure(not unassigned.any(), "a prescribed splitting fell outside every cell")
    weights = np.asarray([p.weight for p in pieces])
    tv = 0.5 * float(np.abs(freqs - weights).sum())

    ks = _ks_distance(pieces, theta)

    lo = window.offset + depth
    hi = window.end - depth
    # linspace is sorted, so dict keys dedupe it in order (np.unique imports numpy.ma)
    times = dict.fromkeys(np.round(np.linspace(lo, hi, num=100)).astype(int).tolist())
    agree = 0
    for t in times:
        shifted = replace(window, offset=window.offset - t)
        e1 = estimate_E1_backward(shifted, depth)
        e2 = estimate_E2_forward(shifted, depth)
        slot = window.slot(t)
        ok = (
            float(gl2.line_angle(e1, x1[slot])) < AGREEMENT_TOL
            and float(gl2.line_angle(e2, x2[slot])) < AGREEMENT_TOL
        )
        agree += bool(ok)

    cost = step_costs(window, mode, r1, r2, theta)
    return ConstructionReport(
        lambda_hat=(float(lam.top), float(lam.bottom)),
        tv_distance=tv,
        ks_theta=ks,
        max_cost=float(cost.max()) if cost.size else 0.0,
        mean_cost=float(cost.mean()) if cost.size else 0.0,
        agreement_fraction=agree / len(times),
        steps=n,
        offset=window.offset,
        mode=mode,
        rates=(float(r1), float(r2)),
        seed=window.seed,
        step_cost=cost,
        step_label=window.labels[: n - 1],
        step_theta=theta[: n - 1],
    )
