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

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

import numpy as np

from . import gl2, skyscraper
from .cocycle import OrbitWindow, ProductTree, WindowExhausted
from .estimation import NoData, contracted_line, expanded_line, exponents_of_product
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

# steps per block in simulate_blocks and verify_flexible's KS statistic, and
# rows per ConstructionReport.to_csv formatting chunk and per part osl writes:
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


def step_costs(window: OrbitWindow, mode: str, r1: float, r2: float) -> np.ndarray:
    """Per-transition travel cost along the window's prescribed splittings.

    One entry per consecutive stored pair (length len(window) - 1).  The
    bounded regime prices every step by the symmetric gap-ratio cost; the
    lowcost regime prices only actual splitting changes, by the worst-lift
    cost gl2.transfer_cost_general, since an unchanged splitting travels
    for free.
    """
    if window.prescribed_f is None:
        raise ValueError("window carries no prescribed splittings")
    x1, x2 = window.prescribed_f[:, 0], window.prescribed_f[:, 1]
    return _move_costs(x1, gl2.line_angle(x1, x2), mode, r1, r2)


def _move_costs(x1, theta, mode: str, r1: float, r2: float) -> np.ndarray:
    """step_costs of the splittings with expanding lines x1 and gap angles theta."""
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


def simulate_blocks(
    eta: EtaSpec,
    r1: float,
    r2: float,
    mode: str,
    steps: int,
    seed: int = 0,
    *,
    budget: float | None = None,
    epsilon: float | None = None,
) -> Iterator[OrbitWindow]:
    """The build of simulate_flexible as consecutive OrbitWindow blocks of
    STEP_BLOCK steps (the last one shorter), made one at a time as they are
    read.

    Every check and random draw happens in this call, so BuildTooLarge,
    UnboundedGap and ValueError are raised here, not while the blocks are
    read.  Each block carries its matrices, log-scales, log-dets, prescribed
    lines and labels, and is checked as it is made: every prescribed line is
    carried to its successor, and in bounded mode every step stays below the
    budget, across block edges too.  Lowcost mode keeps one splitting per
    tower entered and expands a block's splittings when it is made.
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
        label_count = skyscraper.refined_size(masses)
        if 2 * label_count > size_limit:  # the tallest tower is 2 x labels high
            raise BuildTooLarge(
                f"budget {budget!r} needs {label_count} labels, past the limit {size_limit // 2}")
        values, owners = skyscraper.refine_weights(masses)
        pi = skyscraper.bounded_tower_vector(values)
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
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # the walk tower by tower; step k lies in the first tower ending past k
    heights, lengths, start = skyscraper.renewal_towers(pi, steps + 1, rng)
    tower_end = np.cumsum(lengths)

    def towers(lo, hi):
        return np.searchsorted(tower_end, np.arange(lo, hi), side="right")

    if mode == "bounded":
        def labels_at(lo, hi):  # tower labels of steps lo..hi - 1, checked from step lo - 1
            k = np.arange(max(lo - 1, 0), hi)
            seg = towers(k[0], hi)
            levels = k - (tower_end[seg] - lengths[seg])
            levels[seg == 0] += start
            return skyscraper.trajectory_labels(heights[seg], levels)[lo - k[0] :]

        # f is drawn fresh each step from the chain cell owning its label,
        # one cell at a time, so the draws come before the first block
        owner = np.empty(steps + 1, dtype=owners.dtype)
        for lo in range(0, steps + 1, STEP_BLOCK):
            owner[lo : lo + STEP_BLOCK] = owners[labels_at(lo, min(lo + STEP_BLOCK, steps + 1))]
        alpha, theta = _draw_cells([c.cell for c in chain], owner, rng)
        del owner

        def splittings(lo, hi):  # (alpha, theta) at lo..hi, labels at lo..hi - 1
            return alpha[lo : hi + 1], theta[lo : hi + 1], labels_at(lo, hi)
    else:
        # f is constant up each tower: one draw per tower entered
        seg_piece = np.searchsorted(np.asarray(ks), heights)
        np.minimum(seg_piece, len(pieces) - 1, out=seg_piece)  # a split lone piece reads 0
        seg_alpha, seg_theta = _draw_cells([p.cell for p in pieces], seg_piece, rng)

        def splittings(lo, hi):
            seg = towers(lo, hi + 1)
            return seg_alpha[seg], seg_theta[seg], seg_piece[seg[:-1]]

    def blocks():
        # steps [lo, hi) read the splittings at lo..hi, so neighbouring blocks
        # share one splitting and every move across a block edge is checked
        for lo in range(0, steps, STEP_BLOCK):
            hi = min(lo + STEP_BLOCK, steps)
            a, t, labels = splittings(lo, hi)
            # canonical-lift frames: theta <= pi/2 makes (alpha, alpha + theta)
            # the lift outright, no flip needed
            frames = gl2._unit_columns(a, a + t)
            # F = frames[1:] diag(gains) frames[:-1]^-1: the diagonal scales rows
            mats = gl2.inv2(frames[:-1])
            mats *= gains[:, None]
            mats = np.matmul(frames[1:], mats)

            # hard contracts: the cocycle carries each prescribed line to its
            # successor, and the bounded regime never exceeds its budget
            for angles in (a, a + t):
                miss = gl2.line_angle(gl2.projective_action(mats, angles[:-1]), angles[1:])
                ensure(np.all(miss < COVARIANCE_TOL), "prescribed line not carried")
            if mode == "bounded":
                moves = gl2.transfer_cost_bounded(t[:-1], t[1:])
                ensure(np.all(moves < budget), "budget exceeded along the window")

            prescribed = np.empty((hi - lo, 2))
            prescribed[:, 0] = gl2.canon_line(a[:-1])
            prescribed[:, 1] = gl2.canon_line(a[:-1] + t[:-1])
            yield OrbitWindow(
                offset=lo - steps // 2,
                matrices=mats,
                prescribed_f=prescribed,
                labels=np.asarray(labels, dtype=np.int64),
                seed=seed if isinstance(seed, (int, np.integer)) else None,
                log_scales=np.broadcast_to(log_scale, hi - lo),
                log_dets=np.log(np.abs(gl2.det2(mats))) + 2.0 * log_scale,
            )

    return blocks()


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
    """Window of one-step matrices whose Oseledets data is prescribed: the
    blocks of simulate_blocks, joined as they are made.

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
    The library, the battery and the demos join a window this way; osl
    flexible hands the blocks to verify_flexible and never holds one.
    """
    blocks = simulate_blocks(eta, r1, r2, mode, steps, seed, budget=budget, epsilon=epsilon)
    matrices = np.empty((steps, 2, 2))
    prescribed = np.empty((steps, 2))
    labels = np.empty(steps, dtype=np.int64)
    log_dets = np.empty(steps)
    for block in blocks:
        j = slice(block.offset + steps // 2, block.end + steps // 2)
        matrices[j], prescribed[j], labels[j] = block.matrices, block.prescribed_f, block.labels
        log_dets[j] = block.log_dets
    return OrbitWindow(  # every block carries the seed and the one log-scale
        offset=-(steps // 2),
        matrices=matrices,
        prescribed_f=prescribed,
        labels=labels,
        seed=block.seed,
        log_scales=np.broadcast_to(block.log_scales[0], steps),
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
        if not self.max_cost >= 0.0:
            raise ValueError("max_cost must be >= 0")
        for name in ("tv_distance", "ks_theta", "agreement_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def to_obj(self) -> dict:
        return encode({f.name: getattr(self, f.name) for f in fields(self) if f.repr})

    def to_csv(self, start: int = 0, stop: int | None = None) -> str:
        """Rows [start, stop) of the CSV, the header first when start is 0:
        one row per stored transition, with the absolute step, its travel
        cost, the label at the step's source, and the source gap angle.
        The whole text by default, formatted STEP_BLOCK rows at a time: a
        chunk takes about 316 bytes per row of Python strings."""
        stop = len(self.step_cost) if stop is None else min(stop, len(self.step_cost))
        parts = ["step,cost,label,theta\n"] if start == 0 else []
        for lo in range(start, stop, STEP_BLOCK):
            part = slice(lo, min(lo + STEP_BLOCK, stop))
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


def _put(column, values: np.ndarray, lo: int, size: int) -> np.ndarray:
    """column[lo : lo + len(values)] = values in a column of size entries,
    made on the first write; values that fill it whole are the column
    itself, so a window verified as one block is not copied."""
    if column is None:
        if len(values) == size:
            return values
        column = np.empty(size, values.dtype)
    column[lo : lo + len(values)] = values
    return column


class _DirectionSpans:
    """verify_flexible's direction agreement, counted as the blocks pass.

    Each time t gets two ProductTrees, over [t - depth, t) and [t, t +
    depth), and each block pushes into them the slice of it they overlap,
    so the estimators' bits come out for any block cuts.  The prescribed
    lines at t are read as t's block passes; t is scored, and its trees
    dropped, once the blocks reach t + depth.
    """

    def __init__(self, times, depth: int):
        self.depth, self.agree = depth, 0
        self.todo = list(times)[::-1]  # times not begun, the next one last
        self.open = []  # [t, backward tree, forward tree, prescribed lines]

    def add(self, block: OrbitWindow) -> None:
        d, lo, hi = self.depth, block.offset, block.end
        while self.todo and self.todo[-1] - d < hi:
            self.open.append([self.todo.pop(), ProductTree(), ProductTree(), None])
        for entry in self.open:
            t = entry[0]
            for tree, a, b in ((entry[1], t - d, t), (entry[2], t, t + d)):
                a, b = max(a, lo) - lo, min(b, hi) - lo
                if a < b:
                    tree.push(block.matrices[a:b], block.log_scales[a:b])
            if lo <= t < hi:
                entry[3] = tuple(block.prescribed_f[t - lo])  # no view of the block
        while self.open and self.open[0][0] + d <= hi:
            _, backward, forward, (x1, x2) = self.open.pop(0)
            e1, e2 = expanded_line(backward.result()), contracted_line(forward.result())
            self.agree += bool(
                float(gl2.line_angle(e1, x1)) < AGREEMENT_TOL
                and float(gl2.line_angle(e2, x2)) < AGREEMENT_TOL
            )


def verify_flexible(
    blocks, eta: EtaSpec, r1: float, r2: float, mode: str = "bounded",
    steps: int | None = None,
) -> ConstructionReport:
    """Close the loop: re-estimate everything the construction prescribed.

    blocks is a window, or consecutive blocks of steps steps in total as
    simulate_blocks yields them, read once each; a window is one block.
    Exponents via exponents_of_product, the forward stretch streamed
    through a ProductTree; the splitting's empirical law against the
    mixture (total variation over the piece partition, counted per block,
    KS on the gap-angle marginal); step cost stats for the given mode; and
    direction agreement at 100 evenly spread interior times, estimating E1
    backward and E2 forward with depth ceil(20 / (r1 - r2)) * 10 and
    comparing both to the prescribed splitting within 1e-3 rad, each
    product streamed through a ProductTree too (_DirectionSpans).  Beside
    the report's columns (gap angle, cost and label per step) it keeps the
    forward stretch's log|det| values, so np.sum reads them as one array;
    no window of blocks is ever held.
    """
    if isinstance(blocks, OrbitWindow):
        blocks, steps = [blocks], len(blocks)
    if not r1 > r2:
        raise ValueError("need r1 > r2 for a direction-estimate depth")
    n = steps
    depth = direction_depth(r1, r2)
    if n < 2 * depth + 10:
        raise NoData(f"window of {n} steps is too short for depth {depth}")
    pieces = decompose_eta(eta)
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValueError("no blocks to verify")
    offset = first.offset
    if not offset <= 0 < offset + n:
        raise WindowExhausted(f"window [{offset}, {offset + n}) has no forward part")

    # linspace is sorted, so dict keys dedupe it in order (np.unique imports numpy.ma)
    times = dict.fromkeys(
        np.round(np.linspace(offset + depth, offset + n - depth, num=100)).astype(int).tolist())
    spans = _DirectionSpans(times, depth)
    tree = ProductTree()
    counts = np.zeros(len(pieces), dtype=np.int64)
    theta_col = cost = labels = log_dets = None  # the forward log_dets start at time 0
    end, last = offset, None
    for block in itertools.chain([first], blocks):
        if block.prescribed_f is None or block.labels is None:
            raise ValueError("window lacks prescribed splittings or labels")
        if block.offset != end:
            raise ValueError(f"block at {block.offset} does not follow the steps before {end}")
        end = block.end
        x1, x2 = block.prescribed_f[:, 0], block.prescribed_f[:, 1]
        theta = gl2.line_angle(x1, x2)
        unassigned = np.ones(len(block), dtype=bool)
        for idx, piece in enumerate(pieces):
            hit = unassigned & piece.cell.contains(x1, theta)
            counts[idx] += np.count_nonzero(hit)
            unassigned &= ~hit
        ensure(not unassigned.any(), "a prescribed splitting fell outside every cell")
        lo = block.offset - offset
        if last is None:
            cost = _put(cost, _move_costs(x1, theta, mode, r1, r2), 0, n - 1)
        else:  # the move into the block starts at the previous block's last step
            moves = _move_costs(np.r_[last[0], x1], np.r_[last[1], theta], mode, r1, r2)
            cost = _put(cost, moves, lo - 1, n - 1)
        last = x1[-1], theta[-1]
        theta_col = _put(theta_col, theta, lo, n)
        labels = _put(labels, block.labels, lo, n)

        fwd = max(-block.offset, 0)  # the exponents read times 0 and on
        if fwd < len(block):
            tree.push(block.matrices[fwd:], block.log_scales[fwd:])
            log_dets = _put(log_dets, block.log_dets[fwd:], block.offset + fwd, offset + n)
        spans.add(block)
    if end != offset + n:
        raise ValueError(f"blocks hold {end - offset} steps, not {n}")

    lam = exponents_of_product(tree.result(), log_dets)
    del log_dets  # before the KS statistic's sorted copy
    freqs = counts / n
    weights = np.asarray([p.weight for p in pieces])
    tv = 0.5 * float(np.abs(freqs - weights).sum())
    ks = _ks_distance(pieces, theta_col)

    return ConstructionReport(
        lambda_hat=(float(lam.top), float(lam.bottom)),
        tv_distance=tv,
        ks_theta=ks,
        max_cost=float(cost.max()) if cost.size else 0.0,
        mean_cost=float(cost.mean()) if cost.size else 0.0,
        agreement_fraction=spans.agree / len(times),
        steps=n,
        offset=offset,
        mode=mode,
        rates=(float(r1), float(r2)),
        seed=first.seed,
        step_cost=cost,
        step_label=labels[: n - 1],
        step_theta=theta_col[: n - 1],
    )
