"""Scalar distributions sampled exclusively through their inverse CDF.

Every draw consumes exactly one uniform from the supplied generator, so a
run is bit-reproducible given its seed.  Supported kinds:

- ``atoms``: finite list of (value, weight)
- ``uniform``: uniform on [lo, hi)
- ``exponential``: rate parameterization
- ``dyadic``: the heavy-tail law P(value = 2^k) = (3/4) * 4^(-k), k >= 0,
  with mean 3/2 and infinite second moment
- ``affine``: shift + scale * base for another law (scale != 0), e.g. a
  heavy tail pushed to the negative axis

Every float that reaches a spec, report or CSV is written as its shortest
round-trip decimal string, so save/load is bit-exact: ``encode`` writes the
JSON objects (each class lists its fields, ``encode`` formats them),
``float_str`` a single float and ``float_strs`` a CSV column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def float_str(x) -> str:
    """x as its shortest round-trip decimal string: float(float_str(x)) == x."""
    return repr(float(x))


def float_strs(values) -> list[str]:
    """float_str of each float of a nonempty 1d array, formatted once per run of
    bitwise-equal values (-0.0 and 0.0 differ) and with no Python call per value."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    starts = np.concatenate([[True], bits[1:] != bits[:-1]])
    strs = np.array(list(map(repr, bits[starts].view(float).tolist())), dtype=object)
    return strs[np.cumsum(starts) - 1].tolist()


def encode(value):
    """value as JSON data: a float by float_str, a dict, tuple or list item
    by item, an object with to_obj through it and a numpy integer as an int;
    ints, strings and None pass through."""
    if isinstance(value, (float, np.floating)):
        return float_str(value)
    if isinstance(value, dict):
        return {key: encode(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    return value.to_obj() if hasattr(value, "to_obj") else value


class BadTerm(ValueError):
    """A list entry violates its documented range."""


class Unsupported(ValueError):
    """Operation not defined for this distribution kind."""


@dataclass(frozen=True)
class ScalarDist:
    """A scalar law with a closed-form inverse CDF."""

    # the spec fields of each kind; numeric ones are stored as floats
    FIELDS = {
        "atoms": ("values", "weights"),
        "uniform": ("lo", "hi"),
        "exponential": ("rate",),
        "dyadic": (),
        "affine": ("base", "scale", "shift"),
    }

    kind: str
    values: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 1.0
    rate: float = 1.0
    base: "ScalarDist | None" = None
    scale: float = 1.0
    shift: float = 0.0
    # cumulative weights, cached for atomic inverse-CDF lookup
    _cum: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lo", "hi", "rate", "scale", "shift"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("values", "weights"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        params = (*self.values, *self.weights, self.lo, self.hi, self.rate, self.scale, self.shift)
        if not all(map(math.isfinite, params)):
            raise BadTerm("scalar law parameters must be finite")
        if self.kind == "atoms":
            w = np.asarray(self.weights, dtype=float)
            if len(w) == 0 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise BadTerm("atom weights must be nonnegative and sum to 1")
            object.__setattr__(self, "_cum", np.cumsum(w))
        elif self.kind == "uniform":
            if not self.lo < self.hi:
                raise BadTerm("uniform law needs lo < hi")
        elif self.kind == "exponential":
            if not self.rate > 0:
                raise BadTerm("exponential law needs rate > 0")
        elif self.kind == "affine":
            if self.base is None or self.scale == 0.0:
                raise BadTerm("affine law needs a base law and nonzero scale")
        elif self.kind not in self.FIELDS:
            raise Unsupported(f"unknown scalar law kind {self.kind!r}")

    # -- sampling ---------------------------------------------------------

    def icdf(self, u):
        """Inverse CDF, array-generic; u in [0, 1)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "atoms":
            if len(self.values) == 1:  # point mass: skip the lookup
                return np.full(u.shape, float(self.values[0]))
            idx = np.searchsorted(self._cum, u, side="left")
            idx = np.minimum(idx, len(self.values) - 1)
            return np.asarray(self.values, dtype=float)[idx]
        if self.kind == "uniform":
            return self.lo + u * (self.hi - self.lo)
        if self.kind == "exponential":
            return -np.log1p(-u) / self.rate
        if self.kind == "affine":
            # negative scale reverses the CDF, so feed the mirrored uniform;
            # mirroring on the 53-bit grid keeps it in [0, 1) and exact
            v = u if self.scale > 0 else (1.0 - 2.0**-53) - u
            return self.shift + self.scale * self.base.icdf(v)
        # dyadic: smallest k with 1 - 4^-(k+1) >= u, value 2^k.  For 1 - u (exact)
        # in [2^(E-1023), 2^(E-1022)), E its exponent field, that k is (1022 - E) >> 1
        k = np.maximum((1022 - ((1.0 - u).view(np.int64) >> 52)) >> 1, 0)
        return ((k + 1023) << 52).view(float)  # 2^k from its exponent bits

    def sample(self, rng: np.random.Generator, n: int):
        """n draws via the inverse CDF; consumes one uniform per sample."""
        return self.icdf(rng.random(n))

    # -- tail functions ---------------------------------------------------

    def sf(self, x):
        """P(X > x), array-generic, in closed form: no 1 - cdf, so tail
        probabilities far below 2^-53 keep their relative precision."""
        return self._sf(np.asarray(x, dtype=float), 1.0)

    def isf(self, q):
        """inf{x : sf(x) < q} for q in (0, 1], array-generic.  For U uniform on
        (0, sf(t)], isf(U) is distributed as X given X > t, and an atomic X
        lands strictly above t even at U = sf(t)."""
        return self._isf(np.asarray(q, dtype=float), 1.0)

    def _sf(self, x, sign: float):
        """P(sign * X > x) for sign = +1 or -1."""
        if self.kind == "affine":
            s = sign * self.scale
            return self.base._sf((x - sign * self.shift) / abs(s), math.copysign(1.0, s))
        if self.kind == "atoms":
            vals, tail = self._sorted_tail(sign)
            return tail[np.searchsorted(vals, x, side="right")]
        if self.kind == "uniform":
            lo, hi = (self.lo, self.hi) if sign > 0 else (-self.hi, -self.lo)
            return np.clip((hi - x) / (hi - lo), 0.0, 1.0)
        if self.kind == "exponential":
            if sign > 0:
                return np.exp(-self.rate * np.maximum(x, 0.0))
            return -np.expm1(self.rate * np.minimum(x, 0.0))
        # dyadic; clipping at 2^1023 keeps frexp finite, and 4^-1024 is 0
        if sign > 0:  # P(2^k > x) = 4^-E for x in [2^(E-1), 2^E), E >= 1
            _, e = np.frexp(np.clip(x, 0.5, 2.0**1023))
            return np.ldexp(1.0, -2 * e)
        # P(2^k < y), y = -x: 1 - 4^-(j + 1) for 2^j the largest atom below y
        f, e = np.frexp(np.minimum(-x, 2.0**1023))
        return np.where(-x > 1.0, 1.0 - np.ldexp(1.0, -2 * (e - (f == 0.5))), 0.0)

    def _isf(self, q, sign: float):
        """inf{x : P(sign * X > x) < q} for q in (0, 1]."""
        if self.kind == "affine":
            s = sign * self.scale
            return sign * self.shift + abs(s) * self.base._isf(q, math.copysign(1.0, s))
        if self.kind == "atoms":
            vals, tail = self._sorted_tail(sign)
            # first atom whose own sf is below q; the last atom's sf is 0
            idx = np.searchsorted(-tail[1:], -q, side="right")
            return vals[np.minimum(idx, vals.size - 1)]
        if self.kind == "uniform":
            lo, hi = (self.lo, self.hi) if sign > 0 else (-self.hi, -self.lo)
            return hi - q * (hi - lo)
        with np.errstate(divide="ignore"):  # q = 1 on a law unbounded below
            if self.kind == "exponential":
                return (-np.log(q) if sign > 0 else np.log1p(-q)) / self.rate
            if sign > 0:
                # dyadic: smallest k with 4^-(k+1) < q.  With C = ceil(log2 q),
                # read off q = f 2^E as E - (f == 1/2), that is k = (-C) // 2
                f, e = np.frexp(q)
                return np.ldexp(1.0, (f == 0.5) - e >> 1)
            # -(smallest k with 4^-(k+1) <= 1 - q); 1 - q is exact wherever k > 0
            f, e = np.frexp(1.0 - q)
            return np.where(q < 1.0, -np.ldexp(1.0, np.maximum(-e, 0) >> 1), -np.inf)

    def _sorted_tail(self, sign: float):
        """The values of sign * X ascending, and tail[i] = weight of values i onward."""
        vals = sign * np.asarray(self.values, dtype=float)
        order = np.argsort(vals, kind="stable")
        w = np.asarray(self.weights, dtype=float)[order]
        tail = np.append(np.cumsum(w[::-1])[::-1], 0.0)
        return vals[order], tail

    # -- exact functionals ------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        if self.kind == "affine":
            return self.base.is_atomic
        return self.kind in ("atoms", "dyadic")

    def mean(self) -> float:
        if self.kind == "atoms":
            return float(np.dot(self.values, self.weights))
        if self.kind == "uniform":
            return (self.lo + self.hi) / 2.0
        if self.kind == "exponential":
            return 1.0 / self.rate
        if self.kind == "affine":
            return self.shift + self.scale * self.base.mean()
        return 1.5  # dyadic: (3/4) sum 2^k 4^-k = (3/4) sum 2^-k

    def mean_log(self) -> float:
        """E log X in closed form for a law on [0, inf) (-inf if an atom at 0
        carries weight); Unsupported for an affine law or one reaching below 0."""
        if self.kind == "affine" or self.support()[0] < 0:
            raise Unsupported("mean_log needs a non-affine law on [0, inf)")
        if self.kind == "atoms":
            v, w = np.asarray(self.values), np.asarray(self.weights)
            with np.errstate(divide="ignore"):
                return float(np.dot(np.log(v[w > 0]), w[w > 0]))
        if self.kind == "uniform":  # (x log x - x) between lo and hi, 0 log 0 = 0
            xlogx = [x * math.log(x) if x > 0 else 0.0 for x in (self.lo, self.hi)]
            return (xlogx[1] - xlogx[0]) / (self.hi - self.lo) - 1.0
        if self.kind == "exponential":
            return -np.euler_gamma - math.log(self.rate)
        return math.log(2.0) / 3.0  # dyadic: log 2 (3/4) sum k 4^-k

    def support(self) -> tuple[float, float]:
        """Closed interval [lo, hi] holding every draw; hi may be inf."""
        if self.kind == "atoms":
            return min(self.values), max(self.values)
        if self.kind == "uniform":
            return self.lo, self.hi
        if self.kind == "affine":
            ends = [self.shift + self.scale * v for v in self.base.support()]
            return min(ends), max(ends)
        return (0.0 if self.kind == "exponential" else 1.0), math.inf

    def second_moment(self) -> float:
        if self.kind == "atoms":
            return float(np.dot(np.square(self.values), self.weights))
        if self.kind == "uniform":
            return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0
        if self.kind == "exponential":
            return 2.0 / self.rate**2
        if self.kind == "affine":
            m2 = self.base.second_moment()
            if math.isinf(m2):
                return math.inf
            return self.shift**2 + 2.0 * self.shift * self.scale * self.base.mean() + self.scale**2 * m2
        return math.inf  # dyadic: every term of sum 4^k 4^-k is 3/4

    def atom_pairs(self) -> list[tuple[float, float]]:
        """Finite (value, weight) list; Unsupported for non-finite-atomic kinds."""
        if self.kind == "affine":
            return [(self.shift + self.scale * v, w) for v, w in self.base.atom_pairs()]
        if self.kind != "atoms":
            raise Unsupported("atom_pairs needs a finite atomic law")
        return list(zip(self.values, self.weights))

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        return encode({"kind": self.kind, **{f: getattr(self, f) for f in self.FIELDS[self.kind]}})

    @staticmethod
    def from_obj(obj: dict) -> "ScalarDist":
        spec = {f: obj[f] for f in ScalarDist.FIELDS.get(obj["kind"], ())}
        if "base" in spec:
            spec["base"] = ScalarDist.from_obj(spec["base"])
        return ScalarDist(kind=obj["kind"], **spec)


def atoms(pairs) -> ScalarDist:
    """Finite atomic law from (value, weight) pairs."""
    vals, wts = zip(*pairs)
    return ScalarDist(kind="atoms", values=vals, weights=wts)


def constant(value: float) -> ScalarDist:
    """Point mass."""
    return atoms([(value, 1.0)])


def uniform(lo: float, hi: float) -> ScalarDist:
    return ScalarDist(kind="uniform", lo=lo, hi=hi)


def exponential(rate: float) -> ScalarDist:
    return ScalarDist(kind="exponential", rate=rate)


def dyadic() -> ScalarDist:
    """Heavy-tail law P(2^k) = (3/4) 4^-k: finite mean, infinite second moment."""
    return ScalarDist(kind="dyadic")


def affine(base: ScalarDist, scale: float, shift: float) -> ScalarDist:
    """The law of shift + scale * X for X distributed by base."""
    return ScalarDist(kind="affine", base=base, scale=scale, shift=shift)
