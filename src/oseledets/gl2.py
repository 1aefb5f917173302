"""Closed-form 2x2 linear algebra and projective geometry.

Matrices are real 2x2 arrays (stacked shapes (..., 2, 2) are accepted by the
array-generic operations).  Projective lines are canonical angles in [0, pi);
unit vectors are angles in [0, 2*pi).  All decompositions here are closed-form
(atan2/hypot arithmetic), never iterative.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Invertibility guard: |det| at or below this is treated as singular.
DET_FLOOR = 1e-300

# Pairs of unit vectors whose gap sine falls below this are rejected as a basis.
GAP_SINE_FLOOR = 1e-12


class NotInvertible(ValueError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class DegenerateSplitting(ValueError):
    """The two lines of a splitting coincide."""


class IllConditionedPair(ValueError):
    """Unit-vector pair too close to collinear to serve as a basis."""


class DegeneratePair(ValueError):
    """Vector-angle argument outside the open interval (0, pi)."""


class SplittingPair(NamedTuple):
    """Two distinct projective lines, each a canonical angle in [0, pi)."""

    x1: float
    x2: float


class UnitVectorPair(NamedTuple):
    """Two unit vectors given by angles in [0, 2*pi)."""

    u1: float
    u2: float


def canon_line(alpha):
    """Reduce an angle modulo pi into [0, pi)."""
    return np.mod(alpha, math.pi)


def canon_vector(alpha):
    """Reduce an angle modulo 2*pi into [0, 2*pi)."""
    return np.mod(alpha, 2.0 * math.pi)


def cos_sin(angle):
    """(cos, sin) of angles from one tangent of the half angle, t = tan(a/2):
    cos a = (1 - t^2) / (1 + t^2), sin a = 2t / (1 + t^2).  One vectorized
    tan costs a fraction of cos plus sin, and both stay within 4.5e-16 of them."""
    t = np.tan(0.5 * np.asarray(angle, dtype=float))
    sq = t * t
    den = 1.0 + sq
    return (1.0 - sq) / den, 2.0 * t / den


def rotation(angle):
    """Rotation matrix (or stack of them) for the given angle(s)."""
    c, s = cos_sin(angle)
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def det2(g) -> np.ndarray:
    """Determinant of 2x2 matrices, closed form."""
    g = np.asarray(g, dtype=float)
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def inv2(g) -> np.ndarray:
    """Inverse of 2x2 matrices via the adjugate; raises NotInvertible."""
    g = np.asarray(g, dtype=float)
    d = det2(g)
    if np.any(np.abs(d) <= DET_FLOOR) or not np.all(np.isfinite(d)):
        raise NotInvertible("2x2 matrix with |det| <= 1e-300")
    out = np.empty_like(g)
    out[..., 0, 0] = g[..., 1, 1]
    out[..., 0, 1] = -g[..., 0, 1]
    out[..., 1, 0] = -g[..., 1, 0]
    out[..., 1, 1] = g[..., 0, 0]
    return out / d[..., None, None]


class Svd2(NamedTuple):
    """Closed-form SVD data: gains s1 >= s2 > 0 and singular lines for s1.

    ``g`` maps the right line (angle ``right``) onto the left line (angle
    ``left``) with gain ``s1``; the orthogonal complements map with gain
    ``s2``.  Reconstruction: with ``sy = sign(det g) * s2``,
    ``g = +/- rotation(left) @ diag(s1, sy) @ rotation(-right)``.
    """

    s1: np.ndarray
    s2: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _conformal_split(g):
    """(e, f, gg, h) with g = [[e + f, gg - h], [gg + h, e - f]]: the
    conformal part (e, h) and the anticonformal part (f, gg) of g."""
    g = np.asarray(g, dtype=float)
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    return (a + d) / 2.0, (a - d) / 2.0, (c + b) / 2.0, (c - b) / 2.0


def top_singular(g) -> np.ndarray:
    """Largest singular value (the spectral norm).  Defined for any 2x2
    matrix, singular ones included, so no invertibility check."""
    e, f, gg, h = _conformal_split(g)
    return np.hypot(e, h) + np.hypot(f, gg)


def singular_lines(g) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) singular lines of 2x2 matrices, singular ones included.

    Matches svd2's lines wherever svd2 is defined, but skips its
    invertibility guard: a long contracted product is numerically rank-1
    (its determinant cancels below one ulp of the entries), yet its
    singular lines stay perfectly well-conditioned because they never
    touch the determinant.
    """
    e, f, gg, h = _conformal_split(g)
    a1 = np.arctan2(gg, f)
    a2 = np.arctan2(h, e)
    return canon_line((a2 + a1) / 2.0), canon_line((a1 - a2) / 2.0)


def svd2(g) -> Svd2:
    """Singular values and singular lines of invertible 2x2 matrices.

    Closed form via the rotation-diagonal-rotation normal form: with g split
    into conformal and anticonformal parts of norms q, r, top_singular is
    s1 = q + r and singular_lines are atan2 angles; q^2 - r^2 = det makes
    s2 = |det|/s1, free of the cancellation |q - r| hits when q and r are
    huge and within one ulp.  Array-generic over stacked inputs.  Raises
    NotInvertible on (any) singular input.
    """
    g = np.asarray(g, dtype=float)
    s1 = top_singular(g)
    absdet = np.abs(det2(g))
    if np.any(absdet <= DET_FLOOR) or not np.all(np.isfinite(s1)):
        raise NotInvertible("svd2 of a singular matrix")
    left, right = singular_lines(g)
    return Svd2(s1, absdet / s1, left, right)


def log_norm_max(g) -> np.ndarray:
    """max(log ||g||, log ||g^-1||), always >= 0 (0 iff g is conformal)."""
    s1, s2, _, _ = svd2(g)
    return np.maximum(np.log(s1), -np.log(s2))


def line_angle(alpha1, alpha2) -> np.ndarray:
    """Angle between two projective lines, in [0, pi/2]."""
    d = np.abs(np.mod(np.asarray(alpha1, dtype=float) - alpha2, math.pi))
    return np.minimum(d, math.pi - d)


def vector_angle(u1, u2) -> np.ndarray:
    """Angle between two unit vectors given by angles, in [0, pi]."""
    d = np.abs(np.mod(np.asarray(u1, dtype=float) - u2, 2.0 * math.pi))
    return np.minimum(d, 2.0 * math.pi - d)


def projective_action(g, alpha) -> np.ndarray:
    """Image line angle of the line at angle alpha under g."""
    g = np.asarray(g, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    c, s = np.cos(alpha), np.sin(alpha)
    wx = g[..., 0, 0] * c + g[..., 0, 1] * s
    wy = g[..., 1, 0] * c + g[..., 1, 1] * s
    return canon_line(np.arctan2(wy, wx))


def angle_drift_gap(g, alpha1, alpha2):
    """One-step log-sine angle drift and its norm bound.

    Returns ``(lhs, rhs)`` where ``lhs = |log sin angle(g x1, g x2) -
    log sin angle(x1, x2)|`` and ``rhs = log ||g|| + log ||g^-1||``.
    The contract ``lhs <= rhs`` holds for every invertible g and every
    pair of distinct lines.
    """
    theta = line_angle(alpha1, alpha2)
    if np.any(theta == 0.0):
        raise DegenerateSplitting("angle drift needs two distinct lines")
    s1, s2, _, _ = svd2(g)
    img1 = projective_action(g, alpha1)
    img2 = projective_action(g, alpha2)
    theta_img = line_angle(img1, img2)
    lhs = np.abs(np.log(np.sin(theta_img)) - np.log(np.sin(theta)))
    rhs = np.log(s1) - np.log(s2)
    return lhs, rhs


def _unit_columns(u1, u2) -> np.ndarray:
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    out = np.empty(np.broadcast(u1, u2).shape + (2, 2))
    out[..., 0, 0] = np.cos(u1)
    out[..., 1, 0] = np.sin(u1)
    out[..., 0, 1] = np.cos(u2)
    out[..., 1, 1] = np.sin(u2)
    return out


def interp_matrix(source: UnitVectorPair, target: UnitVectorPair) -> np.ndarray:
    """The unique matrix sending source unit vectors to target unit vectors.

    Solves ``M [u1 u2] = [v1 v2]`` in closed form.  Either pair with gap
    sine below 1e-12 raises IllConditionedPair.
    """
    for pair in (source, target):
        if np.any(np.abs(np.sin(np.asarray(pair[0]) - pair[1])) < GAP_SINE_FLOOR):
            raise IllConditionedPair("unit-vector pair is numerically collinear")
    u = _unit_columns(source[0], source[1])
    v = _unit_columns(target[0], target[1])
    return v @ inv2(u)


def interp_singular_values(theta, theta_prime):
    """Singular values of the pair-to-pair map, from the gap angles alone.

    For vector-angle gaps theta (source) and theta_prime (target), both in
    (0, pi), the two gains are ``sin(theta'/2)/sin(theta/2)`` and
    ``cos(theta'/2)/cos(theta/2)`` (unordered).
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta >= math.pi) or np.any(
        theta_prime <= 0.0
    ) or np.any(theta_prime >= math.pi):
        raise DegeneratePair("gap angles must lie strictly inside (0, pi)")
    return (
        np.sin(theta_prime / 2.0) / np.sin(theta / 2.0),
        np.cos(theta_prime / 2.0) / np.cos(theta / 2.0),
    )


def splitting(x1, x2) -> SplittingPair:
    """Canonicalize two line angles (or arrays of them, pair by pair) into a
    SplittingPair; the lines of every pair must differ."""
    a1 = canon_line(x1)
    a2 = canon_line(x2)
    if np.any(line_angle(a1, a2) == 0.0):
        raise DegenerateSplitting("splitting needs two distinct lines")
    return SplittingPair(a1, a2)


def gap_angle(x: SplittingPair) -> np.ndarray:
    """Gap angle of a splitting, in (0, pi/2]."""
    return line_angle(x[0], x[1])


def canonical_lift(x: SplittingPair) -> UnitVectorPair:
    """Canonical unit-vector representatives of a splitting.

    Takes each line's representative with angle in [0, pi) and flips the
    second one's sign when the vector angle exceeds pi/2, so the vector
    angle of the result equals the gap angle of the splitting.
    """
    a1 = canon_line(x[0])
    a2 = canon_line(x[1])
    if np.any(line_angle(a1, a2) == 0.0):
        raise DegenerateSplitting("canonical lift of a degenerate splitting")
    # adding 0 to an angle in [0, pi) leaves it exact under canon_vector
    flip = vector_angle(a1, a2) > math.pi / 2.0
    return UnitVectorPair(a1, canon_vector(a2 + math.pi * flip))


def eigen_matrix(x: SplittingPair, log_eig1: float, log_eig2: float) -> np.ndarray:
    """Matrix with eigenlines x1, x2 and eigenvalues exp(log_eig1), exp(log_eig2)."""
    if log_eig1 == log_eig2:
        return math.exp(log_eig1) * np.eye(2)
    u1, u2 = canonical_lift(x)
    if abs(math.sin(u1 - u2)) < GAP_SINE_FLOOR:
        raise IllConditionedPair("eigenlines are numerically collinear")
    p = _unit_columns(u1, u2)
    d = np.array([[math.exp(log_eig1), 0.0], [0.0, math.exp(log_eig2)]])
    return p @ d @ inv2(p)


def transfer_cost_bounded(theta, theta_prime) -> np.ndarray:
    """Symmetric travel cost: |log sin(theta'/2) - log sin(theta/2)|.

    theta and theta' are the gap angles (each in (0, pi/2]) of a splitting
    and of its successor.  Vanishes iff the gaps agree; equals log_norm_max
    of the canonical pair-to-pair map.  Array-generic in the gap angles,
    like transfer_cost_general.
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    return np.abs(np.log(np.sin(theta_prime / 2.0)) - np.log(np.sin(theta / 2.0)))


def transfer_cost_general(theta, theta_prime, psi1: float, psi2: float) -> np.ndarray:
    """Worst-lift cost of moving a splitting x of gap theta, with log-gains
    psi1, psi2, to a splitting y of gap theta_prime: the largest log_norm_max
    of interp_matrix(xt, yt) @ eigen_matrix(x, psi1, psi2) over the 16 pairs
    of unit-vector lifts xt, yt.  Only the gaps matter: rotating x or y alone
    multiplies that matrix by a rotation, an isometry, and in the lift frames
    U, V it is V diag(+-e^psi1, +-e^psi2) U^-1, where an overall sign keeps
    norms, leaving two sign patterns.  Array-generic in the gap angles (each
    in (0, pi/2]), like interp_singular_values.  The flexible build passes
    its centred log-gains +-(r1 - r2) / 2, which its precision limit keeps
    below about 7.7 in magnitude, so e^psi is an ordinary float.
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    u = _unit_columns(np.zeros_like(theta), theta)
    v = _unit_columns(np.zeros_like(theta_prime), theta_prime)
    u_inv = inv2(u)
    log_det = np.log(np.sin(theta_prime)) - np.log(np.sin(theta)) + psi1 + psi2
    best = None
    for sign in (1.0, -1.0):
        d = np.array([[math.exp(psi1), 0.0], [0.0, sign * math.exp(psi2)]])
        m = v @ (d @ u_inv)
        log_s1 = np.log(top_singular(m))
        # log ||m^-1|| = log s1 - log |det m|, stable even when s2 underflows
        val = np.maximum(log_s1, log_s1 - log_det)
        best = val if best is None else np.maximum(best, val)
    return best
