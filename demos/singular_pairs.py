"""Closed-form 2x2 singular geometry, pair maps, and travel costs.

Walks through the building blocks: exact SVD of a 2x2 matrix without
iteration, the matrix that carries one pair of directions onto another,
what that transport costs, and the one-step bound on how fast a matrix
can change the angle between two lines.
"""

import math

import numpy as np

from oseledets import gl2

rng = np.random.default_rng(1)

print("== closed-form svd of a random matrix ==")
g = rng.normal(size=(2, 2))
sv = gl2.svd2(g)
print(f"g =\n{g}")
print(f"s1 = {sv.s1:.6f}  s2 = {sv.s2:.6f}  (numpy: {np.linalg.svd(g)[1]})")
print(f"left line  = {sv.left:.6f} rad")
print(f"right line = {sv.right:.6f} rad")
# the defining property: g maps the right singular direction onto the
# left one, stretched by exactly s1
u = np.array([math.cos(sv.right), math.sin(sv.right)])
img = g @ u
print(f"|g u_right| = {np.hypot(*img):.6f} vs s1 = {sv.s1:.6f}")

print()
print("== transporting one splitting onto another ==")
x = gl2.splitting(0.3, 1.1)  # two lines, gap 0.8
y = gl2.splitting(0.5, 0.9)  # two lines, gap 0.4
m = gl2.interp_matrix(gl2.canonical_lift(x), gl2.canonical_lift(y))
print(f"carrier matrix m =\n{m}")
print(f"m sends {x.x1:.2f} -> {float(gl2.projective_action(m, x.x1)):.2f} (want {y.x1:.2f})")
print(f"        {x.x2:.2f} -> {float(gl2.projective_action(m, x.x2)):.2f} (want {y.x2:.2f})")
cost = gl2.transfer_cost_bounded(gl2.gap_angle(x), gl2.gap_angle(y))
print(f"travel cost |log sin ratio| = {cost:.6f}")
print(f"max(log|m|, log|m^-1|)     = {float(gl2.log_norm_max(m)):.6f} (equal)")
# the cost depends only on the two gap angles, not on where the lines sit
vals = gl2.interp_singular_values(gl2.gap_angle(x), gl2.gap_angle(y))
print(f"singular values from gaps alone: {max(vals):.6f}, {min(vals):.6f}")

print()
print("== one-step angle drift bound ==")
# |log sin(gap after) - log sin(gap before)| <= 2 max(log|g|, log|g^-1|)
# for any matrix and any pair of lines; sample it, all cases in one array call
g = rng.normal(size=(100_000, 2, 2))
g = g[np.abs(gl2.det2(g)) >= 1e-6]
a1 = rng.uniform(0.0, math.pi, len(g))
a2 = gl2.canon_line(a1 + rng.uniform(0.01, math.pi / 2, len(g)))
lhs, rhs = gl2.angle_drift_gap(g, a1, a2)
worst = float(np.min(rhs - lhs))
print(f"min slack (bound - drift) over 1e5 random cases: {worst:.6f} (>= 0)")
