"""Tests for the prescribed-splitting construction.

Oracles: budget feasibility against the exhaustive bipartition search of
verify.py; chain contracts re-checked from interval endpoints; travel costs
against its 16-lift enumeration; exponents and directions against the values the
construction prescribes by design.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oseledets import flexible as fx
from oseledets import gl2, skyscraper, verify
from oseledets.cocycle import TREE_BLOCK, OrbitWindow
from oseledets import estimation
from oseledets.estimation import NoData, estimate_E1_backward, estimate_E2_forward
from oseledets.flexible import (
    BadEtaSpec,
    Cell,
    ConstructionReport,
    EtaSpec,
    TailRule,
    UnboundedGap,
    atom_cell,
    budget_fit_check,
    decompose_eta,
    march_chain,
    piece_cost_caps,
    simulate_blocks,
    simulate_flexible,
    step_costs,
    uniform_cell,
    verify_flexible,
)

TWO_CELL = EtaSpec(
    pieces=(
        (0.6, uniform_cell(0.2, 0.9, 0.4, 0.6)),
        (0.4, uniform_cell(1.5, 2.2, 0.9, 1.1)),
    )
)

FOUR_CELL = EtaSpec(
    pieces=(
        (0.4, uniform_cell(0.1, 0.8, 0.30, 0.50)),
        (0.3, uniform_cell(1.0, 1.7, 0.50, 0.70)),
        (0.2, uniform_cell(1.9, 2.6, 0.80, 1.00)),
        (0.1, uniform_cell(2.7, 3.1, 1.20, 1.40)),
    )
)

ATOM = EtaSpec(pieces=((1.0, atom_cell(0.7, math.pi / 3)),))


def u_of(theta):
    return math.log(math.sin(theta / 2.0))


# ---------------------------------------------------------------------------
# cells and mixture specs


def test_cell_validation():
    with pytest.raises(BadEtaSpec):
        Cell(0.5, 0.2, 0.3, 0.4)  # alpha_hi < alpha_lo
    with pytest.raises(BadEtaSpec):
        Cell(0.0, 0.5, 0.0, 0.4)  # theta_lo must be positive
    with pytest.raises(BadEtaSpec):
        Cell(0.0, 0.5, 0.3, 2.0)  # theta_hi above pi/2
    with pytest.raises(BadEtaSpec):
        Cell(-0.1, 0.5, 0.3, 0.4)
    with pytest.raises(BadEtaSpec):
        Cell(0.0, math.nan, 0.3, 0.4)


def test_cell_atom_and_interval_properties():
    a = atom_cell(0.7, 0.5)
    assert a.is_atom and a.u_lo == a.u_hi == u_of(0.5)
    c = uniform_cell(0.1, 0.2, 0.3, 0.4)
    assert not c.is_atom
    assert c.u_lo == u_of(0.3) and c.u_hi == u_of(0.4)
    assert bool(c.contains(0.15, 0.35)) and not bool(c.contains(0.15, 0.5))


def test_cell_sampling_stays_inside():
    rng = np.random.default_rng(0)
    c = uniform_cell(0.1, 0.2, 0.3, 0.4)
    alpha, theta = c.sample(rng, 1000)
    assert np.all(c.contains(alpha, theta))
    a, t = atom_cell(0.7, 0.5).sample(rng, 5)
    assert np.all(a == 0.7) and np.all(t == 0.5)


def test_eta_spec_validation():
    with pytest.raises(BadEtaSpec):
        EtaSpec(pieces=((0.5, atom_cell(0.3, 0.4)),))  # mass 0.5, not 1
    with pytest.raises(BadEtaSpec):
        EtaSpec(pieces=((1.0, atom_cell(0.3, 0.4)), (-0.1, atom_cell(0.5, 0.6))))
    with pytest.raises(BadEtaSpec):
        EtaSpec(pieces=((1.0, (0.3, 0.3, 0.4, 0.4)),))  # a cell must be a Cell
    assert all(isinstance(p, fx.Piece) for p in TWO_CELL.pieces)


def test_eta_spec_json_round_trip():
    again = EtaSpec.from_json(TWO_CELL.to_json())
    assert again == TWO_CELL
    tail = EtaSpec(
        pieces=((0.5, atom_cell(0.3, 0.4)),),
        tail_rule=TailRule(0.25, 0.5, uniform_cell(0.1, 0.2, 0.3, 0.5), 0.8),
    )
    assert EtaSpec.from_json(tail.to_json()) == tail


def test_tail_rule_truncates_at_certified_residual():
    # tail masses 0.25 * 2^-j on shrinking cells; explicit piece takes 0.75
    tail = TailRule(0.125, 0.5, uniform_cell(0.1, 0.2, 0.3, 0.5), 0.9)
    eta = EtaSpec(pieces=((0.75, atom_cell(0.3, 0.4)),), tail_rule=tail)
    pieces = decompose_eta(eta)
    weights = [p.weight for p in pieces]
    assert abs(math.fsum(weights) - 1.0) <= 1e-15
    # truncation: residual below 1e-12 folded into the last kept piece
    assert len(pieces) < 60
    assert weights[-1] > weights[-2] / 2.0  # the fold made it heavier
    # theta edges shrink geometrically
    assert pieces[2].cell.theta_hi == pytest.approx(0.5 * 0.9)
    assert pieces[-1].cell.theta_lo > 0.0


def test_decompose_orders_and_accumulates():
    pieces = decompose_eta(TWO_CELL)
    assert [p.weight for p in pieces] == [0.6, 0.4]
    assert [p.cell for p in pieces] == [cell for _, cell in TWO_CELL.pieces]


def test_decompose_single_cell():
    pieces = decompose_eta(ATOM)
    assert len(pieces) == 1 and pieces[0].cell == ATOM.pieces[0][1]


def test_decompose_drops_zero_mass_with_warning():
    eta = EtaSpec(
        pieces=((0.6, atom_cell(0.3, 0.4)), (0.0, atom_cell(0.5, 0.6)),
                (0.4, atom_cell(0.7, 0.8)))
    )
    with pytest.warns(UserWarning):
        pieces = decompose_eta(eta)
    assert [p.weight for p in pieces] == [0.6, 0.4]


# ---------------------------------------------------------------------------
# budget feasibility


def test_budget_single_atom_always_fits():
    for b in (1e-9, 0.1, 10.0):
        assert budget_fit_check(ATOM, b) == (True, None)


def test_budget_two_atom_threshold():
    # gaps pi/2 and pi/6: cost |log sin(pi/4) - log sin(pi/12)| = log(1+sqrt 3)
    eta = EtaSpec(
        pieces=((0.5, atom_cell(0.3, math.pi / 2)), (0.5, atom_cell(1.1, math.pi / 6)))
    )
    b_star = math.log(1.0 + math.sqrt(3.0))
    assert budget_fit_check(eta, b_star + 1e-9).fits
    res = budget_fit_check(eta, b_star - 1e-9)
    assert not res.fits and res.witness == ((0,), (1,))


def test_budget_checker_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(2, 8))
        cells, weights = [], rng.dirichlet(np.ones(n))
        for _ in range(n):
            lo = float(rng.uniform(0.05, 1.2))
            hi = float(rng.uniform(lo, min(lo + 0.4, math.pi / 2)))
            cells.append(uniform_cell(0.1, 0.3, lo, hi))
        eta = EtaSpec(pieces=tuple(zip(weights, cells)))
        cut = verify._min_cut_value(cells)
        for b in (0.05, 0.2, 0.7, 2.0):
            got = budget_fit_check(eta, b)
            assert got.fits == (cut < b)
            if not got.fits:
                # every crossing pair of the witness really is out of budget
                a_side, b_side = got.witness
                for i in a_side:
                    for j in b_side:
                        gap = fx._interval_gap(
                            cells[i].u_lo, cells[i].u_hi,
                            cells[j].u_lo, cells[j].u_hi,
                        )
                        assert gap >= b


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        budget_fit_check(ATOM, 0.0)


# ---------------------------------------------------------------------------
# the chain


def chain_contracts(chain, pieces, b):
    """Re-check every contract the chain promises, from raw endpoints."""
    spans = [(c.cell.u_lo, c.cell.u_hi) for c in chain]
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert max(hi1, hi2) - min(lo1, lo2) < b
    assert abs(math.fsum(c.mass for c in chain) - 1.0) <= 1e-12
    per = {}
    for c in chain:
        assert c.mass > 0.0
        host = pieces[c.piece].cell
        assert host.alpha_lo <= c.cell.alpha_lo <= c.cell.alpha_hi <= host.alpha_hi
        assert host.theta_lo - 1e-12 <= c.cell.theta_lo
        assert c.cell.theta_hi <= host.theta_hi + 1e-12
        per[c.piece] = per.get(c.piece, 0.0) + c.mass
    for n, p in enumerate(pieces):
        assert per[n] == pytest.approx(p.weight, abs=1e-12)


def test_march_single_small_cell_is_itself():
    pieces = decompose_eta(ATOM)
    chain = march_chain(pieces, 0.5)
    assert len(chain) == 1
    assert chain[0] == (pieces[0].cell, 1.0, 0)


def test_march_three_cell_path_graph():
    cells = [
        uniform_cell(0.1, 0.5, 0.30, 0.38),
        uniform_cell(0.8, 1.2, 0.50, 0.60),
        uniform_cell(1.5, 1.9, 0.85, 1.00),
    ]
    gaps = [
        fx._interval_gap(cells[i].u_lo, cells[i].u_hi, cells[j].u_lo, cells[j].u_hi)
        for i, j in ((0, 1), (1, 2), (0, 2))
    ]
    b = 0.9 * gaps[2]
    assert max(gaps[0], gaps[1]) < b  # a path graph, not a triangle
    pieces = decompose_eta(EtaSpec(pieces=((0.5, cells[0]), (0.3, cells[1]), (0.2, cells[2]))))
    chain = march_chain(pieces, b)
    chain_contracts(chain, pieces, b)
    assert {c.piece for c in chain} == {0, 1, 2}


def test_march_wide_cell_pre_splits():
    eta = EtaSpec(pieces=((1.0, uniform_cell(0.2, 2.8, 0.02, 1.5)),))
    pieces = decompose_eta(eta)
    b = 0.8
    chain = march_chain(pieces, b)
    span = pieces[0].cell.u_hi - pieces[0].cell.u_lo
    assert len(chain) >= math.ceil(span / (fx.SLICE_SPAN_FRACTION * b))
    chain_contracts(chain, pieces, b)
    # nondegenerate rectangles: the chain is genuinely pairwise disjoint
    for i in range(len(chain)):
        ci = chain[i].cell
        for j in range(i + 1, len(chain)):
            cj = chain[j].cell
            overlap = (
                ci.alpha_lo < cj.alpha_hi and cj.alpha_lo < ci.alpha_hi
                and ci.theta_lo < cj.theta_hi and cj.theta_lo < ci.theta_hi
            )
            assert not overlap


def test_march_mixed_atoms_and_cells():
    eta = EtaSpec(
        pieces=(
            (0.5, atom_cell(0.4, 0.30)),
            (0.3, uniform_cell(0.9, 1.4, 0.32, 0.60)),
            (0.2, atom_cell(2.0, 0.55)),
        )
    )
    pieces = decompose_eta(eta)
    chain = march_chain(pieces, 0.7)
    chain_contracts(chain, pieces, 0.7)
    assert {c.piece for c in chain} == {0, 1, 2}


def test_march_unbounded_gap_carries_witness():
    eta = EtaSpec(
        pieces=((0.5, atom_cell(0.3, 1.5)), (0.5, atom_cell(0.9, 0.01)))
    )
    pieces = decompose_eta(eta)
    with pytest.raises(UnboundedGap) as err:
        march_chain(pieces, 0.5)
    assert err.value.witness == ((0,), (1,))


def test_march_rejects_bad_args():
    with pytest.raises(ValueError):
        march_chain([], 0.5)
    with pytest.raises(ValueError):
        march_chain(decompose_eta(ATOM), 0.0)


# a wide cell down to gap angle 1e-6 beside a narrow one, 0.2 apart in u
WIDE_TINY = EtaSpec(
    pieces=(
        (0.6, uniform_cell(0.1, 0.8, 1e-6, 0.5)),
        (0.4, uniform_cell(1.0, 1.7, 0.6, 0.9)),
    )
)


def test_march_wide_tiny_angle_chain_refines_to_few_labels():
    b = 0.5
    pieces = decompose_eta(WIDE_TINY)
    chain = march_chain(pieces, b)
    chain_contracts(chain, pieces, b)
    masses = [c.mass for c in chain]
    # counted first: a chain that refines into millions of labels fails here
    # instead of exhausting memory in refine_weights
    count = skyscraper.refined_size(masses)
    assert count < 1000
    values, _ = skyscraper.refine_weights(masses)
    assert len(values) == count
    w = simulate_flexible(WIDE_TINY, 0.5, -0.5, "bounded", 20000, seed=3, budget=b)
    assert np.all(step_costs(w, "bounded", 0.5, -0.5) < b)
    for j in (0, 1):
        img = gl2.projective_action(w.matrices, w.prescribed_f[:, j])
        assert float(gl2.line_angle(img[:-1], w.prescribed_f[1:, j]).max()) < 1e-9


@st.composite
def mixtures_and_budgets(draw):
    """1-5 cells with gap angles down to 1e-6, some of them gap-angle atoms
    or of zero alpha width, and a budget below, at or above the min cut."""
    cells = []
    for _ in range(draw(st.integers(1, 5))):
        t0 = math.exp(draw(st.floats(math.log(1e-6), math.log(math.pi / 2))))
        t1 = t0 if draw(st.booleans()) else min(math.pi / 2, t0 * math.exp(draw(st.floats(0.0, 4.0))))
        a0 = draw(st.floats(0.0, 3.0))
        a1 = a0 if draw(st.booleans()) else draw(st.floats(a0, math.pi))
        cells.append(uniform_cell(a0, a1, t0, t1))
    ks = draw(st.lists(st.integers(1, 9), min_size=len(cells), max_size=len(cells)))
    eta = EtaSpec(pieces=tuple((k / sum(ks), c) for k, c in zip(ks, cells)))
    cut = verify._min_cut_value(cells)
    scale = draw(st.one_of(st.floats(0.2, 0.99), st.just(1.0), st.floats(1.01, 3.0)))
    # at least 0.02, so a 14-wide u-range cuts into some 1600 bands at most
    return eta, max(cut * scale, 0.02), cut


@settings(max_examples=200, deadline=timedelta(seconds=5), database=None)
@seed(20190)
@given(mixtures_and_budgets())
def test_march_chain_property(case):
    eta, b, cut = case
    pieces = decompose_eta(eta)
    fit = budget_fit_check(eta, b)
    assert fit.fits == (cut < b)
    try:
        chain = march_chain(pieces, b)
    except UnboundedGap as err:
        assert not fit.fits and err.witness == fit.witness
        return
    assert fit.fits
    chain_contracts(chain, pieces, b)


# ---------------------------------------------------------------------------
# log-gains


def assemble_F(f_now, f_next, c1, c2):
    """One step at a time: the eigen-matrix of f_now with log-eigenvalues
    (c1, c2), then the unit-frame map from f_now's canonical lift to
    f_next's (simulate_flexible builds the same matrices batched)."""
    psi_mat = gl2.eigen_matrix(f_now, c1, c2)
    phi = gl2.interp_matrix(gl2.canonical_lift(f_now), gl2.canonical_lift(f_next))
    return phi @ psi_mat


def test_assemble_F_covariance_and_restricted_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        t1, t2 = rng.uniform(0.25, math.pi / 2, 2)
        f_now = gl2.splitting(a1, gl2.canon_line(a1 + t1))
        f_next = gl2.splitting(a2, gl2.canon_line(a2 + t2))
        m = assemble_F(f_now, f_next, 0.5, -0.5)
        assert float(gl2.line_angle(gl2.projective_action(m, f_now.x1), f_next.x1)) < 1e-10
        assert float(gl2.line_angle(gl2.projective_action(m, f_now.x2), f_next.x2)) < 1e-10
        # the restriction to x1 gains exactly e^c1
        u1 = gl2.canonical_lift(f_now)[0]
        gain = np.linalg.norm(m @ np.array([math.cos(u1), math.sin(u1)]))
        assert math.log(gain) == pytest.approx(0.5, abs=1e-10)


def test_general_cost_matches_lift_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(100):
        th, thp = rng.uniform(0.05, math.pi / 2, 2)
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        r2, r1 = np.sort(rng.uniform(-1.5, 1.5, 2))
        x = gl2.splitting(a1, gl2.canon_line(a1 + th))
        y = gl2.splitting(a2, gl2.canon_line(a2 + thp))
        ref = verify._lift_cost(x, y, float(r1), float(r2))
        got = float(gl2.transfer_cost_general(th, thp, float(r1), float(r2)))
        assert got == pytest.approx(ref, abs=1e-10)


def test_piece_cost_caps_dominate_and_grow():
    pieces = decompose_eta(FOUR_CELL)
    caps = piece_cost_caps(pieces, 0.5, -0.5)
    assert np.all(np.diff(caps) >= 0.0)
    rng = np.random.default_rng(5)
    for n in range(len(pieces)):
        for i in range(n + 1):
            ti = rng.uniform(pieces[i].cell.theta_lo, pieces[i].cell.theta_hi, 200)
            tn = rng.uniform(pieces[n].cell.theta_lo, pieces[n].cell.theta_hi, 200)
            assert float(gl2.transfer_cost_general(ti, tn, 0.5, -0.5).max()) <= caps[n]
            assert float(gl2.transfer_cost_general(tn, ti, 0.5, -0.5).max()) <= caps[n]


def test_piece_cost_caps_exact_for_atoms():
    eta = EtaSpec(pieces=((0.5, atom_cell(0.3, 0.4)), (0.5, atom_cell(0.9, 1.2))))
    pieces = decompose_eta(eta)
    caps = piece_cost_caps(pieces, 0.5, -0.5)
    assert caps[0] == 0.0  # a single atom travels only to itself
    expect = max(
        float(gl2.transfer_cost_general(0.4, 1.2, 0.5, -0.5)),
        float(gl2.transfer_cost_general(1.2, 0.4, 0.5, -0.5)),
    )
    assert caps[1] == expect


def unshifted_cost_general(theta, theta_prime, psi1: float, psi2: float) -> np.ndarray:
    """gl2.transfer_cost_general without its log-form shift: e^psi1 and
    e^psi2 enter the diagonal as they are, the reference for |psi| <= 700."""
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    u_inv = gl2.inv2(gl2._unit_columns(np.zeros_like(theta), theta))
    v = gl2._unit_columns(np.zeros_like(theta_prime), theta_prime)
    log_det = np.log(np.sin(theta_prime)) - np.log(np.sin(theta)) + psi1 + psi2
    best = None
    for sign in (1.0, -1.0):
        d = np.array([[math.exp(psi1), 0.0], [0.0, sign * math.exp(psi2)]])
        log_s1 = np.log(gl2.top_singular(v @ (d @ u_inv)))
        val = np.maximum(log_s1, log_s1 - log_det)
        best = val if best is None else np.maximum(best, val)
    return best


def test_general_cost_keeps_its_bits_inside_the_float_range():
    rng = np.random.default_rng(21)
    th, thp = rng.uniform(0.1, math.pi / 2, (2, 500))
    for psi1 in (0.5, 1.5, 353.0, 699.0, 700.0, -350.0, -686.0):
        for gap in (0.0, 1.0, 14.0):  # every psi2 within [-700, 700]
            got = gl2.transfer_cost_general(th, thp, psi1, psi1 - gap)
            np.testing.assert_array_equal(got, unshifted_cost_general(th, thp, psi1, psi1 - gap))


def shifted_lift_cost(x, y, psi1: float, psi2: float) -> float:
    """verify._lift_cost with both log-gains shifted by c = max(psi1, psi2)
    by hand: svd2 of each shifted lift matrix, c added back to each log
    singular value."""
    c = max(psi1, psi2)
    psi = gl2.eigen_matrix(x, psi1 - c, psi2 - c)
    flips = [np.array([i, j]) * math.pi for i in (0, 1) for j in (0, 1)]
    xs = [gl2.canonical_lift(x) + f for f in flips]
    ys = [gl2.canonical_lift(y) + f for f in flips]
    best = -math.inf
    for xt in xs:
        for yt in ys:
            s1, s2, _, _ = gl2.svd2(gl2.interp_matrix(xt, yt) @ psi)
            best = max(best, math.log(float(s1)) + c, -(math.log(float(s2)) + c))
    return best


@pytest.mark.parametrize("rates", [(800.0, 799.0), (-800.0, -801.0)])
def test_general_cost_past_the_float_range(rates):
    rng = np.random.default_rng(22)
    for _ in range(50):
        th, thp = rng.uniform(0.05, math.pi / 2, 2)
        a1, a2 = rng.uniform(0.0, math.pi, 2)
        x = gl2.splitting(a1, gl2.canon_line(a1 + th))
        y = gl2.splitting(a2, gl2.canon_line(a2 + thp))
        got = float(gl2.transfer_cost_general(th, thp, *rates))
        assert math.isfinite(got)
        assert got == pytest.approx(shifted_lift_cost(x, y, *rates), abs=1e-9)


def test_lowcost_costs_past_the_float_range():
    # atom cells take the exact cost in piece_cost_caps; the window's
    # splitting changes take it in step_costs
    eta = EtaSpec(pieces=((0.5, atom_cell(0.3, 0.4)), (0.5, atom_cell(0.9, 1.2))))
    caps = piece_cost_caps(decompose_eta(eta), 800.0, 799.0)
    assert caps[0] == 0.0 and math.isfinite(caps[1]) and caps[1] > 799.0
    w = simulate_flexible(eta, 800.0, 799.0, "lowcost", 20000, seed=4, epsilon=1.0)
    cost = step_costs(w, "lowcost", 800.0, 799.0)
    assert np.count_nonzero(cost) > 1 and np.all(np.isfinite(cost)) and cost.max() <= caps[1]


def test_scaled_build_matches_stepwise_assembly():
    # rates just past max(r1, -r2) = 353.7, where the build first moves
    # e^r1 into a log-scale (smallest gap angle 0.3) but F is still finite
    eta = EtaSpec(pieces=((0.6, uniform_cell(0.1, 0.8, 0.3, 0.5)),
                          (0.4, uniform_cell(1.0, 1.7, 0.6, 0.9))))
    w = simulate_flexible(eta, 355.0, 354.0, "bounded", 1000, seed=5, budget=0.5)
    assert np.all(w.log_scales == 355.0)
    for i in range(len(w) - 1):
        f = assemble_F(gl2.splitting(*w.prescribed_f[i]), gl2.splitting(*w.prescribed_f[i + 1]),
                       355.0, 354.0)
        got = math.exp(355.0) * w.matrices[i]
        assert float(np.abs(got - f).max()) <= 1e-12 * float(np.abs(f).max())
        assert w.log_dets[i] == pytest.approx(np.linalg.slogdet(f)[1], abs=1e-12)


def pairwise_cost_cap(x: Cell, y: Cell, r1: float, r2: float) -> float:
    """Reference cap from cell x to cell y, one pair at a time: the exact
    cost between atoms (0 between identical ones), else the bound at the
    cells' lower gap angles."""
    if x.is_atom and y.is_atom:
        if x.alpha_lo == y.alpha_lo and x.theta_lo == y.theta_lo:
            return 0.0
        return float(gl2.transfer_cost_general(x.theta_lo, y.theta_lo, r1, r2))
    lsin_x, lcos_x = math.log(math.sin(x.theta_lo / 2.0)), math.log(math.cos(x.theta_lo / 2.0))
    lsin_y, lcos_y = math.log(math.sin(y.theta_lo / 2.0)), math.log(math.cos(y.theta_lo / 2.0))
    return max(r1 + lcos_y - lsin_x, -r2 + lcos_x - lsin_y)


def pairwise_cost_caps(cells, r1, r2) -> list[float]:
    caps, best = [], 0.0
    for n, y in enumerate(cells):
        for x in cells[: n + 1]:
            best = max(best, pairwise_cost_cap(x, y, r1, r2), pairwise_cost_cap(y, x, r1, r2))
        caps.append(best)
    return caps


@st.composite
def cells_with_repeats(draw):
    """1-12 cells: atoms, rectangles, and repeats of earlier cells."""
    cells = []
    for _ in range(draw(st.integers(1, 12))):
        if cells and draw(st.booleans()):
            cells.append(cells[draw(st.integers(0, len(cells) - 1))])
            continue
        t0 = math.exp(draw(st.floats(math.log(1e-6), math.log(math.pi / 2))))
        a0 = draw(st.floats(0.0, math.pi))
        if draw(st.booleans()):
            cells.append(atom_cell(a0, t0))
        else:
            cells.append(uniform_cell(a0, draw(st.floats(a0, math.pi)), t0,
                                      draw(st.floats(t0, math.pi / 2))))
    return cells


@settings(max_examples=200, deadline=timedelta(seconds=5), database=None)
@seed(20264)
@given(cells_with_repeats(), st.floats(-3.0, 3.0), st.floats(0.0, 4.0))
def test_piece_cost_caps_match_pairwise_reference(cells, r2, gap):
    pieces = [fx.Piece(1.0, cell) for cell in cells]
    got = piece_cost_caps(pieces, r2 + gap, r2)
    assert got.tolist() == pairwise_cost_caps(cells, r2 + gap, r2)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_batched_matches_assemble_F():
    # TWO_CELL's weights sum to 1, so the log-gains are the rates themselves
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 60, seed=6, budget=0.6)
    x1 = w.prescribed_f[:, 0]
    x2 = w.prescribed_f[:, 1]
    for i in range(len(w) - 1):
        f_now = gl2.splitting(x1[i], x2[i])
        f_next = gl2.splitting(x1[i + 1], x2[i + 1])
        np.testing.assert_allclose(
            w.matrices[i], assemble_F(f_now, f_next, 0.5, -0.5), atol=1e-12
        )


def test_simulate_bounded_contracts():
    b = 0.5
    w = simulate_flexible(FOUR_CELL, 0.5, -0.5, "bounded", 30000, seed=7, budget=b)
    assert len(w) == 30000 and w.offset == -15000
    costs = step_costs(w, "bounded", 0.5, -0.5)
    assert np.all(costs < b)  # hard, every step
    assert np.all(np.abs(np.diff(w.labels)) <= 1)
    # every step's splitting lies in the chain cell its label owns
    chain = march_chain(decompose_eta(FOUR_CELL), b)
    _, owners = skyscraper.refine_weights([c.mass for c in chain])
    x1 = w.prescribed_f[:, 0]
    theta = gl2.line_angle(x1, w.prescribed_f[:, 1])
    for j, sub in enumerate(chain):
        mask = owners[w.labels] == j
        assert np.all(sub.cell.contains(x1[mask], theta[mask]))


def test_simulate_bounded_prescribed_lines_are_carried():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 500, seed=8, budget=0.6)
    for j in (0, 1):
        img = gl2.projective_action(w.matrices, w.prescribed_f[:, j])
        miss = gl2.line_angle(img[:-1], w.prescribed_f[1:, j])
        assert float(miss.max()) < 1e-9


def test_broken_carry_is_a_contract_violation_under_python_optimize():
    # -O strips assert statements; the runtime contracts must still raise
    code = textwrap.dedent("""
        from oseledets import flexible, gl2, skyscraper
        from oseledets.verify import _FOUR_CELL

        real = gl2.projective_action
        gl2.projective_action = lambda g, alpha: real(g, alpha) + 0.1
        try:
            flexible.simulate_flexible(
                _FOUR_CELL, 0.5, -0.5, "bounded", 500, seed=1, budget=0.5
            )
        except skyscraper.ContractViolation as err:
            print(err)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "prescribed line not carried"


def test_simulate_parallelogram_inequality_along_orbit():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 2000, seed=9, budget=0.6)
    lhs, rhs = gl2.angle_drift_gap(
        w.matrices, w.prescribed_f[:, 0], w.prescribed_f[:, 1]
    )
    assert float((rhs - lhs).min()) >= -1e-9


def test_simulate_deterministic_in_seed():
    a = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 300, seed=10, budget=0.6)
    b = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 300, seed=10, budget=0.6)
    c = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 300, seed=11, budget=0.6)
    assert np.array_equal(a.matrices, b.matrices)
    assert np.array_equal(a.prescribed_f, b.prescribed_f)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.matrices, c.matrices)


MODE_BOUNDS = {"bounded": {"budget": 0.5}, "lowcost": {"epsilon": 0.1}}


@pytest.mark.parametrize("mode", ["bounded", "lowcost"])
def test_step_blocks_do_not_change_window_or_report(monkeypatch, mode):
    # 2000 steps are no multiple of 3; a block above 2000 is one pass
    def run(block):
        monkeypatch.setattr(fx, "STEP_BLOCK", block)
        w = simulate_flexible(FOUR_CELL, 0.5, -0.5, mode, 2000, seed=21, **MODE_BOUNDS[mode])
        return w, verify_flexible(w, FOUR_CELL, 0.5, -0.5, mode=mode)

    whole, whole_rep = run(2001)
    for block in (1, 3):
        w, rep = run(block)
        assert np.array_equal(w.matrices, whole.matrices)
        assert np.array_equal(w.prescribed_f, whole.prescribed_f)
        assert np.array_equal(w.labels, whole.labels)
        assert rep.to_obj() == whole_rep.to_obj()
        assert rep.to_csv() == whole_rep.to_csv()


@pytest.mark.parametrize("edge", [3, 1000])
def test_budget_breach_in_one_block_is_a_contract_violation(monkeypatch, edge):
    # blocks of 3 steps: the gap angle jumps only from splitting edge - 1 to
    # edge, which only the first block (steps 0-2 read splittings 0-3) or
    # only the last block (step 999 reads splittings 999-1000) sees
    monkeypatch.setattr(fx, "STEP_BLOCK", 3)
    real = fx._draw_cells

    def jump_once(cells, idx, rng):
        alpha, theta = real(cells, idx, rng)
        theta[:edge], theta[edge:] = 0.3, 1.4  # log-sin gap apart by 1.47
        return alpha, theta

    monkeypatch.setattr(fx, "_draw_cells", jump_once)
    with pytest.raises(skyscraper.ContractViolation, match="budget exceeded"):
        simulate_flexible(FOUR_CELL, 0.5, -0.5, "bounded", 1000, seed=22, budget=0.5)


def _masked_draw_cells(cells, idx, rng):
    """_draw_cells by one full-window mask per cell: O(cells x steps)."""
    alpha = np.empty(idx.size)
    theta = np.empty(idx.size)
    for j, cell in enumerate(cells):
        mask = idx == j
        hits = int(mask.sum())
        if hits:
            alpha[mask], theta[mask] = cell.sample(rng, hits)
    return alpha, theta


def test_draw_cells_matches_mask_oracle(monkeypatch):
    # gap angles 0.01 to 1.5 at budget 0.003 chain into thousands of cells
    eta = EtaSpec(pieces=((1.0, uniform_cell(0.1, 0.8, 0.01, 1.5)),))

    def run():
        return simulate_flexible(eta, 0.5, -0.5, "bounded", 20000, seed=24, budget=0.003)

    fast = run()
    monkeypatch.setattr(fx, "_draw_cells", _masked_draw_cells)
    slow = run()
    assert np.array_equal(fast.matrices, slow.matrices)
    assert np.array_equal(fast.prescribed_f, slow.prescribed_f)
    assert np.array_equal(fast.labels, slow.labels)
    # owners that skip cells, and a cell that owns nothing
    cells = [uniform_cell(0.1, 0.8, 0.3 + 0.1 * j, 0.35 + 0.1 * j) for j in range(5)]
    idx = np.random.default_rng(25).choice([0, 2, 3, 4], size=1000)
    got = fx._draw_cells(cells, idx, np.random.default_rng(26))
    want = _masked_draw_cells(cells, idx, np.random.default_rng(26))
    np.testing.assert_array_equal(got, want)


def test_flexible_peak_is_the_kept_window_plus_blocks():
    # tracemalloc counts numpy's buffers; a small run first keeps lazy
    # imports out of the count
    steps = 200_000
    bound = MODE_BOUNDS["lowcost"]
    small = simulate_flexible(FOUR_CELL, 0.5, -0.5, "lowcost", 2000, seed=23, **bound)
    verify_flexible(small, FOUR_CELL, 0.5, -0.5, mode="lowcost")
    tracemalloc.start()
    try:
        w = simulate_flexible(FOUR_CELL, 0.5, -0.5, "lowcost", steps, seed=23, **bound)
        verify_flexible(w, FOUR_CELL, 0.5, -0.5, mode="lowcost")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = w.matrices.nbytes + w.prescribed_f.nbytes + w.labels.nbytes + w.log_dets.nbytes
    # besides the window: 24 bytes per step (the gap angles, step costs and
    # one difference, or the KS statistic's sorted copy, while verifying)
    # and 2 MB of per-block arrays
    assert peak < kept + 3 * 8 * steps + 2e6, (peak, kept)


def test_block_path_peak_is_the_report_columns():
    # what osl flexible runs: no window is joined, only the blocks pass
    steps = 200_000
    bound = MODE_BOUNDS["lowcost"]

    def run(n):
        blocks = simulate_blocks(FOUR_CELL, 0.5, -0.5, "lowcost", n, seed=23, **bound)
        return verify_flexible(blocks, FOUR_CELL, 0.5, -0.5, mode="lowcost", steps=n)

    run(20_000)  # lazy imports and first-call allocations stay out of the count
    tracemalloc.start()
    try:
        run(steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # gap angle, cost and label per step (24 bytes), the forward half's
    # log|det| (4) and the KS statistic's sorted copy (8), beside 2 MB of
    # blocks and direction spans
    assert peak < 40 * steps + 2e6, peak


def window_blocks(w: OrbitWindow, edges):
    """The window as consecutive blocks [edges[i], edges[i + 1])."""
    for a, b in zip(edges, edges[1:]):
        yield OrbitWindow(w.offset + a, w.matrices[a:b], w.prescribed_f[a:b], w.labels[a:b],
                          w.seed, w.log_scales[a:b], w.log_dets[a:b])


BLOCK_MIXTURES = {
    "four_cell": FOUR_CELL,
    "one_piece": EtaSpec(pieces=((1.0, uniform_cell(0.1, 0.8, 0.3, 0.5)),)),
    # the atom's expanding line reads back as the line angle 0
    "atom_at_pi": EtaSpec(pieces=(
        (0.5, atom_cell(math.pi, 0.4)), (0.5, uniform_cell(0.1, 0.8, 0.3, 0.5)))),
}
# 410 = 2 depth + 10 at rates 1 apart; 2 TREE_BLOCK + 1555 steps start their
# forward half 777 factors into a tree block
BLOCK_STEPS = [410, fx.STEP_BLOCK - 1, fx.STEP_BLOCK, fx.STEP_BLOCK + 1, 2 * TREE_BLOCK + 1555]


@pytest.mark.filterwarnings("ignore:fewer than 1000 forward steps")
@settings(max_examples=30, deadline=None, database=None)
@seed(20221)
@given(
    name=st.sampled_from(sorted(BLOCK_MIXTURES)),
    mode=st.sampled_from(sorted(MODE_BOUNDS)),
    rates=st.sampled_from([(0.5, -0.5), (800.0, 799.0)]),
    steps=st.sampled_from(BLOCK_STEPS) | st.integers(410, 2 * fx.STEP_BLOCK + 99),
    build_seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_block_path_is_the_window_path(name, mode, rates, steps, build_seed, cuts):
    # the report of the blocks osl flexible verifies, and of the joined
    # window cut anywhere, is the report of the window, bit for bit
    eta, (r1, r2), bound = BLOCK_MIXTURES[name], rates, MODE_BOUNDS[mode]
    w = simulate_flexible(eta, r1, r2, mode, steps, build_seed, **bound)
    want = verify_flexible(w, eta, r1, r2, mode=mode)
    built = simulate_blocks(eta, r1, r2, mode, steps, build_seed, **bound)
    edges = sorted({0, steps, *(int(c * steps) for c in cuts)})
    for blocks in (built, window_blocks(w, edges)):
        got = verify_flexible(blocks, eta, r1, r2, mode=mode, steps=steps)
        assert got.to_obj() == want.to_obj()
        assert got.to_csv() == want.to_csv()
        for column in ("step_cost", "step_label", "step_theta"):
            assert np.array_equal(getattr(got, column), getattr(want, column))


@pytest.mark.filterwarnings("ignore:fewer than 1000 forward steps")
@pytest.mark.parametrize("mode", sorted(MODE_BOUNDS))
@pytest.mark.parametrize("steps,rates,block", [
    (410, (0.5, -0.5), None),  # 2 depth + 10 steps: the spans of all 11 times overlap
    (410, (0.5, -0.5), 3),  # overlapping spans across block edges
    (50_000, (0.5, -0.5), 997),  # 400-step spans 480 apart, some across an edge
    (410, (800.0, 799.0), 3),  # factors with a log-scale
])
def test_streamed_direction_lines_are_the_estimators(monkeypatch, mode, steps, rates, block):
    # agreement_fraction reads 1.0 whether or not a line drifts by a bit, so
    # compare the lines verify_flexible reads with the estimators' on the
    # joined window, for the built blocks and for random cuts of the window
    r1, r2 = rates
    depth = fx.direction_depth(r1, r2)
    if block is not None:
        monkeypatch.setattr(fx, "STEP_BLOCK", block)
    w = simulate_flexible(FOUR_CELL, r1, r2, mode, steps, seed=31, **MODE_BOUNDS[mode])
    times = dict.fromkeys(
        np.round(np.linspace(w.offset + depth, w.end - depth, num=100)).astype(int).tolist())
    want = [(estimate_E1_backward(replace(w, offset=w.offset - t), depth),
             estimate_E2_forward(replace(w, offset=w.offset - t), depth)) for t in times]

    got = {"e1": [], "e2": []}

    def recording(key, read):
        def line(product):
            got[key].append(read(product))
            return got[key][-1]
        return line

    monkeypatch.setattr(fx, "expanded_line", recording("e1", estimation.expanded_line))
    monkeypatch.setattr(fx, "contracted_line", recording("e2", estimation.contracted_line))
    cuts = np.random.default_rng(steps).integers(0, steps, 5)
    built = simulate_blocks(FOUR_CELL, r1, r2, mode, steps, seed=31, **MODE_BOUNDS[mode])
    for blocks in (built, window_blocks(w, sorted({0, steps, *cuts.tolist()}))):
        got["e1"], got["e2"] = [], []
        verify_flexible(blocks, FOUR_CELL, r1, r2, mode=mode, steps=steps)
        assert list(zip(got["e1"], got["e2"])) == want


def test_block_build_raises_before_its_first_block():
    # osl flexible maps these to exit codes before it verifies anything
    with pytest.raises(fx.BuildTooLarge):
        simulate_blocks(FOUR_CELL, 0.5, -0.5, "lowcost", 1000, epsilon=1e-9)
    with pytest.raises(UnboundedGap):
        simulate_blocks(TWO_CELL, 0.5, -0.5, "bounded", 1000, budget=0.1)
    with pytest.raises(ValueError):
        simulate_blocks(TWO_CELL, 0.5, -0.5, "nonsense", 1000, budget=1.0)


def test_verify_rejects_blocks_that_do_not_join():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 2000, seed=1, budget=0.5)
    blocks = list(window_blocks(w, [0, 1200, 2000]))
    with pytest.raises(ValueError, match="does not follow"):
        verify_flexible([blocks[0], blocks[0]], TWO_CELL, 0.5, -0.5, steps=2000)
    with pytest.raises(ValueError, match="not 2001"):
        verify_flexible(blocks, TWO_CELL, 0.5, -0.5, steps=2001)


def test_lowcost_draws_do_not_read_uninitialised_memory(monkeypatch):
    # seed 80's walk starts on a tower base, so no step falls in the segment
    # before it; the draws must not depend on what that slot holds
    pieces = decompose_eta(FOUR_CELL)
    ks = skyscraper.lowcost_heights(piece_cost_caps(pieces, 0.5, -0.5), 0.1)
    pi = skyscraper.TowerVector(dict(zip(ks, [p.weight for p in pieces])))
    _, levels = skyscraper.renewal_trajectory(pi, 10, np.random.default_rng(80))
    assert levels[0] == 0
    windows = []
    for fill in (0, 3):
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float, v=fill: np.full(shape, v, dtype))
        windows.append(simulate_flexible(FOUR_CELL, 0.5, -0.5, "lowcost", 3000, seed=80, epsilon=0.1))
    np.testing.assert_array_equal(windows[0].prescribed_f, windows[1].prescribed_f)


def test_simulate_lowcost_tower_structure():
    eps = 0.25
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "lowcost", 40000, seed=12, epsilon=eps)
    pieces = decompose_eta(TWO_CELL)
    caps = piece_cost_caps(pieces, 0.5, -0.5)
    ks = skyscraper.lowcost_heights(caps, eps)
    assert all(2.0 * c / k < eps for c, k in zip(caps, ks))
    # the splitting is constant along towers: interior runs have length
    # exactly the height of the label's tower
    x1 = w.prescribed_f[:, 0]
    change = np.flatnonzero(np.diff(x1) != 0.0)
    runs = np.diff(change)
    labels_at_run = w.labels[change[:-1] + 1]
    assert np.array_equal(runs, np.asarray(ks)[labels_at_run])
    # labels say which piece the splitting came from
    theta = gl2.line_angle(x1, w.prescribed_f[:, 1])
    for n, piece in enumerate(pieces):
        mask = w.labels == n
        assert np.all(piece.cell.contains(x1[mask], theta[mask]))


def test_simulate_lowcost_one_piece_takes_two_coprime_towers():
    # one tower would need height 1 for gcd 1; this cell's cap needs more
    eta = EtaSpec(pieces=((1.0, uniform_cell(0.1, 0.8, 0.3, 0.5)),))
    eps = 0.1
    (cap,) = piece_cost_caps(decompose_eta(eta), 0.5, -0.5)
    k = int(2.0 * cap / eps) + 1
    assert k > 1
    w = simulate_flexible(eta, 0.5, -0.5, "lowcost", 40000, seed=21, epsilon=eps)
    assert np.all(w.labels == 0)
    runs = np.diff(np.flatnonzero(np.diff(w.prescribed_f[:, 0]) != 0.0))
    assert set(runs.tolist()) == {k, k + 1}
    assert step_costs(w, "lowcost", 0.5, -0.5).mean() < eps


def test_simulate_lowcost_mean_cost_contract():
    eps = 0.25
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "lowcost", 60000, seed=13, epsilon=eps)
    costs = step_costs(w, "lowcost", 0.5, -0.5)
    blocks = np.array_split(costs, 40)
    means = np.array([b.mean() for b in blocks])
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert means.mean() < eps + 3.0 * se


def test_simulate_single_atom_constant_cocycle():
    for mode, kw in (("bounded", {"budget": 0.3}), ("lowcost", {"epsilon": 0.1})):
        w = simulate_flexible(ATOM, 1.0, -1.0, mode, 12000, seed=14, **kw)
        assert np.all(w.matrices == w.matrices[0])
        rep = verify_flexible(w, ATOM, 1.0, -1.0, mode=mode)
        assert rep.lambda_hat[0] == pytest.approx(1.0, abs=1e-3)
        assert rep.lambda_hat[1] == pytest.approx(-1.0, abs=1e-3)
        assert rep.tv_distance == 0.0
        assert rep.ks_theta == 0.0
        assert rep.max_cost == 0.0
        assert rep.agreement_fraction == 1.0


def test_simulate_rejects_bad_args():
    with pytest.raises(ValueError):
        simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 100)  # no budget
    with pytest.raises(ValueError):
        simulate_flexible(TWO_CELL, 0.5, -0.5, "lowcost", 100)  # no epsilon
    with pytest.raises(ValueError):
        simulate_flexible(TWO_CELL, 0.5, -0.5, "nonsense", 100, budget=1.0)
    with pytest.raises(ValueError):
        simulate_flexible(TWO_CELL, -0.5, 0.5, "bounded", 100, budget=1.0)
    with pytest.raises(ValueError):
        simulate_flexible(TWO_CELL, -0.5, 0.5, "lowcost", 100, epsilon=0.3)
    with pytest.raises(UnboundedGap):
        eta = EtaSpec(
            pieces=((0.5, atom_cell(0.3, 1.5)), (0.5, atom_cell(0.9, 0.01)))
        )
        simulate_flexible(eta, 0.5, -0.5, "bounded", 100, budget=0.5)


# ---------------------------------------------------------------------------
# verification


def test_verify_two_cell_report():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 200000, seed=15, budget=0.6)
    rep = verify_flexible(w, TWO_CELL, 0.5, -0.5, mode="bounded")
    assert rep.lambda_hat[0] == pytest.approx(0.5, abs=0.05)
    assert rep.lambda_hat[1] == pytest.approx(-0.5, abs=0.05)
    assert rep.tv_distance < 0.02
    assert rep.ks_theta < 0.02
    assert rep.agreement_fraction >= 0.99
    assert rep.max_cost < 0.6
    assert rep.steps == 200000 and rep.mode == "bounded"


def test_verify_birkhoff_averages_hit_rates():
    # every factor stretches the canonical lift of its prescribed line j by
    # the constant e^r_j (TWO_CELL's weights sum to 1), so averages are exact
    w = simulate_flexible(TWO_CELL, 0.7, -0.3, "bounded", 5000, seed=16, budget=0.6)
    u = np.stack(gl2.canonical_lift(gl2.splitting(*w.prescribed_f.T)), axis=-1)
    for j, r in enumerate((0.7, -0.3)):
        unit = np.stack([np.cos(u[:, j]), np.sin(u[:, j])], axis=-1)
        gain = np.log(np.linalg.norm(np.einsum("nik,nk->ni", w.matrices, unit), axis=1))
        assert float(np.abs(gain - r).max()) < 1e-10


def test_verify_requires_prescribed_f():
    w = OrbitWindow(offset=-500, matrices=np.tile(np.eye(2), (1000, 1, 1)))
    with pytest.raises(ValueError):
        verify_flexible(w, TWO_CELL, 0.5, -0.5, mode="bounded")


def test_verify_short_window_raises_nodata():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 200, seed=17, budget=0.6)
    with pytest.raises(NoData):
        verify_flexible(w, TWO_CELL, 0.5, -0.5, mode="bounded")


def test_verify_rejects_equal_rates():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 2000, seed=18, budget=0.6)
    with pytest.raises(ValueError):
        verify_flexible(w, TWO_CELL, 0.5, 0.5, mode="bounded")


def test_step_costs_modes():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "lowcost", 3000, seed=19, epsilon=0.3)
    theta = gl2.line_angle(w.prescribed_f[:, 0], w.prescribed_f[:, 1])
    bounded = step_costs(w, "bounded", 0.5, -0.5)
    expect = np.abs(np.diff(np.log(np.sin(theta / 2.0))))
    np.testing.assert_allclose(bounded, expect, atol=1e-15)
    low = step_costs(w, "lowcost", 0.5, -0.5)
    unchanged = np.diff(w.prescribed_f[:, 0]) == 0.0
    assert np.all(low[unchanged] == 0.0)
    assert np.all(low[~unchanged] > 0.0)
    with pytest.raises(ValueError):
        step_costs(w, "nonsense", 0.5, -0.5)


def test_report_serialization_and_csv():
    w = simulate_flexible(TWO_CELL, 0.5, -0.5, "bounded", 2000, seed=20, budget=0.6)
    rep = verify_flexible(w, TWO_CELL, 0.5, -0.5, mode="bounded")
    obj = json.loads(json.dumps(rep.to_obj(), indent=2, sort_keys=True))
    assert float(obj["lambda_hat"][0]) == rep.lambda_hat[0]
    assert float(obj["tv_distance"]) == rep.tv_distance
    assert obj["mode"] == "bounded" and obj["steps"] == 2000
    assert obj["seed"] == 20 and obj["offset"] == -1000
    assert "step_cost" not in obj
    csv = rep.to_csv().splitlines()
    assert csv[0] == "step,cost,label,theta"
    assert len(csv) == 2000  # header plus one row per stored transition
    first = csv[1].split(",")
    assert first[0] == "-1000" and len(first) == 4
    assert float(first[1]) == float(rep.step_cost[0])


def test_report_validates_invariants():
    kw = dict(
        lambda_hat=(0.5, -0.5), ks_theta=0.0, max_cost=0.0, mean_cost=0.0,
        steps=10, offset=0, mode="bounded", rates=(0.5, -0.5), seed=None,
        step_cost=np.zeros(9), step_label=np.zeros(9, dtype=np.int64),
        step_theta=np.zeros(9),
    )
    with pytest.raises(ValueError):
        ConstructionReport(tv_distance=-0.1, agreement_fraction=1.0, **kw)
    with pytest.raises(ValueError):
        ConstructionReport(tv_distance=0.0, agreement_fraction=1.5, **kw)
    # each distance is checked once, on [0, 1]
    for name in ("tv_distance", "ks_theta"):
        for bad in (-0.1, 1.5, math.nan):
            args = {**kw, "tv_distance": 0.0, name: bad, "agreement_fraction": 1.0}
            with pytest.raises(ValueError, match=name):
                ConstructionReport(**args)


def _per_row_csv(rep) -> str:
    """Reference writer: one f-string per row from per-element indexing."""
    lines = ["step,cost,label,theta"]
    for j in range(len(rep.step_cost)):
        lines.append(
            f"{rep.offset + j},{float(rep.step_cost[j])!r},"
            f"{int(rep.step_label[j])},{float(rep.step_theta[j])!r}"
        )
    return "\n".join(lines) + "\n"


# osl asks for parts of STEP_BLOCK rows; a part of 8 STEP_BLOCK rows is
# formatted in eight chunks
WIDE = 8 * fx.STEP_BLOCK


@pytest.mark.parametrize("rows,part", [(0, WIDE), (1, WIDE), (1, 1), (9, 1)]
                         + [(2 * k + 1, k) for k in (WIDE - 1, WIDE, WIDE + 1)]
                         + [(2 * k + 1, k) for k in (fx.STEP_BLOCK - 1, fx.STEP_BLOCK,
                                                     fx.STEP_BLOCK + 1)])
def test_report_csv_parts_join_to_the_whole(rows, part):
    rng = np.random.default_rng(rows)
    rep = ConstructionReport(
        lambda_hat=(0.5, -0.5), tv_distance=0.0, ks_theta=0.0, max_cost=0.0,
        mean_cost=0.0, agreement_fraction=1.0, steps=rows + 1, offset=-(rows // 2),
        mode="lowcost", rates=(0.5, -0.5), seed=None, step_cost=rng.random(rows),
        step_label=rng.integers(0, 4, rows), step_theta=rng.uniform(0.3, 1.4, rows),
    )
    whole = rep.to_csv()
    parts = [rep.to_csv(lo, lo + part) for lo in range(0, max(rows, 1), part)]
    assert parts[0].startswith("step,cost,label,theta\n")
    assert "".join(parts) == whole
    assert whole.count("\n") == rows + 1


@pytest.mark.parametrize("rows", [0, 1, 7, WIDE + 5])
def test_report_csv_matches_per_row_writer(rows):
    rng = np.random.default_rng(rows)
    special = np.array([0.0, -0.0, -0.0, 0.0, np.nan, np.nan, 5e-324, 1e16, 1e16, 0.1, 0.1])
    pool = np.concatenate([special, rng.normal(size=5)])
    cost = pool[rng.integers(0, pool.size, rows)]
    theta = np.repeat(pool, rows // pool.size + 1)[:rows]  # long runs
    rep = ConstructionReport(
        lambda_hat=(0.5, -0.5), tv_distance=0.0, ks_theta=0.0, max_cost=0.0,
        mean_cost=0.0, agreement_fraction=1.0, steps=rows + 1, offset=-3,
        mode="bounded", rates=(0.5, -0.5), seed=None, step_cost=cost,
        step_label=rng.integers(-1, 4, rows), step_theta=theta,
    )
    assert rep.to_csv() == _per_row_csv(rep)
