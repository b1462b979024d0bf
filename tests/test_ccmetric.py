import itertools
import math

import numpy as np
import pytest

from ccgeo import ccmetric
from ccgeo.ccmetric import (
    BOUNDARY_TOL,
    ControlPath,
    ReachGraph,
    cc_distance,
    integrate_control,
    integrate_controls,
    oracle_distance,
    reach_graph,
    sample_ball,
)
from ccgeo.flows import _control_velocity, _field_stack, _rk4_step
from ccgeo.hormander import Box, WeightedSystem
from ccgeo.symexpr import parse_vfield


def elliptic_half_plane():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 1)),
        box=Box((2.0, 2.0), has_boundary=True),
    )


def grushin_interior():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, x1", 2), 1)),
        box=Box((2.0, 2.0)),
    )


def heisenberg_half():
    # coordinates (y, t, x); boundary {x = 0}; W1 = d/dx - (y/2) d/dt
    return WeightedSystem(
        fields=(
            (parse_vfield("0, 0-x1/2, 1", 3), 1),
            (parse_vfield("1, x3/2, 0", 3), 1),
        ),
        box=Box((1.5, 1.5, 1.5), has_boundary=True),
    )


def test_integrate_control_straight_line():
    sys = elliptic_half_plane()
    eps = 1e-3
    path = ControlPath(np.array([[1.0 - eps, 0.0]]))
    end, feasible = integrate_control(sys, (0.0, 0.5), 0.3, path)
    assert feasible
    np.testing.assert_allclose(end, [0.3 * (1 - eps), 0.5], atol=1e-10)


def test_integrate_control_boundary_crossing_modes():
    sys = elliptic_half_plane()
    eps = 1e-3
    path = ControlPath(np.array([[0.0, -1.0 + eps]]))
    end_i, feas_i = integrate_control(sys, (0.0, 0.5), 1.0, path, mode="intrinsic")
    end_e, feas_e = integrate_control(sys, (0.0, 0.5), 1.0, path, mode="extrinsic")
    assert not feas_i and feas_e
    np.testing.assert_allclose(end_e, [0.0, 0.5 - (1 - eps)], atol=1e-10)


def test_integrate_control_grushin_flow():
    sys = grushin_interior()
    path = ControlPath(np.array([[0.999, 0.0]]))
    end, feasible = integrate_control(sys, (0.0, 0.0), 1.0, path)
    assert feasible
    np.testing.assert_allclose(end, [0.999, 0.0], atol=1e-10)


def test_integrate_controls_freezes_rows_that_leave_the_guard_box():
    # Box half width 1, guard box 1.25.  Row 0 moves along x1 at speed
    # 0.9 * 2 = 1.8; RK4 is exact on a constant field, so its steps land on
    # multiples of 1.8 / 8 = 0.225 and the last one inside the guard box is
    # 1.125.  Row 1 stays well inside and must finish normally.
    sys = WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 1)),
        box=Box((1.0, 1.0)),
    )
    coeffs = np.array([[[0.9, 0.0]], [[0.1, 0.1]]])
    ends, feasible = integrate_controls(sys, (0.0, 0.0), 2.0, coeffs, mode="extrinsic", steps_per_segment=8)
    assert list(feasible) == [False, True]
    np.testing.assert_allclose(ends[0], [1.125, 0.0], atol=1e-12)
    np.testing.assert_allclose(ends[1], [0.2, 0.2], atol=1e-12)


def test_integrate_control_rejects_inadmissible():
    sys = elliptic_half_plane()
    with pytest.raises(ValueError):
        integrate_control(sys, (0.0, 0.5), 0.3, ControlPath(np.array([[1.0, 0.5]])))


def test_sample_ball_elliptic_radius_bound():
    sys = elliptic_half_plane()
    cloud = sample_ball(sys, (0.0, 0.5), 0.2, 400, K=4, seed=3)
    ends = cloud.feasible_endpoints()
    assert len(ends) > 350
    dists = np.linalg.norm(ends - np.array([0.0, 0.5]), axis=1)
    assert dists.max() <= 0.2 + 1e-9
    assert ends[:, 1].min() >= -1e-9


def test_sample_ball_zero_delta():
    sys = elliptic_half_plane()
    cloud = sample_ball(sys, (0.1, 0.4), 0.0, 50, seed=1)
    assert np.all(cloud.endpoints == np.array([0.1, 0.4]))
    assert cloud.feasible.all()


def test_sample_ball_grushin_anisotropy():
    sys = grushin_interior()
    delta = 0.5
    cloud = sample_ball(sys, (0.0, 0.0), delta, 4000, K=8, seed=7)
    ends = cloud.feasible_endpoints()
    assert np.abs(ends[:, 0]).max() <= delta + 1e-9
    assert np.abs(ends[:, 1]).max() <= delta**2 + 1e-9
    # y-extent is genuinely the delta^2 scale, not delta
    assert np.abs(ends[:, 1]).max() >= 0.05 * delta**2


def test_sample_ball_seeded_determinism():
    sys = grushin_interior()
    a = sample_ball(sys, (0.1, 0.0), 0.3, 200, K=8, seed=42)
    b = sample_ball(sys, (0.1, 0.0), 0.3, 200, K=8, seed=42)
    assert np.array_equal(a.endpoints, b.endpoints)
    assert np.array_equal(a.feasible, b.feasible)
    assert a.to_csv() == b.to_csv()


def test_oracle_elliptic_axis_pair():
    sys = elliptic_half_plane()
    est = oracle_distance(sys, (0.0, 0.5), (0.3, 0.5), resolution=0.02, order=1)
    assert est.lower <= 0.3 <= est.upper * 1.1
    assert est.upper <= 0.36
    assert est.lower >= 0.18


def test_oracle_same_point():
    sys = elliptic_half_plane()
    est = oracle_distance(sys, (0.1, 0.2), (0.1, 0.2))
    assert est.lower == est.upper == 0.0


def test_oracle_unresolved_when_target_within_arrival_tolerance(monkeypatch):
    # |x - y| = 0.01 <= 0.75 * resolution: every scale would "reach" y at
    # cost 0, so the oracle must give the unresolved interval without
    # building a graph (it used to bisect ~1070 times down to [0, 0]).
    def no_run(*args, **kwargs):
        raise AssertionError("no graph search expected")

    monkeypatch.setattr(ccmetric.ReachGraph, "run", no_run)
    sys = heisenberg_half()
    est = oracle_distance(sys, (0.0, 0.0, 0.5), (0.0, 0.01, 0.5), mode="extrinsic", resolution=0.02)
    assert est.lower == 0.0 and est.upper == math.inf


def test_oracle_heisenberg_vertical_regression():
    sys = heisenberg_half()
    est = oracle_distance(sys, (0.0, 0.0, 0.5), (0.0, 0.01, 0.5), mode="extrinsic", resolution=0.01)
    assert est.upper <= 0.6
    assert est.upper >= 0.05
    # the true distance is near sqrt(4 pi t) ~ 0.355; the deflated lower
    # certificate must stay below it
    assert est.lower <= 0.36
    assert est.lower > 0.0


def test_oracle_triangle_inequality():
    sys = elliptic_half_plane()
    pts = [(0.0, 0.5), (0.2, 0.5), (0.2, 0.8)]
    def d(a, b):
        return oracle_distance(sys, a, b, resolution=0.02, order=1)
    dab, dbc, dac = d(pts[0], pts[1]), d(pts[1], pts[2]), d(pts[0], pts[2])
    assert dac.upper <= dab.upper + dbc.upper + 0.1 * (dab.upper + dbc.upper)


def test_cc_distance_elliptic_straight():
    sys = elliptic_half_plane()
    est = cc_distance(sys, (0.0, 0.5), (0.3, 0.5), tol=0.05)
    assert 0.27 <= est.lower <= 0.3
    assert 0.29 <= est.upper <= 0.33


def test_cc_distance_grushin_near_x_one():
    sys = grushin_interior()
    est = cc_distance(sys, (1.0, 0.0), (1.0, 0.05), tol=0.1)
    assert est.upper <= 0.1
    assert est.lower >= 0.02


def test_cc_distance_symmetry_overlap():
    sys = grushin_interior()
    a = cc_distance(sys, (0.2, 0.0), (0.5, 0.1), tol=0.08)
    b = cc_distance(sys, (0.5, 0.1), (0.2, 0.0), tol=0.08)
    assert a.intersects(b, slack=0.05 * max(a.upper, b.upper))


def test_cc_distance_intersects_oracle():
    sys = elliptic_half_plane()
    x, y = (0.0, 0.5), (0.25, 0.62)
    sh = cc_distance(sys, x, y, tol=0.05)
    orc = oracle_distance(sys, x, y, resolution=0.02, order=1)
    assert sh.intersects(orc, slack=0.05)


def test_extrinsic_never_exceeds_intrinsic():
    sys = elliptic_half_plane()
    pairs = [((0.0, 0.1), (0.4, 0.1)), ((-0.2, 0.0), (0.2, 0.3))]
    for x, y in pairs:
        i = cc_distance(sys, x, y, mode="intrinsic", tol=0.05)
        e = cc_distance(sys, x, y, mode="extrinsic", tol=0.05)
        assert e.upper <= i.upper * 1.05 + 1e-6


def test_ball_monotone_in_delta():
    sys = grushin_interior()
    small = sample_ball(sys, (0.1, 0.0), 0.15, 100, K=8, seed=5)
    graph = reach_graph(sys, (0.1, 0.0), 0.3, res=(0.02, 0.01))
    inside = graph.contains(small.feasible_endpoints())
    assert inside.mean() >= 0.99


def test_degree_reduction_containment():
    # B_{(W,1)}(x, delta) subset of B_{(W,d)}(x, delta^{1/max d})
    base = grushin_interior()
    weighted = WeightedSystem(
        fields=((base.fields[0][0], 1), (base.fields[1][0], 2)),
        box=base.box,
    )
    delta = 0.25
    cloud = sample_ball(base, (0.3, 0.0), delta, 120, K=8, seed=9)
    graph = reach_graph(weighted, (0.3, 0.0), delta ** 0.5, res=(0.02, 0.02))
    inside = graph.contains(cloud.feasible_endpoints())
    assert inside.mean() >= 0.99


# -- ReachGraph against the per-arrival dict loop it replaced --------------


def _reference_run(g, target=None, arrival_tol=None):
    """The old ReachGraph.run: one Python step per arrival over dicts.

    Returns (reached, cost, settled) with settled mapping integer cell
    tuples to (cost, point), plus the number of arrivals that fell inside
    one of the 1e-12 tie windows.
    """
    target = None if target is None else np.asarray(target, dtype=float)
    tol = float(arrival_tol) if arrival_tol is not None else float(np.linalg.norm(g.res))
    vfs = g.sys.vfields()
    factors = g.factors
    box = g.sys.box
    halfspace = g.mode == "intrinsic" and box.has_boundary
    if target is not None and np.linalg.norm(g.x0 - target) <= tol:
        return True, 0.0, {}, 0

    def cell(p):
        return tuple(np.floor((p - g.x0) / g.res + 0.5).astype(int))

    ties = 0
    dist = {cell(g.x0): 0.0}
    pts = {cell(g.x0): g.x0}
    frontier = [(g.x0, 0.0)]
    qbest = {}
    with np.errstate(all="ignore"):
        while frontier:
            P = np.array([p for p, _ in frontier])
            C = np.array([c for _, c in frontier])
            W = _field_stack(vfs, P)
            V = np.einsum("dr,frn->fdn", g.dirs, factors[None, :, None] * W)
            rates = (np.abs(V) / g.res).max(axis=2) * g.speed_scale
            remaining = (g.budget - C)[:, None]
            live = (rates > 1e-14) & (remaining > 1e-12)
            f_idx, d_idx = np.nonzero(live)
            if len(f_idx) == 0:
                break
            tau = np.minimum(1.0 / rates[f_idx, d_idx], remaining[f_idx, 0])
            vel = _control_velocity(vfs, g.dirs[d_idx] * factors)
            Y = P[f_idx]
            dt = (tau * g.speed_scale / 2.0)[:, None]
            ok = np.ones(len(Y), dtype=bool)
            for _ in range(2):
                Y = _rk4_step(vel, Y, dt)
                ok &= np.all(np.isfinite(Y), axis=1) & box.contains(Y)
                if halfspace:
                    ok &= Y[:, -1] >= -BOUNDARY_TOL
            costs = C[f_idx] + tau
            ok &= costs <= g.budget + 1e-12
            if target is not None and ok.any():
                hit = ok & (np.linalg.norm(Y - target, axis=1) <= tol)
                if hit.any():
                    return True, float(costs[hit].min()), {}, ties
            keys = np.floor((Y - g.x0) / g.res + 0.5).astype(int)
            qpos = np.floor((Y - g.x0) / g.res * 2.0 + 0.5).astype(int)
            next_frontier = {}
            for m in np.nonzero(ok)[0]:
                key = tuple(keys[m])
                c2 = float(costs[m])
                cur = dist.get(key)
                if cur is not None and cur - 1e-12 <= c2 < cur:
                    ties += 1
                if cur is None or c2 < cur - 1e-12:
                    dist[key] = c2
                    pts[key] = Y[m]
                elif c2 > cur + tau[m] + 1e-12:
                    continue
                fkey = tuple(qpos[m])
                qb = qbest.get(fkey, math.inf)
                if qb - 1e-12 <= c2 < qb:
                    ties += 1
                if c2 >= qb - 1e-12:
                    continue
                qbest[fkey] = c2
                next_frontier[fkey] = (Y[m], c2)
            if len(dist) > g.max_cells:
                raise RuntimeError("oracle cell budget exceeded; coarsen the resolution")
            frontier = list(next_frontier.values())
    return False, math.inf, {k: (dist[k], pts[k]) for k in dist}, ties


def _reference_contains(g, settled, points, dilate=0):
    with np.errstate(invalid="ignore"):
        keys = np.floor((points - g.x0) / g.res + 0.5).astype(int)
    out = np.array([tuple(k) in settled for k in keys], dtype=bool)
    if dilate > 0:
        offsets = list(itertools.product(range(-dilate, dilate + 1), repeat=points.shape[1]))
        for i in np.nonzero(~out)[0]:
            if any(tuple(keys[i] + np.array(o)) in settled for o in offsets):
                out[i] = True
    if g.mode == "intrinsic" and g.sys.box.has_boundary:
        out &= points[:, -1] >= -BOUNDARY_TOL
    return out


def _settled_as_dict(g):
    lo, shape = g._cells
    idx = np.stack(np.unravel_index(g.settled, shape), axis=1) + lo.astype(int)
    return {tuple(int(v) for v in k): (c, p) for k, c, p in zip(idx, g.settled_cost, g.settled_pts)}


REFERENCE_CASES = [
    # (system, x, delta, mode, res, speed_scale)
    (elliptic_half_plane, (0.0, 0.05), 0.3, "intrinsic", 0.03, 1.0),
    (elliptic_half_plane, (0.1, 0.5), 0.25, "extrinsic", (0.03, 0.02), 1.03),
    (grushin_interior, (0.1, 0.0), 0.3, "intrinsic", (0.02, 0.01), 1.0),
    (grushin_interior, (0.5, 0.2), 0.3, "extrinsic", 0.025, 1.025),
    (heisenberg_half, (0.0, 0.0, 0.1), 0.3, "intrinsic", (0.05, 0.04, 0.05), 1.0),
    (heisenberg_half, (0.1, 0.0, 0.5), 0.25, "extrinsic", 0.05, 1.05),
]


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_reach_graph_matches_dict_loop_bit_for_bit(case):
    make, x, delta, mode, res, scale = REFERENCE_CASES[case]
    sys = make()

    def graph():
        return ReachGraph(sys, x, delta, mode, res=res, speed_scale=scale)

    g = graph()
    assert g.run() == (False, math.inf)
    ref_reached, ref_cost, ref, ties = _reference_run(graph())
    assert (ref_reached, ref_cost) == (False, math.inf)
    assert ties > 0  # equal-cost arrivals: the 1e-12 windows decide the frontier
    got = _settled_as_dict(g)
    assert len(g.settled) == len(ref) and got.keys() == ref.keys()
    for k, (c, p) in ref.items():
        assert got[k][0] == c and np.array_equal(got[k][1], p)

    # targeted runs: an interior settled point, a far one, one out of reach
    pts = np.array([p for _, p in ref.values()])
    far = pts[np.argmax(np.linalg.norm(pts - np.asarray(x), axis=1))]
    for target in (pts[len(pts) // 2], far, np.asarray(x) + 0.9):
        for tol in (None, 0.5 * float(np.min(res))):
            reached, cost, _, _ = _reference_run(graph(), target, tol)
            assert graph().run(target, tol) == (reached, cost)

    rng = np.random.default_rng(case)
    lo, hi = pts.min(axis=0) - 0.05, pts.max(axis=0) + 0.05
    probes = np.vstack([lo + (hi - lo) * rng.random((400, sys.n)), pts[:50], [np.full(sys.n, np.nan), np.full(sys.n, 10.0)]])
    for dilate in (0, 1):
        assert np.array_equal(g.contains(probes, dilate=dilate), _reference_contains(g, ref, probes, dilate))


def test_reach_graph_cell_budget_error_carries_context():
    sys = elliptic_half_plane()
    g = ReachGraph(sys, (0.0, 0.5), 0.3, res=0.02, max_cells=50)
    with pytest.raises(RuntimeError, match=r"cell budget exceeded: \d+ cells settled, max_cells 50, "
                       r"after \d+ frontier rounds at resolution \[0.02, 0.02\]"):
        g.run()


# 1e-10: the half-cell grid over the 4 x 4 chart would need more than 2^63 keys
@pytest.mark.parametrize("res", [0.0, -0.02, math.nan, math.inf, (0.02, 0.0), 1e-10])
def test_reach_graph_rejects_bad_resolution(res):
    with pytest.raises(ValueError, match="resolution"):
        ReachGraph(elliptic_half_plane(), (0.0, 0.5), 0.3, res=res)
