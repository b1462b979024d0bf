import math

import numpy as np
import pytest

from ccgeo import ccmetric
from ccgeo.ccmetric import (
    ControlPath,
    cc_distance,
    integrate_control,
    integrate_controls,
    oracle_distance,
    reach_graph,
    sample_ball,
)
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
    est = cc_distance(sys, (0.0, 0.5), (0.3, 0.5), tol=0.05, seed=0)
    assert 0.27 <= est.lower <= 0.3
    assert 0.29 <= est.upper <= 0.33


def test_cc_distance_grushin_near_x_one():
    sys = grushin_interior()
    est = cc_distance(sys, (1.0, 0.0), (1.0, 0.05), tol=0.1, seed=0)
    assert est.upper <= 0.1
    assert est.lower >= 0.02


def test_cc_distance_symmetry_overlap():
    sys = grushin_interior()
    a = cc_distance(sys, (0.2, 0.0), (0.5, 0.1), tol=0.08, seed=1)
    b = cc_distance(sys, (0.5, 0.1), (0.2, 0.0), tol=0.08, seed=2)
    assert a.intersects(b, slack=0.05 * max(a.upper, b.upper))


def test_cc_distance_intersects_oracle():
    sys = elliptic_half_plane()
    x, y = (0.0, 0.5), (0.25, 0.62)
    sh = cc_distance(sys, x, y, tol=0.05, seed=0)
    orc = oracle_distance(sys, x, y, resolution=0.02, order=1)
    assert sh.intersects(orc, slack=0.05)


def test_extrinsic_never_exceeds_intrinsic():
    sys = elliptic_half_plane()
    pairs = [((0.0, 0.1), (0.4, 0.1)), ((-0.2, 0.0), (0.2, 0.3))]
    for x, y in pairs:
        i = cc_distance(sys, x, y, mode="intrinsic", tol=0.05, seed=0)
        e = cc_distance(sys, x, y, mode="extrinsic", tol=0.05, seed=0)
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
