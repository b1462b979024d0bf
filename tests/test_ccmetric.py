import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import exact_metrics
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccgeo import ccmetric
from ccgeo.ccmetric import (
    BOUNDARY_TOL,
    ReachGraph,
    ball_volume,
    cc_distance,
    integrate_controls,
    oracle_distance,
    reach_graph,
    sample_ball,
)
from ccgeo.cli import fixtures_dir, load_scenario
from ccgeo.flows import GUARD_FACTOR, _control_velocity, _rk4_step
from ccgeo.hormander import Box, WeightedSystem, _field_stack
from ccgeo.symexpr import parse_vfield


def elliptic_half_plane():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 1)),
        box=Box((2.0, 2.0), has_boundary=True),
    )


def elliptic_unit_half_plane():
    # the packaged elliptic chart: [-1, 1] x [0, 1]
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 1)),
        box=Box((1.0, 1.0), has_boundary=True),
    )


def grushin_interior():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, x1", 2), 1)),
        box=Box((2.0, 2.0)),
    )


def heat_half_plane():
    # mixed degrees, like the heat fixture: d/dx of degree 1, d/dt of degree 2
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 2)),
        box=Box((1.0, 1.0), has_boundary=True),
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


def heisenberg_frame_half():
    # the left-invariant frame X, Y, T: r = 3, so the oracle moves along axes
    return WeightedSystem(
        fields=(
            (parse_vfield("1, 0, x2/2", 3), 1),
            (parse_vfield("0, 1, 0-x1/2", 3), 1),
            (parse_vfield("0, 0, 1", 3), 1),
        ),
        box=Box((1.5, 1.5, 1.5), has_boundary=True),
    )


def test_integrate_control_straight_line():
    sys = elliptic_half_plane()
    eps = 1e-3
    ends, feasible, _ = integrate_controls(sys, (0.0, 0.5), 0.3, np.array([[[1.0 - eps, 0.0]]]))
    assert feasible[0]
    np.testing.assert_allclose(ends[0], [0.3 * (1 - eps), 0.5], atol=1e-10)


def test_integrate_control_boundary_crossing_modes():
    sys = elliptic_half_plane()
    eps = 1e-3
    coeffs = np.array([[[0.0, -1.0 + eps]]])
    _, feas_i, _ = integrate_controls(sys, (0.0, 0.5), 1.0, coeffs, mode="intrinsic")
    end_e, feas_e, _ = integrate_controls(sys, (0.0, 0.5), 1.0, coeffs, mode="extrinsic")
    assert not feas_i[0] and feas_e[0]
    np.testing.assert_allclose(end_e[0], [0.0, 0.5 - (1 - eps)], atol=1e-10)


def test_integrate_control_grushin_flow():
    sys = grushin_interior()
    ends, feasible, _ = integrate_controls(sys, (0.0, 0.0), 1.0, np.array([[[0.999, 0.0]]]))
    assert feasible[0]
    np.testing.assert_allclose(ends[0], [0.999, 0.0], atol=1e-10)


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
    ends, feasible, _ = integrate_controls(sys, (0.0, 0.0), 2.0, coeffs, mode="extrinsic", steps_per_segment=8)
    assert list(feasible) == [False, True]
    np.testing.assert_allclose(ends[0], [1.125, 0.0], atol=1e-12)
    np.testing.assert_allclose(ends[1], [0.2, 0.2], atol=1e-12)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("mode", ["intrinsic", "extrinsic"])
def test_integrate_controls_rows_do_not_depend_on_their_batch(mode):
    # Shooting stacks several row sets into one call; each row must give
    # the same ends, feasibility and depth bits as in a call of its own.
    # Half width 2, guard 2.5, delta 3: from x1 = -0.1 one row runs to
    # x1 = 2.87, out of the guard box, and one to 2.177, out of the box
    # only; from x2 = 0.05 one dips to -0.1 and comes back.
    sys = elliptic_half_plane()
    x = (-0.1, 0.05)
    rng = np.random.default_rng(3)
    random = ccmetric.sample_controls(rng, 9, 2, 2)
    guard_leaver = np.array([[[0.99, 0.0], [0.99, 0.0]]])
    box_leaver = np.array([[[0.759, 0.0], [0.759, 0.0]]])
    dipper = np.array([[[0.0, -0.1], [0.0, 0.1]]])
    parts = [random[:4], np.concatenate([guard_leaver, dipper]), np.concatenate([random[4:], box_leaver])]
    whole = integrate_controls(sys, x, 3.0, np.concatenate(parts), mode)
    alone = [integrate_controls(sys, x, 3.0, part, mode) for part in parts]
    for got, want in zip(whole, (np.concatenate(col) for col in zip(*alone))):
        assert _bits(got) == _bits(want)
    feasible, depth = whole[1], whole[2]
    assert not feasible[4] and not feasible[-1]  # out of the guard box, out of the box
    assert feasible[5] == (mode == "extrinsic")
    assert depth[5] == (pytest.approx(0.1, abs=1e-12) if mode == "intrinsic" else 0.0)


def _reference_integrate(sys, x, delta, coeffs, mode, steps_per_segment):
    """integrate_controls with its per-row guard taken at every step; a
    row that would leave the guard box stays frozen at its last point."""
    S, K, r = coeffs.shape
    n = sys.n
    y = np.tile(np.asarray(x, dtype=float), (S, 1))
    factors = np.array([delta**d for d in sys.degrees])
    vfs = sys.vfields()
    hw = np.asarray(sys.box.half_widths)
    guard, edge, c = hw * GUARD_FACTOR + 1e-9, hw + 1e-9, np.asarray(sys.box.center)
    alive = np.ones(S, dtype=bool)
    inside = np.ones(S, dtype=bool)
    min_xn = np.full(S, y[0, n - 1])
    dt = (1.0 / K) / steps_per_segment
    with np.errstate(all="ignore"):
        for k in range(K):
            vel = _control_velocity(vfs, coeffs[:, k, :] * factors)
            for _ in range(steps_per_segment):
                ynew = _rk4_step(vel, y, dt)
                dev = np.abs(ynew - c)
                alive &= np.all(dev <= guard, axis=1)
                ynew[~alive] = y[~alive]
                y = ynew
                inside &= ~alive | np.all(dev <= edge, axis=1)
                min_xn = np.minimum(min_xn, np.where(alive, y[:, n - 1], min_xn))
    feasible = alive & inside
    depth = np.zeros(S)
    if mode == "intrinsic" and sys.box.has_boundary:
        feasible &= min_xn >= -BOUNDARY_TOL
        depth = np.maximum(0.0, -min_xn)
    return y, feasible, depth


def grushin_half():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, x1", 2), 1)),
        box=Box((1.0, 1.0), has_boundary=True),
    )


@st.composite
def _control_batch(draw):
    """A system, a start point and a batch of controls, often leaving the box."""
    make = draw(st.sampled_from([elliptic_half_plane, grushin_half, heisenberg_half]))
    sys = make()
    hw = np.asarray(sys.box.half_widths)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    x = np.array([draw(unit) for _ in range(sys.n)]) * 0.9 * hw
    x[-1] = abs(x[-1]) * draw(st.sampled_from([0.0, 0.05, 1.0]))
    S, K = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    coeffs = np.array(draw(st.lists(unit, min_size=S * K * sys.r, max_size=S * K * sys.r))).reshape(S, K, sys.r)
    delta = draw(st.sampled_from([0.05, 0.5, 2.0, 4.0]))
    return sys, x, delta, coeffs, draw(st.sampled_from(["intrinsic", "extrinsic"])), draw(st.integers(1, 4))


# row 0 leaves the box at x1 = 2.095 and would leave the guard box at 2.59,
# so it is frozen at 2.095; from there its second segment would step back
# into the box and below x2 = 0, on steps where every other row is inside
# the box too, so the row must end where it was frozen, with depth 0
_RETURNING_ROW = (
    elliptic_half_plane(), np.array([1.6, 0.05]), 4.0,
    np.array([[[0.99, 0.0], [-0.7, -0.7]], [[0.1, 0.1], [0.0, 0.1]]]), "intrinsic", 4,
)


@settings(max_examples=200, deadline=None)
@given(_control_batch())
@example(_RETURNING_ROW)
def test_integrate_controls_guard_fast_path_matches_per_row_guard(batch):
    sys, x, delta, coeffs, mode, steps = batch
    got = integrate_controls(sys, x, delta, coeffs, mode, steps)
    assert _bits(*got) == _bits(*_reference_integrate(sys, x, delta, coeffs, mode, steps))


def test_integrate_controls_row_that_leaves_the_guard_box_stays_frozen():
    sys, x, delta, coeffs, mode, steps = _RETURNING_ROW
    ends, feasible, depth = integrate_controls(sys, x, delta, coeffs, mode, steps)
    np.testing.assert_allclose(ends[0], [2.095, 0.05], atol=1e-12)
    assert not feasible[0] and depth[0] == 0.0
    assert feasible[1]


@pytest.mark.parametrize("mode", ["intrinsic", "extrinsic"])
def test_integrate_controls_takes_an_empty_batch(mode):
    ends, feasible, depth = integrate_controls(elliptic_half_plane(), (0.0, 0.5), 0.3, np.empty((0, 4, 2)), mode)
    assert ends.shape == (0, 2) and feasible.shape == depth.shape == (0,)
    assert ends.dtype == depth.dtype == np.float64 and feasible.dtype == bool


@pytest.mark.parametrize("steps", [0, -1])
def test_integrate_controls_rejects_fewer_than_one_step_per_segment(steps, monkeypatch):
    # -1 used to return x for every row, marked feasible, and 0 to divide by zero;
    # both now fail before any step is built
    monkeypatch.setattr(ccmetric, "_control_step", lambda *args: pytest.fail("a step was built"))
    coeffs = np.full((3, 2, 2), 0.5)
    with pytest.raises(ValueError, match="steps_per_segment"):
        integrate_controls(elliptic_half_plane(), (0.0, 0.5), 0.3, coeffs, steps_per_segment=steps)


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


@pytest.mark.parametrize("K", [0, -2])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_sample_ball_rejects_fewer_than_one_segment(K, delta):
    # K = -2 used to fail in numpy with "negative dimensions are not allowed",
    # and K = 0 at delta 0 returned the base point
    with pytest.raises(ValueError, match=f"at least one segment, got K = {K}"):
        sample_ball(elliptic_half_plane(), (0.0, 0.5), delta, 3, K=K)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_sample_ball_and_ball_volume_reject_a_bad_seed(seed):
    # seed -1 used to fail in numpy with "expected non-negative integer", 1.5 in SeedSequence
    sys = elliptic_half_plane()
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got seed = {seed!r}"):
        sample_ball(sys, (0.0, 0.5), 0.1, 3, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got seed = {seed!r}"):
        ball_volume(sys, (0.0, 0.5), 0.1, n_samples=100, seed=seed)


@pytest.mark.parametrize("x, mode", [
    ((math.nan, 0.5), "extrinsic"),  # used to return nan endpoints
    ((0.0, 2.5), "extrinsic"),  # outside the box
    ((0.0, -0.5), "intrinsic"),  # below {x_n = 0}
])
def test_sample_ball_rejects_a_base_point_outside_the_chart(x, mode):
    with pytest.raises(ValueError, match="^base point is not in the chart$"):
        sample_ball(elliptic_half_plane(), x, 0.1, 3, mode=mode)


def test_sample_ball_seeded_determinism():
    sys = grushin_interior()
    a = sample_ball(sys, (0.1, 0.0), 0.3, 200, K=8, seed=42)
    b = sample_ball(sys, (0.1, 0.0), 0.3, 200, K=8, seed=42)
    assert np.array_equal(a.endpoints, b.endpoints)
    assert np.array_equal(a.feasible, b.feasible)
    assert a.to_csv() == b.to_csv()


def test_oracle_elliptic_axis_pair():
    sys = elliptic_half_plane()
    est = oracle_distance(sys, (0.0, 0.5), (0.3, 0.5), resolution=0.02)
    assert est.lower <= 0.3 <= est.upper * 1.1
    assert est.upper <= 0.36
    assert est.lower == 0.0


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
    # the oracle bounds the distance (near sqrt(4 pi t) ~ 0.355) only from above
    assert est.lower == 0.0


def test_oracle_triangle_inequality():
    sys = elliptic_half_plane()
    pts = [(0.0, 0.5), (0.2, 0.5), (0.2, 0.8)]
    def d(a, b):
        return oracle_distance(sys, a, b, resolution=0.02)
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


# The elliptic and heat pairs of the seed-1 and seed-7919 benchmark `dist`
# ops: (fixture, mode, x, y), as the command line carries them.
_CLOSED_FORM_PAIRS = [
    ("elliptic", "intrinsic", (-0.070673, 0.470448), (-0.006004, 0.566020)),
    ("elliptic", "extrinsic", (-0.338784, 0.008075), (-0.041309, 0.019601)),
    ("heat", "intrinsic", (0.251812, 0.601258), (-0.046638, 0.451385)),
    ("heat", "extrinsic", (0.058843, 0.011175), (-0.040307, 0.002250)),
    ("elliptic", "intrinsic", (0.398328, 0.300011), (0.328019, 0.250466)),
    ("elliptic", "extrinsic", (0.299147, 0.601025), (0.349971, 0.510559)),
    ("heat", "intrinsic", (-0.298220, 0.301204), (-0.218440, 0.351561)),
    ("heat", "extrinsic", (0.200472, 0.400805), (0.140963, 0.470044)),
    ("elliptic", "intrinsic", (-0.070109, 0.471471), (-0.006810, 0.567804)),
    ("elliptic", "extrinsic", (-0.339936, 0.011649), (-0.042881, 0.024272)),
    ("heat", "intrinsic", (0.248178, 0.601045), (-0.049669, 0.451518)),
    ("heat", "extrinsic", (0.060460, 0.010328), (-0.039624, 0.001308)),
    ("elliptic", "intrinsic", (0.400849, 0.301629), (0.331043, 0.252524)),
    ("elliptic", "extrinsic", (0.299907, 0.599719), (0.348889, 0.509553)),
    ("heat", "intrinsic", (-0.301295, 0.300139), (-0.221315, 0.351183)),
    ("heat", "extrinsic", (0.199400, 0.401805), (0.140024, 0.472340)),
]


@pytest.mark.parametrize("fixture, mode, x, y", _CLOSED_FORM_PAIRS)
def test_shooting_interval_holds_the_closed_form(fixture, mode, x, y):
    # on elliptic pairs an end can meet |x - y| to the last digit, hence the
    # relative slack; the oracle is not checked: its upper end lies below
    # the closed form on most of these pairs
    exact = getattr(exact_metrics, fixture)(x, y)
    est = cc_distance(load_scenario(fixture).system(), x, y, mode=mode, tol=0.05, K=4)
    assert est.lower <= exact * (1 + 1e-12) and exact * (1 - 1e-12) <= est.upper


# Every pair of the seed-1 and seed-7919 benchmark `dist` ops on a fixture whose
# generators share one degree: (fixture, mode, x, y, whether a normal geodesic
# converges and stays feasible).  dist06 starts on the singular line x1 = 0,
# where no start converges; the intrinsic dist07 and dist10 geodesics leave the
# half space; dist09 is the vertical Heisenberg pair, on the cut locus.
_EQUAL_DEGREE_PAIRS = [
    ("elliptic", "intrinsic", (-0.070673, 0.470448), (-0.006004, 0.56602), True),  # dist00, seed 1
    ("elliptic", "extrinsic", (-0.338784, 0.008075), (-0.041309, 0.019601), True),  # dist01, seed 1
    ("grushin", "intrinsic", (1.0, 0.0), (1.0, 0.05), True),  # dist04, both seeds
    ("grushin", "intrinsic", (0.531121, 0.151459), (0.278814, 0.235512), True),  # dist05, seed 1
    ("grushin", "intrinsic", (-0.020774, -0.096908), (0.007727, -0.051875), False),  # dist06, seed 1
    ("grushin_straightened", "intrinsic", (0.400858, 0.030837), (0.649026, 0.020847), False),  # dist07, seed 1
    ("grushin_straightened", "extrinsic", (-0.500125, 0.141706), (-0.391827, 0.069278), True),  # dist08, seed 1
    ("heisenberg", "extrinsic", (-0.09063, 0.0, 0.47932), (-0.09063, 0.01999, 0.47932), False),  # dist09, seed 1
    ("heisenberg", "intrinsic", (-0.011749, -0.086263, 0.034891), (0.117856, -0.092159, 0.036884), False),  # dist10, seed 1
    ("elliptic", "intrinsic", (0.398328, 0.300011), (0.328019, 0.250466), True),  # dist11, seed 1
    ("elliptic", "extrinsic", (0.299147, 0.601025), (0.349971, 0.510559), True),  # dist12, seed 1
    ("grushin", "intrinsic", (0.501394, 0.000936), (0.550952, 0.0606), True),  # dist15, seed 1
    ("grushin", "extrinsic", (-0.399599, 0.19915), (-0.329625, 0.159575), True),  # dist16, seed 1
    ("grushin_straightened", "intrinsic", (-0.400211, 0.051411), (-0.339501, 0.091318), True),  # dist17, seed 1
    ("grushin_straightened", "extrinsic", (0.298113, 0.199712), (0.247382, 0.259449), True),  # dist18, seed 1
    ("elliptic", "intrinsic", (-0.070109, 0.471471), (-0.00681, 0.567804), True),  # dist00, seed 7919
    ("elliptic", "extrinsic", (-0.339936, 0.011649), (-0.042881, 0.024272), True),  # dist01, seed 7919
    ("grushin", "intrinsic", (0.52855, 0.148194), (0.277494, 0.231994), True),  # dist05, seed 7919
    ("grushin", "intrinsic", (-0.020544, -0.096393), (0.007583, -0.050903), False),  # dist06, seed 7919
    ("grushin_straightened", "intrinsic", (0.398132, 0.030163), (0.648487, 0.018167), False),  # dist07, seed 7919
    ("grushin_straightened", "extrinsic", (-0.500873, 0.141964), (-0.39292, 0.067809), True),  # dist08, seed 7919
    ("heisenberg", "extrinsic", (-0.090763, 0.0, 0.481355), (-0.090763, 0.020178, 0.481355), False),  # dist09, seed 7919
    ("heisenberg", "intrinsic", (-0.010547, -0.087763, 0.034173), (0.120361, -0.094242, 0.036187), False),  # dist10, seed 7919
    ("elliptic", "intrinsic", (0.400849, 0.301629), (0.331043, 0.252524), True),  # dist11, seed 7919
    ("elliptic", "extrinsic", (0.299907, 0.599719), (0.348889, 0.509553), True),  # dist12, seed 7919
    ("grushin", "intrinsic", (0.499115, -0.000547), (0.549276, 0.059308), True),  # dist15, seed 7919
    ("grushin", "extrinsic", (-0.399694, 0.199247), (-0.329931, 0.159971), True),  # dist16, seed 7919
    ("grushin_straightened", "intrinsic", (-0.401159, 0.051522), (-0.341605, 0.091625), True),  # dist17, seed 7919
    ("grushin_straightened", "extrinsic", (0.298873, 0.199098), (0.24813, 0.259032), True),  # dist18, seed 7919
]

# the extrinsic distance of each fixture; a geodesic that stays in the half space
# is intrinsic too, so a feasible one meets it in either mode
_REFERENCES = {
    "elliptic": exact_metrics.elliptic,
    "heat": exact_metrics.heat,
    "grushin": exact_metrics.grushin_distance,
    "grushin_straightened": exact_metrics.grushin_straightened_distance,
    "heisenberg": exact_metrics.heisenberg_distance,
}


@pytest.mark.parametrize("fixture, mode, x, y, converges", _EQUAL_DEGREE_PAIRS)
def test_geodesic_upper_end_meets_the_reference(fixture, mode, x, y, converges):
    # where the geodesic converges the upper end is its length, within 1e-6 of
    # the exact distance and not below it but for a 1e-9 allowance for rounding
    sys = load_scenario(fixture).system()
    upper = ccmetric._geodesic_upper(sys, np.asarray(x), np.asarray(y), mode)
    assert (upper is not None) == converges
    if converges:
        exact = _REFERENCES[fixture](x, y)
        est = cc_distance(sys, x, y, mode=mode, tol=0.05, K=4)
        assert est.upper == upper and est.lower == (1 - 0.05) * upper
        assert exact * (1 - 1e-9) <= est.upper <= exact * (1 + 1e-6)


# the heat pairs of the seed-1 and seed-7919 benchmark `dist` ops
@pytest.mark.parametrize("fixture, mode, x, y", [p for p in _CLOSED_FORM_PAIRS if p[0] == "heat"])
def test_heat_geodesic_meets_the_closed_form(fixture, mode, x, y, monkeypatch):
    # unequal degrees: one Newton solve on (p0, log delta) reaches y with a unit
    # speed geodesic of the frame delta^{d_j} W_j, and the upper end is delta
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(ccmetric, "_scale_search", search)
    sys = load_scenario(fixture).system()
    upper = ccmetric._geodesic_upper(sys, np.asarray(x), np.asarray(y), mode)
    exact = exact_metrics.heat(x, y)
    assert upper is not None and exact * (1 - 1e-9) <= upper <= exact * (1 + 1e-6)
    est = cc_distance(sys, x, y, mode=mode, tol=0.05, K=4)
    assert (est.lower, est.upper) == ((1 - 0.05) * upper, upper)


# The pairs where no feasible geodesic converges, of the seed-1 and seed-7919
# benchmark `dist` ops, with the intervals (as float.hex) that the scale search
# gave before the geodesic solve existed
_FALLBACK_PAIRS = [
    ("grushin", "intrinsic", (-0.020774, -0.096908), (0.007727, -0.051875), '0x1.10ddda0bc8e48p-1', '0x1.1e828b592c898p-1'),  # dist06, seed 1
    ("grushin_straightened", "intrinsic", (0.400858, 0.030837), (0.649026, 0.020847), '0x1.0e39b7fb72a77p-1', '0x1.162c5b82d7e8ap-1'),  # dist07, seed 1
    ("heisenberg", "extrinsic", (-0.09063, 0.0, 0.47932), (-0.09063, 0.01999, 0.47932), '0x1.1e939eadd590cp-1', '0x1.28cfbfc6540ccp-1'),  # dist09, seed 1
    ("heisenberg", "intrinsic", (-0.011749, -0.086263, 0.034891), (0.117856, -0.092159, 0.036884), '0x0.0p+0', 'inf'),  # dist10, seed 1
    ("grushin", "intrinsic", (-0.020544, -0.096393), (0.007583, -0.050903), '0x1.11d5b0be83996p-1', '0x1.1f86c661a3c77p-1'),  # dist06, seed 7919
    ("grushin_straightened", "intrinsic", (0.398132, 0.030163), (0.648487, 0.018167), '0x1.08ad9e893bc64p-1', '0x1.10b2e1669aad4p-1'),  # dist07, seed 7919
    ("heisenberg", "extrinsic", (-0.090763, 0.0, 0.481355), (-0.090763, 0.020178, 0.481355), '0x1.2145953586ca9p-1', '0x1.2b9a5a89b951cp-1'),  # dist09, seed 7919
    ("heisenberg", "intrinsic", (-0.010547, -0.087763, 0.034173), (0.120361, -0.094242, 0.036187), '0x0.0p+0', 'inf'),  # dist10, seed 7919
]


@pytest.mark.parametrize("fixture, mode, x, y, lower, upper", _FALLBACK_PAIRS)
def test_fallback_pairs_keep_the_scale_search_intervals_bit_for_bit(fixture, mode, x, y, lower, upper):
    est = cc_distance(load_scenario(fixture).system(), x, y, mode=mode, tol=0.05, K=4)
    assert (est.lower.hex(), est.upper.hex()) == (lower, upper)


def test_a_converged_geodesic_does_not_depend_on_K(monkeypatch):
    # K shapes only the scale search, which a converged geodesic never runs
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(ccmetric, "_scale_search", search)
    sys = load_scenario("grushin").system()
    at4, at32 = (cc_distance(sys, (0.5, 0.0), (0.55, 0.06), K=K) for K in (4, 32))
    assert (at4.lower.hex(), at4.upper.hex()) == (at32.lower.hex(), at32.upper.hex())
    assert at4.upper == pytest.approx(exact_metrics.grushin_distance((0.5, 0.0), (0.55, 0.06)), rel=1e-6)


def _converged_upper(fixture, x, y, mode="extrinsic"):
    """cc_distance's upper end where a feasible geodesic converges; the test is skipped elsewhere."""
    sys = load_scenario(fixture).system()
    assume(ccmetric._geodesic_upper(sys, np.asarray(x), np.asarray(y), mode) is not None)
    return cc_distance(sys, x, y, mode=mode).upper


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)),
    st.tuples(st.floats(-0.15, 0.15), st.floats(-0.08, 0.08)),
    st.floats(0.5, 1.5),
)
def test_grushin_dilation_scales_the_upper_end(x, v, lam):
    # (x1, x2) -> (lam x1, lam^2 x2) maps the grushin fields' paths to paths of lam times the length
    y = (x[0] + v[0], x[1] + v[1])
    assume(math.hypot(*v) > 1e-3)
    d = _converged_upper("grushin", x, y)
    dilate = lambda p: (lam * p[0], lam**2 * p[1])  # noqa: E731
    assert _converged_upper("grushin", dilate(x), dilate(y)) == pytest.approx(lam * d, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    st.tuples(st.floats(-0.15, 0.15), st.floats(-0.02, 0.02), st.floats(-0.15, 0.15)),
    st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
)
def test_heisenberg_left_translation_keeps_the_upper_end(p, v, g):
    # the fields are left invariant, so d(g p, g q) = d(p, q), here in extrinsic mode
    q = tuple(a + b for a, b in zip(p, v))
    assume(math.hypot(v[0], v[2]) > 1e-2)
    d = _converged_upper("heisenberg", p, q)
    assert _converged_upper("heisenberg", _heisenberg_mul(g, p), _heisenberg_mul(g, q)) == pytest.approx(d, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    st.tuples(st.floats(-0.15, 0.15), st.floats(-0.1, 0.1)),
    st.floats(0.5, 1.5),
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
)
def test_heat_dilation_and_translation_move_the_upper_end(x, v, lam, g):
    # the heat fields are constant, so translations keep d, and (dx, dt) -> (lam dx, lam^2 dt)
    # scales it by lam; every such pair's geodesic converges (below |y - x| = 2e-3 the dt
    # column of the finite-difference Jacobian can drown in rounding, and the solve fails)
    assume(math.hypot(*v) > 1e-2)
    sys = load_scenario("heat").system()

    def upper(a, w):
        a = np.asarray(a)
        u = ccmetric._geodesic_upper(sys, a, a + w, "extrinsic")
        assert u is not None
        return u

    d = upper(x, v)
    assert upper(x, (lam * v[0], lam**2 * v[1])) == pytest.approx(lam * d, rel=1e-6)
    assert upper((x[0] + g[0], x[1] + g[1]), v) == pytest.approx(d, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(p.stem for p in fixtures_dir().glob("*.scn"))),
    st.sampled_from(["intrinsic", "extrinsic"]),
    st.lists(st.floats(-0.45, 0.45), min_size=3, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.floats(-7.0, -1.0),
)
def test_distinct_close_pairs_never_get_a_zero_interval(fixture, mode, x, v, exponent):
    # down to offsets of 1e-7: an interval with upper end 0 would claim x = y, and a
    # numpy warning would mean an overflow in some seed; where a geodesic converges its
    # upper end is not below the reference
    sys = load_scenario(fixture).system()
    x, v = np.array(x[: sys.n]), np.array(v[: sys.n])
    assume(np.linalg.norm(v) > 1e-3)
    y = x + 10.0**exponent * v / np.linalg.norm(v)
    if sys.box.has_boundary:
        x[-1], y[-1] = abs(x[-1]), abs(y[-1])
    assume(not np.array_equal(x, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = cc_distance(sys, x, y, mode=mode, K=4)
        upper = ccmetric._geodesic_upper(sys, x, y, mode)
    assert est.upper > 0
    reference = _REFERENCES.get(fixture)
    if upper is not None and reference is not None:
        assert est.upper == upper >= reference(tuple(x), tuple(y)) * (1 - 1e-9)


@pytest.mark.parametrize(
    "fixture, mode, x, y",
    [
        ("heat", "intrinsic", (0.1, 0.2), (0.1000001, 0.2)),
        ("heisenberg", "intrinsic", (0.0, 0.0, 0.5), (0.0, 0.0000001, 0.5)),
        ("heisenberg", "extrinsic", (0.1, 0.05, 0.3), (0.10001, 0.05, 0.30001)),
    ],
)
def test_a_pair_within_the_miss_tolerance_is_unresolved(fixture, mode, x, y, monkeypatch):
    # x itself lies within shooting's miss tolerance of y, so every scale would hit;
    # with no converged geodesic the interval is [0, inf], before any _shoot call
    def shoot(*args):
        raise AssertionError("shot")

    monkeypatch.setattr(ccmetric, "_shoot", shoot)
    sys = load_scenario(fixture).system()
    assert ccmetric._geodesic_upper(sys, np.asarray(x), np.asarray(y), mode) is None
    est = cc_distance(sys, x, y, mode=mode)
    assert (est.lower, est.upper) == (0.0, math.inf)


def test_a_close_pair_converges_to_the_reference():
    # the residual must also be small against |y - x|: at 1e-9 alone this pair read 9.9958e-8
    x, y = (0.0, 0.0, 0.0), (1e-7, 0.0, 0.0)
    est = cc_distance(load_scenario("heisenberg").system(), x, y, mode="extrinsic")
    exact = exact_metrics.heisenberg_distance(x, y)
    assert exact * (1 - 1e-9) <= est.upper <= exact * (1 + 1e-6)


def test_exact_metrics_closed_forms():
    assert exact_metrics.elliptic((0.0, 0.5), (0.3, 0.9)) == pytest.approx(0.5)
    # heat: a pure x-move costs |dx|, a pure t-move sqrt(|dt|), and a mixed
    # one solves (dx / d)^2 + (dt / d^2)^2 = 1
    assert exact_metrics.heat((0.1, 0.2), (0.4, 0.2)) == pytest.approx(0.3)
    assert exact_metrics.heat((0.1, 0.2), (0.1, 0.29)) == pytest.approx(0.3)
    d = exact_metrics.heat((0.0, 0.0), (0.12, -0.05))
    assert (0.12 / d) ** 2 + (0.05 / d**2) ** 2 == pytest.approx(1.0)
    # ball volumes: a disc and an ellipse with semi-axes delta and delta^2, halved at x_n = 0
    assert exact_metrics.elliptic_volume((0.0, 0.5), 0.2) == pytest.approx(math.pi * 0.04)
    assert exact_metrics.elliptic_volume((0.3, 0.0), 0.2) == pytest.approx(math.pi * 0.02)
    assert exact_metrics.heat_volume((0.0, 0.5), 0.1) == pytest.approx(math.pi * 1e-3)
    assert exact_metrics.heat_volume((0.2, 0.0), 0.1) == pytest.approx(math.pi * 5e-4)


def test_heisenberg_distance_limits():
    # r = 0: the vertical pair (y, 0, x) -> (y, t, x) of the benchmark's closed-form op
    for p, t in (((-0.09063, 0.0, 0.47932), 0.01999), ((0.3, 0.1, 0.2), -0.05)):
        q = (p[0], p[1] + t, p[2])
        assert exact_metrics.heisenberg_distance(p, q) == pytest.approx(math.sqrt(4.0 * math.pi * abs(t)), rel=1e-14)
    # t = 0: a horizontal chord from the origin, and one whose area term cancels the vertical offset
    assert exact_metrics.heisenberg_distance((0.0, 0.0, 0.0), (0.3, 0.0, 0.4)) == pytest.approx(0.5, rel=1e-14)
    p, q = (0.2, 0.0, 0.4), (0.5, 0.0, 0.8)  # x y' - y x' = 0.2 * -0.8 - -0.4 * 0.5 = 0.04
    assert exact_metrics.heisenberg_distance(p, (0.5, 0.02, 0.8)) == pytest.approx(0.5, rel=1e-12)
    assert exact_metrics.heisenberg_distance(p, q) > 0.5  # the same chord with t = -0.02


def _heisenberg_mul(g, p):
    """Left translation g p of fixture points, through the standard group law."""
    (x, y, t), (x2, y2, t2) = exact_metrics.heisenberg_group(g), exact_metrics.heisenberg_group(p)
    x, y, t = x + x2, y + y2, t + t2 + (x * y2 - y * x2) / 2.0
    return (x, t, -y)  # back to (x1, x2, x3) = (x, t, -y)


def test_heisenberg_distance_is_left_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, q, g = rng.uniform(-0.5, 0.5, (3, 3))
        d = exact_metrics.heisenberg_distance(p, q)
        assert exact_metrics.heisenberg_distance(_heisenberg_mul(g, p), _heisenberg_mul(g, q)) == pytest.approx(d, rel=1e-10)


def test_heisenberg_ball_constant_from_gaveaus_profile():
    # two quadrature resolutions agree, and both give the 0.825876 of exponential-map grids
    c_H = exact_metrics.HEISENBERG_BALL
    assert abs(exact_metrics.heisenberg_ball_constant(32) - c_H) <= 1e-13
    assert abs(c_H - 0.825876) <= 1e-6
    assert exact_metrics.heisenberg_volume((0.1, -0.2, 0.5), 0.3) == pytest.approx(c_H * 0.3**4, rel=1e-15)
    with pytest.raises(ValueError, match="leaves the half space"):
        exact_metrics.heisenberg_volume((0.0, 0.0, 0.2), 0.3)


def test_heisenberg_distance_reads_one_on_the_sphere_profile():
    # the profile point (r cos phi, r sin phi, +-t) in the group coordinates, left-translated
    # from the origin and two other base points, and dilated by delta to distance delta
    for theta in (0.05, 0.4, 1.0, 1.9, 2.8, 3.1):
        r, t = math.sin(theta) / theta, (2.0 * theta - math.sin(2.0 * theta)) / (8.0 * theta**2)
        for phi, sign, delta in ((0.0, 1.0, 1.0), (1.3, -1.0, 0.3), (4.0, 1.0, 0.05)):
            q = (delta * r * math.cos(phi), sign * delta**2 * t, -delta * r * math.sin(phi))
            for g in ((0.0, 0.0, 0.0), (0.3, -0.1, 0.2), (-0.4, 0.25, 0.6)):
                d = exact_metrics.heisenberg_distance(g, _heisenberg_mul(g, q))
                assert d == pytest.approx(delta, rel=1e-9)


@pytest.mark.parametrize("p, q", [
    ((0.1, -0.05, 0.4), (0.25, 0.03, 0.55)),
    ((-0.2, 0.1, 0.3), (0.1, -0.02, 0.2)),
    ((0.0, 0.0, 0.5), (0.05, 0.1, 0.45)),  # mostly vertical: the arc turns by nearly 2 pi
])
def test_heisenberg_distance_is_the_length_of_a_replayed_arc(p, q):
    # unit-speed circular arc of turning 2 theta from p, as K constant segments at
    # scale delta = d, so its length is d; it ends at q to O(theta^2 / K^2)
    d = exact_metrics.heisenberg_distance(p, q)
    (x, y, s), (x2, y2, s2) = exact_metrics.heisenberg_group(p), exact_metrics.heisenberg_group(q)
    dx, dy, t = x2 - x, y2 - y, s2 - s - (x * y2 - y * x2) / 2.0
    r = math.hypot(dx, dy)
    lo, hi = 0.0, math.pi  # theta r / sin theta = d, increasing in theta
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        lo, hi = (theta, hi) if theta * r / math.sin(theta) < d else (lo, theta)
    turn, K = 2.0 * theta * math.copysign(1.0, t), 256
    heading = math.atan2(dy, dx) - turn / 2.0 + turn * (np.arange(K) + 0.5) / K
    coeffs = np.stack([-np.sin(heading), np.cos(heading)], axis=1)[None]  # W1 = -Y, W2 = X
    ends, feasible, _ = integrate_controls(load_scenario("heisenberg").system(), p, d, coeffs, "extrinsic")
    assert feasible[0]
    assert np.abs(ends[0] - np.asarray(q)).max() < 1e-4


def _grushin_lift(p):
    """Phi^-1(x1, x2) = (x1, x2 + x1^2): grushin_straightened points to grushin ones."""
    return (p[0], p[1] + p[0] ** 2)


@pytest.mark.parametrize("p, q", [
    ((0.5, 0.0), (0.55, 0.06)),
    ((-0.4, 0.2), (-0.33, 0.16)),
    ((-0.02, -0.1), (0.01, -0.05)),  # near the singular line: x1 turns by about pi
    ((0.53, 0.15), (0.28, 0.24)),
    ((0.0, 0.0), (0.0, 0.1)),  # on it: the closed form sqrt(2 pi |dx2|)
])
def test_grushin_distance_is_the_length_of_a_replayed_control(p, q):
    # the geodesic's control (x1', lam x1) / d, as K constant segments at scale delta = d, so
    # of length d, ends at q on grushin and at Phi(q) on grushin_straightened, from p and Phi(p)
    p1, lam = exact_metrics.grushin_geodesic(p, q)
    d = exact_metrics.grushin_distance(p, q)
    K = 256
    t = (np.arange(K) + 0.5) / K
    x1 = p[0] * np.cos(lam * t) + p1 * t * np.sinc(lam * t / np.pi)
    dx1 = -p[0] * lam * np.sin(lam * t) + p1 * np.cos(lam * t)
    coeffs = (np.stack([dx1, lam * x1], axis=1) / d)[None]
    phi = lambda v: (v[0], v[1] - v[0] ** 2)  # noqa: E731
    for fixture, a, b in (("grushin", p, q), ("grushin_straightened", phi(p), phi(q))):
        ends, feasible, _ = integrate_controls(load_scenario(fixture).system(), a, d, coeffs, "extrinsic")
        assert feasible[0]
        assert np.abs(ends[0] - np.asarray(b)).max() < 1e-4
        if fixture == "grushin_straightened":
            lifted = exact_metrics.grushin_straightened_distance(a, b)
            assert lifted == pytest.approx(exact_metrics.grushin_distance(_grushin_lift(a), _grushin_lift(b)), rel=1e-15)
            assert lifted == pytest.approx(d, rel=1e-9)


def test_grushin_distance_finds_a_root_below_its_grid():
    # the root lam lies below 2 pi / 4000, the grid's first step after 0; shooting agrees
    p, q = (0.5, 0.0), (0.50001, 1e-5)
    d = exact_metrics.grushin_distance(p, q)
    assert d == pytest.approx(2.23605e-5, rel=1e-5)
    assert cc_distance(load_scenario("grushin").system(), p, q).upper == pytest.approx(d, rel=1e-6)


def test_grushin_distance_limits_and_dilation():
    # along x1 at fixed x2 the segment; on the singular line the closed form; and the
    # dilation (x1, x2) -> (lam x1, lam^2 x2) scales d by lam
    assert exact_metrics.grushin_distance((0.3, 0.1), (0.5, 0.1)) == pytest.approx(0.2, rel=1e-15)
    assert exact_metrics.grushin_distance((0.0, 0.0), (0.0, 0.1)) == pytest.approx(math.sqrt(0.2 * math.pi), rel=1e-15)
    assert exact_metrics.grushin_distance((0.0, 0.0), (1e-9, 0.1)) == pytest.approx(math.sqrt(0.2 * math.pi), rel=1e-6)
    for p, q in (((0.5, 0.0), (0.55, 0.06)), ((-0.4, 0.2), (-0.33, 0.16)), ((-0.02, -0.1), (0.01, -0.05))):
        d = exact_metrics.grushin_distance(p, q)
        for lam in (0.3, 1.7):
            dilate = lambda v: (lam * v[0], lam**2 * v[1])  # noqa: E731
            assert exact_metrics.grushin_distance(dilate(p), dilate(q)) == pytest.approx(lam * d, rel=1e-9)
        assert exact_metrics.grushin_distance(q, p) == pytest.approx(d, rel=1e-9)


@pytest.mark.parametrize("fixture", ["elliptic", "heat"])
def test_ball_volume_holds_the_closed_form(fixture):
    # every probe at the two smallest ladder rungs, as `ccgeo volume` runs them
    scn = load_scenario(fixture)
    exact = getattr(exact_metrics, f"{fixture}_volume")
    for x in scn.probes:
        for delta in sorted(scn.deltas)[:2]:
            est = ball_volume(scn.system(), x, delta, seed=scn.seed)
            assert abs(est.value - exact(x, delta)) <= 3 * est.std_error


def test_oracle_reaches_the_heat_pair_near_its_closed_form():
    # a heat pair whose oracle upper end once fell 8.8 % below the closed form (0.2316 vs 0.2112)
    x, y = (-0.29822, 0.301204), (-0.21844, 0.351561)
    est = oracle_distance(load_scenario("heat").system(), x, y, "intrinsic")
    assert est.upper >= 0.98 * exact_metrics.heat(x, y)


def test_cc_distance_intersects_oracle():
    sys = elliptic_half_plane()
    x, y = (0.0, 0.5), (0.25, 0.62)
    sh = cc_distance(sys, x, y, tol=0.05)
    orc = oracle_distance(sys, x, y, resolution=0.02)
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


# -- ReachGraph against a per-arrival dict loop of its rule -------------------


def _reference_run(g, target=None, arrival_tol=None, kept=None):
    """ReachGraph.run's rule, one Python step per arrival over dicts.

    Each round's arrivals, in (point, direction) order, lower their cell's
    best cost to the least of their costs.  An arrival expands when its
    cost is at most its cell's best after the round plus its move quantum,
    and a cell whose best fell takes the point of its least-index arrival
    at the new best.  The expanding arrivals do the same in half-cells: an
    arrival is accepted when its cost is below its half-cell's best before
    the round and equal to the best after it, and the next frontier is each
    accepted half-cell's least-index arrival, in arrival order.

    Every move is integrated in full and guarded by the chart box and, in
    intrinsic mode on a chart with boundary, the half-space after each half
    step.  Returns (reached, cost, settled) with settled mapping integer
    cell tuples to (cost, point); a list `kept` gets each round's count of
    kept arrivals.
    """
    target = None if target is None else np.asarray(target, dtype=float)
    tol = float(arrival_tol) if arrival_tol is not None else float(np.linalg.norm(g.res))
    vfs = g.sys.vfields()
    factors = g.factors
    box = g.sys.box
    halfspace = g.mode == "intrinsic" and box.has_boundary
    if target is not None and np.linalg.norm(g.x0 - target) <= tol:
        return True, 0.0, {}

    def cell(p):
        return tuple(np.floor((p - g.x0) / g.res + 0.5).astype(int))

    dist = {cell(g.x0): 0.0}
    pts = {cell(g.x0): g.x0}
    frontier = [(g.x0, 0.0)]
    qbest = {}
    with np.errstate(all="ignore"):
        while frontier:
            P = np.array([p for p, _ in frontier])
            C = np.array([c for _, c in frontier])
            W = _field_stack(vfs, P)
            V = np.einsum("dr,rfn->fdn", g.dirs, factors[:, None, None] * W)
            rates = (np.abs(V) / g.res).max(axis=2)
            remaining = (1.0 - C)[:, None]
            live = (rates > 1e-14) & (remaining > 1e-12)
            f_idx, d_idx = np.nonzero(live)
            if len(f_idx) == 0:
                if kept is not None:
                    kept.append(0)
                break
            tau = np.minimum(1.0 / rates[f_idx, d_idx], remaining[f_idx, 0])
            vel = _control_velocity(vfs, g.dirs[d_idx] * factors)
            Y = P[f_idx]
            dt = (tau / 2.0)[:, None]
            ok = np.ones(len(Y), dtype=bool)
            for _ in range(2):
                Y = _rk4_step(vel, Y, dt)
                ok &= np.all(np.isfinite(Y), axis=1) & box.contains(Y)
                if halfspace:
                    ok &= Y[:, -1] >= -BOUNDARY_TOL
            costs = C[f_idx] + tau
            ok &= costs <= 1.0 + 1e-12
            if kept is not None:
                kept.append(int(ok.sum()))
            if target is not None and ok.any():
                hit = ok & (np.linalg.norm(Y - target, axis=1) <= tol)
                if hit.any():
                    return True, float(costs[hit].min()), {}
            arrivals = [
                (tuple(k), tuple(q), y, float(c), float(t))
                for k, q, y, c, t in zip(
                    np.floor((Y - g.x0) / g.res + 0.5).astype(int)[ok],
                    np.floor((Y - g.x0) / g.res * 2.0 + 0.5).astype(int)[ok],
                    Y[ok], costs[ok], tau[ok],
                )
            ]
            before = {}
            for key, _, _, c, _ in arrivals:
                before.setdefault(key, dist.get(key, math.inf))
                dist[key] = min(dist.get(key, math.inf), c)
            won, expand = set(), []
            for arrival in arrivals:
                key, _, y, c, t = arrival
                if c < before[key] and c == dist[key] and key not in won:
                    won.add(key)
                    pts[key] = y
                if c <= dist[key] + t:
                    expand.append(arrival)
            qbefore = {}
            for _, fkey, _, c, _ in expand:
                qbefore.setdefault(fkey, qbest.get(fkey, math.inf))
                qbest[fkey] = min(qbest.get(fkey, math.inf), c)
            accepted, frontier = set(), []
            for _, fkey, y, c, _ in expand:
                if c < qbefore[fkey] and c == qbest[fkey] and fkey not in accepted:
                    accepted.add(fkey)
                    frontier.append((y, c))
            if len(dist) > ccmetric.MAX_CELLS:
                raise RuntimeError("oracle cell budget exceeded; coarsen the resolution")
    return False, math.inf, {k: (dist[k], pts[k]) for k in dist}


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
    # (system, x, delta, mode, res)
    (elliptic_half_plane, (0.0, 0.05), 0.3, "intrinsic", 0.03),
    (elliptic_half_plane, (0.1, 0.5), 0.25, "extrinsic", (0.03, 0.02)),
    (grushin_interior, (0.1, 0.0), 0.3, "intrinsic", (0.02, 0.01)),
    (grushin_interior, (0.5, 0.2), 0.3, "extrinsic", 0.025),
    (heisenberg_half, (0.0, 0.0, 0.1), 0.3, "intrinsic", (0.05, 0.04, 0.05)),
    (heisenberg_half, (0.1, 0.0, 0.5), 0.25, "extrinsic", 0.05),
    (heisenberg_frame_half, (0.1, 0.0, 0.05), 0.3, "intrinsic", (0.03, 0.025, 0.03)),
    # unequal degrees, so the per-direction weights dirs * factors differ by axis
    (heat_half_plane, (0.0, 0.05), 0.3, "intrinsic", (0.03, 0.01)),
    # the reachable set meets the chart edge x1 = 1, so the windows are clipped there
    (elliptic_unit_half_plane, (0.9, 0.05), 0.5, "intrinsic", 0.03),
    # on x1 = 0 the directions +-d/dx2 have rate 0: dead pairs that the final mask drops
    (grushin_interior, (0.0, 0.0), 0.3, "intrinsic", 0.025),
]
# the guards each case's runs keep, by its reach box: the chart box test when the box
# leaves the chart, the half-space test when it dips below x_n = -BOUNDARY_TOL
REFERENCE_GUARDS = [{"halfspace"}, set(), set(), set(), {"halfspace"}, set(), {"halfspace"}, {"halfspace"}, {"box", "halfspace"}, set()]


def _guards_kept(g, reach):
    """The guards ReachGraph.run keeps in its moves, given the proven reach box x0 +- reach."""
    sys = g.sys
    c, edge = np.asarray(sys.box.center), np.asarray(sys.box.half_widths) + 1e-9
    kept = set() if np.all(np.abs(g.x0 - reach - c) <= edge) and np.all(np.abs(g.x0 + reach - c) <= edge) else {"box"}
    if g.mode == "intrinsic" and sys.box.has_boundary and g.x0[-1] - reach[-1] < -BOUNDARY_TOL:
        kept.add("halfspace")
    return kept


def test_reference_cases_cover_every_guard_choice():
    assert len(REFERENCE_GUARDS) == len(REFERENCE_CASES)
    assert any("box" not in kept for kept in REFERENCE_GUARDS)
    unit = [i for i, c in enumerate(REFERENCE_CASES) if c[:3] == (elliptic_unit_half_plane, (0.9, 0.05), 0.5)]
    assert unit and all("box" in REFERENCE_GUARDS[i] for i in unit)
    for (make, _, _, mode, _), kept in zip(REFERENCE_CASES, REFERENCE_GUARDS):
        if mode == "intrinsic" and make().box.has_boundary:
            assert "halfspace" in kept


@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_reach_graph_matches_dict_loop_bit_for_bit(case, monkeypatch):
    make, x, delta, mode, res = REFERENCE_CASES[case]
    sys = make()

    def graph():
        return ReachGraph(sys, x, delta, mode, res=res)

    ref_kept = []
    ref_reached, ref_cost, ref = _reference_run(graph(), kept=ref_kept)
    assert (ref_reached, ref_cost) == (False, math.inf)
    # targeted runs: an interior settled point, a far one, one out of reach
    pts = np.array([p for _, p in ref.values()])
    far = pts[np.argmax(np.linalg.norm(pts - np.asarray(x), axis=1))]
    targeted = [
        (target, tol, _reference_run(graph(), target, tol)[:2])
        for target in (pts[len(pts) // 2], far, np.asarray(x) + 0.9)
        for tol in (None, 0.5 * float(np.min(res)))
    ]

    # every run's reach box, each full run's rows integrated and kept arrivals per round
    proven, rows_in, kept = [], [], []
    reach_box, control_step, settle = ccmetric._reach_box, ccmetric._control_step, ccmetric._Slots.settle

    def spy_box(*args):
        proven.append(reach_box(*args))
        return proven[-1]

    def spy_step(vfs, a, dt):
        rows_in.append(len(a))
        return control_step(vfs, a, dt)

    def spy_settle(store, idx, c):
        if store.n_pts:  # the cells, not the half-cells
            kept.append(len(c))
        return settle(store, idx, c)

    monkeypatch.setattr(ccmetric, "_control_step", spy_step)
    monkeypatch.setattr(ccmetric._Slots, "settle", spy_settle)
    # rounds in blocks of the default size, of one frontier point, of two
    # points and a spare row, and in one block; then with nothing proven, so every guard runs
    D = len(graph().dirs)
    for rows, box in [(ccmetric.ROUND_ROWS, spy_box), (D, spy_box), (2 * D + 1, spy_box), (10**9, spy_box), (ccmetric.ROUND_ROWS, lambda *a: None)]:
        monkeypatch.setattr(ccmetric, "ROUND_ROWS", rows)
        monkeypatch.setattr(ccmetric, "_reach_box", box)
        g = graph()
        rows_in.clear()
        kept.clear()
        assert g.run() == (False, math.inf)
        assert kept[1:] == ref_kept  # the first settle is the base point's
        got = _settled_as_dict(g)
        assert len(g.settled) == len(ref) and got.keys() == ref.keys()
        for k, (c, p) in ref.items():
            assert got[k][0] == c and np.array_equal(got[k][1], p)
        for target, tol, expected in targeted:
            assert graph().run(target, tol) == expected
        if box is spy_box and rows == 10**9:
            dropped = sum(rows_in) - sum(ref_kept)
    assert proven and all(p is not None for p in proven)
    assert {frozenset(_guards_kept(g, p[1])) for p in proven} == {frozenset(REFERENCE_GUARDS[case])}
    if REFERENCE_CASES[case][:2] == (grushin_interior, (0.0, 0.0)):
        assert not REFERENCE_GUARDS[case] and dropped > 0  # with no guard run, only dead pairs are dropped

    rng = np.random.default_rng(case)
    lo, hi = pts.min(axis=0) - 0.05, pts.max(axis=0) + 0.05
    probes = np.vstack([lo + (hi - lo) * rng.random((400, sys.n)), pts[:50], [np.full(sys.n, np.nan), np.full(sys.n, 10.0)]])
    for dilate in (0, 1):
        assert np.array_equal(g.contains(probes, dilate=dilate), _reference_contains(g, ref, probes, dilate))


PROVEN_MISS_CASES = [
    # (system, x, delta, mode, res, target): targets in reach of the speed bound
    # but not of the search, so the proof ends it after some rounds, or at once
    (grushin_interior, (0.1, 0.0), 0.3, "intrinsic", 0.02, (0.1, 0.06)),
    (grushin_interior, (0.1, 0.0), 0.3, "intrinsic", 0.02, (0.1, 0.1)),
    (grushin_interior, (0.5, 0.2), 0.3, "extrinsic", 0.025, (0.5, 0.4)),
    (heisenberg_half, (0.1, 0.0, 0.5), 0.25, "extrinsic", 0.05, (0.1, 0.12, 0.5)),
    (heisenberg_half, (0.0, 0.0, 0.1), 0.3, "intrinsic", 0.05, (0.0, 0.15, 0.1)),
    (heat_half_plane, (0.0, 0.05), 0.3, "intrinsic", (0.03, 0.01), (0.0, 0.15)),
    (elliptic_half_plane, (0.0, 0.05), 0.3, "intrinsic", 0.03, (0.35, 0.05)),
]


@pytest.mark.parametrize("case", range(len(PROVEN_MISS_CASES)))
def test_proven_miss_returns_the_dict_loop_answer_in_fewer_rounds(case, monkeypatch):
    make, x, delta, mode, res, target = PROVEN_MISS_CASES[case]
    tol = 0.5 * float(np.min(res))
    rounds, stack = [], _field_stack

    def counted(vfs, P):  # one field stack per round, as every round fits one block
        rounds[-1] += 1
        return stack(vfs, P)

    monkeypatch.setattr(ccmetric, "ROUND_ROWS", 10**9)
    monkeypatch.setattr(ccmetric, "_field_stack", counted)
    monkeypatch.setitem(globals(), "_field_stack", counted)  # the reference's
    runs = []
    for run in (_reference_run, ReachGraph.run):
        rounds.append(0)
        g = ReachGraph(make(), x, delta, mode, res=res)
        runs.append(run(g, np.asarray(target), tol)[:2])
    assert runs[0] == runs[1] == (False, math.inf)
    assert rounds[1] < rounds[0]
    assert len(g.settled) == 0  # a proven miss leaves settled as it was


def test_targeted_round_returns_the_least_hit_over_its_blocks(monkeypatch):
    # elliptic moves are straight: the first round lands on x0 + res (a, b),
    # max(|a|, |b|) = 1, in direction order.  In the second round x0 + res (2, 0)
    # is hit first from res (1, -1) along a diagonal, at cost 2 sqrt(2) res / delta,
    # and blocks later, more cheaply, from res (1, 0) along the axis
    sys = elliptic_half_plane()
    x, delta, res = np.array([0.0, 0.5]), 0.3, 0.03
    target, tol = x + [2 * res, 0.0], 0.25 * res

    def graph():
        return ReachGraph(sys, x, delta, res=res)

    expected = _reference_run(graph(), target, tol)[:2]
    assert expected[0] and expected[1] == pytest.approx(2 * res / delta)
    D = len(graph().dirs)
    for rows in (D, 2 * D + 1, 10**9):
        monkeypatch.setattr(ccmetric, "ROUND_ROWS", rows)
        assert graph().run(target, tol) == expected


def test_round_blocks_bound_the_oracle_memory(monkeypatch):
    # the extrinsic Heisenberg ball at delta 0.6 keeps more than 4 ROUND_ROWS
    # arrivals in its largest rounds
    kept = []
    settle = ccmetric._Slots.settle

    def counted(store, idx, c):
        kept.append(len(c))
        return settle(store, idx, c)

    monkeypatch.setattr(ccmetric._Slots, "settle", counted)

    def peak():
        g = ReachGraph(heisenberg_half(), (0.0, 0.0, 0.5), 0.6, "extrinsic", res=0.02)
        tracemalloc.start()
        try:
            g.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak()
    assert max(kept) > 4 * ccmetric.ROUND_ROWS
    monkeypatch.setattr(ccmetric, "ROUND_ROWS", 10**9)
    assert peak() >= 1.5 * blocked


def test_slot_window_is_clipped_to_the_chart(monkeypatch):
    # the elliptic_unit_half_plane case reaches the chart edge x1 = 1: the window sized from the
    # proven box, and without one the grown window's margin, stop there
    make, x, delta, mode, res = next(c for c in REFERENCE_CASES if c[0] is elliptic_unit_half_plane)
    for proven in (True, False):
        if not proven:
            monkeypatch.setattr(ccmetric, "_reach_box", lambda *a: None)
        g = ReachGraph(make(), x, delta, mode, res=res)
        g.run()
        w = g._window
        lo, shape = g._cells
        top = lo + np.array(shape) - 1
        assert w.fixed == proven
        assert np.all(np.array(w.lo) >= lo) and np.all(np.array(w.hi) <= top)
        assert w.hi[0] == top[0]
        assert w.shape == tuple(int(b - a) + 1 for a, b in zip(w.lo, w.hi))
        assert len(w.cost) == len(w.pts) == math.prod(w.shape) < math.prod(shape)
        assert np.count_nonzero(w.cost < math.inf) == w.size == len(g.settled)


_WINDOW_SYSTEMS = [
    load_scenario(name).system()
    for name in [p.stem for p in sorted(fixtures_dir().glob("*.scn"))]
    + [str(Path(__file__).resolve().parent / "fixtures" / "sine_boundary.scn")]
]


@st.composite
def _window_case(draw):
    """A packaged or test system, a point in its chart, 0 < delta <= 0.5, a coarse
    resolution, a mode, and a target in the chart or none (a full run)."""
    sys = draw(st.sampled_from(_WINDOW_SYSTEMS))
    c, hw = np.asarray(sys.box.center), np.asarray(sys.box.half_widths)
    unit = st.floats(-1.0, 1.0, allow_nan=False)

    def point():
        return c + np.array([draw(unit) for _ in range(sys.n)]) * hw

    x = point()
    if sys.box.has_boundary:
        x[-1] = abs(x[-1])
    delta = draw(st.floats(0.01, 0.5))
    res = hw * np.array([draw(st.floats(0.05, 0.2)) for _ in range(sys.n)])
    target = draw(st.sampled_from([None, point()]))
    return sys, x, delta, res, draw(st.sampled_from(["intrinsic", "extrinsic"])), target


@settings(max_examples=60, deadline=None)
@given(_window_case())
def test_every_kept_arrival_lies_in_the_proven_window(case):
    # a move of time at most 1 - C starts within C S of x0, so every kept arrival lies in
    # x0 +- S, the box both windows are sized from; a run with a proven box never grows them
    sys, x, delta, res, mode, target = case
    proven = ccmetric._reach_box(sys, x, delta)
    assume(proven is not None)
    assume(target is None or np.linalg.norm(x - target) > np.linalg.norm(res))  # else no round runs
    S = proven[0]
    arrivals, outside, grown = [], [], []
    index, settle = ReachGraph._index, ccmetric._Slots.settle

    def spy_index(g, p, scale):
        if scale == 1.0:
            arrivals.append(p.copy())
        return index(g, p, scale)

    def spy_settle(store, idx, c):
        outside.extend(np.count_nonzero((i < a) | (i > b)) for i, a, b in zip(idx, store.lo, store.hi))
        return settle(store, idx, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReachGraph, "_index", spy_index)
        mp.setattr(ccmetric._Slots, "settle", spy_settle)
        mp.setattr(ccmetric._Slots, "_cover", lambda store, idx: grown.append(store))
        g = ReachGraph(sys, x, delta, mode, res=res)
        arrivals.clear()  # the run's own: its windows' corners, then every kept arrival
        g.run(target)
    assert arrivals and not grown and not any(outside)
    pts = np.concatenate(arrivals)
    assert np.all((x - S <= pts) & (pts <= x + S))


@st.composite
def _rounds(draw):
    """Rounds of arrivals on a small 2-D grid, as grid indices and costs: duplicate keys
    and exactly equal costs are common, and later rounds may leave the window so far."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    cost = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        N = draw(st.integers(0, 25))
        cells = draw(st.lists(st.tuples(*[st.integers(0, m - 1) for m in shape]), min_size=N, max_size=N))
        rounds.append((cells, draw(st.lists(cost, min_size=N, max_size=N))))
    return shape, rounds


@settings(max_examples=300, deadline=None)
@given(_rounds(), st.sampled_from([0.0, -3.0, 5.0]), st.booleans())
def test_settle_matches_a_dict_reference(case, lo, fixed):
    # per round: each cell's best falls to the least of its arrivals' costs, and the arrivals
    # that set a fallen best are, per cell, the least index with the new best; in a window
    # fixed to the grid's range and in one grown from the rounds' indices
    shape, rounds = case
    grid = (np.array([lo, -lo]), shape)
    window = ([lo, -lo], [lo + shape[0] - 1, -lo + shape[1] - 1]) if fixed else None
    store = ccmetric._Slots(grid, 0, [np.empty(0, dtype=np.int32)], window)
    assert store.fixed == fixed
    best = {}
    for cells, costs in rounds:
        before = {k: best.get(k, math.inf) for k in cells}
        for k, c in zip(cells, costs):
            best[k] = min(best[k], c) if k in best else c
        won, seen = [], set()
        for i, (k, c) in enumerate(zip(cells, costs)):
            if c < before[k] and c == best[k] and k not in seen:
                won.append(i)
                seen.add(k)
        idx = [np.array([k[j] + g for k in cells], dtype=float) for j, g in enumerate((lo, -lo))]
        s, after, got = store.settle(idx, np.array(costs, dtype=float))
        assert got.tolist() == won
        assert after.tolist() == [best[k] for k in cells]
        assert len(set(zip(s.tolist(), cells))) == len(set(cells)) == len(set(s.tolist()))
        assert store.size == len(best)
        assert np.all(np.array(store.lo) >= (lo, -lo)) and np.all(np.array(store.hi) < np.array((lo, -lo)) + shape)
        assert len(store.scratch[0]) >= len(store.cost) == math.prod(store.shape)
    if fixed:
        assert store.shape == shape
    keys, cost, _ = store.settled()
    order = sorted(best)
    assert keys.tolist() == [np.ravel_multi_index(k, shape) for k in order]
    assert cost.tolist() == [best[k] for k in order]


# -- the oracle's numpy idioms against the forms they replaced --------------

_SPECIAL = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -0.5, 1.0 + 1e-9, -1.0 - 1e-9, 2.0])


@pytest.mark.parametrize("n", [2, 3])
def test_column_folds_match_numpy_reductions_bit_for_bit(n):
    rng = np.random.default_rng(n)
    Y = rng.choice(_SPECIAL, size=(600, n))
    c, edge = rng.choice([0.0, -0.0, 0.5], n), np.full(n, 1.0 + 1e-9)
    box = ccmetric._columns(np.logical_and, lambda y, c, e: np.abs(y - c) <= e, Y, c, edge)
    assert np.array_equal(box, np.all(np.abs(Y - c) <= edge, axis=1))
    assert box.any() and not box.all()
    dev = np.abs(Y - c)  # the guard test of integrate_controls
    assert np.array_equal(ccmetric._columns(np.logical_and, np.less_equal, dev, edge), np.all(dev <= edge, axis=1))
    # the move rates: (F, n, D) over the n coordinates, signed zeros and nans as they come
    V, res = rng.choice(_SPECIAL, size=(80, n, 16)), rng.choice([0.02, 0.5, 3.0], n)
    rates = ccmetric._columns(np.maximum, lambda v, r: np.abs(v) / r, V, res)
    assert rates.tobytes() == (np.abs(V) / res[:, None]).max(axis=1).tobytes()
    assert ccmetric._columns(np.maximum, lambda v: v, V).tobytes() == V.max(axis=1).tobytes()
    assert ccmetric._columns(np.maximum, np.divide, np.abs(V), res).tobytes() == rates.tobytes()
    # the oracle's hit distance: the left-to-right sum of squares is np.linalg.norm's
    target = rng.choice(_SPECIAL, n)
    with np.errstate(all="ignore"):  # as the oracle runs
        hit = np.sqrt(ccmetric._columns(np.add, lambda y, t: np.square(y - t), Y, target))
        assert hit.tobytes() == np.linalg.norm(Y - target, axis=1).tobytes()
    # the per-segment control norms of shooting, (S, K, n) over the last axis
    ctrl = rng.choice(_SPECIAL, size=(50, 4, n))
    norm = np.sqrt(ccmetric._columns(np.add, np.square, ctrl.reshape(-1, n))).reshape(50, 4, 1)
    assert norm.tobytes() == np.linalg.norm(ctrl, axis=-1, keepdims=True).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_control_projection_and_norm_match_the_numpy_forms_bit_for_bit(n):
    # rows of special values, and finite rows near the 0.995 cap, where the
    # scale factor 0.995 / norm rounds close to 1
    rng = np.random.default_rng(10 + n)
    special = rng.choice(_SPECIAL, size=(300, 4, n))
    unit = rng.standard_normal((300, 4, n))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    near = unit * (0.995 + rng.choice([-1, 0, 1, 2], (300, 4, 1)) * np.spacing(0.995))
    for cand in (special, near, rng.standard_normal((300, 4, n))):
        with np.errstate(all="ignore"):  # inf * 0 in rows with an infinite entry
            norm = np.linalg.norm(cand, axis=-1, keepdims=True)
            want = np.where(norm > 0.995, cand * (0.995 / np.maximum(norm, 1e-300)), cand)
            assert ccmetric._project_controls(cand).tobytes() == want.tobytes()
        for v in cand[:40].reshape(-1, n):
            got, ref = ccmetric._norm(v), float(np.linalg.norm(v))
            assert got == ref or (math.isnan(got) and math.isnan(ref))


@pytest.mark.parametrize("make, x, res", [
    (elliptic_half_plane, (0.1, 0.5), (0.03, 0.02)),
    (heisenberg_half, (0.1, 0.0, 0.5), (0.05, 0.04, 0.05)),
])
def test_column_keys_match_ravel_multi_index(make, x, res):
    # on every in-range index of both grids, corners included, at the grid points x0 + index res / scale
    g = ReachGraph(make(), x, 0.3, res=res)
    for scale, (lo, shape) in ((1.0, g._cells), (2.0, g._halves)):
        idx = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
        if len(idx) > 200_000:
            idx = idx[np.r_[:1000, -1000:0, np.random.default_rng(0).integers(0, len(idx), 50_000)]]
        want = np.ravel_multi_index(tuple(idx.T), shape)
        got = ccmetric._ravel(g._index(g.x0 + (idx + lo) * g.res / scale, scale), lo, shape)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _broadcast_keys(g, pts, scale, grid):
    """The cell keys as the oracle once formed them: a broadcast index, then np.ravel_multi_index."""
    lo, shape = grid
    q = (pts - g.x0) / g.res
    idx = np.floor((q if scale == 1.0 else q * scale) + 0.5)
    return np.ravel_multi_index(tuple((idx - lo).astype(np.int64).T), shape)


@pytest.mark.parametrize("make, x, res", [
    (elliptic_half_plane, (0.1, 0.5), (0.03, 0.02)),
    (heisenberg_half, (0.1, 0.0, 0.5), (0.05, 0.04, 0.05)),
    (heat_half_plane, (0.0, 0.05), 0.07),
])
def test_column_keys_match_the_broadcast_formula(make, x, res):
    # random real points of the box, and the cell boundaries x0 + (k + 1/2) res / scale of
    # both grids, where rounding decides the cell
    g = ReachGraph(make(), x, 0.3, res=res)
    c, hw = np.asarray(g.sys.box.center), np.asarray(g.sys.box.half_widths)
    rng = np.random.default_rng(len(g.x0))
    pts = c + hw * rng.uniform(-1.0, 1.0, (5000, len(c)))
    for scale, grid in ((1.0, g._cells), (2.0, g._halves)):
        k = np.arange(-60, 60)[:, None] + 0.5
        edges = g.x0 + k * g.res / scale
        edges = edges[np.all(np.abs(edges - c) <= hw, axis=1)]
        for p in (pts, edges):
            assert np.array_equal(ccmetric._ravel(g._index(p, scale), *grid), _broadcast_keys(g, p, scale, grid))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_keys_match_the_broadcast_formula_on_any_grid(data):
    sys = data.draw(st.sampled_from([elliptic_half_plane, heisenberg_half]))()
    c, hw = np.asarray(sys.box.center), np.asarray(sys.box.half_widths)
    inside = st.tuples(*[st.floats(a - h, a + h) for a, h in zip(c, hw)])
    x = data.draw(inside)
    res = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=sys.n, max_size=sys.n))
    pts = np.array(data.draw(st.lists(inside, min_size=1, max_size=20)))
    g = ReachGraph(sys, x, 0.3, "extrinsic", res=res)  # x may lie below {x_n = 0}; the keys do not read the mode
    for scale, grid in ((1.0, g._cells), (2.0, g._halves)):
        assert np.array_equal(ccmetric._ravel(g._index(pts, scale), *grid), _broadcast_keys(g, pts, scale, grid))


def test_reach_graph_cell_budget_error_carries_context(monkeypatch):
    # windows of more than MAX_CELLS cells grow with the explored set, so the error comes
    # after the same round, with the same count, as from a store that always grew
    sys = elliptic_half_plane()
    for cap, cells, rounds in ((50, 81, 4), (500, 529, 11)):
        monkeypatch.setattr(ccmetric, "MAX_CELLS", cap)
        g = ReachGraph(sys, (0.0, 0.5), 0.3, res=0.02)
        with pytest.raises(RuntimeError, match=rf"cell budget exceeded: {cells} cells settled, max_cells {cap}, "
                           rf"after {rounds} frontier rounds at resolution \[0.02, 0.02\]"):
            g.run()


@pytest.mark.parametrize("estimator", [cc_distance, oracle_distance])
@pytest.mark.parametrize("x, y", [((0.0, 0.5), (math.nan, 0.5)), ((0.0, math.inf), (0.2, 0.5))])
def test_distance_estimators_reject_non_finite_points(estimator, x, y):
    # shooting used to hang in its Gauss-Newton least squares; the oracle
    # searched every scale and gave [0, inf]
    with pytest.raises(ValueError, match="endpoints must be finite"):
        estimator(elliptic_half_plane(), x, y)


@pytest.mark.parametrize("estimator", [cc_distance, oracle_distance])
@pytest.mark.parametrize(
    "x, y, mode, point",
    [
        ((0.0, -0.5), (0.1, 0.5), "intrinsic", "base"),  # below {x_n = 0}
        ((0.0, -0.5), (0.0, -0.5), "intrinsic", "base"),
        ((3.0, 0.5), (0.1, 0.5), "extrinsic", "base"),  # outside the box
        ((0.0, 0.5), (1e6, 0.5), "intrinsic", "target"),
        ((0.0, 0.5), (0.1, -0.5), "intrinsic", "target"),
        ((0.0, 0.5), (0.0, 2.5), "extrinsic", "target"),
    ],
)
def test_distance_estimators_reject_points_outside_the_chart(estimator, x, y, mode, point, monkeypatch):
    # shooting gave [0, inf] for a base point below the boundary; the oracle
    # searched every scale up to DELTA_MAX for a target far outside the box
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(ccmetric, "_scale_search", search)
    with pytest.raises(ValueError, match=f"^{point} point is not in the chart$"):
        estimator(elliptic_half_plane(), x, y, mode)


@pytest.mark.parametrize("K", [0, -2])
def test_cc_distance_rejects_fewer_than_one_segment(K, monkeypatch):
    # K = -2 used to fail in numpy's tile ("negative dimensions"), K = 0 in
    # the first integration of the scale search
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(ccmetric, "_scale_search", search)
    with pytest.raises(ValueError, match=f"^shooting controls need at least one segment, got K = {K}$"):
        cc_distance(elliptic_half_plane(), (0.0, 0.5), (0.1, 0.5), K=K)


def test_oracle_rejects_a_per_axis_resolution():
    with pytest.raises(ValueError, match="oracle_distance resolution must be one number"):
        oracle_distance(elliptic_half_plane(), (0.0, 0.5), (0.2, 0.5), resolution=(0.02, 0.02))


@pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf])
def test_reach_graph_rejects_a_bad_scale(delta, monkeypatch):
    # delta -0.1 used to settle 341 cells, nan one
    monkeypatch.setattr(ReachGraph, "run", lambda *args: pytest.fail("searched"))
    with pytest.raises(ValueError, match=f"oracle scale must be finite and non-negative, got delta = {delta}"):
        reach_graph(elliptic_half_plane(), (0.0, 0.5), delta, res=0.01)


@pytest.mark.parametrize("target, tol, what", [
    ((math.nan, 0.5), None, "target must be finite"),
    ((0.1, math.inf), 0.01, "target must be finite"),
    ((0.1, 0.5), -0.01, "arrival tolerance must be finite and non-negative"),
    ((0.1, 0.5), math.nan, "arrival tolerance must be finite and non-negative"),
    ((0.1, 0.5), math.inf, "arrival tolerance must be finite and non-negative"),
])
def test_reach_graph_run_rejects_a_bad_target_or_tolerance(target, tol, what, monkeypatch):
    # each used to explore the whole budget and return (False, inf)
    monkeypatch.setattr(ccmetric, "_field_stack", lambda *args: pytest.fail("searched"))
    with pytest.raises(ValueError, match=what):
        ReachGraph(elliptic_half_plane(), (0.0, 0.5), 0.3, res=0.02).run(target, tol)


@pytest.mark.parametrize("points", [np.zeros(2), np.zeros((4, 3)), np.zeros((1, 2, 1))])
def test_reach_graph_contains_rejects_points_of_the_wrong_shape(points):
    # a 1-D point used to raise numpy's AxisError, three columns a broadcast error
    g = reach_graph(elliptic_half_plane(), (0.0, 0.5), 0.1, res=0.02)
    with pytest.raises(ValueError, match=rf"^membership points must be an \(N, 2\) array, got shape {re.escape(str(points.shape))}$"):
        g.contains(points)


# 1e-10: the half-cell grid over the 4 x 4 chart would need more than 2^63 keys
@pytest.mark.parametrize("res", [0.0, -0.02, math.nan, math.inf, (0.02, 0.0), 1e-10])
def test_reach_graph_rejects_bad_resolution(res):
    with pytest.raises(ValueError, match="resolution"):
        ReachGraph(elliptic_half_plane(), (0.0, 0.5), 0.3, res=res)


# -- lockstep shooting against sequential two-call polishes -------------


def _reference_polish(sys, x, y, delta, mode, ctrl, miss_tol):
    """The two-call Gauss-Newton polish: a finite-difference call and a
    line-search call per step."""
    y = np.asarray(y, dtype=float)
    K, r = ctrl.shape
    m = K * r
    p = ccmetric._project_controls(np.asarray(ctrl, dtype=float)).reshape(-1).copy()

    def full_resid(ends, depth):
        return np.concatenate([ends - y[None, :], 10.0 * depth[:, None]], axis=1)

    def integrate(coeffs):
        return ccmetric.integrate_controls(sys, x, delta, coeffs, mode, ccmetric.SHOOT_STEPS)

    ends, feas, depth = integrate(p.reshape(1, K, r))
    best_pen = float(np.linalg.norm(full_resid(ends, depth)[0]))
    best_miss = float(np.linalg.norm(ends[0] - y)) if feas[0] else math.inf
    best_ctrl = p.copy()
    h = 1e-4
    scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    for _ in range(6):
        if best_miss <= miss_tol:
            break
        batch = np.tile(p, (m + 1, 1))
        batch[1:] += np.eye(m) * h
        ends, feas, depth = integrate(ccmetric._project_controls(batch.reshape(m + 1, K, r)))
        resid = full_resid(ends, depth)
        jac = (resid[1:] - resid[0]).T / h
        step, *_ = np.linalg.lstsq(jac, -resid[0], rcond=None)
        cands = ccmetric._project_controls((p[None] + scales[:, None] * step[None]).reshape(len(scales), K, r))
        e2, f2, d2 = integrate(cands)
        pen2 = np.linalg.norm(full_resid(e2, d2), axis=1)
        k = int(np.argmin(pen2))
        if pen2[k] >= best_pen - 1e-15:
            break
        best_pen = float(pen2[k])
        p = cands[k].reshape(-1)
        miss2 = float(np.linalg.norm(e2[k] - y))
        if f2[k] and miss2 < best_miss:
            best_miss = miss2
            best_ctrl = p.copy()
    return best_miss, best_ctrl.reshape(K, r)


def _reference_shoot(sys, x, y, delta, mode, K, miss_tol, init_ctrl, counted):
    """Shooting with one seed after the other, each by the two-call polish.

    `counted` grows by one per integrate_controls call.  Returns the
    result and, per seed run, the calls one call per step would make:
    s + 1 where the two-call polish of s steps makes 2s + 1.
    """
    factors = np.array([delta**d for d in sys.degrees])
    mid = 0.5 * (np.asarray(x) + np.asarray(y))
    cols = np.stack([vf.eval_many(mid) for vf in sys.vfields()], axis=1) * factors
    a0, *_ = np.linalg.lstsq(cols, np.asarray(y) - np.asarray(x), rcond=None)
    nrm = np.linalg.norm(a0)
    if nrm > 0.9:
        a0 *= 0.9 / nrm
    seeds = [np.tile(a0, (K, 1))] if init_ctrl is None else [init_ctrl, np.tile(a0, (K, 1))]
    best_miss, best_ctrl = math.inf, init_ctrl
    calls = []
    for seed_ctrl in seeds:
        start = len(counted)
        m, c = _reference_polish(sys, x, y, delta, mode, seed_ctrl, miss_tol)
        two_call = len(counted) - start
        assert two_call % 2 == 1
        calls.append((two_call + 1) // 2)
        if m < best_miss:
            best_miss, best_ctrl = m, c
        if best_miss <= miss_tol:
            break
    return (best_miss, best_ctrl), calls


# (fixture, mode, x, y): pairs of the dist benchmark's strata
POLISH_PAIRS = [
    ("elliptic", "intrinsic", (-0.34, 0.01), (-0.04, 0.022)),
    ("heat", "intrinsic", (0.25, 0.6), (-0.05, 0.45)),
    ("grushin_straightened", "intrinsic", (0.4, 0.03), (0.65, 0.02)),
    ("heisenberg", "extrinsic", (-0.09, 0.0, 0.48), (-0.09, 0.02, 0.48)),
]


@pytest.mark.parametrize("K", [4, 32])
@pytest.mark.parametrize("case", range(len(POLISH_PAIRS)))
def test_polish_matches_two_call_reference_bit_for_bit(case, K, monkeypatch):
    # every scale of a cc_distance run, with its warm start, against one
    # seed after the other by the two-call polish: the same (miss, ctrl)
    # bits, from max(a, b) integrate_controls calls where one seed after
    # the other at one call per step makes a + b
    fixture, mode, x, y = POLISH_PAIRS[case]
    sys = load_scenario(fixture).system()
    lockstep = ccmetric._shoot
    integrate = ccmetric.integrate_controls
    counted = []
    both_ran = []

    def counting(*args, **kwargs):
        counted.append(1)
        return integrate(*args, **kwargs)

    def both(sys, x, y, delta, mode, K, miss_tol, init_ctrl=None):
        start = len(counted)
        got = lockstep(sys, x, y, delta, mode, K, miss_tol, init_ctrl)
        made = len(counted) - start
        want, calls = _reference_shoot(sys, x, y, delta, mode, K, miss_tol, init_ctrl, counted)
        assert got[0] == want[0]
        assert _bits(got[1]) == _bits(want[1])
        assert made == max(calls)
        if len(calls) == 2:
            both_ran.append(sum(calls) - made)
        return got

    monkeypatch.setattr(ccmetric, "integrate_controls", counting)
    monkeypatch.setattr(ccmetric, "_shoot", both)
    # the scale search runs where no geodesic is found; here it runs on every pair
    monkeypatch.setattr(ccmetric, "_geodesic_upper", lambda *args: None)
    cc_distance(sys, x, y, mode=mode, tol=0.2, K=K)
    assert both_ran and max(both_ran) >= 2  # both seeds stepped together


@pytest.mark.parametrize("case", range(len(POLISH_PAIRS)))
def test_shooting_integrates_only_unfinished_seeds(case, monkeypatch):
    # per _shoot call: its first integrate_controls call carries each seed's
    # start and its m + 1 finite-difference rows, every later call five
    # candidates with theirs per seed still stepping; a seed that stopped is
    # not integrated, and none resumes
    fixture, mode, x, y = POLISH_PAIRS[case]
    sys = load_scenario(fixture).system()
    K = 4
    m = K * sys.r
    shoot, integrate = ccmetric._shoot, ccmetric.integrate_controls
    runs = []  # (seeds, rows of each call) per _shoot call

    def counting(sys, x, delta, coeffs, *args):
        runs[-1][1].append(len(coeffs))
        return integrate(sys, x, delta, coeffs, *args)

    def recording(*args, init_ctrl=None):
        runs.append((1 if init_ctrl is None else 2, []))
        return shoot(*args, init_ctrl=init_ctrl)

    monkeypatch.setattr(ccmetric, "integrate_controls", counting)
    monkeypatch.setattr(ccmetric, "_shoot", recording)
    monkeypatch.setattr(ccmetric, "_geodesic_upper", lambda *args: None)
    cc_distance(sys, x, y, mode=mode, K=K)
    one_of_two = 0  # calls of a two-seed run that carry one seed's rows
    for seeds, rows in runs:
        assert rows[0] == seeds * (m + 2)
        stepping = [c // (5 * (m + 2)) for c in rows[1:]]
        assert [5 * (m + 2) * s for s in stepping] == rows[1:]
        assert all(seeds >= a >= b >= 1 for a, b in zip([seeds] + stepping, stepping))
        one_of_two += stepping.count(1) if seeds == 2 else 0
    assert one_of_two


def _uncached_oracle(sys, x, y, mode, resolution):
    """oracle_distance's upper end with a grid search at every probe, repeats included."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d_eu = float(np.linalg.norm(y - x))

    def reach(delta):
        return ReachGraph(sys, x, delta, mode, res=resolution).run(target=y, arrival_tol=0.75 * resolution)[0]

    hi = max(resolution, d_eu ** (1.0 / sys.max_degree) if d_eu < 1 else d_eu, d_eu)
    return ccmetric._scale_search(reach, min(hi, ccmetric.DELTA_MAX), 0.1)[1]


def test_scale_search_without_a_hit_returns_the_whole_half_line():
    # doubling from 0.1 asks 0.1, 0.2, ..., 1.6 and stops past DELTA_MAX
    asked = []
    assert ccmetric._scale_search(lambda delta: asked.append(delta) or False, 0.1, 0.1) == (0.0, math.inf)
    assert asked == [0.1 * 2**k for k in range(5)] and asked[-1] <= ccmetric.DELTA_MAX < 2 * asked[-1]


def test_oracle_searches_each_scale_once(monkeypatch):
    # the first doubling step fails, so the bisection's first midpoint is
    # that step's scale; it must not be searched again.  Every search is a
    # unit-speed one (the graph takes no speed) of the scale search; there
    # are no other probes
    sys = grushin_interior()
    x, y = (0.0, 0.0), (0.0, 0.2)
    init, run = ReachGraph.__init__, ReachGraph.run
    built, probes = [], []

    def recorded_init(g, *args, **kwargs):
        built.append((args[2:], kwargs))
        init(g, *args, **kwargs)

    def recorded(g, *args, **kwargs):
        reached, cost = run(g, *args, **kwargs)
        probes.append((g.delta, reached))
        return reached, cost

    monkeypatch.setattr(ReachGraph, "__init__", recorded_init)
    monkeypatch.setattr(ReachGraph, "run", recorded)
    est = oracle_distance(sys, x, y, resolution=0.02)
    deltas = [delta for delta, _ in probes]
    assert built == [((delta, "intrinsic"), {"res": 0.02}) for delta in deltas]
    assert len(deltas) == len(set(deltas))
    assert not probes[0][1]  # the first doubling step failed
    assert probes[1][0] == 2 * probes[0][0]

    # the searches are exactly the doubling and bisection scales, in order
    answers, asked = dict(probes), []

    def hits(delta):
        asked.append(delta)
        return answers[delta]

    lo, hi = ccmetric._scale_search(hits, probes[0][0], 0.1)
    assert list(dict.fromkeys(asked)) == deltas
    assert lo < hi == est.upper < math.inf and est.lower == 0.0

    del probes[:]
    assert _bits(est.upper) == _bits(_uncached_oracle(sys, x, y, "intrinsic", 0.02))
    assert len(probes) == len(deltas) + 1  # the uncached run searches one scale twice


def test_move_directions_are_computed_once_and_read_only():
    for r in (2, 3):
        dirs = ccmetric._move_directions(r)
        assert ccmetric._move_directions(r) is dirs
        assert not dirs.flags.writeable
    g = ReachGraph(heisenberg_frame_half(), (0.0, 0.0, 0.3), 0.3, res=0.02)
    assert g.dirs is ccmetric._move_directions(3)
    assert g.dirs.tolist() == [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
