import itertools

import numpy as np
import pytest

from ccgeo import scaling
from ccgeo.boundary import build_boundary_system
from ccgeo.ccmetric import ReachGraph, ball_volume, cc_distance, oracle_distance, reach_graph, sample_ball
from ccgeo.cli import _map_source, load_scenario
from ccgeo.hormander import Box, WeightedSystem, build_Z_system
from ccgeo.scaling import (
    build_scaling_map,
    compute_lambda,
    doubling_ratio,
    pullback,
    select_basis,
    verify_sandwich,
    verify_uniform_hormander,
)
from ccgeo.symexpr import lie_bracket, parse_expr, parse_vfield


def elliptic(n=2, boundary=False):
    comps = [", ".join("1" if j == i else "0" for j in range(n)) for i in range(n)]
    return WeightedSystem(
        fields=tuple((parse_vfield(c, n), 1) for c in comps),
        box=Box((1.0,) * n, has_boundary=boundary),
    )


def grushin(boundary=False, half=1.25):
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, x1", 2), 1)),
        box=Box((half, half)),
    )


def grushin_straightened():
    return WeightedSystem(
        fields=((parse_vfield("1, 0-2*x1", 2), 1), (parse_vfield("0, x1", 2), 1)),
        box=Box((1.25, 1.25), has_boundary=True),
    )


def test_lambda_elliptic_power():
    sys = elliptic()
    for delta in (0.5, 0.25, 0.1):
        rep = compute_lambda(sys, (0.2, -0.3), delta, m=1)
        assert rep.value == pytest.approx(delta**2, rel=1e-12)


def test_lambda_grushin_two_branches():
    sys = grushin()
    for x1, delta in [(1.0, 0.3), (0.5, 0.2), (0.0, 0.2), (0.02, 0.4)]:
        rep = compute_lambda(sys, (x1, 0.0), delta, m=2)
        assert rep.value == pytest.approx(max(delta**2 * abs(x1), delta**3), rel=1e-12)


def test_lambda_zero_delta():
    assert compute_lambda(grushin(), (0.3, 0.0), 0.0, m=2).value == 0.0


def test_lambda_weighted_by_density():
    sys = WeightedSystem(
        fields=elliptic().fields,
        box=Box((1.0, 1.0)),
        density=parse_expr("exp(x1)", 2),
    )
    rep = compute_lambda(sys, (0.5, 0.0), 0.2, m=1)
    assert rep.value == pytest.approx(np.exp(0.5) * 0.04, rel=1e-12)


def test_doubling_elliptic_exact():
    assert doubling_ratio(elliptic(), (0.1, 0.1), 0.1, m=1) == pytest.approx(4.0, rel=1e-12)


def test_doubling_grushin_at_origin():
    assert doubling_ratio(grushin(), (0.0, 0.0), 0.1, m=2) == pytest.approx(8.0, rel=1e-12)


def test_doubling_grushin_at_one():
    assert doubling_ratio(grushin(), (1.0, 0.0), 0.25, m=2) == pytest.approx(4.0, rel=1e-12)


def test_lambda_homogeneity_bound():
    sys = grushin()
    n, m, maxd = 2, 2, 1
    bound = 2.0 ** (n * m * maxd)
    for x1 in (0.0, 0.3, 1.0):
        for delta in (0.05, 0.2):
            assert doubling_ratio(sys, (x1, 0.0), delta, m=2) <= bound + 1e-9


def test_lambda_monotone_in_delta():
    sys = grushin()
    vals = [compute_lambda(sys, (0.4, 0.1), d, m=2).value for d in (0.1, 0.2, 0.3, 0.4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_select_basis_zeta_one_matches_lambda(monkeypatch):
    monkeypatch.setattr(scaling, "ZETA", 1.0)
    sys = grushin()
    rep = compute_lambda(sys, (0.5, 0.0), 0.2, m=2)
    idx = select_basis(build_Z_system(sys, 2).fields, (0.5, 0.0), 0.2)
    assert tuple(sorted(idx)) == tuple(sorted(rep.argmax))


def test_select_basis_elliptic_coordinates():
    sys = elliptic()
    idx = select_basis(sys.fields, (0.0, 0.0), 0.3)
    assert tuple(sorted(idx)) == (0, 1)


def test_select_basis_scans_the_subsets_once_without_a_required_column(monkeypatch):
    # the one scan gives both the maximum and the basis
    scans = []
    real = scaling._max_subset_det

    def recorded(*args, **kwargs):
        best, witness = real(*args, **kwargs)
        scans.append((kwargs, tuple(int(i) for i in witness)))
        return best, witness

    monkeypatch.setattr(scaling, "_max_subset_det", recorded)
    idx = select_basis(build_Z_system(grushin(), 2).fields, (0.5, 0.0), 0.2)
    assert scans == [({}, idx)]


def test_select_basis_distinguished_slot_last():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    x0f, d0 = bsys.distinguished
    tang = [(vf, d) for vf, d, w, z in bsys.x_entries if not z]
    fields = tang + [(x0f, d0)]
    idx = select_basis(fields, (0.5, 0.0), 0.1, distinguished=len(fields) - 1)
    assert idx[-1] == len(fields) - 1


def test_select_basis_distinguished_slot_matches_reference(monkeypatch):
    # Constant random fields in R^3 with mixed degrees; the reference scans
    # itertools.combinations with per-matrix determinants, keeping subsets
    # that contain the distinguished column.
    monkeypatch.setattr(scaling, "ZETA", 1e-6)
    rng = np.random.default_rng(11)
    for trial in range(10):
        q = 6
        cols = rng.standard_normal((q, 3))
        degs = rng.integers(1, 4, size=q)
        fields = [(parse_vfield(", ".join(repr(float(v)) for v in c), 3), int(d)) for c, d in zip(cols, degs)]
        j = trial % q
        delta = 0.2
        vals = {}
        for combo in itertools.combinations(range(q), 3):
            idx = np.array(combo)
            vals[combo] = abs(np.linalg.det(cols[idx].T)) * float(delta ** degs[idx].sum())
        pool = {c: v for c, v in vals.items() if j in c}
        best = max(pool, key=lambda c: pool[c])
        idx = select_basis(fields, (0.0, 0.0, 0.0), delta, distinguished=j)
        assert idx == tuple(i for i in best if i != j) + (j,)


def test_interior_map_elliptic_is_affine():
    sys = elliptic()
    smap = build_scaling_map((sys, 1), (0.1, -0.2), 0.3)
    t = np.array([0.5, -0.25])
    out = smap(t)
    np.testing.assert_allclose(out, np.array([0.1, -0.2]) + 0.3 * t, atol=1e-9)


def test_map_fixes_base_point():
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.0, 0.0), 0.2)
    np.testing.assert_allclose(smap(np.zeros(2)), [0.0, 0.0], atol=1e-12)


def test_near_boundary_sign_pattern():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    smap = build_scaling_map(bsys, (0.5, 0.0), 0.2)
    rng = np.random.default_rng(0)
    T = rng.uniform(-0.8, 0.8, size=(40, 2))
    pts = smap(T)
    assert np.all(np.sign(np.round(pts[:, 1], 12)) == np.sign(np.round(T[:, 1], 12)))


def test_near_boundary_nth_coordinate_is_linear_in_tn():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    smap = build_scaling_map(bsys, (0.5, 0.0), 0.2)
    d0 = bsys.distinguished[1]
    T = np.array([[0.3, 0.5], [-0.2, -0.4], [0.0, 0.7]])
    pts = smap(T)
    np.testing.assert_allclose(pts[:, 1], T[:, 1] * 0.2**d0, atol=1e-9)


def test_pullback_elliptic_unit_fields():
    sys = elliptic()
    smap = build_scaling_map((sys, 1), (0.0, 0.0), 0.25)
    for i, (vf, d) in enumerate(sys.fields):
        vals = pullback(smap, [(vf, d)], np.array([[0.1, 0.2], [-0.3, 0.4]]))[0]
        expect = np.zeros((2, 2))
        expect[:, i] = 1.0
        np.testing.assert_allclose(np.abs(vals), expect, atol=1e-6)


def test_pullback_distinguished_is_unit_tn():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    smap = build_scaling_map(bsys, (0.5, 0.0), 0.2)
    x0n, d0 = smap.distinguished
    U = np.array([[0.0, 0.0], [0.3, -0.4], [-0.5, 0.25], [0.2, 0.6]])
    vals = pullback(smap, [(x0n, d0)], U)[0]
    target = np.zeros_like(vals)
    target[:, 1] = smap.omega
    np.testing.assert_allclose(vals, target, atol=1e-6)


def test_pullback_tangential_no_tn_component_on_slice():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    smap = build_scaling_map(bsys, (0.5, 0.0), 0.2)
    U = np.array([[0.2, 0.0], [-0.4, 0.0], [0.5, 0.0]])
    for vf, d, w, z in bsys.x_entries:
        if z:
            continue
        vals = pullback(smap, [(vf, d)], U)[0]
        assert np.abs(vals[:, -1]).max() <= 1e-8


def test_pullback_identity_residual():
    # d psi(u) w(u) = delta^d V(psi(u)), checked by central differences of psi itself
    # along w, not through the Jacobian that pullback solves with; the worst relative
    # error over both fields is 9.9e-11 at eps = 1e-4
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.3, 0.0), 0.2)
    U = np.array([[0.25, -0.3], [0.5, 0.5], [-0.6, 0.1]])
    for vf, d in sys.fields:
        w = pullback(smap, [(vf, d)], U)[0]
        carried = (smap(U + 1e-4 * w) - smap(U - 1e-4 * w)) / 2e-4
        rhs = vf.eval_many(smap(U)) * smap.delta**d
        assert np.abs(carried - rhs).max() <= 1e-7 * max(1.0, np.abs(rhs).max())


def _reference_jacobian(smap, U):
    """The central differences of the jacobian that stacked only the perturbed rows."""
    B, n = U.shape
    h = 1e-5 * (1.0 + np.abs(U).max(axis=1))
    pert = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pert.append(U + h[:, None] * e)
        pert.append(U - h[:, None] * e)
    stacked = smap._eval(np.concatenate(pert, axis=0))
    cols = []
    for i in range(n):
        plus = stacked[2 * i * B : (2 * i + 1) * B]
        minus = stacked[(2 * i + 1) * B : (2 * i + 2) * B]
        cols.append((plus - minus) / (2 * h[:, None]))
    return np.stack(cols, axis=-1)


def _fixture_maps():
    # every probe of every packaged fixture at the two smallest rungs of its
    # delta ladder: near-boundary maps at boundary probes, interior elsewhere
    for name in ("elliptic", "heat", "heisenberg", "grushin", "grushin_straightened", "degenerate"):
        scn = load_scenario(name)
        for probe in scn.probes:
            for delta in scn.deltas[-2:]:
                yield pytest.param(name, probe, delta, id=f"{name}-{'-'.join(map(str, probe))}-{delta}")


@pytest.mark.parametrize("name, probe, delta", list(_fixture_maps()))
def test_jet_matches_call_and_reference_jacobian_bit_for_bit(name, probe, delta):
    scn = load_scenario(name)
    smap = build_scaling_map(_map_source(scn, probe), probe, delta, scn.threshold("scale.gain", 1.0))
    U = np.random.default_rng(scn.seed).uniform(-0.5, 0.5, size=(16, scn.n))
    psi, dpsi = smap.jet(U)
    assert psi.view(np.int64).tolist() == smap(U).view(np.int64).tolist()
    assert dpsi.view(np.int64).tolist() == _reference_jacobian(smap, U).view(np.int64).tolist()
    assert dpsi.view(np.int64).tolist() == smap.jacobian(U).view(np.int64).tolist()
    p0, j0 = smap.jet(U[3])
    assert p0.shape == (scn.n,) and j0.shape == (scn.n, scn.n)


def _jacobian_cases():
    # every probe of every packaged fixture at every rung of its delta
    # ladder, and the near-boundary maps also at delta 0.3 and 0.5
    for name in ("elliptic", "heat", "heisenberg", "grushin", "grushin_straightened", "degenerate"):
        scn = load_scenario(name)
        for probe in scn.probes:
            near = scn.box.has_boundary and abs(probe[-1]) < 1e-12
            for delta in dict.fromkeys(scn.deltas + ((0.3, 0.5) if near else ())):
                yield pytest.param(name, probe, delta, id=f"{name}-{'-'.join(map(str, probe))}-{delta}")


@pytest.mark.parametrize("name, probe, delta", list(_jacobian_cases()))
def test_jacobian_is_the_jet_jacobian_bit_for_bit(name, probe, delta):
    # jacobian integrates only the perturbed rows; jet stacks psi's rows too
    scn = load_scenario(name)
    smap = build_scaling_map(_map_source(scn, probe), probe, delta, scn.threshold("scale.gain", 1.0))
    U = np.random.default_rng(scn.seed).uniform(-0.5, 0.5, size=(16, scn.n))
    for rows in (U, U[5:6], np.zeros((1, scn.n))):
        assert smap.jacobian(rows).view(np.int64).tolist() == smap.jet(rows)[1].view(np.int64).tolist()
    assert smap.jacobian(U[3]).view(np.int64).tolist() == smap.jet(U[3])[1].view(np.int64).tolist()


def test_interior_map_rows_do_not_depend_on_their_batch():
    # the combined exponential takes 128 steps on every row, whatever the batch
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.5, 0.0), 0.2)
    U = np.random.default_rng(4).uniform(-0.5, 0.5, size=(12, 2))
    psi, dpsi = smap.jet(U)
    for order in (np.arange(12)[::-1], [5], [7, 8, 0, 1, 2]):
        p, j = smap.jet(np.vstack([U[order], 0.1 * U]))  # other rows share the batch
        k = len(order)
        assert p[:k].view(np.int64).tolist() == psi[order].view(np.int64).tolist()
        assert j[:k].view(np.int64).tolist() == dpsi[order].view(np.int64).tolist()


def test_invert_round_trip():
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.2, 0.0), 0.2)
    T = np.array([[0.4, -0.3], [-0.5, 0.2], [0.0, 0.0]])
    pts = smap(T)
    T2, ok = smap.invert(pts)
    assert ok.all()
    np.testing.assert_allclose(T2, T, atol=1e-7)


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_invert_fails_only_the_row_with_a_singular_jacobian(bad, monkeypatch):
    # the first Newton step shares dpsi(0) among the rows; from the second on,
    # row 0's dpsi is singular (or nan) and only row 0 may fail
    smap = build_scaling_map((grushin(), 2), (0.5, 0.0), 0.1)
    T = np.array([[0.1, 0.05], [-0.1, 0.08], [0.05, -0.1]])
    pts = smap(T)
    jacobian = scaling.ScalingMap.jacobian

    def broken(self, u):
        J = jacobian(self, u)
        if len(u) == len(T):
            J[0] = bad
        return J

    monkeypatch.setattr(scaling.ScalingMap, "jacobian", broken)
    T2, ok = smap.invert(pts)
    assert ok.tolist() == [False, True, True]
    np.testing.assert_allclose(T2[1:], T[1:], atol=1e-7)


@pytest.mark.parametrize("kind", ["interior", "near_boundary"])
def test_maps_take_an_empty_batch(kind):
    # the near-boundary map's distinguished flow gets an empty array of per-row times
    x = (0.5, 0.0)
    source = (grushin(), 2) if kind == "interior" else build_boundary_system(grushin_straightened(), x, m=2)
    smap = build_scaling_map(source, x, 0.1)
    assert smap.kind == kind
    empty = np.zeros((0, 2))
    psi, dpsi = smap.jet(empty)
    T, ok = smap.invert(empty)
    assert smap(empty).shape == psi.shape == T.shape == (0, 2) and ok.shape == (0,)
    assert smap.jacobian(empty).shape == dpsi.shape == (0, 2, 2)


def heisenberg():
    return WeightedSystem(
        fields=((parse_vfield("0, 0-x1/2, 1", 3), 1), (parse_vfield("1, x3/2, 0", 3), 1)),
        box=Box((1.5, 1.5, 1.5), has_boundary=True),
    )


@pytest.mark.parametrize(
    "make, x, delta, gain",
    [
        (heisenberg, (0.0, 0.0, 0.5), 0.2, 0.1),
        (heisenberg, (0.0, 0.0, 0.5), 0.1, 0.1),
        (grushin, (0.0, 0.0), 0.2, 0.3),
    ],
)
def test_pulled_back_bracket_and_floor_closed_form(make, x, delta, gain):
    # psi is a dilation composed with exponential coordinates (linear on
    # Grushin at x1 = 0), with [X1, X2] the last basis slot: the pulled-back
    # bracket at degree 2 is gain^-1 e_n and the span floor is gain^-n
    sys = make()
    n = sys.n
    smap = build_scaling_map((sys, 2), x, delta, gain=gain)
    U = np.array([[0.0] * n, [0.3, -0.2, 0.4][:n], [-0.5, 0.5, -0.25][:n]])
    br = pullback(smap, [(lie_bracket(sys.fields[0][0], sys.fields[1][0]), 2)], U)[0]
    target = np.zeros((len(U), n))
    target[:, -1] = 1.0 / gain
    np.testing.assert_allclose(br, target, rtol=0, atol=1e-6 / gain)
    rep = verify_uniform_hormander([smap], sys, m=2)
    assert rep.overall_floor == pytest.approx(gain**-n, rel=1e-6)


def test_sandwich_elliptic_xi_equals_eta():
    sys = elliptic(boundary=True)
    bsys = build_boundary_system(sys, (0.0, 0.0), m=1, probe_radius=0.4)
    smap = build_scaling_map(bsys, (0.0, 0.0), 0.3)
    rep = verify_sandwich(sys, smap, seed=0)
    assert rep.outer_pass and rep.xi1 > 0.0
    assert rep.c0 == 0.0
    # isometric scaling: the eta1-ball fits exactly in the eta1-cube image
    assert rep.xi1 == pytest.approx(0.25, abs=1e-9)


def test_sandwich_grushin_interior_origin():
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.0, 0.0), 0.2, gain=0.3)
    rep = verify_sandwich(sys, smap, seed=1)
    assert rep.outer_pass
    assert rep.xi1 >= 0.01


def test_sandwich_xi_stable_across_small_delta():
    sys = grushin()
    xis = []
    for delta in (0.2, 0.1, 0.05):
        smap = build_scaling_map((sys, 2), (0.0, 0.0), delta, gain=0.3)
        rep = verify_sandwich(sys, smap, seed=2)
        assert rep.outer_pass
        xis.append(rep.xi1)
    assert min(xis) > 0
    assert max(xis) / min(xis) <= 4.0 + 1e-9


def test_uniform_hormander_elliptic_unit_floor():
    sys = elliptic()
    maps = [build_scaling_map((sys, 1), (0.0, 0.0), d) for d in (0.4, 0.2, 0.1)]
    rep = verify_uniform_hormander(maps, sys, m=1)
    assert rep.overall_floor == pytest.approx(1.0, abs=1e-5)


def test_uniform_hormander_grushin_ladder_stable():
    sys = grushin()
    maps = [build_scaling_map((sys, 2), (0.0, 0.0), d) for d in (0.4, 0.2, 0.1, 0.05)]
    rep = verify_uniform_hormander(maps, sys, m=2)
    assert rep.overall_floor > 0
    assert max(rep.floors) / min(rep.floors) <= 2.0
    assert rep.sup_magnitude < 20.0


def test_uniform_hormander_fails_below_true_order():
    sys = grushin()
    maps = [build_scaling_map((sys, 2), (0.0, 0.0), 0.2)]
    rep = verify_uniform_hormander(maps, sys, m=1)
    assert rep.overall_floor <= 1e-6


def test_volume_comparable_to_lambda():
    sys = grushin()
    ratios = []
    for delta in (0.4, 0.2):
        vol = ball_volume(sys, (0.0, 0.0), delta, mode="intrinsic", n_samples=8000, seed=3)
        lam = compute_lambda(sys, (0.0, 0.0), delta, m=2).value
        assert not vol.degenerate
        ratios.append(vol.value / lam)
    for rho in ratios:
        assert 1.0 / 5.0 <= rho <= 5.0
    assert max(ratios) / min(ratios) <= 3.0


def test_density_factor_bounded():
    # h_{x,delta}(u) = |det dpsi(u)| h(psi(u)) / Lambda stays in one fixed
    # positive interval across base points, scales, and cube points
    sys = grushin()
    rng = np.random.default_rng(5)
    U = rng.uniform(-0.6, 0.6, size=(30, 2))
    lo, hi = np.inf, 0.0
    for x in ((0.3, 0.0), (0.8, 0.2)):
        for delta in (0.2, 0.1):
            smap = build_scaling_map((sys, 2), x, delta)
            lam = compute_lambda(sys, x, delta, m=2).value
            J = smap.jacobian(U)
            h = sys.density_at(smap(U))
            factor = np.abs(np.linalg.det(J)) * h / lam
            lo, hi = min(lo, factor.min()), max(hi, factor.max())
    assert lo > 1e-3
    assert hi / lo < 100.0


def test_map_injective_on_cube_grid():
    sys = grushin()
    smap = build_scaling_map((sys, 2), (0.3, 0.0), 0.2)
    axes = np.linspace(-0.9, 0.9, 7)
    mesh = np.meshgrid(axes, axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = smap(grid)
    d = np.linalg.norm(pts[None] - pts[:, None], axis=-1)
    d[np.diag_indices(len(pts))] = np.inf
    assert d.min() > 1e-9


_BAD_POINTS = {  # library calls on the heat fixture with a point of the wrong length, or outside the chart
    "cc_distance": (lambda s: cc_distance(s, (0.0,), (0.1, 0.2)), "base point must have 2 coordinates, got 1"),
    "cc_distance_target": (lambda s: cc_distance(s, (0.1, 0.2), (0.1, 0.2, 0.0)), "target point must have 2 coordinates, got 3"),
    "cc_distance_scalar": (lambda s: cc_distance(s, 0.1, (0.1, 0.2)), r"base point must have 2 coordinates, got shape \(\)"),
    "oracle_distance": (lambda s: oracle_distance(s, (0.0,), (0.1, 0.2)), "base point must have 2 coordinates, got 1"),
    "sample_ball": (lambda s: sample_ball(s, (0.0,), 0.1, 3), "base point must have 2 coordinates, got 1"),
    "reach_graph": (lambda s: reach_graph(s, (0.0,), 0.1, res=0.02), "base point must have 2 coordinates, got 1"),
    "ReachGraph": (lambda s: ReachGraph(s, (0.0, 0.5, 0.0), 0.1, res=0.02), "base point must have 2 coordinates, got 3"),
    "ball_volume": (lambda s: ball_volume(s, (0.0,), 0.1, n_samples=100), "base point must have 2 coordinates, got 1"),
    "build_boundary_system": (lambda s: build_boundary_system(s, (0.2,), 1), "base point must have 2 coordinates, got 1"),
    "build_scaling_map": (lambda s: build_scaling_map((s, 1), (0.2,), 0.1), "base point must have 2 coordinates, got 1"),
    "build_scaling_map_outside": (lambda s: build_scaling_map((s, 1), (5.0, 0.5), 0.1), "base point is not in the chart"),
    "build_scaling_map_below": (lambda s: build_scaling_map((s, 1), (0.2, -0.1), 0.1), "base point is not in the chart"),
    "build_scaling_map_first": (lambda s: build_scaling_map((s, 1), (5.0, 0.5), 7.0), "base point is not in the chart"),
}


@pytest.mark.parametrize("name", _BAD_POINTS)
def test_calls_reject_a_point_of_the_wrong_length_or_outside_the_chart(name):
    # a short point used to raise IndexError, a zip or broadcast error, or to build
    # an interior map with n = 1; a point outside the chart built a map anchored there
    call, what = _BAD_POINTS[name]
    with pytest.raises(ValueError, match=f"^{what}$"):
        call(load_scenario("heat").system())
