"""Acceptance suite: one test per published criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance.  Regression values frozen
on first runs live in the packaged fixture files.
"""
import math

import numpy as np
import pytest

from ccgeo.boundary import CharacteristicError, build_boundary_system, deg_boundary
from ccgeo.ccmetric import ball_volume, cc_distance, reach_graph, sample_ball
from ccgeo.cli import (
    _pairs_from_probes,
    load_scenario,
    suite_boundary_metric,
    suite_doubling,
    suite_sandwich,
    suite_volume,
)
from ccgeo.flows import BracketWordFlow, FlowConfig, commutator_flow_C, flow_E
from ccgeo.hormander import Box, check_hormander
from ccgeo.scaling import (
    build_scaling_map,
    compute_lambda,
    pullback,
    verify_uniform_hormander,
)
from ccgeo.symexpr import Const, lie_bracket, parse_expr, parse_vfield


def _report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}")
    assert ok, f"criterion {num} failed: {name}"


FIXTURES = ("elliptic", "heat", "heisenberg", "grushin", "grushin_straightened")


def test_criterion_01_bracket_and_derivative_correctness():
    ok = True
    rng = np.random.default_rng(1)
    for name in FIXTURES:
        sys_ = load_scenario(name).system()
        vfs = list(sys_.vfields())
        X, Y = vfs[0], vfs[1 % len(vfs)]
        Z = lie_bracket(X, Y) if not lie_bracket(X, Y).is_zero() else vfs[-1]
        pts = rng.uniform(-0.8, 0.8, size=(100, sys_.n))
        anti = lie_bracket(X, Y).eval_many(pts) + lie_bracket(Y, X).eval_many(pts)
        scale = max(1.0, np.abs(lie_bracket(X, Y).eval_many(pts)).max())
        ok &= np.abs(anti).max() <= 1e-9 * scale
        jac = (
            lie_bracket(X, lie_bracket(Y, Z)).eval_many(pts)
            + lie_bracket(Y, lie_bracket(Z, X)).eval_many(pts)
            + lie_bracket(Z, lie_bracket(X, Y)).eval_many(pts)
        )
        ok &= np.abs(jac).max() <= 1e-9 * scale
    for text in ("sin(x1)*x2", "exp(x1-x2)", "x1^3+x2*x1", "sqrt(x1+2)"):
        e = parse_expr(text, 2)
        for _ in range(10):
            p = rng.uniform(-0.9, 0.9, size=2)
            for i in (1, 2):
                h = 1e-5
                step = np.eye(2)[i - 1]

                def fd(hh):
                    return (e.eval(p + step * hh) - e.eval(p - step * hh)) / (2 * hh)

                rich = (4 * fd(h / 2) - fd(h)) / 3
                exact = e.diff(i).eval(p)
                ok &= abs(rich - exact) <= 1e-6 * max(1.0, abs(exact))
    _report(1, "bracket antisymmetry/Jacobi at 1e-9 and AD vs FD at 1e-6", ok)


def test_criterion_02_hormander_certification():
    grushin = load_scenario("grushin").system()
    rep = check_hormander(grushin, 3, per_axis=21)
    ok = rep.ok and rep.order == 2 and abs(rep.min_gamma0 - 1.0) <= 1e-12
    elliptic = load_scenario("elliptic").system()
    rep_e = check_hormander(elliptic, 2)
    ok &= rep_e.ok and rep_e.order == 1
    degenerate = load_scenario("degenerate").system()
    rep_d = check_hormander(degenerate, 3)
    ok &= not rep_d.ok
    _report(2, "Grushin m=2 gamma0=1, elliptic m=1, degenerate rejected", ok)


def test_criterion_03_flow_commutator_limits():
    cfg = FlowConfig(Box((4.0, 4.0)))
    dx = parse_vfield("1, 0", 2)
    x_dy = parse_vfield("0, x1", 2)
    p = np.zeros(2)

    def coeff(t):
        return (commutator_flow_C(2, t, [dx, x_dy], p, cfg) - p) / t**2

    rich = 2.0 * coeff(0.05) - coeff(0.1)
    target = np.array([0.0, 1.0])
    ok = np.linalg.norm(rich - target) <= 1e-2 * np.linalg.norm(target)

    g0 = parse_vfield("0, 1", 2)
    g1 = parse_vfield("x2, 0", 2)
    word = BracketWordFlow.make((g0, g1), (1, 0))
    q = np.array([0.3, 0.1])
    y = word.target.eval_at(q)
    for t in (2.0**-10, -(2.0**-10)):
        quot = (flow_E(word, t, q, cfg) - q) / t
        ok &= np.linalg.norm(quot - y) <= 0.05 * max(1.0, np.linalg.norm(y))
    _report(3, "C_2 Richardson direction within 1e-2, E one-sided within 5%", ok)


def test_criterion_04_elliptic_metric_identity():
    scn = load_scenario("elliptic")
    sys_ = scn.system()
    pairs = _pairs_from_probes(scn, 20, spread=0.35)
    ok = True
    for a, b in pairs:
        d_eu = float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
        est = cc_distance(sys_, a, b, mode="intrinsic", tol=0.02)
        ok &= est.lower * 0.98 <= d_eu <= est.upper * 1.02
        ok &= est.upper <= d_eu * 1.05
    _report(4, "intrinsic CC distance equals Euclidean within 2% on 20 pairs", ok)


def test_criterion_05_grushin_ball_anisotropy():
    scn = load_scenario("grushin")
    sys_ = scn.system()
    x = np.zeros(2)
    outer, inner = [], []
    for delta in (0.4, 0.2, 0.1):
        cloud = sample_ball(sys_, x, delta, 4000, K=16, seed=scn.seed)
        ends = cloud.feasible_endpoints()
        ext = np.abs(ends).max(axis=0)
        outer.append((ext[0] / delta, ext[1] / delta**2))
        graph = reach_graph(sys_, x, delta, res=ext * 1.3 / 24)
        got = None
        for k in range(1, 7):
            r = ext * 2.0**-k
            corners = np.array([[sx * r[0], sy * r[1]] for sx in (-1, 1) for sy in (-1, 1)])
            if graph.contains(corners, dilate=1).all():
                got = (r[0] / delta, r[1] / delta**2)
                break
        assert got is not None
        inner.append(got)
    ok = True
    for series in (outer, inner):
        for axis in (0, 1):
            vals = [s[axis] for s in series]
            ok &= max(vals) / min(vals) <= 2.0
    _report(5, "Grushin box dimensions scale as (delta, delta^2) within x2", ok)


def test_criterion_06_volume_comparable_to_lambda():
    ratios, ok = [], True
    for name in ("grushin", "grushin_straightened", "heisenberg"):
        scn = load_scenario(name)
        sys_ = scn.system()
        for probe in scn.probes:
            for delta in scn.deltas:
                vol = ball_volume(sys_, probe, delta, n_samples=20000, seed=scn.seed)
                lam = compute_lambda(sys_, probe, delta, scn.order)
                ok &= not vol.degenerate
                ok &= vol.std_error <= 0.05 * max(vol.value, 1e-300)
                ratios.append(vol.value / lam.value)
    fitted = max(max(ratios), 1.0 / min(ratios))
    ok &= fitted <= 5.0
    _report(6, f"Vol/Lambda within one fitted [1/C, C], C = {fitted:.2f} <= 5", ok)


def test_criterion_07_doubling():
    ok = True
    for name in ("grushin", "elliptic"):
        scn = load_scenario(name)
        rows, verdicts = suite_doubling(scn)
        ok &= all(v["pass"] for v in verdicts)
    _report(7, "Lambda doubling exact bound and sampled ratios stable within x1.5", ok)


def test_criterion_08_scaling_map_items():
    scn = load_scenario("grushin_straightened")
    sys_ = scn.system()
    bsys = build_boundary_system(sys_, (0.5, 0.0), scn.order, probe_radius=0.3)
    gain = scn.threshold("scale.gain", 1.0)
    ok = True
    maps = []
    for delta in scn.deltas + (0.05,):
        smap = build_scaling_map(bsys, (0.5, 0.0), delta, gain=gain)
        maps.append(smap)
        ok &= np.abs(smap(np.zeros(2)) - np.array([0.5, 0.0])).max() <= 1e-10
        U = np.array([[0.0, 0.0], [0.3, -0.4], [-0.5, 0.25]])
        x0n, d0 = smap.distinguished
        vals = pullback(smap, [(x0n, d0)], U)[0]
        target = np.zeros_like(vals)
        target[:, 1] = smap.omega
        ok &= np.abs(vals - target).max() <= 1e-6
        slice_u = np.array([[0.3, 0.0], [-0.4, 0.0]])
        for vf, d, w, z in bsys.x_entries:
            if z:
                continue
            vals = pullback(smap, [(vf, d)], slice_u)[0]
            ok &= np.abs(vals[:, -1]).max() <= 1e-8
        for vf, d in sys_.fields:
            w = pullback(smap, [(vf, d)], U)[0]
            J = smap.jacobian(U)
            lhs = np.einsum("bij,bj->bi", J, w)
            rhs = vf.eval_many(smap(U)) * smap.delta**d
            ok &= np.abs(lhs - rhs).max() <= 1e-6 * max(1.0, np.abs(rhs).max())
    uni = verify_uniform_hormander(maps, sys_, scn.order)
    ok &= uni.overall_floor > 0
    ok &= max(uni.floors) / min(uni.floors) <= 2.0
    _report(8, "psi(0)=x, distinguished pullback, tangency, identity, uniform floor", ok)


def test_criterion_09_sandwich():
    ok = True
    for name in ("elliptic", "grushin", "grushin_straightened"):
        scn = load_scenario(name)
        rows, verdicts = suite_sandwich(scn)
        ok &= all(v["pass"] for v in verdicts)
    _report(9, "eta1=1/4 sandwich passes with frozen xi1 at all scales and probes", ok)


def test_criterion_10_boundary_system_and_metric():
    scn = load_scenario("grushin_straightened")
    sys_ = scn.system()
    bsys = build_boundary_system(sys_, (0.5, 0.0), scn.order)
    v1, d1, z1 = bsys.v_entries[0]
    ok = d1 == 1 and not z1 and v1.components == (Const(1.0),)
    rows, verdicts = suite_boundary_metric(scn)
    ok &= all(v["pass"] for v in verdicts)
    with pytest.raises(CharacteristicError):
        build_boundary_system(sys_, (0.0, 0.0), scn.order)
    _report(10, "V contains exact (d/dx, 1); fitted C <= 4; x=0 flagged characteristic", ok)


def test_criterion_11_intrinsic_vs_extrinsic():
    ok = True
    fitted = 1.0
    for name, spread in (("heisenberg", (0.25, 0.02, 0.15)), ("grushin_straightened", (0.2, 0.05))):
        scn = load_scenario(name)
        sys_ = scn.system()
        probe = scn.boundary_probes()[0]
        pairs = _pairs_from_probes(scn, 5, spread=spread, around=probe)
        for a, b in pairs:
            i = cc_distance(sys_, a, b, mode="intrinsic", tol=0.08)
            e = cc_distance(sys_, a, b, mode="extrinsic", tol=0.08)
            ok &= e.upper <= i.upper * 1.08 + 1e-9
            if e.midpoint() > 0:
                fitted = max(fitted, i.midpoint() / e.midpoint())
    ok &= fitted <= 3.0
    _report(11, f"extrinsic <= intrinsic always; intrinsic <= {fitted:.2f} x extrinsic <= 3", ok)


def test_criterion_12_weak_equivalence_invariance():
    scn = load_scenario("grushin_straightened")
    sys_ = scn.system()
    aug = sys_.augmented((1, 2))
    ok = True
    for probe in scn.boundary_probes():
        ok &= deg_boundary(sys_, probe, scn.order).deg == deg_boundary(aug, probe, scn.order).deg
    pairs = _pairs_from_probes(scn, 20, spread=(0.25, 0.08))
    ratios = []
    for a, b in pairs:
        base = cc_distance(sys_, a, b, mode="intrinsic", tol=0.1, K=16)
        other = cc_distance(aug, a, b, mode="intrinsic", tol=0.1, K=16)
        if base.midpoint() > 0 and other.midpoint() > 0:
            ratios.append(max(base.midpoint() / other.midpoint(), other.midpoint() / base.midpoint()))
    fitted = max(ratios)
    ok &= fitted <= 3.0 and len(ratios) >= 18
    _report(12, f"bracket augmentation: deg unchanged, distances within C = {fitted:.2f} <= 3", ok)
