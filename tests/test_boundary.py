import numpy as np
import pytest

from ccgeo.boundary import (
    CharacteristicError,
    boundary_metric,
    bracket_closure_residual,
    build_boundary_system,
    deg_boundary,
    export_scenario,
)
from ccgeo.ccmetric import cc_distance
from ccgeo.cli import load_scenario
from ccgeo.hormander import Box, WeightedSystem
from ccgeo.symexpr import Const, parse_vfield


def grushin_straightened():
    # image of {y >= x^2} under y -> y - x^2: dx -> dx - 2x dy, x dy -> x dy
    return WeightedSystem(
        fields=(
            (parse_vfield("1, 0-2*x1", 2), 1),
            (parse_vfield("0, x1", 2), 1),
        ),
        box=Box((1.25, 1.25), has_boundary=True),
    )


def elliptic_half(n=2):
    comps = [", ".join("1" if j == i else "0" for j in range(n)) for i in range(n)]
    return WeightedSystem(
        fields=tuple((parse_vfield(c, n), 1) for c in comps),
        box=Box((1.0,) * n, has_boundary=True),
    )


def heat_half():
    return WeightedSystem(
        fields=((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 2)),
        box=Box((1.0, 1.0), has_boundary=True),
    )


def test_deg_grushin_noncharacteristic_at_half():
    rep = deg_boundary(grushin_straightened(), (0.5, 0.0), m=2)
    assert rep.deg == 1
    assert rep.noncharacteristic
    # the most-normal degree-1 witness is x d/dy, not dx - 2x dy
    np.testing.assert_allclose(rep.witness.field.eval_many((0.5, 0.0)), [0.0, 0.5])


def test_deg_grushin_characteristic_at_zero():
    rep = deg_boundary(grushin_straightened(), (0.0, 0.0), m=2)
    assert rep.deg == 2
    assert rep.witness.word == (1, 2)
    assert not rep.noncharacteristic  # degree jumps 1 -> 2 at x = 0


def test_deg_elliptic_everywhere_one():
    sys = elliptic_half()
    for x1 in (-0.5, 0.0, 0.5):
        rep = deg_boundary(sys, (x1, 0.0), m=1)
        assert rep.deg == 1 and rep.noncharacteristic


def test_build_grushin_recovers_exact_dx():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    assert bsys.deg == 1
    assert bsys.j0 == 1  # x d/dy distinguished
    assert bsys.omega == 1
    # V contains (d/dx, 1) as an exact symbolic match
    v1 = bsys.v_entries[0]
    assert v1[1] == 1 and not v1[2]
    assert v1[0].components == (Const(1.0),)
    assert bsys.tangency_residual <= 1e-10


def test_build_grushin_btilde_is_quotient():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    # b~ for dx - 2x dy is (-2x)/x, kept as an explicit quotient
    b = bsys.btilde[0]
    assert b.eval_many((0.4, 0.9)) == pytest.approx(-2.0)


def test_build_elliptic_coordinate_fields():
    bsys = build_boundary_system(elliptic_half(3), (0.1, -0.2, 0.0), m=1)
    assert bsys.deg == 1
    assert all(b == Const(0.0) for b, (vf, d) in zip(bsys.btilde, bsys.parent.fields[:2]))
    live = [(vf, d) for vf, d, z in bsys.v_entries if not z]
    assert len(live) == 2
    assert {str(vf) for vf, d in live} == {"1.0, 0.0", "0.0, 1.0"}


def test_build_heat_type():
    bsys = build_boundary_system(heat_half(), (0.2, 0.0), m=2)
    assert bsys.deg == 2
    assert bsys.distinguished[1] == 2
    live = [(vf, d) for vf, d, z in bsys.v_entries if not z]
    assert len(live) == 1
    assert live[0][1] == 1
    assert str(live[0][0]) == "1.0"
    zeros = [z for _, _, z in bsys.v_entries]
    assert any(zeros)  # the entry from Z = X_0 collapses to zero


def test_build_rejects_characteristic_point():
    with pytest.raises(CharacteristicError):
        build_boundary_system(grushin_straightened(), (0.0, 0.0), m=2)


def test_characteristic_error_carries_probe_degrees_and_radius():
    scn = load_scenario("grushin_straightened")
    (cp,) = scn.char_probes
    with pytest.raises(CharacteristicError, match="boundary degree is not locally constant") as info:
        build_boundary_system(scn.system(), cp, scn.order, probe_radius=0.3)
    assert (info.value.probe_degs, info.value.radius) == ((1, 1, 2, 1, 1), 0.3)
    assert str(info.value) == "(0.0, 0.0) is characteristic: boundary degree is not locally constant (probe degrees (1, 1, 2, 1, 1))"
    # the other failures carry neither
    tangent = WeightedSystem(fields=((parse_vfield("1, 0", 2), 1),), box=Box((1.0, 1.0), has_boundary=True))
    with pytest.raises(CharacteristicError, match="no transversal commutator") as info:
        build_boundary_system(tangent, (0.0, 0.0), m=2, probe_radius=0.3)
    assert (info.value.probe_degs, info.value.radius) == (None, None)


def test_boundary_metric_euclidean_along_dx():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2, probe_radius=0.3)
    est = boundary_metric(bsys, (0.4,), (0.55,))
    assert est.lower <= 0.152
    assert est.upper >= 0.148
    assert est.upper <= 0.18


def test_boundary_metric_same_point():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    est = boundary_metric(bsys, (0.5,), (0.5,))
    assert est.upper == 0.0


def test_boundary_metric_elliptic():
    bsys = build_boundary_system(elliptic_half(3), (0.0, 0.0, 0.0), m=1, probe_radius=0.4)
    est = boundary_metric(bsys, (0.0, 0.0), (0.2, 0.1))
    d = np.hypot(0.2, 0.1)
    assert est.lower <= d * 1.05
    assert est.upper >= d * 0.95
    assert est.upper <= d * 1.15


def test_upper_semicontinuity_on_refining_grids():
    sys = grushin_straightened()
    for per in (9, 17):
        xs = np.linspace(-0.4, 0.4, per)
        degs = [deg_boundary(sys, (x, 0.0), m=2).deg for x in xs]
        for i, d in enumerate(degs):
            neigh = [degs[j] for j in (i - 1, i + 1) if 0 <= j < per]
            assert not all(d < dn for dn in neigh)


def test_weak_equivalence_invariance_of_deg():
    sys = grushin_straightened()
    aug = sys.augmented((1, 2))
    for x1 in (-0.5, 0.25, 0.5):
        a = deg_boundary(sys, (x1, 0.0), m=2)
        b = deg_boundary(aug, (x1, 0.0), m=2)
        assert a.deg == b.deg


def test_span_floor_positive():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    assert bsys.span_floor > 0.5


def test_bracket_closure_residual_small():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    assert bracket_closure_residual(bsys) <= 1e-8


def test_metric_sandwich_two_sided():
    # rho_V and the restricted ambient rho_W are Lipschitz equivalent with
    # a single fitted constant <= 4 away from the characteristic point.
    sys = grushin_straightened()
    bsys = build_boundary_system(sys, (0.5, 0.0), m=2, probe_radius=0.3)
    pairs = [((0.4,), (0.55,)), ((0.35,), (0.5,)), ((0.45,), (0.6,))]
    worst = 1.0
    for a, b in pairs:
        v = boundary_metric(bsys, a, b)
        w = cc_distance(sys, (a[0], 0.0), (b[0], 0.0), mode="intrinsic", tol=0.05)
        mid_v, mid_w = v.midpoint(), w.midpoint()
        assert mid_v > 0 and mid_w > 0
        worst = max(worst, mid_v / mid_w, mid_w / mid_v)
    assert worst <= 4.0


def test_export_scenario_text_shape():
    bsys = build_boundary_system(grushin_straightened(), (0.5, 0.0), m=2)
    text = export_scenario(bsys, "grushin_boundary")
    assert "dim = 1" in text
    assert 'field = "1.0" degree = 1' in text
    assert "center = 0.5" in text
