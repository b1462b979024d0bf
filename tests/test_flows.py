import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccgeo import flows, symexpr
from ccgeo.cli import fixtures_dir, load_scenario
from ccgeo.flows import (
    GUARD_FACTOR,
    BracketWordFlow,
    FlowConfig,
    FlowExcursionError,
    commutator_flow_C,
    exp_flow,
    flow_D,
    flow_E,
    map_F,
)
from ccgeo.ccmetric import integrate_controls
from ccgeo.hormander import Box, WeightedSystem, build_Z_system
from ccgeo.symexpr import parse_vfield


CFG2 = FlowConfig(Box((4.0, 4.0)))
CFG1 = FlowConfig(Box((4.0,)))
CFG3 = FlowConfig(Box((4.0, 4.0, 4.0)))

DX = parse_vfield("1, 0", 2)
DY = parse_vfield("0, 1", 2)
XDY = parse_vfield("0, x1", 2)


def test_exp_flow_constant_field():
    np.testing.assert_allclose(exp_flow(DX, 0.3, (0.0, 0.0), CFG2), [0.3, 0.0], atol=1e-14)


def test_exp_flow_frozen_coordinate():
    np.testing.assert_allclose(exp_flow(XDY, 0.7, (1.0, 0.0), CFG2), [1.0, 0.7], atol=1e-12)


def test_exp_flow_exponential_growth():
    x_dx = parse_vfield("x1", 1)
    out = exp_flow(x_dx, 1.0, (1.0,), CFG1)
    assert out[0] == pytest.approx(math.e, abs=1e-8)


def test_exp_flow_group_law_and_reversibility():
    vf = parse_vfield("x2, 0-x1", 2)  # rotation
    p = np.array([0.8, -0.1])
    q = exp_flow(vf, 0.4, exp_flow(vf, 0.3, p, CFG2), CFG2)
    q2 = exp_flow(vf, 0.7, p, CFG2)
    np.testing.assert_allclose(q, q2, atol=1e-10)
    back = exp_flow(vf, -0.7, q2, CFG2)
    np.testing.assert_allclose(back, p, atol=1e-9 * 0.7)


def test_rk4_flow_excursion_names_the_first_row_out():
    # one step (time 1/16 at 16 steps per unit): rows 1 and 2 both leave
    # the guard box (half width 5) at it
    cfg = FlowConfig(CFG2.box, steps_per_unit=16)
    p0 = np.array([[0.0, 0.0], [4.96875, 0.0], [4.984375, 0.0]])
    with pytest.raises(FlowExcursionError, match=r"^trajectory left guarded domain at \(5\.03125, 0\.0\)$") as err:
        flows.rk4_flow(DX.eval_many, p0, 0.0625, cfg)
    assert err.value.point.tolist() == [5.03125, 0.0]


@pytest.mark.parametrize(
    "times, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ([0.5, math.nan, 2.0], "nan"), ([0.5, -math.inf, math.nan], "-inf")],
)
def test_rk4_flow_rejects_a_time_that_is_not_finite(times, shown):
    p0 = np.zeros((3, 2))
    with pytest.raises(ValueError, match=rf"^flow times must be finite, got time = {shown}$"):
        flows.rk4_flow(DX.eval_many, p0, times, CFG2)


# -- rk4_flow's fast paths against the broadcast reference ---------------


def _reference_rk4_flow(velocity, p0, times, cfg):
    """rk4_flow stepping every row with a (B, 1) column dt, a shared time
    included, and testing the guard box by broadcasting the centre and the
    guarded half widths over the rows."""
    y = np.array(p0, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    t = np.broadcast_to(np.asarray(times, dtype=float), (len(y),)).astype(float)
    tmax = float(np.abs(t).max())
    if tmax == 0.0:
        return y[0].copy() if single else y
    n_steps = max(1, math.ceil(tmax * cfg.steps_per_unit))
    dt = (t / n_steps)[:, None]
    guard = np.asarray(cfg.box.half_widths) * GUARD_FACTOR + 1e-9
    c = np.asarray(cfg.box.center)
    with np.errstate(all="ignore"):
        for _ in range(n_steps):
            y = flows._rk4_step(velocity, y, dt)
            ok = np.all(np.abs(y - c) <= guard, axis=-1)
            if not ok.all():
                bad = int(np.argmin(ok))
                raise FlowExcursionError(f"trajectory left guarded domain at {tuple(y[bad].tolist())}", y[bad])
    return y[0] if single else y


def _flow_outcome(flow, velocity, p0, times, cfg):
    """The end points as bytes, or the excursion's message and point as bytes."""
    try:
        y = flow(velocity, p0, times, cfg)
    except FlowExcursionError as err:
        return "excursion", str(err), err.point.tobytes()
    return "end", y.shape, y.tobytes()


_FLOW_FIELDS = {
    2: ("1, 0", "0, x1", "x2, 0-x1", "x1*x2, 1/(x1 - 0.25)"),
    3: ("0, 0-x1/2, 1", "1, x3/2, 0", "x2, x1*x3, 0-x1"),
}


@st.composite
def _flow_case(draw):
    """A velocity (one field, or a control velocity with per-row weights),
    start points near the box, shared or per-row times and a step rate;
    times up to 2 often carry rows out of the guard box."""
    n = draw(st.sampled_from(sorted(_FLOW_FIELDS)))
    vfs = tuple(parse_vfield(f, n) for f in _FLOW_FIELDS[n])
    single = draw(st.booleans())
    B = 1 if single else draw(st.integers(1, 5))
    unit = st.floats(-1.2, 1.2, allow_nan=False)
    p0 = np.array(draw(st.lists(unit, min_size=B * n, max_size=B * n))).reshape(B, n)
    time = st.floats(-2.0, 2.0, allow_nan=False)
    if draw(st.booleans()):
        times = draw(time)
    else:
        times = np.array(draw(st.lists(time, min_size=B, max_size=B)))
    k = draw(st.integers(-1, len(vfs) - 1))
    if k >= 0:
        velocity = vfs[k].eval_many
    else:
        a = np.array(draw(st.lists(unit, min_size=B * len(vfs), max_size=B * len(vfs))))
        velocity = flows._control_velocity(vfs, a.reshape(B, len(vfs)))
    cfg = FlowConfig(Box((1.0,) * n), steps_per_unit=draw(st.sampled_from([16, 64])))
    return velocity, p0[0] if single else p0, times, cfg


_CFG_UNIT = FlowConfig(Box((1.0, 1.0)), steps_per_unit=16)


@settings(max_examples=200, deadline=None)
@given(_flow_case())
# a shared time: rows 1 and 2 leave the guard box (half width 1.25) at the first step
@example((DX.eval_many, np.array([[0.0, 0.0], [1.2, 0.5], [1.22, 0.0]]), 0.75, _CFG_UNIT))
# per-row times: only the row with the longer time leaves
@example((DY.eval_many, np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([-0.5, -0.75]), _CFG_UNIT))
# one 1-D point, a negative shared time, and a nan start that fails the guard at once
@example((XDY.eval_many, np.array([0.5, 0.25]), -1.5, _CFG_UNIT))
@example((DX.eval_many, np.array([[0.0, 0.0], [math.nan, 0.0]]), 0.25, _CFG_UNIT))
def test_rk4_flow_fast_paths_match_the_broadcast_reference(case):
    got = _flow_outcome(flows.rk4_flow, *case)
    assert got == _flow_outcome(_reference_rk4_flow, *case)


def test_rk4_flow_steps_a_shared_time_as_a_python_float(monkeypatch):
    dts = []
    real = flows._rk4_step
    monkeypatch.setattr(flows, "_rk4_step", lambda v, y, dt: dts.append(dt) or real(v, y, dt))
    p0 = np.zeros((3, 2))
    flows.rk4_flow(DX.eval_many, p0, 0.25, CFG2)
    assert len(dts) == 64 and all(type(dt) is float and dt == 0.25 / 64 for dt in dts)
    dts.clear()
    flows.rk4_flow(DX.eval_many, p0, np.array([0.25, -0.125, 0.0]), CFG2)
    assert len(dts) == 64 and all(dt.shape == (3, 1) for dt in dts)


def test_exp_flow_excursion_guard():
    # the point prints as a plain tuple of floats, not an ndarray repr
    with pytest.raises(FlowExcursionError, match=r"^trajectory left guarded domain at \(5\.00390625, 0\.0\)$"):
        exp_flow(DX, 100.0, (0.0, 0.0), CFG2)


def test_commutator_flow_commuting_fields():
    p = np.array([0.2, -0.3])
    out = commutator_flow_C(2, 0.5, [DX, DY], p, CFG2)
    np.testing.assert_allclose(out, p, atol=1e-12)


def test_commutator_flow_order_one_reduces_to_exp():
    np.testing.assert_allclose(
        commutator_flow_C(1, 0.4, [DX], (0.0, 0.0), CFG2), [0.4, 0.0], atol=1e-14
    )


def test_commutator_flow_leading_term_matches_bracket():
    # (C_2(t)p - p)/t^2 -> [dx, x dy] = dy, via Richardson over a t-ladder.
    p = np.array([0.0, 0.0])

    def coeff(t):
        return (commutator_flow_C(2, t, [DX, XDY], p, CFG2) - p) / t**2

    f1, f2 = coeff(0.1), coeff(0.05)
    rich = 2.0 * f2 - f1
    np.testing.assert_allclose(rich, [0.0, 1.0], atol=1e-2)


def test_commutator_flow_order_three_exact_nilpotent():
    # S = (dx, x dy, y dz): C_3(t) translates by t^3 [S1,[S2,S3]] = t^3 dz.
    s1 = parse_vfield("1, 0, 0", 3)
    s2 = parse_vfield("0, x1, 0", 3)
    s3 = parse_vfield("0, 0, x2", 3)
    p = np.zeros(3)
    t = 0.3
    out = commutator_flow_C(3, t, [s1, s2, s3], p, CFG3)
    np.testing.assert_allclose(out, [0.0, 0.0, t**3], atol=1e-10)


def test_step_halving_convergence_order():
    vf = parse_vfield("x2*x2+1, 0-x1", 2)
    p = np.array([0.3, 0.2])
    ends = [exp_flow(vf, 1.0, p, FlowConfig(CFG2.box, steps_per_unit=s)) for s in (32, 64, 128)]
    e1 = np.linalg.norm(ends[0] - ends[2])
    e2 = np.linalg.norm(ends[1] - ends[2])
    order = math.log2(e1 / e2)
    assert order >= 3.5


# -- D/E/F flows on a boundary-normalized system --------------------------

# Distinguished generator has n-th component 1, the other is tangential
# with a nontrivial bracket: [g1, g0] = (-1, 0).
G0 = parse_vfield("0, 1", 2)
G1 = parse_vfield("x2, 0", 2)


def _word_flow():
    return BracketWordFlow.make((G0, G1), (1, 0))


def test_flow_D_preserves_nth_coordinate():
    bwf = _word_flow()
    p = np.array([0.5, 0.2])
    for t in (0.1, 0.3):
        out = flow_D(bwf, +1, t, p, CFG2)
        assert abs(out[1] - p[1]) <= 1e-9
        out = flow_D(bwf, -1, t, p, CFG2)
        assert abs(out[1] - p[1]) <= 1e-9


def test_flow_D_boundary_monotone_excursion():
    # With the distinguished field the only one moving x_n, forward flows
    # never dip below the starting height.
    bwf = _word_flow()
    p = np.array([0.1, 0.0])
    for t in (0.05, 0.2, 0.4):
        out = flow_D(bwf, +1, t, p, CFG2)
        assert out[1] >= p[1] - 1e-9


def test_flow_D_single_letter_is_exp():
    bwf = BracketWordFlow.make((G0, G1), (1,))
    np.testing.assert_allclose(
        flow_D(bwf, +1, 0.4, (0.0, 0.5), CFG2),
        exp_flow(G1, 0.4, (0.0, 0.5), CFG2),
        atol=1e-12,
    )


def test_flow_D_sign_flips_leading_term():
    bwf = _word_flow()
    p = np.array([0.0, 0.1])
    y = bwf.target.eval_many(p)

    def coeff(sign, t):
        return (flow_D(bwf, sign, t, p, CFG2) - p) / t**2

    plus = 2.0 * coeff(+1, 0.05) - coeff(+1, 0.1)
    minus = 2.0 * coeff(-1, 0.05) - coeff(-1, 0.1)
    np.testing.assert_allclose(plus, y, atol=2e-2)
    np.testing.assert_allclose(minus, -y, atol=2e-2)


def test_flow_E_zero_time():
    bwf = _word_flow()
    p = np.array([0.3, 0.0])
    np.testing.assert_allclose(flow_E(bwf, 0.0, p, CFG2), p)


def test_flow_E_one_sided_derivative():
    # One-sided quotients approach the bracket target (-1, 0); the error
    # of E is only O(sqrt(t)), hence the t-dependent slack.
    bwf = _word_flow()
    p = np.array([0.3, 0.0])
    y = bwf.target.eval_many(p)
    ladder = [2.0**-k for k in range(6, 11)]
    for t in ladder:
        q_plus = (flow_E(bwf, t, p, CFG2) - p) / t
        q_minus = (flow_E(bwf, -t, p, CFG2) - p) / (-t)
        assert np.linalg.norm(q_plus - y) <= 0.05 * max(1.0, np.linalg.norm(y)) + 5 * t
        assert np.linalg.norm(q_minus - y) <= 0.05 * max(1.0, np.linalg.norm(y)) + 5 * t


def test_map_F_at_zero():
    basis = [BracketWordFlow.make((G0, G1), (0,)), _word_flow()]
    y = np.array([0.2, 0.4])
    np.testing.assert_allclose(map_F(y, basis, (0.0, 0.0), CFG2), y)


def test_map_F_translations():
    dx = parse_vfield("1, 0", 2)
    dy = parse_vfield("0, 1", 2)
    basis = [BracketWordFlow.make((dy, dx), (0,)), BracketWordFlow.make((dy, dx), (1,))]
    y = np.array([0.1, -0.2])
    out = map_F(y, basis, (0.25, -0.3), CFG2)
    np.testing.assert_allclose(out, y + np.array([-0.3, 0.25]), atol=1e-12)


def test_map_F_jacobian_columns():
    basis = [BracketWordFlow.make((G0, G1), (0,)), _word_flow()]
    y = np.array([0.0, 0.1])
    h = 1e-4
    cols = []
    for j in range(2):
        tp = np.zeros(2)
        tp[j] = h
        tm = -tp
        cols.append((map_F(y, basis, tp, CFG2) - map_F(y, basis, tm, CFG2)) / (2 * h))
    jac = np.stack(cols, axis=-1)
    expected = np.stack([basis[0].target.eval_many(y), basis[1].target.eval_many(y)], axis=-1)
    assert np.linalg.det(jac) == pytest.approx(np.linalg.det(expected), abs=1e-4)
    np.testing.assert_allclose(jac, expected, atol=5e-3)


# -- the fused control velocity against einsum over the stacked fields ---


def _fixture_field_tuples():
    for path in sorted(fixtures_dir().glob("*.scn")):
        scn = load_scenario(path.stem)
        sys_ = scn.system()
        yield pytest.param(sys_.vfields(), sys_.n, id=f"{scn.name}-generators")
        yield pytest.param(build_Z_system(sys_, scn.order).vfields(), sys_.n, id=f"{scn.name}-Z")


@pytest.mark.parametrize("vfs, n", list(_fixture_field_tuples()))
@pytest.mark.parametrize("B", [0, 1, 65, 2000])
def test_control_velocity_matches_einsum_bit_for_bit(vfs, n, B):
    rng = np.random.default_rng([B, n, len(vfs)])
    P = rng.uniform(-1.5, 1.5, size=(B, n))
    P[::3, 0] = 0.0
    P[1::4, -1] = -0.0
    # zero and negative controls: a zero times a negative field value is
    # -0.0, and a sum of -0.0 terms is +0.0 in einsum
    a = rng.standard_normal((B, len(vfs))) * rng.integers(0, 2, size=(B, len(vfs)))
    a[::5] = -0.0
    a[2::7] = 0.0
    got = flows._control_velocity(vfs, a)(P)
    with np.errstate(all="ignore"):
        want = np.einsum("br,brn->bn", a, np.stack([vf.eval_many(P) for vf in vfs], axis=1))
    assert got.shape == want.shape == (B, n)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# the two compiled forms of a field tuple, each as a map of the points, and
# their references over the fields' own kernels at unit weight
_FORMS = (
    (lambda vfs, a: flows._control_velocity(vfs, a), lambda vf: vf.eval_many),
    (
        lambda vfs, a: flows._control_step(vfs, a, 0.125),
        lambda vf: lambda pts: flows._rk4_step(vf.eval_many, pts, 0.125),
    ),
)


def test_control_velocity_kernel_built_once_per_field_tuple(monkeypatch):
    calls = []
    real = symexpr._compile
    monkeypatch.setattr(symexpr, "_compile", lambda exprs, form: calls.append(exprs) or real(exprs, form))
    fields = ("1, x1*x2 - sin(x1*x2)", "x2, 0")
    a = tuple(parse_vfield(f, 2) for f in fields)
    b = [parse_vfield(f, 2) for f in fields]
    before = [(hash(vf), str(vf), repr(vf)) for vf in a]
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
    coeffs = np.random.default_rng(4).uniform(-1, 1, size=(7, 2))
    for compiled, _ in _FORMS:  # the velocity kernel and the step, one cache
        monkeypatch.setattr(symexpr, "_KERNELS", {})
        calls.clear()
        first = compiled(a, coeffs)(pts)
        assert np.array_equal(compiled(b, coeffs)(pts), first)
        assert np.array_equal(compiled(a, coeffs[:1])(pts[:1]), first[:1])
        assert len(calls) == 1
    assert [(hash(vf), str(vf), repr(vf)) for vf in a] == before
    assert list(symexpr._KERNELS) == [("step", tuple(str(vf) for vf in a))]  # the per-field kernels are not built


def test_control_velocity_keeps_signed_zero_field_tuples_apart():
    # 1 / (x1 * 0.0) and 1 / (x1 * -0.0) are +inf and -inf at x1 = 1; the
    # first tuple's kernel must not serve the second, nor its step the second's
    from ccgeo.symexpr import Binary, Const, Var, VField

    def field(zero):
        return VField((Const(1.0), Binary("/", Const(1.0), Binary("*", Var(1), Const(zero)))))

    pts, a = np.array([[1.0, 0.0]]), np.ones((1, 1))
    for compiled, reference in _FORMS:
        with np.errstate(all="ignore"):
            for zero in (0.0, -0.0):
                vf = field(zero)
                got = compiled((vf,), a)(pts)
                assert got.view(np.int64).tolist() == reference(vf)(pts).view(np.int64).tolist()
            assert compiled((field(-0.0),), a)(pts)[0, 1] == -np.inf


# -- the reach box ------------------------------------------------------------

_REACH_SYSTEMS = [
    load_scenario(name).system()
    for name in [p.stem for p in sorted(fixtures_dir().glob("*.scn"))]
    + [str(Path(__file__).resolve().parent / "fixtures" / "sine_boundary.scn")]
]


@st.composite
def _reach_case(draw):
    """A packaged or test system, a point in its chart, delta <= 0.5 and piecewise-constant
    controls whose every segment has norm at most 1."""
    sys = draw(st.sampled_from(_REACH_SYSTEMS))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    x = np.asarray(sys.box.center) + np.array([draw(unit) for _ in range(sys.n)]) * np.asarray(sys.box.half_widths)
    if sys.box.has_boundary:
        x[-1] = abs(x[-1])
    S, K = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    u = np.array(draw(st.lists(unit, min_size=S * K * sys.r, max_size=S * K * sys.r))).reshape(S, K, sys.r)
    u /= np.maximum(1.0, np.linalg.norm(u, axis=2, keepdims=True))
    delta = draw(st.floats(0.0, 0.5, allow_nan=False))
    return sys, x, delta, u, draw(st.sampled_from(["intrinsic", "extrinsic"]))


@settings(max_examples=200, deadline=None)
@given(_reach_case())
def test_integrate_controls_ends_inside_the_reach_box(case):
    # every path of time 1 at control norm <= 1 keeps to x +- reach, frozen rows included
    sys, x, delta, u, mode = case
    proven = flows._reach_box(sys, x, delta)
    assume(proven is not None)
    ends, _, _ = integrate_controls(sys, x, delta, u, mode)
    assert np.all(np.abs(ends - x) <= proven[1])


def test_reach_box_is_unproven_for_a_field_that_grows_fast_across_the_guard_box():
    # the guess at delta 0.5 is 0.5 e^3.75 = 21 along x1, and over x +- 21 the field is far faster
    sys = WeightedSystem(
        fields=((parse_vfield("exp(3*x1), 0", 2), 1), (parse_vfield("0, 1", 2), 1)),
        box=Box((1.0, 1.0)),
    )
    assert flows._reach_box(sys, (0.0, 0.0), 0.5) is None
    S, reach = flows._reach_box(sys, (0.0, 0.0), 0.01)  # a small scale is proven
    assert np.all(S <= reach)
