import math

import numpy as np
import pytest

from ccgeo import flows, symexpr
from ccgeo.cli import fixtures_dir, load_scenario
from ccgeo.flows import (
    BracketWordFlow,
    FlowConfig,
    FlowExcursionError,
    commutator_flow_C,
    exp_flow,
    flow_D,
    flow_E,
    map_F,
)
from ccgeo.hormander import Box, build_Z_system
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
    # rows 1 and 2 both leave the guard box (half width 5) at the first step
    with pytest.raises(FlowExcursionError, match=r"^trajectory left guarded domain at \(6\.0, 0\.0\)$") as err:
        flows.rk4_flow(DX.eval_many, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), [0.1, 5.0, 5.0], CFG2, n_steps=1)
    assert err.value.point.tolist() == [6.0, 0.0]


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


def test_control_velocity_kernel_built_once_per_field_tuple(monkeypatch):
    flows._velocity_kernel.cache_clear()
    calls = []
    real = symexpr._compile
    monkeypatch.setattr(symexpr, "_compile", lambda exprs, **kw: calls.append(exprs) or real(exprs, **kw))
    fields = ("1, x1*x2 - sin(x1*x2)", "x2, 0")
    a = tuple(parse_vfield(f, 2) for f in fields)
    b = [parse_vfield(f, 2) for f in fields]
    before = [(hash(vf), str(vf), repr(vf)) for vf in a]
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
    coeffs = np.random.default_rng(4).uniform(-1, 1, size=(7, 2))
    first = flows._control_velocity(a, coeffs)(pts)
    assert np.array_equal(flows._control_velocity(b, coeffs)(pts), first)
    assert np.array_equal(flows._control_velocity(a, coeffs[:1])(pts[:1]), first[:1])
    assert len(calls) == 1
    assert [(hash(vf), str(vf), repr(vf)) for vf in a] == before
    assert all("_kernel" not in vars(vf) for vf in a)  # the per-field kernels are not built
