import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgeo import ccmetric, cli, flows, symexpr
from ccgeo.hormander import _field_columns, _field_stack, build_Z_system, enumerate_commutators
from ccgeo.symexpr import (
    UNARY_FUNCS,
    Binary,
    Const,
    ParseError,
    Power,
    Unary,
    Var,
    VField,
    lie_bracket,
    parse_expr,
    parse_vfield,
    to_string,
)


def test_parse_product():
    e = parse_expr("x1*x1", 2)
    assert e.eval_many((3.0, 0.0)) == 9.0
    assert to_string(e) == "(x1*x1)"


def test_parse_sin_plus_const():
    e = parse_expr("sin(x2)+3", 2)
    assert e.eval_many((0.0, 0.0)) == 3.0
    assert e.eval_many((0.0, math.pi / 2)) == pytest.approx(4.0)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_expr("x3", 2)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + *", 2)
    assert exc.value.offset == 5


@pytest.mark.parametrize(
    "text",
    ["x1*x1", "sin(x2)+3", "1/x1", "-x1^2", "(x1+x2)^3", "exp(-x1*x2)", "sqrt(x1+2)", "2.5e-3*x1", "x1/x2/x1"],
)
def test_print_parse_round_trip(text):
    e = parse_expr(text, 2)
    again = parse_expr(to_string(e), 2)
    assert again == e


def test_eval_examples():
    assert parse_expr("x1*x2", 2).eval_many((2.0, 3.0)) == 6.0
    assert parse_expr("exp(0*x1)", 1).eval_many((5.0,)) == 1.0


def test_eval_domain_errors_give_inf_or_nan():
    at_zero = np.zeros(1)
    assert parse_expr("1/x1", 1).eval_many(at_zero) == np.inf
    assert parse_expr("1/(-x1)", 1).eval_many(at_zero) == -np.inf
    assert np.isnan(parse_expr("sqrt(x1-1)", 1).eval_many(at_zero))
    assert np.isinf(parse_expr("x1 + 1/(x1-1)", 1).eval_many(np.ones(1)))


def test_diff_examples():
    e = parse_expr("x1*x1", 2)
    d = e.diff(1)
    assert d.eval_many((3.0, 0.0)) == 6.0
    assert parse_expr("x1", 2).diff(2) == Const(0.0)
    assert parse_expr("sin(x1)", 1).diff(1).eval_many((0.0,)) == 1.0


_SMOOTH = ["sin(x1)*cos(x2)", "exp(x1-x2)", "x1^3 + 2*x1*x2", "sqrt(x1+3)", "x1/(x2+2)"]


@pytest.mark.parametrize("text", _SMOOTH)
def test_diff_matches_richardson_fd(text):
    e = parse_expr(text, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        for i in (1, 2):
            exact = e.diff(i).eval_many(p)
            h = 1e-5
            step = np.zeros(2)
            step[i - 1] = h

            def fd(hh):
                return (e.eval_many(p + step * (hh / h)) - e.eval_many(p - step * (hh / h))) / (2 * hh)

            rich = (4 * fd(h / 2) - fd(h)) / 3
            assert rich == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_bracket_examples():
    dx = parse_vfield("1, 0", 2)
    x_dy = parse_vfield("0, x1", 2)
    assert lie_bracket(dx, x_dy) == parse_vfield("0, 1", 2)

    dy = parse_vfield("0, 1", 2)
    assert lie_bracket(dx, dy).is_zero()

    # Heisenberg: [dx - (y/2) dt, dy + (x/2) dt] = dt
    X = parse_vfield("1, 0, 0-x2/2", 3)
    Y = parse_vfield("0, 1, x1/2", 3)
    b = lie_bracket(X, Y)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(5, 3))
    np.testing.assert_allclose(b.eval_many(pts), np.tile([0.0, 0.0, 1.0], (5, 1)), atol=1e-14)


def _random_polynomial_field(rng, n, deg=2):
    comps = []
    for _ in range(n):
        text_terms = []
        for _ in range(deg):
            c = rng.uniform(-1, 1)
            i, j = rng.integers(1, n + 1, size=2)
            text_terms.append(f"{c!r}*x{i}*x{j}")
        text_terms.append(repr(rng.uniform(-1, 1)))
        comps.append("+".join(text_terms))
    return parse_vfield(", ".join(f"({c})" for c in comps), n)


def test_bracket_antisymmetry_at_random_points():
    rng = np.random.default_rng(7)
    n = 3
    X = _random_polynomial_field(rng, n)
    Y = _random_polynomial_field(rng, n)
    xy = lie_bracket(X, Y)
    yx = lie_bracket(Y, X)
    pts = rng.uniform(-1, 1, size=(120, n))
    a = xy.eval_many(pts)
    b = yx.eval_many(pts)
    scale = max(1.0, np.abs(a).max())
    assert np.abs(a + b).max() <= 1e-12 * scale


def test_jacobi_identity_at_random_points():
    rng = np.random.default_rng(11)
    n = 3
    X = _random_polynomial_field(rng, n)
    Y = _random_polynomial_field(rng, n)
    Z = _random_polynomial_field(rng, n)
    total = lie_bracket(X, lie_bracket(Y, Z))
    t2 = lie_bracket(Y, lie_bracket(Z, X))
    t3 = lie_bracket(Z, lie_bracket(X, Y))
    pts = rng.uniform(-1, 1, size=(100, n))
    s = total.eval_many(pts) + t2.eval_many(pts) + t3.eval_many(pts)
    scale = max(1.0, np.abs(total.eval_many(pts)).max())
    assert np.abs(s).max() <= 1e-9 * scale


def test_vfield_dimension_mismatch():
    with pytest.raises(ValueError):
        lie_bracket(parse_vfield("1, 0", 2), parse_vfield("1, 0, 0", 3))


def test_vfield_nth_component():
    w = parse_vfield("1, 0-2*x1", 2)
    assert w.nth.eval_many((0.5, 0.0)) == -1.0


def test_subst_restricts_boundary():
    e = parse_expr("x1*x2 + x2^2", 2)
    r = e.subst(2, 0.0)
    assert r == Const(0.0)


# -- compiled kernels against a reference tree walk ------------------------

_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _ref_eval_array(e, pts):
    """Per-node float64 tree walk the compiled kernels must reproduce bit
    for bit; call it under np.errstate(all="ignore")."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        return pts[..., e.index - 1]
    if isinstance(e, Unary):
        v = _ref_eval_array(e.arg, pts)
        return -v if e.op == "neg" else _REF_FUNCS[e.op](v)
    if isinstance(e, Binary):
        a = _ref_eval_array(e.lhs, pts)
        b = _ref_eval_array(e.rhs, pts)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Power):
        return _ref_eval_array(e.base, pts) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def _ref_vfield(vf, pts):
    cols = [np.broadcast_to(_ref_eval_array(c, pts), pts.shape[:-1]) for c in vf.components]
    return np.stack(cols, axis=-1)


def _ref_expr(e, pts):
    out = _ref_eval_array(e, pts)
    return np.broadcast_to(out, pts.shape[:-1]).copy() if np.ndim(out) == 0 else out


def _assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))  # signed zeros, nan bits


def _assert_kernel_matches(node, ref, pts):
    """node.eval_many raises nothing, not even where numpy errors raise,
    and matches the reference walk ref(node, pts) bit for bit."""
    with np.errstate(all="raise"):
        got = node.eval_many(pts)
    with np.errstate(all="ignore"):
        want = ref(node, pts)
    _assert_bit_identical(got, want)


_N = 3
# zeros of both signs, negatives under sqrt, values whose powers overflow
_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e200, float("inf")]
_consts = st.builds(Const, st.sampled_from(_VALUES) | st.floats(-4.0, 4.0))
_vars = st.builds(Var, st.integers(1, _N))


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + UNARY_FUNCS), children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.integers(-3, 5)),
    )


_exprs = st.recursive(_consts | _vars, _extend, max_leaves=12)
_coords = st.sampled_from(_VALUES[:7]) | st.floats(-3.0, 3.0)


@st.composite
def _points(draw):
    shape = draw(st.sampled_from([(5, _N), (_N,), (2, 3, _N), (0, _N)]))
    flat = draw(st.lists(_coords, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=_N), _points())
def test_compiled_vfield_matches_tree_walk_bit_for_bit(comps, pts):
    comps = comps + [Const(0.0)] * (_N - len(comps))
    vf = VField(tuple(comps))
    _assert_kernel_matches(vf, _ref_vfield, pts)


@settings(max_examples=200, deadline=None)
@given(_exprs, _points())
def test_compiled_expr_matches_tree_walk_bit_for_bit(e, pts):
    _assert_kernel_matches(e, _ref_expr, pts)


_X1 = Var(1)
_EXAMPLES = [
    # nested negation; signed zeros that structural equality alone would merge
    (Unary("neg", Unary("neg", Unary("neg", _X1))), Binary("*", _X1, Const(-0.0)), Binary("*", _X1, Const(0.0))),
    # division by zeros, sqrt of negatives, negated denominators
    parse_vfield("1/x1, sqrt(x2-1), (-x1)/(-x2)", _N).components,
    # shared subtrees, negative powers
    parse_vfield("(x1+x2)^2 - (x1+x2)^2, sin(x1+x2)*cos(x1+x2), exp(-x3)^-2", _N).components,
]


@pytest.mark.parametrize("comps", _EXAMPLES)
@pytest.mark.parametrize("pts", [
    np.array([[0.0, 0.0, 1.0], [-1.0, 0.5, -0.0], [2.0, -3.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
])
def test_compiled_vfield_examples(comps, pts):
    vf = VField(tuple(comps))
    _assert_kernel_matches(vf, _ref_vfield, pts)


def test_constant_only_subtree_gives_inf_or_nan():
    zero_div = Binary("/", Const(1.0), Binary("-", Const(1.0), Const(1.0)))
    vals = VField((zero_div, Var(1))).eval_many(np.zeros((4, 2)))
    assert np.array_equal(vals, np.tile([np.inf, 0.0], (4, 1)))
    assert np.all(zero_div.eval_many(np.zeros((4, 2))) == np.inf)
    assert np.isnan(Binary("/", Const(0.0), Binary("-", Const(1.0), Const(1.0))).eval_many(np.zeros(2)))
    assert Binary("/", Const(1.0), Unary("neg", Var(1))).eval_many(np.zeros(2)) == -np.inf


def test_vfield_kernel_built_once_and_invisible(monkeypatch):
    calls = []
    real = symexpr._compile
    monkeypatch.setattr(symexpr, "_compile", lambda exprs, form: calls.append(exprs) or real(exprs, form))
    a = parse_vfield("1, x1*x2 - sin(x1*x2)", 2)
    b = parse_vfield("1, x1*x2 - sin(x1*x2)", 2)
    before = (hash(a), str(a), repr(a))
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
    first = a.eval_many(pts)
    assert np.array_equal(a.eval_many(pts), first)
    a.eval_many(pts[0])
    assert len(calls) == 1
    assert a == b and (hash(a), str(a), repr(a)) == before == (hash(b), str(b), repr(b))


def test_kernels_that_differ_in_a_signed_zero_keep_their_own_bits():
    pts = np.array([[-0.0, 2.0], [1.0, -0.0], [-3.0, 0.5]])
    pos, neg_ = (VField((Binary("+", _X1, Const(z)), Binary("*", Var(2), Const(z)))) for z in (0.0, -0.0))
    # structurally equal, so only the kernel's constants can tell them apart
    assert pos == neg_
    got_pos, got_neg = pos.eval_many(pts), neg_.eval_many(pts)
    with np.errstate(all="ignore"):
        _assert_bit_identical(got_pos, _ref_vfield(pos, pts))
        _assert_bit_identical(got_neg, _ref_vfield(neg_, pts))
    assert got_pos.view(np.int64).tolist() != got_neg.view(np.int64).tolist()
    assert symexpr._kernel("point", (pos,)) is not symexpr._kernel("point", (neg_,))
    # a rebuilt field with the same constants reuses the kernel
    again = parse_vfield("1, x1*x2 - sin(x1*x2)", 2)
    assert symexpr._kernel("point", (again,)) is symexpr._kernel("point", (parse_vfield("1, x1*x2 - sin(x1*x2)", 2),))


def test_kernel_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(symexpr, "_KERNELS", {})
    monkeypatch.setattr(symexpr, "_KERNEL_CACHE_SIZE", 3)
    kernels = [symexpr._kernel("point", (Binary("*", _X1, Const(float(k))),)) for k in range(5)]
    assert len(symexpr._KERNELS) == 3
    # the oldest went first; the newest are still served from the cache
    assert symexpr._kernel("point", (Binary("*", _X1, Const(4.0)),)) is kernels[4]
    assert symexpr._kernel("point", (Binary("*", _X1, Const(0.0)),)) is not kernels[0]


# -- the weighted (control-velocity) kernel against einsum ---------------

_components = _exprs | st.sampled_from([Const(0.0), Const(-0.0), Const(1.0)])
_fields = st.lists(st.lists(_components, min_size=_N, max_size=_N).map(tuple), min_size=1, max_size=4)
_weights = st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 1e-300]) | st.floats(-4.0, 4.0)


@st.composite
def _points_and_weights(draw, r):
    B = draw(st.sampled_from([0, 1, 5]))
    P = np.array(draw(st.lists(_coords, min_size=B * _N, max_size=B * _N)), dtype=float).reshape(B, _N)
    A = np.array(draw(st.lists(_weights, min_size=B * r, max_size=B * r)), dtype=float).reshape(B, r)
    return P, A


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weighted_kernel_matches_einsum_bit_for_bit(data):
    fields = data.draw(_fields)
    P, A = data.draw(_points_and_weights(len(fields)))
    # the weighted kernel leaves numpy's error state to its caller, as the
    # integrators that call it hold np.errstate(all="ignore")
    with np.errstate(all="ignore"):
        got = symexpr._compile(tuple(fields), "weighted")(P, A)
        W = np.stack([_ref_vfield(VField(f), P) for f in fields], axis=1)
        want = np.einsum("br,brn->bn", A, W)
    _assert_bit_identical(got, want)


# -- the compiled RK4 step against _rk4_step over the weighted kernel ----

def _assert_bit_identical_but_nan_payloads(a, b):
    """Bit for bit where not nan, and nan at the same places.  Which nan an
    operation on two nans returns is not fixed: numpy's SIMD loops return
    either operand's, by the element's place in the loop, so the sign of a
    nan may change with the length of the array it is computed in."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a.view(np.int64)[~nan], b.view(np.int64)[~nan])


# weights of both signed zeros, nan and infinities as well
_step_weights = _weights | st.sampled_from([math.nan, math.inf, -math.inf])
_dts = st.sampled_from([0.0, -0.0, 0.125, 1e-3, -0.25, 3.0, math.inf]) | st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_step_matches_rk4_over_the_weighted_kernel_bit_for_bit(data):
    vfs = tuple(VField(f) for f in data.draw(_fields))
    B, r = data.draw(st.sampled_from([0, 1, 5])), len(vfs)
    Y = np.array(data.draw(st.lists(_coords, min_size=B * _N, max_size=B * _N)), dtype=float).reshape(B, _N)
    A = np.array(data.draw(st.lists(_step_weights, min_size=B * r, max_size=B * r)), dtype=float).reshape(B, r)
    if data.draw(st.booleans()):  # one time step for every row, or one per row
        dt = np.array(data.draw(st.lists(_dts, min_size=B, max_size=B)), dtype=float)
        column = dt[:, None]
    else:
        dt = column = data.draw(_dts)
    with np.errstate(all="ignore"):
        step = flows._control_step(vfs, A, dt)
        got = step(step(Y))
        velocity = flows._control_velocity(vfs, A)
        want = flows._rk4_step(velocity, flows._rk4_step(velocity, Y, column), column)
    _assert_bit_identical_but_nan_payloads(got, want)


# -- the flow kernel against steps of _rk4_step over the point kernel --------

# divisions by zero, by a constant zero and near zero, squares, cubes and each function
_FLOW_EXPRS = [
    parse_expr(text, _N)
    for text in ("x1/x2", "x1/0", "(x2-x3)/(x1-x1)", "x3/(x1*1e-300)", "1/(x2-1e-12)", "x1^2", "x2^3",
                 "(x1+x3)^-3", "sin(x2)", "cos(x1*x3)", "exp(x3)", "sqrt(x1-x2)", "x2")
]
# rows holding both signed zeros, infinities and nan as well
_flow_coords = _coords | st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(st.lists(_exprs | st.sampled_from(_FLOW_EXPRS), min_size=_N, max_size=_N), st.data())
def test_flow_kernel_matches_rk4_steps_over_the_point_kernel_bit_for_bit(exprs, data):
    B, steps = data.draw(st.sampled_from([0, 1, 5, 35])), data.draw(st.sampled_from([1, 4, 32]))
    Y = np.array(data.draw(st.lists(_flow_coords, min_size=B * _N, max_size=B * _N)), dtype=float).reshape(B, _N)
    with np.errstate(all="raise"):  # the flow kernel ignores numpy's errors itself
        ends, nodes = flows._unit_flow(tuple(exprs), Y, steps)
    point, y, want = symexpr._kernel("point", tuple(exprs)), Y, []
    with np.errstate(all="ignore"):
        for _ in range(steps):
            y = flows._rk4_step(point, y, 1.0 / steps)
            want.append(y)
    _assert_bit_identical_but_nan_payloads(ends, y)
    _assert_bit_identical_but_nan_payloads(nodes, np.stack(want, axis=1))


# -- the oracle's move rates against the field-stack loop -------------------

def _rates_loop(vfs, dirs, factors, res, P):
    """max_i |sum_j dirs[:, j] (factors_j W_j)_i(P)| / res_i (D, F), as ReachGraph.run's
    moves computed it from the point kernel before the rates form."""
    W = _field_stack(vfs, P)  # (r, F, n)
    W *= factors[:, None, None]
    dir_cols = dirs.T[:, :, None]
    rates = None
    for i, res_i in enumerate(res.tolist()):
        v = dir_cols[0] * W[0, :, i]
        for j in range(1, len(dir_cols)):
            v += dir_cols[j] * W[j, :, i]
        np.abs(v, out=v)
        v /= res_i
        rates = v if rates is None else np.maximum(rates, v, out=rates)
    return rates


# constant components besides 0, -0 and 1, so that whole rate rows read no coordinate
_rate_components = _components | st.sampled_from([Const(2.0), Const(-0.5), Const(1e-300), Const(3.0)])
_deltas = st.sampled_from([0.0, 1e-3, 0.3, 1.0, 2.0]) | st.floats(0.0, 2.0)
_resolutions = st.sampled_from([0.01, 0.025, 1.0, 3e-5]) | st.floats(1e-3, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rates_kernel_matches_the_field_stack_loop_bit_for_bit(data):
    r = data.draw(st.integers(1, 3))
    vfs = tuple(VField(f) for f in data.draw(st.lists(st.lists(_rate_components, min_size=_N, max_size=_N).map(tuple), min_size=r, max_size=r)))
    dirs, delta = ccmetric._move_directions(r), data.draw(_deltas)
    factors = np.array([delta**d for d in data.draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))])
    res = np.array(data.draw(st.lists(_resolutions, min_size=_N, max_size=_N)))
    F = data.draw(st.sampled_from([0, 1, 5, 35]))
    P = np.array(data.draw(st.lists(_flow_coords, min_size=F * _N, max_size=F * _N)), dtype=float).reshape(F, _N)
    with np.errstate(all="raise"):  # make ignores numpy's errors itself
        rates = symexpr._kernel("rates", vfs)(dirs, factors, res)
    with np.errstate(all="ignore"):  # rates(P), like the step form, leaves them to its caller
        got = rates(P)
        want = _rates_loop(vfs, dirs, factors, res, P)
    assert got.shape in (want.shape, (len(dirs), 1))  # a (D, 1) row where no rate reads the point
    _assert_bit_identical(np.broadcast_to(got, want.shape), want)


def test_rates_kernel_folds_constant_rows_and_skips_zero_terms(monkeypatch):
    # heisenberg: the x1 and x3 rates read no coordinate, and each field has a zero term;
    # the frame's x3 rate adds a constant term after two that read the point; elliptic:
    # every rate is one (D, 1) row, computed once per make
    heisenberg = (parse_vfield("0, 0-x1/2, 1", 3), parse_vfield("1, x3/2, 0", 3))
    frame = (parse_vfield("1, 0, x2/2", 3), parse_vfield("0, 1, 0-x1/2", 3), parse_vfield("0, 0, 1", 3))
    elliptic = (parse_vfield("1, 0, 0", 3), parse_vfield("0, 1, 0", 3), parse_vfield("0, 0, 1", 3))
    sources, rates_source = [], symexpr._rates_source
    monkeypatch.setattr(symexpr, "_KERNELS", {})
    monkeypatch.setattr(symexpr, "_rates_source", lambda *args: sources.append(rates_source(*args)) or sources[-1])
    P = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, _N))
    for vfs in (heisenberg, frame, elliptic):
        dirs, factors, res = ccmetric._move_directions(len(vfs)), np.array([0.3, 0.09, 0.3][: len(vfs)]), np.array([0.02, 0.01, 0.03])
        rates = symexpr._kernel("rates", vfs)(dirs, factors, res)
        # one term per component that is not the constant 0
        assert len(re.findall(r"\bd\d \* \(", sources[-1])) == sum(not symexpr._is_const(c, 0.0) for vf in vfs for c in vf.components)
        with np.errstate(all="ignore"):
            got, want = rates(P), _rates_loop(vfs, dirs, factors, res, P)
        _assert_bit_identical(np.broadcast_to(got, want.shape), want)
        assert got.shape == ((len(dirs), 1) if vfs is elliptic else want.shape)
    assert rates(P) is rates(P[:2]) and not rates(P).flags.writeable  # the one row, read-only


# -- interval kernels --------------------------------------------------------

_SCENARIOS = [p.stem for p in sorted(cli.fixtures_dir().glob("*.scn"))] + [
    str(Path(__file__).resolve().parent / "fixtures" / "sine_boundary.scn")
]


def _fixture_components():
    """Every field, bracket (to the scenario's order) and density component of the
    packaged fixtures and of sine_boundary, with the dimension it lives in."""
    out = []
    for name in _SCENARIOS:
        scn = cli.load_scenario(name)
        sys_ = scn.system()
        fields = [vf for vf, _ in sys_.fields] + [e.field for e in enumerate_commutators(sys_, scn.order)]
        out += [(c, sys_.n) for vf in fields for c in vf.components] + [(sys_.density, sys_.n)]
    return list(dict.fromkeys(out))


_FIXTURE_COMPONENTS = _fixture_components()


def _is_affine(e, n: int) -> bool:
    return all(e.diff(i).diff(j) == Const(0.0) for i in range(1, n + 1) for j in range(1, n + 1))


def _enclosure(e, lo, hi):
    lo, hi = symexpr._compile((e,), "interval")(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return lo[..., 0], hi[..., 0]


def test_fixture_components_include_affine_and_curved_ones():
    kinds = {_is_affine(e, n) for e, n in _FIXTURE_COMPONENTS}
    assert kinds == {True, False}  # sine_boundary's sin(x1) and its brackets are not affine


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interval_kernel_encloses_every_fixture_component(data):
    e, n = data.draw(st.sampled_from(_FIXTURE_COMPONENTS))
    centre = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    half = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-9, 0.01]) | st.floats(0.0, 2.0), min_size=n, max_size=n)))
    lo, hi = _enclosure(e, centre - half, centre + half)
    assert lo <= hi
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((64, n))
    corners = np.array(list(itertools.product(*zip(centre - half, centre + half))))
    pts = np.vstack([corners, np.clip(centre - half + 2.0 * half * u, centre - half, centre + half)])
    vals = e.eval_many(pts)
    assert np.all((lo <= vals) & (vals <= hi)), (str(e), lo, hi, vals.min(), vals.max())
    if _is_affine(e, n):  # the range is taken at the corners; the enclosure holds it to a few ulps
        at = e.eval_many(corners)
        ulps = 8 * np.spacing(max(1.0, float(np.abs(at).max())))
        assert at.min() - ulps <= lo and hi <= at.max() + ulps


@settings(max_examples=300, deadline=None)
@given(_exprs, st.data())
def test_interval_kernel_encloses_the_point_kernel(e, data):
    # any expression, domain errors included: a point value that is not nan lies in the enclosure
    a = np.array(data.draw(st.lists(_coords, min_size=_N, max_size=_N)))
    b = np.array(data.draw(st.lists(_coords, min_size=_N, max_size=_N)))
    lo_pt, hi_pt = np.minimum(a, b), np.maximum(a, b)
    lo, hi = _enclosure(e, lo_pt, hi_pt)
    assert not (np.isnan(lo) or np.isnan(hi)) and lo <= hi
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((16, _N))
    pts = np.vstack([lo_pt, hi_pt, np.clip(lo_pt + (hi_pt - lo_pt) * u, lo_pt, hi_pt)])
    vals = e.eval_many(pts)
    assert np.all(np.isnan(vals) | ((lo <= vals) & (vals <= hi))), (str(e), lo, hi)


@pytest.mark.parametrize("text, lo, hi, want", [
    ("1/x1", [-1.0, 0.0], [1.0, 0.0], (-math.inf, math.inf)),  # a divisor that holds 0
    ("1/x1", [0.0, 0.0], [1.0, 0.0], (-math.inf, math.inf)),
    ("sin(x1)", [-10.0, 0.0], [10.0, 0.0], (-1.0, 1.0)),  # wider than 2 pi
    ("cos(x1)", [-0.1, 0.0], [0.2, 0.0], (math.cos(0.2), 1.0)),  # the peak at 0
    ("sin(x1)", [1.0, 0.0], [2.0, 0.0], (math.sin(1.0), 1.0)),  # the peak at pi/2
    ("x1^2", [-1.0, 0.0], [2.0, 0.0], (0.0, 4.0)),  # an even power of an interval that holds 0
    ("x1^-1", [1.0, 0.0], [2.0, 0.0], (0.5, 1.0)),
    ("sqrt(x1)", [-4.0, 0.0], [4.0, 0.0], (0.0, 2.0)),  # over the part at or above 0
    ("exp(x1)-x2", [0.0, -1.0], [1.0, 1.0], (0.0, math.e + 1.0)),
    ("x1*x1", [-1.0, 0.0], [1.0, 0.0], (-1.0, 1.0)),  # no dependency tracking
])
def test_interval_kernel_examples(text, lo, hi, want):
    got = _enclosure(parse_expr(text, 2), lo, hi)
    assert got[0] <= want[0] and want[1] <= got[1]
    # outward by a few ulps, no more
    for g, w, side in zip(got, want, (-1.0, 1.0)):
        assert g == w or abs(g - w) <= 64 * np.spacing(max(1.0, abs(w)))


def test_interval_kernel_is_the_one_compiler_and_maps_nan_to_infinite_bounds():
    e = parse_expr("x1*(1/x2) + sqrt(x2)", 2)
    kernel = symexpr._kernel("interval", (e,))
    assert symexpr._kernel("interval", (e,)) is kernel  # one cached kernel per expression and form
    # 0 * [-inf, inf] is nan at both ends, and so is the sum
    lo, hi = kernel(np.zeros((1, 2)), np.zeros((1, 2)))
    assert lo[0, 0] == -math.inf and hi[0, 0] == math.inf
    # sqrt of an interval below 0 is nan at its top
    lo, hi = _enclosure(parse_expr("sqrt(x2)", 2), [0.0, -2.0], [0.0, -1.0])
    assert lo == 0.0 and hi == math.inf


# -- the one field evaluator over the fixtures' Z systems ----------------------

#: the Z system (generators and brackets to the scenario's order) of each packaged
#: fixture and of sine_boundary, as a field tuple
_Z_SYSTEMS = [build_Z_system(scn.system(), scn.order).vfields() for scn in map(cli.load_scenario, _SCENARIOS)]
# zeros of both signs, huge coordinates and non-finite ones
_wild = st.sampled_from([0.0, -0.0, 1e200, -1e200, math.inf, -math.inf, math.nan]) | st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_field_stack_is_every_fields_reference_and_columns_raise_where_it_is_not_finite(data):
    vfs = data.draw(st.sampled_from(_Z_SYSTEMS))
    n = vfs[0].dim
    pts = np.array(data.draw(st.lists(st.lists(_wild, min_size=n, max_size=n), min_size=1, max_size=6)))
    if data.draw(st.booleans()):  # one point (n,)
        pts = pts[0]
    got = _field_stack(vfs, pts)
    with np.errstate(all="ignore"):
        want = np.stack([_ref_vfield(vf, pts) for vf in vfs])
    _assert_bit_identical_but_nan_payloads(got, want)
    bad = ~np.isfinite(want).all(axis=(0, -1))
    if not bad.any():
        _assert_bit_identical_but_nan_payloads(_field_columns(vfs, pts), want)
        return
    first = pts if pts.ndim == 1 else pts[np.argmax(bad)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'generator fields are not finite at {tuple(first.tolist())}')}$"):
        _field_columns(vfs, pts)


@pytest.mark.parametrize("vfs", _Z_SYSTEMS, ids=[Path(s).stem for s in _SCENARIOS])
def test_field_tuples_that_differ_in_a_signed_zero_get_their_own_kernels(vfs):
    # the last component of the last field times 0.0 or -0.0: equal tuples, other bits
    pos, neg_ = (
        vfs[:-1] + (VField(vfs[-1].components[:-1] + (Binary("*", Const(z), vfs[-1].components[-1]),)),)
        for z in (0.0, -0.0)
    )
    assert pos == neg_
    for form in ("point", "weighted", "step", "interval"):
        assert symexpr._kernel(form, pos) is not symexpr._kernel(form, neg_)
        assert symexpr._kernel(form, pos) is symexpr._kernel(form, list(pos))
    pts = np.full((1, vfs[0].dim), 0.25)
    got = [_field_stack(t, pts)[-1, 0, -1] for t in (pos, neg_)]
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, _ref_vfield(t[-1], pts)[0, -1]) for t in (pos, neg_)]
    assert math.copysign(1.0, got[0]) != math.copysign(1.0, got[1])
