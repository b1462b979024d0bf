"""Symbolic scalar expressions and coordinate vector fields.

Expression trees support exact differentiation, evaluation and printing
that round-trips through the parser.  Vector fields are n-tuples of
expressions (coefficients of the coordinate derivations) with an exact
Lie bracket.  Every evaluation, at one point or a batch, runs one
compiled numpy kernel in float64: a domain error (division by zero,
sqrt of a negative, overflow) gives inf or nan and never raises.  This
module owns every kernel: `_kernel(form, fields)` compiles a tuple of
fields once per form (point values, interval enclosures, the control
velocity sum_j a_j W_j or its RK4 step, the grid oracle's move rates,
and the RK4 flow of the point values over unit time, on Python floats
for small batches) into one bounded cache, keyed on the fields as
printed.

Simplification is limited to constant folding and 0/1 absorption; no
general rewriting is attempted, so brackets stay exact without risking
term explosion.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "VField",
    "ExprError",
    "ParseError",
    "parse_expr",
    "parse_vfield",
    "lie_bracket",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_int",
    "func",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax or arity error, with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


UNARY_FUNCS = ("sin", "cos", "exp", "sqrt")

_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_MATH_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


class Expr:
    """Base class for expression nodes.  Nodes are immutable and hashable."""

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n); one point (n,) gives a 0-d array."""
        return _kernel("point", (self,))(np.asarray(points, dtype=float))[..., 0]

    @cached_property
    def _text(self) -> str:  # str(self), kept: unlike eq and hash, it tells Const(0.0) from Const(-0.0)
        return str(self)

    def diff(self, i: int) -> "Expr":
        return _diff(self, i)

    def subst(self, i: int, value: float) -> "Expr":
        return _subst(self, i, float(value))

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or one of UNARY_FUNCS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


ZERO = Const(0.0)
ONE = Const(1.0)


def _C(v: float) -> Const:
    # +0.0 normalizes -0.0 so structurally-equal trees print identically
    return Const(float(v) + 0.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _C(a.value + b.value)
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _C(a.value - b.value)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _C(a.value * b.value)
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _C(a.value / b.value)
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _C(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def pow_int(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return _C(base.value**exponent)
    return Power(base, exponent)


def func(name: str, arg: Expr) -> Expr:
    if name not in UNARY_FUNCS:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        v = _MATH_FUNCS[name](arg.value) if (name != "sqrt" or arg.value >= 0) else None
        if v is not None and math.isfinite(v):
            return _C(v)
    return Unary(name, arg)


# -- evaluation ---------------------------------------------------------


def _kernel(form: str, fields):
    """The kernel of a tuple of fields (VFields, or expressions as one-component
    fields) in `form`, compiled by `_compile` on first use: the point, interval and
    flow forms over every component of every field in turn, the weighted, step and
    rates forms over the fields as the control velocity's terms.  The one cache keeps at most
    _KERNEL_CACHE_SIZE kernels, the oldest dropped first, keyed on the form and the
    fields as printed, which, unlike their equality, tell Const(0.0) from Const(-0.0)."""
    key = (form, tuple([f._text for f in fields]))
    kernel = _KERNELS.get(key)
    if kernel is None:
        comps = tuple([f.components if isinstance(f, VField) else (f,) for f in fields])
        kernel = _KERNELS[key] = _compile(comps if form in ("weighted", "step", "rates") else sum(comps, ()), form)
        if len(_KERNELS) > _KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]  # the oldest
    return kernel


def _compile(exprs, form):
    """Generate one numpy kernel P (..., n) -> out (..., len(exprs)) with form="point".

    With form="weighted", exprs holds the component tuples of r fields
    W_j, and the kernel (P, A) returns the velocity
    out[..., k] = sum_j A[..., j] * W_jk(P) for weights A (..., r).  A
    term whose component is the constant 0 is skipped, the constant 1
    contributes A[..., j] itself, and the sum runs left to right in j
    from +0.0, each term the left operand, as einsum("br,brn->bn") adds:
    for finite A and n >= 2 the two agree bit for bit.

    With form="step" the same velocity drives one classical RK4 step:
    make(A, dt) returns step(Y) for rows Y (B, n), weights A (B, r) and a
    time step dt, a scalar or one per row (B,).  step(Y) gives the bits of
    flows._rk4_step over the weighted kernel (a nan's sign aside: which of
    two nan operands numpy returns depends on the array's length), column
    by column in the same expressions.  A column that reads no coordinate has k1 = k2 = k3 = k4,
    so make computes it, its stage offsets h·v and dt·v and its increment
    once; the four stages evaluate only the columns that read the point.
    Stage points are written into one (B, n) array, so every coordinate
    column that the expressions read is laid out as in the weighted kernel.

    With form="rates" the fields give the grid oracle's move rates:
    make(dirs, factors, res) returns rates(P) for control directions dirs
    (D, r), finite scale factors (r,) and cell sizes res (n,), and rates(P)
    gives max_i |sum_j dirs[:, j] * (W_ji(P) * factors[j])| / res_i (D, F)
    for points P (F, n), with the bits of that loop over the point kernel:
    each term dirs[:, j] * (W_ji * factors[j]), summed left to right in j,
    the first term alone, then abs, / res_i, and np.maximum left to right
    in i.  A term whose component is the constant 0 is skipped (it adds a
    signed zero, which abs drops; finite factors keep it from being nan).
    make computes the terms of the constant components, the sum of a
    coordinate's leading run of them, a coordinate whose terms are all
    constant as a (D, 1) rate row, and the leading maximum of such rows; rates(P)
    evaluates only the components that read the point.  Where no rate reads
    it, rates(P) returns make's one read-only (D, 1) row.

    Each distinct subtree (signed zeros kept apart), across all the
    expressions, is one local, computed once in float64: constants are
    bound as np.float64, so constant-only subtrees follow numpy too, and
    domain errors give inf/nan.  The plain kernel ignores numpy's
    floating-point errors itself; the weighted and step forms run inside
    RK4 loops and leave that to their caller, which enters np.errstate
    once per integration rather than once per stage, and so do the rates
    of the rates form, whose make ignores them itself.

    With form="flow" the point kernel's expressions over N = len(exprs)
    state variables drive classical RK4 over unit time: kernel(Y, steps)
    returns the end states (B, N) of the rows Y (B, N) after `steps` steps,
    and every node (B, steps, N), the state after each step.  It gives the
    bits of `steps` calls of flows._rk4_step over the point kernel at
    dt = 1.0 / steps (a nan's sign aside), on Python floats, row by row: on a
    small batch numpy's cost per call is most of a step's time.  The
    constant-only locals are computed once per call in numpy, as the point
    kernel computes them, and the others keep numpy's bits: a zero divisor
    goes to numpy (Python raises), ^2 is a * a (numpy's square), and every
    other power, sin, cos, exp and sqrt run numpy's loop on a one-element
    array.  The flow kernel ignores numpy's floating-point errors itself.

    With form="interval" the kernel (L, H) -> (lo, hi) encloses each
    expression over the boxes [L, H] (..., n): every local is a pair
    (lo, hi) of arrays and every node an interval operation of `_INTERVAL`
    (Moore-Kearfott-Cloud, SIAM 2009), each result but a negation's, which
    is exact, rounded outward by at least one ulp.
    So the point kernel's value at any point of a box lies in its
    enclosure, and an expression that reads each coordinate once, as an
    affine one does, gets its exact range to within a few ulps.  A bound
    that is nan comes back as -inf or inf.

    Each call generates and compiles afresh; `_kernel`, its one caller,
    keeps the kernels."""
    interval = form == "interval"
    env, lines, names = {"np": np, **(_INTERVAL if interval else _NP_FUNCS)}, [], {}
    if form == "flow":
        env.update(_FLOAT_OPS)
    varying = set()  # the locals that read the point

    def floats(*args):  # whether a node over these locals is computed on Python floats
        return form == "flow" and not varying.isdisjoint(args)

    def emit(e):  # -> local name
        code = None
        if isinstance(e, Const):
            key = ("c", repr(e.value))
        elif isinstance(e, Var):
            i = e.index - 1
            key, code = ("x", e.index), f"(L[..., {i}], H[..., {i}])" if interval else f"P[..., {i}]"
        elif isinstance(e, Unary):
            a = emit(e.arg)
            key, code = (e.op, a), f"{e.op}({a})" if interval or e.op != "neg" else f"-{a}"
            if floats(a) and e.op != "neg":
                code = f"_{e.op}({a})"
        elif isinstance(e, Binary):
            a, b = emit(e.lhs), emit(e.rhs)
            key, code = (e.op, a, b), f"{_INTERVAL_OPS[e.op]}({a}, {b})" if interval else f"{a} {e.op} {b}"
            known = isinstance(e.rhs, Const) and e.rhs.value != 0.0  # a divisor that is not zero
            if floats(a, b) and e.op == "/" and not known:  # Python raises on a zero divisor
                code = f"({a} / {b} if {b} else _div({a}, {b}))"
        elif isinstance(e, Power):
            a = emit(e.base)
            key = ("^", a, e.exponent)
            code = f"power({a}, {e.exponent!r})" if interval else f"{a} ** ({e.exponent!r})"
            if floats(a):  # numpy squares by a * a
                code = f"{a} * {a}" if e.exponent == 2 else f"_power({a}, {e.exponent!r})"
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if key not in names:
            names[key] = name = f"x{e.index}" if isinstance(e, Var) else f"t{len(names)}"
            if code is None:
                env[name] = (np.float64(e.value),) * 2 if interval else np.float64(e.value)
            else:
                if isinstance(e, Var) or varying.intersection(key[1:]):
                    varying.add(name)
                lines.append((name, code))
        return names[key]

    def velocity(comps):  # -> the code of sum_j a_j * comps[j], and whether it reads the point
        used = [(j, None if _is_const(e, 1.0) else emit(e)) for j, e in enumerate(comps) if not _is_const(e, 0.0)]
        terms = [f"a{j}" if t is None else f"a{j} * {t}" for j, t in used]
        acc = terms[0] if terms else "0.0"
        for term in terms[1:]:
            acc = f"{term} + ({acc})"
        return acc, any(t in varying for _, t in used)

    if form == "step":
        src = _step_source(len(exprs), [velocity(comps) for comps in zip(*exprs)], lines, varying)
    elif form == "rates":
        cols = [[(j, emit(e)) for j, e in enumerate(comps) if not _is_const(e, 0.0)] for comps in zip(*exprs)]
        src = _rates_source(len(exprs), cols, lines, varying)
    elif form == "flow":
        outs = [emit(e) for e in exprs]
        src = _flow_source(outs, lines, varying, [name for name in names.values() if name not in varying])
    elif interval:
        for k, e in enumerate(exprs):
            lines.append((f"lo[..., {k}], hi[..., {k}]", emit(e)))
        src = ("def kernel(L, H):\n    lo, hi = (np.empty(L.shape[:-1] + ({0},)) for _ in range(2))\n"
               '    with np.errstate(all="ignore"):\n').format(len(exprs))
        src += "".join(f"        {target} = {code}\n" for target, code in lines)
        src += "    return np.where(np.isnan(lo), -np.inf, lo), np.where(np.isnan(hi), np.inf, hi)"
    else:
        if form == "point":
            for k, e in enumerate(exprs):
                lines.append((f"out[..., {k}]", emit(e)))
            head, width, tail = "P", len(exprs), []
            guard, pad = '    with np.errstate(all="ignore"):\n', " " * 8
        else:
            lines += [(f"a{j}", f"A[..., {j}]") for j in range(len(exprs))]
            for k, comps in enumerate(zip(*exprs)):
                lines.append((f"out[..., {k}]", velocity(comps)[0]))
            head, width = "P, A", len(exprs[0])
            tail = ["out += 0.0"]  # einsum's +0.0 start: a sum of -0.0 terms is +0.0
            guard, pad = "", " " * 4
        body = [f"{target} = {code}" for target, code in lines] + tail
        src = (f"def kernel({head}):\n    out = np.empty(P.shape[:-1] + ({width},))\n"
               + guard + "".join(f"{pad}{line}\n" for line in body) + "    return out")
    exec(compile(src, "<ccgeo kernel>", "exec"), env)
    return env["kernel"]


def _step_source(r: int, cols, lines, varying) -> str:
    """Source of the RK4 step factory make(A, dt) -> step(Y) of r fields.

    cols holds per velocity column its weighted sum (code) and whether it
    reads the point; lines the value-numbered locals (name, code) and
    varying the names of those that read it.  The stage arithmetic is
    flows._rk4_step's: h = 0.5 * dt, the stage points y + h·k1, y + h·k2
    and y + dt·k3, and y + (dt / 6.0)·(k1 + 2.0·k2 + 2.0·k3 + k4).
    """
    fixed = [k for k, (_, reads) in enumerate(cols) if not reads]
    moving = [k for k, (_, reads) in enumerate(cols) if reads]
    coords = sorted(int(name[1:]) - 1 for name, _ in lines if name.startswith("x"))  # the columns read
    make = [f"a{j} = A[..., {j}]" for j in range(r)]
    make += [f"{name} = {code}" for name, code in lines if name not in varying]
    make += ["h = 0.5 * dt", "w = dt / 6.0"]
    for k in fixed:
        make.append(f"v{k} = ({cols[k][0]}) + 0.0")
        if k in coords:
            make += [f"hv{k} = h * v{k}", f"dv{k} = dt * v{k}"]
        make.append(f"i{k} = w * (v{k} + 2.0 * v{k} + 2.0 * v{k} + v{k})")
    step = [f"y{k} = Y[..., {k}]" for k in range(len(cols))]
    if moving:
        body = [f"{name} = {code}" for name, code in lines if name in varying and not name.startswith("x")]

        def stage(s, offset):  # stage s at the point y + offset(c) in the read columns, inline
            point = [f"np.add(y{c}, {offset(c)}, out=P[..., {c}])" for c in coords if offset(c)]
            at = [f"x{c + 1} = " + (f"y{c}" if s == 1 else f"P[..., {c}]") for c in coords]
            return point + at + body + [f"k{s}_{k} = ({cols[k][0]}) + 0.0" for k in moving]

        step += ["P = np.empty(Y.shape)"] + stage(1, lambda c: None)
        step += stage(2, lambda c: f"hv{c}" if c in fixed else f"h * k1_{c}")
        if set(coords) & set(moving):
            step += stage(3, lambda c: None if c in fixed else f"h * k2_{c}")  # fixed columns stay at y + hv
        else:  # the stage-3 point is the stage-2 point in every column read
            step += [f"k3_{k} = k2_{k}" for k in moving]
        step += stage(4, lambda c: f"dv{c}" if c in fixed else f"dt * k3_{c}")
    step.append("out = np.empty(Y.shape)")
    step += [f"np.add(y{k}, i{k}, out=out[..., {k}])" for k in fixed]
    step += [f"np.add(y{k}, w * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k}), out=out[..., {k}])" for k in moving]
    make += ["def step(Y):"] + [f"    {line}" for line in step] + ["    return out", "return step"]
    return "def kernel(A, dt):\n" + "".join(f"    {line}\n" for line in make)


def _rates_source(r: int, cols, lines, varying) -> str:
    """Source of the move-rates factory make(dirs, factors, res) -> rates(P) of r
    fields, as `_compile`'s docstring gives it: make computes all that reads no
    coordinate, rates(P) the rest.

    cols holds per coordinate i the (j, local) of each component W_ji that is
    not the constant 0, in j order; lines the value-numbered locals (name,
    code) and varying the names of those that read the point.
    """
    make = [f"d{j} = dirs[:, {j}:{j + 1}]" for j in range(r)] + [f"f{j} = factors[{j}]" for j in range(r)]
    make += [f"{name} = {code}" for name, code in lines if name not in varying]
    body = [f"{name} = {code}" for name, code in lines if name in varying]
    top, fixed = None, True  # the running maximum's local, and whether make computes it
    for i, terms in enumerate(cols):
        sums = [(f"d{j} * ({t} * f{j})", t in varying) for j, t in terms]
        lead = next((k for k, (_, reads) in enumerate(sums) if reads), len(sums))  # the leading constant terms
        make += [f"s{i} = {s}" if k == 0 else f"s{i} = s{i} + {s}" for k, (s, _) in enumerate(sums[:lead])]
        make.append(f"q{i} = float(res[{i}])")
        row = lead == len(sums)
        if row:
            make.append(f"v{i} = np.abs(s{i}) / q{i}" if sums else f"v{i} = np.zeros((len(dirs), 1))")
        else:
            body.append(f"v{i} = " + (f"s{i} + " if lead else "") + sums[lead][0])
            for k, (s, reads) in enumerate(sums[lead + 1 :], lead + 1):
                if not reads:
                    make.append(f"k{i}_{k} = {s}")
                body.append(f"v{i} += " + (s if reads else f"k{i}_{k}"))
            body += [f"np.abs(v{i}, out=v{i})", f"v{i} /= q{i}"]
        if top is not None:  # left to right in i, in make while every rate so far is a row
            into = f"v{i}" if fixed else top
            (make if fixed and row else body).append(f"np.maximum({top}, v{i}, out={into})")
        if top is None or fixed:
            top, fixed = f"v{i}", row
    if fixed:
        make.append(f"{top}.setflags(write=False)")
    src = ["def kernel(dirs, factors, res):", '    with np.errstate(all="ignore"):']
    src += [f"        {line}" for line in make] + ["    def rates(P):"]
    src += [f"        {line}" for line in body] + [f"        return {top}", "    return rates"]
    return "".join(f"{line}\n" for line in src)


def _flow_source(outs, lines, varying, fixed) -> str:
    """Source of the flow kernel(Y, steps) -> (ends, nodes) of the expressions whose
    locals are outs, as `_compile`'s docstring gives it.

    lines holds the value-numbered locals (name, code), varying the names of
    those that read the point, whose code is on Python floats, and fixed the
    rest, constants included, which constants() computes in numpy as the point
    kernel does and returns as Python floats.  The stage arithmetic is
    flows._rk4_step's at dt = 1.0 / steps, in the read columns of the stage
    points.  Each stage's locals carry its number, so a stage's velocity is
    its locals, not a copy; a column that reads no coordinate has its offsets
    h·v and dt·v and its increment computed once per call.
    """
    width = len(outs)
    coords = sorted(int(name[1:]) - 1 for name, _ in lines if name.startswith("x"))  # the columns read
    body = [(name, code) for name, code in lines if name in varying and not name.startswith("x")]
    constant = [k for k in range(width) if outs[k] not in varying]
    head = ["h = 0.5 * dt", "w = dt / 6.0"]
    for k in constant:
        head += [f"hv{k} = h * {outs[k]}", f"dtv{k} = dt * {outs[k]}"] if k in coords else []
        head.append(f"i{k} = w * ({outs[k]} + 2.0 * {outs[k]} + 2.0 * {outs[k]} + {outs[k]})")
    step, ks = [], []  # the loop's lines, and each stage's velocity by column
    for s, offset in enumerate((None, "h", "h", "dt"), 1):
        at = {f"x{c + 1}": f"y{c}" for c in coords} if s == 1 else {}
        for c in coords if s > 1 else ():
            x = f"x{c + 1}_{s}"
            if c not in constant:
                step.append(f"{x} = y{c} + {offset} * {ks[-1][c]}")
            elif s != 3:
                step.append(f"{x} = y{c} + {offset}v{c}")
            else:  # y + h·v, as at stage 2
                x = f"x{c + 1}_2"
            at[f"x{c + 1}"] = x
        for name, code in body:
            at[name] = f"{name}_{s}"
            step.append(f"{name}_{s} = " + re.sub(r"\b[tx]\d+\b", lambda m: at.get(m[0], m[0]), code))
        ks.append([at.get(out, out) for out in outs])
    ends = [f"y{k} + i{k}" if k in constant else f"y{k} + w * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})"
            for k, (k1, k2, k3, k4) in enumerate(zip(*ks))]
    ys = "".join(f"y{k}, " for k in range(width))
    step += [f"{ys}= " + "".join(f"{end}, " for end in ends), f"nodes += ({ys})"]  # at once: a k1 may be a y
    src = ["def constants():", '    with np.errstate(all="ignore"):']
    src += [f"        {name} = {code}" for name, code in lines if name not in varying]
    src += ["        return (" + "".join(f"float({name}), " for name in fixed) + ")", "def kernel(Y, steps):"]
    src += ["    " + "".join(f"{name}, " for name in fixed) + "= constants()"] if fixed else []
    src += ["    dt = 1.0 / steps"] + [f"    {line}" for line in head]
    src += ["    nodes = []", '    with np.errstate(all="ignore"):', f"        for {ys}in Y.tolist():",
            "            for _ in range(steps):"]
    src += [f"                {line}" for line in step]
    src += [f"    nodes = np.array(nodes, dtype=float).reshape(len(Y), steps, {width})",
            "    return nodes[:, -1].copy(), nodes"]
    return "".join(f"{line}\n" for line in src)


def _on_one(f):
    """f on a one-element array, back as a Python float: the bits of f's array loop."""
    return lambda a, *rest: float(f(np.array([a]), *rest)[0])


#: the flow kernel's operations on Python floats that Python's own would not
#: give numpy's bits for: a zero divisor (Python raises), powers but squares,
#: and sin, cos, exp and sqrt, each through numpy's loop on one element
_FLOAT_OPS = {"_div": _on_one(operator.truediv), "_power": _on_one(operator.pow)}
_FLOAT_OPS.update({f"_{name}": _on_one(f) for name, f in _NP_FUNCS.items()})


# -- interval operations --------------------------------------------------
# Each takes and returns (lo, hi) pairs of float64 arrays or scalars.  The
# arithmetic is correctly rounded, so one ulp outward encloses it; numpy's
# sin, cos, exp and power carry no such bound, so they widen by 16 ulps of
# each bound's magnitude and one more ulp.  A nan bound stays nan, and the
# kernel returns it as an infinite one.


def _out(lo, hi, ulps: int):
    """[lo, hi] rounded outward by `ulps` ulps of each bound's magnitude and one more ulp."""
    if ulps:
        lo, hi = lo - np.abs(lo) * (ulps * 2.0**-52), hi + np.abs(hi) * (ulps * 2.0**-52)
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _hull(vals, ulps: int):
    """The outward-rounded interval from the least to the greatest of vals."""
    return _out(functools.reduce(np.minimum, vals), functools.reduce(np.maximum, vals), ulps)


def _iadd(a, b):
    return _out(a[0] + b[0], a[1] + b[1], 0)


def _isub(a, b):
    return _out(a[0] - b[1], a[1] - b[0], 0)


def _imul(a, b):
    return _hull((a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]), 0)


def _idiv(a, b):
    """a / b; a divisor interval that holds 0 gives [-inf, inf]."""
    lo, hi = _hull((a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]), 0)
    zero = (b[0] <= 0.0) & (b[1] >= 0.0)
    return np.where(zero, -np.inf, lo), np.where(zero, np.inf, hi)


def _ineg(a):
    return -a[1], -a[0]


def _ipower(a, k: int):
    """a ** k for an integer k, as numpy computes it: a reciprocal of a ** |k| for k < 0."""
    lo, hi = a[0] ** abs(k), a[1] ** abs(k)
    if k % 2:  # odd: monotone
        p = _out(lo, hi, 16)
    else:  # even: |a| ** k, least 0 when a holds 0
        p = _out(np.where(a[0] > 0.0, lo, np.where(a[1] < 0.0, hi, 0.0)), np.maximum(lo, hi), 16)
        p = np.maximum(p[0], 0.0), p[1]
    return p if k > 0 else _idiv((np.float64(1.0),) * 2, p)


def _iexp(a):
    lo, hi = _out(np.exp(a[0]), np.exp(a[1]), 16)
    return np.maximum(lo, 0.0), hi


def _isqrt(a):
    """sqrt over the part of a at or above 0 (nan when a lies below 0)."""
    lo, hi = _out(np.sqrt(np.maximum(a[0], 0.0)), np.sqrt(a[1]), 16)
    return np.maximum(lo, 0.0), hi


def _periodic(f, top: float, a):
    """f(a) for f = sin or cos, which peaks at top + 2 pi k and bottoms at top + pi + 2 pi k.
    An extremum within a relative 1e-12 of the interval counts as inside it, so
    an interval of width 2 pi or more gives [-1, 1]."""
    lo, hi = _hull((f(a[0]), f(a[1])), 16)
    slack = 1e-12 * (1.0 + np.maximum(np.abs(a[0]), np.abs(a[1])))
    for at, bound in ((top, 1.0), (top + math.pi, -1.0)):
        k = np.floor((a[1] + slack - at) / (2.0 * math.pi))  # the last extremum at or below the interval's top
        inside = at + 2.0 * math.pi * k >= a[0] - slack
        lo, hi = (np.where(inside, bound, lo), hi) if bound < 0 else (lo, np.where(inside, bound, hi))
    return np.maximum(lo, -1.0), np.minimum(hi, 1.0)


_INTERVAL_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_INTERVAL = {
    "add": _iadd, "sub": _isub, "mul": _imul, "div": _idiv, "neg": _ineg, "power": _ipower,
    "exp": _iexp, "sqrt": _isqrt,
    "sin": functools.partial(_periodic, np.sin, 0.5 * math.pi),
    "cos": functools.partial(_periodic, np.cos, 0.0),
}

#: compiled kernels kept per process, keyed on the form and the fields as printed
_KERNEL_CACHE_SIZE = 1024
_KERNELS: dict[tuple[str, tuple[str, ...]], object] = {}


# -- differentiation and substitution -----------------------------------


def _diff(e: Expr, i: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Unary):
        da = _diff(e.arg, i)
        if e.op == "neg":
            return neg(da)
        if e.op == "sin":
            return mul(func("cos", e.arg), da)
        if e.op == "cos":
            return neg(mul(func("sin", e.arg), da))
        if e.op == "exp":
            return mul(e, da)
        # sqrt
        return div(da, mul(Const(2.0), e))
    if isinstance(e, Binary):
        da, db = _diff(e.lhs, i), _diff(e.rhs, i)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.rhs), mul(e.lhs, db))
        return div(sub(mul(da, e.rhs), mul(e.lhs, db)), pow_int(e.rhs, 2))
    if isinstance(e, Power):
        db = _diff(e.base, i)
        return mul(mul(Const(float(e.exponent)), pow_int(e.base, e.exponent - 1)), db)
    raise TypeError(f"not an expression node: {e!r}")


def _subst(e: Expr, i: int, value: float) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return Const(value) if e.index == i else e
    if isinstance(e, Unary):
        a = _subst(e.arg, i, value)
        return neg(a) if e.op == "neg" else func(e.op, a)
    if isinstance(e, Binary):
        a, b = _subst(e.lhs, i, value), _subst(e.rhs, i, value)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](a, b)
    if isinstance(e, Power):
        return pow_int(_subst(e.base, i, value), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _max_var(e: Expr) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return _max_var(e.arg)
    if isinstance(e, Binary):
        return max(_max_var(e.lhs), _max_var(e.rhs))
    if isinstance(e, Power):
        return _max_var(e.base)
    return 0


# -- printing ------------------------------------------------------------


def to_string(e: Expr) -> str:
    """Render an expression; parse_expr(to_string(e)) is structurally e."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{_atom(e.arg)})"
        return f"{e.op}({to_string(e.arg)})"
    if isinstance(e, Binary):
        return f"({to_string(e.lhs)}{e.op}{to_string(e.rhs)})"
    if isinstance(e, Power):
        return f"{_atom(e.base)}^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")


def _atom(e: Expr) -> str:
    s = to_string(e)
    if isinstance(e, (Var, Unary, Binary)) and not s.startswith("("):
        # function call or variable: already an atom
        return s
    if isinstance(e, Const) and e.value >= 0:
        return s
    return s if s.startswith("(") else f"({s})"


# -- parser --------------------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"[+-]?\d+")


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            e = Binary(op, e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            e = Binary(op, e, rhs)
        return e

    def factor(self) -> Expr:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        e = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                raise self.error("expected integer exponent")
            self.pos = m.end()
            e = Power(e, int(m.group())) if int(m.group()) not in (0, 1) else pow_int(e, int(m.group()))
        if negate:
            # fold constants so that "-3" parses to Const(-3.0)
            e = _C(-e.value) if isinstance(e, Const) else Unary("neg", e)
        return e

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            m = _NUM_RE.match(self.text, self.pos)
            if not m:
                raise self.error("malformed number")
            self.pos = m.end()
            return Const(float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected number, variable, function, or '('")
        name = m.group()
        if name in UNARY_FUNCS:
            self.pos = m.end()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return Unary(name, e)
        if re.fullmatch(r"x[1-9]", name):
            idx = int(name[1:])
            if idx > self.n:
                raise self.error(f"unknown variable {name!r} in dimension {self.n}")
            self.pos = m.end()
            return Var(idx)
        raise self.error(f"unknown identifier {name!r}")


def parse_expr(text: str, n: int) -> Expr:
    """Parse an expression string over variables x1..xn.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/')
    factor)*; factor := ['-'] atom ['^' int]; atom := number | ident |
    func '(' expr ')' | '(' expr ')' with func in {sin, cos, exp, sqrt}.
    """
    if not 1 <= n <= 9:
        raise ValueError("dimension must be in 1..9")
    return _Parser(text, n).parse()


# -- vector fields -------------------------------------------------------


@dataclass(frozen=True)
class VField:
    """A vector field in coordinates: components of sum_k a_k(x) d/dx_k."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        n = len(self.components)
        for c in self.components:
            if _max_var(c) > n:
                raise ValueError("component uses a variable beyond the field dimension")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def nth(self) -> Expr:
        """Last component, used for tangency tests against {x_n = 0}."""
        return self.components[-1]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        return _kernel("point", (self,))(np.asarray(points, dtype=float))

    @cached_property
    def _text(self) -> str:  # str(self), kept: unlike eq and hash, it tells Const(0.0) from Const(-0.0)
        return str(self)

    def is_zero(self) -> bool:
        return all(_is_const(c, 0.0) for c in self.components)

    def scaled(self, factor: float) -> "VField":
        f = Const(float(factor))
        return VField(tuple(mul(f, c) for c in self.components))

    def negated(self) -> "VField":
        return VField(tuple(neg(c) for c in self.components))

    def __str__(self) -> str:
        return ", ".join(to_string(c) for c in self.components)


def parse_vfield(text: str, n: int) -> VField:
    """Parse comma-separated component expressions into a VField."""
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"expected {n} components, got {len(parts)}", 0)
    return VField(tuple(parse_expr(p.strip(), n) for p in parts))


def lie_bracket(x: VField, y: VField) -> VField:
    """Exact symbolic Lie bracket [X, Y]^k = sum_i (X^i d_i Y^k - Y^i d_i X^k)."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    n = x.dim
    comps = []
    for k in range(n):
        acc: Expr = ZERO
        for i in range(1, n + 1):
            acc = add(acc, mul(x.components[i - 1], _diff(y.components[k], i)))
            acc = sub(acc, mul(y.components[i - 1], _diff(x.components[k], i)))
        comps.append(acc)
    return VField(tuple(comps))
