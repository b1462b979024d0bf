"""Symbolic scalar expressions and coordinate vector fields.

Expression trees support exact differentiation, scalar and batched numpy
evaluation, and printing that round-trips through the parser.  Vector
fields are n-tuples of expressions (coefficients of the coordinate
derivations) with an exact Lie bracket.

Simplification is limited to constant folding and 0/1 absorption; no
general rewriting is attempted, so brackets stay exact without risking
term explosion.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

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
    "EvalError",
    "parse_expr",
    "parse_vfield",
    "lie_bracket",
    "const",
    "var",
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


class EvalError(ExprError):
    """Domain error during evaluation; `path` locates the failing node."""

    def __init__(self, message: str, path: tuple[int, ...]):
        pretty = "root" + "".join(f".{i}" for i in path)
        super().__init__(f"{message} at node {pretty}")
        self.path = path


UNARY_FUNCS = ("sin", "cos", "exp", "sqrt")

_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_MATH_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


class Expr:
    """Base class for expression nodes.  Nodes are immutable and hashable."""

    def eval(self, point) -> float:
        return _eval_scalar(self, tuple(point), ())

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an array of points with shape (..., n)."""
        points = np.asarray(points, dtype=float)
        out = _eval_array(self, points)
        return np.broadcast_to(out, points.shape[:-1]).copy() if np.ndim(out) == 0 else out

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


def const(v: float) -> Const:
    return _C(v)


def var(i: int) -> Var:
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return Var(i)


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


def _eval_scalar(e: Expr, p: tuple, path: tuple[int, ...]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(p):
            raise EvalError(f"point has arity {len(p)}, expression uses x{e.index}", path)
        return float(p[e.index - 1])
    if isinstance(e, Unary):
        v = _eval_scalar(e.arg, p, path + (0,))
        if e.op == "neg":
            return -v
        if e.op == "sqrt" and v < 0.0:
            raise EvalError(f"sqrt of negative value {v}", path)
        return _MATH_FUNCS[e.op](v)
    if isinstance(e, Binary):
        a = _eval_scalar(e.lhs, p, path + (0,))
        b = _eval_scalar(e.rhs, p, path + (1,))
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero", path)
        return a / b
    if isinstance(e, Power):
        return _eval_scalar(e.base, p, path + (0,)) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def _eval_array(e: Expr, pts: np.ndarray):
    # Vectorized evaluation; domain violations surface as inf/nan and are
    # handled by callers (integration guards, feasibility masks).
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return pts[..., e.index - 1]
    if isinstance(e, Unary):
        v = _eval_array(e.arg, pts)
        if e.op == "neg":
            return -v if np.ndim(v) else -float(v)
        with np.errstate(invalid="ignore"):
            return _NP_FUNCS[e.op](v)
    if isinstance(e, Binary):
        a = _eval_array(e.lhs, pts)
        b = _eval_array(e.rhs, pts)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if isinstance(e, Power):
        return _eval_array(e.base, pts) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


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

    def eval_at(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components], dtype=float)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        cols = [np.broadcast_to(_eval_array(c, points), points.shape[:-1]) for c in self.components]
        return np.stack(cols, axis=-1)

    def is_zero(self) -> bool:
        return all(_is_const(c, 0.0) for c in self.components)

    def scaled(self, factor: float) -> "VField":
        f = Const(float(factor))
        return VField(tuple(mul(f, c) for c in self.components))

    def negated(self) -> "VField":
        return VField(tuple(neg(c) for c in self.components))

    def bracket(self, other: "VField") -> "VField":
        return lie_bracket(self, other)

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
