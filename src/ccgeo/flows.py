"""ODE flow maps of vector fields and composite commutator flows.

All integration is fixed-step RK4 so that repeated runs produce
byte-identical output; the error budget of the toolkit is dominated by
sampling, not by the integrator.  Trajectories that leave the guarded
chart (the domain box inflated by 25%) abort with FlowExcursionError.
`rk4_flow` and the scaling maps step with `_rk4_step` over a velocity
such as `_control_velocity`, the weighted kernel of a field tuple from
`symexpr._kernel`, so an RK4 stage makes one call, not one per field
plus a stack and a contraction.  The control integrator and the grid
oracle in `ccmetric` step with `_control_step`, the same arithmetic as
the tuple's step kernel, which computes the velocity columns that read
no coordinate once per control rather than at every stage; each caller
keeps its own guard.  `_reach_box` is the one owner of the reach box:
from the interval kernel of a field tuple it proves the box around a
point that holds every path of time at most 1, so the oracle runs a
guard only where that box does not settle it.  `rk4_flow` keeps numpy on
its fast paths, bit for bit: a shared flow time steps with one
Python-float dt rather than a (B, 1) column, and the guard box is tested
once per step against full-row copies of its centre and guarded half
widths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symexpr
from .hormander import Box
from .symexpr import VField

__all__ = [
    "FlowConfig",
    "FlowExcursionError",
    "BracketWordFlow",
    "rk4_flow",
    "exp_flow",
    "commutator_flow_C",
    "flow_D",
    "flow_E",
    "map_F",
]

#: guarded integration domain: the chart box inflated by this factor
GUARD_FACTOR = 1.25


class FlowExcursionError(RuntimeError):
    """Trajectory left the guarded domain or became non-finite."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step RK4 configuration with a guarded integration domain."""

    box: Box
    steps_per_unit: int = 256

    def __post_init__(self):
        if self.steps_per_unit < 16:
            raise ValueError("steps_per_unit must be >= 16")


def _rk4_step(velocity, y: np.ndarray, dt) -> np.ndarray:
    """One classical RK4 step of y' = velocity(y); dt is a scalar, (B, 1) or (B, n)."""
    k1 = velocity(y)
    k2 = velocity(y + 0.5 * dt * k1)
    k3 = velocity(y + 0.5 * dt * k2)
    k4 = velocity(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _control_velocity(vfs, a: np.ndarray):
    """Velocity sum_j a[:, j] W_j(y) of per-row control coefficients a (B, r).

    The kernel ignores no floating-point error itself: call it under
    np.errstate(all="ignore"), as the integrators do once per call."""
    kernel = symexpr._kernel("weighted", vfs)
    return lambda pts: kernel(pts, a)


def _control_step(vfs, a: np.ndarray, dt):
    """The RK4 step Y -> Y' of y' = sum_j a[:, j] W_j(y) over dt, a scalar or one per row (B,).

    Bit for bit _rk4_step(_control_velocity(vfs, a), Y, dt) (dt[:, None]
    for one per row) but for the sign of a nan, which numpy does not fix,
    with every velocity column that reads no coordinate computed here,
    once, rather than at each stage of each step.  Call the step, as this,
    under np.errstate(all="ignore")."""
    return symexpr._kernel("step", vfs)(a, dt)


def _reach_box(sys, x, delta: float):
    """Proven speeds S and half widths `reach` of the box B = x +- reach that
    every path of time at most 1 from x keeps to, or None when nothing is proven.

    S_i >= |sum_j u_j delta^d_j W_ji| for all |u| <= 1 (Cauchy-Schwarz on the
    enclosures of the fields, their tuple's interval kernel) over B.  A guess
    G, the enclosure over the guard box, gives reach = G (1 + 1e-9) + 1e-9,
    and the enclosure S over B is proven when S <= G in every coordinate: a
    path of time t <= 1 whose speeds keep within S stays in x +- t S, inside
    B, so its speeds do keep within S, and every RK4 stage of every control
    step stays in B.  The margins cover the rounding of the steps and of the
    costs, which may pass 1 by an ulp.  An S that is not finite, or exceeds
    G, proves nothing.
    """
    factors = np.array([delta**d for d in sys.degrees])[:, None]
    bounds = symexpr._kernel("interval", sys.vfields())

    def speeds(lo, hi):
        W_lo, W_hi = (w.reshape(sys.r, -1) for w in bounds(lo, hi))
        with np.errstate(all="ignore"):  # 0 * inf is nan, which is not finite
            return np.sqrt(np.square(np.maximum(np.abs(W_lo), np.abs(W_hi)) * factors).sum(axis=0))

    x = np.asarray(x, dtype=float)
    hw = np.asarray(sys.box.half_widths) * GUARD_FACTOR + 1e-9
    c = np.asarray(sys.box.center, dtype=float)
    guess = speeds(c - hw, c + hw)
    reach = guess * (1.0 + 1e-9) + 1e-9
    S = speeds(x - reach, x + reach)
    return (S * (1.0 + 1e-9), reach) if np.isfinite(S).all() and (S <= guess).all() else None


def rk4_flow(velocity, p0: np.ndarray, times, cfg: FlowConfig) -> np.ndarray:
    """Integrate y' = velocity(y) from rows of p0 over per-row times.

    velocity maps an array of shape (B, n) to velocities of the same
    shape; `times` is a scalar or a length-B array of finite times.  Every
    row takes ceil(max |times| * cfg.steps_per_unit) steps.  A scalar time
    steps with a Python-float dt, so each RK4 stage scales whole rows by
    a scalar; per-row times step with a (B, 1) column.  Raises ValueError
    for a time that is not finite and FlowExcursionError if any row
    leaves the guarded box.
    """
    y = np.array(p0, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    t = np.broadcast_to(np.asarray(times, dtype=float), (len(y),)).astype(float)
    tmax = float(np.abs(t).max(initial=0.0))  # an empty batch returns unchanged
    if not math.isfinite(tmax):
        raise ValueError(f"flow times must be finite, got time = {float(t[~np.isfinite(t)][0])}")
    if tmax == 0.0:
        return y[0].copy() if single else y
    n_steps = max(1, math.ceil(tmax * cfg.steps_per_unit))
    # the same bits either way: float64 division, and 0.5 * dt before the rows
    dt = float(t[0]) / n_steps if np.ndim(times) == 0 else (t / n_steps)[:, None]
    # Box.contains at GUARD_FACTOR from one |y - c| per step; a nan or inf coordinate fails it.
    # c and the guard come as full rows (numpy is slow to broadcast a short axis), and
    # counting beats all()
    guard = np.asarray(cfg.box.half_widths) * GUARD_FACTOR + 1e-9
    c_rows = np.asarray(cfg.box.center)[None].repeat(len(y), 0)
    guard_rows = guard[None].repeat(len(y), 0)
    # one errstate per call: the fused velocity kernel enters none itself
    with np.errstate(all="ignore"):
        for _ in range(n_steps):
            y = _rk4_step(velocity, y, dt)
            inside = np.abs(y - c_rows) <= guard_rows
            if np.count_nonzero(inside) < inside.size:
                bad = int(np.argmin(inside.all(axis=-1)))
                raise FlowExcursionError(f"trajectory left guarded domain at {tuple(y[bad].tolist())}", y[bad])
    return y[0] if single else y


def exp_flow(X: VField, t: float, p, cfg: FlowConfig) -> np.ndarray:
    """Endpoint of the flow e^{tX} p."""
    return rk4_flow(X.eval_many, np.asarray(p, dtype=float), t, cfg)


def commutator_flow_C(l: int, t: float, S, p, cfg: FlowConfig) -> np.ndarray:
    """Composite flow whose leading behavior is the iterated bracket.

    C_1(t, S1) = e^{t S1} and recursively
    C_l(t) = e^{-t S_l} o C_{l-1}^{-1} o e^{t S_l} o C_{l-1},
    so that C_l(t) x = x + t^l [S_1,[S_2,[...,[S_{l-1},S_l]]]](x) + O(t^{l+1}).
    """
    S = list(S)
    if l < 1 or len(S) < l:
        raise ValueError("need l >= 1 fields")
    return _apply_C(l, t, S, np.asarray(p, dtype=float), cfg)


def _apply_C(l: int, t: float, S, p: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    if l == 1:
        return exp_flow(S[0], t, p, cfg)
    q = _apply_C(l - 1, t, S, p, cfg)
    q = exp_flow(S[l - 1], t, q, cfg)
    q = _apply_C_inv(l - 1, t, S, q, cfg)
    return exp_flow(S[l - 1], -t, q, cfg)


def _apply_C_inv(l: int, t: float, S, p: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    if l == 1:
        return exp_flow(S[0], -t, p, cfg)
    q = exp_flow(S[l - 1], t, p, cfg)
    q = _apply_C(l - 1, t, S, q, cfg)
    q = exp_flow(S[l - 1], -t, q, cfg)
    return _apply_C_inv(l - 1, t, S, q, cfg)


@dataclass(frozen=True)
class BracketWordFlow:
    """A bracket word over an extended generator list with flow machinery.

    `generators[0]` is the distinguished transversal field; `word` indexes
    into `generators` and `target` is the iterated bracket
    [g_{w_1},[g_{w_2},[...]]].  The sign-reversed flow variant flips the
    generator at `flip_pos`, which must not be the distinguished one.
    """

    generators: tuple[VField, ...]
    word: tuple[int, ...]
    target: VField
    flip_pos: int

    @property
    def k(self) -> int:
        return len(self.word)

    @classmethod
    def make(cls, generators, word, flip_pos: int | None = None) -> "BracketWordFlow":
        generators = tuple(generators)
        word = tuple(int(i) for i in word)
        if not word:
            raise ValueError("empty word")
        f = generators[word[-1]]
        for j in reversed(word[:-1]):
            f = generators[j].bracket(f)
        if flip_pos is None:
            nondist = [i for i, g in enumerate(word) if g != 0]
            flip_pos = nondist[0] if nondist else -1
        if flip_pos >= 0 and word[flip_pos] == 0:
            raise ValueError("cannot flip the distinguished generator")
        return cls(generators, word, f, flip_pos)


def flow_D(bwf: BracketWordFlow, sign: int, t: float, p, cfg: FlowConfig) -> np.ndarray:
    """D^+(t) = C_k(t, g_{w_1}, ..., g_{w_k}); D^- flips one non-distinguished slot.

    Leading behavior: D^{+/-}(t) p = p +/- t^k * target(p) + O(t^{k+1}).
    """
    if t < 0:
        raise ValueError("flow_D takes t >= 0; use flow_E for signed arguments")
    fields = [bwf.generators[i] for i in bwf.word]
    if sign < 0:
        if bwf.flip_pos < 0:
            raise ValueError("word has no non-distinguished generator to flip")
        fields[bwf.flip_pos] = fields[bwf.flip_pos].negated()
    return commutator_flow_C(bwf.k, t, fields, p, cfg)


def flow_E(bwf: BracketWordFlow, t: float, p, cfg: FlowConfig) -> np.ndarray:
    """C^1 reparametrization with d/dt|_0 E(t) p = target(p)."""
    if t == 0.0:
        return np.asarray(p, dtype=float).copy()
    return flow_D(bwf, 1 if t > 0 else -1, abs(t) ** (1.0 / bwf.k), p, cfg)


def map_F(y, basis, t, cfg: FlowConfig) -> np.ndarray:
    """F_y(t) = e^{t_1 g_0} E_2(t_2) ... E_n(t_n) y.

    basis[0] must be the length-one word of the distinguished generator;
    the Jacobian of F_y at t = 0 is the column matrix of the targets.
    """
    basis = list(basis)
    t = np.asarray(t, dtype=float)
    if len(basis) != len(t):
        raise ValueError("need one bracket word per coordinate")
    if basis[0].word != (0,):
        raise ValueError("basis[0] must be the distinguished generator word (0,)")
    p = np.asarray(y, dtype=float)
    for j in range(len(basis) - 1, 0, -1):
        p = flow_E(basis[j], float(t[j]), p, cfg)
    return exp_flow(basis[0].generators[0], float(t[0]), p, cfg)
