"""ODE flow maps of vector fields.

All integration is fixed-step RK4 so that repeated runs produce
byte-identical output; the error budget of the toolkit is dominated by
sampling, not by the integrator.  Trajectories that leave the guarded
chart (the domain box inflated by 25%) abort with FlowExcursionError.
`rk4_flow` and the scaling maps step with `_rk4_step` over a velocity
such as `_control_velocity`, the weighted kernel of a field tuple from
`symexpr._kernel`, so an RK4 stage makes one call, not one per field
plus a stack and a contraction.  The geodesic solve in `ccmetric`
integrates with `_unit_flow`, the flow kernel of its equations: the same
steps on Python floats, one call per batch, since on its few dozen rows
numpy's cost per call would be most of a step's time.  The control
integrator and the grid oracle in `ccmetric` step with `_control_step`,
the same arithmetic as the tuple's step kernel, which computes the
velocity columns that read no coordinate once per control rather than at
every stage; each caller keeps its own guard.  `_reach_box` is the one owner of the reach box:
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

__all__ = [
    "FlowConfig",
    "FlowExcursionError",
    "rk4_flow",
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
    steps_per_unit: int

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


def _unit_flow(fields, Y: np.ndarray, steps: int):
    """The end states (B, n) and every node (B, steps, n) of y' = F(y) from the rows
    of Y (B, n) over unit time in `steps` RK4 steps, F the n expressions `fields`.

    symexpr's flow kernel of the expressions: bit for bit `steps` calls of
    _rk4_step over their point kernel at dt = 1.0 / steps but for the sign of
    a nan, on Python floats, as suits the geodesic solve's batches of a few
    dozen rows, where numpy's cost per call is most of a step's time."""
    return symexpr._kernel("flow", fields)(Y, steps)


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

