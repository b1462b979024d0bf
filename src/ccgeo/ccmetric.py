"""Carnot-Caratheodory balls, metrics, and ball volumes.

The unit ball of a weighted system at scale delta is the set of endpoints
of unit-time absolutely continuous paths driven by controls with
sup-in-time L2 norm strictly below one, against the scaled fields
delta^{d_j} W_j.  Two estimators are provided: a brute-force grid-graph
oracle that certifies intervals up to its discretization, and a faster
multi-start direct-shooting estimator cross-checked against the oracle.
Intrinsic mode confines paths to the chart (x_n >= 0 when the chart has
boundary); extrinsic mode allows the whole box.
"""
from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .flows import _control_velocity, _field_stack, _rk4_step
from .hormander import WeightedSystem

__all__ = [
    "ControlPath",
    "ReachSample",
    "MetricEstimate",
    "VolumeEstimate",
    "integrate_control",
    "integrate_controls",
    "sample_controls",
    "sample_ball",
    "reach_graph",
    "oracle_distance",
    "cc_distance",
    "ball_volume",
]

#: absolute slack below {x_n = 0} tolerated by intrinsic feasibility
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant control on [0,1]: K segments of coefficients in R^r."""

    coeffs: np.ndarray  # (K, r)

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("coeffs must have shape (K, r) with K >= 1")
        object.__setattr__(self, "coeffs", a)

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]

    def is_admissible(self) -> bool:
        return float((self.coeffs**2).sum(axis=1).max()) < 1.0


@dataclass(frozen=True)
class MetricEstimate:
    """Interval estimate of the CC distance; upper may be math.inf."""

    lower: float
    upper: float
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower < 0 or (math.isfinite(self.upper) and self.upper < self.lower - 1e-12):
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    def intersects(self, other: "MetricEstimate", slack: float = 0.0) -> bool:
        return self.lower <= other.upper + slack and other.lower <= self.upper + slack

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class ReachSample:
    """Endpoint cloud of sampled admissible controls at one (x, delta)."""

    x: tuple[float, ...]
    delta: float
    endpoints: np.ndarray  # (S, n)
    feasible: np.ndarray  # (S,) bool
    K: int
    n_samples: int
    seed: int
    mode: str

    def feasible_endpoints(self) -> np.ndarray:
        return self.endpoints[self.feasible]

    def to_csv(self, fileobj=None) -> str:
        buf = fileobj or io.StringIO()
        n = self.endpoints.shape[1]
        buf.write(",".join(f"x{i + 1}" for i in range(n)) + ",feasible\n")
        for row, ok in zip(self.endpoints, self.feasible):
            buf.write(",".join(repr(float(v)) for v in row) + f",{int(ok)}\n")
        return buf.getvalue() if fileobj is None else ""


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    hits: int
    box_measure: float

    @property
    def degenerate(self) -> bool:
        return self.hits == 0


def _check_mode(mode: str) -> str:
    if mode not in ("intrinsic", "extrinsic"):
        raise ValueError(f"mode must be intrinsic or extrinsic, got {mode!r}")
    return mode


def integrate_controls(
    sys: WeightedSystem,
    x,
    delta: float,
    coeffs: np.ndarray,
    mode: str = "intrinsic",
    steps_per_segment: int = 8,
    return_violation: bool = False,
):
    """Batched endpoint map for piecewise-constant controls.

    coeffs has shape (S, K, r); returns endpoints (S, n) and per-path
    feasibility (plus the boundary violation depth when requested).  Rows
    that leave the guarded box are frozen in place and marked infeasible
    rather than aborting the batch.
    """
    _check_mode(mode)
    coeffs = np.asarray(coeffs, dtype=float)
    S, K, r = coeffs.shape
    if r != sys.r:
        raise ValueError("control arity does not match the system")
    n = sys.n
    y = np.tile(np.asarray(x, dtype=float), (S, 1))
    factors = np.array([delta**d for d in sys.degrees])
    vfs = sys.vfields()
    box = sys.box
    alive = np.ones(S, dtype=bool)
    inside = np.ones(S, dtype=bool)
    min_xn = np.full(S, y[0, n - 1])
    dt = (1.0 / K) / steps_per_segment

    with np.errstate(all="ignore"):
        for k in range(K):
            vel = _control_velocity(vfs, coeffs[:, k, :] * factors)
            for _ in range(steps_per_segment):
                ynew = _rk4_step(vel, y, dt)
                ok = np.all(np.isfinite(ynew), axis=1) & box.contains(ynew, inflate=1.25)
                ynew[~ok] = y[~ok]
                alive &= ok
                y = ynew
                inside &= ~alive | box.contains(y)
                min_xn = np.minimum(min_xn, np.where(alive, y[:, n - 1], min_xn))

    feasible = alive & inside
    depth = np.zeros(S)
    if mode == "intrinsic" and box.has_boundary:
        feasible &= min_xn >= -BOUNDARY_TOL
        depth = np.maximum(0.0, -min_xn)
    if return_violation:
        return y, feasible, depth
    return y, feasible


def integrate_control(
    sys: WeightedSystem,
    x,
    delta: float,
    path: ControlPath,
    mode: str = "intrinsic",
    steps_per_segment: int = 8,
) -> tuple[np.ndarray, bool]:
    """Endpoint and feasibility of a single admissible control path."""
    if not path.is_admissible():
        raise ValueError("control path is not admissible (sup-norm of |a|^2 must be < 1)")
    ends, feas = integrate_controls(sys, x, delta, path.coeffs[None], mode, steps_per_segment)
    return ends[0], bool(feas[0])


def sample_controls(rng: np.random.Generator, n_samples: int, K: int, r: int) -> np.ndarray:
    """Controls i.i.d. per segment, uniform in the open unit r-ball.

    Directions are uniform on the sphere, magnitudes u^(1/r) with u
    uniform, then a global 0.999 rescale keeps the constraint strict.
    """
    g = rng.standard_normal((n_samples, K, r))
    norms = np.linalg.norm(g, axis=2, keepdims=True)
    norms[norms == 0] = 1.0
    u = rng.random((n_samples, K, 1))
    return 0.999 * g / norms * u ** (1.0 / r)


def sample_ball(
    sys: WeightedSystem,
    x,
    delta: float,
    n_samples: int,
    K: int = 16,
    seed: int = 0,
    mode: str = "intrinsic",
    steps_per_segment: int = 8,
) -> ReachSample:
    """Monte-Carlo endpoint cloud of the ball B(x, delta)."""
    _check_mode(mode)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    coeffs = sample_controls(rng, n_samples, K, sys.r)
    if delta == 0.0:
        ends = np.tile(x, (n_samples, 1))
        feas = np.ones(n_samples, dtype=bool)
    else:
        ends, feas = integrate_controls(sys, x, delta, coeffs, mode, steps_per_segment)
    return ReachSample(tuple(x), float(delta), ends, feas, K, n_samples, seed, mode)


# -- grid-graph oracle ----------------------------------------------------


def _move_directions(r: int) -> np.ndarray:
    """Unit control directions: a half-integer lattice for r <= 2, axes above."""
    if r <= 2:
        vals = (-1.0, -0.5, 0.0, 0.5, 1.0)
        seen: dict[tuple, np.ndarray] = {}
        for combo in itertools.product(vals, repeat=r):
            v = np.array(combo)
            nrm = np.linalg.norm(v)
            if nrm == 0:
                continue
            u = v / nrm
            seen[tuple(np.round(u, 12))] = u
        return np.array(sorted(seen.values(), key=tuple))
    dirs = []
    for j in range(r):
        for s in (1.0, -1.0):
            v = np.zeros(r)
            v[j] = s
            dirs.append(v)
    return np.array(dirs)


class ReachGraph:
    """Shortest-time search over grid cells with short admissible flows.

    Edges flow one control direction at unit budget for the time needed to
    cross one cell; costs are time.  `settled` maps cell keys to (cost,
    representative exact point), giving a reusable membership test for the
    reachable set within the time budget.
    """

    def __init__(
        self,
        sys: WeightedSystem,
        x,
        delta: float,
        mode: str = "intrinsic",
        res=0.02,
        budget: float = 1.0,
        speed_scale: float = 1.0,
        max_cells: int = 2_000_000,
    ):
        self.sys = sys
        self.x0 = np.asarray(x, dtype=float)
        self.delta = float(delta)
        self.mode = _check_mode(mode)
        self.res = np.broadcast_to(np.asarray(res, dtype=float), (sys.n,)).copy()
        self.budget = float(budget)
        self.speed_scale = float(speed_scale)
        self.max_cells = max_cells
        self.factors = np.array([delta**d for d in sys.degrees])
        self.dirs = _move_directions(sys.r)
        self.settled: dict[tuple, tuple[float, np.ndarray]] = {}
        self._ran = False

    def _cell(self, p: np.ndarray) -> tuple:
        return tuple(np.floor((p - self.x0) / self.res + 0.5).astype(int))

    def _feasible_state(self, p: np.ndarray) -> bool:
        if not np.all(np.isfinite(p)):
            return False
        if not self.sys.box.contains(p[None])[0]:
            return False
        if self.mode == "intrinsic" and self.sys.box.has_boundary and p[-1] < -BOUNDARY_TOL:
            return False
        return True

    def run(self, target=None, arrival_tol: float | None = None):
        """Explore within the budget; returns (reached, cost) for a target.

        Label-correcting search with batched rounds: every frontier cell
        expands along every control direction in one vectorized
        integration.  With target None the full reachable cell set is
        computed and (False, inf) returned.
        """
        target = None if target is None else np.asarray(target, dtype=float)
        tol = float(arrival_tol) if arrival_tol is not None else float(np.linalg.norm(self.res))
        vfs = self.sys.vfields()
        factors = self.factors
        box = self.sys.box
        halfspace = self.mode == "intrinsic" and box.has_boundary

        if not self._feasible_state(self.x0):
            raise ValueError("base point is not in the chart")
        if target is not None and np.linalg.norm(self.x0 - target) <= tol:
            return True, 0.0

        dist: dict[tuple, float] = {self._cell(self.x0): 0.0}
        pts: dict[tuple, np.ndarray] = {self._cell(self.x0): self.x0}
        # expansion frontier: (position, cost) arrivals, deduplicated on a
        # half-cell grid; arrivals within one move quantum of their
        # cell's best cost still expand, so well-positioned but slightly
        # costlier through-paths are not starved by near-corner arrivals
        frontier: list[tuple[np.ndarray, float]] = [(self.x0, 0.0)]
        qbest: dict[tuple, float] = {}
        with np.errstate(all="ignore"):
            while frontier:
                P = np.array([p for p, _ in frontier])
                C = np.array([c for _, c in frontier])
                W = _field_stack(vfs, P)  # (F, r, n)
                V = np.einsum("dr,frn->fdn", self.dirs, factors[None, :, None] * W)
                rates = (np.abs(V) / self.res).max(axis=2) * self.speed_scale  # (F, D)
                remaining = (self.budget - C)[:, None]
                live = (rates > 1e-14) & (remaining > 1e-12)
                f_idx, d_idx = np.nonzero(live)
                if len(f_idx) == 0:
                    break
                tau = np.minimum(1.0 / rates[f_idx, d_idx], remaining[f_idx, 0])
                vel = _control_velocity(vfs, self.dirs[d_idx] * factors)
                Y = P[f_idx]
                dt = (tau * self.speed_scale / 2.0)[:, None]
                ok = np.ones(len(Y), dtype=bool)
                for _ in range(2):
                    Y = _rk4_step(vel, Y, dt)
                    ok &= np.all(np.isfinite(Y), axis=1) & box.contains(Y)
                    if halfspace:
                        ok &= Y[:, -1] >= -BOUNDARY_TOL
                costs = C[f_idx] + tau
                ok &= costs <= self.budget + 1e-12
                if target is not None and ok.any():
                    d_target = np.linalg.norm(Y - target, axis=1)
                    hit = ok & (d_target <= tol)
                    if hit.any():
                        return True, float(costs[hit].min())
                keys = np.floor((Y - self.x0) / self.res + 0.5).astype(int)
                qpos = np.floor((Y - self.x0) / self.res * 2.0 + 0.5).astype(int)
                next_frontier: dict[tuple, tuple[np.ndarray, float]] = {}
                for m in np.nonzero(ok)[0]:
                    key = tuple(keys[m])
                    c2 = float(costs[m])
                    cur = dist.get(key)
                    if cur is None or c2 < cur - 1e-12:
                        dist[key] = c2
                        pts[key] = Y[m]
                    elif c2 > cur + tau[m] + 1e-12:
                        continue  # dominated beyond one move quantum
                    fkey = tuple(qpos[m])
                    if c2 >= qbest.get(fkey, math.inf) - 1e-12:
                        continue
                    qbest[fkey] = c2
                    next_frontier[fkey] = (Y[m], c2)
                if len(dist) > self.max_cells:
                    raise RuntimeError("oracle cell budget exceeded; coarsen the resolution")
                frontier = list(next_frontier.values())
        self.settled = {k: (dist[k], pts[k]) for k in dist}
        self._ran = True
        return False, math.inf

    def contains(self, points: np.ndarray, dilate: int = 0) -> np.ndarray:
        """Membership of points in the explored reachable set (cell level).

        With dilate=1 a point also counts when any neighboring cell was
        settled, absorbing quantization at the set's surface.
        """
        points = np.asarray(points, dtype=float)
        keys = np.floor((points - self.x0) / self.res + 0.5).astype(int)
        out = np.fromiter(
            (tuple(k) in self.settled for k in keys), count=len(keys), dtype=bool
        )
        if dilate > 0:
            offsets = list(itertools.product(range(-dilate, dilate + 1), repeat=points.shape[1]))
            for i in np.nonzero(~out)[0]:
                base = keys[i]
                if any(tuple(base + np.array(o)) in self.settled for o in offsets):
                    out[i] = True
        if self.mode == "intrinsic" and self.sys.box.has_boundary:
            out &= points[:, -1] >= -BOUNDARY_TOL
        return out


def reach_graph(
    sys: WeightedSystem,
    x,
    delta: float,
    mode: str = "intrinsic",
    res=0.02,
    budget: float = 1.0,
    speed_scale: float = 1.0,
) -> ReachGraph:
    """Fully explored reachable set of B(x, delta) at cell resolution `res`."""
    g = ReachGraph(sys, x, delta, mode, res, budget, speed_scale)
    g.run(target=None)
    return g


def oracle_distance(
    sys: WeightedSystem,
    x,
    y,
    mode: str = "intrinsic",
    resolution: float = 0.02,
    delta_max: float = 2.0,
    order: int = 2,
) -> MetricEstimate:
    """Brute-force interval estimate of the CC distance.

    The upper bound is the smallest bisection scale at which the grid
    search reaches y (a genuine admissible path up to the arrival cell).
    The lower bound is the largest scale at which the budget-inflated
    (x 1+resolution) search fails, deflated by the worst-case overhead of
    the restricted control-direction set, with `order` bounding the
    bracket depth the target may need.  Interval width is driven to 10%
    relative before deflation.  When y lies within the arrival tolerance
    (0.75 resolution) of x, every scale reaches it at cost 0, so the grid
    cannot resolve the distance and the interval is [0, inf].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    params = {"resolution": resolution, "delta_max": delta_max, "mode": mode, "order": order}
    if np.array_equal(x, y):
        return MetricEstimate(0.0, 0.0, "oracle", params)
    arrival_tol = 0.75 * resolution
    d_eu = float(np.linalg.norm(y - x))
    if d_eu <= arrival_tol:
        return MetricEstimate(0.0, math.inf, "oracle", params)

    def reach(delta, scale=1.0):
        g = ReachGraph(sys, x, delta, mode, res=resolution, budget=1.0, speed_scale=scale)
        ok, _ = g.run(target=y, arrival_tol=arrival_tol)
        return ok

    half_gap = (np.pi / 16.0) if sys.r <= 2 else (np.pi / 4.0)
    # direction restriction costs up to sec(half_gap) on straight runs and,
    # empirically, up to a factor 2 on the delta scale per extra bracket
    # order (loop quantization); the lower certificate is deflated by both
    overhead = (2.0 ** max(0, order - 1)) * (1.0 / math.cos(half_gap))

    hi = max(resolution, d_eu ** (1.0 / sys.max_degree) if d_eu < 1 else d_eu, d_eu)
    hi = min(hi, delta_max)
    while hi <= delta_max and not reach(hi):
        hi *= 2.0
    if hi > delta_max:
        return MetricEstimate(0.0, math.inf, "oracle", params)
    lo = 0.0
    while hi - lo > 0.1 * hi:
        mid = 0.5 * (lo + hi)
        if reach(mid):
            hi = mid
        else:
            lo = mid
    lo_cert = 0.0
    probe = lo
    for _ in range(3):
        if probe <= 0:
            break
        if not reach(probe, scale=1.0 + resolution):
            lo_cert = probe
            break
        probe *= 0.7
    return MetricEstimate(lo_cert / overhead, hi, "oracle", params)


# -- direct shooting ------------------------------------------------------


def _project_controls(cand: np.ndarray) -> np.ndarray:
    seg_norm = np.linalg.norm(cand, axis=-1, keepdims=True)
    over = seg_norm > 0.995
    return np.where(over, cand * (0.995 / np.maximum(seg_norm, 1e-300)), cand)


def _gauss_newton_polish(sys, x, y, delta, mode, ctrl, steps, miss_tol, iters=6, kappa=10.0):
    """Local refinement of a control by damped Gauss-Newton on the endpoint.

    The residual carries the boundary-violation depth as an extra
    component, so the iteration can slide along an active halfspace
    constraint instead of stalling at it; only feasible iterates count as
    results.
    """
    y = np.asarray(y, dtype=float)
    K, r = ctrl.shape
    m = K * r
    p = _project_controls(np.asarray(ctrl, dtype=float)).reshape(-1).copy()

    def full_resid(ends, depth):
        return np.concatenate([ends - y[None, :], kappa * depth[:, None]], axis=1)

    ends, feas, depth = integrate_controls(
        sys, x, delta, p.reshape(1, K, r), mode, steps, return_violation=True
    )
    best_pen = float(np.linalg.norm(full_resid(ends, depth)[0]))
    best_miss = float(np.linalg.norm(ends[0] - y)) if feas[0] else math.inf
    best_ctrl = p.copy()
    h = 1e-4
    scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    for _ in range(iters):
        if best_miss <= miss_tol:
            break
        batch = np.tile(p, (m + 1, 1))
        batch[1:] += np.eye(m) * h
        ends, feas, depth = integrate_controls(
            sys, x, delta, _project_controls(batch.reshape(m + 1, K, r)), mode, steps,
            return_violation=True,
        )
        resid = full_resid(ends, depth)
        jac = (resid[1:] - resid[0]).T / h  # (n+1, m)
        step, *_ = np.linalg.lstsq(jac, -resid[0], rcond=None)
        cands = _project_controls((p[None] + scales[:, None] * step[None]).reshape(len(scales), K, r))
        e2, f2, d2 = integrate_controls(sys, x, delta, cands, mode, steps, return_violation=True)
        pen2 = np.linalg.norm(full_resid(e2, d2), axis=1)
        k = int(np.argmin(pen2))
        if pen2[k] >= best_pen - 1e-15:
            break
        best_pen = float(pen2[k])
        p = cands[k].reshape(-1)
        miss2 = float(np.linalg.norm(e2[k] - y))
        if f2[k] and miss2 < best_miss:
            best_miss = miss2
            best_ctrl = p.copy()
    return best_miss, best_ctrl.reshape(K, r)


def _shoot(sys, x, y, delta, mode, K, rng, pop, iters, miss_tol, steps_per_segment, init_ctrl=None):
    """Multi-start search over K-segment controls; returns the best miss.

    A least-squares constant control (and an optional warm start) seeds a
    Gauss-Newton refinement; when that converges far from the target the
    miss is returned directly, otherwise a cross-entropy population search
    explores more broadly and its best candidate is polished the same way.
    """
    r = sys.r
    factors = np.array([delta**d for d in sys.degrees])
    mid = 0.5 * (np.asarray(x) + np.asarray(y))
    cols = np.stack([vf.eval_at(mid) for vf in sys.vfields()], axis=1) * factors
    a0, *_ = np.linalg.lstsq(cols, np.asarray(y) - np.asarray(x), rcond=None)
    nrm = np.linalg.norm(a0)
    if nrm > 0.9:
        a0 *= 0.9 / nrm
    informed = np.tile(a0, (K, 1))
    seeds = [informed] if init_ctrl is None else [init_ctrl, informed]
    best_miss, best_ctrl = math.inf, None
    for seed_ctrl in seeds:
        m, c = _gauss_newton_polish(sys, x, y, delta, mode, seed_ctrl, steps_per_segment, miss_tol)
        if m < best_miss:
            best_miss, best_ctrl = m, c
        if best_miss <= miss_tol:
            return best_miss, best_ctrl
    if best_miss > 5.0 * miss_tol and best_ctrl is not None:
        # refined seeds converged well short of the target: population
        # search is very unlikely to close a gap this wide
        return best_miss, best_ctrl
    for start in range(2):
        if start == 0:
            mean = best_ctrl.copy() if best_ctrl is not None else informed.copy()
        else:
            mean = np.zeros((K, r))
        std = np.full((K, r), 0.35)
        stale = 0
        for _ in range(iters):
            cand = mean[None] + std[None] * rng.standard_normal((pop, K, r))
            cand[0] = mean
            cand = _project_controls(cand)
            ends, feas, depth = integrate_controls(
                sys, x, delta, cand, mode, steps_per_segment, return_violation=True
            )
            miss = np.linalg.norm(ends - np.asarray(y), axis=1)
            # infeasible candidates are ranked by how deeply they violate the
            # halfspace, so the population climbs back into the chart
            score = np.where(feas, miss, 5.0 + miss + 50.0 * depth)
            order = np.argsort(score, kind="stable")
            if feas[order[0]] and miss[order[0]] < best_miss * 0.98:
                best_miss = float(miss[order[0]])
                best_ctrl = cand[order[0]].copy()
                stale = 0
            else:
                stale += 1
                if stale >= 3:
                    break
            elite = cand[order[: max(4, pop // 8)]]
            mean = elite.mean(axis=0)
            std = elite.std(axis=0) + 0.01
        if best_ctrl is not None:
            pol_miss, pol_ctrl = _gauss_newton_polish(
                sys, x, y, delta, mode, best_ctrl, steps_per_segment, miss_tol
            )
            if pol_miss < best_miss:
                best_miss, best_ctrl = pol_miss, pol_ctrl
        if best_miss <= miss_tol:
            break
    return best_miss, best_ctrl


def cc_distance(
    sys: WeightedSystem,
    x,
    y,
    mode: str = "intrinsic",
    tol: float = 0.05,
    seed: int = 0,
    K: int = 32,
    pop: int = 64,
    iters: int = 10,
    delta_max: float = 2.0,
    steps_per_segment: int = 4,
) -> MetricEstimate:
    """Multi-start direct-shooting estimate of the CC distance.

    At each trial scale, K-segment controls minimizing the endpoint miss
    are optimized; the scale is bisected to relative width `tol`.  The
    lower end is the largest scale at which the optimizer failed, so it
    is heuristic; on regression scenarios the interval is cross-checked
    against oracle_distance.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must be in (0, 0.5)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    params = {"tol": tol, "K": K, "seed": seed, "mode": mode}
    if np.array_equal(x, y):
        return MetricEstimate(0.0, 0.0, "shooting", params)
    d_eu = float(np.linalg.norm(y - x))
    miss_tol = max(5e-4, 0.005 * d_eu)
    warm: dict[str, np.ndarray | None] = {"ctrl": None}

    def hits(delta, attempt):
        rng = np.random.default_rng([seed, attempt])
        miss, ctrl = _shoot(
            sys, x, y, delta, mode, K, rng, pop, iters, miss_tol, steps_per_segment,
            init_ctrl=warm["ctrl"],
        )
        if ctrl is not None:
            warm["ctrl"] = ctrl
        return miss <= miss_tol

    hi = min(delta_max, max(1e-3, d_eu))
    attempt = 0
    while hi <= delta_max and not hits(hi, attempt):
        hi *= 2.0
        attempt += 1
    if hi > delta_max:
        return MetricEstimate(0.0, math.inf, "shooting", params)
    lo = 0.0
    while hi - lo > tol * hi:
        attempt += 1
        mid = 0.5 * (lo + hi)
        if hits(mid, attempt):
            hi = mid
        else:
            lo = mid
    return MetricEstimate(lo, hi, "shooting", params)


# -- Monte-Carlo volume ---------------------------------------------------


def ball_volume(
    sys: WeightedSystem,
    x,
    delta: float,
    mode: str = "intrinsic",
    n_samples: int = 20000,
    seed: int = 0,
    resolution_cells: int | None = None,
    probe_samples: int = 1500,
    K: int = 8,
) -> VolumeEstimate:
    """Monte-Carlo ball volume against the system density.

    A sampled endpoint cloud fixes the grid resolution; the oracle's
    reachable set then provides both the bounding box (its own extents
    plus a one-cell margin, inflated by 1.2) and the membership test for
    uniform box samples, over which the density is averaged.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if resolution_cells is None:
        resolution_cells = 32 if sys.n <= 2 else 22
    x = np.asarray(x, dtype=float)
    cloud = sample_ball(sys, x, delta, probe_samples, K=K, seed=seed, mode=mode)
    pts = np.vstack([cloud.feasible_endpoints(), x[None]])
    spread = np.abs(pts - x).max(axis=0)
    res = np.maximum(2.0 * spread / resolution_cells, delta * 1e-4)
    graph = reach_graph(sys, x, delta, mode, res=res)
    reached = np.array([p for _, p in graph.settled.values()])
    lo, hi = reached.min(axis=0) - res, reached.max(axis=0) + res
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = np.maximum(half * 1.2, delta * 1e-3)
    lo, hi = c - half, c + half
    box_lo = np.asarray(sys.box.center) - np.asarray(sys.box.half_widths)
    box_hi = np.asarray(sys.box.center) + np.asarray(sys.box.half_widths)
    lo, hi = np.maximum(lo, box_lo), np.minimum(hi, box_hi)
    if mode == "intrinsic" and sys.box.has_boundary:
        lo[-1] = max(lo[-1], 0.0)
    rng = np.random.default_rng([seed, 104729])
    samples = lo + (hi - lo) * rng.random((n_samples, len(lo)))
    hit = graph.contains(samples)
    dens = sys.density_at(samples)
    weights = np.where(hit, dens, 0.0)
    box_measure = float(np.prod(hi - lo))
    value = box_measure * float(weights.mean())
    se = box_measure * float(weights.std(ddof=1)) / math.sqrt(n_samples)
    return VolumeEstimate(value, se, int(hit.sum()), box_measure)
