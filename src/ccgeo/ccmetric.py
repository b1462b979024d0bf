"""Carnot-Caratheodory balls, metrics, and ball volumes.

The unit ball of a weighted system at scale delta is the set of endpoints
of unit-time absolutely continuous paths driven by controls with
sup-in-time L2 norm strictly below one, against the scaled fields
delta^{d_j} W_j.  Two estimators are provided: a brute-force grid-graph
oracle that bounds the distance only from above, and only up to its
discretization, and a faster deterministic direct-shooting estimator
whose lower end is cross-checked against the oracle's upper end: it
shoots one normal geodesic, on its initial covector when the generators
share one degree and on its covector and scale together when they do
not, and where none is found it searches over scales and refines its
seed controls by Gauss-Newton as one batch per step.  The oracle
searches in rounds, and each round settles its concurrent
arrivals in grid cells by an order-free rule: least cost, exact ties to
the least arrival index.  Cells and half-cells live in dense windows of
the grid, sized once per search from the proven reach box when there is
one, and grown with the explored set when there is not.  Intrinsic mode
confines paths to the chart (x_n >= 0 when the chart has boundary);
extrinsic mode allows the whole box.
"""
from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import symexpr
from .flows import GUARD_FACTOR, _control_step, _reach_box, _rk4_step
from .hormander import WeightedSystem, _field_columns, _field_stack, _geodesic_equations, enumerate_commutators

__all__ = [
    "ReachSample",
    "MetricEstimate",
    "VolumeEstimate",
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
#: largest scale the oracle and the shooting search try
DELTA_MAX = 2.0
#: most cells one oracle search may settle
MAX_CELLS = 2_000_000
#: most arrival rows (frontier point, direction) one block of an oracle round integrates
ROUND_ROWS = 8192


@dataclass(frozen=True)
class MetricEstimate:
    """Interval estimate of the CC distance; upper may be math.inf."""

    lower: float
    upper: float
    method: str

    def __post_init__(self):
        if self.lower < 0 or (math.isfinite(self.upper) and self.upper < self.lower - 1e-12):
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    def intersects(self, other: "MetricEstimate", slack: float) -> bool:
        return self.lower <= other.upper + slack and other.lower <= self.upper + slack

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class ReachSample:
    """Endpoint cloud of sampled admissible controls at one (x, delta)."""

    endpoints: np.ndarray  # (S, n)
    feasible: np.ndarray  # (S,) bool

    def feasible_endpoints(self) -> np.ndarray:
        return self.endpoints[self.feasible]

    def to_csv(self) -> str:
        buf = io.StringIO()
        n = self.endpoints.shape[1]
        buf.write(",".join(f"x{i + 1}" for i in range(n)) + ",feasible\n")
        for row, ok in zip(self.endpoints, self.feasible):
            buf.write(",".join(repr(float(v)) for v in row) + f",{int(ok)}\n")
        return buf.getvalue()


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


def _check_in_chart(box, p, halfspace: bool, point: str = "base") -> None:
    """ValueError unless p is one point of the chart's dimension that lies in
    the chart box (so is finite) and, with `halfspace` on a chart with
    boundary, not below {x_n = 0}."""
    p = np.asarray(p, dtype=float)
    if p.shape != (box.dim,):
        got = len(p) if p.ndim == 1 else f"shape {p.shape}"
        raise ValueError(f"{point} point must have {box.dim} coordinates, got {got}")
    if not box.contains(p[None])[0] or (halfspace and box.has_boundary and p[-1] < -BOUNDARY_TOL):
        raise ValueError(f"{point} point is not in the chart")


def _check_seed(seed) -> None:
    """ValueError unless seed is a non-negative integer, the seeds numpy's generators take."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got seed = {seed!r}")


def _check_endpoints(sys: WeightedSystem, x, y, mode: str):
    """x and y as float arrays; ValueError unless both are finite and in the chart."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"distance endpoints must be finite, got x = {tuple(x.tolist())}, y = {tuple(y.tolist())}")
    halfspace = _check_mode(mode) == "intrinsic"
    _check_in_chart(sys.box, x, halfspace)
    _check_in_chart(sys.box, y, halfspace, "target")
    return x, y


def _columns(fold, f, A: np.ndarray, *per_axis) -> np.ndarray:
    """f(A[:, j], per_axis[0][j], ...) for each of A's n columns, folded left to right.

    With fold np.logical_and this is np.all(f(A, ...), axis=1), with
    np.maximum f(A, ...).max(axis=1), and with np.add and np.square the
    sum of squares in np.linalg.norm(A, axis=1), bit for bit, nan
    included, without numpy's slow reduction over a short axis and the
    (B, n) temporaries: here the coordinate axis has n = 2 or 3 entries.
    """
    return functools.reduce(fold, itertools.starmap(f, zip(A.swapaxes(0, 1), *per_axis, strict=True)))


def integrate_controls(
    sys: WeightedSystem,
    x,
    delta: float,
    coeffs: np.ndarray,
    mode: str = "intrinsic",
    steps_per_segment: int = 8,
):
    """Batched endpoint map for piecewise-constant controls.

    coeffs has shape (S, K, r), S >= 0; returns endpoints (S, n), per-path
    feasibility and the boundary violation depth (zero unless intrinsic
    on a chart with boundary).  Each segment makes steps_per_segment >= 1
    RK4 steps of one compiled step (`flows._control_step`), which takes
    the velocity columns that read no coordinate once per segment.  A row
    whose step would take it out of the guarded box is marked infeasible
    and stays frozen at its last point inside the guard for the rest of
    the path, rather than aborting the batch.  Rows are
    independent: `dt` is a scalar, RK4 is elementwise and every guard is
    per row, so a row gives the same bits in any batch, which lets
    shooting stack several batches into one call.  While no row is
    frozen, a step with every row inside the box changes no flag, so it
    skips the per-row guard.  The lowest x_n is tracked only in
    intrinsic mode on a chart with boundary, the one case that reads it;
    a frozen row's point was already counted.
    """
    _check_mode(mode)
    coeffs = np.asarray(coeffs, dtype=float)
    S, K, r = coeffs.shape
    if K < 1:
        raise ValueError(f"controls need at least one segment, got K = {K}")
    if steps_per_segment < 1:
        raise ValueError(f"a segment needs at least one RK4 step, got steps_per_segment = {steps_per_segment}")
    if r != sys.r:
        raise ValueError("control arity does not match the system")
    n = sys.n
    x = np.asarray(x, dtype=float)
    y = x[None].repeat(S, 0)
    weights = coeffs * np.array([delta**d for d in sys.degrees])
    vfs = sys.vfields()
    box = sys.box
    # Box.contains against guard and box from one |y - c| per step (nan or inf fails both); c and
    # the edge come as full rows (numpy is slow to broadcast a short axis), and counting beats all()
    hw = np.asarray(box.half_widths)
    guard, edge, c = hw * GUARD_FACTOR + 1e-9, hw + 1e-9, np.asarray(box.center)
    c_rows, edge_rows = c[None].repeat(S, 0), edge[None].repeat(S, 0)
    alive, inside = np.ones((2, S), dtype=bool)
    halfspace = mode == "intrinsic" and box.has_boundary
    min_xn = y[:, n - 1].copy()
    dt = (1.0 / K) / steps_per_segment
    frozen = False  # whether some row has left the guard box

    with np.errstate(all="ignore"):
        for k in range(K):
            step = _control_step(vfs, weights[:, k, :], dt)
            for _ in range(steps_per_segment):
                ynew = step(y)
                dev = np.abs(ynew - c_rows)
                # with every row inside the box (so inside the guard) no flag changes
                if frozen or np.count_nonzero(dev <= edge_rows) < dev.size:
                    alive &= _columns(np.logical_and, np.less_equal, dev, guard)
                    inside &= _columns(np.logical_and, np.less_equal, dev, edge)
                    ynew[~alive] = y[~alive]
                    frozen = np.count_nonzero(alive) < S
                y = ynew
                if halfspace:
                    np.minimum(min_xn, y[:, n - 1], out=min_xn)

    feasible = alive & inside
    depth = np.zeros(S)
    if halfspace:
        feasible &= min_xn >= -BOUNDARY_TOL
        depth = np.maximum(0.0, -min_xn)
    return y, feasible, depth


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
) -> ReachSample:
    """Monte-Carlo endpoint cloud of the ball B(x, delta).

    A seed that is not a non-negative integer, and a base point outside
    the chart (or below {x_n = 0} in intrinsic mode), raise ValueError.
    """
    _check_mode(mode)
    if n_samples < 1:
        raise ValueError(f"a ball sample needs at least one control, got n_samples = {n_samples}")
    if K < 1:
        raise ValueError(f"ball controls need at least one segment, got K = {K}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"ball radius must be finite and non-negative, got delta = {delta}")
    _check_seed(seed)
    x = np.asarray(x, dtype=float)
    _check_in_chart(sys.box, x, mode == "intrinsic")
    rng = np.random.default_rng(seed)
    coeffs = sample_controls(rng, n_samples, K, sys.r)
    if delta == 0.0:
        ends = np.tile(x, (n_samples, 1))
        feas = np.ones(n_samples, dtype=bool)
    else:
        ends, feas, _ = integrate_controls(sys, x, delta, coeffs, mode)
    return ReachSample(ends, feas)


# -- grid-graph oracle ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _move_directions(r: int) -> np.ndarray:
    """Unit control directions: a half-integer lattice for r <= 2, axes above.

    Computed once per r and shared, so the array is read-only.
    """
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
        dirs = np.array(sorted(seen.values(), key=tuple))
    else:  # +e_j, then -e_j, for each axis j
        dirs = np.zeros((2 * r, r))
        dirs[np.arange(2 * r), np.arange(2 * r) // 2] = np.tile([1.0, -1.0], r)
    dirs.setflags(write=False)
    return dirs


def _check_resolution(res, n: int) -> np.ndarray:
    """Per-axis grid resolution; each must be finite and positive."""
    res = np.broadcast_to(np.asarray(res, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(res) & (res > 0)):
        raise ValueError(f"oracle resolution must be finite and positive, got {res.tolist()}")
    return res


class ReachGraph:
    """Shortest-time search over grid cells with short admissible flows.

    Edges flow one control direction at unit speed for the time needed to
    cross one cell; costs are time.  Cells are keyed by int64 linear
    indices into the chart box's cell range plus a one-cell margin.  A run
    that explores to the end without reaching a target leaves `settled`,
    the sorted keys of the reached cells, with `settled_cost` (their best
    costs) and `settled_pts` (one representative exact point per cell)
    aligned to it; this gives a reusable membership test for the
    reachable set within the time budget.  Before such a run the three
    are empty, and a targeted run that ends on a proven miss leaves them
    as they were.

    A frontier round settles its arrivals, in (point, direction) order,
    by an order-free rule.  A cell's best cost falls to the least of its
    arrivals' costs; an arrival expands when its cost is at most that new
    best plus its move quantum tau; a cell whose best fell takes the point
    of its least-index arrival at the new best.  The expanding arrivals
    settle in half-cells alike: one below its half-cell's best before the
    round and equal to it after is accepted, and each accepted half-cell's
    least-index arrival joins the next frontier, in arrival order.  Both
    stores are `_Slots`, dense windows of the grid settled with
    `np.minimum.at`, without a sort or a slot lookup.  With a proven speed
    bound S both windows are sized once per run, to the index range of
    x0 +- S clipped to the chart's, which holds every arrival; a run with
    no proven S, or whose window would hold more than MAX_CELLS cells,
    grows that window with the explored set.

    A round integrates its moves in blocks of at most `ROUND_ROWS` arrival
    rows (floor(ROUND_ROWS / D) frontier points for D directions), so its
    float temporaries are bounded by the block, not the frontier.  A
    block's rows are every (frontier point, direction) pair, dead moves
    included, built by repeating and tiling rather than by index gathers;
    one mask then drops the dead and guarded-out rows, and only the kept
    arrivals (point, cost, move quantum) are joined for the settle, which
    still runs once per round.  The guards (the chart box and, intrinsic
    on a chart with boundary, the half-space) run only where the proven
    reach box B of `flows._reach_box` does not settle them.  Rows are
    independent and nothing is settled before the round ends, so the
    blocks, the dead rows and the elided guards change no bit.  A round's
    fixed cost is its count of numpy and Python calls, kept few with the
    same bits: one field kernel call, column-by-column folds over the
    n = 2 or 3 coordinates, and the compiled RK4 step.  Its cost per
    arrival avoids numpy's slow broadcast of a length-n vector over (N, n)
    rows: grid indices, membership and the move rates, laid out (D, F)
    with the F frontier points contiguous, go one coordinate column at a
    time.

    A negative or non-finite scale delta and a base point outside the
    chart (or below {x_n = 0} in intrinsic mode) raise ValueError, as do a
    non-finite target and a negative or non-finite arrival tolerance in
    `run`, and points not shaped (N, n) in `contains`.
    """

    def __init__(self, sys: WeightedSystem, x, delta: float, mode: str = "intrinsic", *, res):
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"oracle scale must be finite and non-negative, got delta = {delta}")
        self.sys = sys
        self.x0 = np.asarray(x, dtype=float)
        self.delta = float(delta)
        self.mode = _check_mode(mode)
        self.res = _check_resolution(res, sys.n)
        _check_in_chart(sys.box, self.x0, mode == "intrinsic")
        self.factors = np.array([delta**d for d in sys.degrees])
        self.dirs = _move_directions(sys.r)
        # arrivals pass Box.contains, so their indices lie in the box's range
        c = np.asarray(sys.box.center, dtype=float)
        hw = np.asarray(sys.box.half_widths, dtype=float) + 1e-9
        self._cells, self._halves = (self._index_range(c - hw, c + hw, s) for s in (1.0, 2.0))
        self.settled = np.empty(0, dtype=np.int64)
        self.settled_cost = np.empty(0)
        self.settled_pts = np.empty((0, sys.n))
        # the last full run's cells, which `contains` reads
        self._window = _Slots(self._cells, sys.n, [np.empty(0, dtype=np.int32)], None)

    def _index(self, p: np.ndarray, scale: float):
        """Grid indices (as floats) of points p (N, n) on the 1/scale cell grid,
        floor((p - x0) / res * scale + 0.5), one coordinate column at a time,
        so without numpy's slow broadcast of a length-n vector over (N, n) rows;
        q * 1.0 is q, bit for bit, so the cell grid skips that pass."""
        for q, x0, res in zip(p.T, self.x0, self.res, strict=True):
            q = q - x0
            q /= res
            if scale != 1.0:
                q *= scale
            q += 0.5
            yield np.floor(q, out=q)

    def _index_range(self, lo_pt, hi_pt, scale: float) -> tuple[np.ndarray, tuple[int, ...]]:
        """Lowest index and shape of the index range of a box, one-cell margin."""
        lo, hi = (np.floor((p - self.x0) / self.res * scale + 0.5) for p in (lo_pt, hi_pt))
        lo -= 1
        hi += 1
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError(f"oracle grid around {self.x0.tolist()} at resolution {self.res.tolist()} is not finite")
        shape = tuple(int(v) for v in hi - lo + 1)
        if math.prod(shape) > np.iinfo(np.int64).max:
            raise ValueError(f"oracle grid of {shape} cells does not fit int64 keys; coarsen the resolution")
        return lo, shape

    def _reach_window(self, speed: np.ndarray, scale: float) -> tuple[list, list]:
        """Lowest and highest index (float lists) of x0 +- speed on the 1/scale cell grid,
        clipped to the chart's range: indices are monotone in the point, so every
        point of x0 +- speed has its index in this range."""
        g, m = self._cells if scale == 1.0 else self._halves
        lo, hi = zip(*self._index(np.stack([self.x0 - speed, self.x0 + speed]), scale))
        return [float(max(a, b)) for a, b in zip(lo, g)], [float(min(a, b + c - 1)) for a, b, c in zip(hi, g, m)]

    def run(self, target=None, arrival_tol: float | None = None):
        """Explore within the budget; returns (reached, cost) for a target.

        Label-correcting search with batched rounds: every frontier cell
        expands along every control direction, in blocks of at most
        `ROUND_ROWS` rows, one per (point, direction) pair.  A targeted
        round that hits returns the least hit cost over all its blocks.
        With target None the full reachable cell set is computed and
        (False, inf) returned.

        Every run takes the speed bound S and reach box B = x0 +- reach of
        `flows._reach_box`, which holds every RK4 stage of every move.  The
        per-half-step box test runs only when B does not lie inside the
        chart box, and the half-space test only when B dips below
        {x_n = -BOUNDARY_TOL}; without a proven B both run.  A targeted run
        also ends on a proof of a miss: every descendant of a frontier
        point P at cost C lies within (1 - C) S of P in each coordinate, so
        none comes closer to the target y than |max(0, |P - y| - (1 - C) S)|.
        When that exceeds the arrival tolerance for every frontier point,
        at the top of a round, no later round can hit, and the run returns
        (False, inf), the full search's answer, at once.  Such a run leaves
        `settled` as it was and does not raise the cell-budget error that
        the full search might have.  Without a proven S the run searches on.
        A move of time at most 1 - C starts within C S of x0, so every
        arrival lies in x0 +- S: with S proven, both stores take that box's
        index range as a fixed window, and no round grows it.
        """
        target = None if target is None else np.asarray(target, dtype=float)
        if target is not None and not np.isfinite(target).all():
            raise ValueError(f"oracle target must be finite, got {target.tolist()}")
        tol = float(arrival_tol) if arrival_tol is not None else float(np.linalg.norm(self.res))
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"arrival tolerance must be finite and non-negative, got arrival_tol = {arrival_tol}")
        vfs = self.sys.vfields()
        factors, res = self.factors[:, None, None], self.res.tolist()
        dir_cols = self.dirs.T[:, :, None]  # (r, D, 1): per control j the column dirs[:, j]
        weights = self.dirs * self.factors  # (D, r) control coefficients per direction
        box = self.sys.box
        # Box.contains from |y - c|, one coordinate at a time; a nan or inf coordinate fails it
        edge, c = np.asarray(box.half_widths) + 1e-9, np.asarray(box.center)

        if target is not None and np.linalg.norm(self.x0 - target) <= tol:
            return True, 0.0
        # every RK4 stage of every move stays in B = x0 +- reach (unbounded when unproven), and
        # a guard runs only where B does not settle it: the same tests on B's corners
        speed, reach = _reach_box(self.sys, self.x0, self.delta) or (None, np.full(self.sys.n, math.inf))
        boxed = all(np.all(np.abs(b - c) <= edge) for b in (self.x0 - reach, self.x0 + reach))
        halfspace = self.mode == "intrinsic" and box.has_boundary and self.x0[-1] - reach[-1] < -BOUNDARY_TOL

        def unreachable(P, C) -> bool:
            """Whether no descendant of frontier points P at costs C can land within tol of
            the target: per coordinate, what is left of |P - y| after (1 - C) S and an
            absolute 1e-9 for rounding; tol gets a relative 1e-9."""
            left = 1.0 - C
            gap2 = _columns(np.add, lambda p, y, s: np.square(np.maximum(np.abs(p - y) - 1e-9 - left * s, 0.0)), P, target, speed)
            return np.count_nonzero(np.sqrt(gap2) <= tol * (1.0 + 1e-9)) == 0

        def moves(P, C):
            """The kept arrivals (Y, cost, tau) of frontier points P at costs C,
            in (point, direction) order, and the costs of those that hit the target."""
            # move rates, per coordinate i the (D, F) rows |V_i| / res_i with the F points
            # contiguous, V_i[d, f] = sum_j dirs[d, j] (delta^d_j W_j)_i(P_f) summed left
            # to right in j, then their maximum left to right in i; up to the sign of a
            # zero, which abs drops, V is einsum("dr,rfn->fdn") bit for bit
            W = _field_stack(vfs, P)  # (r, F, n)
            W *= factors
            rates = None
            for i, res_i in enumerate(res):
                v = dir_cols[0] * W[0, :, i]
                for j in range(1, len(dir_cols)):
                    v += dir_cols[j] * W[j, :, i]
                np.abs(v, out=v)
                v /= res_i
                rates = v if rates is None else np.maximum(rates, v, out=rates)
            remaining = 1.0 - C
            live = rates > 1e-14
            live &= remaining > 1e-12
            # every (point, direction) row, dead ones included: the mask below drops them
            F, D = len(P), len(weights)
            tau = np.minimum(1.0 / rates.T.ravel(), remaining.repeat(D))
            step = _control_step(vfs, np.tile(weights, (F, 1)), tau / 2.0)
            Y, ok = P.repeat(D, 0), live.T.ravel()  # ok: and-ed with each guard after each step
            for _ in range(2):
                Y = step(Y)
                if not boxed:
                    ok &= _columns(np.logical_and, lambda y, c, e: np.abs(y - c) <= e, Y, c, edge)
                if halfspace:
                    ok &= Y[:, -1] >= -BOUNDARY_TOL
            # a live move has C < 1 - 1e-12 and tau <= 1 - C, so C + tau <= 1 + 2^-52: no cost cap
            costs = C.repeat(D) + tau
            if np.count_nonzero(ok) < len(ok):
                m = ok.nonzero()[0]
                Y, costs, tau = Y.take(m, 0), costs.take(m), tau.take(m)
            near = slice(0) if target is None else np.sqrt(_columns(np.add, lambda y, t: np.square(y - t), Y, target)) <= tol
            return Y, costs, tau, costs[near]

        x0 = self.x0[None]
        windows = [None, None] if speed is None else [self._reach_window(speed, s) for s in (1.0, 2.0)]
        scratch = [np.empty(0, dtype=np.int32)]  # the least-index scratch both stores share
        cells, halves = _Slots(self._cells, self.sys.n, scratch, windows[0]), _Slots(self._halves, 0, scratch, windows[1])
        k, _, _ = cells.settle(list(self._index(x0, 1.0)), np.zeros(1))
        cells.pts[k] = x0
        # expansion frontier: (position, cost) arrivals, deduplicated on a
        # half-cell grid; arrivals within one move quantum of their
        # cell's best cost still expand, so well-positioned but slightly
        # costlier through-paths are not starved by near-corner arrivals
        P, C = x0, np.zeros(1)
        rounds = 0
        step = max(1, ROUND_ROWS // len(self.dirs))  # frontier points per block
        with np.errstate(all="ignore"):
            while len(P):
                if target is not None and speed is not None and unreachable(P, C):
                    return False, math.inf
                rounds += 1
                blocks = [moves(P[i : i + step], C[i : i + step]) for i in range(0, len(P), step)]
                Y, costs, tau, hits = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
                del blocks  # past the join only the joined arrays are needed
                if len(hits):
                    return True, float(hits.min())

                k, best, won = cells.settle(list(self._index(Y, 1.0)), costs)
                cells.pts[k.take(won)] = Y.take(won, 0)
                expand = (costs <= best + tau).nonzero()[0]
                Y, costs = Y.take(expand, 0), costs[expand]
                _, _, nxt = halves.settle(list(self._index(Y, 2.0)), costs)
                P, C = Y.take(nxt, 0), costs[nxt]

                if cells.size > MAX_CELLS:
                    raise RuntimeError(
                        f"oracle cell budget exceeded: {cells.size} cells settled, max_cells "
                        f"{MAX_CELLS}, after {rounds} frontier rounds at resolution "
                        f"{self.res.tolist()}; coarsen the resolution"
                    )
        self.settled, self.settled_cost, self.settled_pts = cells.settled()
        self._window = cells
        return False, math.inf

    def contains(self, points: np.ndarray, dilate: int = 0) -> np.ndarray:
        """Membership of points (N, n) in the explored reachable set (cell level).

        With dilate=1 a point also counts when any neighboring cell was
        settled, absorbing quantization at the set's surface.  Index, range
        test and key are taken one coordinate column at a time, and the key
        is read in the last run's dense window of cells.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.sys.n:
            raise ValueError(f"membership points must be an (N, {self.sys.n}) array, got shape {points.shape}")
        idx = list(self._index(points, 1.0))
        out = self._settled_at(idx)
        if dilate > 0:
            miss = (~out).nonzero()[0]
            idx = [i[miss] for i in idx]
            for o in itertools.product(range(-dilate, dilate + 1), repeat=len(idx)):
                out[miss] |= self._settled_at([i + k for i, k in zip(idx, o)])
        if self.mode == "intrinsic" and self.sys.box.has_boundary:
            out &= points[:, -1] >= -BOUNDARY_TOL
        return out

    def _settled_at(self, idx: list) -> np.ndarray:
        """Whether each cell index, given as one float column per coordinate (any value), is a settled cell."""
        w = self._window
        inside = functools.reduce(np.logical_and, [(i >= a) & (i <= b) for i, a, b in zip(idx, w.lo, w.hi)])
        out = np.zeros(len(inside), dtype=bool)
        out[inside] = w.cost.take(_ravel([i[inside] for i in idx], w.lo, w.shape)) < math.inf
        return out


def _ravel(idx, lo: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """np.ravel_multi_index's int64 keys of in-range grid indices with lowest index lo, given
    as one float column per coordinate, which it overwrites: Horner in the grid's shape."""
    key = 0
    for i, a, m in zip(idx, lo, shape, strict=True):
        i -= a
        key = key * m + i.astype(np.int64)
    return key


class _Slots:
    """Best costs of the grid cells one search has reached, on a dense window of grid indices.

    Per window cell: its best cost (inf for a cell not reached) and the
    n_pts coordinates of one representative point, read only where the
    cost is finite.  An int32 scratch serves the least-index tie rule; it
    is written before it is read, so the stores of one search, which
    settle one after the other, share one (`scratch`, a one-item list),
    and the memory pages one has touched serve the other.  A store given
    a window of at most MAX_CELLS cells keeps it: a run sizes it from the
    proven reach box, which holds every arrival.  Otherwise the window
    grows to cover each round's indices, by a margin of about 1/8 of its
    span and at least 2 cells, clipped to the chart's index range, so it
    spans the explored index box, not the chart's.
    """

    def __init__(self, grid, n_pts: int, scratch: list, window):
        self.grid = grid  # the chart's index range (lowest index, shape)
        n = len(grid[1])
        self.n_pts, self.size, self.scratch = n_pts, 0, scratch
        self.lo, self.hi, self.shape = [math.inf] * n, [-math.inf] * n, (0,) * n
        self.cost, self.pts = np.empty(0), np.empty((0, n_pts))
        self.fixed = window is not None and math.prod(int(b - a) + 1 for a, b in zip(*window)) <= MAX_CELLS
        if self.fixed:
            self._resize(*window)

    def _resize(self, lo, hi) -> None:
        """Take the window lo..hi (float lists), keeping the costs and points of the old one."""
        shape = tuple(int(b - a) + 1 for a, b in zip(lo, hi))
        cost, pts = np.full(shape, math.inf), np.empty(shape + (self.n_pts,))
        if self.cost.size:
            old = tuple(slice(int(a - b), int(a - b) + m) for a, b, m in zip(self.lo, lo, self.shape))
            cost[old] = self.cost.reshape(self.shape)
            pts[old] = self.pts.reshape(self.shape + (self.n_pts,))
        self.lo, self.hi, self.shape = list(lo), list(hi), shape
        self.cost, self.pts = cost.reshape(-1), pts.reshape(cost.size, self.n_pts)
        if len(self.scratch[0]) < cost.size:
            self.scratch[0] = np.empty(cost.size, dtype=np.int32)

    def _cover(self, idx) -> None:
        """Grow the window to cover grid indices idx, one float column per coordinate."""
        need = [(np.minimum.reduce(c, initial=math.inf), np.maximum.reduce(c, initial=-math.inf)) for c in idx]
        if all(lo <= a and b <= hi for (a, b), lo, hi in zip(need, self.lo, self.hi)):
            return
        lo, hi = [], []  # a few floats: plain Python beats numpy here
        for (a, b), l, h, g, m in zip(need, self.lo, self.hi, *self.grid):
            margin = max(2.0, (max(h, b) - min(l, a) + 1) // 8)
            lo.append(float(max(a - margin, g)) if a < l else l)
            hi.append(float(min(b + margin, g + m - 1)) if b > h else h)
        self._resize(lo, hi)

    def settle(self, idx, c: np.ndarray):
        """Lower each cell's best cost to the least of its arrivals' costs c.

        idx are the arrivals' grid indices (float columns, overwritten).
        Returns each arrival's key in the window, its cell's best cost
        after the round, and the indices, in order, of the arrivals that
        set a best cost that fell: per such cell the least index with c
        equal to it, found by a second `np.minimum.at`.  So ties go to the
        least index, and no result depends on the order in which numpy
        scatters.  A cell is new when the winner's cost fell from inf.
        """
        if not self.fixed:
            self._cover(idx)
        k = _ravel(idx, self.lo, self.shape)
        before = self.cost.take(k)
        np.minimum.at(self.cost, k, c)
        after = self.cost.take(k)
        i = ((c < before) & (c == after)).nonzero()[0]
        ki, scratch = k.take(i), self.scratch[0]
        scratch[ki] = c.size
        np.minimum.at(scratch, ki, i.astype(np.int32))
        won = i[scratch.take(ki) == i]
        self.size += np.count_nonzero(before.take(won) == math.inf)
        return k, after, won

    def settled(self):
        """The reached cells' int64 keys on the chart grid, sorted, with their costs and points.

        Row-major order is the order of index tuples in any box, so the
        window's reached cells come in chart-key order."""
        w = (self.cost < math.inf).nonzero()[0]
        keys = _ravel([i + a for i, a in zip(np.unravel_index(w, self.shape), self.lo)], *self.grid)
        return keys, self.cost.take(w), self.pts.take(w, 0)


def _scale_search(hits, hi: float, width: float) -> tuple[float, float]:
    """Double hi until `hits` holds, then bisect [0, hi] to relative width
    `width`; [0, inf] when no scale up to DELTA_MAX hits."""
    while hi <= DELTA_MAX and not hits(hi):
        hi *= 2.0
    if hi > DELTA_MAX:
        return 0.0, math.inf
    lo = 0.0
    while hi - lo > width * hi:
        mid = 0.5 * (lo + hi)
        if hits(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def reach_graph(sys: WeightedSystem, x, delta: float, mode: str = "intrinsic", *, res) -> ReachGraph:
    """Fully explored reachable set of B(x, delta) at cell resolution `res`."""
    g = ReachGraph(sys, x, delta, mode, res=res)
    g.run(target=None)
    return g


def oracle_distance(
    sys: WeightedSystem,
    x,
    y,
    mode: str = "intrinsic",
    resolution: float = 0.02,
) -> MetricEstimate:
    """Brute-force estimate of the CC distance from above: [0, upper].

    The upper end is the smallest bisection scale, to 10% relative width,
    at which the grid search lands within the arrival tolerance (0.75
    resolution, in the Euclidean norm) of y: an admissible path to a
    point near y, so the bound can lie below d(x, y).  The oracle claims
    no lower end; its lower end is always 0.  When y lies within the
    arrival tolerance of x, every scale reaches it at cost 0, so the grid
    cannot resolve the distance and the interval is [0, inf]; so is it
    when no scale up to DELTA_MAX reaches y.  Each scale is searched at
    most once per query: after a failed doubling step the bisection's
    first midpoint is that step's scale, and its answer is reused.  A
    search at a scale that misses y usually ends on a proof, from the
    interval bound on the field speeds, before it has explored the whole
    ball (`ReachGraph.run`), with the answer and the bits of a full one;
    so a missing scale no longer raises the cell-budget error there.
    Non-finite endpoints, endpoints outside the chart (or below
    {x_n = 0} in intrinsic mode) and a per-axis resolution raise
    ValueError before any search.
    """
    if np.ndim(resolution) != 0:
        raise ValueError(f"oracle_distance resolution must be one number, got {resolution!r}")
    _check_resolution(resolution, sys.n)
    x, y = _check_endpoints(sys, x, y, mode)
    if np.array_equal(x, y):
        return MetricEstimate(0.0, 0.0, "oracle")
    arrival_tol = 0.75 * resolution
    d_eu = float(np.linalg.norm(y - x))
    if d_eu <= arrival_tol:
        return MetricEstimate(0.0, math.inf, "oracle")

    @functools.cache
    def reach(delta):
        ok, _ = ReachGraph(sys, x, delta, mode, res=resolution).run(target=y, arrival_tol=arrival_tol)
        return ok

    hi = max(resolution, d_eu ** (1.0 / sys.max_degree) if d_eu < 1 else d_eu, d_eu)
    _, hi = _scale_search(reach, min(hi, DELTA_MAX), 0.1)
    return MetricEstimate(0.0, hi, "oracle")


# -- direct shooting ------------------------------------------------------

#: RK4 steps per control segment in shooting
SHOOT_STEPS = 4


def _project_controls(cand: np.ndarray) -> np.ndarray:
    """cand (..., r), each segment's control scaled back to norm 0.995 where larger: bit for
    bit np.where(norm > 0.995, cand * f, cand), f = 0.995 / max(norm, 1e-300), as f <= 1
    exactly there, fmin drops a nan f and x * 1.0 is x; norm as np.linalg.norm's."""
    norm = np.sqrt(_columns(np.add, np.square, cand.reshape(-1, cand.shape[-1])))
    return cand * np.fmin(0.995 / np.maximum(norm, 1e-300), 1.0).reshape(cand.shape[:-1] + (1,))


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector, bit for bit: the root of its dot with itself."""
    return math.sqrt(v.dot(v))


def _shoot(sys, x, y, delta, mode, K, miss_tol, init_ctrl=None):
    """Deterministic shooting at one scale; returns the best miss and its control.

    The warm start, when given, and then a least-squares constant control
    each seed a damped Gauss-Newton refinement of the endpoint.  The
    residual carries the boundary-violation depth, weighted by 10, as an
    extra component, so a seed can slide along an active halfspace
    constraint instead of stalling at it; only feasible iterates count as
    results.  A step solves lstsq on the (n + 1) x m finite-difference
    Jacobian (m = K r) and keeps the best of five damped candidates; a
    seed stops within miss_tol, after six steps, or on a step that gains
    less than 1e-15.  Each call to `integrate_controls` takes, in seed
    order, every unfinished seed's start control or five candidates, each
    followed by its m + 1 projected finite-difference rows, which the next
    step reads for the accepted one.  Rows of a batch are independent, so
    each seed has the bits of a run on its own.  The result is the
    sequential rule's: the first seed within miss_tol, else the least
    miss, earlier seeds winning ties; the calls stop once it is known.
    When no seed reaches a feasible endpoint the miss is inf and the warm
    start comes back unchanged.
    """
    y = np.asarray(y, dtype=float)
    factors = np.array([delta**d for d in sys.degrees])
    mid = 0.5 * (np.asarray(x) + y)
    cols = _field_columns(sys.vfields(), mid).T * factors
    a0, *_ = np.linalg.lstsq(cols, y - np.asarray(x), rcond=None)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(a0)
    if nrm == math.inf:  # too large to square: clip its direction
        a0 /= np.abs(a0).max()
        nrm = np.linalg.norm(a0)
    if nrm > 0.9:
        a0 *= 0.9 / nrm
    informed = a0[None].repeat(K, 0)
    seeds = [informed] if init_ctrl is None else [init_ctrl, informed]
    S, r, h = len(seeds), sys.r, 1e-4
    m = K * r
    scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    # the controls each seed tries next: its start, then five damped candidates
    heads = _project_controls(np.array(seeds, dtype=float))[:, None]
    pen, miss = np.full((2, S), math.inf)  # each seed's residual norm at its iterate, least feasible miss
    best = np.empty((S, K, r))  # and that miss's control
    live = np.ones(S, dtype=bool)
    for it in range(7):  # the seventh call stops every seed
        H = heads[live]
        L, B = H.shape[:2]
        fd_rows = H.reshape(L, B, 1, m).repeat(m + 1, 2)
        fd_rows[:, :, 1:] += np.eye(m) * h
        fd_rows = _project_controls(fd_rows.reshape(L, -1, K, r)).reshape(L, -1, m)
        rows = np.concatenate([H.reshape(L, B, m), fd_rows], axis=1).reshape(-1, K, r)
        ends, feas, depth = integrate_controls(sys, x, delta, rows, mode, SHOOT_STEPS)
        resid = np.concatenate([ends - y, 10.0 * depth[:, None]], axis=1).reshape(L, B * (m + 2), -1)
        ends, feas = ends.reshape(L, -1, sys.n), feas.reshape(L, -1)
        heads = np.empty((S, len(scales), K, r))
        for j, i in enumerate(live.nonzero()[0]):
            if it == 0:
                k, pen[i] = 0, _norm(resid[j, 0])
            else:
                pen2 = np.sqrt(_columns(np.add, np.square, resid[j, :B]))  # np.linalg.norm(axis=1)
                k = int(pen2.argmin())
                if pen2[k] >= pen[i] - 1e-15:
                    live[i] = False
                    continue
                pen[i] = pen2[k]
            ctrl, fd = H[j, k], resid[j, B:].reshape(B, m + 1, -1)[k]  # the new iterate, its rows
            hit = _norm(ends[j, k] - y)
            if feas[j, k] and hit < miss[i]:
                miss[i], best[i] = hit, ctrl
            live[i] = it < 6 and not miss[i] <= miss_tol
            if live[i]:
                step, *_ = np.linalg.lstsq((fd[1:] - fd[0]).T / h, -fd[0], rcond=None)
                heads[i] = _project_controls((ctrl.reshape(-1) + scales[:, None] * step).reshape(-1, K, r))
        settled = np.logical_and.accumulate(~live)  # no seed up to this one still steps
        first_hit = settled & (miss <= miss_tol)
        if first_hit.any() or not live.any():
            i = int(first_hit.argmax() if first_hit.any() else miss.argmin())
            return (float(miss[i]), best[i]) if miss[i] < math.inf else (math.inf, init_ctrl)


#: RK4 steps of a normal geodesic over its unit time
GEODESIC_STEPS = 32
#: RK4 steps of the geodesic solve until a start comes near y
SEARCH_STEPS = 4
#: Newton iterations of the geodesic solve
GEODESIC_ITERS = 10
#: residual, relative to max(1, |y|), within which a start counts as near y
GEODESIC_NEAR = 1e-3
#: relative change of the upper end under the next Newton step within which a start converges
GEODESIC_RTOL = 3e-10
#: finite-difference step in the covector of the geodesic solve's Jacobian
GEODESIC_FD_STEP = 1e-7
#: multiples of each unit bracket direction at x added to the least-squares covector as starts
BRACKET_SEEDS = (1.0, -1.0, 3.0, -3.0, 6.0, -6.0)


def _newton_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The Newton steps s with J s = -F of a batch of Jacobians J (S, n, n) and residuals F (S, n):
    nan where J or F is not finite or J is singular, so LAPACK never sees a nan or an inf."""
    out = np.full(F.shape, math.nan)
    ok = (np.isfinite(J).all(axis=(1, 2)) & np.isfinite(F).all(axis=1)).nonzero()[0]
    ok = ok[np.linalg.det(J[ok]) != 0]
    out[ok] = np.linalg.solve(J[ok], -F[ok][..., None])[..., 0]
    return out


def _geodesic_upper(sys: WeightedSystem, x: np.ndarray, y: np.ndarray, mode: str) -> float | None:
    """The upper end that the shortest normal geodesic from x to y found by shooting on its
    covector gives, or None when none is found or the shortest leaves the feasible set.

    On equal degrees d the unknown is z = p0 in R^n: (x, p0) flows for unit
    time under the normal geodesic equations of the generators W_j, and the
    upper end is l^(1/d) for the geodesic's length l = |(<p0, W_j(x)>)_j|,
    its constant speed.  On unequal degrees the unknown is z = (p0, log delta):
    (x, p0, delta) flows under the equations of the scaled frame
    V_j = delta^{d_j} W_j, the residual gains |u(0)| - 1 for
    u_j(0) = delta^{d_j} <p0, W_j(x)>, and a unit-speed geodesic of that
    frame reaches y at scale delta, the upper end.  Either way the equations
    are `hormander._geodesic_equations`' (one point kernel), stepped by
    `flows._rk4_step`, and damped Newton moves z.  Its Jacobian is a forward
    difference: a step of GEODESIC_FD_STEP in each unknown, times
    max(1, |p0|) in the covector when scaled, where p0 grows like
    delta^(-d_j).  Every start's trial z and its perturbed rows go in one
    batch per iteration, at most GEODESIC_ITERS of them.  A trial that lowers
    its start's residual is accepted and takes a full Newton step next; one
    that does not halves the step, and a start ends when a quarter step fails
    too, or on a step that is not finite.  The starts are the least-squares
    covector of y - x under sum_j V_j(x) V_j(x)^T, and that covector plus
    BRACKET_SEEDS multiples of each unit degree-2 bracket direction at x;
    scaled, the frame is taken at the scale delta0 where the least-norm
    constant control of y - x in it has norm 1 (read off a log grid around
    |y - x| and |y - x|^(1/max d), then one Newton step), and log delta0 is
    their last unknown.
    The batches take SEARCH_STEPS steps until some start comes within
    GEODESIC_NEAR max(1, |y|) of its target; then only the starts that near
    go on, at GEODESIC_STEPS steps, and only at those steps does a start
    converge: when its residual is at most 1e-9 max(1, |y|) and 1e-7 |y - x|,
    and its upper end's error estimate is at most GEODESIC_RTOL of it.  The
    estimate is the end's change under the next Newton step plus its change,
    through du/dy = grad u J^-1, when x(1) is off by GEODESIC_STEPS half-ulps
    of the largest coordinate in each, the most that the steps' sums round
    by: that rounding swamps a short offset in a bracket direction far from
    the origin.  Once one start has converged, only starts that near go on.
    A converged geodesic whose det(dx(t)/dp0) changes sign at some node has
    passed a conjugate point, so does not minimize, and is dropped.  The
    upper end carries the error of GEODESIC_STEPS RK4 steps, which grows
    with the turn of the arc: 1.3e-5 relative on a Heisenberg arc that turns
    by 5.3 rad.  The least converged upper end counts only when every RK4
    node of its geodesic lies in the chart box and, intrinsic on a chart
    with boundary, at x_n >= -BOUNDARY_TOL.
    """
    n, degrees = sys.n, np.array(sys.degrees, dtype=float)
    scaled = len(set(sys.degrees)) > 1
    m = n + scaled  # unknowns: p0, then log delta when scaled
    W = _field_stack(sys.vfields(), x)  # (r, n)
    if not np.isfinite(W).all():
        return None
    d_eu = _norm(y - x)
    V = W
    if scaled:  # at the scale where the least-norm constant control of y - x in the frame at x has norm 1

        def log_norms(s):  # that control's log norm at the scales e^s, falling as s grows
            return np.log(np.linalg.norm(np.linalg.pinv(W.T * np.exp(s[:, None, None] * degrees)) @ (y - x), axis=1))

        with np.errstate(all="ignore"):
            lo, hi = sorted((d_eu, d_eu ** (1.0 / sys.max_degree)))
            s = np.linspace(math.log(lo) - 3.0, math.log(hi) + 3.0, 64)
            log_delta0 = float(np.interp(0.0, log_norms(s)[::-1], s[::-1]))
            f0, fm, fp = log_norms(log_delta0 + np.array([0.0, -1e-4, 1e-4]))
            if fp < fm:  # one Newton step from the interpolated root
                log_delta0 -= f0 * 2e-4 / (fp - fm)
        V = W * np.exp(log_delta0 * degrees)[:, None]
    p_ls, *_ = np.linalg.lstsq(V.T @ V, y - x, rcond=None)
    brackets = [e.field for e in enumerate_commutators(sys, 2) if len(e.word) == 2 and not e.is_zero]
    starts = [p_ls]
    for b in _field_stack(brackets, x) if brackets else ():
        nb = _norm(b)
        if math.isfinite(nb) and nb > 0:
            starts += [p_ls + c / nb * b for c in BRACKET_SEEDS]
    kernel = symexpr._kernel("point", _geodesic_equations(sys, scaled))

    def upper_ends(Z):  # the upper end each z gives: delta, or the length to the power 1/d
        return np.exp(Z[:, n]) if scaled else np.array([_norm(W @ p) ** (1.0 / sys.degrees[0]) for p in Z])

    def upper_grads(Z, u):  # their gradients in z
        if scaled:
            return np.eye(m)[n] * u[:, None]
        Wp = Z @ W.T  # u = |W p|^(1/d)
        return (u / (sys.degrees[0] * np.square(Wp).sum(axis=1)))[:, None] * (Wp @ W)

    box = sys.box
    c, edge = np.asarray(box.center), np.asarray(box.half_widths) + 1e-9
    scale = max(1.0, _norm(y))
    tol = min(1e-9 * scale, 1e-7 * d_eu)
    # the rounding of x(1): each RK4 step's sum rounds by at most half an ulp of the coordinate
    rounding = 0.5 * GEODESIC_STEPS * np.finfo(float).eps * max(np.abs(x).max(), np.abs(y).max())
    target = np.append(y, 1.0) if scaled else y  # (x(1), |u(0)|) or x(1)
    steps = SEARCH_STEPS
    Z = np.array(starts)
    if scaled:
        Z = np.column_stack([Z, np.full(len(Z), log_delta0)])
    base, base_res = Z, np.full(len(Z), math.inf)  # each start's accepted z and residual
    step, damp = np.zeros_like(Z), np.ones(len(Z))  # its Newton step from base, and the share taken
    found = []  # (upper end, whether every node is feasible) of the converged minimizing candidates
    with np.errstate(all="ignore"):
        for _ in range(GEODESIC_ITERS):
            S = len(Z)
            h = np.full((S, m), GEODESIC_FD_STEP)  # each unknown's step; scaled, the covector's
            if scaled:  # is relative to |p0|, which grows like delta^(-d_j)
                h[:, :n] *= np.maximum(1.0, np.sqrt(np.square(Z[:, :n]).sum(axis=1)))[:, None]
            rows = Z[:, None, :].repeat(m + 1, 1)
            rows[:, 1:] += np.eye(m) * h[:, None, :]
            rows = rows.reshape(-1, m)
            state = rows.copy()  # each row's p0, and its delta when scaled
            if scaled:
                state[:, n] = np.exp(rows[:, n])
            Y = np.concatenate([np.broadcast_to(x, (S * (m + 1), n)), state], axis=1)
            nodes = []  # every row's x at every node
            for _ in range(steps):
                Y = _rk4_step(kernel, Y, 1.0 / steps)
                nodes.append(Y[:, :n])
            G = Y[:, :n]
            if scaled:  # with the speed |u(0)| of each row
                speed = np.sqrt(np.square(state[:, n, None] ** degrees * (rows[:, :n] @ W.T)).sum(axis=1))
                G = np.column_stack([G, speed])
            G = G.reshape(S, m + 1, -1)
            F = G[:, 0] - target
            res = np.sqrt(np.square(F).sum(axis=1))
            J = (G[:, 1:] - G[:, :1]).transpose(0, 2, 1) / h[:, None, :]
            newton = _newton_steps(J, F)
            done = (res <= tol) & (steps == GEODESIC_STEPS)
            if done.any():  # the upper end's error: its change under the next Newton step, and
                # under x(1) off by `rounding` in each coordinate, through du/dy = grad u J^-1
                i = done.nonzero()[0]
                uppers = upper_ends(Z[i])
                du_dy = _newton_steps(J[i].transpose(0, 2, 1), -upper_grads(Z[i], uppers))[:, :n]
                err = np.abs(upper_ends(Z[i] + newton[i]) - uppers) + np.abs(du_dy).sum(axis=1) * rounding
                close = err <= GEODESIC_RTOL * uppers
                done[i], uppers = close, uppers[close]
            if done.any():
                X = np.stack(nodes, axis=1).reshape(S, m + 1, steps, n)[done]
                dets = np.linalg.det((X[:, 1 : n + 1] - X[:, :1]).transpose(0, 2, 1, 3))  # (converged, steps)
                X = X[:, 0]
                ok = np.all(np.abs(X - c) <= edge, axis=(1, 2))
                if mode == "intrinsic" and box.has_boundary:
                    ok &= np.all(X[..., -1] >= -BOUNDARY_TOL, axis=1)
                found += [(float(u), bool(f)) for u, f, d in zip(uppers, ok, dets) if np.all(d * d[-1] > 0)]
            better = res < base_res
            base, base_res = np.where(better[:, None], Z, base), np.where(better, res, base_res)
            step, damp = np.where(better[:, None], newton, step), np.where(better, 1.0, 0.5 * damp)
            Z = base + damp[:, None] * step
            keep = ~done & (damp >= 0.25) & np.isfinite(Z).all(axis=1)
            near = base_res <= GEODESIC_NEAR * scale
            search = steps < GEODESIC_STEPS and (keep & near).any()
            if found or search:
                keep &= near
            if not keep.any():
                break
            Z, base, base_res, step, damp = Z[keep], base[keep], base_res[keep], step[keep], damp[keep]
            if search:  # on to the full steps, from the near starts' trials
                steps, base_res = GEODESIC_STEPS, np.full(len(Z), math.inf)
    if not found:
        return None
    upper, feasible = min(found)
    return upper if feasible else None


def cc_distance(
    sys: WeightedSystem,
    x,
    y,
    mode: str = "intrinsic",
    tol: float = 0.05,
    K: int = 32,
) -> MetricEstimate:
    """Direct-shooting estimate of the CC distance.

    First `_geodesic_upper` solves by Newton for a shortest normal
    geodesic from x to y: on equal degrees d, one of the generators at
    scale 1, whose length l gives the upper end u = l^(1/d); on unequal
    degrees, a unit-speed one of the scaled frame delta^{d_j} W_j, solved
    for its covector and log delta together, whose scale gives u = delta.
    A feasible one that converges gives the interval [(1 - tol) u, u],
    whatever K is.  Pairs where no feasible geodesic is found (the vertical
    Heisenberg pair on the cut locus, a geodesic that leaves the half space
    in intrinsic mode, a start on the singular line of Grushin) run the
    scale search: at each trial scale `_shoot` refines K-segment controls
    toward y, warm-started from the previous scale's control; the scale
    doubles from |x - y| until a control lands and is then bisected to
    relative width `tol`.  There the upper end is a scale at which a
    feasible control reached y within the miss tolerance
    max(5e-4, 0.005 |x - y|), and the lower end the largest scale at which
    the optimizer failed.  When x itself lies within that tolerance of y,
    every scale would hit, so the interval is the unresolved [0, inf], as
    the oracle's is within its arrival tolerance.  Either way shooting is
    deterministic, with no random draw, and its lower end is heuristic,
    not a certificate; on regression scenarios it is cross-checked against
    oracle_distance's upper end.  No hit up to scale DELTA_MAX gives
    [0, inf].  A tol outside (0, 0.5), K < 1, non-finite endpoints and
    endpoints outside the chart (or below {x_n = 0} in intrinsic mode)
    raise ValueError before any search.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must be in (0, 0.5)")
    if K < 1:
        raise ValueError(f"shooting controls need at least one segment, got K = {K}")
    x, y = _check_endpoints(sys, x, y, mode)
    if np.array_equal(x, y):
        return MetricEstimate(0.0, 0.0, "shooting")
    upper = _geodesic_upper(sys, x, y, mode)
    if upper is not None and upper <= DELTA_MAX:
        return MetricEstimate((1.0 - tol) * upper, upper, "shooting")
    d_eu = float(np.linalg.norm(y - x))
    miss_tol = max(5e-4, 0.005 * d_eu)
    if d_eu <= miss_tol:  # x itself hits y: every scale would, down to underflow
        return MetricEstimate(0.0, math.inf, "shooting")
    warm = None

    def hits(delta):
        nonlocal warm
        miss, warm = _shoot(sys, x, y, delta, mode, K, miss_tol, init_ctrl=warm)
        return miss <= miss_tol

    return MetricEstimate(*_scale_search(hits, min(DELTA_MAX, max(1e-3, d_eu)), tol), "shooting")


# -- Monte-Carlo volume ---------------------------------------------------


def ball_volume(
    sys: WeightedSystem,
    x,
    delta: float,
    mode: str = "intrinsic",
    n_samples: int = 20000,
    seed: int = 0,
) -> VolumeEstimate:
    """Monte-Carlo ball volume against the system density.

    A sampled endpoint cloud (1500 controls of 8 segments) fixes the grid
    resolution at 1/32 of its extent (1/22 above dimension 2); the oracle's
    reachable set then provides both the bounding box (its own extents
    plus a one-cell margin, inflated by 1.2) and the membership test for
    uniform box samples, over which the density is averaged.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got delta = {delta}")
    if n_samples < 2:
        raise ValueError(f"a volume estimate needs at least two samples, got n_samples = {n_samples}")
    x = np.asarray(x, dtype=float)
    cloud = sample_ball(sys, x, delta, 1500, K=8, seed=seed, mode=mode)
    pts = np.vstack([cloud.feasible_endpoints(), x[None]])
    spread = np.abs(pts - x).max(axis=0)
    res = np.maximum(2.0 * spread / (32 if sys.n <= 2 else 22), delta * 1e-4)
    graph = reach_graph(sys, x, delta, mode, res=res)
    reached = graph.settled_pts
    lo, hi = reached.min(axis=0) - res, reached.max(axis=0) + res
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = np.maximum(half * 1.2, delta * 1e-3)
    lo, hi = c - half, c + half
    box_c, box_hw = np.asarray(sys.box.center), np.asarray(sys.box.half_widths)
    lo, hi = np.maximum(lo, box_c - box_hw), np.minimum(hi, box_c + box_hw)
    if mode == "intrinsic" and sys.box.has_boundary:
        lo[-1] = max(lo[-1], 0.0)
    rng = np.random.default_rng([seed, 104729])
    samples = rng.random((n_samples, len(lo)))
    for u, a, w in zip(samples.T, lo, hi - lo):  # lo + (hi - lo) * u, one column at a time
        u *= w
        u += a
    hit = graph.contains(samples)
    dens = sys.density_at(samples)
    weights = np.where(hit, dens, 0.0)
    box_measure = float(np.prod(hi - lo))
    value = box_measure * float(weights.mean())
    se = box_measure * float(weights.std(ddof=1)) / math.sqrt(n_samples)
    return VolumeEstimate(value, se, int(hit.sum()), box_measure)
