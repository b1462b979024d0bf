"""Carnot-Caratheodory balls, metrics, and ball volumes.

The unit ball of a weighted system at scale delta is the set of endpoints
of unit-time absolutely continuous paths driven by controls with
sup-in-time L2 norm strictly below one, against the scaled fields
delta^{d_j} W_j.  Two estimators are provided: a brute-force grid-graph
oracle that bounds the distance only from above, and only up to its
discretization, and a faster deterministic direct-shooting estimator
whose lower end is cross-checked against the oracle's upper end.  The
oracle searches in rounds, and each round settles its concurrent
arrivals in grid cells by an order-free rule: least cost, exact ties to
the least arrival index.  Intrinsic mode confines paths to the chart
(x_n >= 0 when the chart has boundary); extrinsic mode allows the whole
box.
"""
from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flows import GUARD_FACTOR, _control_step
from .hormander import WeightedSystem, _field_columns, _field_stack
from .symexpr import _kernel

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
    stores are `_Slots`, settled with `np.minimum.at` and without a sort.

    A round integrates its moves in blocks of at most `ROUND_ROWS` arrival
    rows (floor(ROUND_ROWS / D) frontier points for D directions), so its
    float temporaries are bounded by the block, not the frontier; only
    the kept arrivals (point, cost, move quantum) are joined for the
    settle, which still runs once per round.  Rows are independent and
    nothing is settled before the round ends, so the blocks change no
    bit.  A round's fixed cost is its count of numpy and Python calls, kept
    few with the same bits: one field kernel call, column-by-column folds
    over the n = 2 or 3 coordinates, and the compiled RK4 step.  Its cost
    per arrival avoids numpy's slow broadcast of a length-n vector over
    (N, n) rows: grid indices, membership and the move rates, laid out
    (D, F) with the F frontier points contiguous, go one coordinate
    column at a time.

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
        self._window = _Slots(self._cells, sys.n)  # the settled cells' slot map, which `contains` reads

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

    def run(self, target=None, arrival_tol: float | None = None):
        """Explore within the budget; returns (reached, cost) for a target.

        Label-correcting search with batched rounds: every frontier cell
        expands along every control direction, in blocks of at most
        `ROUND_ROWS` (point, direction) rows.  A targeted round that hits
        returns the least hit cost over all its blocks.  With target None
        the full reachable cell set is computed and (False, inf) returned.

        A targeted run also ends on a proof of a miss.  With the speed
        bound S of `_speed_bound`, every descendant of a frontier point P
        at cost C lies within (1 - C) S of P in each coordinate, so none
        comes closer to the target y than |max(0, |P - y| - (1 - C) S)|.
        When that exceeds the arrival tolerance for every frontier point,
        at the top of a round, no later round can hit, and the run returns
        (False, inf), the full search's answer, at once.  Such a run leaves
        `settled` as it was and does not raise the cell-budget error that
        the full search might have.  Without a proven S the run searches on.
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
        halfspace = self.mode == "intrinsic" and box.has_boundary
        # Box.contains from |y - c|, one coordinate at a time; a nan or inf coordinate fails it
        edge, c = np.asarray(box.half_widths) + 1e-9, np.asarray(box.center)

        if target is not None and np.linalg.norm(self.x0 - target) <= tol:
            return True, 0.0
        speed = None if target is None else self._speed_bound()

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
            # read in (point, direction) order through the transpose
            f_idx, d_idx = live.T.copy().nonzero()
            tau = np.minimum(1.0 / rates.take(d_idx * len(P) + f_idx), remaining[f_idx])
            step = _control_step(vfs, weights.take(d_idx, 0), tau / 2.0)
            Y, ok = P.take(f_idx, 0), True  # ok: and-ed with the box test after each step
            for _ in range(2):
                Y = step(Y)
                ok &= _columns(np.logical_and, lambda y, c, e: np.abs(y - c) <= e, Y, c, edge)
                if halfspace:
                    ok &= Y[:, -1] >= -BOUNDARY_TOL
            # a live move has C < 1 - 1e-12 and tau <= 1 - C, so C + tau <= 1 + 2^-52: no cost cap
            m = ok.nonzero()[0]
            Y, costs, tau = Y.take(m, 0), C[f_idx[m]] + tau[m], tau[m]
            near = slice(0) if target is None else np.sqrt(_columns(np.add, lambda y, t: np.square(y - t), Y, target)) <= tol
            return Y, costs, tau, costs[near]

        x0 = self.x0[None]
        cells, halves = _Slots(self._cells, self.sys.n), _Slots(self._halves, 0)
        s, _, _ = cells.settle(list(self._index(x0, 1.0)), np.zeros(1))
        cells.pts[s] = x0
        # expansion frontier: (position, cost) arrivals, deduplicated on a
        # half-cell grid; arrivals within one move quantum of their
        # cell's best cost still expand, so well-positioned but slightly
        # costlier through-paths are not starved by near-corner arrivals
        P, C = x0, np.zeros(1)
        rounds = 0
        step = max(1, ROUND_ROWS // len(self.dirs))  # frontier points per block
        with np.errstate(all="ignore"):
            while len(P):
                if speed is not None and unreachable(P, C):
                    return False, math.inf
                rounds += 1
                blocks = [moves(P[i : i + step], C[i : i + step]) for i in range(0, len(P), step)]
                Y, costs, tau, hits = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
                del blocks  # past the join only the joined arrays are needed
                if len(hits):
                    return True, float(hits.min())

                s, best, won = cells.settle(list(self._index(Y, 1.0)), costs)
                cells.pts[s.take(won)] = Y.take(won, 0)
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

    def _speed_bound(self):
        """Per-coordinate speeds S that every oracle path from x0 keeps to, or None.

        S_i >= |sum_j u_j delta^d_j W_ji| for all |u| <= 1 (Cauchy-Schwarz
        on the enclosures of the fields, their tuple's interval kernel) over a box B.
        A guess G, the enclosure over the guard box, gives B = x0 +- (G (1 +
        1e-9) + 1e-9), and the enclosure S over B is proven when S <= G in
        every coordinate: a path of time t <= 1 whose speeds keep within S
        stays in x0 +- t S, inside B, so its speeds do keep within S, and
        every RK4 stage of every move stays in B.  The margins cover the
        rounding of the steps and of the costs, which may pass 1 by an ulp.
        An S that is not finite, or exceeds G, proves nothing.
        """

        def speeds(lo, hi):
            W_lo, W_hi = (w.reshape(self.sys.r, -1) for w in _kernel("interval", self.sys.vfields())(lo, hi))
            with np.errstate(all="ignore"):  # 0 * inf is nan, which is not finite
                return np.sqrt(np.square(np.maximum(np.abs(W_lo), np.abs(W_hi)) * self.factors[:, None]).sum(axis=0))

        box = self.sys.box
        hw = np.asarray(box.half_widths) * GUARD_FACTOR + 1e-9
        c = np.asarray(box.center, dtype=float)
        guess = speeds(c - hw, c + hw)
        reach = guess * (1.0 + 1e-9) + 1e-9
        S = speeds(self.x0 - reach, self.x0 + reach)
        return S * (1.0 + 1e-9) if np.isfinite(S).all() and (S <= guess).all() else None

    def contains(self, points: np.ndarray, dilate: int = 0) -> np.ndarray:
        """Membership of points (N, n) in the explored reachable set (cell level).

        With dilate=1 a point also counts when any neighboring cell was
        settled, absorbing quantization at the set's surface.  Index, range
        test and key are taken one coordinate column at a time, and the key
        is read in the last run's slot map of cells.
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
        out[inside] = w.slot.take(_ravel([i[inside] for i in idx], w.lo, w.shape)) >= 0
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
    """Best costs of the grid cells one search has reached, by grid index.

    An int32 slot map over a window of the grid's indices holds each
    reached cell's slot (-1 for none) in compact per-slot arrays: its best
    cost and the n_pts coordinates of one representative point.  The
    window grows to cover each round's indices, by a margin of about 1/8
    of its span and at least 2 cells, clipped to the chart's index range,
    so it spans the explored index box, not the chart's.  A new cell's
    slot is found without a sort: `np.minimum.at` writes -2 - position
    into the map, which picks one arrival per new cell.
    """

    def __init__(self, grid, n_pts: int):
        self.grid = grid  # the chart's index range (lowest index, shape)
        n = len(grid[1])
        self.lo, self.hi, self.shape = [math.inf] * n, [-math.inf] * n, (0,) * n
        self.slot = np.empty(0, dtype=np.int32)
        self.size, self.n_pts = 0, n_pts
        self.cost, self.pts, self.scratch = np.empty(0), np.empty((0, n_pts)), np.empty(0, dtype=np.int32)

    def _cover(self, idx) -> None:
        """Grow the window to cover grid indices idx, one float column per coordinate."""
        need = [(np.minimum.reduce(c, initial=math.inf), np.maximum.reduce(c, initial=-math.inf)) for c in idx]
        if all(lo <= a and b <= hi for (a, b), lo, hi in zip(need, self.lo, self.hi)):
            return
        old, lo, hi = self.lo, [], []  # a few floats: plain Python beats numpy here
        for (a, b), l, h, g, m in zip(need, self.lo, self.hi, *self.grid):
            margin = max(2.0, (max(h, b) - min(l, a) + 1) // 8)
            lo.append(float(max(a - margin, g)) if a < l else l)
            hi.append(float(min(b + margin, g + m - 1)) if b > h else h)
        shape = tuple(int(b - a) + 1 for a, b in zip(lo, hi))
        slot = np.full(shape, -1, dtype=np.int32)
        if self.slot.size:
            slot[tuple(slice(int(a - b), int(a - b) + m) for a, b, m in zip(old, lo, self.shape))] = self.slot.reshape(self.shape)
        self.lo, self.hi, self.shape, self.slot = lo, hi, shape, slot.reshape(-1)

    def _slots(self, idx) -> np.ndarray:
        """Each arrival's slot, from its grid indices as float columns, which it overwrites;
        cells not reached before get new slots, with cost inf."""
        self._cover(idx)
        k = _ravel(idx, self.lo, self.shape)
        s = self.slot.take(k)
        new = (s < 0).nonzero()[0]
        if new.size:
            k = k.take(new)
            first = -2 - np.arange(new.size, dtype=np.int32)
            np.minimum.at(self.slot, k, first)
            rep = k[self.slot.take(k) == first]
            end = self.size + rep.size
            if end > self.cost.size:
                cap = max(2 * self.cost.size, end, 64)
                self.cost = np.concatenate([self.cost, np.full(cap - self.cost.size, math.inf)])
                self.pts = np.concatenate([self.pts, np.empty((cap - len(self.pts), self.n_pts))])
                self.scratch = np.empty(cap, dtype=np.int32)
            self.slot[rep] = np.arange(self.size, end, dtype=np.int32)
            self.size = end
            s[new] = self.slot.take(k)
        return s

    def settle(self, idx, c: np.ndarray):
        """Lower each cell's best cost to the least of its arrivals' costs c.

        idx are the arrivals' grid indices (float columns, overwritten).
        Returns each arrival's slot, its cell's best cost after the round,
        and the indices, in order, of the arrivals that set a best cost
        that fell: per such cell the least index with c equal to it, found
        by a second `np.minimum.at`.  So ties go to the least index, and
        no result depends on the order in which numpy scatters.
        """
        s = self._slots(idx)
        before = self.cost.take(s)
        np.minimum.at(self.cost, s, c)
        after = self.cost.take(s)
        i = ((c < before) & (c == after)).nonzero()[0]
        si = s.take(i)
        self.scratch[si] = c.size
        np.minimum.at(self.scratch, si, i.astype(np.int32))
        return s, after, i[self.scratch.take(si) == i]

    def settled(self):
        """The reached cells' int64 keys on the chart grid, sorted, with their costs and points.

        Row-major order is the order of index tuples in any box, so the
        window's occupied positions come in chart-key order."""
        w = (self.slot >= 0).nonzero()[0]
        s = self.slot.take(w)
        keys = _ravel([i + a for i, a in zip(np.unravel_index(w, self.shape), self.lo)], *self.grid)
        return keys, self.cost.take(s), self.pts.take(s, 0)


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


def _gauss_newton_polish(y, ctrl, miss_tol):
    """Local refinement of one control by damped Gauss-Newton on the endpoint.

    The residual carries the boundary-violation depth, weighted by 10, as
    an extra component, so the iteration (at most six steps) can slide
    along an active halfspace constraint instead of stalling at it; only
    feasible iterates count as results.

    A stepper that integrates nothing itself: it yields control rows
    (S, K, r), is sent back their `integrate_controls` ends, feasibility
    and violation depths, and returns (best miss, best control).  Each
    step yields one batch: the five line-search candidates and, ahead of
    need, each candidate's m + 1 finite-difference rows (m = K r); the
    next step reads the accepted candidate's rows.  The first batch
    carries the start control and its rows in the same way.
    """
    y = np.asarray(y, dtype=float)
    K, r = ctrl.shape
    m = K * r
    h = 1e-4
    scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])

    def rows(heads):
        """The controls heads (B, K, r), then each one's projected finite-difference rows."""
        fd = heads.reshape(len(heads), 1, m).repeat(m + 1, 1)
        fd[:, 1:] += np.eye(m) * h
        return np.concatenate([heads, _project_controls(fd.reshape(-1, K, r))])

    def split(B, ends, feas, depth):
        """The heads' ends, feasibility and residuals, and per head the
        (m + 1) residuals of its finite-difference rows."""
        resid = np.concatenate([ends - y, 10.0 * depth[:, None]], axis=1)
        return ends[:B], feas[:B], resid[:B], resid[B:].reshape(B, m + 1, -1)

    p = _project_controls(np.asarray(ctrl, dtype=float))
    ends, feas, resid, fd = split(1, *(yield rows(p[None])))
    best_pen = _norm(resid[0])
    best_miss = _norm(ends[0] - y) if feas[0] else math.inf
    best_ctrl, fd = p, fd[0]
    for _ in range(6):
        if best_miss <= miss_tol:
            break
        jac = (fd[1:] - fd[0]).T / h  # (n+1, m)
        step, *_ = np.linalg.lstsq(jac, -fd[0], rcond=None)
        cands = _project_controls((p.reshape(-1) + scales[:, None] * step[None]).reshape(len(scales), K, r))
        e2, f2, r2, fd2 = split(len(cands), *(yield rows(cands)))
        pen2 = np.sqrt(_columns(np.add, np.square, r2))  # np.linalg.norm(r2, axis=1)
        k = int(pen2.argmin())
        if pen2[k] >= best_pen - 1e-15:
            break
        best_pen = float(pen2[k])
        p, fd = cands[k], fd2[k]
        miss2 = _norm(e2[k] - y)
        if f2[k] and miss2 < best_miss:
            best_miss = miss2
            best_ctrl = p
    return best_miss, best_ctrl


def _shoot(sys, x, y, delta, mode, K, miss_tol, init_ctrl=None):
    """Deterministic shooting at one scale; returns the best miss and its control.

    The warm start, when given, and then a least-squares constant control
    each seed a Gauss-Newton refinement; the result is the sequential
    rule's: the first refinement that lands within miss_tol, else the one
    with the smallest miss, earlier seeds winning ties.  The refinements
    run in lockstep, each step's rows of every unfinished seed in one
    `integrate_controls` call, until that rule's outcome is known.  Rows
    of a batch are independent, so each seed's result has the bits of a
    run on its own.  When no refinement reaches a feasible endpoint the
    miss is inf and the warm start comes back unchanged.
    """
    factors = np.array([delta**d for d in sys.degrees])
    mid = 0.5 * (np.asarray(x) + np.asarray(y))
    cols = _field_columns(sys.vfields(), mid).T * factors
    a0, *_ = np.linalg.lstsq(cols, np.asarray(y) - np.asarray(x), rcond=None)
    nrm = np.linalg.norm(a0)
    if nrm > 0.9:
        a0 *= 0.9 / nrm
    informed = a0[None].repeat(K, 0)
    seeds = [informed] if init_ctrl is None else [init_ctrl, informed]
    steppers = [_gauss_newton_polish(y, seed_ctrl, miss_tol) for seed_ctrl in seeds]
    batches = [next(g) for g in steppers]
    results = [None] * len(steppers)
    while True:
        best_miss, best_ctrl = math.inf, init_ctrl
        for res in results:
            if res is None:  # the outcome waits on this seed
                break
            if res[0] < best_miss:
                best_miss, best_ctrl = res
            if best_miss <= miss_tol:
                return best_miss, best_ctrl
        else:
            return best_miss, best_ctrl
        live = [i for i, res in enumerate(results) if res is None]
        out = integrate_controls(sys, x, delta, np.concatenate([batches[i] for i in live]), mode, SHOOT_STEPS)
        stop = 0
        for i in live:
            start, stop = stop, stop + len(batches[i])
            try:
                batches[i] = steppers[i].send([a[start:stop] for a in out])
            except StopIteration as done:
                results[i] = done.value


def cc_distance(
    sys: WeightedSystem,
    x,
    y,
    mode: str = "intrinsic",
    tol: float = 0.05,
    K: int = 32,
) -> MetricEstimate:
    """Direct-shooting estimate of the CC distance.

    At each trial scale `_shoot` refines K-segment controls toward y,
    warm-started from the previous scale's control; the scale doubles
    from |x - y| until a control lands and is then bisected to relative
    width `tol`.  Shooting is deterministic: there is no random draw.
    The upper end is a scale at which a feasible control reached y
    within the miss tolerance.  The lower end is the largest scale at
    which the optimizer failed, so it is heuristic, not a certificate;
    on regression scenarios it is cross-checked against oracle_distance's
    upper end.  No hit up to scale DELTA_MAX gives [0, inf].  A tol
    outside (0, 0.5), K < 1, non-finite endpoints and endpoints outside
    the chart (or below {x_n = 0} in intrinsic mode) raise ValueError
    before any search.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must be in (0, 0.5)")
    if K < 1:
        raise ValueError(f"shooting controls need at least one segment, got K = {K}")
    x, y = _check_endpoints(sys, x, y, mode)
    if np.array_equal(x, y):
        return MetricEstimate(0.0, 0.0, "shooting")
    d_eu = float(np.linalg.norm(y - x))
    miss_tol = max(5e-4, 0.005 * d_eu)
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
