"""Carnot-Caratheodory balls, metrics, and ball volumes.

The unit ball of a weighted system at scale delta is the set of endpoints
of unit-time absolutely continuous paths driven by controls with
sup-in-time L2 norm strictly below one, against the scaled fields
delta^{d_j} W_j.  Two estimators are provided: a brute-force grid-graph
oracle that bounds the distance only from above, and only up to its
discretization, and a faster deterministic direct-shooting estimator
whose lower end is cross-checked against the oracle's upper end.
Intrinsic mode confines paths to the chart (x_n >= 0 when the chart has
boundary); extrinsic mode allows the whole box.
"""
from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flows import GUARD_FACTOR, _control_step, _field_stack
from .hormander import WeightedSystem

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

    def intersects(self, other: "MetricEstimate", slack: float = 0.0) -> bool:
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
    """ValueError unless p lies in the chart box (so is finite) and, with
    `halfspace` on a chart with boundary, not below {x_n = 0}."""
    p = np.asarray(p, dtype=float)
    if not box.contains(p[None])[0] or (halfspace and box.has_boundary and p[-1] < -BOUNDARY_TOL):
        raise ValueError(f"{point} point is not in the chart")


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
    """Monte-Carlo endpoint cloud of the ball B(x, delta)."""
    _check_mode(mode)
    if n_samples < 1:
        raise ValueError(f"a ball sample needs at least one control, got n_samples = {n_samples}")
    if K < 1:
        raise ValueError(f"ball controls need at least one segment, got K = {K}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"ball radius must be finite and non-negative, got delta = {delta}")
    x = np.asarray(x, dtype=float)
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
    that ends without reaching a target leaves `settled`, the sorted keys
    of the reached cells, with `settled_cost` (their best costs) and
    `settled_pts` (one representative exact point per cell) aligned to
    it; this gives a reusable membership test for the reachable set
    within the time budget.  Before such a run the three are empty.

    A frontier round settles its arrivals in cells, then the expanding
    ones in half-cells, with the same costs, points and frontier, bit for
    bit, as a loop over the arrivals in order.  Best costs only fall
    within a round, so an arrival that its key's stored best cost already
    rules out can change nothing: `_sift` sorts the round's keys once,
    looks each one up once and drops such arrivals; `_relax` takes the
    rest as a running minimum per key, replaying exactly only the keys
    with an arrival inside a 1e-12 tie window.

    A round integrates its moves in blocks of at most `ROUND_ROWS` arrival
    rows (floor(ROUND_ROWS / D) frontier points for D directions), so its
    float temporaries are bounded by the block, not the frontier; only
    the kept arrivals (point, cost, move quantum) are joined for the
    settle, which still runs once per round.  Rows are independent and
    nothing is settled before the round ends, so the blocks change no
    bit.  A round's fixed cost is its count of numpy and Python calls, kept
    few with the same bits: one field kernel call, column-by-column folds
    over the n = 2 or 3 coordinates, and the compiled RK4 step.
    """

    def __init__(self, sys: WeightedSystem, x, delta: float, mode: str = "intrinsic", res=0.02):
        self.sys = sys
        self.x0 = np.asarray(x, dtype=float)
        self.delta = float(delta)
        self.mode = _check_mode(mode)
        self.res = _check_resolution(res, sys.n)
        self.factors = np.array([delta**d for d in sys.degrees])
        self.dirs = _move_directions(sys.r)
        # arrivals pass Box.contains, so their indices lie in the box's range
        c = np.asarray(sys.box.center, dtype=float)
        hw = np.asarray(sys.box.half_widths, dtype=float) + 1e-9
        self._cells, self._halves = (self._index_range(c - hw, c + hw, s) for s in (1.0, 2.0))
        self.settled = np.empty(0, dtype=np.int64)
        self.settled_cost = np.empty(0)
        self.settled_pts = np.empty((0, sys.n))

    def _index(self, p: np.ndarray, scale: float) -> np.ndarray:
        """Grid indices (as floats) of points on the 1/scale cell grid."""
        q = (p - self.x0) / self.res
        return np.floor((q if scale == 1.0 else q * scale) + 0.5)  # q * 1.0 is q, bit for bit

    def _index_range(self, lo_pt, hi_pt, scale: float) -> tuple[np.ndarray, tuple[int, ...]]:
        """Lowest index and shape of the index range of a box, one-cell margin."""
        lo = self._index(lo_pt, scale) - 1
        hi = self._index(hi_pt, scale) + 1
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError(f"oracle grid around {self.x0.tolist()} at resolution {self.res.tolist()} is not finite")
        shape = tuple(int(v) for v in hi - lo + 1)
        if math.prod(shape) > np.iinfo(np.int64).max:
            raise ValueError(f"oracle grid of {shape} cells does not fit int64 keys; coarsen the resolution")
        return lo, shape

    @staticmethod
    def _keys(idx: np.ndarray, grid) -> np.ndarray:
        """np.ravel_multi_index's int64 keys of grid indices, one column at a time.  Only
        rows that passed the box (or, in `_settled_at`, range) test are keyed: in range."""
        lo, shape = grid
        i = (idx - lo).astype(np.int64)
        key = i[:, 0]
        for j in range(1, len(shape)):
            key = key * shape[j] + i[:, j]
        return key

    def run(self, target=None, arrival_tol: float | None = None):
        """Explore within the budget; returns (reached, cost) for a target.

        Label-correcting search with batched rounds: every frontier cell
        expands along every control direction, in blocks of at most
        `ROUND_ROWS` (point, direction) rows.  A targeted round that hits
        returns the least hit cost over all its blocks.  With target None
        the full reachable cell set is computed and (False, inf) returned.
        """
        target = None if target is None else np.asarray(target, dtype=float)
        tol = float(arrival_tol) if arrival_tol is not None else float(np.linalg.norm(self.res))
        vfs = self.sys.vfields()
        factors, dirs, res = self.factors[:, None], self.dirs, self.res
        weights = dirs * self.factors  # (D, r) control coefficients per direction
        box = self.sys.box
        halfspace = self.mode == "intrinsic" and box.has_boundary
        # Box.contains from |y - c|, one coordinate at a time; a nan or inf coordinate fails it
        edge, c = np.asarray(box.half_widths) + 1e-9, np.asarray(box.center)

        _check_in_chart(box, self.x0, halfspace)
        if target is not None and np.linalg.norm(self.x0 - target) <= tol:
            return True, 0.0

        def moves(P, C):
            """The kept arrivals (Y, cost, tau) of frontier points P at costs C,
            in (point, direction) order, and the costs of those that hit the target."""
            # move rates: V[f, :, d] = sum_j dirs[d, j] (delta^d_j W_j)(P_f),
            # summed left to right in j; up to the sign of a zero, which
            # abs drops, this is einsum("dr,frn->fdn") bit for bit
            W = _field_stack(vfs, P)  # (F, r, n)
            W *= factors
            V = W[:, 0, :, None] * dirs[:, 0]
            for j in range(1, len(factors)):
                V = V + W[:, j, :, None] * dirs[:, j]  # (F, n, D)
            rates = _columns(np.maximum, np.divide, np.abs(V), res)  # (F, D)
            remaining = 1.0 - C
            live = (rates > 1e-14) & (remaining[:, None] > 1e-12)
            f_idx, d_idx = live.nonzero()
            tau = np.minimum(1.0 / rates[live], remaining[f_idx])
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
        cell_keys = self._keys(self._index(x0, 1.0), self._cells)
        cell_cost, cell_pts = np.zeros(1), x0.copy()
        # expansion frontier: (position, cost) arrivals, deduplicated on a
        # half-cell grid; arrivals within one move quantum of their
        # cell's best cost still expand, so well-positioned but slightly
        # costlier through-paths are not starved by near-corner arrivals
        P, C = x0, np.zeros(1)
        half_keys, half_cost = np.empty(0, dtype=np.int64), np.empty(0)
        rounds = 0
        step = max(1, ROUND_ROWS // len(self.dirs))  # frontier points per block
        with np.errstate(all="ignore"):
            while len(P):
                rounds += 1
                blocks = [moves(P[i : i + step], C[i : i + step]) for i in range(0, len(P), step)]
                Y, costs, tau, hits = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
                del blocks  # past the join only the joined arrays are needed
                if len(hits):
                    return True, float(hits.min())

                keys = self._keys(self._index(Y, 1.0), self._cells)
                cell_keys, cell_cost, cell_pts, expand = _settle_cells(cell_keys, cell_cost, cell_pts, keys, costs, tau, Y)
                Y, costs = Y.take(expand, 0), costs[expand]
                keys = self._keys(self._index(Y, 2.0), self._halves)
                half_keys, half_cost, nxt = _settle_halves(half_keys, half_cost, keys, costs)
                P, C = Y.take(nxt, 0), costs[nxt]

                if len(cell_keys) > MAX_CELLS:
                    raise RuntimeError(
                        f"oracle cell budget exceeded: {len(cell_keys)} cells settled, max_cells "
                        f"{MAX_CELLS}, after {rounds} frontier rounds at resolution "
                        f"{self.res.tolist()}; coarsen the resolution"
                    )
        self.settled, self.settled_cost, self.settled_pts = cell_keys, cell_cost, cell_pts
        return False, math.inf

    def contains(self, points: np.ndarray, dilate: int = 0) -> np.ndarray:
        """Membership of points in the explored reachable set (cell level).

        With dilate=1 a point also counts when any neighboring cell was
        settled, absorbing quantization at the set's surface.
        """
        points = np.asarray(points, dtype=float)
        idx = self._index(points, 1.0)
        out = self._settled_at(idx)
        if dilate > 0:
            miss = np.flatnonzero(~out)
            for o in itertools.product(range(-dilate, dilate + 1), repeat=points.shape[1]):
                out[miss] |= self._settled_at(idx[miss] + np.array(o))
        if self.mode == "intrinsic" and self.sys.box.has_boundary:
            out &= points[:, -1] >= -BOUNDARY_TOL
        return out

    def _settled_at(self, idx: np.ndarray) -> np.ndarray:
        """Whether each cell index (float, any value) is a settled cell."""
        lo, shape = self._cells
        inside = _columns(np.logical_and, lambda i, a, b: (i >= a) & (i < b), idx, lo, lo + shape)
        out = np.zeros(len(idx), dtype=bool)
        out[inside] = _lookup(self.settled, self.settled_cost, self._keys(idx[inside], self._cells))[1]
        return out


def _runs(v: np.ndarray) -> np.ndarray:
    """Flags of the first entry of each run of equal values in v."""
    new = np.empty(v.size, dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return new


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") of int64 keys.  Where it fits in int64,
    one unstable sort of (key - lo) * 2^b + index, for lo <= every key and
    2^b > len(keys): that value is unique per arrival, so its order is the
    stable one, and numpy sorts plain int64 values much faster."""
    b = keys.size.bit_length()
    lo = np.minimum.reduce(keys, initial=0)
    if int(np.maximum.reduce(keys, initial=0)) - int(lo) >= 1 << (63 - b):
        return keys.argsort(kind="stable")
    c = (keys - lo) << b
    c |= np.arange(keys.size)
    c.sort()
    return c & ((1 << b) - 1)


def _sift(store_keys: np.ndarray, store_cost: np.ndarray, keys: np.ndarray, keep):
    """Group a round's arrivals by key and drop those their key's stored best cost rules out.

    The keys are sorted once, stably, so each group keeps its arrivals in
    arrival order, and each distinct key is looked up once, in key order
    (see `_lookup`).  `keep(order, stored)` flags, of the arrivals taken in
    the sorted order `order`, those that may still act given their key's
    stored cost (inf if absent).  Returns the kept arrivals' indices s,
    grouped in key order; each one's group; each group's start in s; and
    per group its key, store position, presence and stored cost.
    """
    order = _stable_order(keys)
    sorted_keys = keys[order]
    new = _runs(sorted_keys)
    group = new.cumsum() - 1
    distinct = sorted_keys[new]
    pos, found, stored = _lookup(store_keys, store_cost, distinct)
    kept = keep(order, stored[group]).nonzero()[0]
    new = _runs(group[kept])
    starts = new.nonzero()[0]
    g = group[kept[starts]]
    return order[kept], new.cumsum() - 1, starts, (distinct[g], pos[g], found[g], stored[g])


def _lookup(store_keys: np.ndarray, store_cost: np.ndarray, keys: np.ndarray):
    """Positions of keys in a sorted store, their presence, and stored costs (inf if absent)."""
    pos = store_keys.searchsorted(keys)
    if not store_keys.size:
        return pos, np.zeros(keys.size, dtype=bool), np.full(keys.size, math.inf)
    at = np.minimum(pos, store_keys.size - 1)  # a key past the last stored one is absent
    found = store_keys[at] == keys
    return pos, found, np.where(found, store_cost[at], math.inf)


def _relax(costs: np.ndarray, group: np.ndarray, starts: np.ndarray, best: np.ndarray):
    """Replay `if c < best - 1e-12: best = c` over arrivals in order, per group.

    The arrivals come grouped: group[i] is arrival i's, starts the first
    arrival of each, in arrival order within a group.  best holds each
    group's stored cost and is updated in place.  Returns each arrival's
    best-before and improved flag, and per group the last improving
    arrival (-1 for none).

    Let m be the least of a group's stored cost and its earlier arrivals'
    costs.  An arrival below m - 1e-12 becomes the best and one at or
    above m leaves it, so until an arrival lands in the tie window
    [m - 1e-12, m), or is nan, the best is m: a running minimum, taken
    for every group at once by doubling, in log2 of the longest group
    passes.  Such an arrival misleads only the later ones of its group,
    so only the groups with one before their last arrival are replayed
    exactly, one rank at a time.
    """
    N = costs.size
    seen = np.empty(N)  # the least cost before each arrival: shifted by one, then a running min
    seen[1:] = costs[:-1]
    seen[starts] = best
    counts = np.bincount(group, minlength=starts.size)
    d, longest = 1, np.maximum.reduce(counts, initial=0)
    while d < longest:  # numpy reads the overlapping input as it was before the pass
        np.minimum(seen[d:], seen[:-d], out=seen[d:], where=group[d:] == group[:-d])
        d *= 2
    improved = costs < seen - 1e-12
    tie = ~(improved | (costs >= seen))
    tie[starts - 1] = False  # the last arrival of each group (starts[0] - 1 is the very last)
    last = np.maximum.reduceat(np.arange(1, N + 1) * improved - 1, starts) if N else np.empty(0, dtype=np.intp)
    tied = group[tie]
    if tied.size:  # in plain floats, which compare and subtract as float64 does
        flag = np.zeros(starts.size, dtype=bool)
        flag[tied] = True
        replay = flag[group].nonzero()[0]  # their arrivals, group by group
        tied = flag.nonzero()[0]
        cs, stored, at = costs[replay].tolist(), best[tied].tolist(), [-1] * tied.size
        was, up, i = cs[:], [False] * len(cs), 0
        for k, n in enumerate(counts[tied].tolist()):
            b = stored[k]
            for i in range(i, i + n):
                was[i] = b
                if cs[i] < b - 1e-12:
                    b, up[i], at[k] = cs[i], True, i
            stored[k], i = b, i + 1
        seen[replay], improved[replay], best[tied] = was, up, stored
        at = np.array(at, dtype=np.intp)
        last[tied] = np.where(at >= 0, replay[at], -1)
    np.copyto(best, costs[last], where=last >= 0)
    return seen, improved, last


def _settle_cells(cell_keys, cell_cost, cell_pts, keys, costs, tau, pts):
    """Settle one round's arrivals in their cells.

    Bit for bit the loop over arrivals in order: one cheaper than its
    cell's best by more than 1e-12 becomes the cell's cost and point, and
    one costlier than the best it saw by more than its move quantum tau
    (plus 1e-12) does not expand.  Returns the updated sorted store and
    the indices of the expanding arrivals, in order.
    """
    s, group, starts, (cells, pos, found, best) = _sift(cell_keys, cell_cost, keys, lambda o, b: ~(costs[o] > b + tau[o] + 1e-12))
    c, t = costs[s], tau[s]
    seen, improved, last = _relax(c, group, starts, best)
    expand = np.zeros(keys.size, dtype=bool)
    expand[s[improved | ~(c > seen + t + 1e-12)]] = True
    cell_keys, cell_cost, cell_pts = _merge(
        cell_keys, (cell_cost, cell_pts), cells, pos, found, last >= 0, (best, pts.take(s[last], 0))
    )
    return cell_keys, cell_cost, cell_pts, expand.nonzero()[0]


def _settle_halves(half_keys, half_cost, keys, costs):
    """Settle one round's expanding arrivals in their half-cells.

    Bit for bit the loop over arrivals in order: one cheaper than its
    half-cell's best by more than 1e-12 is accepted and becomes the
    best.  Returns the updated sorted store and the next frontier: per
    accepted half-cell its last accepted arrival, in the order of first
    acceptance.  After the sift every group's first arrival is accepted.
    """
    s, group, starts, (halves, pos, found, best) = _sift(half_keys, half_cost, keys, lambda o, b: costs[o] < b - 1e-12)
    _, _, last = _relax(costs[s], group, starts, best)
    half_keys, half_cost = _merge(half_keys, (half_cost,), halves, pos, found, last >= 0, (best,))
    return half_keys, half_cost, s[last[s[starts].argsort()]]


def _merge(store_keys: np.ndarray, cols: tuple, keys, pos, found, sel, vals: tuple) -> list:
    """Write the selected groups' values into a sorted store, inserting new keys;
    returns the store's keys and columns.

    The groups come in key order, so the i-th new key lands at its store
    position plus i; the merged positions are found once for every column.
    """
    old, new = sel & found, sel & ~found
    for col, v in zip(cols, vals):
        col[pos[old]] = v[old]
    at = pos[new]
    at += np.arange(at.size)
    kept = np.ones(store_keys.size + at.size, dtype=bool)  # the merged store's slots of old keys
    kept[at] = False
    out = []
    for col, v in zip((store_keys, *cols), (keys, *vals)):
        merged = np.empty((kept.size,) + col.shape[1:], dtype=col.dtype)
        merged[kept] = col
        merged[at] = v[new]
        out.append(merged)
    return out


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


def reach_graph(sys: WeightedSystem, x, delta: float, mode: str = "intrinsic", res=0.02) -> ReachGraph:
    """Fully explored reachable set of B(x, delta) at cell resolution `res`."""
    g = ReachGraph(sys, x, delta, mode, res)
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
    first midpoint is that step's scale, and its answer is reused.
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
    cols = np.stack([vf.eval_many(mid) for vf in sys.vfields()], axis=1) * factors
    if not np.isfinite(cols).all():
        raise ValueError(f"generator fields are not finite at the midpoint {tuple(mid.tolist())}")
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
    samples = lo + (hi - lo) * rng.random((n_samples, len(lo)))
    hit = graph.contains(samples)
    dens = sys.density_at(samples)
    weights = np.where(hit, dens, 0.0)
    box_measure = float(np.prod(hi - lo))
    value = box_measure * float(weights.mean())
    se = box_measure * float(weights.std(ddof=1)) / math.sqrt(n_samples)
    return VolumeEstimate(value, se, int(hit.sum()), box_measure)
