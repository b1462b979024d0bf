"""Weighted vector-field systems, commutator generation, and span checks.

A weighted system is a list of (field, formal degree) pairs on a box
chart, optionally restricted to the half space {x_n >= 0}.  Iterated
right-nested brackets of the generators are enumerated up to a given
order, and spanning of the tangent space is certified through maximal
n-column determinants.  Brackets are built only here, once per system
object and order, and every consumer shares them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .symexpr import Const, Expr, VField, _kernel, lie_bracket, to_string

__all__ = [
    "Box",
    "WeightedSystem",
    "CommutatorEntry",
    "HormanderReport",
    "bracket_entry",
    "enumerate_commutators",
    "build_Z_system",
    "check_hormander",
]

#: determinants below 1e-12 times the column scale are treated as zero
DET_FLOOR = 1e-12

#: above this many candidate columns the subset scan switches to greedy
EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box chart, optionally restricted to {x_n >= 0}."""

    half_widths: tuple[float, ...]
    center: tuple[float, ...] = ()
    has_boundary: bool = False

    def __post_init__(self):
        if not self.center:
            object.__setattr__(self, "center", (0.0,) * len(self.half_widths))
        if len(self.center) != len(self.half_widths):
            raise ValueError("center and half_widths must share length")
        if any(h <= 0 for h in self.half_widths):
            raise ValueError("half widths must be positive")

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Per-point box membership to within 1e-9; the half-space cut is checked separately."""
        points = np.asarray(points, dtype=float)
        hw = np.asarray(self.half_widths)
        c = np.asarray(self.center)
        return np.all(np.abs(points - c) <= hw + 1e-9, axis=-1)

    def grid(self, per_axis: int) -> np.ndarray:
        """Uniform grid over the chart (restricted to x_n >= 0 if bounded)."""
        axes = []
        for i, (h, c) in enumerate(zip(self.half_widths, self.center)):
            lo, hi = c - h, c + h
            if self.has_boundary and i == self.dim - 1:
                lo = max(lo, 0.0)
            axes.append(np.linspace(lo, hi, per_axis))
        return _grid(axes)


def _grid(axes) -> np.ndarray:
    """Cartesian product of 1-D coordinate axes, one point per row (last axis fastest)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class WeightedSystem:
    """Hormander vector fields with formal degrees on a box chart."""

    fields: tuple[tuple[VField, int], ...]
    box: Box
    density: Expr = Const(1.0)
    words: tuple[tuple[int, ...], ...] | None = None  # bracket provenance, if derived

    def __post_init__(self):
        if not self.fields:
            raise ValueError("need at least one field")
        n = self.box.dim
        for vf, d in self.fields:
            if vf.dim != n:
                raise ValueError("field dimension does not match chart")
            if d < 1:
                raise ValueError("formal degrees must be >= 1")

    @property
    def n(self) -> int:
        return self.box.dim

    @property
    def r(self) -> int:
        return len(self.fields)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.fields)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    def vfields(self) -> tuple[VField, ...]:
        return tuple(vf for vf, _ in self.fields)

    def density_at(self, points: np.ndarray) -> np.ndarray:
        return self.density.eval_many(np.asarray(points, dtype=float))

    def validate_density(self) -> None:
        vals = self.density.eval_many(self.box.grid(9))
        if not np.all(np.isfinite(vals)) or vals.min() <= 0:
            raise ValueError(f"density is not strictly positive on the chart (min {vals.min()})")

    @cached_property
    def _derived(self) -> dict:  # (kind, order) -> brackets or Z system; not a field, so eq and hash ignore it
        return {}

    def augmented(self, word: tuple[int, ...]) -> "WeightedSystem":
        """Adjoin the iterated bracket of `word` (1-based indices) as a new generator."""
        entry = bracket_entry(self, word)
        return replace(self, fields=self.fields + ((entry.field, entry.degree),), words=None)


@dataclass(frozen=True)
class CommutatorEntry:
    """An iterated bracket [W_w1,[W_w2,[...]]] with its additive degree."""

    field: VField
    degree: int
    word: tuple[int, ...]
    is_zero: bool = False


@dataclass(frozen=True)
class HormanderReport:
    ok: bool
    order: int | None
    min_gamma0: float
    failures: tuple[tuple[float, ...], ...] = field(default_factory=tuple)


def bracket_entry(sys: WeightedSystem, word: tuple[int, ...]) -> CommutatorEntry:
    """Iterated right-nested bracket of a 1-based generator word."""
    vfs = sys.vfields()
    degs = sys.degrees
    f = vfs[word[-1] - 1]
    for j in reversed(word[:-1]):
        f = lie_bracket(vfs[j - 1], f)
    return CommutatorEntry(f, sum(degs[j - 1] for j in word), word, f.is_zero())


def _canonical_key(vf: VField) -> str:
    s = ", ".join(to_string(c) for c in vf.components)
    sneg = ", ".join(to_string(c) for c in vf.negated().components)
    return min(s, sneg)


def enumerate_commutators(sys: WeightedSystem, m: int) -> tuple[CommutatorEntry, ...]:
    """All right-nested bracket words of length <= m, lexicographic order.

    Structurally equal fields (up to sign, after constant folding) of equal
    degree collapse to the first word producing them; identically zero
    fields are kept once per degree with `is_zero` set.  Computed once per
    system object and order.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    key = ("brackets", m)
    if key not in sys._derived:
        sys._derived[key] = _commutators(sys, m)
    return sys._derived[key]


def _commutators(sys: WeightedSystem, m: int) -> tuple[CommutatorEntry, ...]:
    out: list[CommutatorEntry] = []
    seen: set[tuple[int, str]] = set()
    r = sys.r
    for length in range(1, m + 1):
        for word in itertools.product(range(1, r + 1), repeat=length):
            if length > 1 and word[-1] == word[-2]:
                continue  # innermost [W, W] vanishes identically
            entry = bracket_entry(sys, word)
            key = (entry.degree, _canonical_key(entry.field))
            if key in seen:
                continue
            seen.add(key)
            out.append(entry)
    return tuple(out)


def build_Z_system(sys: WeightedSystem, m: int) -> WeightedSystem:
    """Derived system of the commutators of order <= m, with their words.

    Contains the generators themselves; duplicates (up to sign) and fields
    that vanish identically on the chart are dropped: the zero brackets,
    and the brackets whose finite values on a 7-per-axis grid all lie
    within 1e-12 of 0.  Built once per system object and order from
    enumerate_commutators(sys, m).
    """
    key = ("Z", m)
    if key not in sys._derived:
        kept = [e for e in enumerate_commutators(sys, m) if not e.is_zero]
        vals = np.abs(_field_stack([e.field for e in kept], sys.box.grid(7)))  # (q, P, n)
        finite = np.isfinite(vals).all(axis=-1)
        zero = finite.any(axis=1) & (np.where(finite[..., None], vals, 0.0).max(axis=(1, 2)) <= 1e-12)
        kept = [e for e, z in zip(kept, zero) if len(e.word) == 1 or not z]
        fields = tuple((e.field, e.degree) for e in kept)
        sys._derived[key] = WeightedSystem(fields, sys.box, sys.density, words=tuple(e.word for e in kept))
    return sys._derived[key]


def _field_stack(vfs, pts) -> np.ndarray:
    """The q fields vfs at the points pts (..., n), shape (q, ..., n), values that are not
    finite included: one point kernel of the tuple computes every component, each from its
    field's own expressions, so with the bits of the field's eval_many."""
    pts = np.asarray(pts, dtype=float)
    vals = _kernel("point", vfs)(pts).reshape(pts.shape[:-1] + (len(vfs), pts.shape[-1]))
    return vals.transpose(-2, *range(pts.ndim - 1), -1)


def _field_columns(vfs, pts) -> np.ndarray:
    """The q fields at one point (n,) or at the rows of pts (P, n): shape (q, n) or (q, P, n),
    from `_field_stack`.

    Raises ValueError naming the first point where a field is not finite.
    """
    pts = np.asarray(pts, dtype=float)
    cols = _field_stack(vfs, pts)
    bad = ~np.isfinite(cols).all(axis=(0, -1))
    if bad.any():
        p = pts if pts.ndim == 1 else pts[np.argmax(bad)]
        raise ValueError(f"generator fields are not finite at {tuple(p.tolist())}")
    return cols


def _max_subset_det(cols, delta=None, degrees=None, density=1.0, require=None):
    """Largest density * |det| * delta**(sum of degrees) over n-column subsets.

    cols has shape (q, ..., n): q candidate columns evaluated at a batch of
    points (the middle axes, possibly none).  Subsets are n-combinations of
    the columns, each forming the matrix with those columns in increasing
    index order; with `require`, only subsets containing that column count.
    Without `delta` the weight is 1.  The scan is exhaustive up to
    EXHAUSTIVE_LIMIT candidates and greedy above, one point at a time.
    Returns (best, witness) with shapes (...) and (..., n); the witness is
    the first maximizing subset in lexicographic order (exhaustive case).
    """
    cols = np.asarray(cols, dtype=float)
    q, n, batch = len(cols), cols.shape[-1], cols.shape[1:-1]
    if q < n:
        return np.zeros(batch), np.zeros(batch + (0,), dtype=int)
    degs = None if delta is None else np.array(degrees)

    def value(c, combo):
        w = 1.0 if delta is None else float(delta ** degs[combo].sum())
        return density * np.abs(np.linalg.det(np.moveaxis(c[combo], 0, -1))) * w

    if q > EXHAUSTIVE_LIMIT:
        colw = np.ones(q) if delta is None else np.array([float(delta**d) for d in degs])
        best, witness = np.zeros(batch), np.zeros(batch + (n,), dtype=int)
        for i in np.ndindex(batch):
            c = cols[(slice(None),) + i]
            _, witness[i] = _greedy_witness(c * colw[:, None], n, np.random.default_rng(0), require)
            best[i] = value(c, witness[i])
        return best, witness
    combos = np.array(list(itertools.combinations(range(q), n)))
    if require is not None:
        combos = combos[(combos == require).any(axis=1)]
    vals = np.stack([value(cols, c) for c in combos])  # (C, ...)
    k = np.argmax(vals, axis=0)
    return np.take_along_axis(vals, k[None], 0)[0], combos[k]


def _greedy_witness(
    cols: np.ndarray, n: int, rng: np.random.Generator, require: int | None = None
) -> tuple[float, tuple[int, ...]]:
    """Volume-maximizing greedy pivot selection with random restarts.

    cols has shape (q, n); a required column is picked first.
    """
    q = len(cols)
    best_det, best_idx = 0.0, tuple(range(n))
    for restart in range(3):
        order = np.arange(q) if restart == 0 else rng.permutation(q)
        chosen: list[int] = []
        basis = np.zeros((n, 0))
        for step in range(n):
            resid = cols[order].T - basis @ (basis.T @ cols[order].T)
            norms = np.linalg.norm(resid, axis=0)
            k = int(np.argmax(norms)) if step or require is None else int(np.flatnonzero(order == require)[0])
            if norms[k] <= 0:
                break
            chosen.append(int(order[k]))
            v = resid[:, k] / norms[k]
            basis = np.hstack([basis, v[:, None]])
        if len(chosen) == n:
            d = abs(np.linalg.det(cols[chosen].T))
            if d > best_det:
                best_det, best_idx = d, tuple(sorted(chosen))
    return best_det, best_idx


def _span_certificate(cols):
    """Hormander span certificate of q columns at a batch of points.

    cols has shape (q, ..., n).  gamma0 is the maximal |det| over n-column
    subsets and the witness its first maximizing subset (_max_subset_det);
    the verdict is gamma0 > DET_FLOOR * (largest column norm)**n.  Where a
    column is not finite, gamma0 is nan and the verdict False.  Returns
    (gamma0, verdict, witness) with shapes (...), (...) and (..., n).
    """
    cols = np.asarray(cols, dtype=float)
    n = cols.shape[-1]
    finite = np.isfinite(cols).all(axis=(0, -1))
    cols = np.where(finite[..., None], cols, 0.0)
    best, witness = _max_subset_det(cols)
    col_scale = np.linalg.norm(cols, axis=-1).max(axis=0, initial=0.0)
    valid = finite & (best > DET_FLOOR * np.maximum(col_scale, 1e-300) ** n)
    return np.where(finite, best, np.nan), valid, witness


def check_hormander(sys: WeightedSystem, m_max: int, per_axis: int = 11) -> HormanderReport:
    """Smallest order m <= m_max certified on the chart's per_axis grid.

    Returns the grid minimum of gamma0 at that order (the uniform spanning
    constant); on failure, reports the points where the largest tried order
    still fails.
    """
    pts = sys.box.grid(per_axis)
    failures: list[tuple[float, ...]] = []
    for m in range(1, m_max + 1):
        entries = [e for e in enumerate_commutators(sys, m) if not e.is_zero]
        if len(entries) < sys.n:
            continue
        gamma0, ok, _ = _span_certificate(_field_stack([e.field for e in entries], pts))
        if np.all(ok):
            return HormanderReport(True, m, float(gamma0.min()))
        if m == m_max:
            failures = [tuple(p) for p in pts[~ok][:16]]
    return HormanderReport(False, None, 0.0, tuple(failures))
