"""Non-characteristic boundary degree and the induced boundary system.

On a chart with boundary {x_n = 0}, the minimal commutator degree
transversal to the boundary is computed pointwise.  Where it is constant
on some tangential disc (build_boundary_system's radius ladder decides)
the standard correction procedure applies: a distinguished transversal
generator X_0 is subtracted from every capped commutator so
the remainder is boundary-tangent, and restricting the tangent fields to
{x_n = 0} yields a weighted system on the boundary whose metric is
Lipschitz equivalent to the restricted ambient one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccmetric import MetricEstimate, _check_in_chart, cc_distance
from .hormander import (
    Box,
    CommutatorEntry,
    WeightedSystem,
    _field_columns,
    _field_stack,
    _grid,
    _span_certificate,
    build_Z_system,
    enumerate_commutators,
)
from .symexpr import Const, Expr, VField, div, lie_bracket, mul, sub, to_string

__all__ = [
    "CharacteristicError",
    "BoundaryDegreeReport",
    "BoundarySystem",
    "deg_boundary",
    "build_boundary_system",
    "boundary_metric",
    "bracket_closure_residual",
    "export_scenario",
]

#: relative threshold below which an n-th component counts as tangent
TANGENCY_RTOL = 1e-10


class CharacteristicError(RuntimeError):
    """The boundary construction cannot proceed at this point; the message
    names the point and the condition that failed."""


@dataclass(frozen=True)
class BoundaryDegreeReport:
    deg: int
    witness: CommutatorEntry


@dataclass(frozen=True)
class BoundarySystem:
    """Output of the boundary construction at a non-characteristic point."""

    parent: WeightedSystem
    order: int
    x0: tuple[float, ...]
    radius: float
    deg: int
    j0: int  # index of the distinguished generator in parent.fields
    omega: int  # sign of the distinguished n-th component at x0
    distinguished: tuple[VField, int]  # (X_0, d_0)
    x_entries: tuple[tuple[VField, int, tuple[int, ...], bool], ...]  # ambient X_j
    btilde: tuple[Expr, ...]
    v_entries: tuple[tuple[VField, int, bool], ...]  # boundary fields with zero flags
    v_system: WeightedSystem  # nonzero boundary fields on the (n-1)-chart
    tangency_residual: float
    span_floor: float


def _transversal_degrees(entries, pts) -> tuple[np.ndarray, np.ndarray]:
    """Least degree of an entry transversal to {x_n = 0} at each row of pts.

    entries are (VField, degree) pairs; an entry is transversal where its
    n-th component exceeds TANGENCY_RTOL * max(1, |value|).  Returns the
    degrees (P,), -1 where no entry is transversal, and each entry's normal
    share |v_n| / |v| (q, P), zero where it is tangent.
    """
    vals = _field_columns([vf for vf, _ in entries], pts)  # (q, P, n)
    vn = np.abs(vals[..., -1])
    norm = np.linalg.norm(vals, axis=-1)
    across = vn > TANGENCY_RTOL * np.maximum(1.0, norm)
    share = np.where(across, vn / np.maximum(norm, 1e-300), 0.0)
    degs = np.array([d for _, d in entries])
    least = np.where(across, degs[:, None], np.iinfo(degs.dtype).max).min(axis=0)
    return np.where(across.any(axis=0), least, -1), share


def _most_normal(degrees, share: np.ndarray, deg: int) -> int | None:
    """First index of the largest normal share among the transversal entries of degree deg."""
    masked = np.where(np.asarray(degrees) == deg, share, -1.0)
    k = int(np.argmax(masked))
    return k if masked[k] > 0 else None


def _boundary_probes(sys: WeightedSystem, xp: np.ndarray, radius: float, per_axis: int = 5) -> np.ndarray:
    offs = _grid([np.linspace(-radius, radius, per_axis)] * (sys.n - 1))
    pts = np.hstack([xp[:-1] + offs, np.zeros((len(offs), 1))])
    keep = sys.box.contains(pts)
    return pts[keep]


def deg_boundary(sys: WeightedSystem, xp, m: int) -> BoundaryDegreeReport:
    """Minimal transversal commutator degree at a boundary point.

    The witness is the entry of minimal degree whose n-th component at xp
    is largest relative to the field's size.  Only xp is examined: whether
    the degree is locally constant is build_boundary_system's decision.
    """
    if not sys.box.has_boundary:
        raise ValueError("system chart has no boundary")
    xp = np.asarray(xp, dtype=float)
    if abs(xp[-1]) > 1e-12:
        raise ValueError("point is not on the boundary {x_n = 0}")
    entries = enumerate_commutators(sys, m)
    pairs = [(e.field, e.degree) for e in entries]
    degs, share = _transversal_degrees(pairs, xp[None])
    deg = int(degs[0])
    if deg < 0:
        raise CharacteristicError(f"no transversal commutator up to order {m} at {tuple(xp.tolist())}")
    return BoundaryDegreeReport(deg, entries[_most_normal([d for _, d in pairs], share[:, 0], deg)])


def build_boundary_system(sys: WeightedSystem, x0, m: int, probe_radius: float = 0.3) -> BoundarySystem:
    """Run the correction procedure at a non-characteristic boundary point.

    Steps: derive the commutator system, pick the distinguished
    minimal-degree transversal generator X_0, subtract b~_j X_0 from each
    entry so it becomes boundary tangent (b~ constant in x_n), and restrict
    the tangential parts to the boundary slice.

    The radius ladder alone decides that x0 is non-characteristic: from
    probe_radius, the ceiling, it halves a tangential disc until every
    probe has x0's boundary degree and X_0's n-th component stays at 5 %
    of its value at x0, and keeps that radius.  Below 1e-3 it raises a
    CharacteristicError that names the condition that failed.
    """
    if sys.n < 2:
        raise ValueError("boundary construction needs dimension >= 2")
    if not 0.0 < probe_radius < math.inf:
        raise ValueError(f"probe radius must be positive and finite, got radius = {probe_radius}")
    x0 = np.asarray(x0, dtype=float)
    _check_in_chart(sys.box, x0, halfspace=False)
    report = deg_boundary(sys, x0, m)
    where = tuple(x0.tolist())
    n = sys.n
    j0 = _most_normal(sys.degrees, _transversal_degrees(sys.fields, x0[None])[1][:, 0], report.deg)
    if j0 is None:
        raise CharacteristicError(f"{where} is characteristic: no generator of degree {report.deg} is transversal there")
    X0, d0 = sys.fields[j0]
    x0n_val = float(X0.eval_many(x0)[-1])
    omega = 1 if x0n_val > 0 else -1
    floor = max(1e-10, 0.05 * abs(x0n_val))

    pairs = [(e.field, e.degree) for e in enumerate_commutators(sys, m)]
    radius = probe_radius
    while True:
        probes = _boundary_probes(sys, x0, radius)
        bounded = np.abs(X0.eval_many(probes)[:, -1]).min() >= floor
        if bounded and np.all(_transversal_degrees(pairs, probes)[0] == report.deg):
            break
        if radius * 0.5 < 1e-3:
            failed = (f"the boundary degree is not {report.deg} throughout" if bounded else
                      f"the distinguished generator's normal component falls below {floor:.3g}")
            raise CharacteristicError(f"{where} is characteristic: {failed} on the tangential disc "
                                      f"of radius {radius:.3g}, the last of the ladder from {probe_radius:.3g}")
        radius *= 0.5

    z = build_Z_system(sys, m)
    den = X0.nth.subst(n, 0.0)
    x_entries: list[tuple[VField, int, tuple[int, ...], bool]] = []
    btilde: list[Expr] = []
    grid2d = _neighborhood_grid(sys, x0, radius)
    for (zf, zd), word in zip(z.fields, z.words):
        if zd < d0:
            b: Expr = Const(0.0)
        else:
            b = div(zf.nth.subst(n, 0.0), den)
        comps = tuple(sub(zf.components[k], mul(b, X0.components[k])) for k in range(n))
        xf = VField(comps)
        vals = xf.eval_many(grid2d)
        vals = vals[np.all(np.isfinite(vals), axis=-1)]
        zscale = max(1.0, float(np.abs(zf.eval_many(grid2d)).max()))
        is_zero = xf.is_zero() or (len(vals) > 0 and float(np.abs(vals).max()) <= 1e-10 * zscale)
        x_entries.append((xf, zd, word, is_zero))
        btilde.append(b)

    bdry = _boundary_probes(sys, x0, radius, per_axis=7)
    tangency = 0.0
    for xf, zd, word, is_zero in x_entries:
        vals = xf.eval_many(bdry)
        scale = max(1.0, float(np.abs(vals).max()))
        tangency = max(tangency, float(np.abs(vals[:, -1]).max()) / scale)

    v_entries: list[tuple[VField, int, bool]] = []
    for xf, zd, word, is_zero in x_entries:
        comps = tuple(c.subst(n, 0.0) for c in xf.components[: n - 1])
        vf = VField(comps)
        vals = vf.eval_many(bdry[:, : n - 1])
        vzero = vf.is_zero() or float(np.abs(vals).max()) <= 1e-10
        v_entries.append((vf, zd, is_zero or vzero))

    vbox = Box(
        half_widths=(radius,) * (n - 1),
        center=tuple(float(c) for c in x0[: n - 1]),
        has_boundary=False,
    )
    v_fields = tuple((vf, d) for vf, d, z in v_entries if not z)
    if not v_fields:
        raise CharacteristicError("all boundary fields vanish; nothing spans the boundary")
    v_system = WeightedSystem(v_fields, vbox, density=sys.density.subst(n, 0.0))

    gamma0, valid, _ = _span_certificate(_field_columns([vf for vf, _ in v_fields], bdry[:, : n - 1]))
    if not valid.all():
        q = bdry[np.argmin(valid), : n - 1]
        raise CharacteristicError(f"boundary fields do not span at {tuple(q.tolist())}")

    return BoundarySystem(
        parent=sys,
        order=m,
        x0=where,
        radius=radius,
        deg=report.deg,
        j0=j0,
        omega=omega,
        distinguished=(X0, d0),
        x_entries=tuple(x_entries),
        btilde=tuple(btilde),
        v_entries=tuple(v_entries),
        v_system=v_system,
        tangency_residual=tangency,
        span_floor=float(gamma0.min()),
    )


def _neighborhood_grid(sys: WeightedSystem, x0: np.ndarray, radius: float) -> np.ndarray:
    axes = [np.linspace(c - radius, c + radius, 5) for c in x0[:-1]]
    axes.append(np.linspace(0.0, radius, 3))
    pts = _grid(axes)
    return pts[sys.box.contains(pts)]


def bracket_closure_residual(bsys: BoundarySystem) -> float:
    """Worst residual of [V_j, V_k] against span{V_l : d_l <= d_j + d_k}.

    The weak form of the closure identity for the boundary fields; exact
    coefficients are not computed, only representability at the points
    of a 5-per-axis grid, where one field stack evaluates the fields and
    their brackets.  The span always holds V_j and V_k themselves.
    """
    fields = bsys.v_system.fields
    q = len(fields)
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    brackets = [lie_bracket(fields[j][0], fields[k][0]) for j, k in pairs]
    vals = _field_stack([vf for vf, _ in fields] + brackets, bsys.v_system.box.grid(5))  # (q + b, G, n)
    degs = np.array([d for _, d in fields])
    worst = 0.0
    for (j, k), br, targets in zip(pairs, brackets, vals[q:]):
        if br.is_zero():
            continue
        spans = vals[:q][degs <= degs[j] + degs[k]].swapaxes(0, 1)  # (G, c, n)
        for target, a in zip(targets, spans):
            coef, *_ = np.linalg.lstsq(a.T, target, rcond=None)
            worst = max(worst, float(np.linalg.norm(a.T @ coef - target)) / max(1.0, float(np.linalg.norm(target))))
    return worst


def boundary_metric(bsys: BoundarySystem, xp, yp) -> MetricEstimate:
    """CC distance on the boundary driven by the restricted system (shooting, tol 0.05)."""
    xp = np.asarray(xp, dtype=float)
    yp = np.asarray(yp, dtype=float)
    n = bsys.parent.n
    if len(xp) == n:
        if abs(xp[-1]) > 1e-12 or abs(yp[-1]) > 1e-12:
            raise ValueError("boundary points must have x_n = 0")
        xp, yp = xp[: n - 1], yp[: n - 1]
    return cc_distance(bsys.v_system, xp, yp, mode="intrinsic", tol=0.05)


def export_scenario(bsys: BoundarySystem, name: str) -> str:
    """Boundary system as scenario text, re-ingestable by the CLI loader.

    The scenario probes the box center on the delta ladder 0.2 0.1 0.05
    with seed 7.
    """
    v = bsys.v_system
    lines = [
        f"# boundary restriction of a {bsys.parent.n}-dimensional system at x0 = {bsys.x0}",
        f"name = {name}",
        f"dim = {v.n}",
        "box = " + " ".join(repr(h) for h in v.box.half_widths),
        "center = " + " ".join(repr(c) for c in v.box.center),
        "boundary = false",
        f"m = {bsys.order}",
    ]
    for vf, d in v.fields:
        comps = ", ".join(to_string(c) for c in vf.components)
        lines.append(f'field = "{comps}" degree = {d}')
    lines.append(f'density = "{to_string(v.density)}"')
    lines.append("probe = " + " ".join(repr(float(c)) for c in v.box.center))
    lines.append("delta = 0.2 0.1 0.05")
    lines.append("seed = 7")
    return "\n".join(lines) + "\n"
