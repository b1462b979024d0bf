"""Span tracing around ccgeo's public functions, from outside the package.

`Tracer.install()` wraps every public function defined in each module
(no leading underscore) and the methods named in `METHODS`, and patches every binding of them in
the loaded `ccgeo` modules (the CLI imports `cc_distance`, `ball_volume`
and friends by name).  Each call
records a span: name, start, end, parent span and op id.  Counts are
taken at the same boundary, from the call's arguments and result.

`VField.eval_many` runs ten thousand times or more per distance query, so
its calls are folded into their parent span as an aggregate child (calls,
rows, seconds) instead of one record each.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from time import perf_counter

import numpy as np

MODULES = ("symexpr", "flows", "ccmetric", "hormander", "boundary", "scaling", "cli")
# Methods wrapped besides every public function a module defines; the
# span name is "<module>.<method>", with "call" for __call__.
METHODS = (
    ("symexpr", "VField.eval_many"),
    ("ccmetric", "ReachGraph.run"),
    ("ccmetric", "ReachGraph.contains"),
    ("scaling", "ScalingMap.__call__"),
    ("scaling", "ScalingMap.jacobian"),
    ("scaling", "ScalingMap.invert"),
    ("cli", "Scenario.system"),
)
LEAF = "symexpr.eval_many"
OP_SPANS = ("cli.cmd_dist", "cli.cmd_volume", "cli.cmd_scale", "cli.cmd_boundary")

# Span that must record work on the workload it is predicted to dominate,
# and the ancestor it must run under for the prediction to hold.
PREDICTED = {
    "dist": ("ccmetric.integrate_controls", "ccmetric.cc_distance"),
    "reach": ("ccmetric.run", "ccmetric.ball_volume"),
    "scale": ("flows.rk4_flow", "scaling"),
}


class CoverageError(RuntimeError):
    """A tracing target is not wrapped wherever ccgeo binds it."""


def targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every function and method to wrap."""
    out = []
    for m in MODULES:
        mod = sys.modules[f"ccgeo.{m}"]
        out += [
            (m, name) for name, v in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
        ]
    return out + list(METHODS)


def span_name(module: str, path: str) -> str:
    attr = path.split(".")[-1]
    return f"{module}.{'call' if attr == '__call__' else attr}"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child", "error", "counts",
                 "leaf_calls", "leaf_rows", "leaf_s")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = self.child = self.leaf_s = 0.0
        self.leaf_calls = self.leaf_rows = 0
        self.error = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time its child spans cover."""
        return self.duration - self.child


def _count_integrate(span, args, kwargs, result):
    coeffs = np.asarray(args[3] if len(args) > 3 else kwargs["coeffs"])
    steps = args[5] if len(args) > 5 else kwargs.get("steps_per_segment", 8)
    S, K, _ = coeffs.shape
    span.counts = {"paths": S, "path_steps": S * K * steps, "feasible": int(np.count_nonzero(result[1]))}


def _count_rk4(span, args, kwargs, result):
    times, cfg = args[2], args[3]
    n_steps = args[4] if len(args) > 4 else kwargs.get("n_steps")
    if n_steps is None:
        tmax = float(np.abs(np.asarray(times, dtype=float)).max())
        n_steps = max(1, math.ceil(tmax * cfg.steps_per_unit)) if tmax > 0 else 0
    span.counts = {"steps": n_steps}


def _count_run(span, args, kwargs, result):
    graph = args[0]
    targeted = (args[1] if len(args) > 1 else kwargs.get("target")) is not None
    reached = bool(result[0])
    span.counts = {"targeted": int(targeted), "reached": int(reached), "cells": 0 if reached else len(graph.settled)}


def _count_invert(span, args, kwargs, result):
    span.counts = {"failures": int(np.size(result[1]) - np.count_nonzero(result[1]))}


COUNTERS = {
    "ccmetric.integrate_controls": _count_integrate,
    "flows.rk4_flow": _count_rk4,
    "ccmetric.run": _count_run,
    "scaling.invert": _count_invert,
}


class Tracer:
    """Records spans while installed; keeps them in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.root = Span("<root>", None, None)  # catches leaf calls outside any span
        self.op: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._patched: set[str] = set()
        self.targets: list[tuple[str, str]] = []
        self.bindings = 0  # bindings patched by the last install()

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, count, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.op)
        self.stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child += span.end - span.start
            self.spans.append(span)
        if count is not None:
            count(span, args, kwargs, result)
        return result

    def _leaf(self, fn, args, kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        dt = perf_counter() - t0
        owner = self.stack[-1] if self.stack else self.root
        owner.leaf_calls += 1
        pts = args[1] if len(args) > 1 else kwargs["points"]
        owner.leaf_rows += len(pts) if np.ndim(pts) == 2 else 1
        owner.leaf_s += dt
        owner.child += dt
        return result

    def _wrapper(self, name, fn):
        if name == LEAF:
            def wrapper(*args, **kwargs):
                return self._leaf(fn, args, kwargs)
        else:
            count = COUNTERS.get(name)

            def wrapper(*args, **kwargs):
                return self._call(name, fn, count, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and patch every binding of it in ccgeo."""
        mods = {k: m for k, m in sys.modules.items() if k == "ccgeo" or k.startswith("ccgeo.")}
        self.targets = targets()
        for module, path in self.targets:
            owner = mods[f"ccgeo.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = span_name(module, path)
            wrapper = self._wrapper(name, original)
            if outer:  # a method: the class attribute is its only binding
                self._patch(name, owner, attr, original, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(name, mod, key, original, wrapper)
        self.verify_installed()
        self.bindings = len(self._patches)

    def _patch(self, name, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._patched.add(name)

    def verify_installed(self) -> None:
        """Fail when any ccgeo binding still refers to an unwrapped target."""
        originals = {id(orig) for _, _, orig in self._patches}
        for key, mod in list(sys.modules.items()):
            if key == "ccgeo" or key.startswith("ccgeo."):
                for name, value in vars(mod).items():
                    if id(value) in originals:
                        raise CoverageError(f"{key}.{name} escaped the tracer")
        missing = {span_name(m, p) for m, p in self.targets} - self._patched
        if missing:
            raise CoverageError(f"tracing targets bound nowhere: {sorted(missing)}")

    def write(self, path) -> None:
        """Write every span as one JSON line; parent is a line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for s in self.spans:
                row = {"name": s.name, "start": s.start, "end": s.end, "parent": index.get(id(s.parent)),
                       "op": s.op, "error": s.error, "counts": s.counts}
                if s.leaf_calls:
                    row["eval_many"] = {"calls": s.leaf_calls, "rows": s.leaf_rows, "s": s.leaf_s}
                f.write(json.dumps(row) + "\n")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._patched.clear()


# -- per-layer metrics ----------------------------------------------------


def _has_ancestor(span: Span, pred) -> bool:
    p = span.parent
    while p is not None:
        if pred(p):
            return True
        p = p.parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def inclusive_s(spans, name: str) -> float:
    """Time inside `name`, counting nested calls of itself once."""
    return sum(
        s.duration for s in spans
        if s.name == name and not _has_ancestor(s, lambda p: p.name == name)
    )


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "symexpr.eval_calls": "count",
    "symexpr.eval_rows": "count",
    "symexpr.rows_per_call": "rows",
    "symexpr.eval_s": "s",
    "flows.rk4_calls": "count",
    "flows.rk4_steps": "count",
    "flows.rk4_s": "s",
    "flows.excursions": "count",
    "ccmetric.dist_calls": "count",
    "ccmetric.integrate_calls": "count",
    "ccmetric.integrate_calls_per_dist": "ratio",
    "ccmetric.integrate_paths": "count",
    "ccmetric.integrate_path_steps": "count",
    "ccmetric.integrate_feasible_frac": "ratio",
    "ccmetric.integrate_s": "s",
    "ccmetric.shoot_self_s": "s",
    "ccmetric.oracle_runs": "count",
    "ccmetric.oracle_runs_per_dist": "ratio",
    "ccmetric.oracle_reached_frac": "ratio",
    "ccmetric.oracle_run_s": "s",
    "ccmetric.oracle_cells": "count",
    "ccmetric.oracle_cells_per_s": "1/s",
    "ccmetric.contains_s": "s",
    "ccmetric.sample_ball_s": "s",
    "hormander.zsys_builds": "count",
    "hormander.zsys_s": "s",
    "hormander.span_checks": "count",
    "hormander.span_s": "s",
    "boundary.builds": "count",
    "boundary.build_s": "s",
    "boundary.deg_s": "s",
    "boundary.characteristic_raised": "count",
    "scaling.map_builds": "count",
    "scaling.map_build_s": "s",
    "scaling.map_call_s": "s",
    "scaling.jacobian_s": "s",
    "scaling.invert_s": "s",
    "scaling.newton_failures": "count",
    "scaling.uniform_span_s": "s",
    "scaling.lambda_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    **{f"{m}.self_share": "ratio" for m in MODULES},
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times over everything the tracer recorded."""
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    get = lambda name: by.get(name, [])  # noqa: E731
    incl = lambda name: inclusive_s(get(name), name)  # noqa: E731
    total = lambda name, key: sum(s.counts[key] for s in get(name) if s.counts)  # noqa: E731
    owners = [tracer.root, *spans]
    eval_calls = sum(s.leaf_calls for s in owners)
    eval_rows = sum(s.leaf_rows for s in owners)

    dists = get("ccmetric.cc_distance")
    under_dist = [s for s in get("ccmetric.integrate_controls")
                  if _has_ancestor(s, lambda p: p.name == "ccmetric.cc_distance")]
    paths = total("ccmetric.integrate_controls", "paths")
    oracles = get("ccmetric.oracle_distance")
    runs = get("ccmetric.run")
    targeted = [s for s in runs if s.counts and s.counts["targeted"]]
    explored = [s for s in runs if s.counts and s.counts["cells"]]
    cells = sum(s.counts["cells"] for s in explored)
    boundary_builds = get("boundary.build_boundary_system")

    out = {
        "symexpr.eval_calls": eval_calls,
        "symexpr.eval_rows": eval_rows,
        "symexpr.rows_per_call": _ratio(eval_rows, eval_calls),
        "symexpr.eval_s": sum(s.leaf_s for s in owners),
        "flows.rk4_calls": len(get("flows.rk4_flow")),
        "flows.rk4_steps": total("flows.rk4_flow", "steps"),
        "flows.rk4_s": incl("flows.rk4_flow"),
        "flows.excursions": sum(s.error == "FlowExcursionError" for s in get("flows.rk4_flow")),
        "ccmetric.dist_calls": len(dists),
        "ccmetric.integrate_calls": len(get("ccmetric.integrate_controls")),
        "ccmetric.integrate_calls_per_dist": _ratio(len(under_dist), len(dists)),
        "ccmetric.integrate_paths": paths,
        "ccmetric.integrate_path_steps": total("ccmetric.integrate_controls", "path_steps"),
        "ccmetric.integrate_feasible_frac": _ratio(total("ccmetric.integrate_controls", "feasible"), paths),
        "ccmetric.integrate_s": incl("ccmetric.integrate_controls"),
        "ccmetric.shoot_self_s": sum(s.self_time for s in dists),
        "ccmetric.oracle_runs": len(runs),
        "ccmetric.oracle_runs_per_dist": _ratio(
            sum(_has_ancestor(s, lambda p: p.name == "ccmetric.oracle_distance") for s in runs), len(oracles)
        ),
        "ccmetric.oracle_reached_frac": _ratio(sum(s.counts["reached"] for s in targeted), len(targeted)),
        "ccmetric.oracle_run_s": incl("ccmetric.run"),
        "ccmetric.oracle_cells": cells,
        "ccmetric.oracle_cells_per_s": _ratio(cells, sum(s.duration for s in explored)),
        "ccmetric.contains_s": incl("ccmetric.contains"),
        "ccmetric.sample_ball_s": incl("ccmetric.sample_ball"),
        "hormander.zsys_builds": len(get("hormander.build_Z_system")),
        "hormander.zsys_s": incl("hormander.build_Z_system"),
        "hormander.span_checks": len(get("hormander.check_span_at")),
        "hormander.span_s": incl("hormander.check_span_at"),
        "boundary.builds": len(boundary_builds),
        "boundary.build_s": incl("boundary.build_boundary_system"),
        "boundary.deg_s": incl("boundary.deg_boundary"),
        "boundary.characteristic_raised": sum(s.error == "CharacteristicError" for s in boundary_builds),
        "scaling.map_builds": len(get("scaling.build_scaling_map")),
        "scaling.map_build_s": incl("scaling.build_scaling_map"),
        "scaling.map_call_s": incl("scaling.call"),
        "scaling.jacobian_s": incl("scaling.jacobian"),
        "scaling.invert_s": incl("scaling.invert"),
        "scaling.newton_failures": total("scaling.invert", "failures"),
        "scaling.uniform_span_s": incl("scaling.verify_uniform_hormander"),
        "scaling.lambda_s": incl("scaling.compute_lambda"),
        "cli.parse_s": incl("cli.load_scenario") + incl("cli.system"),
        "cli.emit_s": incl("cli.emit"),
    }
    op_time = sum(s.duration for s in spans if s.name in OP_SPANS)
    self_by_module = dict.fromkeys(MODULES, 0.0)
    self_by_module["symexpr"] = out["symexpr.eval_s"]
    for s in spans:
        self_by_module[s.name.split(".")[0]] += s.self_time
    for m in MODULES:
        out[f"{m}.self_share"] = _ratio(self_by_module[m], op_time)
    return out


def prediction(tracer: Tracer, workload: str) -> tuple[str, float, bool]:
    """Share of op time the predicted dominant layer takes under its caller.

    Returns (span name, share, whether it recorded any span at all).  The
    prediction holds when the share is at least one half.
    """
    name, under = PREDICTED[workload]
    spans = [s for s in tracer.spans if s.name == name]
    op_time = sum(s.duration for s in tracer.spans if s.name in OP_SPANS)
    inside = [
        s for s in spans
        if _has_ancestor(s, lambda p: p.name == under or p.name.startswith(under + "."))
        and not _has_ancestor(s, lambda p: p.name == name)
    ]
    return name, _ratio(sum(s.duration for s in inside), op_time), bool(spans)
