"""Command-line surface: scenario ingestion and deterministic reports.

Scenarios are line-oriented key=value files describing a weighted system
on a box chart together with probe points, a delta ladder, seeds, and
frozen regression thresholds.  Every command echoes its parameters and
produces byte-identical output under a fixed seed.

Exit codes: 0 pass, 1 usage error, 2 verification failure, 3 numeric or
flow error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
# numpy loads its random module on first use; load it with the CLI, so
# that the first command seeding a generator does not pay the import
import numpy.random  # noqa: F401

from . import __version__
from .boundary import (
    CharacteristicError,
    boundary_metric,
    build_boundary_system,
    deg_boundary,
    export_scenario,
)
from .ccmetric import _check_in_chart, ball_volume, cc_distance, oracle_distance, reach_graph, sample_ball
from .flows import FlowExcursionError
from .hormander import (
    Box,
    WeightedSystem,
    _grid,
    bracket_entry,
    check_hormander,
    enumerate_commutators,
)
from .scaling import (
    build_scaling_map,
    compute_lambda,
    doubling_ratio,
    verify_sandwich,
    verify_uniform_hormander,
)
from .symexpr import ParseError, parse_expr, parse_vfield

__all__ = ["Scenario", "ScenarioError", "load_scenario", "main"]

SUITES = ("doubling", "volume", "sandwich", "boundary-metric", "equivalence", "topology")


class ScenarioError(Exception):
    def __init__(self, message: str, path: str = "?", line: int = 0):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: a weighted system plus the experiment parameters."""

    name: str
    weighted: WeightedSystem  # built and validated by parse_scenario_text
    order: int
    probes: tuple[tuple[float, ...], ...]
    deltas: tuple[float, ...]
    seed: int
    thresholds: dict[str, float] = field(default_factory=dict)
    char_probes: tuple[tuple[float, ...], ...] = ()
    path: str = "<memory>"

    @property
    def n(self) -> int:
        return self.weighted.n

    @property
    def box(self) -> Box:
        return self.weighted.box

    def system(self) -> WeightedSystem:
        """The weighted system every command of this scenario uses."""
        return self.weighted

    def threshold(self, key: str, default: float) -> float:
        return self.thresholds.get(key, default)

    def boundary_probes(self):
        return [p for p in self.probes if abs(p[-1]) < 1e-12 and self.box.has_boundary]


_FIELD_RE = re.compile(r'^field\s*=\s*"([^"]*)"\s*degree\s*=\s*(\d+)\s*$')


def _strip_comment(line: str) -> str:
    out, in_quote = [], False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out).strip()


def parse_scenario_text(text: str, path: str = "<memory>") -> Scenario:
    """Parse and check a scenario, and build and validate its weighted system.

    A malformed file fails here as a ScenarioError naming its line,
    where the line is known: dim in 1..9; box, center, probe and
    characteristic_probe lengths of dim; positive half widths; probes
    in the chart, characteristic probes on its boundary x_n = 0; a
    non-empty, positive, strictly decreasing delta ladder; m >= 1; field
    and density expressions that parse; a density positive on the chart."""
    data: dict[str, object] = {
        "probes": [],
        "fields": [],
        "thresholds": {},
        "center": None,
        "boundary": False,
        "seed": 0,
        "m": 2,
        "density": "1",
        "char_probes": [],
    }
    lines: dict[str, int] = {}  # the line each single-valued key was last set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        fm = _FIELD_RE.match(line)
        if fm:
            data["fields"].append((fm.group(1), int(fm.group(2)), lineno))
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", path, lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        lines[key] = lineno
        try:
            if key == "name":
                data["name"] = value
            elif key == "dim":
                data["dim"] = int(value)
            elif key == "box":
                data["box"] = tuple(float(v) for v in value.split())
            elif key == "center":
                data["center"] = tuple(float(v) for v in value.split())
            elif key == "boundary":
                data["boundary"] = value.lower() in ("true", "1", "yes", "on")
            elif key == "m":
                data["m"] = int(value)
            elif key == "density":
                data["density"] = value.strip('"')
            elif key == "probe":
                data["probes"].append((tuple(float(v) for v in value.split()), lineno))
            elif key == "characteristic_probe":
                data["char_probes"].append((tuple(float(v) for v in value.split()), lineno))
            elif key == "delta":
                data["deltas"] = tuple(float(v) for v in value.split())
            elif key == "seed":
                data["seed"] = int(value)
            elif key.startswith("threshold."):
                data["thresholds"][key[len("threshold.") :]] = float(value)
            elif key == "field":
                raise ScenarioError('field lines look like: field = "<e1>, <e2>" degree = <k>', path, lineno)
            else:
                raise ScenarioError(f"unknown key {key!r}", path, lineno)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"bad value for {key!r}: {exc}", path, lineno) from exc

    for need in ("name", "dim", "box", "deltas"):
        if need not in data:
            raise ScenarioError(f"missing required key {need!r}", path, 0)
    if not data["fields"]:
        raise ScenarioError("no field stanzas", path, 0)
    n = data["dim"]
    if not 1 <= n <= 9:
        raise ScenarioError(f"dim must be in 1..9, got {n}", path, lines["dim"])
    for comps, d, lineno in data["fields"]:
        if d < 1:
            raise ScenarioError(f"degree must be >= 1, got {d}", path, lineno)
        if len(comps.split(",")) != n:
            raise ScenarioError(f"field {comps!r} does not have {n} components", path, lineno)
    for key in ("box", "center"):
        if data[key] is not None and len(data[key]) != n:
            raise ScenarioError(f"{key} needs {n} values, got {len(data[key])}", path, lines[key])
    if not all(h > 0 for h in data["box"]):
        raise ScenarioError(f"box half widths must be positive, got {data['box']}", path, lines["box"])
    deltas = data["deltas"]
    if not deltas:
        raise ScenarioError("delta ladder is empty", path, lines["delta"])
    if not all(0 < d < math.inf for d in deltas):
        raise ScenarioError(f"delta rungs must be positive and finite, got {deltas}", path, lines["delta"])
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ScenarioError("delta ladder must be strictly decreasing", path, lines["delta"])
    if data["m"] < 1:
        raise ScenarioError(f"m must be at least 1, got {data['m']}", path, lines["m"])
    if data["seed"] < 0:  # numpy seeds its generators from non-negative integers only
        raise ScenarioError(f"seed must be non-negative, got {data['seed']}", path, lines["seed"])
    box = Box(
        half_widths=data["box"],
        center=data["center"] or (0.0,) * n,
        has_boundary=data["boundary"],
    )
    for kind, points in (("probe", data["probes"]), ("characteristic probe", data["char_probes"])):
        for p, lineno in points:
            if len(p) != n:
                raise ScenarioError(f"{kind} {p} has wrong dimension", path, lineno)
            if not box.contains(np.asarray(p)[None])[0]:
                raise ScenarioError(f"{kind} {p} outside the chart", path, lineno)
            if box.has_boundary and p[-1] < -1e-12:
                raise ScenarioError(f"{kind} {p} below the boundary", path, lineno)
    for p, lineno in data["char_probes"]:
        if not (box.has_boundary and abs(p[-1]) < 1e-12):
            raise ScenarioError(f"characteristic probe {p} is not on the boundary x_n = 0", path, lineno)
    try:  # expression syntax errors and a density that is not positive name their line
        fields = []
        for comps, d, lineno in data["fields"]:
            fields.append((parse_vfield(comps, n), d))
        lineno = lines.get("density", 0)
        weighted = WeightedSystem(tuple(fields), box, density=parse_expr(data["density"], n))
        weighted.validate_density()
    except (ParseError, ValueError) as exc:
        raise ScenarioError(str(exc), path, lineno) from exc
    return Scenario(
        name=data["name"],
        weighted=weighted,
        order=data["m"],
        probes=tuple(p for p, _ in data["probes"]),
        deltas=deltas,
        seed=data["seed"],
        thresholds=dict(data["thresholds"]),
        char_probes=tuple(p for p, _ in data["char_probes"]),
        path=path,
    )


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file; bare names resolve to packaged fixtures.

    The file is read on every call, and a process parses each (text,
    path) once: an unchanged file gives the same Scenario, and so the
    same system, while an edited one is parsed again.  A text that fails
    to parse is not kept, so it fails the same way every time."""
    p = Path(path_or_name)
    if not p.is_file():
        candidate = fixtures_dir() / f"{path_or_name}.scn"
        if candidate.is_file():
            p = candidate
        else:
            raise ScenarioError(f"no such scenario file or fixture {path_or_name!r}", path_or_name, 0)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(p), 0) from exc
    return _parse_once(text, str(p))


@functools.lru_cache(maxsize=64)
def _parse_once(text: str, path: str) -> Scenario:
    return parse_scenario_text(text, path)


# -- report plumbing ------------------------------------------------------


def make_report(scn: Scenario, command: str, params: dict, rows: list, verdicts: list) -> dict:
    return {
        "scenario": scn.name,
        "version": f"ccgeo-{__version__}",
        "command": command,
        "params": params,
        "rows": rows,
        "verdicts": verdicts,
        "pass": all(v.get("pass", False) for v in verdicts) if verdicts else True,
    }


def emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=1, default=lambda v: bool(v) if isinstance(v, np.bool_) else float(v))
    if out is None:
        print(text)
        return
    path = Path(out)
    if path.suffix == ".csv":
        rows = report.get("rows", [])
        keys = sorted({k for row in rows for k in row})
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(k)) for k in keys))
        _write(path, "\n".join(lines) + "\n")
    else:
        _write(path, text + "\n")


def _write(out: str | Path, text: str) -> None:
    """Write text to the file out and say so; a path that cannot be written is a ScenarioError."""
    try:
        Path(out).write_text(text, newline="\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write: {exc}", str(out), 0) from exc
    print(f"wrote {out}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return '"' + " ".join(repr(float(x)) for x in v) + '"'
    return str(v)


def _pairs_from_probes(scn: Scenario, count: int, spread: float = 0.3, boundary: bool = False, around=None):
    """Deterministic point pairs near `around`, or near each probe in turn (tangential offsets with `boundary`)."""
    rng = np.random.default_rng([scn.seed, 23])
    probes = [around] if around is not None else list(scn.probes)
    box = scn.box
    pairs = []
    guard = 0
    while len(pairs) < count and guard < 50 * count:
        guard += 1
        p = np.asarray(probes[len(pairs) % len(probes)], dtype=float)
        sp = np.broadcast_to(np.asarray(spread, dtype=float), (scn.n,))
        off1 = rng.uniform(-1.0, 1.0, size=scn.n) * sp
        off2 = rng.uniform(-1.0, 1.0, size=scn.n) * sp
        if boundary:
            off1[-1] = off2[-1] = 0.0
        a, b = p + off1, p + off2
        pts = np.stack([a, b])
        if not box.contains(pts).all():
            continue
        if box.has_boundary and (pts[:, -1] < 0).any():
            continue
        if np.linalg.norm(a - b) < 1e-3:
            continue
        pairs.append((tuple(a), tuple(b)))
    return pairs


def _map_source(scn: Scenario, probe):
    """What a scaling map at probe is built from: the boundary system at a
    boundary probe, the scenario's system and order elsewhere."""
    sys_ = scn.system()
    if sys_.box.has_boundary and abs(probe[-1]) < 1e-12:
        return build_boundary_system(sys_, probe, scn.order)
    return sys_, scn.order


# -- verify suites --------------------------------------------------------


def suite_doubling(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    bound = 2.0 ** (scn.n * scn.order * sys_.max_degree)
    rows, ratios = [], []
    for probe in scn.probes:
        for delta in scn.deltas[-3:]:
            lam_ratio = doubling_ratio(sys_, probe, delta, scn.order)
            v1 = ball_volume(sys_, probe, delta, n_samples=8000, seed=scn.seed)
            v2 = ball_volume(sys_, probe, 2 * delta, n_samples=8000, seed=scn.seed + 1)
            ratio = v2.value / v1.value if v1.value > 0 else math.inf
            ratios.append(ratio)
            rows.append(
                {
                    "probe": list(probe),
                    "delta": delta,
                    "lambda_ratio": lam_ratio,
                    "volume_ratio": ratio,
                    "lambda_bound": bound,
                }
            )
    vol_cap = scn.threshold("doubling.volume_C", bound * 1.5)
    stable = True
    for probe in scn.probes:
        per = [r["volume_ratio"] for r in rows if r["probe"] == list(probe)]
        if per:
            stable &= max(per) / min(per) <= 1.5 + 1e-9
    verdicts = [
        {
            "check": "lambda ratio bounded by 2^(n m max_d)",
            "pass": all(r["lambda_ratio"] <= bound * (1 + 1e-9) for r in rows),
        },
        {
            "check": f"sampled volume doubling below {vol_cap}",
            "pass": all(r <= vol_cap for r in ratios),
        },
        {
            "check": "volume ratios stable within x1.5 across scales per probe",
            "pass": stable,
        },
    ]
    return rows, verdicts


def suite_volume(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    rows = []
    for probe in scn.probes:
        for delta in scn.deltas:
            vol = ball_volume(sys_, probe, delta, n_samples=20000, seed=scn.seed)
            lam = compute_lambda(sys_, probe, delta, scn.order)
            rows.append(
                {
                    "probe": list(probe),
                    "delta": delta,
                    "volume": vol.value,
                    "std_error": vol.std_error,
                    "lambda": lam.value,
                    "ratio": vol.value / lam.value if lam.value > 0 else math.inf,
                    "rel_se": vol.std_error / vol.value if vol.value > 0 else math.inf,
                }
            )
    ratios = [r["ratio"] for r in rows]
    cap = scn.threshold("volume.C", 5.0)
    fitted = max(max(ratios), 1.0 / min(ratios)) if ratios else math.inf
    verdicts = [
        {"check": f"volume/lambda within [1/C, C], C = {cap}", "pass": 0 < min(ratios) and fitted <= cap, "fitted_C": fitted},
        {"check": "Monte-Carlo relative SE <= 5%", "pass": all(r["rel_se"] <= 0.05 for r in rows)},
    ]
    return rows, verdicts


def suite_sandwich(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    gain = scn.threshold("scale.gain", 1.0)
    xi_floor = scn.threshold("sandwich.xi1", 0.01)
    rows = []
    for probe in scn.probes:
        source = _map_source(scn, probe)
        for delta in scn.deltas:
            smap = build_scaling_map(source, probe, delta, gain=gain)
            rep = verify_sandwich(sys_, smap, seed=scn.seed)
            rows.append(
                {
                    "probe": list(probe),
                    "delta": delta,
                    "kind": smap.kind,
                    "c0": rep.c0,
                    "xi1": rep.xi1,
                    "outer_fraction": rep.outer_fraction,
                    "newton_failures": rep.newton_failures,
                }
            )
    min_xi = min(r["xi1"] for r in rows)
    verdicts = [
        {"check": "outer containment at every (x, delta)", "pass": all(r["outer_fraction"] >= 0.99 for r in rows)},
        {"check": f"single xi1 >= {xi_floor} passes everywhere", "pass": min_xi >= xi_floor, "xi1": min_xi},
    ]
    return rows, verdicts


def suite_boundary_metric(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    if not sys_.box.has_boundary:
        raise ScenarioError("boundary-metric suite needs a boundary chart", scn.path, 0)
    cap = scn.threshold("boundary_metric.C", 4.0)
    rows, ratios = [], []
    for probe in scn.boundary_probes():
        bsys = build_boundary_system(sys_, probe, scn.order)
        pairs = _pairs_from_probes(scn, 4, spread=min(0.2, bsys.radius * 0.6), boundary=True, around=probe)
        for a, b in pairs:
            v = boundary_metric(bsys, a[:-1], b[:-1])
            w = cc_distance(sys_, a, b, mode="intrinsic", tol=0.05)
            if v.midpoint() <= 0 or w.midpoint() <= 0:
                continue
            ratio = max(v.midpoint() / w.midpoint(), w.midpoint() / v.midpoint())
            ratios.append(ratio)
            rows.append(
                {
                    "probe": list(probe),
                    "pair_a": list(a),
                    "pair_b": list(b),
                    "rho_V": [v.lower, v.upper],
                    "rho_W": [w.lower, w.upper],
                    "two_sided_ratio": ratio,
                }
            )
    verdicts = [
        {
            "check": f"two-sided equivalence with fitted C <= {cap}",
            "pass": bool(ratios) and max(ratios) <= cap,
            "fitted_C": max(ratios) if ratios else math.inf,
        }
    ]
    for cp in scn.char_probes:
        try:
            build_boundary_system(sys_, cp, scn.order)
            detected = False
        except CharacteristicError:
            detected = True
        rows.append({"characteristic_probe": list(cp), "detected": detected})
        verdicts.append({"check": f"characteristic point {list(cp)} flagged", "pass": detected})
    return rows, verdicts


def _anisotropic_spread(scn: Scenario, sys_: WeightedSystem, probe):
    """Per-axis pair spread: 0.6 of the sampled ball extents at the top scale."""
    cloud = sample_ball(sys_, probe, scn.deltas[0], 600, K=8, seed=scn.seed, mode="intrinsic")
    ends = cloud.feasible_endpoints()
    if len(ends) == 0:
        return np.full(scn.n, 0.1)
    return np.maximum(np.abs(ends - np.asarray(probe)).max(axis=0) * 0.6, 1e-3)


def suite_equivalence(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    aug = sys_.augmented((1, 2)) if sys_.r >= 2 else sys_
    cap = scn.threshold("equivalence.C", 3.0)
    per = max(2, -(-6 // len(scn.probes)))
    pairs = []
    for probe in scn.probes:
        pairs += _pairs_from_probes(
            scn, per, spread=_anisotropic_spread(scn, sys_, probe), around=probe
        )

    rows = []
    for a, b in pairs:
        base = cc_distance(sys_, a, b, mode="intrinsic", tol=0.08)
        other = cc_distance(aug, a, b, mode="intrinsic", tol=0.08)
        mid_b, mid_o = base.midpoint(), other.midpoint()
        ratio = max(mid_b / mid_o, mid_o / mid_b) if mid_b > 0 and mid_o > 0 else math.inf
        rows.append(
            {
                "pair_a": list(a),
                "pair_b": list(b),
                "rho_base": [base.lower, base.upper],
                "rho_augmented": [other.lower, other.upper],
                "ratio": ratio,
            }
        )
    ratios = [r["ratio"] for r in rows]
    verdicts = [
        {
            "check": f"augmenting by the bracket keeps distances within fitted C <= {cap}",
            "pass": bool(ratios) and max(ratios) <= cap,
            "fitted_C": max(ratios) if ratios else math.inf,
        },
        {
            "check": "augmented metric never exceeds the base metric",
            "pass": all(r["rho_augmented"][0] <= r["rho_base"][1] * 1.1 + 1e-9 for r in rows),
        },
    ]
    if sys_.box.has_boundary:
        same = True
        for probe in scn.boundary_probes():
            da = deg_boundary(sys_, probe, scn.order).deg
            db = deg_boundary(aug, probe, scn.order).deg
            rows.append({"probe": list(probe), "deg_base": da, "deg_augmented": db})
            same &= da == db
        verdicts.append({"check": "boundary degree invariant under weak equivalence", "pass": same})
    return rows, verdicts


def suite_topology(scn: Scenario) -> tuple[list, list]:
    sys_ = scn.system()
    mode = "intrinsic"
    rows = []
    for probe in scn.probes:
        per_probe = []
        cells = 20 if scn.n <= 2 else 12
        for delta in scn.deltas:
            cloud = sample_ball(sys_, probe, delta, 2500, K=16, seed=scn.seed, mode=mode)
            ends = cloud.feasible_endpoints()
            ext = np.maximum(np.abs(ends - np.asarray(probe)).max(axis=0), 1e-9)
            graph = reach_graph(sys_, probe, delta, mode=mode, res=ext * 1.3 / cells)
            inner_r = 0.0
            for k in range(1, 7):
                corners = np.asarray(probe) + _grid([(-1.0, 1.0)] * scn.n) * (ext * 2.0**-k)
                keep = sys_.box.contains(corners)
                if sys_.box.has_boundary:
                    keep &= corners[:, -1] >= -1e-12
                if keep.any() and graph.contains(corners[keep], dilate=1).all():
                    inner_r = float(2.0**-k)
                    break
            per_probe.append({"delta": delta, "extent": [float(e) for e in ext], "inner_scale": inner_r})
        for i, row in enumerate(per_probe):
            rows.append({"probe": list(probe), **row})
        shrinking = all(
            all(a <= b + 1e-12 for a, b in zip(per_probe[i + 1]["extent"], per_probe[i]["extent"]))
            for i in range(len(per_probe) - 1)
        )
        rows.append({"probe": list(probe), "extents_shrink_with_delta": shrinking})
    verdicts = [
        {
            "check": "a Euclidean box of positive size sits inside every ball",
            "pass": all(r.get("inner_scale", 1.0) > 0 for r in rows if "inner_scale" in r),
        },
        {
            "check": "ball extents shrink along the delta ladder",
            "pass": all(r["extents_shrink_with_delta"] for r in rows if "extents_shrink_with_delta" in r),
        },
    ]
    return rows, verdicts


_SUITE_FNS = {
    "doubling": suite_doubling,
    "volume": suite_volume,
    "sandwich": suite_sandwich,
    "boundary-metric": suite_boundary_metric,
    "equivalence": suite_equivalence,
    "topology": suite_topology,
}


# -- commands -------------------------------------------------------------


def cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    if not scn.probes:
        raise ScenarioError("verify suites need at least one probe", scn.path, 0)
    rows, verdicts = _SUITE_FNS[args.suite](scn)
    report = make_report(scn, f"verify {args.suite}", {"seed": scn.seed}, rows, verdicts)
    emit(report, args.out)
    return 0 if report["pass"] else 2


def cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    for opt, value in (("m-max", args.m_max), ("grid", args.grid)):
        if value is not None and value < 1:
            raise ScenarioError(f"--{opt} must be at least 1, got {value}", scn.path, 0)
    sys_ = scn.system()
    m_max = args.m_max if args.m_max is not None else max(scn.order, 3)
    rep = check_hormander(sys_, m_max, per_axis=args.grid)
    rows = [
        {
            "ok": rep.ok,
            "order": rep.order,
            "min_gamma0": rep.min_gamma0,
            "failures": [list(p) for p in rep.failures],
        }
    ]
    report = make_report(
        scn, "check", {"m_max": args.m_max, "grid": args.grid}, rows,
        [{"check": "Hormander condition certified", "pass": rep.ok}],
    )
    emit(report, args.out)
    return 0 if rep.ok else 2


def cmd_bracket(args) -> int:
    scn = load_scenario(args.scenario)
    sys_ = scn.system()
    word = tuple(args.word)
    for i in word:
        if not 1 <= i <= sys_.r:
            raise ScenarioError(f"bracket word index {i} is outside 1..{sys_.r}", scn.path, 0)
    entries = enumerate_commutators(sys_, len(word))
    match = [e for e in entries if e.word == word]
    # antisymmetric duplicates collapse onto the canonical word
    e = match[0] if match else bracket_entry(sys_, word)
    rows = [{"word": list(e.word), "degree": e.degree, "field": str(e.field), "zero": e.is_zero}]
    print(f"[{','.join(map(str, e.word))}] -> {e.field}  (degree {e.degree})")
    report = make_report(scn, "bracket", {"word": list(word)}, rows, [])
    if args.out:
        emit(report, args.out)
    return 0


def cmd_dist(args) -> int:
    scn = load_scenario(args.scenario)
    _check_points(scn, args, "x", "y")
    sys_ = scn.system()
    x, y = tuple(args.x), tuple(args.y)
    est = cc_distance(sys_, x, y, mode=args.mode, tol=args.tol, K=args.K)
    rows = [{"x": list(x), "y": list(y), "lower": est.lower, "upper": est.upper, "method": est.method}]
    if args.oracle:
        orc = oracle_distance(sys_, x, y, mode=args.mode, resolution=args.resolution)
        rows.append({"x": list(x), "y": list(y), "lower": orc.lower, "upper": orc.upper, "method": orc.method})
        agree = math.isfinite(est.upper) and math.isfinite(orc.upper) and est.intersects(orc, slack=0.05 * max(1e-9, orc.upper))
        report = make_report(scn, "dist", _dist_params(args), rows, [{"check": "shooting interval intersects oracle", "pass": agree}])
        emit(report, args.out)
        return 0 if agree else 2
    report = make_report(scn, "dist", _dist_params(args), rows, [])
    emit(report, args.out)
    return 0


def _check_points(scn: Scenario, args, *options: str) -> None:
    """Usage error unless each named point option has one value per coordinate."""
    for opt in options:
        if len(getattr(args, opt)) != scn.n:
            raise ScenarioError(f"--{opt} needs {scn.n} values for {scn.name}", scn.path, 0)


def _sample_inputs(args):
    """The scenario, system and seed (--seed, else the scenario's) of ball or volume, with
    the point checked and a negative --seed a usage error: numpy takes no such seed."""
    scn = load_scenario(args.scenario)
    _check_points(scn, args, "x")
    _check_in_chart(scn.box, args.x, halfspace=args.mode == "intrinsic")
    if args.seed is not None and args.seed < 0:
        raise ScenarioError(f"--seed must be non-negative, got {args.seed}", scn.path, 0)
    return scn, scn.system(), scn.seed if args.seed is None else args.seed


def _dist_params(args) -> dict:
    return {
        "mode": args.mode,
        "tol": args.tol,
        "K": args.K,
        "oracle": args.oracle,
        "resolution": args.resolution,
    }


def cmd_ball(args) -> int:
    scn, sys_, seed = _sample_inputs(args)
    cloud = sample_ball(sys_, tuple(args.x), args.delta, args.samples, K=args.K, seed=seed, mode=args.mode)
    csv_text = cloud.to_csv()
    if args.out:
        _write(args.out, csv_text)
    else:
        _sys.stdout.write(csv_text)
    return 0


def cmd_volume(args) -> int:
    scn, sys_, seed = _sample_inputs(args)
    vol = ball_volume(sys_, tuple(args.x), args.delta, mode=args.mode, n_samples=args.samples, seed=seed)
    lam = compute_lambda(sys_, tuple(args.x), args.delta, scn.order)
    rows = [
        {
            "x": list(args.x),
            "delta": args.delta,
            "volume": vol.value,
            "std_error": vol.std_error,
            "hits": vol.hits,
            "lambda": lam.value,
            "degenerate": vol.degenerate,
        }
    ]
    report = make_report(scn, "volume", {"samples": args.samples, "seed": seed, "mode": args.mode}, rows, [])
    emit(report, args.out)
    return 0 if not vol.degenerate else 2


def cmd_scale(args) -> int:
    scn = load_scenario(args.scenario)
    _check_points(scn, args, "x")
    sys_ = scn.system()
    gain = args.gain if args.gain is not None else scn.threshold("scale.gain", 1.0)
    x = tuple(args.x)
    smap = build_scaling_map(_map_source(scn, x), x, args.delta, gain=gain)
    rows = [
        {
            "kind": smap.kind,
            "x": list(args.x),
            "delta": args.delta,
            "gain": gain,
            "omega": smap.omega,
            "basis_indices": list(smap.indices),
            "psi0": [float(v) for v in smap(np.zeros(scn.n))],
        }
    ]
    uni = verify_uniform_hormander([smap], sys_, scn.order)
    rows.append({"uniform_span_floor": uni.overall_floor, "sup_magnitude": uni.sup_magnitude})
    ok = uni.overall_floor > 0
    report = make_report(
        scn, "scale", {"delta": args.delta, "gain": gain}, rows, [{"check": "span floor", "pass": ok}]
    )
    emit(report, args.out)
    return 0 if ok else 2


def cmd_boundary(args) -> int:
    scn = load_scenario(args.scenario)
    _check_points(scn, args, "x")
    sys_ = scn.system()
    bsys = build_boundary_system(sys_, tuple(args.x), scn.order, probe_radius=args.radius)
    rows = [
        {
            "x0": list(bsys.x0),
            "deg": bsys.deg,
            "j0": bsys.j0,
            "omega": bsys.omega,
            "radius": bsys.radius,
            "tangency_residual": bsys.tangency_residual,
            "span_floor": bsys.span_floor,
            "v_fields": [[str(vf), d] for vf, d, z in bsys.v_entries if not z],
        }
    ]
    text = export_scenario(bsys, f"{scn.name}_boundary")
    if args.out:
        _write(args.out, text)
    else:
        _sys.stdout.write(text)
    report = make_report(scn, "boundary", {"x": list(args.x), "radius": args.radius}, rows, [])
    if args.report:
        emit(report, args.report)
    return 0


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It records each command's name, not its function: main looks up
    cmd_<command> when it dispatches, so a rebound command is honoured."""
    parser = argparse.ArgumentParser(
        prog="ccgeo",
        description="Carnot-Caratheodory geometry toolkit for weighted Hormander systems",
    )
    parser.add_argument("--version", action="version", version=f"ccgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="scenario path or packaged fixture name")
        p.add_argument("--out", default=None, help="write the report to a .json or .csv file")

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument("--suite", choices=SUITES, required=True)

    p = sub.add_parser("check", help="certify the Hormander condition")
    add_common(p)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--grid", type=int, default=11)

    p = sub.add_parser("bracket", help="evaluate an iterated bracket word")
    add_common(p)
    p.add_argument("word", type=int, nargs="+", help="1-based generator indices")

    p = sub.add_parser("dist", help="CC distance between two points")
    add_common(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--y", type=float, nargs="+", required=True)
    p.add_argument("--mode", choices=("intrinsic", "extrinsic"), default="intrinsic")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument(
        "--K", type=int, default=32,
        help="control segments of shooting's scale search, which runs only where no feasible geodesic is found",
    )
    p.add_argument("--oracle", action="store_true", help="cross-check against the grid oracle")
    p.add_argument("--resolution", type=float, default=0.02)

    p = sub.add_parser("ball", help="sample a reachable-set endpoint cloud as CSV")
    add_common(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("intrinsic", "extrinsic"), default="intrinsic")

    p = sub.add_parser("volume", help="Monte-Carlo ball volume and Lambda")
    add_common(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("intrinsic", "extrinsic"), default="intrinsic")

    p = sub.add_parser("scale", help="build a scaling map and report pullbacks")
    add_common(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gain", type=float, default=None)

    p = sub.add_parser("boundary", help="construct and export the boundary system")
    add_common(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--report", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (FlowExcursionError, CharacteristicError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
