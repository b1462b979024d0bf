"""Per-op verdicts from each command's exit code and JSON report.

An op fails when it raises or exits with a code it was not expected to,
when a distance interval is reversed, non-finite or zero for distinct
points, when the shooting and oracle intervals do not intersect within
the CLI's own 5 % slack, when a volume has no hits, a relative standard
error above 5 % or a volume/Lambda ratio outside the fixture's
`threshold.volume.C`, and when a scale op fails its own pullback or
span check.  Failing ops are counted, never dropped or re-drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .workloads import Op

SLACK = 0.05  # relative slack of `ccgeo dist --oracle` (cli.cmd_dist)
MAX_REL_SE = 0.05  # the volume suite's Monte-Carlo tolerance
DEFAULT_VOLUME_C = 5.0  # suite_volume's default for fixtures without one


@dataclass
class Result:
    """What one op produced: exit code, captured output, parsed report."""

    code: int | None
    stdout: str = ""
    report: dict | None = None
    error: str | None = None  # repr of an exception that escaped ccgeo


@dataclass
class Verdict:
    ok: bool
    reasons: list[str] = field(default_factory=list)
    miss_rel: float | None = None  # relative gap to the closed-form value


def interval_gap(exact: float, lower: float, upper: float) -> float:
    """Relative distance from exact to [lower, upper]; 0 inside."""
    return max(0.0, lower - exact, exact - upper) / exact


def check(op: Op, res: Result, volume_c: float | None = None) -> Verdict:
    reasons: list[str] = []
    if res.error is not None:
        return Verdict(False, [f"raised {res.error}"])
    if res.code not in op.expect_exit:
        reasons.append(f"exit {res.code}, expected {list(op.expect_exit)}")
    if res.code == 3:
        # the documented numeric-error outcome carries no report
        return Verdict(not reasons, reasons)
    if res.report is None:
        return Verdict(False, reasons + ["no JSON report"])
    miss = None
    if op.command == "dist":
        miss = _check_dist(op, res.report, reasons)
    elif op.command == "volume":
        miss = _check_volume(op, res.report, reasons, volume_c or DEFAULT_VOLUME_C)
    elif op.command == "scale":
        _check_scale(res.report, reasons)
    elif op.command == "boundary":
        _check_boundary(res.report, reasons)
    return Verdict(not reasons, reasons, miss)


def _check_dist(op: Op, report: dict, reasons: list[str]) -> float | None:
    rows = report["rows"]
    for row in rows:
        lo, hi, method = row["lower"], row["upper"], row["method"]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            reasons.append(f"{method} interval [{lo}, {hi}] is not finite")
        elif lo > hi:
            reasons.append(f"{method} interval [{lo}, {hi}] is reversed")
        elif hi <= 0.0:
            reasons.append(f"{method} interval [{lo}, {hi}] is zero for distinct points")
    if len(rows) == 2:
        est, orc = rows
        ref = orc["upper"] if math.isfinite(orc["upper"]) else est["upper"]
        slack = SLACK * max(1e-9, ref)
        if not (est["lower"] <= orc["upper"] + slack and orc["lower"] <= est["upper"] + slack):
            reasons.append(
                f"shooting [{est['lower']:.4g}, {est['upper']:.4g}] and oracle "
                f"[{orc['lower']:.4g}, {orc['upper']:.4g}] do not intersect"
            )
    if op.exact is None:
        return None
    return max(interval_gap(op.exact, r["lower"], r["upper"]) for r in rows)


def _check_volume(op: Op, report: dict, reasons: list[str], cap: float) -> float | None:
    row = report["rows"][0]
    vol, se, lam = row["volume"], row["std_error"], row["lambda"]
    if row["hits"] == 0:
        reasons.append("zero hits")
    elif se / vol > MAX_REL_SE:
        reasons.append(f"relative SE {se / vol:.3f} above {MAX_REL_SE}")
    ratio = vol / lam if lam > 0 else math.inf
    if not (0 < ratio and max(ratio, 1.0 / ratio) <= cap):
        reasons.append(f"volume/Lambda {ratio:.3g} outside [1/{cap}, {cap}]")
    if op.exact is None:
        return None
    return max(0.0, abs(op.exact - vol) - 2.0 * se) / op.exact


def _check_scale(report: dict, reasons: list[str]) -> None:
    # the command's own pullback-identity and span-floor verdict
    if not report["pass"]:
        reasons.append("pullback or span check failed")


def _check_boundary(report: dict, reasons: list[str]) -> None:
    row = report["rows"][0]
    if row["deg"] < 1:
        reasons.append(f"boundary degree {row['deg']} below 1")
    if not row["v_fields"]:
        reasons.append("no induced boundary fields")
