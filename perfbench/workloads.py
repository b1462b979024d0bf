"""Seeded op lists for the three benchmark workloads.

An op is one `ccgeo` command line plus what the checker needs to judge
it: the expected exit codes and, for closed-form ops, the exact value.
The workload seed only moves the inputs inside fixed strata (fixture,
mode, pair class), so every seed draws the same mix of work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dist", "reach", "scale")

# Oracle grid resolution on heisenberg: the 2-D fixtures use the CLI
# default 0.02, which costs minutes per 3-D query.
HEISENBERG_RESOLUTION = 0.05
# Control segments for every dist op: at the CLI default of 32 a pass of
# these ops would last over a minute.  At 4, integrate_controls under
# cc_distance still takes over half of the op time.
DIST_K = 4


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    expect_exit: tuple[int, ...] = (0,)
    exact: float | None = None  # closed-form value the op estimates

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fixture(self) -> str:
        return self.argv[1]


def _pt(p) -> list[str]:
    # fixed point: argparse reads "-4e-06" as an option, not a number
    return [f"{float(v):.6f}" for v in p]


# (fixture, mode, base point, base offset, tags); the seed moves the base
# point and stretches and turns the offset a little, so every seed runs
# the same strata at about the same cost: 0.2-1 s an op, 7-8 s a pass.
# The "pinned" grushin pair is a known defect and does not move: its
# oracle upper end lies below the shooting lower end.  The vertical
# heisenberg pair, at |t| = 0.02, shows the other one on every seed: its
# oracle interval is [0, 0] (the arrival tolerance exceeds |x - y|).
DIST_TEMPLATES = (
    ("elliptic", "intrinsic", (-0.07, 0.47), (0.064, 0.096), ("closed", "short")),
    ("elliptic", "extrinsic", (-0.34, 0.01), (0.3, 0.012), ("closed", "long", "boundary")),
    ("heat", "intrinsic", (0.25, 0.6), (-0.3, -0.15), ("long",)),
    ("heat", "extrinsic", (0.06, 0.012), (-0.10, -0.01), ("boundary",)),
    ("grushin", "intrinsic", (1.0, 0.0), (0.0, 0.05), ("pinned", "short")),
    ("grushin", "intrinsic", (0.53, 0.15), (-0.25, 0.083), ("long",)),
    ("grushin", "intrinsic", (-0.02, -0.095), (0.028, 0.045), ("short", "degenerate-line")),
    ("grushin_straightened", "intrinsic", (0.4, 0.03), (0.25, -0.01), ("boundary", "long")),
    ("grushin_straightened", "extrinsic", (-0.5, 0.14), (0.108, -0.0735), ("long",)),
    ("heisenberg", "extrinsic", (-0.09, 0.0, 0.48), (0.0, 0.02, 0.0), ("closed", "vertical")),
    ("heisenberg", "intrinsic", (-0.01, -0.087, 0.034), (0.13, -0.0065, 0.002), ("boundary", "short")),
    ("elliptic", "intrinsic", (0.4, 0.3), (-0.07, -0.05), ("short",)),
    ("elliptic", "extrinsic", (0.3, 0.6), (0.05, -0.09), ("short",)),
    ("heat", "intrinsic", (-0.3, 0.3), (0.08, 0.05), ("short",)),
    ("heat", "extrinsic", (0.2, 0.4), (-0.06, 0.07), ("short",)),
    ("grushin", "intrinsic", (0.5, 0.0), (0.05, 0.06), ("short",)),
    ("grushin", "extrinsic", (-0.4, 0.2), (0.07, -0.04), ("short",)),
    ("grushin_straightened", "intrinsic", (-0.4, 0.05), (0.06, 0.04), ("short", "boundary")),
    ("grushin_straightened", "extrinsic", (0.3, 0.2), (-0.05, 0.06), ("short",)),
)
# Small on purpose: shooting's cost jumps with its inputs (a Gauss-Newton
# run that stalls falls back to cross-entropy search), and a move of 0.01
# already changed single ops' cost by 2x from seed to seed.
DIST_JITTER = 0.002  # base point displacement
DIST_STRETCH = 0.01  # relative change of the offset length
DIST_TURN = 0.01  # radians the offset turns by, in the first two coordinates


def dist_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for i, (fixture, mode, x, v, tags) in enumerate(DIST_TEMPLATES):
        x, v = np.array(x), np.array(v)
        if "pinned" not in tags:
            x = x + rng.uniform(-DIST_JITTER, DIST_JITTER, size=len(x))
            v = v * rng.uniform(1 - DIST_STRETCH, 1 + DIST_STRETCH)
            if "vertical" in tags:
                x[1] = 0.0  # (y, 0, x) -> (y, t, x)
            else:
                a = rng.uniform(-DIST_TURN, DIST_TURN)
                v[:2] = (v[0] * math.cos(a) - v[1] * math.sin(a), v[0] * math.sin(a) + v[1] * math.cos(a))
        y = x + v
        if "boundary" in tags:
            x[-1], y[-1] = abs(x[-1]), abs(y[-1])  # stay in the closed half space
        x, y = np.round(x, 6), np.round(y, 6)  # the values the command line carries
        exact = None
        if "closed" in tags:
            exact = math.dist(x, y) if fixture == "elliptic" else math.sqrt(4.0 * math.pi * abs(y[1] - x[1]))
        argv = ["dist", fixture, "--x", *_pt(x), "--y", *_pt(y), "--mode", mode, "--K", str(DIST_K), "--oracle"]
        if fixture == "heisenberg":
            argv += ["--resolution", repr(HEISENBERG_RESOLUTION)]
        out.append(Op(f"dist{i:02d}-{fixture}-{mode}", tuple(argv), (0,), exact))
    return out


JITTER = 0.01  # probe displacement per seed; tangential at boundary probes
# Rungs of each fixture's delta ladder that `reach` and `scale` run: the
# two smallest, so that a pass stays short enough for three in one run.
LADDER = 2


def _on_boundary(scn, p) -> bool:
    return scn.box.has_boundary and abs(p[-1]) < 1e-12


def _jittered(rng, scn, p):
    q = [v + float(rng.uniform(-JITTER, JITTER)) for v in p]
    if _on_boundary(scn, p):
        q[-1] = 0.0
    return tuple(q)


def reach_ops(seed: int, scenarios: dict) -> list[Op]:
    """`ccgeo volume` at the LADDER smallest deltas of every probe of the
    2-D fixtures and of the interior probes of the 3-D ones.  A 3-D
    boundary probe is left out: one volume at heisenberg's takes 11-13 s,
    a pass by itself.  The seed moves the probes; the Monte-Carlo seed
    stays the fixture's, because the grid resolution follows the extent
    of a 1500-point endpoint cloud and a new cloud alone changes an op's
    cost by up to 2x."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for name, scn in scenarios.items():
        for probe in scn.probes:
            if scn.n > 2 and _on_boundary(scn, probe):
                continue
            x = _jittered(rng, scn, probe)
            tag = "boundary" if _on_boundary(scn, probe) else "interior"
            for delta in scn.deltas[-LADDER:]:
                exact = None
                if name == "elliptic":  # Euclidean disc, halved on the boundary
                    exact = math.pi * delta**2 / (2.0 if tag == "boundary" else 1.0)
                argv = ("volume", name, "--x", *_pt(x), "--delta", repr(delta))
                ops.append(Op(f"vol{len(ops):02d}-{name}-{tag}-{delta}", argv, (0,), exact))
    return ops


def scale_ops(seed: int, scenarios: dict) -> list[Op]:
    """`ccgeo scale` at the LADDER smallest deltas of every probe of every
    fixture and `ccgeo boundary` at every boundary probe, plus both at each
    characteristic probe, whose documented outcome is exit 3.  The seed
    moves the probes and shuffles the order."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for name, scn in scenarios.items():
        deltas = scn.deltas[-LADDER:]
        for probe in scn.probes:
            x = _jittered(rng, scn, probe)
            for delta in deltas:
                items.append((("scale", name, "--x", *_pt(x), "--delta", repr(delta)), (0,)))
            if _on_boundary(scn, probe):
                items.append((("boundary", name, "--x", *_pt(x)), (0,)))
        for probe in scn.char_probes:
            delta = float(rng.choice(deltas))
            items.append((("scale", name, "--x", *_pt(probe), "--delta", repr(delta)), (3,)))
            items.append((("boundary", name, "--x", *_pt(probe)), (3,)))
    order = rng.permutation(len(items))
    return [
        Op(f"{items[k][0][0]}{i:02d}-{items[k][0][1]}", *items[k])
        for i, k in enumerate(order)
    ]


# One light op per workload, run during set-up so lazy imports and
# first-call costs are paid before timing starts.
WARMUP = {
    "dist": Op("warmup", ("dist", "elliptic", "--x", "0.0", "0.5", "--y", "0.05", "0.5", "--K", "4")),
    "reach": Op("warmup", ("volume", "elliptic", "--x", "0.0", "0.5", "--delta", "0.1", "--samples", "2000")),
    "scale": Op("warmup", ("scale", "elliptic", "--x", "0.0", "0.5", "--delta", "0.1")),
}

def ops_for(workload: str, seed: int, scenarios: dict) -> list[Op]:
    """The op list of one workload; `scenarios` maps each packaged
    fixture's name to its loaded `Scenario` (probes, delta ladder,
    boundary, characteristic probes)."""
    if workload == "dist":
        return dist_ops(seed)
    return {"reach": reach_ops, "scale": scale_ops}[workload](seed, scenarios)
