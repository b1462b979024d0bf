"""Run a ccgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop: one caller runs one `ccgeo` command at a
time through `ccgeo.cli.main`, in this process, with BLAS/OpenMP pinned
to one thread.  Every op's exit code and JSON report is checked.  With
`--trace 0` the end-to-end metrics are printed; with `--trace 1` one
untraced pass is followed by a traced pass and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  `--workload all` runs the
three workloads in turn, alternating their order with the seed.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checker, reference, stats, tracing, workloads  # noqa: E402

# Rough seconds of one pass on the 2-core x86 baseline box.  A run makes
# max(MIN_PASSES, seconds // NOMINAL_PASS_S) passes (3, 2 and 3 at
# --seconds 30), a fixed amount of work, each in its own seeded order.  Every op is timed once per pass,
# scaled to reference seconds by the kernel timed around it (see
# reference.py), and reduced to its median over the passes.
NOMINAL_PASS_S = {"dist": 9.0, "reach": 14.0, "scale": 9.0}
MIN_PASSES = 2
# Set-up is timed in fresh interpreters, one before each pass and the
# rest after the last, so the samples spread over the run.
SETUP_SAMPLES = 3
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
HARNESS_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "check.fail_frac": "ratio",
    "check.exact_miss_rel": "ratio",
}


class BenchError(Exception):
    """The harness could not vouch for a result (not an op failure)."""


def load_cli():
    """Import ccgeo from this checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ccgeo import cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise ImportError(f"ccgeo imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op: workloads.Op) -> tuple[checker.Result, float]:
    argv = list(op.argv)
    report_path = None
    if op.command == "boundary":
        STATE.mkdir(exist_ok=True)
        report_path = STATE / "boundary-report.json"
        report_path.unlink(missing_ok=True)
        argv += ["--report", str(report_path)]
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaping exception is this op's failure
        code, error = None, repr(exc)
    dt = time.perf_counter() - t0
    res = checker.Result(code, out.getvalue(), error=error)
    text = res.stdout
    if report_path is not None:
        text = report_path.read_text() if report_path.exists() else ""
    if code in (0, 2) and text:
        with contextlib.suppress(json.JSONDecodeError):  # judge() reports it missing
            res.report = json.loads(text)
    return res, dt


def digest(op: workloads.Op, res: checker.Result) -> str:
    body = json.dumps([op.id, res.code, res.stdout, res.report, res.error], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def setup(workload: str, seed: int):
    cli = load_cli()
    scenarios = {p.stem: cli.load_scenario(p.stem) for p in sorted(cli.fixtures_dir().glob("*.scn"))}
    caps = {name: scn.threshold("volume.C", checker.DEFAULT_VOLUME_C) for name, scn in scenarios.items()}
    ops = workloads.ops_for(workload, seed, scenarios)
    run_op(cli, workloads.WARMUP[workload])
    return cli, caps, ops


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter process, and the kernel's time there."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def run_pass(cli, ops, order, tracer=None):
    """Run every op once in `order` (indices into ops), timing the
    reference kernel before the first op and after each.

    Returns, in the order of `ops`, results, measured seconds and the
    mean kernel time on either side of each op.
    """
    results, times, kernels = [None] * len(ops), [0.0] * len(ops), [0.0] * len(ops)
    before = reference.kernel_seconds()
    for i in order:
        if tracer is not None:
            tracer.op = ops[i].id
        results[i], times[i] = run_op(cli, ops[i])
        after = reference.kernel_seconds()
        kernels[i] = 0.5 * (before + after)
        before = after
    return results, times, kernels


def judge(ops, results, caps):
    """Checker verdicts; raises BenchError when the harness cannot judge."""
    verdicts = []
    for op, res in zip(ops, results):
        if res.error is not None:
            raise BenchError(f"{op.id}: ccgeo raised {res.error}")
        if res.code == 1:
            raise BenchError(f"{op.id}: ccgeo rejected the command line")
        if res.code in (0, 2) and res.report is None:
            raise BenchError(f"{op.id}: exit {res.code} without a JSON report")
        verdicts.append(checker.check(op, res, caps.get(op.fixture)))
    return verdicts


def fingerprint(ops) -> str:
    """Hash of the op list and of the program and benchmark sources."""
    h = hashlib.sha256(json.dumps([op.argv for op in ops]).encode())
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.scn"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def remember(workload: str, seed: int, ops, key: str, values: dict) -> None:
    """Compare with an earlier run of the same code and seed, then store.

    A mismatch means the program or the tracer is not deterministic.
    """
    STATE.mkdir(exist_ok=True)
    path = STATE / f"{workload}-{seed}-{fingerprint(ops)}.json"
    saved = json.loads(path.read_text()) if path.exists() else {}
    if key in saved and saved[key] != values:
        diff = sorted(k for k in set(saved[key]) | set(values) if saved[key].get(k) != values.get(k))
        raise BenchError(f"{key} differ from an earlier run with seed {seed}: {diff[:5]}")
    saved[key] = values
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(saved, sort_keys=True))
    os.replace(tmp, path)


def environment(order) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
    except (TypeError, KeyError):  # older numpy only prints its config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "loadavg_start": os.getloadavg(),
        "order": list(order),
    }


def print_verdicts(ops, times, verdicts) -> None:
    for op, dt, v in zip(ops, times, verdicts):
        status = "ok  " if v.ok else "FAIL"
        extra = f" miss_rel={v.miss_rel:.4f}" if v.miss_rel is not None else ""
        why = f"  ({'; '.join(v.reasons)})" if v.reasons else ""
        print(f"  {status} {dt:7.3f} s  {op.id}{extra}{why}")


def quality(verdicts) -> tuple[int, float]:
    failed = sum(not v.ok for v in verdicts)
    misses = [v.miss_rel for v in verdicts if v.miss_rel is not None]
    return failed, (sum(misses) / len(misses) if misses else 0.0)


def end_to_end(workload: str, seed: int, seconds: int):
    cli, caps, ops = setup(workload, seed)
    n_pass = max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))
    measured, scaled, setups, first = [], [], [], None
    for k in range(n_pass):
        setups.append(setup_seconds(workload, seed))
        order = np.random.default_rng([seed, 4, k]).permutation(len(ops))
        results, times, kernels = run_pass(cli, ops, order)
        digests = {op.id: digest(op, r) for op, r in zip(ops, results)}
        if first is None:
            first = (results, digests)
        elif digests != first[1]:
            raise BenchError("op reports differ between two passes of one run")
        measured.append(times)
        scaled.append([reference.scaled(t, c) for t, c in zip(times, kernels)])
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(workload, seed))
    results, digests = first
    remember(workload, seed, ops, "digests", digests)
    verdicts = judge(ops, results, caps)
    failed, miss = quality(verdicts)
    per_op = [stats.median(ts) for ts in zip(*scaled)]
    all_scaled = [t for times in scaled for t in times]
    tail, pct = stats.tail(all_scaled)
    print(f"[{workload}] seed {seed}: {len(ops)} ops x {n_pass} passes, median reference seconds per op")
    print_verdicts(ops, per_op, verdicts)
    metrics = {
        "setup_s": stats.median([reference.scaled(t, c) for t, c in setups]),
        "wall_s": sum(per_op),
        "op_p50_s": stats.median(per_op),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in metrics.items():
        note = f"  (p{pct:.1f} of {len(all_scaled)} op runs)" if name == "op_tail_s" else ""
        print(f"  {name:16s} {value:12.4f} {E2E_UNITS[name]}{note}")
    print(f"  {'fail_frac':16s} {failed / len(ops):12.4f} ratio  ({failed} of {len(ops)} ops)")
    print(f"  {'exact_miss_rel':16s} {miss:12.4f} ratio")
    raw = [stats.median(ts) for ts in zip(*measured)]
    print(f"  measured, not scaled: wall {sum(raw):.4f} s, op p50 {stats.median(raw):.4f} s, "
          f"set-up {stats.median([t for t, _ in setups]):.4f} s; passes {' '.join(f'{sum(t):.3f}' for t in measured)} s")
    return len(ops) * n_pass, failed * n_pass, metrics, E2E_UNITS


def traced(workload: str, seed: int):
    cli, caps, ops = setup(workload, seed)
    every = range(len(ops))
    results, times, _ = run_pass(cli, ops, every)
    wall_plain = sum(times)
    plain = {op.id: digest(op, r) for op, r in zip(ops, results)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced_results, traced_times, _ = run_pass(cli, ops, every, tracer)
    except tracing.CoverageError as exc:
        raise BenchError(str(exc)) from exc
    finally:
        tracer.uninstall()
    STATE.mkdir(exist_ok=True)
    spans_path = STATE / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    wall_traced = sum(traced_times)
    if {op.id: digest(op, r) for op, r in zip(ops, traced_results)} != plain:
        raise BenchError("tracing changed an op's report")
    remember(workload, seed, ops, "digests", plain)
    op_spans = sum(s.name in tracing.OP_SPANS for s in tracer.spans)
    if op_spans != len(ops):
        raise BenchError(f"tracer saw {op_spans} ops, the op list has {len(ops)}")
    name, share, recorded = tracing.prediction(tracer, workload)
    if not recorded:
        raise BenchError(f"{name} recorded no spans on {workload}, where it should dominate")
    verdicts = judge(ops, results, caps)
    failed, miss = quality(verdicts)
    metrics = tracing.layer_metrics(tracer)
    units = {**tracing.LAYER_UNITS, **HARNESS_UNITS}
    metrics.update({
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.spans": len(tracer.spans),
        "check.fail_frac": failed / len(ops),
        "check.exact_miss_rel": miss,
    })
    remember(workload, seed, ops, "counts", {k: v for k, v in metrics.items() if units[k] == "count"})
    verdict = "holds" if share >= 0.5 else "MISMATCH"
    print(f"[{workload}] seed {seed}: traced {len(ops)} ops, {tracer.bindings} bindings wrapped")
    print_verdicts(ops, times, verdicts)
    print(f"  prediction: {name} takes {share:.1%} of op time on {workload} -> {verdict}")
    print(f"  untraced wall {wall_plain:.3f} s, traced {wall_traced:.3f} s, overhead {wall_traced - wall_plain:.3f} s")
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for key in sorted(metrics):
        print(f"  {key:36s} {metrics[key]:14.6g} {units[key]}")
    return len(ops), failed, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_cli()  # no program, no result

    if args.setup_probe:
        setup(args.workload, args.seed)
        setup_s = time.perf_counter() - T_START
        kernel_s = stats.median([reference.kernel_seconds() for _ in range(3)])
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0

    order = workloads.WORKLOADS if args.seed % 2 == 0 else workloads.WORKLOADS[::-1]
    if args.workload != "all":
        order = (args.workload,)
    env = environment(order)
    attempted = failed = 0
    metrics = {}
    correct = True
    for w in order:
        try:
            if args.trace:
                a, f, m, u = traced(w, args.seed)
            else:
                a, f, m, u = end_to_end(w, args.seed, args.seconds)
        except BenchError as exc:
            print(f"[{w}] benchmark check failed: {exc}", file=sys.stderr)
            correct = False
            continue
        attempted += a
        failed += f
        prefix = "" if args.workload != "all" else f"{w}."
        metrics.update({prefix + k: {"value": v, "unit": u[k]} for k, v in m.items()})
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
