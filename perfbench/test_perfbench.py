"""Tests of the benchmark harness itself: statistics, spans, checker."""
import json
import math

import pytest

from perfbench import checker, reference, stats, tracing, workloads


def test_tail_leaves_ten_samples_above():
    xs = list(range(1, 41))  # 40 samples
    value, pct = stats.tail(xs)
    assert value == 30 and pct == 75.0
    assert sum(x > value for x in xs) == 10


def test_tail_is_order_free_and_grows_with_samples():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # 100 samples
    value, pct = stats.tail(xs)
    assert pct == 90.0 and value == 5.0
    assert stats.tail(sorted(xs)) == (value, pct)


def test_tail_with_too_few_samples_falls_back_to_minimum():
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)
    assert stats.tail(list(range(11))) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        stats.tail([])


def test_reference_seconds_cancel_a_slower_machine():
    # an op and the kernel around it both twice as slow: same reference time
    fast = reference.scaled(0.5, reference.KERNEL_S)
    assert fast == pytest.approx(0.5)
    assert reference.scaled(1.0, 2 * reference.KERNEL_S) == pytest.approx(fast)
    assert reference.kernel_seconds() > 0


class _Clock:
    """Deterministic stand-in for perf_counter."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _nested_tracer(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    tr = tracing.Tracer()

    def leaf(_self, pts):
        clock.t += 0.5
        return pts

    def inner():
        clock.t += 1.0
        tr._leaf(leaf, (None, [[0.0, 0.0]] * 3), {})
        clock.t += 1.0

    def outer():
        clock.t += 2.0
        tr._call("m.inner", inner, None, (), {})
        tr._call("m.inner", inner, None, (), {})
        clock.t += 3.0

    tr.op = "op0"
    tr._call("m.outer", outer, None, (), {})
    return tr


def test_self_time_subtracts_child_spans(monkeypatch):
    tr = _nested_tracer(monkeypatch)
    inner_a, inner_b, outer = tr.spans
    assert outer.name == "m.outer" and outer.parent is None
    assert inner_a.parent is outer and inner_b.parent is outer
    assert {s.op for s in tr.spans} == {"op0"}
    # inner: 2.5 s long, 0.5 s of it in a folded leaf call
    assert inner_a.duration == pytest.approx(2.5)
    assert inner_a.self_time == pytest.approx(2.0)
    assert inner_a.leaf_calls == 1 and inner_a.leaf_rows == 3
    # outer: 2 + 2.5 + 2.5 + 3 = 10 s, of which its children cover 5 s
    assert outer.duration == pytest.approx(10.0)
    assert outer.self_time == pytest.approx(5.0)
    assert tracing.inclusive_s(tr.spans, "m.inner") == pytest.approx(5.0)


def test_spans_are_written_with_parent_links(monkeypatch, tmp_path):
    tr = _nested_tracer(monkeypatch)
    tr.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["m.inner", "m.inner", "m.outer"]
    assert [r["parent"] for r in rows] == [2, 2, None]
    assert rows[0]["eval_many"] == {"calls": 1, "rows": 3, "s": 0.5}


def test_inclusive_time_counts_recursion_once(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    tr = tracing.Tracer()

    def rec(depth):
        clock.t += 1.0
        if depth:
            tr._call("m.rec", rec, None, (depth - 1,), {})

    tr._call("m.rec", rec, None, (2,), {})
    assert len(tr.spans) == 3
    assert tracing.inclusive_s(tr.spans, "m.rec") == pytest.approx(3.0)
    assert sum(s.self_time for s in tr.spans) == pytest.approx(3.0)


def test_span_records_the_exception_type(monkeypatch):
    tr = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr._call("m.boom", boom, None, (), {})
    assert tr.spans[0].error == "KeyError" and not tr.stack


def _dist_op(exact=None):
    return workloads.Op("d", ("dist", "grushin", "--x", "1", "0", "--y", "1", "0.05"), exact=exact)


def _dist_report(shoot, oracle):
    rows = [
        {"lower": shoot[0], "upper": shoot[1], "method": "shooting"},
        {"lower": oracle[0], "upper": oracle[1], "method": "oracle"},
    ]
    return {"rows": rows, "pass": True}


def test_checker_flags_zero_interval():
    res = checker.Result(0, report=_dist_report((0.39, 0.40), (0.0, 0.0)))
    v = checker.check(_dist_op(), res)
    assert not v.ok
    assert any("zero" in r for r in v.reasons)


def test_checker_flags_disjoint_intervals():
    # the grushin (1,0)->(1,0.05) pair as measured on the seed
    res = checker.Result(2, report=_dist_report((0.0484375, 0.05), (0.0118, 0.0375)))
    v = checker.check(_dist_op(), res)
    assert not v.ok
    assert any("do not intersect" in r for r in v.reasons)
    assert any("exit 2" in r for r in v.reasons)


def test_checker_accepts_overlap_within_slack_and_measures_exact_gap():
    # oracle upper 0.2096 plus 5 % slack reaches the shooting lower 0.2200
    res = checker.Result(0, report=_dist_report((0.2200, 0.2306), (0.1919, 0.2096)))
    v = checker.check(_dist_op(exact=0.2250), res)
    assert v.ok, v.reasons
    # inside the shooting interval, above the oracle's: the wider gap counts
    assert v.miss_rel == pytest.approx((0.2250 - 0.2096) / 0.2250)


def test_checker_flags_non_finite_and_raised():
    res = checker.Result(0, report=_dist_report((0.0, math.inf), (0.1, 0.2)))
    assert not checker.check(_dist_op(), res).ok
    assert not checker.check(_dist_op(), checker.Result(None, error="ValueError()")).ok


def test_checker_volume_rules():
    op = workloads.Op("v", ("volume", "elliptic", "--x", "0", "0.5", "--delta", "0.1"), exact=math.pi * 0.01)
    good = {"rows": [{"volume": 0.0316, "std_error": 0.0003, "hits": 900, "lambda": 0.01}]}
    v = checker.check(op, checker.Result(0, report=good), volume_c=4.0)
    assert v.ok and v.miss_rel == 0.0
    noisy = {"rows": [{"volume": 0.0316, "std_error": 0.01, "hits": 9, "lambda": 0.01}]}
    assert not checker.check(op, checker.Result(0, report=noisy), volume_c=4.0).ok
    off = {"rows": [{"volume": 0.0316, "std_error": 0.0003, "hits": 900, "lambda": 0.001}]}
    assert not checker.check(op, checker.Result(0, report=off), volume_c=4.0).ok


def test_expected_numeric_error_passes():
    op = workloads.Op("c", ("scale", "grushin_straightened", "--x", "0", "0", "--delta", "0.1"), (3,))
    assert checker.check(op, checker.Result(3)).ok
    report = {"rows": [{}, {"pullback_identity_residuals": [1e-9]}, {"uniform_span_floor": 0.5}], "pass": True}
    v = checker.check(op, checker.Result(0, report=report))
    assert not v.ok and v.reasons == ["exit 0, expected [3]"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_seeded(workload):
    cli = pytest.importorskip("ccgeo.cli")
    scenarios = {p.stem: cli.load_scenario(p.stem) for p in cli.fixtures_dir().glob("*.scn")}
    a, b = workloads.ops_for(workload, 3, scenarios), workloads.ops_for(workload, 3, scenarios)
    assert a == b
    assert workloads.ops_for(workload, 4, scenarios) != a
    assert len({op.id for op in a}) == len(a)


def test_tracer_patches_every_binding_and_restores_them():
    cli = pytest.importorskip("ccgeo.cli")
    import contextlib
    import io

    from ccgeo import ccmetric

    original = ccmetric.cc_distance
    tr = tracing.Tracer()
    tr.install()
    try:
        # the CLI's own name and the defining module's both go through the tracer
        assert cli.cc_distance is ccmetric.cc_distance is not original
        assert cli.cc_distance.__wrapped__ is original
        assert tr.bindings > len(tr.targets) > len(tracing.METHODS)
        tr.op = "op0"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scale", "elliptic", "--x", "0", "0.5", "--delta", "0.1"]) == 0
    finally:
        tr.uninstall()
    assert cli.cc_distance is original
    assert [s.name for s in tr.spans if s.name in tracing.OP_SPANS] == ["cli.cmd_scale"]
    assert {s.op for s in tr.spans} == {"op0"}
    metrics = tracing.layer_metrics(tr)
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["scaling.map_builds"] == 1 and metrics["flows.rk4_steps"] > 0
    name, share, recorded = tracing.prediction(tr, "scale")
    assert recorded and share > 0.5
