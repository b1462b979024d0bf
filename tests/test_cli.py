import json
import re
from pathlib import Path

import numpy as np
import pytest

from ccgeo.cli import ScenarioError, emit, fixtures_dir, load_scenario, main, parse_scenario_text
from ccgeo.symexpr import parse_vfield


def test_load_packaged_fixtures():
    for name in ("elliptic", "heat", "heisenberg", "grushin", "grushin_straightened", "degenerate"):
        scn = load_scenario(name)
        assert scn.name == name
        scn.system()


def test_fixture_elliptic_shape():
    scn = load_scenario("elliptic")
    assert scn.n == 2
    assert scn.box.has_boundary
    assert scn.system().fields == ((parse_vfield("1, 0", 2), 1), (parse_vfield("0, 1", 2), 1))


def test_fixture_grushin_straightened_shape():
    scn = load_scenario("grushin_straightened")
    assert scn.system().fields == ((parse_vfield("1, 0-2*x1", 2), 1), (parse_vfield("0, x1", 2), 1))
    assert scn.box.has_boundary
    assert scn.char_probes == ((0.0, 0.0),)


def test_scenario_rejects_zero_degree():
    text = 'name = bad\ndim = 1\nbox = 1.0\nfield = "1" degree = 0\ndelta = 0.2 0.1\n'
    with pytest.raises(ScenarioError):
        parse_scenario_text(text)


def test_scenario_rejects_increasing_deltas():
    text = 'name = bad\ndim = 1\nbox = 1.0\nfield = "1" degree = 1\ndelta = 0.1 0.2\n'
    with pytest.raises(ScenarioError):
        parse_scenario_text(text)


def test_scenario_rejects_probe_outside_chart():
    text = 'name = bad\ndim = 1\nbox = 1.0\nfield = "1" degree = 1\nprobe = 3.0\ndelta = 0.2 0.1\n'
    with pytest.raises(ScenarioError):
        parse_scenario_text(text)


_SCENARIO_LINES = [
    "name = bad",
    "dim = 2",
    "box = 1.0 1.0",
    "boundary = true",
    'field = "1, 0" degree = 1',
    'field = "0, 1" degree = 1',
    "probe = 0.0 0.5",
    "delta = 0.2 0.1",
]


@pytest.mark.parametrize(
    "line, text",
    [
        (2, "dim = 0"),
        (2, "dim = 10"),
        (3, "box = 1.0"),
        (3, "box = 1.0 0.0"),
        (7, "probe = 0.0"),
        (8, "delta ="),
        (8, "delta = 0.2 0.0"),
        (8, "delta = 0.2 -0.1"),
        (9, "m = 0"),
        (9, "center = 0.0"),
        (9, "characteristic_probe = 0.0"),
        (9, "characteristic_probe = 5.0 0.0"),
        (9, "characteristic_probe = 0.0 0.3"),
        (5, 'field = "1, 0+" degree = 1'),
        (9, 'density = "x1+"'),
        (9, 'density = "0-1"'),
        (9, "seed = -3"),
    ],
)
def test_malformed_scenario_is_rejected_at_parse_time(line, text, tmp_path, capsys):
    # these used to parse: an empty ladder then escaped main with an
    # IndexError or exited 3, and the rest failed later, or with exit 3;
    # an expression syntax error named no file or line, and a density
    # that is not positive exited 3
    lines = list(_SCENARIO_LINES)
    if line > len(lines):
        lines.append(text)
    else:
        lines[line - 1] = text
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(path.read_text(), str(path))
    assert (err.value.path, err.value.line) == (str(path), line)
    for suite in ("equivalence", "volume"):
        assert main(["verify", str(path), "--suite", suite]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_unknown_scenario_is_usage_error():
    assert main(["check", "no_such_fixture"]) == 1


@pytest.mark.parametrize("arg", ["src", ""])
def test_directory_is_not_a_scenario(arg, tmp_path, monkeypatch, capsys):
    # Path("") is ".": a directory must fail as a usage error, not escape
    # main as an IsADirectoryError traceback
    (tmp_path / "src").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["check", arg]) == 1
    assert capsys.readouterr().err == f"error: {arg}:0: no such scenario file or fixture {arg!r}\n"


def test_undecodable_scenario_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(_ELLIPTIC.replace("name = elliptic", "name = \u00e9lliptic").encode("latin-1"))
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}:0: cannot read scenario: 'utf-8' codec can't decode")


def test_check_exit_codes():
    assert main(["check", "grushin"]) == 0
    assert main(["check", "degenerate"]) == 2


def test_bracket_prints_field(capsys):
    assert main(["bracket", "grushin", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.0, 1.0" in out
    assert "degree 2" in out


def test_ball_csv_reruns_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ball", "grushin", "--x", "0", "0", "--delta", "0.3", "--samples", "200", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "x1,x2,feasible"


def test_dist_report_deterministic(tmp_path, capsys):
    args = ["dist", "elliptic", "--x", "0", "0.5", "--y", "0.2", "0.5", "--tol", "0.1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["rows"][0]["lower"] <= 0.21
    assert report["rows"][0]["upper"] >= 0.19


def test_dist_oracle_cross_check():
    assert main(["dist", "elliptic", "--x", "0", "0.5", "--y", "0.25", "0.5", "--tol", "0.1", "--oracle"]) == 0


def test_dist_oracle_cross_check_fails_on_unresolved_interval(capsys):
    # the pair is within the oracle's arrival tolerance, so its interval is [0, inf]
    args = ["dist", "heisenberg", "--x", "0", "0", ".5", "--y", "0", ".01", ".5", "--mode", "extrinsic", "--oracle"]
    assert main(args) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["rows"][1]["upper"] == float("inf")
    assert report["verdicts"] == [{"check": "shooting interval intersects oracle", "pass": False}]


@pytest.mark.parametrize("resolution", ["0", "-0.02", "nan"])
def test_dist_oracle_rejects_bad_resolution(resolution, capsys):
    # a non-positive or NaN grid used to give the interval [0, inf] (exit 2)
    # or a NaN upper end, which is not valid JSON
    args = ["dist", "elliptic", "--x", "0", "0.5", "--y", "0.05", "0.5", "--K", "4", "--oracle",
            "--resolution", resolution]
    assert main(args) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["dist", "elliptic", "--x", "0", "0.5", "--y", "0.1", "--K", "4"],
        ["dist", "elliptic", "--x", "0", "0.5", "--y", "0.1", "--K", "4", "--oracle"],
        ["dist", "elliptic", "--x", "0", "0.5", "0", "--y", "0.1", "0.5", "--K", "4"],
        ["ball", "elliptic", "--x", "0.5", "--delta", "0.1", "--samples", "10"],
        ["volume", "elliptic", "--x", "0.5", "--delta", "0.1", "--samples", "100"],
        ["scale", "heisenberg", "--x", "0.0", "0.5", "--delta", "0.1"],
        ["boundary", "grushin_straightened", "--x", "0.5"],
    ],
)
def test_points_of_the_wrong_dimension_are_usage_errors(args, capsys):
    # dist used to broadcast a short point and exit 0; the others raised
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["dist", "ball"])
def test_zero_control_segments_are_numeric_errors(command, capsys):
    # K = 0 used to escape with a ZeroDivisionError in integrate_controls
    where = ["--y", "0.1", "0.5"] if command == "dist" else ["--delta", "0.1", "--samples", "10"]
    assert main([command, "elliptic", "--x", "0", "0.5", *where, "--K", "0"]) == 3
    assert "at least one segment" in capsys.readouterr().err


def test_dist_negative_control_segments_are_numeric_errors(capsys):
    # K < 0 used to fail in numpy with "negative dimensions are not allowed"
    assert main(["dist", "elliptic", "--x", "0", "0.5", "--y", "0.1", "0.5", "--K", "-2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: shooting controls need at least one segment, got K = -2\n"


def test_ball_negative_control_segments_are_numeric_errors(capsys):
    # K < 0 used to fail in numpy with "negative dimensions are not allowed"
    assert main(["ball", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "3", "--K", "-2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: ball controls need at least one segment, got K = -2\n"


@pytest.mark.parametrize(
    "args, seed",
    [
        (["ball", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "3", "--seed", "-1"], -1),
        (["volume", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "3", "--seed", "-5"], -5),
    ],
)
def test_negative_seed_is_a_usage_error(args, seed, capsys):
    # numpy rejected it late, with exit 3 and "expected non-negative integer"
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.endswith(f": --seed must be non-negative, got {seed}\n")


def test_negative_scenario_seed_fails_check(tmp_path, capsys):
    # a scenario with seed = -3 passed check with exit 0 and failed later
    path = tmp_path / "seeded.scn"
    path.write_text("\n".join(_SCENARIO_LINES + ["seed = -3"]) + "\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:9: seed must be non-negative, got -3\n"


@pytest.mark.parametrize(
    "args",
    [
        ["ball", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "0"],
        ["volume", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "0"],
        ["volume", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "1"],
    ],
)
def test_unusable_sample_counts_are_numeric_errors(args, capsys):
    # zero samples used to escape with an IndexError (ball) or a
    # ZeroDivisionError (volume); one volume sample printed a NaN std_error
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["bracket", "elliptic", "0"],
        ["bracket", "elliptic", "1", "2", "-1"],
        ["bracket", "elliptic", "3"],
        ["check", "elliptic", "--m-max", "0"],
        ["check", "elliptic", "--m-max", "-1"],
        ["check", "elliptic", "--grid", "0"],
    ],
)
def test_out_of_range_bracket_and_check_options_are_usage_errors(args, capsys):
    # index 0 or -1 read the last generator and exited 0, index 3 raised;
    # --m-max 0 ran the default order, -1 reported "not certified" and
    # --grid 0 failed on an empty reduction
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_emit_writes_numpy_bools_as_json_booleans(capsys):
    emit({"pass": np.bool_(True), "fail": np.bool_(False), "x": np.float32(0.5), "n": np.int64(3)}, None)
    text = capsys.readouterr().out
    assert json.loads(text) == {"pass": True, "fail": False, "x": 0.5, "n": 3.0}
    assert '"pass": true' in text and '"n": 3.0' in text


def test_boundary_export_round_trips(tmp_path, capsys):
    out = tmp_path / "vsys.scn"
    assert main(["boundary", "grushin_straightened", "--x", "0.5", "0", "--out", str(out)]) == 0
    scn = load_scenario(str(out))
    assert scn.n == 1
    sys_ = scn.system()
    assert sys_.r >= 1
    assert sys_.box.center == (0.5,)


@pytest.mark.parametrize(
    "args, opt, name",
    [
        (["check", "elliptic"], "--out", "r.json"),  # emit's JSON report
        (["check", "elliptic"], "--out", "r.csv"),  # emit's CSV rows
        (["ball", "elliptic", "--x", "0", "0.5", "--delta", "0.1", "--samples", "10"], "--out", "b.csv"),
        (["boundary", "grushin_straightened", "--x", "0.5", "0"], "--out", "v.scn"),
        (["boundary", "grushin_straightened", "--x", "0.5", "0"], "--report", "r.json"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(args, opt, name, tmp_path, capsys):
    # a path in a missing directory exits 1 with one error line, not a traceback
    path = tmp_path / "missing" / name
    assert main(args + [opt, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:0: cannot write: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_boundary_characteristic_is_numeric_error(capsys):
    assert main(["boundary", "grushin_straightened", "--x", "0", "0"]) == 3
    # the point prints as plain floats, not numpy scalar reprs
    assert "(0.0, 0.0) is characteristic" in capsys.readouterr().err


_SINE = str(Path(__file__).resolve().parent / "fixtures" / "sine_boundary.scn")


@pytest.mark.parametrize(
    "scenario, x, radius",
    [(_SINE, "0.3", 0.15), ("grushin_straightened", "0.15", 0.075), ("grushin_straightened", "0.3", 0.15)],
)
def test_boundary_and_scale_shrink_the_radius_below_the_ceiling(scenario, x, radius, tmp_path, capsys):
    # each ceiling disc of radius 0.3 has a probe on the characteristic point x1 = 0
    report = tmp_path / "report.json"
    assert main(["boundary", scenario, "--x", x, "0", "--report", str(report)]) == 0
    row = json.loads(report.read_text())["rows"][0]
    assert row["radius"] == radius < 0.3
    assert main(["scale", scenario, "--x", x, "0", "--delta", "0.1"]) == 0


_POLE ='field = "1, 0" degree = 1\nfield = "0, 1/(x1-0.25)" degree = 1\n'
_SINGULAR = {
    "pole": "m = 1\n" + _POLE,
    "pole_boundary": "m = 1\nboundary = true\n" + _POLE,
    "constdiv": 'm = 1\nfield = "1/(1-1), 0" degree = 1\nfield = "0, 1" degree = 1\n',
    # at m = 2 the bracket column is -inf and a span determinant would be nan
    "pole_m2": "m = 2\n" + _POLE,
    "pole_boundary_m2": "m = 2\nboundary = true\n" + _POLE,
}


@pytest.mark.parametrize(
    "scenario, args, code",
    [
        ("pole", ["volume", "--x", "0.25", "0.5", "--delta", "0.1"], 3),
        ("pole", ["dist", "--x", "0.25", "0.5", "--y", "0.25", "0.6"], 3),
        ("pole", ["scale", "--x", "0.25", "0.5", "--delta", "0.1"], 3),
        ("pole_boundary", ["boundary", "--x", "0.25", "0.0"], 3),
        ("pole_boundary", ["scale", "--x", "0.25", "0.0", "--delta", "0.1"], 3),
        ("constdiv", ["volume", "--x", "0.0", "0.5", "--delta", "0.1"], 3),
        ("constdiv", ["dist", "--x", "0.0", "0.5", "--y", "0.1", "0.5"], 3),
        ("constdiv", ["check"], 2),
        ("pole_m2", ["volume", "--x", "0.25", "0.5", "--delta", "0.1"], 3),
        ("pole_m2", ["scale", "--x", "0.25", "0.5", "--delta", "0.1"], 3),
        ("pole_boundary_m2", ["boundary", "--x", "0.25", "0.0"], 3),
        ("pole_boundary_m2", ["scale", "--x", "0.25", "0.0", "--delta", "0.1"], 3),
    ],
)
def test_singular_fields_fail_with_the_documented_code(scenario, args, code, tmp_path, capfd):
    # a pole at the query point, or a constant 1/(1-1), used to escape
    # with an EvalError or ZeroDivisionError traceback (exit 1); the
    # file-descriptor capture also sees text LAPACK prints on bad input,
    # and numpy's RuntimeWarning text would add lines to stderr
    path = tmp_path / f"{scenario}.scn"
    path.write_text(f"name = {scenario}\ndim = 2\nbox = 1.0 1.0\ndelta = 0.2 0.1\n" + _SINGULAR[scenario])
    assert main([args[0], str(path), *args[1:]]) == code
    out, err = capfd.readouterr()
    assert "Traceback" not in err
    if code == 3:
        assert out == ""
        # the fields' value at the point is named, not read as a failed span
        assert re.fullmatch(r"numeric error: generator fields are not finite at \([^)\n]*\)\n", err)
    else:
        assert json.loads(out)["pass"] is False  # the report and nothing else


def test_verify_doubling_elliptic(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "elliptic", "--suite", "doubling", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["scenario"] == "elliptic"
    assert report["version"].startswith("ccgeo-")
    assert all(r["lambda_ratio"] == pytest.approx(4.0) for r in report["rows"])


def test_verify_report_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["verify", "elliptic", "--suite", "doubling", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("delta,")
    assert "\r" not in text


def test_scale_command(tmp_path):
    assert main(["scale", "grushin", "--x", "0.3", "0", "--delta", "0.2"]) == 0


def test_volume_command(tmp_path, capsys):
    assert main(["volume", "grushin", "--x", "0", "0", "--delta", "0.2", "--samples", "4000"]) == 0
    report = json.loads(capsys.readouterr().out)
    row = report["rows"][0]
    assert row["volume"] > 0
    assert row["lambda"] == pytest.approx(0.008, rel=1e-9)


@pytest.mark.parametrize("suite", ["doubling", "volume", "sandwich", "boundary-metric", "equivalence", "topology"])
def test_verify_without_probes_is_usage_error(suite, tmp_path, capsys):
    # equivalence used to escape with a ZeroDivisionError, volume and
    # sandwich exited 3, doubling and topology passed with no rows
    lines = Path(load_scenario("elliptic").path).read_text().splitlines()
    scn = tmp_path / "noprobe.scn"
    scn.write_text("\n".join(ln for ln in lines if not ln.startswith(("probe", "characteristic_probe"))) + "\n")
    assert main(["verify", str(scn), "--suite", suite]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "verify suites need at least one probe" in err and err.count("\n") == 1


def test_ball_rejects_negative_delta(capsys):
    # a negative radius used to print a cloud driven by delta**d
    assert main(["ball", "elliptic", "--x", "0", "0.5", "--delta", "-0.1", "--samples", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["boundary", "elliptic", "--x", "5", "0"],
        ["scale", "elliptic", "--x", "5", "5", "--delta", "0.1"],
        ["volume", "elliptic", "--x", "5", "5", "--delta", "0.1", "--samples", "3"],
        ["dist", "elliptic", "--x", "5", "0", "--y", "0", "0.5"],
        ["ball", "elliptic", "--x", "5", "0", "--delta", "0.1", "--samples", "3"],
        # below {x_n = 0}: off the manifold for scale and in intrinsic mode
        ["dist", "heat", "--x", "0.1", "-0.1", "--y", "0.1", "0.2"],
        ["dist", "heat", "--x", "0.1", "-0.1", "--y", "0.1", "0.2", "--oracle"],
        ["ball", "heat", "--x", "0.1", "-0.1", "--delta", "0.1", "--samples", "3"],
        ["volume", "heat", "--x", "0.1", "-0.1", "--delta", "0.1", "--samples", "3"],
        ["scale", "heat", "--x", "0.1", "-0.1", "--delta", "0.1"],
    ],
)
def test_base_point_outside_the_chart_is_numeric_error(args, capsys):
    # boundary used to fail on an empty reduction, scale only at its first
    # flow; dist reported [0, inf] as a pass and ball a cloud of infeasible
    # rows; below the boundary scale built an interior map and passed
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: base point is not in the chart\n"


@pytest.mark.parametrize(
    "oracle, y",
    [
        pytest.param([], ["5", "0.5"], id="oracle0"),
        pytest.param(["--oracle"], ["5", "0.5"], id="oracle1"),
        # below {x_n = 0}: shooting alone used to exit 0 with [0, inf]
        pytest.param([], ["0.1", "-0.1"], id="below0"),
        pytest.param(["--oracle"], ["0.1", "-0.1"], id="below1"),
    ],
)
def test_dist_target_outside_the_chart_is_numeric_error(oracle, y, capsys):
    # the oracle run used to exit 2, shooting alone 0 with [0, inf]
    assert main(["dist", "elliptic", "--x", "0", "0.5", "--y", *y, *oracle]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: target point is not in the chart\n"


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_dist_non_finite_point_is_numeric_error(oracle, capsys):
    # the estimators' own endpoint check names a non-finite point
    assert main(["dist", "elliptic", "--x", "nan", "0.5", "--y", "0.1", "0.5", *oracle]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: distance endpoints must be finite, got x = (nan, 0.5), y = (0.1, 0.5)\n"


def test_extrinsic_mode_accepts_points_below_the_boundary(capsys):
    assert main(["dist", "heat", "--x", "0.1", "-0.1", "--y", "0.1", "0.2", "--mode", "extrinsic", "--K", "4"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args, value",
    [
        (["ball", "elliptic", "--x", "0", "0.5", "--delta", "nan", "--samples", "3"], "delta = nan"),
        (["ball", "elliptic", "--x", "0", "0.5", "--delta", "inf", "--samples", "3"], "delta = inf"),
        (["scale", "elliptic", "--x", "0", "0.5", "--delta", "nan"], "delta = nan"),
        (["volume", "elliptic", "--x", "0", "0.5", "--delta", "nan", "--samples", "3"], "delta = nan"),
        (["boundary", "heat", "--x", "0.2", "0.0", "--radius", "nan"], "radius = nan"),
        (["boundary", "heat", "--x", "0.2", "0.0", "--radius", "inf"], "radius = inf"),
        (["boundary", "heat", "--x", "0.2", "0.0", "--radius", "0"], "radius = 0.0"),
        (["boundary", "heat", "--x", "0.2", "0.0", "--radius", "-0.1"], "radius = -0.1"),
    ],
)
def test_non_finite_or_non_positive_scales_are_numeric_errors(args, value, capsys):
    # ball printed the base point as infeasible samples and exited 0, scale
    # called the map singular, volume blamed the oracle resolution, and
    # boundary failed on an empty reduction or named the boundary box
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert value in err


def _count_calls(monkeypatch, func, modules):
    """Count the calls of func through each module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, func.__name__, counted)
    return calls


@pytest.mark.parametrize(
    "args, expected",
    [
        # one stacked pass of the combined exponential
        (["scale", "heisenberg", "--x", "0.0", "0.0", "0.5", "--delta", "0.1"], 1),
        # psi(0)'s zero-time distinguished flow, then the pass's two flows
        (["scale", "grushin_straightened", "--x", "0.5", "0.0", "--delta", "0.1"], 3),
    ],
)
def test_scale_integrates_its_map_in_one_pass(args, expected, monkeypatch, capsys):
    from ccgeo import flows, scaling

    calls = _count_calls(monkeypatch, flows.rk4_flow, (flows, scaling))
    assert main(args) == 0
    assert len(calls) == expected


def test_scale_enumerates_brackets_once(tmp_path, monkeypatch, capsys):
    # the boundary degree, the near-boundary map's basis and the span floor
    # share one enumeration, and a second command on the same scenario
    # reuses it; a fresh path gives a Scenario no earlier test has used
    from ccgeo import hormander

    path = tmp_path / "heisenberg.scn"
    path.write_text((fixtures_dir() / "heisenberg.scn").read_text())
    calls = []
    real = hormander._commutators
    monkeypatch.setattr(hormander, "_commutators", lambda sys, m: calls.append((id(sys), m)) or real(sys, m))
    for _ in range(2):
        assert main(["scale", str(path), "--x", "0.0", "0.0", "0.0", "--delta", "0.1"]) == 0
    assert len(calls) == len(set(calls)) == 1


# -- what a process reuses across main calls -------------------------------

_ELLIPTIC = (fixtures_dir() / "elliptic.scn").read_text()


def test_edited_scenario_file_is_parsed_again(tmp_path, capsys):
    path = tmp_path / "plane.scn"
    args = ["dist", str(path), "--x", "0", "0.5", "--y", "0.2", "0.5", "--tol", "0.1"]
    path.write_text(_ELLIPTIC)
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    path.write_text(_ELLIPTIC.replace("name = elliptic", "name = faster").replace('"1, 0"', '"2, 0"'))
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["scenario"], second["scenario"]) == ("elliptic", "faster")
    # twice the speed along x1 halves the distance
    assert second["rows"][0]["upper"] < 0.6 * first["rows"][0]["lower"]


def test_scenario_that_fails_to_parse_fails_every_time(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(_ELLIPTIC.replace("density = \"1\"", "density = \"x3\""))
    errors = []
    for _ in range(2):
        assert main(["scale", str(path), "--x", "0", "0.5", "--delta", "0.1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1] and errors[0].startswith(f"error: {path}:10: unknown variable 'x3'")


def test_command_rebound_after_the_first_call_is_dispatched(monkeypatch):
    from ccgeo import cli

    assert main(["bracket", "grushin", "1", "2"]) == 0  # the parser exists from here on
    seen = []
    monkeypatch.setattr(cli, "cmd_scale", lambda args: seen.append(args.delta) or 7)
    assert main(["scale", "elliptic", "--x", "0", "0.5", "--delta", "0.1"]) == 7
    assert seen == [0.1]


@pytest.mark.parametrize(
    "args",
    [
        ["dist", "grushin", "--x", "0.5", "0", "--y", "0.6", "0.05", "--K", "8", "--oracle"],
        ["volume", "grushin", "--x", "0.5", "0", "--delta", "0.1", "--samples", "500"],
        ["scale", "grushin_straightened", "--x", "0.5", "0.0", "--delta", "0.1"],
        ["boundary", "heat", "--x", "0.2", "0.0"],
    ],
)
def test_repeated_commands_print_identical_bytes(args, capsys):
    from ccgeo import cli, symexpr

    # the first call parses, builds and compiles everything afresh
    cli._parser.cache_clear()
    cli._parse_once.cache_clear()
    symexpr._KERNELS.clear()
    outs = []
    for _ in range(3):
        code = main(args)
        outs.append((code, capsys.readouterr().out))
    assert outs[0][1] and outs[0] == outs[1] == outs[2]
