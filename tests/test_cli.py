"""Command-line interface: artifacts, config precedence, exit codes."""

import json
import re
from pathlib import Path

import pytest

from biobstacle import cli, verify
from biobstacle.errors import AssertionFailure, ConfigError, NoConvergence

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, *argv):
    out = tmp_path / "reports"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def test_solve_writes_report_and_csv(tmp_path):
    code, out = _run(tmp_path, "solve", "--grid", "6", "--dim", "1")
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["schema"] == "biobstacle-report/1"
    assert report["experiment"] == "solve"
    assert report["parameters"] == {"grid": 6, "dim": 1, "method": "pdas"}
    lines = (out / "solve_solution.csv").read_text().splitlines()
    assert lines[0] == "node,x,y,xi,flag"
    assert len(lines) == 1 + 6


def test_derivative_mosco_control_smoke(tmp_path):
    code, out = _run(tmp_path, "derivative", "--grid", "12")
    assert code == 0
    report = json.loads((out / "derivative_report.json").read_text())
    assert report["cone_vs_reduced_agreement"] <= 1e-9
    header = (out / "derivative_eta.csv").read_text().splitlines()[0]
    assert header == "node,x,y_coord,eta,in_D"

    code, out = _run(tmp_path / "m", "mosco", "--grid", "10",
                     "--schedule", "2:16")
    assert code == 0
    report = json.loads((out / "mosco_report.json").read_text())
    assert report["parameters"]["schedule"] == [2, 4, 8, 16]
    assert report["errors_nonincreasing_tail"] is True
    header = (out / "mosco_errors.csv").read_text().splitlines()[0]
    assert header == "n,error,state_gap,dim_D,sandwich_ok"

    code, out = _run(tmp_path / "c", "control", "--grid", "10",
                     "--steps", "5")
    assert code == 0
    report = json.loads((out / "control_report.json").read_text())
    assert report["strictly_decreasing"] is True
    lines = (out / "control_trace.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,step,grad_norm,side"
    assert len(lines) == 1 + 5


def _readme_csv_headers() -> dict[str, str]:
    """README's CSV list: file name -> header, y_coord in brackets."""
    rows = re.findall(r"^  - `(\w+\.csv)`: `([^`]+)`$",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    return dict(rows)


@pytest.mark.parametrize("argv, dim", [
    (["solve", "--grid", "6", "--dim", "1"], 1),
    (["solve", "--grid", "5", "--dim", "2"], 2),
    (["derivative", "--grid", "12"], 2),
    (["mosco", "--grid", "10", "--schedule", "2:16"], None),
    (["control", "--grid", "10", "--steps", "5"], None),
    (["counterexample", "--K", "1500"], None),
], ids=["solve-1d", "solve-2d", "derivative", "mosco", "control", "counterexample"])
def test_each_experiment_writes_the_csv_header_the_readme_lists(tmp_path, argv, dim):
    """A per-node CSV (dim given) has y_coord in 2-D and not in 1-D; a per-step
    or per-ring CSV has no coordinate column."""
    documented = _readme_csv_headers()
    assert len(documented) == 5
    code, out = _run(tmp_path, *argv)
    assert code == 0
    (csv,) = [path for path in out.iterdir() if path.suffix == ".csv"]
    expected = documented[csv.name]
    assert ("[,y_coord]" in expected) == (dim is not None)
    if dim is not None:
        expected = expected.replace("[,y_coord]", ",y_coord" if dim == 2 else "")
    assert csv.read_text().splitlines()[0] == expected


def test_control_reports_the_objective_at_the_starting_control(tmp_path):
    """One accepted step: the report's first objective is J at u0, not the
    objective after that step."""
    code, out = _run(tmp_path, "control", "--grid", "10", "--steps", "1")
    assert code == 0
    report = json.loads((out / "control_report.json").read_text())
    assert report["initial_objective"] > report["final_objective"]
    assert report["strictly_decreasing"] is True


def test_control_passes_when_its_line_search_fails_after_accepted_steps(tmp_path):
    """Seed 9 stalls on a roundoff plateau after 48 accepted steps; the failure
    row stays in the trace CSV and does not fail the descent."""
    code, out = _run(tmp_path, "control", "--config",
                     str(ROOT / "configs" / "control.json"), "--seed", "9")
    assert code == 0
    report = json.loads((out / "control_report.json").read_text())
    assert report["termination"] == "line_search_failure"
    assert report["strictly_decreasing"] is True
    rows = (out / "control_trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 49
    assert rows[-1].split(",")[2] == "0.0"


def test_counterexample_small_run(tmp_path):
    code, out = _run(tmp_path, "counterexample", "--K", "1500")
    assert code == 0
    report = json.loads((out / "counterexample_report.json").read_text())
    assert report["experiment"] == "counterexample"
    assert report["bounded"]["partial_sums_within_bound"] is True
    assert all(entry["ok"] for entry in report["h1_checks"].values())
    header = (out / "counterexample_series.csv").read_text().splitlines()[0]
    assert header == "K,S_K_bounded,S_K_unbounded,lower_bound_partial_sum,ln_K"


def test_reruns_are_byte_identical(tmp_path):
    _, first = _run(tmp_path / "a", "solve", "--grid", "6", "--dim", "1")
    _, second = _run(tmp_path / "b", "solve", "--grid", "6", "--dim", "1")
    for name in ("solve_report.json", "solve_solution.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_changes_the_instance(tmp_path):
    _, first = _run(tmp_path / "a", "solve", "--grid", "6", "--dim", "1")
    _, second = _run(tmp_path / "b", "solve", "--grid", "6", "--dim", "1",
                     "--seed", "9")
    assert (first / "solve_solution.csv").read_bytes() != \
        (second / "solve_solution.csv").read_bytes()


def test_flag_beats_config_beats_default(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": 5, "dim": 1, "seed": 3}))
    code, out = _run(tmp_path, "solve", "--config", str(config),
                     "--grid", "6")
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["parameters"]["grid"] == 6  # flag wins
    assert report["parameters"]["dim"] == 1  # config beats default
    assert report["seed"] == 3
    assert report["parameters"]["method"] == "pdas"  # default survives


@pytest.mark.parametrize("argv", [
    ["counterexample", "--beta", "0.6"],
    ["counterexample", "--omega-exponent", "0.4"],
    ["mosco", "--grid", "10", "--schedule", "backwards"],
    ["mosco", "--grid", "10", "--schedule", "8:2"],
    ["solve", "--grid", "1", "--dim", "1"],
    ["counterexample", "--K", "50"],
    ["counterexample", "--K", "100"],
    ["solve", "--seed", "-1"],
    ["control", "--seed", "-1"],
    ["verify-all", "--seed", "-1"],
    ["counterexample", "--seed", "-1"],
    ["control", "--steps", "0"],
    ["derivative", "--amplitude", "nan"],
    ["counterexample", "--beta", "inf"],
])
def test_bad_settings_exit_with_code_two(tmp_path, argv, capsys):
    code, _ = _run(tmp_path, *argv)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, config", [
    ("solve", {"grid": "abc"}),
    ("counterexample", {"K": "many"}),
    ("derivative", {"side": "sideways"}),
    ("mosco", {"side": "sideways"}),
    ("control", {"side": "sideways"}),
    ("solve", {"gird": 6}),
    ("solve", {"grid": 6.9}),
    ("solve", {"seed": True}),
    ("derivative", {"amplitude": float("nan")}),
])
def test_bad_config_values_exit_with_code_two(tmp_path, experiment, config, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _ = _run(tmp_path, experiment, "--config", str(path))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", sorted(cli.SETTINGS))
def test_committed_configs_resolve(experiment):
    name = "verify" if experiment == "verify-all" else experiment
    config = ROOT / "configs" / f"{name}.json"
    args = cli.build_parser().parse_args([experiment, "--config", str(config)])
    settings = cli._settings(args)
    assert settings.keys() == cli.SETTINGS[experiment].keys()
    values = json.loads(config.read_text())
    assert {key: settings[key] for key in values} == values


@pytest.mark.parametrize(
    "experiment", ["solve", "derivative", "mosco", "control", "counterexample"])
def test_committed_configs_run_and_repeat_byte_for_byte(tmp_path, experiment):
    """Each committed config runs at its own sizes, writes its report and its
    CSV, and a second run writes the same bytes."""
    config = ROOT / "configs" / f"{experiment}.json"
    runs = []
    for run in ("first", "second"):
        code, out = _run(tmp_path / run, experiment, "--config", str(config))
        assert code == 0
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert f"{experiment}_report.json" in runs[0]
    assert any(name.endswith(".csv") for name in runs[0])
    assert runs[0] == runs[1]


def test_bad_config_files_exit_with_code_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _ = _run(tmp_path, "solve", "--config", str(missing))
    assert code == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = _run(tmp_path, "solve", "--config", str(broken))
    assert code == 2

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    code, _ = _run(tmp_path, "solve", "--config", str(listy))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_error_from_config_file_value(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "bogus", "grid": 5, "dim": 1}))
    code, _ = _run(tmp_path, "solve", "--config", str(config))
    assert code == 2


def test_assertion_failures_exit_with_code_one(tmp_path, monkeypatch, capsys):
    def failing(s, out):
        raise AssertionFailure("forced failure for the exit-code contract")

    monkeypatch.setitem(cli.RUNNERS, "solve", failing)
    code, _ = _run(tmp_path, "solve")
    assert code == 1
    assert "assertion failed" in capsys.readouterr().err


def test_tightened_derivative_bound_exits_one_and_names_the_row(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(verify.BOUNDS, "derivative",
                        (("cone_vs_reduced_agreement", "<=", -1.0, None),))
    code, out = _run(tmp_path, "derivative", "--grid", "12")
    assert code == 1
    err = capsys.readouterr().err
    assert "cone_vs_reduced_agreement" in err and "breaks <= -1.0" in err
    assert (out / "derivative_report.json").exists()


def test_short_mosco_schedule_names_the_broken_row(tmp_path, capsys):
    code, out = _run(tmp_path, "mosco", "--grid", "8", "--schedule", "2:4")
    assert code == 1
    assert capsys.readouterr().err == (
        "assertion failed: errors_nonincreasing_tail False breaks == True\n")
    assert (out / "mosco_report.json").exists()


def test_verify_all_lists_the_broken_rows_of_each_failed_criterion(
        tmp_path, monkeypatch, capsys):
    criteria = [
        {"criterion": 3, "name": "obstacle_invariance", "lowered_nodes": 4,
         "worst_state_change": 2e-9},
        {"criterion": 10, "name": "determinism", "byte_identical": False},
    ]
    monkeypatch.setattr(cli, "run_acceptance", lambda seed: {
        "experiment": "verify-all", "seed": seed, "criteria": criteria,
        "all_passed": False})
    code, out = _run(tmp_path, "verify-all")
    assert code == 1
    assert capsys.readouterr().err == (
        "assertion failed: obstacle_invariance: worst_state_change 2e-09 breaks "
        "<= 1e-09; determinism: byte_identical False breaks == True\n")
    assert (out / "verify_report.json").exists()


def test_runtime_errors_exit_with_code_one(tmp_path, monkeypatch, capsys):
    def stuck(s, out):
        raise NoConvergence("psor", 17, 0.5)

    monkeypatch.setitem(cli.RUNNERS, "solve", stuck)
    code, _ = _run(tmp_path, "solve")
    assert code == 1
    assert "run failed" in capsys.readouterr().err


def test_parse_schedule():
    assert cli._parse_schedule("2:256") == (2, 4, 8, 16, 32, 64, 128, 256)
    assert cli._parse_schedule("3:20") == (3, 6, 12)
    assert cli._parse_schedule("5:5") == (5,)
    for text in ("abc", "4", "0:8", "8:2", "2:256:3"):
        with pytest.raises(ConfigError):
            cli._parse_schedule(text)
