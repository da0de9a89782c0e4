"""Byte-stable JSON/CSV report writers."""

import json

import numpy as np
import pytest

from biobstacle import (
    BopProblem,
    ControlOperator,
    DerivativeResult,
    ObstaclePair,
    OperatorSpec,
    assemble,
    solve_bop,
)
from biobstacle.problems import unit_grid
from biobstacle.reporting import (
    REPORT_SCHEMA_VERSION,
    render_json,
    sanitize,
    write_csv,
    write_derivative_csv,
    write_descent_csv,
    write_json,
    write_mosco_csv,
    write_series_csv,
    write_solution_csv,
)


def _solved_instance(n=4):
    grid = unit_grid(n, dim=1)
    operator = assemble(grid, OperatorSpec("laplacian"))
    control = ControlOperator(grid, kind="identity")
    psi = np.full(grid.total, -0.001)
    phi = np.full(grid.total, 0.001)
    problem = BopProblem(operator=operator, control=control,
                         obstacles=ObstaclePair(grid, psi, phi))
    u = grid.function(np.linspace(-3.0, 3.0, grid.total))
    return problem, solve_bop(problem, u, method="pdas")


def test_render_json_is_deterministic_and_key_sorted():
    a = {"zeta": 1.0, "alpha": np.float64(0.5), "nested": {"b": 2, "a": 1}}
    b = {"nested": {"a": 1, "b": 2}, "alpha": 0.5, "zeta": np.float64(1.0)}
    text_a = render_json(a)
    text_b = render_json(b)
    assert text_a == text_b
    assert text_a.endswith("\n")
    body = json.loads(text_a)
    assert body["schema"] == REPORT_SCHEMA_VERSION
    # an explicit schema entry survives untouched
    assert json.loads(render_json({"schema": "other/9"}))["schema"] == "other/9"


def test_render_json_has_no_wall_clock_fields():
    body = json.loads(render_json({"experiment": "solve", "seed": 7}))
    for key in body:
        assert "time" not in key and "date" not in key


def test_sanitize_converts_numpy_values():
    raw = {
        "arr": np.arange(3, dtype=np.int32),
        "mat": np.eye(2),
        "flag": np.bool_(True),
        "num": np.float32(0.25),
        3: "int key",
        "tup": (np.int8(1), 2.0),
    }
    clean = sanitize(raw)
    assert clean["arr"] == [0, 1, 2]
    assert clean["mat"] == [[1.0, 0.0], [0.0, 1.0]]
    assert clean["flag"] is True
    assert clean["num"] == 0.25
    assert clean["3"] == "int key"
    assert clean["tup"] == [1, 2.0]
    json.dumps(clean)


def test_write_json_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "report.json"
    payload = {"experiment": "demo", "value": 1.0 / 3.0}
    path = write_json(target, payload)
    assert path == target
    assert target.read_text() == render_json(payload)


def test_write_csv_cells_round_trip(tmp_path):
    path = write_csv(
        tmp_path / "cells.csv",
        ["a", "b", "c", "d"],
        [[np.float64(1.0 / 3.0), np.bool_(True), np.int64(7), "text"]],
    )
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "0.3333333333333333,True,7,text"
    # shortest round-trip float text parses back exactly
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0


def test_write_csv_is_byte_deterministic(tmp_path):
    rows = [[0.1, 1], [0.2, 2]]
    first = write_csv(tmp_path / "one.csv", ["x", "k"], rows).read_bytes()
    second = write_csv(tmp_path / "two.csv", ["x", "k"], rows).read_bytes()
    assert first == second


def test_solution_csv_flags(tmp_path):
    problem, sol = _solved_instance()
    lines = write_solution_csv(tmp_path / "flagged.csv", sol).read_text().splitlines()
    assert lines[0] == "node,x,y,xi,flag"
    flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert flags <= {"lower", "upper", "inactive"}
    assert "lower" in flags and "upper" in flags


def test_derivative_csv_mask_column(tmp_path):
    grid = unit_grid(3, dim=1)
    eta = np.array([0.5, 0.0, -0.5])
    mask = np.array([True, False, True])
    result = DerivativeResult(eta=grid.function(eta), D_used=mask)
    lines = write_derivative_csv(tmp_path / "eta.csv", result).read_text().splitlines()
    assert lines[0] == "node,x,eta,in_D"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1", "0", "1"]


def test_mosco_descent_series_headers(tmp_path):
    mosco = write_mosco_csv(tmp_path / "m.csv", [
        {"n": 4, "error": 0.5, "state_gap": 0.25, "dim_D": 10,
         "sandwich_ok": True, "extra": "ignored"},
    ]).read_text().splitlines()
    assert mosco[0] == "n,error,state_gap,dim_D,sandwich_ok"
    assert mosco[1] == "4,0.5,0.25,10,True"

    descent = write_descent_csv(tmp_path / "d.csv", [
        {"iter": 0, "objective": 1.5, "step": 0.25, "grad_norm": 0.125,
         "side": "lower"},
    ]).read_text().splitlines()
    assert descent[0] == "iter,objective,step,grad_norm,side"
    assert descent[1] == "0,1.5,0.25,0.125,lower"

    series = write_series_csv(tmp_path / "s.csv", [
        {"K": 2, "bounded_upper_part": 0.5, "unbounded_upper_part": 1.5,
         "lower_bound_partial_sum": 1.25, "ln_K": 0.6931471805599453},
    ]).read_text().splitlines()
    assert series[0] == "K,S_K_bounded,S_K_unbounded,lower_bound_partial_sum,ln_K"
    assert series[1] == "2,0.5,1.5,1.25,0.6931471805599453"
