"""Deterministic report writers.

Reports are JSON (schema-versioned, keys sorted, floats in shortest
round-trip form, no timestamps) and CSV with documented columns, so a fixed
seed reproduces artifacts byte for byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .derivatives import DerivativeResult
from .grid import Grid
from .multipliers import node_flags
from .obstacle import BopSolution

REPORT_SCHEMA_VERSION = "biobstacle-report/1"


def sanitize(obj):
    """Recursively convert numpy containers/scalars to plain Python values."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def render_json(payload: dict) -> str:
    body = dict(sanitize(payload))
    body.setdefault("schema", REPORT_SCHEMA_VERSION)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_json(payload))
    return path


def write_csv(path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv writes a float by repr, its shortest round-trip form
        writer.writerows(sanitize(row) for row in rows)
    return path


def _coordinate_columns(grid: Grid) -> tuple[list[str], np.ndarray]:
    names = ["x", "y_coord"][: grid.dim]
    return names, grid.coordinates()


def write_solution_csv(path, solution: BopSolution) -> Path:
    """Columns: node, x[, y_coord], y, xi, flag (lower/upper/inactive)."""
    grid = solution.problem.grid
    names, coords = _coordinate_columns(grid)
    flags = node_flags(solution.sets)
    rows = (
        [i, *coords[i], solution.y.values[i], solution.xi.values[i], flags[i]]
        for i in range(grid.total)
    )
    return write_csv(path, ["node", *names, "y", "xi", "flag"], rows)


def write_derivative_csv(path, result: DerivativeResult) -> Path:
    """Columns: node, x[, y_coord], eta, in_D (0/1 mask dump of the reduced
    domain, so the result must come from a reduced route)."""
    grid, eta = result.eta.grid, result.eta.values
    names, coords = _coordinate_columns(grid)
    rows = (
        [i, *coords[i], eta[i], int(result.D_used[i])]
        for i in range(grid.total)
    )
    return write_csv(path, ["node", *names, "eta", "in_D"], rows)


def write_mosco_csv(path, steps: list[dict]) -> Path:
    """Columns: n, error, state_gap, dim_D, sandwich_ok."""
    rows = (
        [s["n"], s["error"], s["state_gap"], s["dim_D"], s["sandwich_ok"]]
        for s in steps
    )
    return write_csv(path, ["n", "error", "state_gap", "dim_D", "sandwich_ok"], rows)


def write_descent_csv(path, rows: list[dict]) -> Path:
    """Columns: iter, objective, step, grad_norm, side."""
    body = (
        [r["iter"], r["objective"], r["step"], r["grad_norm"], r["side"]]
        for r in rows
    )
    return write_csv(path, ["iter", "objective", "step", "grad_norm", "side"], body)


def write_series_csv(path, rows: list[dict]) -> Path:
    """Columns: K, S_K_bounded, S_K_unbounded, lower_bound_partial_sum, ln_K."""
    body = (
        [r["K"], r["bounded_upper_part"], r["unbounded_upper_part"],
         r["lower_bound_partial_sum"], r["ln_K"]]
        for r in rows
    )
    return write_csv(
        path,
        ["K", "S_K_bounded", "S_K_unbounded", "lower_bound_partial_sum", "ln_K"],
        body,
    )
