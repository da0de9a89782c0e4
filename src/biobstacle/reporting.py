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

from .grid import Grid

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


def write_node_csv(path, grid: Grid, columns: dict[str, np.ndarray]) -> Path:
    """Columns: node, x[, y_coord], then each named per-node array in order."""
    arrays = [*grid.coordinates().T, *columns.values()]
    rows = zip(range(grid.total), *(array.tolist() for array in arrays))
    return write_csv(path, ["node", *["x", "y_coord"][: grid.dim], *columns], rows)


def write_table_csv(path, records, columns: tuple[str, ...]) -> Path:
    """One row per record: its values under the named keys, in order."""
    return write_csv(path, list(columns),
                     ([record[key] for key in columns] for record in records))
