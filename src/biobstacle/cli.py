"""Command-line entry point: one subcommand per experiment.

Every subcommand builds a deterministic experiment from a seed plus an
optional JSON config, writes schema-versioned artifacts into the output
directory, and exits 0 on success, 1 when an in-run assertion failed
(the report still lists what failed), or 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import problems
from .derivatives import (
    directional_derivative,
    generalized_derivative,
    gateaux_derivative_on_D,
    mosco_convergence_experiment,
)
from .errors import (
    AssertionFailure,
    BiobstacleError,
    ConfigError,
    GridMismatch,
    InvalidBeta,
    InvalidSpec,
    UnsupportedControlKind,
)
from .multipliers import classify_sets
from .obstacle import solve_bop, solution_residual
from .radial_series import RingConfig, series_study
from .reporting import (
    write_derivative_csv,
    write_descent_csv,
    write_json,
    write_mosco_csv,
    write_series_csv,
    write_solution_csv,
)
from .tracking import descent_loop
from .verify import run_acceptance

CONFIG_ERRORS = (ConfigError, InvalidBeta, InvalidSpec, GridMismatch,
                 UnsupportedControlKind)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _setting(args: argparse.Namespace, config: dict, key: str, default):
    """Flag beats config file beats default; flags use dashes, configs keys."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _parse_schedule(text: str) -> tuple[int, ...]:
    """"a:b" expands to the doubling schedule a, 2a, 4a, ... capped at b."""
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"schedule must look like 2:256, got {text!r}")
    if lo < 1 or hi < lo:
        raise ConfigError(f"schedule bounds must satisfy 1 <= a <= b, got {text!r}")
    steps = []
    n = lo
    while n <= hi:
        steps.append(n)
        n *= 2
    return tuple(steps)


def _grid_size(args, config, default=32) -> int:
    n = int(_setting(args, config, "grid", default))
    if n < 2:
        raise ConfigError(f"grid must have at least 2 nodes per axis, got {n}")
    return n


def _out_dir(args) -> Path:
    return Path(args.out)


def run_solve(args) -> dict:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed", 0))
    n = _grid_size(args, config)
    dim = int(_setting(args, config, "dim", 2))
    method = str(_setting(args, config, "method", "pdas"))
    if method not in ("psor", "pdas"):
        raise ConfigError(f"method must be psor or pdas, got {method!r}")
    rng = np.random.default_rng([seed, 101])
    problem, u = problems.random_instance(problems.unit_grid(n, dim=dim), rng)
    solution = solve_bop(problem, u, method=method)
    partition = classify_sets(solution)
    out = _out_dir(args)
    write_solution_csv(out / "solve_solution.csv", solution, partition)
    report = {
        "experiment": "solve",
        "seed": seed,
        "parameters": {"grid": n, "dim": dim, "method": method},
        "iterations": solution.iterations,
        "residual_norm": solution.residual_norm,
        "natural_residual": solution_residual(solution),
        "set_counts": partition.counts(),
    }
    write_json(out / "solve_report.json", report)
    return report


def run_derivative(args) -> dict:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed", 0))
    n = _grid_size(args, config)
    side = str(_setting(args, config, "side", "lower"))
    amplitude = float(_setting(args, config, "amplitude", 50.0))
    inst = problems.derivative_instance(problems.unit_grid(n, dim=2), amplitude)
    problem, u, h = inst["problem"], inst["u"], inst["h"]
    solution = solve_bop(problem, u)
    partition = classify_sets(solution)
    cone = directional_derivative(solution, partition, h)
    reduced = generalized_derivative(solution, partition, h, side)
    inactive = gateaux_derivative_on_D(solution, partition, h)
    agreement = float(np.abs(cone.eta.values - inactive.eta.values).max())
    out = _out_dir(args)
    write_derivative_csv(out / "derivative_eta.csv", problem.grid,
                         reduced.eta.values, reduced.D_used)
    report = {
        "experiment": "derivative",
        "seed": seed,
        "parameters": {"grid": n, "side": side, "amplitude": amplitude},
        "cone_vs_reduced_agreement": agreement,
        "dim_D": int(reduced.D_used.sum()),
        "set_counts": partition.counts(),
    }
    write_json(out / "derivative_report.json", report)
    if agreement > 1e-9:
        raise AssertionFailure(
            f"cone-VI and reduced derivatives disagree by {agreement:.3e}"
        )
    return report


def run_mosco(args) -> dict:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed", 0))
    n = _grid_size(args, config)
    side = str(_setting(args, config, "side", "lower"))
    schedule_text = str(_setting(args, config, "schedule", "2:256"))
    schedule = _parse_schedule(schedule_text)
    inst = problems.mosco_instance(problems.unit_grid(n, dim=2))
    solution = solve_bop(inst["problem"], inst["u"])
    partition = classify_sets(solution)
    result = mosco_convergence_experiment(solution, partition, inst["h"], side=side,
                                          schedule=schedule, e=inst["e"])
    out = _out_dir(args)
    write_mosco_csv(out / "mosco_errors.csv", result["steps"])
    report = {
        "experiment": "mosco",
        "seed": seed,
        "parameters": {"grid": n, "side": side, "schedule": list(schedule)},
        "final_error": result["final_error"],
        "errors_nonincreasing_tail": result["errors_nonincreasing_tail"],
        "dim_D_limit": result["dim_D_limit"],
        "errors": [s["error"] for s in result["steps"]],
    }
    write_json(out / "mosco_report.json", report)
    if not result["errors_nonincreasing_tail"]:
        raise AssertionFailure("mosco error column is not nonincreasing at the tail")
    return report


def run_control(args) -> dict:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed", 0))
    n = _grid_size(args, config)
    side = str(_setting(args, config, "side", "lower"))
    steps = int(_setting(args, config, "steps", 50))
    rng = np.random.default_rng([seed, 108])
    inst = problems.control_instance(problems.unit_grid(n, dim=2), rng)
    u0 = problems.perturbed_control(inst, rng)
    trace = descent_loop(inst["control_problem"], u0, steps=steps, side=side)
    out = _out_dir(args)
    write_descent_csv(out / "control_trace.csv", trace.rows)
    objectives = [row["objective"] for row in trace.rows]
    strictly_decreasing = all(b < a for a, b in zip(objectives, objectives[1:]))
    report = {
        "experiment": "control",
        "seed": seed,
        "parameters": {"grid": n, "side": side, "steps": steps},
        "initial_objective": objectives[0] if objectives else None,
        "final_objective": objectives[-1] if objectives else None,
        "strictly_decreasing": strictly_decreasing,
        "termination": trace.termination,
        "line_search_failures": trace.line_search_failures,
    }
    write_json(out / "control_report.json", report)
    if not strictly_decreasing:
        raise AssertionFailure("descent trace is not strictly decreasing")
    return report


def run_counterexample(args) -> dict:
    config = _load_config(args.config)
    beta = float(_setting(args, config, "beta", 1.0 / 3.0))
    omega_exponent = float(_setting(args, config, "omega_exponent", 1.0))
    k_max = int(_setting(args, config, "K", 100_000))
    try:
        ring_config = RingConfig(beta=beta, omega_exponent=omega_exponent)
    except (InvalidBeta, InvalidSpec) as exc:
        raise ConfigError(str(exc))
    study = series_study(ring_config, K_max=k_max,
                         tail_from=max(1, min(10_000, k_max)))
    out = _out_dir(args)
    write_series_csv(out / "counterexample_series.csv", study["rows"])
    report = {
        "experiment": "counterexample",
        "parameters": {"beta": beta, "omega_exponent": omega_exponent, "K": k_max},
        "bounded": study["bounded"],
        "unbounded": study["unbounded"],
        "h1_checks": study["h1_checks"],
    }
    write_json(out / "counterexample_report.json", report)
    failures = [name for name, entry in study["h1_checks"].items()
                if not entry["ok"]]
    if failures:
        raise AssertionFailure(f"dual-norm bound violated for: {', '.join(failures)}")
    return report


def run_verify_all(args) -> dict:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed", 0))
    report = run_acceptance(seed)
    write_json(_out_dir(args) / "verify_report.json", report)
    if not report["all_passed"]:
        failed = [c["name"] for c in report["criteria"] if not c["passed"]]
        raise AssertionFailure(f"criteria failed: {', '.join(failed)}")
    return report


RUNNERS = {
    "solve": run_solve,
    "derivative": run_derivative,
    "mosco": run_mosco,
    "control": run_control,
    "counterexample": run_counterexample,
    "verify-all": run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biobstacle",
        description="Bilateral obstacle problem experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", default="reports", help="output directory")
    common.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="solve one random instance, dump state and sets")
    p.add_argument("--grid", type=int, help="nodes per axis (default 32)")
    p.add_argument("--dim", type=int, choices=(1, 2))
    p.add_argument("--method", choices=("psor", "pdas"))

    p = sub.add_parser("derivative", parents=[common],
                       help="derivative routes on the strict-contact instance")
    p.add_argument("--grid", type=int)
    p.add_argument("--side", choices=("lower", "upper"))
    p.add_argument("--amplitude", type=float)

    p = sub.add_parser("mosco", parents=[common],
                       help="one-sided derivative convergence experiment")
    p.add_argument("--grid", type=int)
    p.add_argument("--side", choices=("lower", "upper"))
    p.add_argument("--schedule", help="doubling schedule a:b (default 2:256)")

    p = sub.add_parser("control", parents=[common],
                       help="subgradient descent on the tracking objective")
    p.add_argument("--grid", type=int)
    p.add_argument("--side", choices=("lower", "upper"))
    p.add_argument("--steps", type=int)

    p = sub.add_parser("counterexample", parents=[common],
                       help="ring-series partial sums and bounds")
    p.add_argument("--beta", type=float)
    p.add_argument("--omega-exponent", type=float, dest="omega_exponent")
    p.add_argument("--K", type=int, dest="K")

    sub.add_parser("verify-all", parents=[common],
                   help="run every verification suite and write the report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = RUNNERS[args.experiment]
    try:
        runner(args)
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BiobstacleError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
