"""Command-line entry point: one subcommand per experiment.

Every subcommand builds a deterministic experiment from a seed plus an
optional JSON config, writes schema-versioned artifacts into the output
directory, and exits 0 on success, 1 when the written report breaks a row
of ``verify.BOUNDS`` (the message names each broken field) or the run
fails, or 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import problems
from .derivatives import (
    SIDES,
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
)
from .obstacle import SOLVER_DEFAULTS, solve_bop, solution_residual
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
from .verify import failures, run_acceptance

CONFIG_ERRORS = (ConfigError, InvalidBeta, InvalidSpec, GridMismatch)

# every setting's default, which also fixes its type
DEFAULTS = {"seed": 0, "grid": 32, "dim": 2, "method": "pdas", "side": "lower",
            "amplitude": 50.0, "schedule": "2:256", "steps": 50,
            "beta": 1.0 / 3.0, "omega_exponent": 1.0, "K": 100_000}
# experiment -> {setting: default}; every experiment takes the seed, which
# counterexample ignores and derivative and mosco only record
SETTINGS = {
    experiment: {key: DEFAULTS[key] for key in ("seed", *keys)}
    for experiment, keys in (
        ("solve", ("grid", "dim", "method")),
        ("derivative", ("grid", "side", "amplitude")),
        ("mosco", ("grid", "side", "schedule")),
        ("control", ("grid", "side", "steps")),
        ("counterexample", ("beta", "omega_exponent", "K")),
        ("verify-all", ()),
    )
}
CHOICES = {"dim": (1, 2), "method": tuple(SOLVER_DEFAULTS), "side": SIDES}
LEAST = {"seed": 0, "grid": 2, "steps": 1}


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


def _settings(args: argparse.Namespace) -> dict:
    """Every setting of the experiment: flag beats config file beats default.

    A config value must already have its default's type (an int stands in
    for a float, a bool never for an int), and a float must be finite;
    flags are typed by argparse.
    """
    defaults = SETTINGS[args.experiment]
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ConfigError(f"{args.experiment} takes no setting {', '.join(unknown)}")
    settings = {}
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        kind = type(default)
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
        value = kind(value)
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
        if key in LEAST and value < LEAST[key]:
            raise ConfigError(f"{key} must be at least {LEAST[key]}, got {value}")
        settings[key] = value
    return settings


def _parameters(settings: dict) -> dict:
    return {key: value for key, value in settings.items() if key != "seed"}


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


def run_solve(s: dict, out: Path) -> dict:
    """Solve one random instance, dump state and sets."""
    rng = np.random.default_rng([s["seed"], 101])
    problem, u = problems.random_instance(
        problems.unit_grid(s["grid"], dim=s["dim"]), rng)
    solution = solve_bop(problem, u, method=s["method"])
    write_solution_csv(out / "solve_solution.csv", solution)
    report = {
        "experiment": "solve",
        "seed": s["seed"],
        "parameters": _parameters(s),
        "iterations": solution.iterations,
        "residual_norm": solution.residual_norm,
        "natural_residual": solution_residual(solution),
        "set_counts": solution.sets.counts(),
    }
    write_json(out / "solve_report.json", report)
    return report


def run_derivative(s: dict, out: Path) -> dict:
    """Derivative routes on the strict-contact instance."""
    inst = problems.derivative_instance(problems.unit_grid(s["grid"], dim=2),
                                        s["amplitude"])
    problem, u, h = inst["problem"], inst["u"], inst["h"]
    solution = solve_bop(problem, u)
    cone = directional_derivative(solution, h)
    reduced = generalized_derivative(solution, h, s["side"])
    inactive = gateaux_derivative_on_D(solution, h)
    agreement = float(np.abs(cone.eta.values - inactive.eta.values).max())
    write_derivative_csv(out / "derivative_eta.csv", reduced)
    report = {
        "experiment": "derivative",
        "seed": s["seed"],
        "parameters": _parameters(s),
        "cone_vs_reduced_agreement": agreement,
        "dim_D": int(reduced.D_used.sum()),
        "set_counts": solution.sets.counts(),
    }
    write_json(out / "derivative_report.json", report)
    return report


def run_mosco(s: dict, out: Path) -> dict:
    """One-sided derivative convergence experiment."""
    schedule = _parse_schedule(s["schedule"])
    inst = problems.mosco_instance(problems.unit_grid(s["grid"], dim=2))
    solution = solve_bop(inst["problem"], inst["u"])
    result = mosco_convergence_experiment(solution, inst["h"], side=s["side"],
                                          schedule=schedule, e=inst["e"])
    write_mosco_csv(out / "mosco_errors.csv", result["steps"])
    report = {
        "experiment": "mosco",
        "seed": s["seed"],
        "parameters": {**_parameters(s), "schedule": list(schedule)},
        "final_error": result["final_error"],
        "errors_nonincreasing_tail": result["errors_nonincreasing_tail"],
        "dim_D_limit": result["dim_D_limit"],
        "errors": [step["error"] for step in result["steps"]],
    }
    write_json(out / "mosco_report.json", report)
    return report


def run_control(s: dict, out: Path) -> dict:
    """Subgradient descent on the tracking objective."""
    rng = np.random.default_rng([s["seed"], 108])
    inst = problems.control_instance(problems.unit_grid(s["grid"], dim=2), rng)
    u0 = problems.perturbed_control(inst, rng)
    trace = descent_loop(inst["control_problem"], u0, steps=s["steps"],
                         side=s["side"])
    write_descent_csv(out / "control_trace.csv", trace.rows)
    report = {
        "experiment": "control",
        "seed": s["seed"],
        "parameters": _parameters(s),
        "initial_objective": trace.initial_objective,
        "final_objective": trace.objectives[-1],
        "strictly_decreasing": trace.strictly_decreasing,
        "termination": trace.termination,
        "line_search_failures": trace.line_search_failures,
    }
    write_json(out / "control_report.json", report)
    return report


def run_counterexample(s: dict, out: Path) -> dict:
    """Ring-series partial sums and bounds."""
    ring_config = RingConfig(beta=s["beta"], omega_exponent=s["omega_exponent"])
    study = series_study(ring_config, K_max=s["K"], tail_from=min(10_000, s["K"]))
    write_series_csv(out / "counterexample_series.csv", study["rows"])
    report = {
        "experiment": "counterexample",
        "parameters": _parameters(s),
        "bounded": study["bounded"],
        "unbounded": study["unbounded"],
        "h1_checks": study["h1_checks"],
    }
    write_json(out / "counterexample_report.json", report)
    return report


def run_verify_all(s: dict, out: Path) -> dict:
    """Run every verification suite and write the report."""
    report = run_acceptance(s["seed"])
    write_json(out / "verify_report.json", report)
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
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, runner in RUNNERS.items():
        p = sub.add_parser(experiment, help=runner.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="reports", help="output directory")
        for key, default in SETTINGS[experiment].items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=type(default), choices=CHOICES.get(key),
                           help=f"default {default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = RUNNERS[args.experiment]
    try:
        broken = failures(runner(_settings(args), Path(args.out)))
        if broken:
            raise AssertionFailure("; ".join(broken))
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
