"""One workload process: set up, signal READY, run a closed loop, report.

Run by ``run.py``; the last stdout line is one JSON object with the
repetition wall times, the correctness ops and, when traced, per-layer
metrics. ``--mode setup`` exits right after READY, so the parent can time
set-up in several processes.

Every workload calls the package in this process, one call after another;
BLAS threads are capped by the parent through the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# package functions are called through their modules, so that the tracer's
# rebinding reaches every call the workloads make
from biobstacle import cli, grid, obstacle, problems, reporting, verify  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer, breakdown, layer_metrics, with_ratios  # noqa: E402

SCRATCH = ROOT / ".perfbench"

# the byte-identity check needs a second rendering of every report
MIN_REPS = 2

# counts that must repeat exactly across traced repetitions at one seed
EXACT_COUNTS = ("obstacle.pdas_iterations", "obstacle.factorizations",
                "obstacle.lu_nnz", "tracking.objective.calls")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _raised(name: str, exc: Exception):
    """A failed op for an exception; the traceback goes to stderr."""
    traceback.print_exception(exc, file=sys.stderr)
    return name, False, repr(exc).encode()


class VerifyPass:
    """Criteria 1-9 of ``verify.run_all`` per repetition: ~790 PDAS solves at
    16^2-32^2, so fixed per-call cost dominates."""

    def __init__(self, seed: int):
        self.seed = seed

    def run(self):
        start = perf_counter()
        try:
            report = verify.run_all(self.seed)
        except Exception as exc:
            report = exc
        return perf_counter() - start, {}, report

    def check(self, report):
        if isinstance(report, Exception):
            return [_raised("run_all", report)], {}
        ops = [(f"criterion_{c['criterion']}", bool(c["passed"]),
                reporting.render_json(c).encode()) for c in report["criteria"]]
        if not report["all_passed"]:
            ops.append(("all_passed", False, b""))
        return ops, {"verify_report": reporting.render_json(report).encode()}


class Experiments:
    """``cli.main`` on each committed config: nearby re-solves (descent line
    search, Mosco schedule) plus the reporting layer.

    ``control`` keeps its config's seed: its cost follows the seed (2.0-3.3 s
    across seeds 1-5, from the number of line-search trials), which would
    swamp any change in the code. The other experiments take the benchmark
    seed; only ``solve`` draws its instance from it.
    """

    names = ("solve", "derivative", "mosco", "control", "counterexample")
    outputs = {
        "solve": "solve_solution.csv",
        "derivative": "derivative_eta.csv",
        "mosco": "mosco_errors.csv",
        "control": "control_trace.csv",
        "counterexample": "counterexample_series.csv",
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.out = SCRATCH / "out" / f"experiments-{seed}"
        self.configs = {}
        for name in self.names:
            path = ROOT / "configs" / f"{name}.json"
            json.loads(path.read_text())   # fail in set-up, not mid-run
            self.configs[name] = path

    def run(self):
        codes = {}
        start = perf_counter()
        for name in self.names:
            argv = [name, "--config", str(self.configs[name]), "--out", str(self.out)]
            if name != "control":
                argv += ["--seed", str(self.seed)]
            try:
                codes[name] = cli.main(argv)
            except Exception as exc:
                codes[name] = exc
        return perf_counter() - start, {}, codes

    def check(self, codes):
        ops, reports = [], {}
        for name, code in codes.items():
            if isinstance(code, Exception):
                ops.append(_raised(f"cli_{name}", code))
                continue
            report = self.out / f"{name}_report.json"
            data = report.read_bytes() if report.exists() else b""
            csv = self.out / self.outputs[name]
            extra = csv.read_bytes() if csv.exists() else b""
            ops.append((f"cli_{name}", code == 0, data + extra))
            reports[f"{name}_report"] = data
        return ops, reports

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


# The cost of a cold solve depends strongly on the draw: across fresh draws
# the 128^2 PDAS iteration counts range 12-25 (Laplacian) and 7-168
# (convection, when the cycle fallback fires), a run-to-run spread no useful
# bound could hold. So each slot is one fixed draw of random_instance, and
# the seed picks one of the eight symmetries of the square grid, which
# relabels the nodes (and rotates the velocity) without changing the
# problem's difficulty.
COLD_REFERENCE = 20080435
COLD_SLOTS = (
    ("solve_128_s", 128, "laplacian"),
    ("solve_128_s", 128, "laplacian_plus_reaction"),
    ("solve_128_s", 128, "laplacian_plus_convection"),
    ("solve_256_s", 256, "laplacian"),
    ("solve_256_s", 256, "laplacian_plus_convection"),
)
PSOR_TOL = 1e-10
PDAS_TOL = 1e-10
AGREEMENT = 1e-8


def grid_symmetry(n: int, k: int) -> tuple[np.ndarray, bool, bool, bool]:
    """Node permutation ``perm`` of symmetry ``k`` (0-7) of the n x n grid,
    with new[j] = old[perm[j]], and its (swap, flip_x, flip_y) bits."""
    swap, flip_x, flip_y = bool(k & 4), bool(k & 1), bool(k & 2)
    ix, iy = np.meshgrid(np.arange(n), np.arange(n))   # ix fastest, row-major
    ix, iy = ix.ravel(), iy.ravel()
    jx, jy = (iy, ix) if swap else (ix, iy)
    if flip_x:
        jx = n - 1 - jx
    if flip_y:
        jy = n - 1 - jy
    perm = np.empty(n * n, dtype=np.intp)
    perm[jx + n * jy] = np.arange(n * n)
    return perm, swap, flip_x, flip_y


def symmetric_instance(problem, u, k: int):
    """The instance mapped by grid symmetry k; its solution is the mapped
    solution of the original."""
    if problem.control.kind not in ("identity", "smooth_monotone_superposition"):
        raise ValueError(f"control kind {problem.control.kind!r} is not nodewise")
    mesh = problem.grid
    perm, swap, flip_x, flip_y = grid_symmetry(mesh.shape[0], k)
    spec = problem.operator.spec
    velocity = spec.convection
    if velocity is not None:
        vx, vy = (velocity[1], velocity[0]) if swap else velocity
        velocity = (-vx if flip_x else vx, -vy if flip_y else vy)
    operator = grid.assemble(mesh, grid.OperatorSpec(
        kind=str(spec.kind), reaction=spec.reaction, convection=velocity))
    obstacles = obstacle.ObstaclePair(
        mesh, problem.obstacles.psi[perm], problem.obstacles.phi[perm])
    mapped = obstacle.BopProblem(operator=operator, control=problem.control,
                                 obstacles=obstacles)
    return mapped, mesh.function(u.values[perm])


class ColdSolve:
    """Cold PDAS solves at 128^2 and 256^2 and PSOR at 128^2, on instances
    built in set-up: few large solves, dominated by factorization."""

    def __init__(self, seed: int):
        self.symmetry = seed % 8
        self.instances = []
        for index, (phase, n, kind) in enumerate(COLD_SLOTS):
            rng = np.random.default_rng([COLD_REFERENCE, n, index])
            problem, u = problems.random_instance(problems.unit_grid(n), rng,
                                                  operator_kinds=(kind,))
            self.instances.append((phase, n, kind,
                                   *symmetric_instance(problem, u, self.symmetry)))

    def run(self):
        phases = {"solve_128_s": 0.0, "solve_256_s": 0.0, "psor_128_s": 0.0}
        solved = []
        for phase, n, kind, problem, u in self.instances:
            name = f"{n}_{kind}"
            start = perf_counter()
            try:
                pdas = obstacle.solve_bop(problem, u, method="pdas", tol=PDAS_TOL)
                phases[phase] += perf_counter() - start
                psor = None
                if n == 128:
                    start = perf_counter()
                    psor = obstacle.solve_bop(problem, u, method="psor", tol=PSOR_TOL)
                    phases["psor_128_s"] += perf_counter() - start
            except Exception as exc:
                solved.append((name, exc, None))
                continue
            solved.append((name, pdas, psor))
        return sum(phases.values()), phases, solved

    def check(self, solved):
        ops = []
        for name, pdas, psor in solved:
            if isinstance(pdas, Exception):
                ops.append(_raised(f"solve_{name}", pdas))
                continue
            ops.append(self._op(f"pdas_{name}", pdas, PDAS_TOL))
            if psor is not None:
                op = self._op(f"psor_{name}", psor, PSOR_TOL)
                gap = float(np.abs(psor.y.values - pdas.y.values).max())
                ops.append((op[0], op[1] and gap <= AGREEMENT, op[2]))
        return ops, {}

    @staticmethod
    def _op(name, solution, tol):
        residual = obstacle.solution_residual(solution)
        record = {"solver": solution.solver, "iterations": solution.iterations,
                  "residual": residual, "state_sha256": _sha(solution.y.values.tobytes())}
        return name, residual <= tol, reporting.render_json(record).encode()


WORKLOADS = {"verify_pass": VerifyPass, "experiments": Experiments,
             "cold_solve": ColdSolve}


def _blas(config: dict) -> dict:
    """The BLAS a library was built against, without build-machine paths."""
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas[key] for key in ("name", "version", "openblas configuration")
            if key in blas}


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    }


def _check_bytes(reps) -> None:
    """Mark an op failed when its report bytes differ from repetition 1."""
    first = {name: data for name, _, data in reps[0]["ops"]}
    for rep in reps[1:]:
        rep["ops"] = [(name, ok and data == first.get(name), data)
                      for name, ok, data in rep["ops"]]


def _traced_metrics(setup_spans, reps) -> dict:
    """Per-layer metrics: set-up spans plus the median traced repetition."""
    per_rep = [layer_metrics(rep["spans"]) for rep in reps]
    base = layer_metrics(setup_spans)
    metrics = {}
    for key in base:
        value = base[key] + median(m[key] for m in per_rep)
        if isinstance(value, float) and value.is_integer() and not key.endswith("_s"):
            value = int(value)
        metrics[key] = value
    metrics = with_ratios(metrics)
    spread = {key: [m[key] for m in per_rep] for key in EXACT_COUNTS
              if len({m[key] for m in per_rep}) > 1}
    roots = [f"verify.criterion_{k}" for k in range(1, 10)] + [
        f"cli.run_{name}" for name in Experiments.names]
    spans = reps[-1]["spans"]
    subtrees = {root: breakdown(spans, root) for root in roots}
    return {
        "metrics": metrics,
        "count_spread": spread,
        "breakdown": {k: v for k, v in subtrees.items() if v["calls"]},
        "span_count": len(spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    setup_spans = tracer.take() if tracer else []
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    reps = []

    def run_one(traced: bool) -> None:
        if traced:
            tracer.install()
        try:
            wall, phases, raw = workload.run()
        finally:
            if traced:
                tracer.uninstall()
        ops, reports = workload.check(raw)
        reps.append({"wall": wall, "phases": phases, "ops": ops, "reports": reports,
                     "traced": traced, "spans": tracer.take() if traced else []})

    start = perf_counter()
    if tracer:
        # two traced repetitions for the exact-count check around one
        # untraced one for the overhead; the first repetition of a process
        # pays one-off costs, so the overhead compares the later two. The
        # untraced repetition follows an uninstall, so it also measures the
        # restored program.
        run_one(True)
        run_one(False)
        run_one(True)
    else:
        while len(reps) < MIN_REPS or perf_counter() - start < args.seconds:
            run_one(False)
    measured = perf_counter() - start
    if hasattr(workload, "close"):
        workload.close()

    _check_bytes(reps)
    ops = [(name, ok) for rep in reps for name, ok, _ in rep["ops"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured,
        "walls": [rep["wall"] for rep in reps if not rep["traced"]],
        "traced_walls": [rep["wall"] for rep in reps if rep["traced"]],
        "phases": [rep["phases"] for rep in reps if not rep["traced"]],
        "attempted": len(ops),
        "failed": [name for name, ok in ops if not ok],
        "report_sha256": {name: _sha(data) for name, data in reps[0]["reports"].items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }
    if tracer:
        traced = [rep for rep in reps if rep["traced"]]
        result["trace_detail"] = _traced_metrics(setup_spans, traced)
        result["attempted"] += 1
        if result["trace_detail"]["count_spread"]:
            result["failed"].append("exact_counts")
        spans_file = SCRATCH / "trace" / f"{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "info"],
             "setup": setup_spans, "repetitions": [rep["spans"] for rep in traced]}))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
