"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import inspect
import sys

import numpy as np
import scipy.sparse.linalg

import workloads  # puts src/ on sys.path
from tracer import SPLU, Tracer, breakdown, layer_metrics, self_times, with_ratios

import biobstacle
from biobstacle import cli, derivatives, multipliers, obstacle, problems, verify


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("verify.criterion_2", 0.0, 10.0, -1),
        _span("obstacle.solve_bop", 1.0, 6.0, 0, ("pdas", 3)),
        _span(SPLU, 2.0, 3.0, 1, (100, 400)),
        _span(SPLU, 3.5, 5.0, 1, (80, 300)),
        _span("problems.random_instance", 7.0, 9.0, 0),
        _span("problems.spsolve", 7.5, 8.0, 4),
    ]
    assert self_times(spans) == [3.0, 2.5, 1.0, 1.5, 1.5, 0.5]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a.x", 0.0, 4.0, -1), _span("b.y", 1.0, 3.0, 0),
             _span("b.z", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_layer_metrics_attribute_factorizations_to_their_caller():
    spans = [
        _span("verify.criterion_6", 0.0, 20.0, -1),
        _span("obstacle.solve_bop", 0.0, 4.0, 0, ("pdas", 2)),
        _span(SPLU, 1.0, 2.0, 1, (10, 30)),
        _span(SPLU, 2.0, 3.5, 1, (12, 40)),
        _span("derivatives.reduced_linear_solve", 5.0, 8.0, 0),
        _span(SPLU, 6.0, 8.0, 4, (7, 20)),
        _span("obstacle.solve_bop", 9.0, 10.0, 0, ("psor", 50)),
        _span("tracking.descent_loop", 11.0, 19.0, 0, 1),
        _span("tracking.objective", 11.0, 12.0, 7),
        _span("tracking.objective", 13.0, 14.0, 7),
        _span("tracking.objective", 15.0, 16.0, 7),
        _span("obstacle.solve_bop", 15.0, 16.0, 10, ("pdas", 1)),
    ]
    m = with_ratios(layer_metrics(spans))
    assert m["obstacle.factorizations"] == 2
    assert m["obstacle.factor_unknowns"] == 22
    assert m["obstacle.lu_nnz"] == 70
    assert m["obstacle.factorize_s"] == 2.5
    assert m["obstacle.solve_s"] == 4.0 - 2.5 + 1.0 + 1.0
    assert m["obstacle.pdas_iterations"] == 3 and m["obstacle.psor_sweeps"] == 50
    assert m["obstacle.solve.calls"] == 3
    assert m["obstacle.factorizations_per_solve"] == 2 / 3
    assert m["derivatives.reduced_solve.calls"] == 1
    assert m["derivatives.reduced_solve_s"] == 3.0
    assert m["tracking.objective.calls"] == 3
    assert m["tracking.objective_s"] == 2.0
    assert m["tracking.accept_ratio"] == 1 / 2        # 1 accepted of 2 trials
    assert m["tracking.solves_per_step"] == 1.0
    assert m["verify.criterion_6_s"] == 20.0 - 4.0 - 3.0 - 1.0 - 8.0


def test_breakdown_splits_a_subtree_by_layer():
    spans = [
        _span("verify.criterion_2", 0.0, 10.0, -1),
        _span("obstacle.solve_bop", 1.0, 6.0, 0, ("pdas", 1)),
        _span(SPLU, 2.0, 5.0, 1, (1, 1)),
        _span("verify.criterion_3", 10.0, 12.0, -1),
    ]
    parts = breakdown(spans, "verify.criterion_2")
    assert parts == {"inclusive_s": 10.0, "calls": 1, "verify_s": 5.0,
                     "obstacle_s": 2.0, "splu_s": 3.0}


def _snapshot():
    mods = [m for name, m in sys.modules.items()
            if name == "biobstacle" or name.startswith("biobstacle.")]
    state = {(m.__name__, attr): value for m in mods for attr, value in vars(m).items()}
    state[("scipy.sparse.linalg", "splu")] = scipy.sparse.linalg.splu
    return state


def test_tracer_rebinds_imported_names_and_puts_every_one_back():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = obstacle.solve_bop
        assert wrapped is not before[("biobstacle.obstacle", "solve_bop")]
        assert multipliers.solve_bop is wrapped and biobstacle.solve_bop is wrapped
        assert derivatives.solve_bop is wrapped and cli.solve_bop is wrapped
        assert all(fn.__wrapped__ is orig for fn, orig in
                   zip(verify.CRITERIA, before[("biobstacle.verify", "CRITERIA")]))
        assert cli.RUNNERS["mosco"].__wrapped__ is before[("biobstacle.cli", "RUNNERS")]["mosco"]
        problem, u = problems.random_instance(problems.unit_grid(12), np.random.default_rng(3))
        biobstacle.classify_sets(obstacle.solve_bop(problem, u))
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    spans = tracer.take()
    names = {span[0] for span in spans}
    assert {"problems.random_instance", "problems.spsolve", "grid.assemble",
            "obstacle.solve_bop", SPLU, "multipliers.classify_sets"} <= names
    m = layer_metrics(spans)
    assert m["obstacle.solve.calls"] == 1 and m["obstacle.factorizations"] >= 1

    # an untraced call after uninstall records nothing
    obstacle.solve_bop(problem, u)
    assert tracer.take() == []


def test_grid_symmetry_maps_the_solution():
    problem, u = problems.random_instance(
        problems.unit_grid(10), np.random.default_rng(5),
        operator_kinds=("laplacian_plus_convection",))
    base = obstacle.solve_bop(problem, u)
    for k in range(8):
        mapped, v = workloads.symmetric_instance(problem, u, k)
        perm = workloads.grid_symmetry(10, k)[0]
        solution = obstacle.solve_bop(mapped, v)
        assert solution.iterations == base.iterations
        assert np.abs(solution.y.values - base.y.values[perm]).max() < 1e-12


def test_workloads_call_the_package_through_its_modules():
    # a function bound into the workload module would bypass the tracer
    bound = [name for name, value in vars(workloads).items()
             if inspect.isfunction(value) and value.__module__.startswith("biobstacle")]
    assert bound == []
