"""Tracking objective, adjoint subgradients, descent."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from biobstacle import (
    BopProblem,
    ControlOperator,
    ControlProblem,
    ObstaclePair,
    OperatorSpec,
    adjoint_subgradient,
    assemble,
    classify_sets,
    descent_loop,
    objective,
    solve_bop,
)
from biobstacle import tracking
from biobstacle.errors import InvalidD, InvalidSpec
from biobstacle.problems import manufactured_instance, smooth_field, unit_grid


def _unconstrained_cp(n=10, alpha=1e-3):
    """Identity control, obstacles far away: J is smooth with a closed-form
    gradient we can write down independently."""
    grid = unit_grid(n, dim=2)
    operator = assemble(grid, OperatorSpec("laplacian_plus_reaction", reaction=1.0))
    control = ControlOperator(grid, kind="identity")
    problem = BopProblem(
        operator=operator,
        control=control,
        obstacles=ObstaclePair(grid, np.full(grid.total, -50.0), np.full(grid.total, 50.0)),
    )
    rng = np.random.default_rng(21)
    y_target = smooth_field(grid, rng, amplitude=0.01)
    return ControlProblem(bop=problem, y_target=y_target, alpha=alpha), rng


def _objective_at(cp, u):
    return objective(cp, solve_bop(cp.bop, u))


def _subgradient_at(cp, u, side="lower"):
    sol = solve_bop(cp.bop, u)
    return adjoint_subgradient(cp, sol, side)


def test_gradient_matches_dense_formula():
    """For the unconstrained identity-control case,
    g = mass * A^{-T} (mass (y - y_target)) + alpha * mass * u exactly."""
    cp, rng = _unconstrained_cp()
    grid = cp.bop.grid
    u = grid.function(rng.standard_normal(grid.total))
    sol = solve_bop(cp.bop, u)
    part = sol.sets
    assert part.counts()["inactive"] == grid.total
    sub = adjoint_subgradient(cp, sol, side="lower")
    A = cp.bop.operator.matrix
    q = spla.spsolve(A.T.tocsc(), grid.mass * (sol.y.values - cp.y_target.values))
    expected = grid.mass * q + cp.alpha * grid.mass * u.values
    np.testing.assert_allclose(sub.g.values, expected, atol=1e-14)


def test_gradient_matches_central_differences():
    cp, rng = _unconstrained_cp()
    grid = cp.bop.grid
    u = grid.function(rng.standard_normal(grid.total))
    sub = _subgradient_at(cp, u)
    t = 1e-5
    for _ in range(4):
        w = rng.standard_normal(grid.total)
        jp = _objective_at(cp, u.with_values(u.values + t * w))
        jm = _objective_at(cp, u.with_values(u.values - t * w))
        cd = (jp - jm) / (2 * t)
        assert float(sub.g.values @ w) == pytest.approx(cd, rel=1e-6, abs=1e-14)


def test_adjoint_identity_is_machine_exact():
    inst = manufactured_instance(unit_grid(16, dim=2))
    rng = np.random.default_rng(6)
    grid = inst["problem"].grid
    y_target = grid.function(inst["y_star"].values - 0.001)
    cp = ControlProblem(bop=inst["problem"], y_target=y_target, alpha=1e-8)
    u = grid.function(inst["u"].values + smooth_field(grid, rng, amplitude=0.05).values)
    sub = _subgradient_at(cp, u)
    from biobstacle import control_derivative_matrix
    fprime = control_derivative_matrix(cp.bop.control, u)
    for _ in range(5):
        w = rng.standard_normal(grid.total)
        lhs = float((fprime.T @ sub.q.values) @ w)
        rhs = float(sub.q.values @ (fprime @ w))
        assert lhs == pytest.approx(rhs, abs=1e-18)


def test_subgradient_respects_one_sided_domain():
    inst = manufactured_instance(unit_grid(16, dim=2))
    grid = inst["problem"].grid
    cp = ControlProblem(bop=inst["problem"],
                        y_target=grid.function(inst["y_star"].values - 0.002),
                        alpha=1e-8)
    sol = solve_bop(cp.bop, inst["u"])
    part = sol.sets
    sub = adjoint_subgradient(cp, sol, side="lower")
    assert (sub.q.values[part.lower] == 0.0).all()
    assert (sub.q.values[part.upper] == 0.0).all()
    with pytest.raises(InvalidD):
        adjoint_subgradient(cp, sol, side="diagonal")


def test_descent_strictly_decreases_objective():
    cp, rng = _unconstrained_cp(alpha=1e-2)
    grid = cp.bop.grid
    u0 = grid.function(rng.standard_normal(grid.total))
    trace = descent_loop(cp, u0, steps=20, side="lower")
    values = [row["objective"] for row in trace.rows]
    assert len(values) == 20
    assert trace.termination == "max_steps"
    assert all(b < a for a, b in zip(values, values[1:]))
    assert _objective_at(cp, trace.u_final) == pytest.approx(values[-1])


def test_descent_solves_once_per_objective_evaluation(monkeypatch):
    """Every trial control is solved once, and the accepted trial's solution
    feeds the next subgradient: no second solve of the same control."""
    inst = manufactured_instance(unit_grid(12, dim=2))
    grid = inst["problem"].grid
    rng = np.random.default_rng(3)
    cp = ControlProblem(bop=inst["problem"],
                        y_target=grid.function(inst["y_star"].values - 0.002),
                        alpha=1e-8)
    u0 = grid.function(inst["u"].values + smooth_field(grid, rng, amplitude=0.05).values)
    calls = {"solve_bop": 0, "objective": 0}
    solves = []     # (near, solution) per solve

    def counting(name):
        fn = getattr(tracking, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "solve_bop":
                solves.append((kwargs.get("near"), result))
            return result

        return wrapped

    for name in calls:
        monkeypatch.setattr(tracking, name, counting(name))
    trace = descent_loop(cp, u0, steps=6, side="lower")
    accepted = sum(1 for row in trace.rows if row["step"] > 0.0)
    assert accepted == 6
    assert calls["objective"] > accepted
    assert calls["solve_bop"] == calls["objective"]
    # each trial starts from the current accepted point: the first solve,
    # then the trial that ended the previous line search
    assert solves[0][0] is None
    current, switches = solves[0][1], 0
    for (near, _), (_, previous) in zip(solves[1:], solves):
        if near is not current:
            current, switches = previous, switches + 1
        assert near is current
    assert switches == accepted - 1


def test_armijo_rejects_a_step_that_does_not_lower_the_objective():
    """Every node strictly in upper contact pins the state, so J is flat up
    to the tiny Tikhonov term: each trial's objective rounds to the current
    one. j + c1*s*slope rounds to j as well, so a test of j_try against it
    would accept a step that does not decrease J; the line search must fail
    instead."""
    grid = unit_grid(8, dim=2)
    problem = BopProblem(
        operator=assemble(grid, OperatorSpec("laplacian")),
        control=ControlOperator(grid, kind="identity"),
        obstacles=ObstaclePair(grid, np.full(grid.total, -1.0), np.zeros(grid.total)),
    )
    cp = ControlProblem(bop=problem, y_target=grid.constant(-10.0), alpha=1e-12)
    u0 = grid.constant(1e3)
    assert classify_sets(solve_bop(problem, u0)).upper_strict.all()
    trace = descent_loop(cp, u0, steps=3, side="lower")
    assert trace.termination == "line_search_failure"
    assert [row["step"] for row in trace.rows] == [0.0]


def test_descent_reaches_grad_tol_on_easy_problem(monkeypatch):
    cp, rng = _unconstrained_cp(alpha=1.0)
    grid = cp.bop.grid
    u0 = grid.function(0.01 * rng.standard_normal(grid.total))
    # J is about 8e-6 here, and once |g| is near 1e-12 no step lowers it by
    # an ulp, so the tolerance sits above that rounding floor
    monkeypatch.setattr(tracking, "GRAD_TOL", 1e-11)
    trace = descent_loop(cp, u0, steps=2000, side="lower")
    assert trace.termination == "grad_tol"
    final = solve_bop(cp.bop, trace.u_final)
    sub = adjoint_subgradient(cp, final, side="lower")
    assert np.linalg.norm(sub.g.values) <= 1e-11


def test_objective_value_formula():
    cp, rng = _unconstrained_cp(alpha=0.5)
    grid = cp.bop.grid
    u = grid.function(rng.standard_normal(grid.total))
    sol = solve_bop(cp.bop, u)
    expected = 0.5 * grid.mass * float(
        ((sol.y.values - cp.y_target.values) ** 2).sum()
    ) + 0.25 * grid.mass * float((u.values ** 2).sum())
    assert objective(cp, sol) == pytest.approx(expected, rel=1e-14)


def test_negative_tikhonov_weight_rejected():
    cp, _ = _unconstrained_cp()
    with pytest.raises(InvalidSpec):
        ControlProblem(bop=cp.bop, y_target=cp.y_target, alpha=-1.0)
