"""Tracking objective, adjoint-based subgradients, and a descent loop.

J(u) = 1/2 ||y(u) - y_target||_M^2 + alpha/2 ||u||_M^2 with the mass-weighted
norm ||v||_M^2 = mass * sum v_i^2. Subgradients come from the adjoint of the
reduced derivative system on a one-sided domain D:

    (A_DD)^T q_D = (mass * (y - y_target))_D,   q = 0 outside D,
    g = f'(u)^T q + alpha * mass * u.

g is a plain-dot functional on control space: g . w equals the directional
derivative of J along w wherever J is differentiable. J and g are evaluated
at a solved point: the BopSolution at u (and, for g, its SetPartition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import control_derivative_matrix
from .derivatives import domain_for_side, reduced_linear_solve
from .errors import InvalidSpec
from .grid import GridFunction, mass_norm, require_same_grid
from .multipliers import SetPartition, classify_sets
from .obstacle import BopProblem, BopSolution, solve_bop

# Armijo line search: the first trial step is 1/mass (scale-aware); a failed
# trial shrinks the step, an accepted one grows the next first trial.
STEP_SHRINK = 0.5
STEP_GROWTH = 2.0
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
GRAD_TOL = 0.0      # stop once the subgradient norm is at most this


@dataclass(frozen=True, eq=False)
class ControlProblem:
    bop: BopProblem
    y_target: GridFunction
    alpha: float = 1e-4

    def __post_init__(self):
        require_same_grid(self.bop.operator, self.y_target)
        if self.alpha < 0:
            raise InvalidSpec(f"Tikhonov weight must be >= 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class Subgradient:
    g: GridFunction
    q: GridFunction
    D_used: np.ndarray
    side: str


def objective(cp: ControlProblem, solution: BopSolution) -> float:
    """J at solution.u, from the state already solved there."""
    misfit = solution.y.with_values(solution.y.values - cp.y_target.values)
    return 0.5 * mass_norm(misfit) ** 2 + 0.5 * cp.alpha * mass_norm(solution.u) ** 2


def adjoint_subgradient(
    cp: ControlProblem,
    solution: BopSolution,
    partition: SetPartition,
    side: str = "lower",
) -> Subgradient:
    """Subgradient of J at solution.u from the side's reduced adjoint system."""
    D = domain_for_side(partition, side)
    problem, u = solution.problem, solution.u
    grid = problem.grid
    j_y = grid.mass * (solution.y.values - cp.y_target.values)
    q = reduced_linear_solve(problem.operator, j_y, D, adjoint=True)
    fprime = control_derivative_matrix(problem.control, u)
    g = fprime.T @ q + cp.alpha * grid.mass * u.values
    return Subgradient(
        g=grid.function(g), q=grid.function(q), D_used=D, side=side
    )


@dataclass(frozen=True, eq=False)
class DescentTrace:
    rows: list            # dicts: iter, objective, step, grad_norm, side
    u_final: GridFunction
    termination: str      # max_steps | grad_tol | line_search_failure
    line_search_failures: int


def descent_loop(
    cp: ControlProblem,
    u0: GridFunction,
    steps: int = 50,
    side: str = "lower",
) -> DescentTrace:
    """Projected-free subgradient descent u <- u - s*g with Armijo backtracking.

    Line-search failures are recorded in the trace (termination reason), never
    raised; every accepted step strictly decreases the objective. Each trial
    control is solved once; the accepted trial's solution gives the next
    subgradient.
    """
    solution = solve_bop(cp.bop, u0)
    j = objective(cp, solution)
    trial = 1.0 / cp.bop.grid.mass
    rows = []
    failures = 0
    termination = "max_steps"
    for it in range(1, steps + 1):
        sub = adjoint_subgradient(cp, solution, classify_sets(solution), side)
        g = sub.g.values
        slope = -float(g @ g)       # directional derivative along -g
        grad_norm = float(np.sqrt(-slope))
        if grad_norm <= GRAD_TOL:
            termination = "grad_tol"
            break
        s = trial
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            u_try = solution.u.with_values(solution.u.values - s * g)
            trial_solution = solve_bop(cp.bop, u_try)
            j_try = objective(cp, trial_solution)
            if j_try <= j + ARMIJO_C1 * s * slope:
                accepted = True
                break
            s *= STEP_SHRINK
        if not accepted:
            failures += 1
            rows.append({"iter": it, "objective": j, "step": 0.0,
                         "grad_norm": grad_norm, "side": side})
            termination = "line_search_failure"
            break
        solution, j = trial_solution, j_try
        rows.append({"iter": it, "objective": j, "step": s,
                     "grad_norm": grad_norm, "side": side})
        trial = s * STEP_GROWTH
    return DescentTrace(
        rows=rows, u_final=solution.u, termination=termination,
        line_search_failures=failures,
    )
