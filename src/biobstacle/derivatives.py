"""Directional, reduced, and one-sided generalized derivatives of the
solution operator u -> y(u).

Three routes, kept deliberately independent so they can certify each other:

* directional_derivative: projected SOR on the critical-cone VI
  <A eta - f'(u) h, z - eta> >= 0 over the cone of admissible directions.
* gateaux_derivative_on_D: exact reduced linear solve A_DD eta_D = (f'(u)h)_D,
  eta = 0 outside D, on D = the inactive set.
* generalized_derivative: the two canonical one-sided choices of D obtained
  from monotone approach directions; side="lower" approaches the control from
  below (D = inactive plus weak upper contact), side="upper" from above
  (D = inactive plus weak lower contact). Under strict complementarity both
  collapse to D = inactive and agree with the cone VI.

Each route differentiates at a solved point: it takes the BopSolution at u
and reads the problem, u and the contact sets (BopSolution.sets) off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import apply_control_derivative
from .errors import InvalidD
from .grid import GridFunction, require_same_grid
from .multipliers import SetPartition, pair_inclusion_violations
from .obstacle import BopSolution, _reduced_solve, solve_bop, solve_vi_bounds

SIDES = ("lower", "upper")
CONE_TOL = 1e-12   # natural-residual tolerance of the cone VI


@dataclass(frozen=True, eq=False)
class DerivativeResult:
    eta: GridFunction
    D_used: np.ndarray | None


def reduced_linear_solve(operator, rhs: np.ndarray, mask: np.ndarray,
                         adjoint: bool = False) -> np.ndarray:
    """Solve A[mask,mask] x = rhs[mask] (A^T with adjoint=True), zero elsewhere."""
    matrix, transpose = operator.matrix, operator.adjoint_matrix
    if adjoint:
        matrix, transpose = transpose, matrix
    return _reduced_solve(matrix, transpose, rhs, mask, np.zeros_like(rhs))


def _derivative_load(solution: BopSolution, h: GridFunction) -> np.ndarray:
    """f'(u) h, the load of every derivative system at the solved point."""
    require_same_grid(solution.u, h)
    return apply_control_derivative(solution.problem.control, solution.u, h).values


def directional_derivative(solution: BopSolution, h: GridFunction) -> DerivativeResult:
    """Directional derivative of the solution operator at solution.u along h.

    Solves the VI over the critical cone with projected SOR. The cone is
    eta >= 0 off the lower side's domain and eta <= 0 off the upper side's:
    free on the inactive set, of one sign on weak contact, zero on strict
    contact.
    """
    lo = np.where(domain_for_side(solution.sets, "lower"), -np.inf, 0.0)
    hi = np.where(domain_for_side(solution.sets, "upper"), np.inf, 0.0)
    problem = solution.problem
    eta, _, _ = solve_vi_bounds(problem.operator, _derivative_load(solution, h),
                                lo, hi, tol=CONE_TOL)
    return DerivativeResult(eta=problem.grid.function(eta), D_used=None)


def _reduced_derivative(solution: BopSolution, h: GridFunction,
                        D: np.ndarray) -> DerivativeResult:
    problem = solution.problem
    eta = reduced_linear_solve(problem.operator, _derivative_load(solution, h), D)
    return DerivativeResult(eta=problem.grid.function(eta), D_used=D)


def gateaux_derivative_on_D(solution: BopSolution, h: GridFunction) -> DerivativeResult:
    """Reduced variational equation on D = the inactive set."""
    return _reduced_derivative(solution, h, solution.sets.inactive)


def domain_for_side(partition: SetPartition, side: str) -> np.ndarray:
    """The one-sided reduced domain: everything except the blocking contact.

    side="lower" (approach from below): drop all lower contact and the strict
    upper contact, keep weak upper contact. side="upper" mirrors it.
    """
    if side not in SIDES:
        raise InvalidD(f"side must be one of {SIDES}, got {side!r}")
    if side == "lower":
        return ~(partition.lower | partition.upper_strict)
    return ~(partition.upper | partition.lower_strict)


def generalized_derivative(solution: BopSolution, h: GridFunction,
                           side: str) -> DerivativeResult:
    """One-sided generalized derivative via the reduced equation on the
    side's canonical domain."""
    return _reduced_derivative(solution, h, domain_for_side(solution.sets, side))


def mosco_convergence_experiment(solution: BopSolution, h: GridFunction, side: str,
                                 schedule: tuple[int, ...], e: GridFunction) -> dict:
    """Reduced derivatives along a monotone control sequence u_n -> u.

    The limit point is the given solution at u and its contact sets.
    u_n = u - e/n for side="lower" (approach from below), u_n = u + e/n for
    side="upper". For each n the instance is re-solved from the nearby limit
    point (solve_bop's near), re-classified, and the reduced derivative on
    that instance's one-sided domain is compared with the limit derivative.
    Reports the error decay and, per step, the set inclusions between u_n
    and u as a control-ordered pair.
    """
    problem, u = solution.problem, solution.u
    if (e.values <= 0).any():
        raise InvalidD("perturbation e must be positive nodewise")
    if not schedule or min(schedule) < 1:
        raise InvalidD(f"schedule must name at least one n, each n >= 1, got {schedule}")
    sign = -1.0 if side == "lower" else 1.0

    limit_result = generalized_derivative(solution, h, side)
    eta_limit = limit_result.eta.values

    steps = []
    for n in schedule:
        sol_n = solve_bop(problem, u.with_values(u.values + sign * e.values / n),
                          near=solution)
        result_n = generalized_derivative(sol_n, h, side)
        hi, lo = (solution, sol_n) if side == "lower" else (sol_n, solution)
        sandwich = pair_inclusion_violations(hi.sets, lo.sets)
        steps.append({
            "n": int(n),
            "error": float(np.abs(result_n.eta.values - eta_limit).max()),
            "state_gap": float(np.abs(sol_n.y.values - solution.y.values).max()),
            "dim_D": int(result_n.D_used.sum()),
            "sandwich_ok": not any(sandwich.values()),
            "sandwich": sandwich,
        })
    errors = [s["error"] for s in steps]
    return {
        "side": side,
        "schedule": [int(n) for n in schedule],
        "steps": steps,
        "final_error": errors[-1],
        "errors_nonincreasing_tail": all(
            errors[i + 1] <= errors[i] + 1e-15 for i in range(max(0, len(errors) - 4),
                                                              len(errors) - 1)
        ),
        "dim_D_limit": int(limit_result.D_used.sum()),
    }
