"""Directional, reduced, and one-sided generalized derivatives of the
solution operator u -> y(u).

Three routes, kept deliberately independent so they can certify each other:

* directional_derivative: projected SOR on the critical-cone VI
  <A eta - f'(u) h, z - eta> >= 0 over the cone of admissible directions.
* gateaux_derivative_on_D: exact reduced linear solve A_DD eta_D = (f'(u)h)_D,
  eta = 0 outside D, for a caller-chosen D squeezed between the inactive set
  and the complement of the strictly active set.
* generalized_derivative: the two canonical one-sided choices of D obtained
  from monotone approach directions; side="lower" approaches the control from
  below (D = inactive plus weak upper contact), side="upper" from above
  (D = inactive plus weak lower contact). Under strict complementarity both
  collapse to D = inactive and agree with the cone VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import apply_control_derivative
from .errors import InvalidD
from .grid import GridFunction, require_same_grid
from .multipliers import (
    EPS_ACTIVE,
    EPS_MULT,
    CriticalCone,
    SetPartition,
    classify_sets,
)
from .obstacle import (
    BopProblem,
    BopSolution,
    _reduced_solve,
    solve_bop,
    solve_vi_bounds,
)

SIDES = ("lower", "upper")


@dataclass(frozen=True, eq=False)
class DerivativeResult:
    eta: GridFunction
    D_used: np.ndarray | None
    side: str | None
    diagnostics: dict = field(default_factory=dict)


def _base_solution(problem, u, solution, partition, eps_active, eps_mult):
    if solution is None:
        solution = solve_bop(problem, u, method="pdas")
    if partition is None:
        partition = classify_sets(solution, eps_active, eps_mult)
    return solution, partition


def reduced_linear_solve(operator, rhs: np.ndarray, mask: np.ndarray,
                         adjoint: bool = False) -> np.ndarray:
    """Solve A[mask,mask] x = rhs[mask] (A^T with adjoint=True), zero elsewhere."""
    matrix = operator.adjoint_matrix if adjoint else operator.matrix
    return _reduced_solve(matrix, rhs, mask, np.zeros_like(rhs))


def directional_derivative(
    problem: BopProblem,
    u: GridFunction,
    h: GridFunction,
    solution: BopSolution | None = None,
    partition: SetPartition | None = None,
    method: str = "psor",
    tol: float = 1e-10,
    omega: float | None = None,
    max_iter: int | None = None,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> DerivativeResult:
    """Directional derivative of the solution operator at u along h.

    Solves the VI over the critical cone with projected SOR using per-node
    projections (free / nonneg / nonpos / zero).
    """
    require_same_grid(u, h)
    solution, partition = _base_solution(problem, u, solution, partition,
                                         eps_active, eps_mult)
    cone = CriticalCone.from_partition(partition)
    rhs = apply_control_derivative(problem.control, u, h).values
    lo, hi = cone.bounds()
    eta, iters, err = solve_vi_bounds(
        problem.operator, rhs, lo, hi,
        method=method, tol=tol, omega=omega, max_iter=max_iter,
    )
    if not cone.contains(eta, tol=1e-12):
        raise InvalidD("cone VI solution left the critical cone")
    return DerivativeResult(
        eta=problem.grid.function(eta),
        D_used=None,
        side=None,
        diagnostics={"iterations": iters, "residual": err,
                     "cone": cone.describe()},
    )


def _validate_D(D: np.ndarray, partition: SetPartition) -> np.ndarray:
    D = np.asarray(D, dtype=bool)
    if D.shape != partition.inactive.shape:
        raise InvalidD("domain mask has the wrong length")
    if (partition.inactive & ~D).any():
        raise InvalidD("domain must contain every inactive node")
    if (D & partition.strict).any():
        raise InvalidD("domain must avoid every strictly active node")
    return D


def gateaux_derivative_on_D(
    problem: BopProblem,
    u: GridFunction,
    h: GridFunction,
    D_override: np.ndarray | None = None,
    solution: BopSolution | None = None,
    partition: SetPartition | None = None,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> DerivativeResult:
    """Reduced variational equation on D (default: the inactive set)."""
    require_same_grid(u, h)
    solution, partition = _base_solution(problem, u, solution, partition,
                                         eps_active, eps_mult)
    D = partition.inactive if D_override is None else _validate_D(D_override, partition)
    rhs = apply_control_derivative(problem.control, u, h).values
    eta = reduced_linear_solve(problem.operator, rhs, D)
    return DerivativeResult(
        eta=problem.grid.function(eta),
        D_used=D,
        side=None,
        diagnostics={"dim_D": int(D.sum())},
    )


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


def generalized_derivative(
    problem: BopProblem,
    u: GridFunction,
    h: GridFunction,
    side: str = "lower",
    solution: BopSolution | None = None,
    partition: SetPartition | None = None,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> DerivativeResult:
    """One-sided generalized derivative via the reduced equation on the
    side's canonical domain."""
    require_same_grid(u, h)
    solution, partition = _base_solution(problem, u, solution, partition,
                                         eps_active, eps_mult)
    D = domain_for_side(partition, side)
    rhs = apply_control_derivative(problem.control, u, h).values
    eta = reduced_linear_solve(problem.operator, rhs, D)
    return DerivativeResult(
        eta=problem.grid.function(eta),
        D_used=D,
        side=side,
        diagnostics={"dim_D": int(D.sum()), "counts": partition.counts()},
    )


def verify_set_sandwich(
    partition_limit: SetPartition, partition_n: SetPartition, side: str
) -> dict:
    """Inclusion chains between a monotone approximation and its limit.

    side="lower": the approximating controls sit below the limit control, so
    lower contact is larger along the sequence and strict upper contact is
    smaller; side="upper" mirrors. Returns violation counts per chain.
    """
    if side not in SIDES:
        raise InvalidD(f"side must be one of {SIDES}, got {side!r}")
    lim, cur = partition_limit, partition_n
    if side == "lower":
        chains = {
            "lower_active_contains_limit": int((lim.lower & ~cur.lower).sum()),
            "upper_active_within_limit": int((cur.upper & ~lim.upper).sum()),
            "lower_strict_contains_limit": int((lim.lower_strict & ~cur.lower_strict).sum()),
            "upper_strict_within_limit": int((cur.upper_strict & ~lim.upper_strict).sum()),
        }
    else:
        chains = {
            "upper_active_contains_limit": int((lim.upper & ~cur.upper).sum()),
            "lower_active_within_limit": int((cur.lower & ~lim.lower).sum()),
            "upper_strict_contains_limit": int((lim.upper_strict & ~cur.upper_strict).sum()),
            "lower_strict_within_limit": int((cur.lower_strict & ~lim.lower_strict).sum()),
        }
    chains["ok"] = not any(chains.values())
    return chains


def mosco_convergence_experiment(
    problem: BopProblem,
    u: GridFunction,
    h: GridFunction,
    side: str = "lower",
    schedule: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
    e: GridFunction | None = None,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> dict:
    """Reduced derivatives along a monotone control sequence u_n -> u.

    u_n = u - e/n for side="lower" (approach from below), u_n = u + e/n for
    side="upper". For each n the instance is re-solved, re-classified, and the
    reduced derivative on that instance's one-sided domain is compared with
    the limit derivative. Reports the error decay and the set inclusion
    chains per step.
    """
    require_same_grid(u, h)
    if side not in SIDES:
        raise InvalidD(f"side must be one of {SIDES}, got {side!r}")
    if e is None:
        e = problem.grid.constant(1.0)
    if (e.values <= 0).any():
        raise InvalidD("perturbation e must be positive nodewise")
    sign = -1.0 if side == "lower" else 1.0

    limit_solution = solve_bop(problem, u, method="pdas")
    limit_partition = classify_sets(limit_solution, eps_active, eps_mult)
    limit_result = generalized_derivative(
        problem, u, h, side=side,
        solution=limit_solution, partition=limit_partition,
    )
    eta_limit = limit_result.eta.values

    steps = []
    for n in schedule:
        u_n = u.with_values(u.values + sign * e.values / n)
        sol_n = solve_bop(problem, u_n, method="pdas")
        part_n = classify_sets(sol_n, eps_active, eps_mult)
        D_n = domain_for_side(part_n, side)
        rhs_n = apply_control_derivative(problem.control, u_n, h).values
        eta_n = reduced_linear_solve(problem.operator, rhs_n, D_n)
        sandwich = verify_set_sandwich(limit_partition, part_n, side)
        steps.append({
            "n": int(n),
            "error": float(np.abs(eta_n - eta_limit).max()),
            "state_gap": float(np.abs(sol_n.y.values - limit_solution.y.values).max()),
            "dim_D": int(D_n.sum()),
            "sandwich_ok": bool(sandwich["ok"]),
            "sandwich": {k: v for k, v in sandwich.items() if k != "ok"},
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
