"""Brute-force reference solver: enumerate every complementarity pattern.

For each of the 3^n assignments of {lower, inactive, upper} per node, fix the
state on the active nodes, solve the remaining dense system, and accept the
pattern iff the state is feasible and the multiplier has the right signs.
The VI solution is unique, so the first accepted pattern is the answer.
Exponential cost; intended as an independent oracle on tiny 1D instances.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidSpec
from .grid import GridFunction
from .obstacle import BopProblem, BopSolution

ENUMERATION_LIMIT = 12  # 3^12 patterns is already ~0.5M
ENUMERATION_TOL = 1e-9  # largest sign or feasibility violation accepted


def solve_by_enumeration(problem: BopProblem, u: GridFunction) -> BopSolution:
    """Reference solution by exhaustive pattern search (n <= ENUMERATION_LIMIT)."""
    n = problem.grid.total
    if n > ENUMERATION_LIMIT:
        raise InvalidSpec(f"enumeration over 3^{n} patterns refused")
    matrix = problem.operator.matrix.toarray()
    b = problem.load(u)
    psi, phi = problem.obstacles.psi, problem.obstacles.phi

    best = None
    best_viol = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        code = np.array(pattern)
        low = code == 1
        up = code == 2
        free = code == 0
        y = np.where(low, psi, np.where(up, phi, 0.0))
        if free.any():
            sub = matrix[np.ix_(free, free)]
            rhs = b[free] - matrix[np.ix_(free, ~free)] @ y[~free]
            try:
                y[free] = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
        xi = matrix @ y - b
        viol = 0.0
        if free.any():
            viol = max(
                viol,
                float((psi - y)[free].max(initial=-np.inf)),
                float((y - phi)[free].max(initial=-np.inf)),
            )
        if low.any():
            viol = max(viol, float((-xi[low]).max()))
        if up.any():
            viol = max(viol, float(xi[up].max()))
        if viol <= ENUMERATION_TOL:
            return _as_solution(problem, u, y, xi, viol)
        if viol < best_viol:
            best, best_viol = (y, xi), viol
    # no pattern met the tolerance; return the least-violating one so the
    # caller sees how far off it is instead of getting nothing
    y, xi = best
    return _as_solution(problem, u, y, xi, best_viol)


def _as_solution(problem, u, y, xi, viol) -> BopSolution:
    return BopSolution(
        problem=problem,
        u=u,
        y=problem.grid.function(y),
        xi=problem.grid.function(xi),
        solver="enumeration",
        iterations=0,
        residual_norm=float(viol),
    )
