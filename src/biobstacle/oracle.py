"""Brute-force reference solver: enumerate every complementarity pattern.

For each of the 3^n assignments of {lower, inactive, upper} per node, fix the
state on the active nodes, solve the remaining dense system, and accept the
pattern iff the state is feasible and the multiplier has the right signs.
The VI solution is unique, so the first accepted pattern is the answer.
Exponential cost; an independent oracle on tiny 1D and 2D instances, which
solves the patterns in chunked batches by dense LAPACK only.
"""

from __future__ import annotations

import numpy as np

from .errors import ComplementarityViolated, InvalidSpec
from .grid import GridFunction
from .obstacle import BopProblem, BopSolution

ENUMERATION_LIMIT = 12  # 3^12 patterns is already ~0.5M
ENUMERATION_TOL = 1e-9  # largest sign or feasibility violation accepted
# system rows per batch, each n doubles: 3 MB at n = ENUMERATION_LIMIT,
# where all 3^12 systems at once would take 612 MB
_BATCH_ROWS = 1 << 15


def solve_by_enumeration(problem: BopProblem, u: GridFunction) -> BopSolution:
    """Reference solution by exhaustive pattern search (n <= ENUMERATION_LIMIT).

    Patterns go in itertools.product order, code 1 pinning a node to psi and
    2 to phi. A pattern's system is A's free-free block, a principal block of
    an M-matrix and so nonsingular, bordered by identity rows and columns on
    the pinned nodes. Returns the first accepted pattern's solution; raises
    ComplementarityViolated, naming the smallest violation, when no pattern
    is accepted.
    """
    n = problem.grid.total
    if n > ENUMERATION_LIMIT:
        raise InvalidSpec(f"enumeration over 3^{n} patterns refused")
    matrix = problem.operator.matrix.toarray()
    b = problem.load(u)
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    digits = 3 ** np.arange(n - 1, -1, -1)
    batch = max(1, _BATCH_ROWS // n)

    smallest = np.inf
    for first in range(0, 3**n, batch):
        code = np.arange(first, min(first + batch, 3**n))[:, None] // digits % 3
        free = code == 0
        pinned = np.where(code == 1, psi, np.where(code == 2, phi, 0.0))
        systems = np.where(free[:, :, None] & free[:, None, :], matrix, np.eye(n))
        rhs = np.where(free, b - pinned @ matrix.T, pinned)
        y = np.linalg.solve(systems, rhs[..., None])[..., 0]
        xi = y @ matrix.T - b
        viol = np.where(free, np.maximum(psi - y, y - phi),
                        np.where(code == 1, -xi, xi)).max(axis=1, initial=0.0)
        accepted = np.flatnonzero(viol <= ENUMERATION_TOL)
        if accepted.size:
            k = accepted[0]
            return BopSolution(problem=problem, u=u, y=problem.grid.function(y[k]),
                               xi=problem.grid.function(matrix @ y[k] - b),
                               solver="enumeration", iterations=0,
                               residual_norm=float(viol[k]))
        smallest = min(smallest, float(viol.min()))
    raise ComplementarityViolated(
        f"none of the {3**n} patterns is accepted: the smallest violation "
        f"{smallest:.3e} exceeds ENUMERATION_TOL = {ENUMERATION_TOL:.3e}")
