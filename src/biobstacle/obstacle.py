"""Bilateral obstacle problems and their solvers.

Find y with psi <= y <= phi and
    (A y - b)_i  = 0   where psi_i < y_i < phi_i,
    (A y - b)_i >= 0   where y_i = psi_i,
    (A y - b)_i <= 0   where y_i = phi_i,
the complementarity form of the variational inequality
<A y - b, z - y> >= 0 for all feasible z. The residual xi = A y - b is the
multiplier. Two independent solvers are provided: projected SOR (psor) and a
primal-dual active set method (pdas).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .controls import ControlOperator, apply_control
from .errors import (
    GridMismatch,
    InfeasibleObstacles,
    NoConvergence,
    UnsupportedControlKind,
)
from .grid import AssembledOperator, Grid, GridFunction, natural_scale, require_same_grid

PSOR_RELAXATION = 1.5
# method -> (tolerance on the natural residual, iteration cap)
SOLVER_DEFAULTS = {"psor": (1e-8, 200_000), "pdas": (1e-10, 200)}


@dataclass(frozen=True, eq=False)
class ObstaclePair:
    """Lower/upper obstacle values with guaranteed positive separation."""

    grid: Grid
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=float)
        phi = np.array(self.phi, dtype=float)
        if psi.shape != (self.grid.total,) or phi.shape != (self.grid.total,):
            raise GridMismatch("obstacle arrays do not match the grid")
        sep = float((phi - psi).min())
        if not sep > 0.0:
            raise InfeasibleObstacles(f"phi - psi must be positive, min gap {sep:.3e}")
        psi.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)

    @property
    def separation(self) -> float:
        return float((self.phi - self.psi).min())


@dataclass(frozen=True, eq=False)
class BopProblem:
    """Operator + control map + obstacles; the solution operator acts on u."""

    operator: AssembledOperator
    control: ControlOperator
    obstacles: ObstaclePair

    def __post_init__(self):
        require_same_grid(self.operator, self.control, self.obstacles)

    @property
    def grid(self) -> Grid:
        return self.operator.grid

    def load(self, u: GridFunction) -> np.ndarray:
        return apply_control(self.control, u).values


@dataclass(frozen=True, eq=False)
class BopSolution:
    """State y, multiplier xi = A y - f(u), and solver diagnostics."""

    problem: BopProblem
    u: GridFunction
    y: GridFunction
    xi: GridFunction
    solver: str
    iterations: int
    residual_norm: float


def natural_residual(
    matrix: sp.spmatrix,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    scale: float,
) -> float:
    """max |x - median(lo, x - scale*(Ax-b), hi)|; zero iff x solves the VI."""
    xi = matrix @ x - b
    proj = np.clip(x - scale * xi, lo, hi)
    return float(np.abs(x - proj).max())


def _psor_bounds(
    matrix: sp.csr_matrix,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    colors,
    x: np.ndarray,
    relaxation: float,
    tol: float,
    max_iter: int,
    scale: float,
) -> tuple[np.ndarray, int, float]:
    """Projected SOR onto [lo, hi] from x, red-black sweep order, vectorized
    per color."""
    x = np.clip(x, lo, hi).astype(float)
    diag = matrix.diagonal()
    rows = [matrix[c] for c in colors]
    err = np.inf
    for it in range(1, max_iter + 1):
        for c, rows_c in zip(colors, rows):
            r = b[c] - rows_c @ x
            x[c] = np.clip(x[c] + relaxation * r / diag[c], lo[c], hi[c])
        err = natural_residual(matrix, b, lo, hi, x, scale)
        if err <= tol:
            return x, it, err
    raise NoConvergence("psor", max_iter, err)


def _reduced_solve(
    matrix: sp.csr_matrix,
    b: np.ndarray,
    free: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Solve A[free,free] x_free = b_free - A[free,~free] x_~free in place.

    x keeps its values off the free set. This is the one masked direct solve
    behind PDAS steps and the reduced derivative and adjoint systems.
    """
    if free.any():
        rows = matrix[free]
        rhs = b[free] - rows[:, ~free] @ x[~free]
        x[free] = spla.splu(rows[:, free].tocsc()).solve(rhs)
    return x


def _pdas_bounds(
    matrix: sp.csr_matrix,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int,
    scale: float,
    colors,
) -> tuple[np.ndarray, int, float]:
    """Primal-dual active set iteration; returns at a fixed point or small residual.

    Active-set updates, with c = 1/scale: lower-active iff xi + c*(lo - x) > 0,
    upper-active iff -xi + c*(x - hi) > 0. Counts set updates, so an instance
    whose first classification is already a fixed point reports 0 iterations.

    The set iteration can cycle when the obstacles nearly touch and nodes
    flip between the two bounds. A repeated set signature is detected and the
    iterate is handed to projected Gauss-Seidel, which converges monotonically
    for M-matrices, with a tightened tolerance so the downstream multiplier
    classification sees the same noise floor as an exact reduced solve.
    """
    n = b.size
    c = 1.0 / scale
    act_lo = np.zeros(n, dtype=bool)
    act_up = np.zeros(n, dtype=bool)
    seen = set()
    err = np.inf
    for it in range(max_iter + 1):
        x = np.zeros_like(b)
        x[act_lo] = lo[act_lo]
        x[act_up] = hi[act_up]
        _reduced_solve(matrix, b, ~(act_lo | act_up), x)
        xi = matrix @ x - b
        with np.errstate(invalid="ignore"):
            new_lo = xi + c * (lo - x) > 0
            new_up = -xi + c * (x - hi) > 0
        both = new_lo & new_up
        new_up[both] = False
        err = natural_residual(matrix, b, lo, hi, x, scale)
        if (new_lo == act_lo).all() and (new_up == act_up).all():
            return x, it, err
        if err <= tol:
            return x, it, err
        signature = (new_lo.tobytes(), new_up.tobytes())
        if signature in seen:
            x, extra, err = _psor_bounds(
                matrix, b, lo, hi, colors, x,
                1.0, 0.01 * tol, SOLVER_DEFAULTS["psor"][1], scale,
            )
            return x, it + extra, err
        seen.add(signature)
        act_lo, act_up = new_lo, new_up
    raise NoConvergence("pdas", max_iter, err)


def _solver_options(method: str, tol: float | None,
                    max_iter: int | None) -> tuple[float, int]:
    """The method's tolerance and iteration cap, defaults filled in."""
    if method not in SOLVER_DEFAULTS:
        raise ValueError(f"method must be 'psor' or 'pdas', got {method!r}")
    default_tol, default_max_iter = SOLVER_DEFAULTS[method]
    return (default_tol if tol is None else tol,
            default_max_iter if max_iter is None else max_iter)


def solve_vi_bounds(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    method: str = "pdas",
    tol: float | None = None,
    max_iter: int | None = None,
) -> tuple[np.ndarray, int, float]:
    """Solve the box-constrained VI for general (possibly infinite) bounds.

    Shared backend for obstacle problems and for critical-cone problems,
    whose bounds mix 0 and +-inf. PSOR starts from the projection of 0.
    """
    tol, max_iter = _solver_options(method, tol, max_iter)
    grid = operator.grid
    scale = natural_scale(grid)
    colors = grid.checkerboard()
    if method == "pdas":
        return _pdas_bounds(operator.matrix, b, lo, hi, tol, max_iter, scale, colors)
    start = np.clip(np.zeros(grid.total), lo, hi)
    if not np.isfinite(start).all():
        raise InfeasibleObstacles("no finite starting point inside the bounds")
    return _psor_bounds(operator.matrix, b, lo, hi, colors, start,
                        PSOR_RELAXATION, tol, max_iter, scale)


def solve_bop(
    problem: BopProblem,
    u: GridFunction,
    method: str = "pdas",
    tol: float | None = None,
    max_iter: int | None = None,
) -> BopSolution:
    """Solve the bilateral obstacle problem at control u.

    method="psor": projected SOR, relaxation 1.5, default tolerance 1e-8.
    method="pdas": primal-dual active set with exact reduced solves,
    default tolerance 1e-10. Tolerances are on the natural residual
    max|y - median(psi, y - h_min^2 * xi, phi)|.
    """
    if u.grid != problem.grid:
        raise GridMismatch("control iterate lives on a different grid")
    tol, max_iter = _solver_options(method, tol, max_iter)
    if problem.obstacles.separation <= 2.0 * tol:
        raise InfeasibleObstacles(
            f"obstacle separation {problem.obstacles.separation:.3e} "
            f"is below twice the solve tolerance"
        )
    b = problem.load(u)
    y, iters, err = solve_vi_bounds(
        problem.operator,
        b,
        problem.obstacles.psi,
        problem.obstacles.phi,
        method=method,
        tol=tol,
        max_iter=max_iter,
    )
    xi = problem.operator.matrix @ y - b
    return BopSolution(
        problem=problem,
        u=u,
        y=problem.grid.function(y),
        xi=problem.grid.function(xi),
        solver=method,
        iterations=iters,
        residual_norm=err,
    )


def solve_bop_with_obstacles(
    problem: BopProblem,
    u: GridFunction,
    psi_override: np.ndarray,
) -> BopSolution:
    """Solve with the lower obstacle replaced; the pair must stay separated."""
    swapped = BopProblem(
        operator=problem.operator,
        control=problem.control,
        obstacles=ObstaclePair(problem.grid, np.asarray(psi_override, dtype=float),
                               problem.obstacles.phi),
    )
    return solve_bop(swapped, u)


def reflect_problem(problem: BopProblem) -> BopProblem:
    """Mirror problem: obstacles (-phi, -psi), same operator.

    Solving the reflected problem at control -u gives exactly -y, with the
    roles of the two obstacles (and their active sets) exchanged. Only the
    identity control commutes with negation, so other kinds are refused.
    """
    if problem.control.kind != "identity":
        raise UnsupportedControlKind(
            f"reflection needs an odd control map; kind={problem.control.kind!r}"
        )
    return BopProblem(
        operator=problem.operator,
        control=problem.control,
        obstacles=ObstaclePair(
            problem.grid, -problem.obstacles.phi, -problem.obstacles.psi
        ),
    )


def solution_residual(solution: BopSolution) -> float:
    """Natural residual of a stored solution (diagnostic)."""
    problem, u = solution.problem, solution.u
    return natural_residual(
        problem.operator.matrix,
        problem.load(u),
        problem.obstacles.psi,
        problem.obstacles.phi,
        solution.y.values,
        natural_scale(problem.grid),
    )
