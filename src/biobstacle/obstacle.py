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
import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .controls import ControlOperator, apply_control
from .errors import (
    GridMismatch,
    InfeasibleObstacles,
    NoConvergence,
)
from .grid import (
    AssembledOperator,
    Grid,
    GridFunction,
    natural_scale,
    require_same_grid,
)

# one DEBUG record per PDAS level; no handler is attached, so it is silent
# unless the application configures logging
log = logging.getLogger("biobstacle.obstacle")

PSOR_RELAXATION = 1.5
# method -> (tolerance on the natural residual, iteration cap)
SOLVER_DEFAULTS = {"psor": (1e-8, 200_000), "pdas": (1e-10, 200)}
# PDAS seeds from the half-size grid once that grid has this many nodes per
# axis. The coarse operator is cached on the fine one
# (AssembledOperator.coarse_level), so a seed costs one coarse solve; on the
# 32^2 grids of verify-all it cuts the fine level from about 6 set iterations
# to about 2
COARSE_MIN = 16


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
    return _residual(matrix @ x - b, x, lo, hi, scale)


def _residual(xi: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              scale: float) -> float:
    """The natural residual from the multiplier xi = Ax - b already in hand."""
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
    transpose: sp.csr_matrix,
    b: np.ndarray,
    free: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Solve A[free,free] x_free = b_free - A[free,~free] x_~free in place.

    matrix is A and transpose is A^T, both CSR; the arrays of A^T are A's
    CSC arrays, so the free block is read off them in CSC form without
    slicing. x keeps its values off the free set. This is the one masked
    direct solve behind PDAS steps and the reduced derivative and adjoint
    systems.
    """
    if free.any():
        rhs = (b - matrix @ np.where(free, 0.0, x))[free]
        indptr, rows = transpose.indptr, transpose.indices
        keep = np.repeat(free, np.diff(indptr)) & free[rows]
        kept = np.concatenate(([0], np.cumsum(keep)))
        renumber = np.cumsum(free) - 1
        m = int(renumber[-1]) + 1
        block = sp.csc_matrix(
            (transpose.data[keep], renumber[rows[keep]],
             np.append(kept[indptr[:-1][free]], kept[-1])),
            shape=(m, m),
        )
        x[free] = spla.splu(block).solve(rhs)
    return x


def _active_sets(xi: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 c: float) -> tuple[np.ndarray, np.ndarray]:
    """PDAS's set rule: lower-active iff xi + c*(lo - x) > 0, upper-active iff
    -xi + c*(x - hi) > 0, and lower wins a tie."""
    with np.errstate(invalid="ignore"):
        act_lo = xi + c * (lo - x) > 0
        act_up = -xi + c * (x - hi) > 0
    act_up[act_lo] = False
    return act_lo, act_up


def _pdas_bounds(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, int, float, int]:
    """Primal-dual active set iteration; returns at a fixed point or small residual.

    Starts from the (lower, upper) active sets in start, or from empty sets.
    Set updates follow _active_sets with c = 1/scale, scale the grid's
    natural_scale. Counts set updates, so an instance whose first
    classification is already a fixed point reports 0 iterations. Returns
    (x, set iterations, residual, PSOR sweeps).

    The set iteration can cycle when the obstacles nearly touch and nodes
    flip between the two bounds. A repeated set signature is detected. From
    a start, the iteration gives up and returns x = None, so that the caller
    tries its next start. From empty sets the iterate is handed to projected
    Gauss-Seidel, which converges monotonically for M-matrices, with a
    tightened tolerance so the downstream multiplier classification sees the
    same noise floor as an exact reduced solve.
    """
    matrix = operator.matrix
    scale = natural_scale(operator.grid)
    n = b.size
    c = 1.0 / scale
    if start is None:
        act_lo = np.zeros(n, dtype=bool)
        act_up = np.zeros(n, dtype=bool)
    else:
        act_lo, act_up = start
    seen = set()
    err = np.inf
    for it in range(max_iter + 1):
        x = np.zeros_like(b)
        x[act_lo] = lo[act_lo]
        x[act_up] = hi[act_up]
        _reduced_solve(matrix, operator.adjoint_matrix, b, ~(act_lo | act_up), x)
        xi = matrix @ x - b
        new_lo, new_up = _active_sets(xi, x, lo, hi, c)
        err = _residual(xi, x, lo, hi, scale)
        if err <= tol or ((new_lo == act_lo).all() and (new_up == act_up).all()):
            return x, it, err, 0
        signature = (new_lo.tobytes(), new_up.tobytes())
        if signature in seen:
            if start is not None:
                return None, it, err, 0
            x, sweeps, err = _psor_bounds(
                matrix, b, lo, hi, operator.grid.checkerboard(), x,
                1.0, 0.01 * tol, SOLVER_DEFAULTS["psor"][1], scale,
            )
            return x, it, err, sweeps
        seen.add(signature)
        act_lo, act_up = new_lo, new_up
    raise NoConvergence("pdas", max_iter, err)


def _coarse_sets(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """PDAS start sets from the solution on the half-size grid, or None.

    The coarse problem restricts the load and the bounds, not the control,
    so it serves every control kind; b carries the fine mass weight, so the
    coarse state comes out in fine-state units. Restriction is a convex
    combination, so the coarse bounds stay apart. There is no seed when the
    coarse grid would have fewer than COARSE_MIN nodes on an axis, when a
    bound is infinite (the cone VI), or when the operator has no coarse
    level (convection past the mesh-Peclet bound).
    """
    grid = operator.grid
    if (min(grid.shape) // 2 < COARSE_MIN
            or not (np.isfinite(lo).all() and np.isfinite(hi).all())
            or operator.coarse_level is None):
        return None
    coarse_operator, restrict, prolong = operator.coarse_level
    x_coarse, _, _ = _pdas_solve(coarse_operator, restrict @ b, restrict @ lo,
                                 restrict @ hi, tol, max_iter)
    return _sets_of_state(operator, b, lo, hi, prolong @ x_coarse)


def _sets_of_state(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """PDAS start sets that a state guess x implies under the load b."""
    return _active_sets(operator.matrix @ x - b, x, lo, hi,
                        1.0 / natural_scale(operator.grid))


def _pdas_solve(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int,
    near: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """PDAS on the operator's grid from the first start that does not cycle.

    The starts are tried in turn: the sets of the nearby state near (if
    given), the sets of _coarse_sets (where it gives a start), then empty
    sets. A seeded iteration that cycles hands over to the next start, so
    the path after a failed near start is exactly the path without one.
    Returns (x, set iterations plus PSOR sweeps, residual).
    """
    args = (operator, b, lo, hi, tol, max_iter)
    path, x, iterations = [], None, 0
    if near is not None:
        path.append("near")
        x, iterations, err, sweeps = _pdas_bounds(
            *args, start=_sets_of_state(operator, b, lo, hi, near))
    if x is None:
        start = _coarse_sets(*args)
        if start is not None:
            path.append("coarse")
            x, seeded, err, sweeps = _pdas_bounds(*args, start=start)
            iterations += seeded
    if x is None:
        path.append("cold")
        x, cold, err, sweeps = _pdas_bounds(*args)
        iterations += cold
    log.debug("pdas grid=%s seed=%s set_iterations=%d psor_sweeps=%d",
              "x".join(map(str, operator.grid.shape)), ">".join(path),
              iterations, sweeps)
    return x, iterations + sweeps, err


def _solver_options(method: str, tol: float | None) -> tuple[float, int]:
    """The method's tolerance, default filled in, and its iteration cap."""
    if method not in SOLVER_DEFAULTS:
        raise ValueError(f"method must be 'psor' or 'pdas', got {method!r}")
    default_tol, max_iter = SOLVER_DEFAULTS[method]
    return default_tol if tol is None else tol, max_iter


def solve_vi_bounds(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    method: str = "pdas",
    tol: float | None = None,
) -> tuple[np.ndarray, int, float]:
    """Solve the box-constrained VI for general (possibly infinite) bounds.

    Shared backend for obstacle problems and for critical-cone problems,
    whose bounds mix 0 and +-inf. PSOR starts from the projection of 0;
    PDAS starts from the half-size grid's solution once that grid has
    COARSE_MIN nodes per axis and the bounds are finite, else from empty
    active sets.
    """
    tol, max_iter = _solver_options(method, tol)
    if method == "pdas":
        return _pdas_solve(operator, b, lo, hi, tol, max_iter)
    grid = operator.grid
    start = np.clip(np.zeros(grid.total), lo, hi)
    if not np.isfinite(start).all():
        raise InfeasibleObstacles("no finite starting point inside the bounds")
    return _psor_bounds(operator.matrix, b, lo, hi, grid.checkerboard(), start,
                        PSOR_RELAXATION, tol, max_iter, natural_scale(grid))


def solve_bop(
    problem: BopProblem,
    u: GridFunction,
    method: str = "pdas",
    tol: float | None = None,
    near: BopSolution | None = None,
) -> BopSolution:
    """Solve the bilateral obstacle problem at control u.

    method="psor": projected SOR, relaxation 1.5, default tolerance 1e-8.
    method="pdas": primal-dual active set with exact reduced solves,
    default tolerance 1e-10, seeded from the half-size grid on large grids
    (see solve_vi_bounds). Tolerances are on the natural residual
    max|y - median(psi, y - h_min^2 * xi, phi)|.

    near is a solution of the same problem at a nearby control. PDAS then
    starts from the active sets that near's state implies under the load
    f(u), with no coarse-level solve. The state depends only on the final
    active sets, so a start that ends on the sets of the plain solve gives
    the same bytes in fewer factorizations. A near start whose set
    iteration cycles falls back to the plain path (coarse seed, then cold).
    PSOR takes no near start.
    """
    if u.grid != problem.grid:
        raise GridMismatch("control iterate lives on a different grid")
    tol, max_iter = _solver_options(method, tol)
    if problem.obstacles.separation <= 2.0 * tol:
        raise InfeasibleObstacles(
            f"obstacle separation {problem.obstacles.separation:.3e} "
            f"is below twice the solve tolerance"
        )
    b = problem.load(u)
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    if near is None:
        y, iters, err = solve_vi_bounds(problem.operator, b, psi, phi,
                                        method=method, tol=tol)
    elif near.problem is not problem:
        raise ValueError("near must be a solution of the same problem")
    elif method != "pdas":
        raise ValueError(f"near starts only PDAS, not {method!r}")
    else:
        y, iters, err = _pdas_solve(problem.operator, b, psi, phi, tol, max_iter,
                                    near=near.y.values)
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

    Every control map is odd (f(-u) = -f(u), bit for bit), so solving the
    reflected problem at control -u gives exactly -y, with the roles of the
    two obstacles (and their active sets) exchanged.
    """
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
