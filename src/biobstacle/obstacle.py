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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
import logging
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .controls import ControlOperator, apply_control
from .errors import (
    GridMismatch,
    InfeasibleObstacles,
    NoConvergence,
    NotPositiveDefinite,
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

# method -> (tolerance on the natural residual, iteration cap)
SOLVER_DEFAULTS = {"psor": (1e-8, 200_000), "pdas": (1e-10, 200)}
# PSOR gives up once this many sweeps pass without a new smallest residual.
# Under Young's relaxation the residual is not monotone: the longest run
# without a new minimum in a converging solve was 58 sweeps (128^2, of 176)
# over the verify-all, experiment and cold-solve runs, 9 for the cone VI at
# CONE_TOL, and 105 on a 256^2 PSOR solve; runs roughly double with the grid
PSOR_STALL = 1_000
# PDAS seeds from the half-size grid once that grid has this many nodes per
# axis. The coarse operator is cached on the fine one
# (AssembledOperator.coarse_level) and the transfers on the grid
# (Grid.coarse_level), so a seed costs one coarse solve; on the 32^2 grids
# of verify-all it cuts the fine level from about 6.5 set iterations to about
# 2 straight off the prolonged state, and to about 1 after SEED_SWEEPS
COARSE_MIN = 16
# projected Gauss-Seidel sweeps on the prolonged coarse state before its sets
# are read. Factorizations of one cold_solve benchmark run (seed 7) by sweep
# count: 0: 68, 1: 66, 2: 59, 3: 57, 4: 57, 6: 54, 8: 54, 12: 54; six is
# where they stop falling
SEED_SWEEPS = 6
# a symmetric free block whose half-bandwidth in natural order is at most
# this is solved by banded Cholesky, a wider one by SuperLU (_solve_block).
# Per factorization and solve (median ms, half-bandwidth in brackets),
# Cholesky against SuperLU as _factor calls it. On the final free block of a
# solved Laplacian draw: 64^2 (64) 4.5 vs 6.8, 80^2 (80) 8.5 vs 8.9, 96^2
# (96) 18.7 vs 22.3, 128^2 (126) 29.8 vs 21.6. On a random 70%-free mask,
# whose scattered holes favour SuperLU: 32^2 (28) 0.23 vs 1.1, 64^2 (55)
# 2.5 vs 3.7, 80^2 (66) 5.9 vs 5.2, 128^2 (108) 22 vs 13
_BAND_LIMIT = 80


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
    """State y, multiplier xi = A y - f(u), and solver diagnostics.

    iterations counts, for PDAS, the set iterations on the finest grid,
    summed over the starts tried (a cycling start counts its steps too); the
    coarse levels that seed it are not counted. For PSOR it counts sweeps.
    residual_norm is the natural residual at return.
    """

    problem: BopProblem
    u: GridFunction
    y: GridFunction
    xi: GridFunction
    solver: str
    iterations: int
    residual_norm: float

    @cached_property
    def sets(self):
        """The contact sets at this point (multipliers.SetPartition),
        classified on first use: solve_bop never classifies, so a multiplier
        that breaks the contact rule raises ComplementarityViolated here."""
        from .multipliers import classify_sets
        return classify_sets(self)


def _residual(xi: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              scale: float) -> float:
    """The natural residual max |x - median(lo, x - scale*xi, hi)| of x, with
    xi = Ax - b its multiplier; zero iff x solves the VI. NaN when xi is not
    finite: the projection would hide an infinite load at a pinned node."""
    if not np.isfinite(xi).all():
        return np.nan
    proj = np.clip(x - scale * xi, lo, hi)
    return float(np.abs(x - proj).max())


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
    slicing, and _solve_block solves it. transpose is matrix marks a
    symmetric operator (grid.assemble stores it so without convection). x
    keeps its values off the free set. This is the one masked direct solve
    behind PDAS steps and the reduced derivative and adjoint systems.
    """
    if free.any():
        rhs = (b - matrix @ np.where(free, 0.0, x))[free]
        indptr, rows = transpose.indptr, transpose.indices
        keep = np.repeat(free, np.diff(indptr)) & free[rows]
        kept = np.concatenate(([0], np.cumsum(keep)))
        renumber = np.cumsum(free) - 1
        x[free] = _solve_block(transpose.data[keep], renumber[rows[keep]],
                               np.append(kept[indptr[:-1][free]], kept[-1]),
                               rhs, transpose is matrix)
    return x


def _solve_block(data: np.ndarray, rows: np.ndarray, indptr: np.ndarray,
                 rhs: np.ndarray, symmetric: bool) -> np.ndarray:
    """Solve the square block with CSC arrays (data, rows, indptr) against
    rhs. A symmetric block whose half-bandwidth in natural order is at most
    _BAND_LIMIT is filled straight into LAPACK's lower band storage and
    solved by banded Cholesky (dpbtrf, dpbtrs): every principal block of a
    symmetric operator here is positive definite, and one grid row bounds
    its bandwidth. Every other block, convection or wider, goes to _factor.
    Raises NotPositiveDefinite, naming the failing leading minor, where
    Cholesky breaks down.
    """
    m = rhs.size
    # rows are sorted within each column and every column holds its diagonal,
    # so the column ends give the half-bandwidth: a block bound for SuperLU
    # is never expanded column by column
    width = int((rows[indptr[1:] - 1] - np.arange(m)).max())
    if symmetric and width <= _BAND_LIMIT:
        cols = np.repeat(np.arange(m), np.diff(indptr))
        below = rows - cols
        lower = below >= 0
        band = np.zeros((m, width + 1)).T   # Fortran order, as LAPACK reads it
        band[below[lower], cols[lower]] = data[lower]
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefinite(
                f"free block of order {m} is not positive definite: its "
                f"leading minor of order {info} is not positive")
        return lapack.dpbtrs(factor, rhs, lower=1)[0]
    return _factor(sp.csc_matrix((data, rows, indptr), shape=(m, m))).solve(rhs)


def _factor(block: sp.csc_matrix) -> spla.SuperLU:
    """SuperLU factorization of a free block that banded Cholesky does not
    take (_solve_block): a convection block, or a symmetric one wider than
    _BAND_LIMIT. Every block is a principal block of an M-matrix, so its
    pattern is symmetric and it factors without pivoting. Minimum degree on
    A^T + A with diagonal pivots fills less than splu's default, COLAMD with
    partial pivoting.

    SuperLU's work arrays grow with panel width times block order, and the
    supernodes of a 5-point block are narrow. The 24 SuperLU blocks of one
    cold_solve benchmark run (seed 7, median of 5, two runs) factored in
    0.73-1.06 s at the default panel of 20 columns and in 0.52-0.70 s at
    every width from 2 to 8, with no order among those beyond run-to-run
    noise, and with the same fill at every width."""
    return spla.splu(block, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=4, options={"SymmetricMode": True})


def _require_tol(tol: float) -> None:
    """Refuse a tolerance that no residual can be compared against: NaN
    passes no test, a negative one no residual meets, and an infinite one
    any residual meets. tol = 0 is legal: PDAS then stops at a fixed point."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


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
    guess: np.ndarray | None,
) -> tuple[np.ndarray, int, float, tuple[int, int] | None]:
    """Primal-dual active set iteration from the sets that the state guess
    implies under b (empty sets if guess is None); returns at a fixed
    point, a small residual or a cycle.

    Set updates follow _active_sets with c = 1/scale, scale the grid's
    natural_scale, guarded so that a node leaves one bound for the free set
    before it may take the other; the fixed points stay the same. Unguarded,
    nodes jumped straight between the bounds, at gaps of 0.76-1.0 of the
    largest gap, and the iteration cycled. Counts set updates, so a first
    classification that is a fixed point reports 0 iterations. Returns (x,
    set iterations, residual, cycle): cycle is None, or (length, flipping
    nodes) at the first repeated set signature. Raises NoConvergence at the
    first residual that is not finite, or at the iteration cap in
    SOLVER_DEFAULTS["pdas"].
    """
    max_iter = SOLVER_DEFAULTS["pdas"][1]
    matrix = operator.matrix
    scale = natural_scale(operator.grid)
    c = 1.0 / scale
    act_lo, act_up = ((np.zeros(b.size, dtype=bool),) * 2 if guess is None
                      else _active_sets(matrix @ guess - b, guess, lo, hi, c))
    seen, visited = {}, []
    err = np.inf
    for it in range(max_iter + 1):
        x = np.zeros_like(b)
        x[act_lo] = lo[act_lo]
        x[act_up] = hi[act_up]
        _reduced_solve(matrix, operator.adjoint_matrix, b, ~(act_lo | act_up), x)
        xi = matrix @ x - b
        new_lo, new_up = _active_sets(xi, x, lo, hi, c)
        new_lo &= ~act_up
        new_up &= ~act_lo
        err = _residual(xi, x, lo, hi, scale)
        if not np.isfinite(err):
            raise NoConvergence("pdas", it, err)
        if err <= tol or ((new_lo == act_lo).all() and (new_up == act_up).all()):
            return x, it, err, None
        signature = (new_lo.tobytes(), new_up.tobytes())
        if signature in seen:
            cycle = visited[seen[signature]:]
            flips = np.any([(lo_k != new_lo) | (up_k != new_up)
                            for lo_k, up_k in cycle], axis=0)
            return x, it, err, (len(cycle), int(flips.sum()))
        seen[signature] = len(visited)
        visited.append((new_lo, new_up))
        act_lo, act_up = new_lo, new_up
    raise NoConvergence("pdas", max_iter, err)


def _coarse_state(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> np.ndarray | None:
    """A PDAS state guess from the solution on the half-size grid, or None.

    The coarse problem restricts the load and the bounds, not the control,
    so it serves every control kind; b carries the fine mass weight, so the
    coarse state comes out in fine-state units. Restriction is a convex
    combination, so the coarse bounds stay apart. The prolonged state is
    smooth but wrong node by node at the contact boundary, so it is clipped
    to [lo, hi] and smoothed by SEED_SWEEPS projected Gauss-Seidel sweeps
    (_sweep with omega = 1, Brandt & Cryer's smoother for complementarity
    problems).

    There is no guess when the coarse grid would have fewer than COARSE_MIN
    nodes on an axis, when a bound is infinite (a unilateral obstacle), or
    when the operator has no coarse level (convection past the mesh-Peclet
    bound).
    """
    grid = operator.grid
    if (min(grid.shape) // 2 < COARSE_MIN
            or not (np.isfinite(lo).all() and np.isfinite(hi).all())
            or operator.coarse_level is None):
        return None
    coarse_operator, restrict, prolong = operator.coarse_level
    x_coarse, _, _ = _pdas_solve(coarse_operator, restrict @ b, restrict @ lo,
                                 restrict @ hi, tol)
    x = np.clip(prolong @ x_coarse, lo, hi)
    colours, xi = _colours(operator, b, lo, hi), operator.matrix @ x - b
    for _ in range(SEED_SWEEPS):
        _sweep(colours, x, xi, 1.0)
    return x


def _pdas_starts(operator: AssembledOperator, b: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, tol: float, near: np.ndarray | None,
                 ) -> Iterator[tuple[str, np.ndarray | None]]:
    """(name, state guess) of each PDAS start in the order tried, None for
    the cold start's empty sets. A generator, so the coarse solve runs only
    when the near start is missing or cycled."""
    if near is not None:
        yield "near", near
    coarse = _coarse_state(operator, b, lo, hi, tol)
    if coarse is not None:
        yield "coarse", coarse
    yield "cold", None


def _pdas_solve(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    near: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """PDAS on the operator's grid from the first start that does not cycle.

    Every start is a state guess, and the iteration begins on the sets it
    implies under b (_pdas_bounds); the starts of _pdas_starts are tried in
    turn. A start whose iteration cycles hands over to the next one, so the
    path after a failed near start is exactly the path without one. A cycle
    from the cold start raises NoConvergence naming the cycle's length and
    its flipping nodes. Returns (x, set iterations, residual).
    """
    path, iterations = [], 0
    for name, guess in _pdas_starts(operator, b, lo, hi, tol, near):
        path.append(name)
        x, steps, err, cycle = _pdas_bounds(operator, b, lo, hi, tol, guess)
        iterations += steps
        if cycle is None:
            break
    log.debug("pdas grid=%s seed=%s set_iterations=%d",
              "x".join(map(str, operator.grid.shape)), ">".join(path), iterations)
    if cycle is not None:
        raise NoConvergence(
            f"pdas (set cycle of length {cycle[0]} over {cycle[1]} nodes)",
            iterations, err)
    return x, iterations, err


def _colours(operator: AssembledOperator, b: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per colour of operator._red_black: (nodes, rows, diagonal, b, lo, hi)
    restricted to its nodes, gathered once for every sweep of a solve."""
    return tuple((nodes, rows, diagonal, b[nodes], lo[nodes], hi[nodes])
                 for nodes, rows, diagonal in operator._red_black)


def _sweep(colours: tuple[tuple[np.ndarray, ...], ...], x: np.ndarray,
           xi: np.ndarray, omega: float) -> None:
    """One red-black projected SOR sweep on x in place, keeping its
    multiplier xi = A x - b, which must hold on entry, current in place:
    per colour, relax by omega toward each row's equation, then project
    onto [lo, hi]. Nodes of one colour never couple, so each colour updates
    at once.

    The first colour relaxes on -xi, its residual. The second colour's own
    residual r gives its new multiplier d*(x_new - x_old) - r, since its
    update moves only its diagonal term; one half-matvec then refreshes the
    first colour. x takes the same bits as relaxing each colour on b - rows
    @ x; the second colour's multiplier agrees with A x - b to roundoff.
    """
    (red, red_rows, red_diag, red_b, red_lo, red_hi), black_colour = colours
    black, black_rows, black_diag, black_b, black_lo, black_hi = black_colour
    x[red] = np.clip(x[red] - omega * xi[red] / red_diag, red_lo, red_hi)
    r = black_b - black_rows @ x
    old = x[black]
    new = np.clip(old + omega * r / black_diag, black_lo, black_hi)
    x[black] = new
    xi[black] = black_diag * (new - old) - r
    xi[red] = red_rows @ x - red_b


def solve_vi_bounds(
    operator: AssembledOperator,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, int, float]:
    """Projected SOR for the box-constrained VI with general (possibly
    infinite) bounds, from the projection of 0.

    The PSOR backend of solve_bop(method="psor") and of the critical-cone
    problems, whose bounds mix 0 and +-inf. Relaxation operator.relaxation
    (Young's optimal value for the stencil), iteration cap
    SOLVER_DEFAULTS["psor"], red-black sweeps (_sweep) that carry the
    multiplier the stopping test reads, so a sweep needs no matvec of its
    own beyond the two half-matvecs of its colours. Raises NoConvergence
    at the cap, at the first sweep whose residual is not finite, or once
    PSOR_STALL sweeps have passed without a new smallest residual; the
    stall's message names that residual and its sweep. Every sweep ends by
    projecting onto [lo, hi], so the returned x lies in the bounds exactly.
    A crossed box (lo > hi anywhere) raises InfeasibleObstacles naming the
    crossed nodes and the largest lo - hi; lo == hi pins a node. Returns
    (x, sweeps, residual). A tol that is not finite or is negative raises
    ValueError.
    """
    _require_tol(tol)
    crossed = lo > hi
    if crossed.any():
        raise InfeasibleObstacles(
            f"lo > hi at {int(crossed.sum())} nodes, largest lo - hi "
            f"{float((lo - hi)[crossed].max()):.3e}")
    x = np.clip(np.zeros(operator.grid.total), lo, hi)
    if not np.isfinite(x).all():
        raise InfeasibleObstacles("no finite starting point inside the bounds")
    colours, xi = _colours(operator, b, lo, hi), operator.matrix @ x - b
    scale = natural_scale(operator.grid)
    max_iter = SOLVER_DEFAULTS["psor"][1]
    omega = operator.relaxation
    err, best, best_sweep = np.inf, np.inf, 0
    for it in range(1, max_iter + 1):
        _sweep(colours, x, xi, omega)
        err = _residual(xi, x, lo, hi, scale)
        if err <= tol:
            return x, it, err
        if not np.isfinite(err):
            raise NoConvergence("psor", it, err)
        if err < best:
            best, best_sweep = err, it
        elif it - best_sweep >= PSOR_STALL:
            raise NoConvergence(
                f"psor (stalled: best residual {best:.3e} at sweep {best_sweep})",
                it, err)
    raise NoConvergence("psor", max_iter, err)


def solve_bop(
    problem: BopProblem,
    u: GridFunction,
    method: str = "pdas",
    tol: float | None = None,
    near: BopSolution | None = None,
) -> BopSolution:
    """Solve the bilateral obstacle problem at control u.

    method="psor": solve_vi_bounds, projected SOR with the operator's
    relaxation (AssembledOperator.relaxation) and default tolerance 1e-8.
    method="pdas": _pdas_solve, primal-dual active set with exact reduced
    solves and default tolerance 1e-10. Each start is a state guess, and
    PDAS begins on the active sets that the guess implies under the load
    f(u): near's state if given, else on large grids the half-size grid's
    solution, prolonged and smoothed by a few projected Gauss-Seidel sweeps
    (_coarse_state), else no guess and empty sets (cold). Tolerances are on
    the natural residual max|y - median(psi, y - h_min^2 * xi, phi)|, and
    both methods raise NoConvergence once it is not finite, as it is for a
    load with a NaN or infinite entry.

    near is a solution of the same problem at a nearby control; a near
    start needs no coarse-level solve. The state depends only on the final
    active sets, so a start that ends on the sets of the plain solve gives
    the same bytes in fewer factorizations. A near start whose set
    iteration cycles hands over to the plain path (coarse seed, then cold).
    PSOR takes no near start. A cycle from the cold start raises
    NoConvergence. A tol that is not finite or is negative raises
    ValueError.
    """
    if u.grid != problem.grid:
        raise GridMismatch("control iterate lives on a different grid")
    if method not in SOLVER_DEFAULTS:
        raise ValueError(f"method must be 'psor' or 'pdas', got {method!r}")
    tol = SOLVER_DEFAULTS[method][0] if tol is None else tol
    _require_tol(tol)
    if problem.obstacles.separation <= 2.0 * tol:
        raise InfeasibleObstacles(
            f"obstacle separation {problem.obstacles.separation:.3e} "
            f"is below twice the solve tolerance"
        )
    if near is not None and near.problem is not problem:
        raise ValueError("near must be a solution of the same problem")
    if near is not None and method != "pdas":
        raise ValueError(f"near starts only PDAS, not {method!r}")
    b = problem.load(u)
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    if method == "pdas":
        y, iters, err = _pdas_solve(problem.operator, b, psi, phi, tol,
                                    None if near is None else near.y.values)
    else:
        y, iters, err = solve_vi_bounds(problem.operator, b, psi, phi, tol)
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


def solution_residual(solution: BopSolution) -> float:
    """Natural residual of a stored solution (diagnostic)."""
    problem, y = solution.problem, solution.y.values
    return _residual(problem.operator.matrix @ y - problem.load(solution.u), y,
                     problem.obstacles.psi, problem.obstacles.phi,
                     natural_scale(problem.grid))
