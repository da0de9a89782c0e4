"""Uniform Dirichlet grids and finite-difference operator assembly.

Grids hold interior nodes only; the homogeneous Dirichlet boundary is
eliminated. Operators are central-difference stencils scaled by 1/h^2,
assembled so that the matrix is an M-matrix (positive diagonal, nonpositive
off-diagonals, weakly diagonally dominant) with coercive symmetric part.
Duality convention: functionals ("load vectors") pair with grid functions by
the plain dot product; anything of L^2 type carries the mass weight
prod(h) on the functional side (see controls.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, InvalidSpec

OPERATOR_KINDS = ("laplacian", "laplacian_plus_reaction", "laplacian_plus_convection")


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid of interior nodes, row-major node order.

    shape[a] is the interior node count along axis a; spacing along that
    axis is side_length/(shape[a]+1). In 2D node i sits at
    (ix, iy) = (i % nx, i // nx).
    """

    shape: tuple[int, ...]
    extent: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) not in (1, 2) or any(n < 1 for n in shape):
            raise InvalidSpec(f"grid shape must be 1 or 2 positive axes, got {self.shape}")
        extent = tuple(tuple(float(v) for v in ab) for ab in self.extent)
        if not extent:
            extent = tuple((0.0, 1.0) for _ in shape)
        if len(extent) != len(shape) or any(b <= a for a, b in extent):
            raise InvalidSpec(f"bad extent {self.extent} for shape {self.shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extent", extent)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (n + 1) for (a, b), n in zip(self.extent, self.shape))

    @property
    def mass(self) -> float:
        """Mass weight prod(h), the volume represented by one node."""
        return float(np.prod(self.spacing))

    def axis_indices(self) -> tuple[np.ndarray, ...]:
        """Per-axis integer index of every node, row-major (x fastest)."""
        idx = np.arange(self.total)
        if self.dim == 1:
            return (idx,)
        nx = self.shape[0]
        return (idx % nx, idx // nx)

    def coordinates(self) -> np.ndarray:
        """(total, dim) array of node coordinates."""
        cols = []
        for ax, ids in enumerate(self.axis_indices()):
            lo, _ = self.extent[ax]
            cols.append(lo + (ids + 1) * self.spacing[ax])
        return np.stack(cols, axis=1)

    def checkerboard(self) -> tuple[np.ndarray, np.ndarray]:
        """Red/black node index sets; 5-point stencils never couple same-color nodes."""
        parity = sum(self.axis_indices()) % 2
        idx = np.arange(self.total)
        return idx[parity == 0], idx[parity == 1]

    def function(self, values) -> "GridFunction":
        return GridFunction(self, values)

    def constant(self, value: float) -> "GridFunction":
        return GridFunction(self, np.full(self.total, float(value)))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Immutable nodal values on a grid.

    Also used for load vectors (functionals); the pairing with another grid
    function is then the plain dot product of values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.total,):
            raise GridMismatch(
                f"expected {self.grid.total} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)


def require_same_grid(*objs) -> Grid:
    grids = [o.grid for o in objs]
    for g in grids[1:]:
        if g != grids[0]:
            raise GridMismatch(f"grids differ: {grids[0]} vs {g}")
    return grids[0]


@dataclass(frozen=True)
class OperatorSpec:
    """Differential operator selector.

    kind=laplacian:                 -Delta
    kind=laplacian_plus_reaction:   -Delta + reaction*id, reaction >= 0
    kind=laplacian_plus_convection: -Delta + velocity . grad (+ reaction*id),
        central differences; requires h*|velocity_a|/2 <= 1 per axis so the
        stencil stays an M-matrix.
    """

    kind: str = "laplacian"
    reaction: float = 0.0
    convection: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InvalidSpec(f"unknown operator kind {self.kind!r}")
        if self.reaction < 0:
            raise InvalidSpec(f"reaction coefficient must be >= 0, got {self.reaction}")
        if self.kind == "laplacian" and self.reaction != 0.0:
            raise InvalidSpec("kind=laplacian takes no reaction term")
        if self.kind == "laplacian_plus_convection":
            if self.convection is None:
                raise InvalidSpec("convection kind needs a velocity vector")
            object.__setattr__(self, "convection", tuple(float(b) for b in self.convection))
        elif self.convection is not None:
            raise InvalidSpec(f"kind={self.kind} takes no convection velocity")


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Sparse operator matrix plus its exact-transpose adjoint."""

    grid: Grid
    spec: OperatorSpec
    matrix: sp.csr_matrix
    adjoint_matrix: sp.csr_matrix

    @cached_property
    def coarse_level(self) -> tuple["AssembledOperator", sp.csr_matrix, sp.csr_matrix] | None:
        """(operator, restriction, prolongation) on the half-size grid of the
        same extent, or None where that grid or its operator is refused
        (a convection operator past the mesh-Peclet bound).

        Built on first use and kept for the operator's lifetime, so solves
        sharing an operator share its coarse level, and each coarse operator
        caches its own.
        """
        try:
            coarse = Grid(tuple(n // 2 for n in self.grid.shape), self.grid.extent)
            operator = assemble(coarse, self.spec)
        except InvalidSpec:
            return None
        return operator, interpolation(self.grid, coarse), interpolation(coarse, self.grid)


def _axis_stencil(n: int, h: float, velocity: float) -> sp.csr_matrix:
    """1D part: (1/h^2)*tridiag(-1,2,-1) + (velocity/2h)*tridiag(-1,0,1)."""
    inv_h2 = 1.0 / (h * h)
    if abs(velocity) * h / 2.0 > 1.0:
        raise InvalidSpec(
            f"central differences lose the M-matrix property: h*|b|/2 = "
            f"{abs(velocity) * h / 2.0:.3f} > 1"
        )
    main = np.full(n, 2.0 * inv_h2)
    upper = np.full(n - 1, -inv_h2 + velocity / (2.0 * h))
    lower = np.full(n - 1, -inv_h2 - velocity / (2.0 * h))
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")


def assemble(grid: Grid, spec: OperatorSpec) -> AssembledOperator:
    """Assemble the finite-difference matrix for spec on grid.

    Raises InvalidSpec if the result would not be an M-matrix.
    """
    velocity = spec.convection or tuple(0.0 for _ in grid.shape)
    if len(velocity) != grid.dim:
        raise InvalidSpec(
            f"velocity has {len(velocity)} components for a {grid.dim}D grid"
        )
    axes = [
        _axis_stencil(n, h, b)
        for n, h, b in zip(grid.shape, grid.spacing, velocity)
    ]
    if grid.dim == 1:
        matrix = axes[0]
    else:
        nx, ny = grid.shape
        ix, iy = sp.identity(nx, format="csr"), sp.identity(ny, format="csr")
        matrix = sp.kron(iy, axes[0], format="csr") + sp.kron(axes[1], ix, format="csr")
    if spec.reaction:
        matrix = (matrix + spec.reaction * sp.identity(grid.total, format="csr")).tocsr()
    _check_m_matrix(matrix)
    _check_two_coloring(matrix, grid)
    return AssembledOperator(
        grid=grid,
        spec=spec,
        matrix=matrix.tocsr(),
        adjoint_matrix=matrix.T.tocsr(),
    )


def _check_m_matrix(matrix: sp.spmatrix) -> None:
    coo = matrix.tocoo()
    off = coo.data[coo.row != coo.col]
    diag = matrix.diagonal()
    if diag.min() <= 0:
        raise InvalidSpec("assembled matrix has a nonpositive diagonal entry")
    if off.size and off.max() > 1e-14 * diag.max():
        raise InvalidSpec("assembled matrix has a positive off-diagonal entry")
    # weak diagonal dominance, up to roundoff
    row_sums = np.asarray(abs(matrix).sum(axis=1)).ravel()
    slack = 2.0 * diag - row_sums
    if slack.min() < -1e-10 * diag.max():
        raise InvalidSpec("assembled matrix is not weakly diagonally dominant")


def _check_two_coloring(matrix: sp.spmatrix, grid: Grid) -> None:
    # projected SOR sweeps a color at a time; same-color nodes must not couple
    coo = matrix.tocoo()
    parity = sum(grid.axis_indices()) % 2
    coupled = (coo.row != coo.col) & (parity[coo.row] == parity[coo.col]) & (coo.data != 0)
    if coupled.any():
        raise InvalidSpec("stencil couples same-color nodes; not a 5-point stencil")


def _axis_interpolation(src_n: int, dst_n: int, extent: tuple[float, float]) -> sp.csr_matrix:
    """Linear interpolation from src_n interior nodes to dst_n interior nodes
    of one axis, with the Dirichlet ends held at zero."""
    a, b = extent
    h = (b - a) / (src_n + 1)
    dst = a + np.arange(1, dst_n + 1) * (b - a) / (dst_n + 1)
    # t is the position in src spacings; src node i sits at t = i + 1, the
    # boundary at t = 0 and t = src_n + 1
    t = (dst - a) / h
    left = np.clip(np.floor(t).astype(int), 0, src_n)
    frac = t - left
    rows = np.concatenate([np.arange(dst_n)] * 2)
    cols = np.concatenate([left - 1, left])
    vals = np.concatenate([1.0 - frac, frac])
    keep = (cols >= 0) & (cols < src_n) & (vals != 0.0)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(dst_n, src_n))


def interpolation(src: Grid, dst: Grid) -> sp.csr_matrix:
    """Linear (1D) or bilinear (2D) interpolation by node coordinates from
    src to dst, zero on the Dirichlet boundary: (dst.total, src.total).

    Serves both directions between a grid and a coarser one on the same
    extent. Restricting to the coarser grid never reaches the boundary, so
    each row is a convex combination; prolonging uses the zero boundary
    values in the outer ring.
    """
    if src.dim != dst.dim or src.extent != dst.extent:
        raise GridMismatch(f"cannot interpolate between {src} and {dst}")
    axes = [_axis_interpolation(m, n, ext)
            for m, n, ext in zip(src.shape, dst.shape, src.extent)]
    if src.dim == 1:
        return axes[0]
    return sp.kron(axes[1], axes[0], format="csr")


def natural_scale(grid: Grid) -> float:
    """Scale h_min^2 turning a load-vector residual into state units."""
    return min(grid.spacing) ** 2


def mass_norm(f: GridFunction) -> float:
    """Discrete L^2 norm: sqrt(mass * sum of squares)."""
    return math.sqrt(f.grid.mass * float(f.values @ f.values))
