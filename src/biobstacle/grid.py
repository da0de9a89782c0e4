"""Uniform Dirichlet grids and finite-difference operator assembly.

Grids hold interior nodes only; the homogeneous Dirichlet boundary is
eliminated. Operators are central-difference 5-point stencils scaled by
1/h^2. They are M-matrices (positive diagonal, nonpositive off-diagonals,
weakly diagonally dominant) with coercive symmetric part because the spec
checks and the mesh-Peclet check admit no other stencil.
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

    The grid covers the unit interval or square. shape[a] is the interior
    node count along axis a; spacing along that axis is 1/(shape[a]+1). In
    2D node i sits at (ix, iy) = (i % nx, i // nx).
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) not in (1, 2) or any(n < 1 for n in shape):
            raise InvalidSpec(f"grid shape must be 1 or 2 positive axes, got {self.shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def total(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / (n + 1) for n in self.shape)

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
        cols = [(ids + 1) * h for ids, h in zip(self.axis_indices(), self.spacing)]
        return np.stack(cols, axis=1)

    def checkerboard(self) -> tuple[np.ndarray, np.ndarray]:
        """Red/black node index sets; 5-point stencils never couple same-color nodes."""
        parity = sum(self.axis_indices()) % 2
        idx = np.arange(self.total)
        return idx[parity == 0], idx[parity == 1]

    @cached_property
    def coarse_level(self) -> tuple["Grid", sp.csr_matrix, sp.csr_matrix]:
        """(half-size grid, restriction onto it, prolongation from it).

        Built on first use and kept for the grid's lifetime, so every
        operator assembled on this grid shares one pair of transfers.
        Raises InvalidSpec where an axis has a single node.
        """
        coarse = Grid(tuple(n // 2 for n in self.shape))
        return coarse, interpolation(self, coarse), interpolation(coarse, self)

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
        stencil stays an M-matrix. Reaction and velocity must be finite.
    """

    kind: str = "laplacian"
    reaction: float = 0.0
    convection: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InvalidSpec(f"unknown operator kind {self.kind!r}")
        if not (math.isfinite(self.reaction) and self.reaction >= 0):
            raise InvalidSpec(f"reaction coefficient must be finite and >= 0, got {self.reaction}")
        if self.kind == "laplacian" and self.reaction != 0.0:
            raise InvalidSpec("kind=laplacian takes no reaction term")
        if self.kind == "laplacian_plus_convection":
            if self.convection is None:
                raise InvalidSpec("convection kind needs a velocity vector")
            velocity = tuple(float(b) for b in self.convection)
            if not all(math.isfinite(b) for b in velocity):
                raise InvalidSpec(f"convection velocity must be finite, got {velocity}")
            object.__setattr__(self, "convection", velocity)
        elif self.convection is not None:
            raise InvalidSpec(f"kind={self.kind} takes no convection velocity")


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Sparse operator matrix plus its exact-transpose adjoint.

    Without convection the operator is symmetric and adjoint_matrix is the
    matrix object itself, which is how obstacle._reduced_solve knows it may
    factor a free block by Cholesky.
    """

    grid: Grid
    spec: OperatorSpec
    matrix: sp.csr_matrix
    adjoint_matrix: sp.csr_matrix

    @cached_property
    def coarse_level(self) -> tuple["AssembledOperator", sp.csr_matrix, sp.csr_matrix] | None:
        """(operator, restriction, prolongation) on the half-size grid, or
        None where that grid or its operator is refused
        (a convection operator past the mesh-Peclet bound).

        Built on first use and kept for the operator's lifetime, so solves
        sharing an operator share its coarse level, and each coarse operator
        caches its own. The transfers are the grid's (Grid.coarse_level).
        """
        try:
            coarse, restrict, prolong = self.grid.coarse_level
            operator = assemble(coarse, self.spec)
        except InvalidSpec:
            return None
        return operator, restrict, prolong

    @cached_property
    def relaxation(self) -> float:
        """Young's optimal SOR relaxation 2/(1 + sqrt(1 - rho^2)) of the
        red-black ordered stencil, rho its Jacobi radius.

        rho is read off the stencil that assemble builds: per axis with more
        than one node, the axis weight 2/h^2 times sqrt(1 - P^2)*cos(pi*h),
        P = h*|velocity|/2 the cell Peclet number, summed and divided by the
        diagonal (2/h^2 over every axis, plus the reaction). The Laplacian on
        the square grid gets 2/(1 + sin(pi*h)); P = 1 on every axis gets 1.
        """
        velocity = self.spec.convection or (0.0,) * self.grid.dim
        diagonal, coupling = self.spec.reaction, 0.0
        for n, h, b in zip(self.grid.shape, self.grid.spacing, velocity):
            weight = 2.0 / (h * h)
            diagonal += weight
            if n > 1:
                peclet = h * abs(b) / 2.0
                coupling += weight * math.sqrt(1.0 - peclet * peclet) * math.cos(math.pi * h)
        rho = coupling / diagonal
        return 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))

    @cached_property
    def _red_black(self) -> tuple[tuple[np.ndarray, sp.csr_matrix, np.ndarray], ...]:
        """(nodes, their rows of the matrix, their diagonal) per colour of
        Grid.checkerboard, red first, kept for the projected sweeps of
        obstacle._sweep; obstacle._colours adds each solve's load and bounds
        on the same nodes. The rows give a colour's residual, or refresh its
        part of the multiplier A x - b, in one half-matvec."""
        diagonal = self.matrix.diagonal()
        return tuple((nodes, self.matrix[nodes], diagonal[nodes])
                     for nodes in self.grid.checkerboard())


def assemble(grid: Grid, spec: OperatorSpec) -> AssembledOperator:
    """The matrix of spec on grid, straight from the 5-point stencil: per
    axis (1/h^2)*tridiag(-1,2,-1) + (velocity/2h)*tridiag(-1,0,1) at offsets
    -+stride (1 along x, nx along y), plus the reaction on the diagonal.

    It is an M-matrix whose same-color nodes never couple: the reaction is
    finite and >= 0, the velocity finite, and h*|velocity|/2 <= 1 is checked
    below. Raises InvalidSpec on a velocity of the wrong length or past it.
    """
    velocity = spec.convection or tuple(0.0 for _ in grid.shape)
    if len(velocity) != grid.dim:
        raise InvalidSpec(
            f"velocity has {len(velocity)} components for a {grid.dim}D grid"
        )
    total = grid.total
    main = np.zeros(total)
    diagonals, offsets = [], []
    stride = 1
    for n, h, b in zip(grid.shape, grid.spacing, velocity):
        if abs(b) * h / 2.0 > 1.0:
            raise InvalidSpec(
                f"central differences lose the M-matrix property: h*|b|/2 = "
                f"{abs(b) * h / 2.0:.3f} > 1"
            )
        inv_h2 = 1.0 / (h * h)
        main += 2.0 * inv_h2
        if n > 1:
            # entry k couples k and k + stride unless k is last along this
            # axis, where the neighbour would wrap onto the next row; sp.diags
            # stores no zeros
            inside = np.arange(total - stride) // stride % n != n - 1
            diagonals += [np.where(inside, -inv_h2 - b / (2.0 * h), 0.0),
                          np.where(inside, -inv_h2 + b / (2.0 * h), 0.0)]
            offsets += [-stride, stride]
        stride *= n
    main += spec.reaction
    matrix = sp.diags([main, *diagonals], [0, *offsets], format="csr")
    # a zero velocity makes both off-diagonals of an axis -inv_h2, so the
    # transpose would be the same bytes
    adjoint = matrix.T.tocsr() if any(velocity) else matrix
    return AssembledOperator(grid, spec, matrix, adjoint_matrix=adjoint)


def _axis_interpolation(src_n: int, dst_n: int) -> sp.csr_matrix:
    """Linear interpolation from src_n interior nodes to dst_n interior nodes
    of the unit interval, with the Dirichlet ends held at zero."""
    h = 1.0 / (src_n + 1)
    dst = np.arange(1, dst_n + 1) / (dst_n + 1)
    # t is the position in src spacings; src node i sits at t = i + 1, the
    # boundary at t = 0 and t = src_n + 1
    t = dst / h
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

    Serves both directions between a grid and a coarser one. Restricting
    to the coarser grid never reaches the boundary, so each row is a convex
    combination; prolonging uses the zero boundary values in the outer ring.
    """
    if src.dim != dst.dim:
        raise GridMismatch(f"cannot interpolate between {src} and {dst}")
    axes = [_axis_interpolation(m, n) for m, n in zip(src.shape, dst.shape)]
    if src.dim == 1:
        return axes[0]
    return sp.kron(axes[1], axes[0], format="csr")


def natural_scale(grid: Grid) -> float:
    """Scale h_min^2 turning a load-vector residual into state units."""
    return min(grid.spacing) ** 2


def mass_norm(f: GridFunction) -> float:
    """Discrete L^2 norm: sqrt(mass * sum of squares)."""
    return math.sqrt(f.grid.mass * float(f.values @ f.values))
