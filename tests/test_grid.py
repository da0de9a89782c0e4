"""Grid and operator assembly against hand-computed stencils.

The frozen rows below were worked out on paper from the 1/h^2 stencil:
1D with n=3 interior nodes has h=1/4, so the middle row is
(-16, 32, -16); 2D with n=2 has h=1/3, giving diagonal 36 and
off-diagonal -9 on every row.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from biobstacle import (
    Grid,
    GridFunction,
    OperatorSpec,
    assemble,
    mass_norm,
    natural_scale,
)
from biobstacle.errors import GridMismatch, InvalidSpec
from biobstacle.grid import OPERATOR_KINDS, interpolation
from biobstacle.problems import random_instance, unit_grid


def test_laplacian_1d_frozen_row():
    op = assemble(Grid((3,)), OperatorSpec("laplacian"))
    dense = op.matrix.toarray()
    np.testing.assert_allclose(dense[1], [-16.0, 32.0, -16.0])
    np.testing.assert_allclose(dense[0], [32.0, -16.0, 0.0])


def test_laplacian_2d_frozen_entries():
    op = assemble(Grid((2, 2)), OperatorSpec("laplacian"))
    dense = op.matrix.toarray()
    assert dense[0, 0] == pytest.approx(36.0)
    assert dense[0, 1] == pytest.approx(-9.0)
    assert dense[0, 2] == pytest.approx(-9.0)
    assert dense[0, 3] == 0.0


def test_reaction_shifts_diagonal_only():
    base = assemble(Grid((4, 4)), OperatorSpec("laplacian"))
    shifted = assemble(
        Grid((4, 4)), OperatorSpec("laplacian_plus_reaction", reaction=2.5)
    )
    diff = (shifted.matrix - base.matrix).toarray()
    np.testing.assert_allclose(diff, 2.5 * np.eye(16))


def test_convection_keeps_row_sums():
    # central differences: the +-velocity/2h contributions cancel per row
    # away from the boundary, and the operator must stay an M-matrix
    grid = Grid((6, 6))
    spec = OperatorSpec("laplacian_plus_convection", convection=(3.0, -2.0))
    op = assemble(grid, spec)
    off = op.matrix - op.matrix.multiply(np.eye(grid.total))
    assert off.max() <= 0.0
    assert op.matrix.diagonal().min() > 0.0


def test_adjoint_is_exact_transpose():
    grid = Grid((5, 4))
    op = assemble(grid, OperatorSpec("laplacian_plus_convection", convection=(2.0, 1.0)))
    assert (op.adjoint_matrix - op.matrix.T).nnz == 0


def test_peclet_violation_rejected():
    # 1D n=3 has h=1/4, so |b| <= 8 is the M-matrix limit
    grid = Grid((3,))
    ok = OperatorSpec("laplacian_plus_convection", convection=(8.0,))
    assemble(grid, ok)
    bad = OperatorSpec("laplacian_plus_convection", convection=(8.1,))
    with pytest.raises(InvalidSpec):
        assemble(grid, bad)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian", reaction=1.0)
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian_plus_reaction", reaction=-1.0)
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian_plus_convection")
    with pytest.raises(InvalidSpec):
        OperatorSpec("mystery")
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian_plus_reaction", reaction=math.nan)
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian_plus_convection", convection=(math.nan, 0.0))
    with pytest.raises(InvalidSpec):
        OperatorSpec("laplacian_plus_convection", convection=(0.0, math.inf))
    with pytest.raises(InvalidSpec):
        assemble(Grid((3, 3)), OperatorSpec("laplacian_plus_convection", convection=(1.0,)))


@pytest.mark.parametrize("n", [7, 32, 63, 128])
@pytest.mark.parametrize("dim", [1, 2])
def test_relaxation_of_the_laplacian_is_youngs(n, dim):
    op = assemble(unit_grid(n, dim=dim), OperatorSpec("laplacian"))
    h = 1.0 / (n + 1)
    assert op.relaxation == pytest.approx(2.0 / (1.0 + math.sin(math.pi * h)), rel=1e-12)


def test_relaxation_is_one_at_the_peclet_limit_on_both_axes():
    n = 63
    limit = 2.0 * (n + 1)
    spec = OperatorSpec("laplacian_plus_convection", convection=(limit, -limit))
    assert assemble(unit_grid(n, dim=2), spec).relaxation == 1.0


@pytest.mark.parametrize("shape, spec", [
    ((5, 7), OperatorSpec("laplacian")),
    ((6, 1), OperatorSpec("laplacian_plus_reaction", reaction=30.0)),
    ((5, 7), OperatorSpec("laplacian_plus_convection", convection=(9.0, -12.0))),
    ((8, 4), OperatorSpec("laplacian_plus_convection", reaction=5.0, convection=(9.0, 0.0))),
])
def test_relaxation_reads_the_jacobi_radius_off_the_stencil(shape, spec):
    """Young's formula on the spectral radius of I - D^-1 A, computed densely."""
    op = assemble(Grid(shape), spec)
    dense = op.matrix.toarray()
    jacobi = np.eye(len(dense)) - dense / np.diag(dense)[:, None]
    rho = np.abs(np.linalg.eigvals(jacobi)).max()
    assert op.relaxation == pytest.approx(2.0 / (1.0 + math.sqrt(1.0 - rho * rho)), rel=1e-9)


def test_grid_geometry():
    grid = Grid((3, 4))
    assert grid.spacing == (0.25, 0.2)
    assert grid.mass == pytest.approx(0.05)
    coords = grid.coordinates()
    assert coords.shape == (12, 2)
    # node 0 is the first interior node of both axes
    np.testing.assert_allclose(coords[0], [0.25, 0.2])
    # x runs fastest
    np.testing.assert_allclose(coords[1], [0.50, 0.2])
    np.testing.assert_allclose(coords[3], [0.25, 0.4])


def test_grid_validation():
    with pytest.raises(InvalidSpec):
        Grid((0,))
    with pytest.raises(InvalidSpec):
        Grid((2, 2, 2))


def test_grid_function_checks_shape():
    grid = Grid((3, 3))
    with pytest.raises(GridMismatch):
        GridFunction(grid, np.zeros(8))


def test_grid_function_immutable():
    f = Grid((3,)).constant(1.0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


@given(nx=st.integers(1, 9), ny=st.integers(1, 9),
       kind=st.sampled_from(OPERATOR_KINDS),
       reaction=st.floats(0.0, 2.0),
       peclet=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_checkerboard_partitions_and_decouples(nx, ny, kind, reaction, peclet):
    """Red/black is a partition, and every admissible operator is an
    M-matrix (positive diagonal, nonpositive off-diagonals, weak diagonal
    dominance up to roundoff) whose 5-point stencil never couples
    same-color nodes (the property projected SOR sweeps rely on).
    peclet scales the velocity up to the mesh-Peclet bound 2/h per axis."""
    grid = Grid((nx, ny))
    red, black = grid.checkerboard()
    both = np.concatenate([red, black])
    assert np.array_equal(np.sort(both), np.arange(grid.total))
    spec = OperatorSpec(
        kind,
        reaction=0.0 if kind == "laplacian" else reaction,
        convection=(tuple(p * 2.0 / h for p, h in zip(peclet, grid.spacing))
                    if kind == "laplacian_plus_convection" else None),
    )
    matrix = assemble(grid, spec).matrix
    dense = matrix.toarray()
    diag = np.diag(dense)
    off = dense - np.diag(diag)
    assert diag.min() > 0.0
    assert off.max() <= 1e-14 * diag.max()
    slack = diag - np.abs(off).sum(axis=1)
    assert slack.min() >= -1e-10 * diag.max()
    for color in (red, black):
        np.testing.assert_array_equal(off[np.ix_(color, color)], 0.0)


def _kron_reference(grid, spec):
    """The operator as a Kronecker sum of 1D stencils with the reaction on
    top, the construction assemble replaced."""
    velocity = spec.convection or (0.0,) * grid.dim
    axes = []
    for n, h, b in zip(grid.shape, grid.spacing, velocity):
        inv_h2 = 1.0 / (h * h)
        axes.append(sp.diags([np.full(n - 1, -inv_h2 - b / (2.0 * h)),
                              np.full(n, 2.0 * inv_h2),
                              np.full(n - 1, -inv_h2 + b / (2.0 * h))],
                             [-1, 0, 1], format="csr"))
    matrix = axes[0]
    if grid.dim == 2:
        ix, iy = (sp.identity(n, format="csr") for n in grid.shape)
        matrix = sp.kron(iy, axes[0], format="csr") + sp.kron(axes[1], ix, format="csr")
    if spec.reaction:
        matrix = (matrix + spec.reaction * sp.identity(grid.total, format="csr")).tocsr()
    return matrix


@pytest.mark.parametrize("shape", [(1,), (7,), (1, 5), (5, 1), (6, 5), (32, 32)])
def test_assembly_matches_kron_reference_bytes(shape):
    """The stencil-diagonal construction reproduces the Kronecker sum to
    the byte, transpose included, for every kind and at the exact
    mesh-Peclet edge h*|b|/2 = 1 (where one neighbour's coupling is 0)."""
    grid = Grid(shape)
    edge = tuple(2.0 / h for h in grid.spacing)
    specs = [
        OperatorSpec("laplacian"),
        OperatorSpec("laplacian_plus_reaction", reaction=1.7),
        OperatorSpec("laplacian_plus_convection", convection=edge),
        OperatorSpec("laplacian_plus_convection", reaction=0.3,
                     convection=tuple(-0.6 * b for b in edge)),
    ]
    for spec in specs:
        op = assemble(grid, spec)
        reference = _kron_reference(grid, spec)
        for got, want in ((op.matrix, reference), (op.adjoint_matrix, reference.T.tocsr())):
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (spec, attr)


@given(n=st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_natural_scale_and_mass_1d(n):
    grid = Grid((n,))
    h = 1.0 / (n + 1)
    assert natural_scale(grid) == pytest.approx(h * h)
    assert grid.mass == pytest.approx(h)


def test_mass_norm_constant_function():
    # ||1||_{L^2(0,1)^2} = 1 up to the missing boundary strip
    grid = Grid((31, 31))
    assert mass_norm(grid.constant(1.0)) == pytest.approx(
        math.sqrt(grid.mass * grid.total)
    )


@given(nx=st.integers(2, 40), ny=st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_restriction_is_exact_for_bilinear_functions(nx, ny):
    """Fine-to-half-size interpolation: every coarse node lies strictly
    inside the fine nodes' hull, so each row is a convex combination and
    x*y (bilinear) is reproduced at the coarse nodes."""
    fine = Grid((nx, ny))
    coarse = Grid((nx // 2 or 1, ny // 2 or 1))
    restrict = interpolation(fine, coarse)
    assert restrict.shape == (coarse.total, fine.total)
    assert restrict.data.min() > 0.0
    np.testing.assert_allclose(np.asarray(restrict.sum(axis=1)).ravel(), 1.0, atol=1e-14)
    xy = fine.coordinates().prod(axis=1)
    np.testing.assert_allclose(restrict @ xy, coarse.coordinates().prod(axis=1),
                               atol=1e-13)


@pytest.mark.parametrize("shape", [(9,), (40,), (9, 7), (64, 64)])
def test_prolongation_of_one_is_one_off_the_outer_ring(shape):
    """Coarse-to-fine interpolation of the constant 1 is 1 between the
    outermost coarse nodes and falls toward the zero boundary outside them."""
    fine = Grid(shape)
    coarse = Grid(tuple(n // 2 for n in shape))
    values = interpolation(coarse, fine) @ np.ones(coarse.total)
    h = np.array(coarse.spacing)
    coords = fine.coordinates()
    inside = ((coords >= h - 1e-12) & (coords <= 1.0 - h + 1e-12)).all(axis=1)
    assert inside.any() and not inside.all()
    np.testing.assert_allclose(values[inside], 1.0, atol=1e-14)
    assert (values[~inside] < 1.0).all() and (values[~inside] > 0.0).all()


def test_restricted_obstacles_stay_apart():
    grid = unit_grid(20, dim=2)
    coarse = Grid((10, 10))
    restrict = interpolation(grid, coarse)
    for seed in range(5):
        problem, _ = random_instance(grid, np.random.default_rng(seed))
        psi, phi = problem.obstacles.psi, problem.obstacles.phi
        assert (restrict @ psi < restrict @ phi).all()


def test_interpolation_refuses_mismatched_grids():
    with pytest.raises(GridMismatch):
        interpolation(Grid((8, 8)), Grid((4,)))
