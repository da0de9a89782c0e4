"""Grid and operator assembly against hand-computed stencils.

The frozen rows below were worked out on paper from the 1/h^2 stencil:
1D with n=3 interior nodes has h=1/4, so the middle row is
(-16, 32, -16); 2D with n=2 has h=1/3, giving diagonal 36 and
off-diagonal -9 on every row.
"""

import math

import numpy as np
import pytest
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
from biobstacle.grid import _check_two_coloring, interpolation
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
        assemble(Grid((3, 3)), OperatorSpec("laplacian_plus_convection", convection=(1.0,)))


def test_grid_geometry():
    grid = Grid((3, 4), extent=((0.0, 1.0), (0.0, 2.0)))
    assert grid.spacing == (0.25, 0.4)
    assert grid.mass == pytest.approx(0.1)
    coords = grid.coordinates()
    assert coords.shape == (12, 2)
    # node 0 is the first interior node of both axes
    np.testing.assert_allclose(coords[0], [0.25, 0.4])
    # x runs fastest
    np.testing.assert_allclose(coords[1], [0.50, 0.4])
    np.testing.assert_allclose(coords[3], [0.25, 0.8])


def test_grid_validation():
    with pytest.raises(InvalidSpec):
        Grid((0,))
    with pytest.raises(InvalidSpec):
        Grid((2, 2, 2))
    with pytest.raises(InvalidSpec):
        Grid((3,), extent=((1.0, 0.0),))


def test_grid_function_checks_shape():
    grid = Grid((3, 3))
    with pytest.raises(GridMismatch):
        GridFunction(grid, np.zeros(8))


def test_grid_function_immutable():
    f = Grid((3,)).constant(1.0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


@given(nx=st.integers(1, 9), ny=st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_checkerboard_partitions_and_decouples(nx, ny):
    """Red/black is a partition and the 5-point stencil never couples
    same-color nodes (the property projected SOR sweeps rely on)."""
    grid = Grid((nx, ny))
    red, black = grid.checkerboard()
    both = np.concatenate([red, black])
    assert np.array_equal(np.sort(both), np.arange(grid.total))
    matrix = assemble(grid, OperatorSpec("laplacian")).matrix
    for color in (red, black):
        sub = matrix[color][:, color].toarray()
        np.testing.assert_allclose(sub - np.diag(np.diag(sub)), 0.0)


@pytest.mark.parametrize("shape", [(7,), (6, 5)])
def test_same_color_coupling_is_refused(shape):
    """The assembled operators pass the two-coloring check; one coupling
    between diagonal neighbours (same parity) on top of the 5-point
    stencil raises."""
    grid = Grid(shape)
    for spec in (OperatorSpec("laplacian"),
                 OperatorSpec("laplacian_plus_reaction", reaction=1.0),
                 OperatorSpec("laplacian_plus_convection",
                              convection=(2.0,) * len(shape))):
        _check_two_coloring(assemble(grid, spec).matrix, grid)
    matrix = assemble(grid, OperatorSpec("laplacian")).matrix.tolil()
    matrix[0, 2 if len(shape) == 1 else shape[0] + 1] = -1e-3
    with pytest.raises(InvalidSpec, match="same-color"):
        _check_two_coloring(matrix.tocsr(), grid)


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


@given(nx=st.integers(2, 40), ny=st.integers(2, 40), width=st.floats(0.5, 3.0))
@settings(max_examples=40, deadline=None)
def test_restriction_is_exact_for_bilinear_functions(nx, ny, width):
    """Fine-to-half-size interpolation: every coarse node lies strictly
    inside the fine nodes' hull, so each row is a convex combination and
    x*y (bilinear) is reproduced at the coarse nodes."""
    extent = ((0.0, width), (-1.0, 1.0))
    fine = Grid((nx, ny), extent)
    coarse = Grid((nx // 2 or 1, ny // 2 or 1), extent)
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
    with pytest.raises(GridMismatch):
        interpolation(Grid((8,)), Grid((4,), extent=((0.0, 2.0),)))
