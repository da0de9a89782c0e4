"""Obstacle solvers against the exhaustive oracle and against each other.

solve_by_enumeration tries every lower/free/upper pattern on tiny 1D
problems and is the ground truth here; PSOR and PDAS must reproduce it.
The larger 2D checks then play the two solvers against each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobstacle import (
    BopProblem,
    ControlOperator,
    Grid,
    ObstaclePair,
    OperatorSpec,
    assemble,
    coercivity_constant,
    reflect_problem,
    solution_residual,
    solve_bop,
    solve_bop_with_obstacles,
    solve_by_enumeration,
    solve_vi_bounds,
)
from biobstacle.errors import (
    InfeasibleObstacles,
    InvalidSpec,
    NoConvergence,
    UnsupportedControlKind,
)
from biobstacle.grid import OPERATOR_KINDS, natural_scale
from biobstacle.multipliers import classify_sets, node_flags
from biobstacle.obstacle import natural_residual
from biobstacle.problems import (
    monotone_control_pair,
    random_instance,
    random_operator,
    unit_grid,
)

CONTROL_KINDS = ("identity", "smooth_monotone_superposition", "affine_monotone")


def _box_problem(n=5, lo=-0.002, hi=0.002, kind="identity"):
    grid = unit_grid(n, dim=1)
    operator = assemble(grid, OperatorSpec("laplacian"))
    control = ControlOperator(grid, kind=kind)
    psi = np.full(grid.total, lo)
    phi = np.full(grid.total, hi)
    return BopProblem(operator=operator, control=control,
                      obstacles=ObstaclePair(grid, psi, phi))


def test_unconstrained_instance_is_a_pdas_fixed_point():
    """Obstacles far from the free solution: zero set updates, exact solve."""
    problem = _box_problem(lo=-100.0, hi=100.0)
    u = problem.grid.constant(1.0)
    sol = solve_bop(problem, u, method="pdas")
    assert sol.iterations == 0
    free = np.linalg.solve(problem.operator.matrix.toarray(), problem.load(u))
    np.testing.assert_allclose(sol.y.values, free, atol=1e-14)
    np.testing.assert_allclose(sol.xi.values, 0.0, atol=1e-14)


def test_clipped_point_load_solution():
    # a point load at the center pins exactly that node to the upper obstacle
    # and the rest of the state decays linearly off the contact node
    problem = _box_problem(n=7, lo=-1e-3, hi=1e-3)
    load = np.zeros(7)
    load[3] = 50.0
    u = problem.grid.function(load)
    ref = solve_by_enumeration(problem, u)
    expected = 1e-3 * np.array([0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25])
    np.testing.assert_allclose(ref.y.values, expected, atol=1e-12)
    for method in ("psor", "pdas"):
        sol = solve_bop(problem, u, method=method, tol=1e-11)
        np.testing.assert_allclose(sol.y.values, ref.y.values, atol=1e-9)


@pytest.mark.parametrize("method", ["psor", "pdas"])
def test_solvers_match_enumeration_on_random_1d(method):
    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        problem, u = random_instance(unit_grid(n, dim=1), rng)
        ref = solve_by_enumeration(problem, u)
        sol = solve_bop(problem, u, method=method, tol=1e-11)
        np.testing.assert_allclose(sol.y.values, ref.y.values, atol=1e-8)


def _pinch(problem, node, t):
    """Lower phi at one node to within a log-uniform gap of psi, between
    1e-9 (t=0) and 1e-2 of the obstacle span (t=1). The floor sits a decade
    below EPS_ACTIVE: in a band narrower than 2*EPS_ACTIVE the state is
    within EPS_ACTIVE of both obstacles, and classify_sets must still put
    the node in contact with the nearer one only."""
    psi, phi = problem.obstacles.psi, problem.obstacles.phi.copy()
    top = max(1e-2 * float(phi.max() - psi.min()), 1e-9)
    phi[node] = psi[node] + 1e-9 * (top / 1e-9) ** t
    return BopProblem(operator=problem.operator, control=problem.control,
                      obstacles=ObstaclePair(problem.grid, psi, phi))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    operator_kind=st.sampled_from(OPERATOR_KINDS),
    control_kind=st.sampled_from(CONTROL_KINDS),
    active_fraction=st.floats(0.05, 0.45),
    pinch=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.floats(0.0, 1.0))),
)
@settings(max_examples=120, deadline=None)
def test_pdas_psor_enumeration_agree(seed, n, operator_kind, control_kind,
                                     active_fraction, pinch):
    """Every operator kind times every control kind, at contact fractions
    from sparse to nearly all nodes, with and without obstacles that nearly
    touch at one node: both solvers reproduce the oracle's state and its
    lower/inactive/upper pattern."""
    problem, u = random_instance(
        unit_grid(n, dim=1), np.random.default_rng(seed),
        operator_kinds=(operator_kind,), control_kinds=(control_kind,),
        active_fraction=active_fraction,
    )
    if pinch is not None:
        problem = _pinch(problem, pinch[0] % n, pinch[1])
    ref = solve_by_enumeration(problem, u)
    ref_flags = node_flags(classify_sets(ref))
    for method in ("pdas", "psor"):
        sol = solve_bop(problem, u, method=method, tol=1e-10)
        assert np.abs(sol.y.values - ref.y.values).max() <= 1e-8
        assert (node_flags(classify_sets(sol)) == ref_flags).all()


def test_random_operator_kind_is_plain_str():
    rng = np.random.default_rng(0)
    for kind in OPERATOR_KINDS:
        for _ in range(5):
            spec = random_operator(unit_grid(6, dim=2), rng, kinds=(kind,))
            assert spec.kind == kind
            assert type(spec.kind) is str


def test_enumeration_certifies_complementarity():
    # odd ramp load: two nodes pinned low, two pinned high, two free
    problem = _box_problem(n=6)
    u = problem.grid.function(np.linspace(-4, 4, problem.grid.total))
    sol = solve_by_enumeration(problem, u)
    assert sol.solver == "enumeration"
    y, xi = sol.y.values, sol.xi.values
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    inactive = (y > psi + 1e-12) & (y < phi - 1e-12)
    assert inactive.sum() == 2
    assert np.abs(xi[inactive]).max() < 1e-9
    assert np.isclose(y, psi).sum() == 2 and np.isclose(y, phi).sum() == 2
    assert xi[np.isclose(y, psi)].min() >= -1e-9
    assert xi[np.isclose(y, phi)].max() <= 1e-9


def test_enumeration_size_guard():
    problem = _box_problem(n=13)
    with pytest.raises(InvalidSpec):
        solve_by_enumeration(problem, problem.grid.constant(1.0))


def test_psor_pdas_agree_on_2d_instances():
    rng = np.random.default_rng(7)
    grid = unit_grid(12, dim=2)
    for _ in range(5):
        problem, u = random_instance(grid, rng)
        a = solve_bop(problem, u, method="psor", tol=1e-11)
        b = solve_bop(problem, u, method="pdas", tol=1e-11)
        np.testing.assert_allclose(a.y.values, b.y.values, atol=1e-8)


def test_pdas_survives_set_cycling():
    """Tight obstacle band plus convection makes the plain active-set
    iteration oscillate between patterns; the solver must detect the cycle
    and still deliver a converged solution (regression for the fallback)."""
    rng = np.random.default_rng([7, 3])
    problem, u = random_instance(unit_grid(16, dim=2), rng)
    assert problem.obstacles.separation < 1e-4  # the degenerate geometry
    sol = solve_bop(problem, u, method="pdas")
    assert solution_residual(sol) <= 1e-10
    ref = solve_bop(problem, u, method="psor", tol=1e-11)
    np.testing.assert_allclose(sol.y.values, ref.y.values, atol=1e-8)


def test_solution_lipschitz_in_the_load():
    """||y1 - y2||_2 <= ||b1 - b2||_2 / c with c the coercivity constant,
    straight from testing each VI with the other solution."""
    rng = np.random.default_rng(3)
    grid = unit_grid(10, dim=2)
    problem, u1 = random_instance(grid, rng)
    u2 = grid.function(u1.values + rng.normal(size=grid.total))
    c = coercivity_constant(problem.operator)
    y1 = solve_bop(problem, u1).y.values
    y2 = solve_bop(problem, u2).y.values
    lhs = np.linalg.norm(y1 - y2)
    rhs = np.linalg.norm(problem.load(u1) - problem.load(u2)) / c
    assert lhs <= rhs + 1e-12


def test_state_monotone_in_control():
    rng = np.random.default_rng(11)
    grid = unit_grid(10, dim=2)
    for _ in range(5):
        problem, _ = random_instance(grid, rng)
        u_hi, u_lo = monotone_control_pair(grid, rng)
        y_hi = solve_bop(problem, u_hi).y.values
        y_lo = solve_bop(problem, u_lo).y.values
        assert (y_lo - y_hi).max() <= 1e-10


def test_raising_lower_obstacle_raises_state():
    rng = np.random.default_rng(13)
    grid = unit_grid(10, dim=2)
    problem, u = random_instance(grid, rng)
    pair = problem.obstacles
    lifted = pair.psi + 0.25 * (pair.phi - pair.psi)
    y = solve_bop(problem, u).y.values
    y_lifted = solve_bop_with_obstacles(problem, u, psi_override=lifted).y.values
    assert (y - y_lifted).max() <= 1e-10
    assert (y_lifted >= lifted - 1e-10).all()


def test_reflection_is_bitwise_negation():
    rng = np.random.default_rng(17)
    grid = unit_grid(9, dim=2)
    problem, u = random_instance(grid, rng, control_kinds=("identity",))
    sol = solve_bop(problem, u)
    mirrored = reflect_problem(problem)
    sol_m = solve_bop(mirrored, u.with_values(-u.values))
    assert (sol_m.y.values == -sol.y.values).all()


def test_reflection_refuses_nonodd_controls():
    rng = np.random.default_rng(19)
    problem, _ = random_instance(
        unit_grid(6, dim=2), rng, control_kinds=("smooth_monotone_superposition",)
    )
    with pytest.raises(UnsupportedControlKind):
        reflect_problem(problem)


def test_obstacle_pair_validation():
    grid = unit_grid(4, dim=1)
    with pytest.raises(InfeasibleObstacles):
        ObstaclePair(grid, np.zeros(4), np.zeros(4))
    with pytest.raises(InfeasibleObstacles):
        ObstaclePair(grid, np.full(4, 0.1), np.full(4, -0.1))


def test_touching_band_rejected_against_tolerance():
    problem = _box_problem(lo=-1e-12, hi=1e-12)
    with pytest.raises(InfeasibleObstacles):
        solve_bop(problem, problem.grid.constant(1.0), method="pdas")


def test_psor_reports_nonconvergence():
    rng = np.random.default_rng(23)
    problem, u = random_instance(unit_grid(10, dim=2), rng)
    with pytest.raises(NoConvergence) as info:
        solve_bop(problem, u, method="psor", max_iter=1, tol=1e-12)
    assert info.value.method == "psor"
    assert info.value.iterations == 1
    assert info.value.residual > 1e-12


def test_unknown_method_rejected():
    problem = _box_problem()
    with pytest.raises(ValueError):
        solve_bop(problem, problem.grid.constant(0.0), method="newton")


def test_vi_bounds_accepts_half_infinite_boxes():
    """The shared backend handles one-sided and free bounds, which is what
    the critical-cone solves feed it."""
    grid = unit_grid(6, dim=1)
    operator = assemble(grid, OperatorSpec("laplacian"))
    b = np.full(grid.total, -1.0)
    lo = np.full(grid.total, -np.inf)
    lo[::2] = 0.0
    hi = np.full(grid.total, np.inf)
    for method in ("psor", "pdas"):
        x, _, err = solve_vi_bounds(operator, b, lo, hi, method=method, tol=1e-12)
        assert err <= 1e-12
        assert (x[::2] >= -1e-14).all()
    # the unconstrained VI is the linear system
    free = np.full(grid.total, -np.inf)
    x, _, _ = solve_vi_bounds(operator, b, free, hi, method="pdas")
    np.testing.assert_allclose(operator.matrix @ x, b, atol=1e-12)


def test_natural_residual_vanishes_only_at_solution():
    problem = _box_problem(n=6)
    u = problem.grid.constant(10.0)
    sol = solve_bop(problem, u, method="pdas")
    assert solution_residual(sol) <= 1e-12
    err = natural_residual(
        problem.operator.matrix, problem.load(u),
        problem.obstacles.psi, problem.obstacles.phi,
        sol.y.values + 1e-3, natural_scale(problem.grid),
    )
    assert err > 1e-5
