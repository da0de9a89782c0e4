"""Obstacle solvers against the exhaustive oracle and against each other.

solve_by_enumeration tries every lower/free/upper pattern on tiny 1D
problems and is the ground truth here; PSOR and PDAS must reproduce it.
The larger 2D checks then play the two solvers against each other.
"""

from dataclasses import replace
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from biobstacle import (
    BopProblem,
    ControlOperator,
    Grid,
    ObstaclePair,
    OperatorSpec,
    assemble,
    solution_residual,
    solve_bop,
    solve_by_enumeration,
    solve_vi_bounds,
)
from biobstacle import obstacle, oracle, problems
from biobstacle.errors import (
    ComplementarityViolated,
    InfeasibleObstacles,
    InvalidSpec,
    NoConvergence,
    NotPositiveDefinite,
)
from biobstacle.grid import OPERATOR_KINDS, AssembledOperator, interpolation, natural_scale
from biobstacle.multipliers import EPS_ACTIVE, classify_sets, mirror_check, node_flags
from biobstacle.obstacle import (
    _BAND_LIMIT,
    COARSE_MIN,
    _pdas_bounds,
    _reduced_solve,
    _residual,
)
from biobstacle.oracle import ENUMERATION_TOL
from biobstacle.problems import (
    monotone_control_pair,
    random_control,
    random_instance,
    random_operator,
    smooth_field,
    unit_grid,
)

CONTROL_KINDS = ("identity", "smooth_monotone_superposition")


def _coercivity_constant(op: AssembledOperator) -> float:
    """Smallest eigenvalue of the symmetric part (dense; small grids only)."""
    if op.grid.total > 4096:
        raise InvalidSpec("coercivity check is a dense computation; grid too large")
    sym = 0.5 * (op.matrix + op.adjoint_matrix).toarray()
    return float(np.linalg.eigvalsh(sym)[0])


def test_coercivity_frozen_values():
    # 1D n=3: smallest eigenvalue of tridiag(-16,32,-16) is 32 - 16*sqrt(2)
    op1 = assemble(Grid((3,)), OperatorSpec("laplacian"))
    assert _coercivity_constant(op1) == pytest.approx(32.0 - 16.0 * math.sqrt(2.0))
    # 2D n=2: twice the 1D minimum 18*(1 - cos(pi/3)) = 9
    op2 = assemble(Grid((2, 2)), OperatorSpec("laplacian"))
    assert _coercivity_constant(op2) == pytest.approx(18.0)


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
    return replace(problem, obstacles=ObstaclePair(problem.grid, psi, phi))


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
    _assert_solvers_reproduce_the_oracle(problem, u)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda s: s != (1, 1)),
    operator_kind=st.sampled_from(OPERATOR_KINDS),
    control_kind=st.sampled_from(CONTROL_KINDS),
    active_fraction=st.floats(0.05, 0.45),
    pinch=st.one_of(st.none(), st.tuples(st.integers(0, 8), st.floats(0.0, 1.0))),
)
@settings(max_examples=60, deadline=None)
def test_pdas_psor_enumeration_agree_in_2d(seed, shape, operator_kind, control_kind,
                                           active_fraction, pinch):
    """The same agreement on 2D grids up to 3x3 (3^9 patterns), where the
    stencil couples nodes nx apart and convection acts along both axes."""
    grid = Grid(shape)
    problem, u = random_instance(
        grid, np.random.default_rng(seed),
        operator_kinds=(operator_kind,), control_kinds=(control_kind,),
        active_fraction=active_fraction,
    )
    if pinch is not None:
        problem = _pinch(problem, pinch[0] % grid.total, pinch[1])
    _assert_solvers_reproduce_the_oracle(problem, u)


def _assert_solvers_reproduce_the_oracle(problem, u):
    """PDAS and PSOR reproduce the oracle's state within 1e-8 and its
    lower/inactive/upper pattern node for node."""
    ref = solve_by_enumeration(problem, u)
    ref_flags = node_flags(classify_sets(ref))
    for method in ("pdas", "psor"):
        sol = solve_bop(problem, u, method=method, tol=1e-10)
        assert np.abs(sol.y.values - ref.y.values).max() <= 1e-8
        assert (node_flags(classify_sets(sol)) == ref_flags).all()


def _enumerate_by_loop(problem, u):
    """The one-pattern-at-a-time loop that the batched oracle replaced, kept
    as its reference: (first accepted pattern, its state), or None."""
    matrix = problem.operator.matrix.toarray()
    b = problem.load(u)
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    for pattern in itertools.product((0, 1, 2), repeat=problem.grid.total):
        code = np.array(pattern)
        low, up, free = code == 1, code == 2, code == 0
        y = np.where(low, psi, np.where(up, phi, 0.0))
        if free.any():
            sub = matrix[np.ix_(free, free)]
            rhs = b[free] - matrix[np.ix_(free, ~free)] @ y[~free]
            y[free] = np.linalg.solve(sub, rhs)
        xi = matrix @ y - b
        viol = max(0.0, *(psi - y)[free], *(y - phi)[free], *-xi[low], *xi[up])
        if viol <= ENUMERATION_TOL:
            return code, y
    return None


@pytest.mark.parametrize("operator_kind", OPERATOR_KINDS)
@pytest.mark.parametrize("control_kind", CONTROL_KINDS)
def test_batched_enumeration_matches_the_pattern_loop(operator_kind, control_kind):
    """On criterion 1's kind of draw the batched oracle accepts the pattern
    the loop accepts first, and the same state to 1e-12."""
    rng = np.random.default_rng([29, len(operator_kind), len(control_kind)])
    for _ in range(4):
        n = int(rng.integers(2, 9))
        problem, u = random_instance(unit_grid(n, dim=1), rng,
                                     operator_kinds=(operator_kind,),
                                     control_kinds=(control_kind,))
        code, y = _enumerate_by_loop(problem, u)
        sol = solve_by_enumeration(problem, u)
        psi, phi = problem.obstacles.psi, problem.obstacles.phi
        pinned = np.where(sol.y.values == psi, 1, np.where(sol.y.values == phi, 2, 0))
        assert (pinned == code).all()
        assert np.abs(sol.y.values - y).max() <= 1e-12


def test_random_operator_kind_is_plain_str():
    rng = np.random.default_rng(0)
    for kind in OPERATOR_KINDS:
        for _ in range(5):
            spec = random_operator(unit_grid(6, dim=2), rng, kinds=(kind,))
            assert spec.kind == kind
            assert type(spec.kind) is str


def test_random_control_builds_the_drawn_kind():
    rng = np.random.default_rng(0)
    for kind in CONTROL_KINDS:
        control = random_control(unit_grid(6, dim=2), rng, kinds=(kind,))
        assert type(control.kind) is str and control.kind == kind
    with pytest.raises(InvalidSpec):
        random_control(unit_grid(6, dim=2), rng, kinds=("affine_monotone",))


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


def test_enumeration_raises_when_no_pattern_is_accepted(monkeypatch):
    """With a tolerance below every violation (each is at least 0) no
    pattern is accepted, and the oracle raises with the pattern count and
    the smallest violation, that of the solution's own pattern, instead of
    returning a non-solution."""
    problem = _box_problem(n=4)
    u = problem.grid.constant(1.0)
    smallest = solve_by_enumeration(problem, u).residual_norm
    monkeypatch.setattr(oracle, "ENUMERATION_TOL", -1.0)
    with pytest.raises(ComplementarityViolated) as info:
        solve_by_enumeration(problem, u)
    assert str(info.value) == (
        f"none of the 81 patterns is accepted: the smallest violation "
        f"{smallest:.3e} exceeds ENUMERATION_TOL = -1.000e+00")


@pytest.mark.parametrize("method", ["pdas", "psor"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [8, 32])
def test_non_finite_control_raises(method, bad, n):
    """A NaN or infinite control entry makes the load non-finite. Neither
    solver returns a solution for it: PDAS stops at its first non-finite
    residual as PSOR does, and an infinite multiplier at a pinned node
    counts as non-finite, though the projection in the residual hides it.
    At 32^2 PDAS meets it on the coarse level."""
    problem, u = random_instance(unit_grid(n), np.random.default_rng(0))
    values = u.values.copy()
    values[5] = bad
    with pytest.raises(NoConvergence, match=f"^{method} did not converge: residual nan"):
        solve_bop(problem, u.with_values(values), method=method)


def test_psor_pdas_agree_on_2d_instances():
    rng = np.random.default_rng(7)
    grid = unit_grid(12, dim=2)
    for _ in range(5):
        problem, u = random_instance(grid, rng)
        a = solve_bop(problem, u, method="psor", tol=1e-11)
        b = solve_bop(problem, u, method="pdas", tol=1e-11)
        np.testing.assert_allclose(a.y.values, b.y.values, atol=1e-8)


def _pdas_levels(caplog) -> list[dict]:
    """The per-level PDAS records logged so far, as key -> value strings."""
    return [dict(field.split("=") for field in r.getMessage().split()[1:])
            for r in caplog.records if r.name == "biobstacle.obstacle"]


def _cycling_instance():
    """A 16^2 convection draw on which the unguarded set rule cycled: nodes
    jumped straight from one bound to the other, at 0.91 of the largest
    obstacle gap rather than at the narrowest one."""
    rng = np.random.default_rng([7, 3])
    return random_instance(unit_grid(16, dim=2), rng)


def _alternating_rule(monkeypatch, n, calls=None):
    """Make obstacle._active_sets alternate two set pairs that the guard
    lets through, lower on the first quarter of the nodes and upper on the
    last, for its first `calls` calls (every call if None) and apply the
    real rule after that. Returns the number of nodes the cycle flips."""
    quarter = np.arange(n) < n // 4
    empty = np.zeros(n, dtype=bool)
    pairs = [(quarter, empty), (empty, quarter[::-1])]
    real, count = obstacle._active_sets, itertools.count()

    def rule(*args):
        k = next(count)
        if calls is not None and k >= calls:
            return real(*args)
        return tuple(mask.copy() for mask in pairs[k % 2])

    monkeypatch.setattr(obstacle, "_active_sets", rule)
    return 2 * (n // 4)


def test_pdas_survives_set_cycling(caplog):
    """Regression for the draw on which the unguarded set rule cycled: the
    guarded rule solves it from the cold start with no hand-over, to the
    tolerance and to PSOR's state."""
    problem, u = _cycling_instance()
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        sol = solve_bop(problem, u, method="pdas")
    [level] = _pdas_levels(caplog)
    assert level["seed"] == "cold"
    assert solution_residual(sol) <= 1e-10
    ref = solve_bop(problem, u, method="psor", tol=1e-11)
    np.testing.assert_allclose(sol.y.values, ref.y.values, atol=1e-8)


def test_seeded_cycle_restarts_cold(caplog, monkeypatch):
    """A seed whose set iteration repeats a signature is dropped and the
    level restarts cold; a cycle from the cold start raises NoConvergence
    that names the cycle's length and its flipping nodes."""
    problem, u = _cycling_instance()
    n = problem.grid.total
    monkeypatch.setattr(obstacle, "_coarse_state", lambda *args: np.zeros(n))
    flipping = _alternating_rule(monkeypatch, n)
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"), \
            pytest.raises(NoConvergence) as info:
        solve_bop(problem, u, method="pdas")
    [level] = _pdas_levels(caplog)
    assert level["seed"] == "coarse>cold" and level["set_iterations"] == "4"
    assert f"set cycle of length 2 over {flipping} nodes" in str(info.value)
    assert info.value.iterations == 4


@pytest.mark.parametrize("n", [2 * COARSE_MIN, 128])
@pytest.mark.parametrize("operator_kind, control_kind", [
    ("laplacian", "identity"),
    ("laplacian_plus_reaction", "smooth_monotone_superposition"),
    ("laplacian_plus_convection", "identity"),
])
def test_seeded_pdas_matches_cold(caplog, n, operator_kind, control_kind):
    """From 2*COARSE_MIN nodes per axis PDAS starts from the half-size
    grid's solution (at 128^2 from 64^2, and so on down to COARSE_MIN):
    same state as the cold iteration, in fewer fine-level set updates."""
    grid = unit_grid(n, dim=2)
    problem, u = random_instance(grid, np.random.default_rng([n, len(control_kind)]),
                                 operator_kinds=(operator_kind,),
                                 control_kinds=(control_kind,))
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        sol = solve_bop(problem, u, method="pdas")
    levels = _pdas_levels(caplog)
    assert levels[-1]["grid"] == f"{n}x{n}" and levels[-1]["seed"] == "coarse"
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    cold, cold_iterations, _, cycled = _pdas_bounds(
        problem.operator, problem.load(u), psi, phi, 1e-10, None)
    assert not cycled
    assert np.abs(sol.y.values - cold).max() <= 1e-8
    assert solution_residual(sol) <= 1e-10
    assert sol.iterations < cold_iterations


def test_smoothed_seed_saves_fine_set_iterations(monkeypatch):
    """The projected Gauss-Seidel sweeps on the prolonged coarse state start
    the fine level closer to its final sets: on each operator kind at 64^2
    and 128^2, no more finest-level set iterations than the same solve with
    SEED_SWEEPS = 0, and fewer over all six draws. Both solve with tol 0,
    which returns only at a fixed point of the set iteration, so both states
    agree to roundoff: at 1e-10 PDAS may stop one update before the fixed
    point, on sets that depend on the start, and the 128^2 reaction draw
    then differs by 2.3e-4 of max|y|."""
    counts = []
    for n in (64, 128):
        for kind in OPERATOR_KINDS:
            problem, u = random_instance(unit_grid(n, dim=2),
                                         np.random.default_rng([n, 3, len(kind)]),
                                         operator_kinds=(kind,))
            smoothed = solve_bop(problem, u, tol=0.0)
            with monkeypatch.context() as patch:
                patch.setattr(obstacle, "SEED_SWEEPS", 0)
                raw = solve_bop(problem, u, tol=0.0)
            y_max = np.abs(raw.y.values).max()
            assert np.abs(smoothed.y.values - raw.y.values).max() <= 1e-12 * y_max
            counts.append((smoothed.iterations, raw.iterations))
    assert all(s <= r for s, r in counts), counts
    assert sum(s for s, _ in counts) < sum(r for _, r in counts), counts


def _band_instance(n):
    """An n^2 draw whose obstacles come within 1e-9 of each other along the
    middle row of nodes."""
    problem, u = random_instance(unit_grid(n, dim=2), np.random.default_rng([n, 19]))
    band = np.arange(n * n) // n == n // 2
    psi, phi = problem.obstacles.psi, problem.obstacles.phi.copy()
    phi[band] = psi[band] + 1e-9
    return replace(problem, obstacles=ObstaclePair(problem.grid, psi, phi)), u


def _peclet_instance(n, monkeypatch):
    """An n^2 convection draw at cell Peclet number 0.5 on both axes: the
    half-size grid sits at about 0.97, so the level still has a coarse seed.
    Its obstacles are cut from its own operator's free solution."""
    spec = OperatorSpec("laplacian_plus_convection", convection=(n + 1.0, -(n + 1.0)))
    monkeypatch.setattr(problems, "random_operator", lambda *args: spec)
    problem, u = random_instance(unit_grid(n, dim=2), np.random.default_rng([n, 17]))
    assert problem.operator.coarse_level is not None
    return problem, u


@pytest.mark.parametrize("build", ["band", "peclet"])
def test_seed_reaches_the_cold_state_on_hard_draws(caplog, monkeypatch, build):
    """The smoothed coarse seed on draws the plain random ones miss: obstacles
    that nearly touch on a band, and convection near the coarse grid's
    mesh-Peclet bound. The seeded solve reaches the tolerance and lands on
    the cold iteration's state."""
    n = 2 * COARSE_MIN
    problem, u = (_band_instance(n) if build == "band"
                  else _peclet_instance(n, monkeypatch))
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        sol = solve_bop(problem, u, method="pdas")
    assert [level["seed"] for level in _pdas_levels(caplog)] == ["cold", "coarse"]
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    cold, _, _, cycled = _pdas_bounds(problem.operator, problem.load(u), psi, phi,
                                      1e-10, None)
    assert not cycled
    assert solution_residual(sol) <= 1e-10
    assert np.abs(sol.y.values - cold).max() <= 1e-12 * np.abs(cold).max()


@pytest.mark.parametrize("operator_kind", OPERATOR_KINDS)
def test_near_start_matches_the_plain_solve(caplog, operator_kind):
    """A solve started from a solution at a nearby control skips the coarse
    level and ends on the plain solve's sets, so its bytes are the same."""
    n = 2 * COARSE_MIN
    grid = unit_grid(n, dim=2)
    rng = np.random.default_rng([11, len(operator_kind)])
    problem, u1 = random_instance(grid, rng, operator_kinds=(operator_kind,))
    u2 = u1.with_values(u1.values + smooth_field(grid, rng, amplitude=1e-3).values)
    near = solve_bop(problem, u1)
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        warm = solve_bop(problem, u2, near=near)
    [level] = _pdas_levels(caplog)
    assert level["grid"] == f"{n}x{n}" and level["seed"] == "near"
    plain = solve_bop(problem, u2)
    assert np.array_equal(warm.y.values, plain.y.values)
    assert np.array_equal(warm.xi.values, plain.xi.values)


def test_cycling_near_start_falls_back_to_the_plain_path(caplog, monkeypatch):
    """A near start whose set iteration cycles is dropped, and the solve
    takes the path it takes without one, bit for bit; when the cold start
    cycles too, the solve raises NoConvergence."""
    problem, u = _cycling_instance()
    far = solve_bop(problem, u.with_values(-u.values))
    # the near start and its first three updates alternate, then the real rule
    _alternating_rule(monkeypatch, problem.grid.total, calls=4)
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        warm = solve_bop(problem, u, near=far)
    [level] = _pdas_levels(caplog)
    assert level["seed"] == "near>cold"
    assert np.array_equal(warm.y.values, solve_bop(problem, u).y.values)
    caplog.clear()
    flipping = _alternating_rule(monkeypatch, problem.grid.total)
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"), \
            pytest.raises(NoConvergence) as info:
        solve_bop(problem, u, near=far)
    [level] = _pdas_levels(caplog)
    assert level["seed"] == "near>cold"
    assert f"set cycle of length 2 over {flipping} nodes" in str(info.value)


def test_near_start_refusals():
    """near must solve the same problem object, and starts PDAS only."""
    problem, u = random_instance(unit_grid(8, dim=2), np.random.default_rng(4))
    sol = solve_bop(problem, u)
    twin = BopProblem(operator=problem.operator, control=problem.control,
                      obstacles=problem.obstacles)
    with pytest.raises(ValueError):
        solve_bop(twin, u, near=sol)
    with pytest.raises(ValueError):
        solve_bop(problem, u, method="psor", near=sol)


def test_convection_past_the_peclet_bound_stops_coarsening(caplog):
    """A grid of 2*COARSE_MIN nodes per axis takes this velocity, the
    COARSE_MIN grid would lose the M-matrix property: the level solves cold
    instead of raising."""
    grid = unit_grid(2 * COARSE_MIN, dim=2)
    velocity = (0.8 * 2.0 / grid.spacing[0], 0.0)
    coarse = unit_grid(COARSE_MIN, dim=2)
    with pytest.raises(InvalidSpec):
        assemble(coarse, OperatorSpec("laplacian_plus_convection", convection=velocity))
    operator = assemble(grid, OperatorSpec("laplacian_plus_convection", convection=velocity))
    assert operator.coarse_level is None
    base, u = random_instance(grid, np.random.default_rng(5),
                              operator_kinds=("laplacian",))
    problem = BopProblem(operator=operator, control=base.control,
                         obstacles=base.obstacles)
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        sol = solve_bop(problem, u, method="pdas")
    [level] = _pdas_levels(caplog)
    assert level["grid"] == "x".join(map(str, grid.shape)) and level["seed"] == "cold"
    assert solution_residual(sol) <= 1e-10


def test_coarse_level_is_assembled_once_per_operator(monkeypatch):
    """Solves that share an operator share its cached coarse level: two
    solves on a 4*COARSE_MIN grid assemble each coarser level once. The
    transfers belong to the grid: a second operator on it assembles its own
    coarse levels but shares their restriction and prolongation, so
    interpolation runs twice per grid."""
    calls, transfers = [], []

    def counting_assemble(grid, spec):
        calls.append(grid.shape)
        return assemble(grid, spec)

    def counting_interpolation(src, dst):
        transfers.append((src.shape, dst.shape))
        return interpolation(src, dst)

    problem, u = random_instance(unit_grid(4 * COARSE_MIN, dim=2),
                                 np.random.default_rng(3))
    monkeypatch.setattr("biobstacle.grid.assemble", counting_assemble)
    monkeypatch.setattr("biobstacle.grid.interpolation", counting_interpolation)
    first = solve_bop(problem, u)
    second = solve_bop(problem, u.with_values(1.1 * u.values))
    assert calls == [(2 * COARSE_MIN,) * 2, (COARSE_MIN,) * 2]
    assert first.problem.operator.coarse_level is second.problem.operator.coarse_level
    other = assemble(problem.grid, OperatorSpec("laplacian_plus_reaction", reaction=3.0))
    solve_bop(replace(problem, operator=other), u)
    assert calls == [(2 * COARSE_MIN,) * 2, (COARSE_MIN,) * 2] * 2
    (op, restrict, prolong), (other_op, other_restrict, other_prolong) = (
        problem.operator.coarse_level, other.coarse_level)
    assert op is not other_op and restrict is other_restrict and prolong is other_prolong
    assert op.grid is other_op.grid
    assert len(transfers) == 4 and len(set(transfers)) == 4


def test_no_seed_below_coarse_min_or_for_infinite_bounds(caplog):
    """Below 2*COARSE_MIN nodes per axis, and for an obstacle with infinite
    entries (a unilateral problem), PDAS starts from empty sets."""
    problem, u = random_instance(unit_grid(2 * COARSE_MIN - 1, dim=2),
                                 np.random.default_rng(9))
    grid = unit_grid(2 * COARSE_MIN, dim=2)
    operator = assemble(grid, OperatorSpec("laplacian"))
    assert operator.coarse_level is not None
    unilateral = BopProblem(
        operator=operator, control=ControlOperator(grid, kind="identity"),
        obstacles=ObstaclePair(grid, np.zeros(grid.total), np.full(grid.total, np.inf)))
    with caplog.at_level(logging.DEBUG, logger="biobstacle.obstacle"):
        solve_bop(problem, u, method="pdas")
        solve_bop(unilateral, grid.constant(1.0 / grid.mass), method="pdas")
    assert [level["seed"] for level in _pdas_levels(caplog)] == ["cold", "cold"]


def test_solution_lipschitz_in_the_load():
    """||y1 - y2||_2 <= ||b1 - b2||_2 / c with c the coercivity constant,
    straight from testing each VI with the other solution."""
    rng = np.random.default_rng(3)
    grid = unit_grid(10, dim=2)
    problem, u1 = random_instance(grid, rng)
    u2 = grid.function(u1.values + rng.normal(size=grid.total))
    c = _coercivity_constant(problem.operator)
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
    raised = replace(problem, obstacles=ObstaclePair(grid, lifted, pair.phi))
    y_lifted = solve_bop(raised, u).y.values
    assert (y - y_lifted).max() <= 1e-10
    assert (y_lifted >= lifted - 1e-10).all()


@pytest.mark.parametrize("control_kind", CONTROL_KINDS)
def test_reflection_is_bitwise_negation(control_kind):
    """A float sum is exactly 0 only where y_mirror is -y bit for bit."""
    rng = np.random.default_rng(17)
    grid = unit_grid(9, dim=2)
    problem, u = random_instance(grid, rng, control_kinds=(control_kind,))
    sol = solve_bop(problem, u)
    assert mirror_check(sol) == (0.0, 0)


@pytest.mark.parametrize("control_kind", CONTROL_KINDS)
def test_reflection_swaps_contact_where_the_obstacles_nearly_touch(control_kind):
    """In a band narrower than 2*EPS_ACTIVE the state is within EPS_ACTIVE of
    both obstacles; the contact rule picks the strictly nearer one, and the
    mirror must still swap every mask."""
    rng = np.random.default_rng(19)
    grid = unit_grid(9, dim=2)
    problem, u = random_instance(grid, rng, control_kinds=(control_kind,))
    node = grid.total // 2
    problem = _pinch(problem, node, 0.0)
    sol = solve_bop(problem, u)
    y = sol.y.values[node]
    assert max(y - problem.obstacles.psi[node], problem.obstacles.phi[node] - y) <= EPS_ACTIVE
    assert mirror_check(sol) == (0.0, 0)


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


def test_psor_reports_nonconvergence(monkeypatch):
    rng = np.random.default_rng(23)
    problem, u = random_instance(unit_grid(10, dim=2), rng)
    monkeypatch.setitem(obstacle.SOLVER_DEFAULTS, "psor", (1e-8, 1))
    with pytest.raises(NoConvergence) as info:
        solve_bop(problem, u, method="psor", tol=1e-12)
    assert info.value.method == "psor"
    assert info.value.iterations == 1
    assert info.value.residual > 1e-12


def test_psor_raises_at_the_first_nonfinite_residual():
    """A NaN in the load stops PSOR after one sweep, not at the cap."""
    problem, u = random_instance(unit_grid(10, dim=2), np.random.default_rng(23))
    b = problem.load(u).copy()
    b[b.size // 2] = np.nan
    with pytest.raises(NoConvergence) as info:
        solve_vi_bounds(problem.operator, b, problem.obstacles.psi,
                        problem.obstacles.phi, tol=1e-8)
    assert info.value.method == "psor"
    assert info.value.iterations == 1
    assert math.isnan(info.value.residual)


def test_psor_raises_on_a_stall_within_the_window(monkeypatch):
    """Sweeps that stop making progress after the fifth raise NoConvergence
    PSOR_STALL sweeps after the smallest residual, and the message names
    that residual and its sweep."""
    problem, u = random_instance(unit_grid(10, dim=2), np.random.default_rng(23))
    real_sweep, sweeps = obstacle._sweep, itertools.count()
    real_residual, residuals = obstacle._residual, []

    def stalling_sweep(*args):
        if next(sweeps) < 5:
            real_sweep(*args)

    def recording_residual(*args):
        residuals.append(real_residual(*args))
        return residuals[-1]

    monkeypatch.setattr(obstacle, "_sweep", stalling_sweep)
    monkeypatch.setattr(obstacle, "_residual", recording_residual)
    with pytest.raises(NoConvergence) as info:
        solve_bop(problem, u, method="psor", tol=1e-12)
    best = min(residuals)
    best_sweep = residuals.index(best) + 1
    assert best_sweep <= 5
    assert info.value.iterations == best_sweep + obstacle.PSOR_STALL
    assert f"stalled: best residual {best:.3e} at sweep {best_sweep}" in str(info.value)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kind, reaction, peclet", [
    ("laplacian", 0.0, None),
    ("laplacian_plus_reaction", 2.0, None),
    ("laplacian_plus_convection", 0.0, (0.5, -0.3)),
    ("laplacian_plus_convection", 0.0, (1.0, 0.0)),
    ("laplacian_plus_convection", 0.0, (1.0, -1.0)),
], ids=["laplacian", "reaction", "convection", "peclet_1_on_x", "peclet_1_on_both"])
def test_psor_with_the_operator_relaxation_reaches_pdas(monkeypatch, n, kind,
                                                        reaction, peclet):
    """PSOR relaxed by AssembledOperator.relaxation solves to 1e-10 on every
    operator kind, convection up to the cell Peclet number 1 included, and
    lands on the PDAS state. Each draw cuts its obstacles from its own
    operator's free solution, so both contact sets are large."""
    velocity = None if peclet is None else tuple(2.0 * p * (n + 1) for p in peclet)
    spec = OperatorSpec(kind, reaction=reaction, convection=velocity)
    monkeypatch.setattr(problems, "random_operator", lambda *args: spec)
    problem, u = random_instance(unit_grid(n, dim=2), np.random.default_rng([n, 5]))
    psor = solve_bop(problem, u, method="psor", tol=1e-10)
    pdas = solve_bop(problem, u, method="pdas")
    assert psor.residual_norm <= 1e-10
    assert np.abs(psor.y.values - pdas.y.values).max() <= 1e-8


def _two_pass_sweep(operator, b, lo, hi, x, omega):
    """Reference sweep: each colour relaxes on its residual b - rows @ x,
    and the multiplier is recomputed by a full matvec afterwards."""
    for nodes, rows, diagonal in operator._red_black:
        r = b[nodes] - rows @ x
        x[nodes] = np.clip(x[nodes] + omega * r / diagonal, lo[nodes], hi[nodes])
    return operator.matrix @ x - b


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind, reaction, peclet", [
    ("laplacian", 0.0, None),
    ("laplacian_plus_reaction", 2.0, None),
    ("laplacian_plus_convection", 0.0, (0.5, -0.3)),
    ("laplacian_plus_convection", 0.0, (1.0, -1.0)),
], ids=["laplacian", "reaction", "convection", "peclet_1_on_both"])
@pytest.mark.parametrize("relaxed", [True, False], ids=["psor", "gauss_seidel"])
def test_the_sweep_carries_the_multiplier_of_a_two_pass_sweep(monkeypatch, n, kind,
                                                              reaction, peclet, relaxed):
    """Over 50 sweeps from the projection of 0, _sweep gives the two-pass
    sweep's state bit for bit, and its carried multiplier stays within
    1e-12 max|b| of A x - b."""
    velocity = None if peclet is None else tuple(2.0 * p * (n + 1) for p in peclet)
    spec = OperatorSpec(kind, reaction=reaction, convection=velocity)
    monkeypatch.setattr(problems, "random_operator", lambda *args: spec)
    problem, u = random_instance(unit_grid(n, dim=2), np.random.default_rng([n, 17]))
    operator, b = problem.operator, problem.load(u)
    lo, hi = problem.obstacles.psi, problem.obstacles.phi
    omega = operator.relaxation if relaxed else 1.0
    want = np.clip(np.zeros(b.size), lo, hi)
    x = want.copy()
    colours, xi = obstacle._colours(operator, b, lo, hi), operator.matrix @ x - b
    for _ in range(50):
        exact = _two_pass_sweep(operator, b, lo, hi, want, omega)
        obstacle._sweep(colours, x, xi, omega)
        assert np.array_equal(x, want)
        assert np.abs(xi - exact).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("kind", ["laplacian", "laplacian_plus_convection"])
def test_superlu_panel_width_keeps_the_fill_and_the_solution(kind):
    """A 128^2 free block (symmetric ones that wide go to SuperLU too)
    factored by _factor has the fill of splu at its default panel width,
    and the two solutions agree to 1e-13 relative."""
    problem, u = random_instance(unit_grid(128), np.random.default_rng(29),
                                 operator_kinds=(kind,))
    free = solve_bop(problem, u).sets.inactive
    block = problem.operator.matrix[free][:, free].tocsc()
    rhs = np.random.default_rng(3).standard_normal(block.shape[0])
    narrow = obstacle._factor(block)
    default = scipy.sparse.linalg.splu(block, permc_spec="MMD_AT_PLUS_A",
                                       diag_pivot_thresh=0.0,
                                       options={"SymmetricMode": True})
    assert narrow.L.nnz + narrow.U.nnz == default.L.nnz + default.U.nnz
    want = default.solve(rhs)
    assert np.abs(narrow.solve(rhs) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.fixture
def splu_calls(monkeypatch):
    """The number of scipy.sparse.linalg.splu calls made so far."""
    calls, real_splu = [], scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


@pytest.mark.parametrize("operator_kind, factored", [
    ("laplacian", False),
    ("laplacian_plus_reaction", False),
    ("laplacian_plus_convection", True),
])
def test_only_convection_pdas_solves_reach_superlu(splu_calls, operator_kind, factored):
    """A symmetric 32^2 PDAS solve (and its 16^2 seed) factors every free
    block by banded Cholesky; a convection solve goes to SuperLU."""
    problem, u = random_instance(unit_grid(32), np.random.default_rng(41),
                                 operator_kinds=(operator_kind,))
    assert (problem.operator.adjoint_matrix is problem.operator.matrix) != factored
    solution = solve_bop(problem, u)
    assert solution.residual_norm <= 1e-10
    assert bool(splu_calls) == factored


@pytest.mark.parametrize("nx, factored", [(_BAND_LIMIT, False), (_BAND_LIMIT + 1, True)])
def test_symmetric_blocks_wider_than_the_band_limit_reach_superlu(splu_calls, nx, factored):
    """The whole grid free on an nx by 3 Laplacian: half-bandwidth nx."""
    matrix = assemble(Grid((nx, 3)), OperatorSpec()).matrix
    b = np.random.default_rng(2).standard_normal(3 * nx)
    x = _reduced_solve(matrix, matrix, b, np.ones(3 * nx, dtype=bool), np.zeros(3 * nx))
    assert np.abs(matrix @ x - b).max() <= 1e-13 * np.abs(b).max()
    assert splu_calls == ([(3 * nx, 3 * nx)] if factored else [])


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("operator_kind", OPERATOR_KINDS)
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_both_kernel_branches_agree_with_a_dense_solve(splu_calls, n, operator_kind,
                                                       adjoint):
    """On the inactive set of a solved draw, with a start that is nonzero off
    it, the kernel's branch and SuperLU (forced by handing the kernel a copy
    of the transpose, so it cannot tell the operator is symmetric) both agree
    with a dense solve of the reduced system to 1e-12 relative."""
    rng = np.random.default_rng([n, 11])
    problem, u = random_instance(unit_grid(n), rng, operator_kinds=(operator_kind,))
    free = solve_bop(problem, u).sets.inactive
    matrix, transpose = problem.operator.matrix, problem.operator.adjoint_matrix
    if adjoint:
        matrix, transpose = transpose, matrix
    b, start = rng.standard_normal((2, problem.grid.total))
    rows = matrix[free]
    want = start.copy()
    want[free] = np.linalg.solve(rows[:, free].toarray(),
                                 b[free] - rows[:, ~free] @ start[~free])
    splu_calls.clear()
    for t in (transpose, transpose.copy()):
        got = _reduced_solve(matrix, t, b, free, start.copy())
        assert np.array_equal(got[~free], start[~free])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    symmetric = operator_kind != "laplacian_plus_convection"
    assert len(splu_calls) == (1 if symmetric else 2)


def test_an_indefinite_symmetric_block_names_its_failing_minor():
    """Cholesky breaks down at the third leading minor: the kernel raises
    and leaves x as it was, never a NaN state."""
    matrix = sp.csr_matrix(sp.diags([[2.0, 2.0, -1.0, 2.0], [0.5] * 3, [0.5] * 3],
                                    [0, -1, 1]))
    x = np.arange(4.0)
    with pytest.raises(NotPositiveDefinite, match="leading minor of order 3 "):
        _reduced_solve(matrix, matrix, np.ones(4), np.ones(4, dtype=bool), x)
    assert np.array_equal(x, np.arange(4.0))


def test_unknown_method_rejected():
    problem = _box_problem()
    with pytest.raises(ValueError):
        solve_bop(problem, problem.grid.constant(0.0), method="newton")


def test_vi_bounds_accepts_half_infinite_boxes():
    """Both solvers handle one-sided and free bounds: the critical-cone
    solves feed them to PSOR, and obstacles with infinite entries reach
    PDAS through solve_bop."""
    grid = unit_grid(6, dim=1)
    operator = assemble(grid, OperatorSpec("laplacian"))
    control = ControlOperator(grid, kind="identity")
    u = grid.constant(-1.0 / grid.mass)
    lo = np.full(grid.total, -np.inf)
    lo[::2] = 0.0
    hi = np.full(grid.total, np.inf)
    box = BopProblem(operator=operator, control=control,
                     obstacles=ObstaclePair(grid, lo, hi))
    states = []
    for method in ("psor", "pdas"):
        sol = solve_bop(box, u, method=method, tol=1e-12)
        assert sol.residual_norm <= 1e-12
        assert (sol.y.values[::2] >= -1e-14).all()
        states.append(sol.y.values)
    np.testing.assert_allclose(states[0], states[1], atol=1e-12)
    x, _, err = solve_vi_bounds(operator, box.load(u), lo, hi, tol=1e-12)
    assert err <= 1e-12 and np.array_equal(x, states[0])
    # the unconstrained VI is the linear system
    free = BopProblem(operator=operator, control=control,
                      obstacles=ObstaclePair(grid, np.full(grid.total, -np.inf), hi))
    sol = solve_bop(free, u, method="pdas")
    np.testing.assert_allclose(operator.matrix @ sol.y.values, free.load(u), atol=1e-12)


def test_natural_residual_vanishes_only_at_solution():
    problem = _box_problem(n=6)
    u = problem.grid.constant(10.0)
    sol = solve_bop(problem, u, method="pdas")
    assert solution_residual(sol) <= 1e-12
    y = sol.y.values + 1e-3
    err = _residual(problem.operator.matrix @ y - problem.load(u), y,
                    problem.obstacles.psi, problem.obstacles.phi,
                    natural_scale(problem.grid))
    assert err > 1e-5
