"""Derivatives of the solution operator.

Ground truth comes from three independent directions: one-sided finite
difference quotients of the solver itself, the reduced linear system on the
inactive set (valid under strict complementarity), and the cone-constrained
VI solved by the same backend as the forward problem. Under strict
complementarity all three must coincide; at biactive points only the
one-sided objects survive, and the two sides must genuinely differ.
"""

import numpy as np
import pytest

from biobstacle import (
    OperatorSpec,
    assemble,
    classify_sets,
    directional_derivative,
    domain_for_side,
    gateaux_derivative_on_D,
    generalized_derivative,
    mosco_convergence_experiment,
    pair_inclusion_violations,
    solve_bop,
)
from biobstacle import derivatives
from biobstacle.derivatives import reduced_linear_solve
from biobstacle.errors import InvalidD
from biobstacle.obstacle import _reduced_solve, _solve_block
from biobstacle.problems import manufactured_instance, mode_field, unit_grid


@pytest.fixture(scope="module")
def strict_setup():
    inst = manufactured_instance(unit_grid(20, dim=2))
    sol = solve_bop(inst["problem"], inst["u"])
    return inst, sol, sol.sets


@pytest.fixture(scope="module")
def biactive_setup():
    inst = manufactured_instance(unit_grid(20, dim=2), biactive=True)
    sol = solve_bop(inst["problem"], inst["u"])
    return inst, sol, sol.sets


def _h(grid, amplitude=40.0):
    return mode_field(grid, amplitude)


def test_directional_equals_reduced_under_strict_complementarity(strict_setup):
    _, sol, part = strict_setup
    h = _h(sol.problem.grid)
    cone = directional_derivative(sol, h)
    reduced = gateaux_derivative_on_D(sol, h)
    np.testing.assert_allclose(cone.eta.values, reduced.eta.values, atol=1e-9)
    assert reduced.D_used.sum() == part.inactive.sum()


def test_fd_quotients_converge_to_derivative(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    eta = gateaux_derivative_on_D(sol, h).eta.values
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        u_t = u.with_values(u.values + t * h.values)
        y_t = solve_bop(problem, u_t).y.values
        errs.append(np.abs((y_t - sol.y.values) / t - eta).max())
    assert errs[-1] <= 1e-5
    order = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert order >= 0.9


def test_positive_homogeneity(strict_setup):
    _, sol, part = strict_setup
    h = _h(sol.problem.grid)
    one = directional_derivative(sol, h).eta.values
    three = directional_derivative(sol, h.with_values(3.0 * h.values)).eta.values
    np.testing.assert_allclose(three, 3.0 * one, atol=1e-8)


def test_linearity_under_strict_complementarity(strict_setup):
    _, sol, part = strict_setup
    grid = sol.problem.grid
    rng = np.random.default_rng(2)
    a = grid.function(rng.standard_normal(grid.total))
    b = grid.function(rng.standard_normal(grid.total))

    def reduced(h):
        return gateaux_derivative_on_D(sol, h).eta.values

    combo = grid.function(2.0 * a.values - 0.5 * b.values)
    np.testing.assert_allclose(
        reduced(combo), 2.0 * reduced(a) - 0.5 * reduced(b), atol=1e-10
    )


def test_negated_direction_flips_sign_when_strict(strict_setup):
    _, sol, part = strict_setup
    h = _h(sol.problem.grid)
    plus = directional_derivative(sol, h).eta.values
    minus = directional_derivative(sol, h.with_values(-h.values)).eta.values
    np.testing.assert_allclose(minus, -plus, atol=1e-9)


def test_sides_coincide_on_strict_instances(strict_setup):
    _, sol, part = strict_setup
    h = _h(sol.problem.grid)
    lower = generalized_derivative(sol, h, "lower").eta.values
    upper = generalized_derivative(sol, h, "upper").eta.values
    np.testing.assert_allclose(lower, upper, atol=1e-12)


def test_sides_differ_on_biactive_instances(biactive_setup):
    _, sol, part = biactive_setup
    h = _h(sol.problem.grid)
    lower = generalized_derivative(sol, h, "lower")
    upper = generalized_derivative(sol, h, "upper")
    gap = np.abs(lower.eta.values - upper.eta.values).max()
    assert gap > 1e-4
    # lower side keeps the weak upper nodes, drops the weak lower nodes
    D_lower = domain_for_side(part, "lower")
    assert (D_lower[part.upper_weak]).all()
    assert (~D_lower[part.lower_weak]).all()
    assert np.array_equal(lower.D_used, D_lower)


def test_one_sided_quotients_match_their_side(biactive_setup):
    """FD quotients along +h approach the lower-side derivative when h acts
    from below (u_n = u - e/n raises toward u), checked here directly via
    the signed quotient at small t."""
    inst, sol, part = biactive_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    t = 1e-4
    eta_lower = generalized_derivative(sol, h, "lower").eta.values
    # directional derivative along h computed by the cone VI agrees with a
    # small one-sided quotient regardless of side bookkeeping
    cone = directional_derivative(sol, h).eta.values
    y_t = solve_bop(problem, u.with_values(u.values + t * h.values)).y.values
    quotient = (y_t - sol.y.values) / t
    assert np.abs(quotient - cone).max() <= 1e-3 * np.abs(cone).max()
    # and the cone solution lives between the two one-sided reduced objects
    eta_upper = generalized_derivative(sol, h, "upper").eta.values
    lo = np.minimum(eta_lower, eta_upper) - 1e-9
    hi = np.maximum(eta_lower, eta_upper) + 1e-9
    assert ((cone >= lo) & (cone <= hi)).mean() > 0.99


def _operator(setup, kind):
    """The instance's operator, or a nonsymmetric convection one on its grid."""
    operator = setup[0]["problem"].operator
    if kind == "convection":
        operator = assemble(operator.grid, OperatorSpec(
            kind="laplacian_plus_convection", convection=(30.0, -20.0)))
        assert abs(operator.matrix - operator.adjoint_matrix).max() > 0
    return operator


@pytest.mark.parametrize("kind", ["manufactured", "convection"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_reduced_solve_zero_outside_domain(strict_setup, kind, adjoint):
    """The masked solve on D = inactive set: A[D,D] x_D = rhs_D (A^T with
    adjoint=True) and x = 0 off D, also for a nonsymmetric operator."""
    _, _, part = strict_setup
    operator = _operator(strict_setup, kind)
    matrix = operator.adjoint_matrix if adjoint else operator.matrix
    D = part.inactive
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(operator.grid.total)
    eta = reduced_linear_solve(operator, rhs, D, adjoint=adjoint)
    assert (eta[~D] == 0.0).all()
    res = (matrix @ eta - rhs)[D]
    assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def _sliced_reduced_solve(matrix, b, free, x, symmetric):
    """Reference: the free block sliced out of the CSR matrix, solved by the
    kernel's own branch (banded Cholesky for a narrow symmetric block, _factor
    otherwise)."""
    x = x.copy()
    rows = matrix[free]
    rhs = b[free] - rows[:, ~free] @ x[~free]
    block = rows[:, free].tocsc()
    x[free] = _solve_block(block.data, block.indices, block.indptr, rhs, symmetric)
    return x


@pytest.mark.parametrize("mask", ["inactive", "single", "all"])
@pytest.mark.parametrize("kind", ["manufactured", "convection"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_reduced_solve_matches_slicing_bit_for_bit(strict_setup, mask, kind, adjoint):
    """The free block read off the transpose's CSR arrays is the sliced block
    entry for entry, so _solve_block returns the same bits: for the zero start
    of the derivative systems and for a PDAS start that is nonzero off the
    free set."""
    _, _, part = strict_setup
    operator = _operator(strict_setup, kind)
    matrix, transpose = operator.matrix, operator.adjoint_matrix
    symmetric = kind == "manufactured"
    assert (transpose is matrix) == symmetric
    if adjoint:
        matrix, transpose = transpose, matrix
    n = operator.grid.total
    free = {"inactive": part.inactive,
            "single": np.arange(n) == n // 3,
            "all": np.ones(n, dtype=bool)}[mask]
    rng = np.random.default_rng(12)
    b, x = rng.standard_normal((2, n))
    assert np.array_equal(reduced_linear_solve(operator, b, free, adjoint=adjoint),
                          _sliced_reduced_solve(matrix, b, free, np.zeros(n), symmetric))
    assert np.array_equal(_reduced_solve(matrix, transpose, b, free, x.copy()),
                          _sliced_reduced_solve(matrix, b, free, x, symmetric))


def test_mosco_experiment_tail_and_sandwich(biactive_setup):
    _, sol, part = biactive_setup
    h = _h(sol.problem.grid)
    e = sol.problem.grid.constant(5.0)
    for side in ("lower", "upper"):
        out = mosco_convergence_experiment(sol, h, side=side,
                                           schedule=(4, 16, 64, 256), e=e)
        assert out["side"] == side
        assert out["errors_nonincreasing_tail"]
        assert out["final_error"] <= 1e-3
        assert all(step["sandwich_ok"] for step in out["steps"])


def test_mosco_solves_once_per_schedule_step(biactive_setup, monkeypatch):
    """The limit point is an input; only the u_n are solved, each from it."""
    _, sol, part = biactive_setup
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append((args[1], kwargs.get("near")))
        return solve_bop(*args, **kwargs)

    monkeypatch.setattr(derivatives, "solve_bop", counting_solve)
    schedule = (4, 16, 64)
    mosco_convergence_experiment(sol, _h(sol.problem.grid), side="upper",
                                 schedule=schedule, e=sol.problem.grid.constant(5.0))
    assert len(solves) == len(schedule)
    assert all((u_n.values > sol.u.values).all() for u_n, _ in solves)
    # each u_n starts from the limit point
    assert all(near is sol for _, near in solves)


def test_mosco_perturbation_must_be_positive(biactive_setup):
    _, sol, part = biactive_setup
    h = _h(sol.problem.grid)
    with pytest.raises(InvalidD):
        mosco_convergence_experiment(sol, h, side="lower", schedule=(2,),
                                     e=sol.problem.grid.constant(0.0))
    with pytest.raises(InvalidD):
        mosco_convergence_experiment(sol, h, side="sideways", schedule=(2,),
                                     e=sol.problem.grid.constant(1.0))


def test_sandwich_report_structure(biactive_setup):
    """Each Mosco step checks the pair rule on (limit, u_n) from below and
    (u_n, limit) from above; the pair in the wrong order breaks it."""
    _, sol, part = biactive_setup
    keys = {"lower_active_shrinks", "upper_active_grows",
            "lower_strict_shrinks", "upper_strict_grows"}
    same = pair_inclusion_violations(part, part)
    assert same == dict.fromkeys(keys, 0)
    e = sol.problem.grid.constant(5.0)
    for side, sign in (("lower", -1.0), ("upper", 1.0)):
        step = mosco_convergence_experiment(sol, _h(sol.problem.grid),
                                            side=side, schedule=(2,), e=e)["steps"][0]
        assert step["sandwich_ok"] and step["sandwich"] == same
        sol_n = solve_bop(sol.problem, sol.u.with_values(sol.u.values + sign * e.values / 2))
        part_n = classify_sets(sol_n)
        wrong = (part_n, part) if side == "lower" else (part, part_n)
        assert sum(pair_inclusion_violations(*wrong).values()) > 0
