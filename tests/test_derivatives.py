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
    solve_bop,
    verify_set_sandwich,
)
from biobstacle.derivatives import reduced_linear_solve
from biobstacle.errors import InvalidD
from biobstacle.problems import biactive_instance, mode_field, strict_instance, unit_grid


@pytest.fixture(scope="module")
def strict_setup():
    inst = strict_instance(unit_grid(20, dim=2))
    sol = solve_bop(inst["problem"], inst["u"])
    part = classify_sets(sol)
    return inst, sol, part


@pytest.fixture(scope="module")
def biactive_setup():
    inst = biactive_instance(unit_grid(20, dim=2))
    sol = solve_bop(inst["problem"], inst["u"])
    part = classify_sets(sol)
    return inst, sol, part


def _h(grid, amplitude=40.0):
    return mode_field(grid, amplitude)


def test_directional_equals_reduced_under_strict_complementarity(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    cone = directional_derivative(problem, u, h, solution=sol, partition=part,
                                  tol=1e-12)
    reduced = gateaux_derivative_on_D(problem, u, h, solution=sol, partition=part)
    np.testing.assert_allclose(cone.eta.values, reduced.eta.values, atol=1e-9)
    assert reduced.diagnostics["dim_D"] == int(part.inactive.sum())


def test_fd_quotients_converge_to_derivative(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    eta = gateaux_derivative_on_D(problem, u, h, solution=sol, partition=part).eta.values
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        u_t = u.with_values(u.values + t * h.values)
        y_t = solve_bop(problem, u_t).y.values
        errs.append(np.abs((y_t - sol.y.values) / t - eta).max())
    assert errs[-1] <= 1e-5
    order = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert order >= 0.9


def test_positive_homogeneity(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    one = directional_derivative(problem, u, h, solution=sol, partition=part).eta.values
    h3 = h.with_values(3.0 * h.values)
    three = directional_derivative(problem, u, h3, solution=sol, partition=part).eta.values
    np.testing.assert_allclose(three, 3.0 * one, atol=1e-8)


def test_linearity_under_strict_complementarity(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    grid = problem.grid
    rng = np.random.default_rng(2)
    a = grid.function(rng.standard_normal(grid.total))
    b = grid.function(rng.standard_normal(grid.total))

    def reduced(h):
        return gateaux_derivative_on_D(problem, u, h, solution=sol,
                                       partition=part).eta.values

    combo = grid.function(2.0 * a.values - 0.5 * b.values)
    np.testing.assert_allclose(
        reduced(combo), 2.0 * reduced(a) - 0.5 * reduced(b), atol=1e-10
    )


def test_negated_direction_flips_sign_when_strict(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    plus = directional_derivative(problem, u, h, solution=sol, partition=part,
                                  tol=1e-12).eta.values
    minus = directional_derivative(problem, u, h.with_values(-h.values),
                                   solution=sol, partition=part, tol=1e-12).eta.values
    np.testing.assert_allclose(minus, -plus, atol=1e-9)


def test_domain_override_must_stay_inside_inactive_closure(biactive_setup):
    inst, sol, part = biactive_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    # the default gateaux domain is the inactive set
    default = gateaux_derivative_on_D(problem, u, h, solution=sol, partition=part)
    explicit = gateaux_derivative_on_D(problem, u, h, D_override=part.inactive,
                                       solution=sol, partition=part)
    np.testing.assert_array_equal(default.eta.values, explicit.eta.values)
    # a domain that includes strictly active nodes is refused
    bad = part.inactive | part.lower_strict
    with pytest.raises(InvalidD):
        gateaux_derivative_on_D(problem, u, h, D_override=bad,
                                solution=sol, partition=part)


def test_sides_coincide_on_strict_instances(strict_setup):
    inst, sol, part = strict_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    lower = generalized_derivative(problem, u, h, side="lower",
                                   solution=sol, partition=part).eta.values
    upper = generalized_derivative(problem, u, h, side="upper",
                                   solution=sol, partition=part).eta.values
    np.testing.assert_allclose(lower, upper, atol=1e-12)


def test_sides_differ_on_biactive_instances(biactive_setup):
    inst, sol, part = biactive_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    lower = generalized_derivative(problem, u, h, side="lower",
                                   solution=sol, partition=part)
    upper = generalized_derivative(problem, u, h, side="upper",
                                   solution=sol, partition=part)
    gap = np.abs(lower.eta.values - upper.eta.values).max()
    assert gap > 1e-4
    assert lower.side == "lower" and upper.side == "upper"
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
    eta_lower = generalized_derivative(problem, u, h, side="lower",
                                       solution=sol, partition=part).eta.values
    # directional derivative along h computed by the cone VI agrees with a
    # small one-sided quotient regardless of side bookkeeping
    cone = directional_derivative(problem, u, h, solution=sol, partition=part,
                                  tol=1e-12).eta.values
    y_t = solve_bop(problem, u.with_values(u.values + t * h.values)).y.values
    quotient = (y_t - sol.y.values) / t
    assert np.abs(quotient - cone).max() <= 1e-3 * np.abs(cone).max()
    # and the cone solution lives between the two one-sided reduced objects
    eta_upper = generalized_derivative(problem, u, h, side="upper",
                                       solution=sol, partition=part).eta.values
    lo = np.minimum(eta_lower, eta_upper) - 1e-9
    hi = np.maximum(eta_lower, eta_upper) + 1e-9
    assert ((cone >= lo) & (cone <= hi)).mean() > 0.99


@pytest.mark.parametrize("kind", ["manufactured", "convection"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_reduced_solve_zero_outside_domain(strict_setup, kind, adjoint):
    """The masked solve on D = inactive set: A[D,D] x_D = rhs_D (A^T with
    adjoint=True) and x = 0 off D, also for a nonsymmetric operator."""
    inst, sol, part = strict_setup
    operator = inst["problem"].operator
    if kind == "convection":
        operator = assemble(operator.grid, OperatorSpec(
            kind="laplacian_plus_convection", convection=(30.0, -20.0)))
        assert abs(operator.matrix - operator.adjoint_matrix).max() > 0
    matrix = operator.adjoint_matrix if adjoint else operator.matrix
    D = part.inactive
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(operator.grid.total)
    eta = reduced_linear_solve(operator, rhs, D, adjoint=adjoint)
    assert (eta[~D] == 0.0).all()
    res = (matrix @ eta - rhs)[D]
    assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


def test_mosco_experiment_tail_and_sandwich(biactive_setup):
    inst, _, _ = biactive_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    e = problem.grid.constant(5.0)
    for side in ("lower", "upper"):
        out = mosco_convergence_experiment(problem, u, h, side=side,
                                           schedule=(4, 16, 64, 256), e=e)
        assert out["side"] == side
        assert out["errors_nonincreasing_tail"]
        assert out["final_error"] <= 1e-3
        assert all(step["sandwich_ok"] for step in out["steps"])


def test_mosco_perturbation_must_be_positive(biactive_setup):
    inst, _, _ = biactive_setup
    problem, u = inst["problem"], inst["u"]
    h = _h(problem.grid)
    with pytest.raises(InvalidD):
        mosco_convergence_experiment(problem, u, h,
                                     e=problem.grid.constant(0.0))
    with pytest.raises(InvalidD):
        mosco_convergence_experiment(problem, u, h, side="sideways")


def test_sandwich_report_structure(biactive_setup):
    _, _, part = biactive_setup
    same = verify_set_sandwich(part, part, "lower")
    assert same["ok"]
    assert set(same) == {"lower_active_contains_limit", "upper_active_within_limit",
                         "lower_strict_contains_limit", "upper_strict_within_limit",
                         "ok"}
