"""Multiplier decomposition, set classification, critical cones."""

import numpy as np
import pytest

from biobstacle import (
    EPS_ACTIVE,
    EPS_MULT,
    classify_sets,
    directional_derivative,
    mirror_check,
    node_flags,
    pair_inclusion_violations,
    pairing_identity_gap,
    solve_bop,
    solve_vi_bounds,
    split_multiplier,
)
from biobstacle import derivatives, multipliers
from biobstacle.errors import ComplementarityViolated
from biobstacle.obstacle import BopSolution
from biobstacle.problems import (
    manufactured_instance,
    monotone_control_pair,
    random_instance,
    unit_grid,
)


@pytest.fixture(scope="module")
def solved_biactive():
    inst = manufactured_instance(unit_grid(24, dim=2), biactive=True)
    sol = solve_bop(inst["problem"], inst["u"])
    return inst, sol


def test_split_reassembles_exactly(solved_biactive):
    _, sol = solved_biactive
    split = split_multiplier(sol)
    assert (split.lower >= 0).all() and (split.upper >= 0).all()
    # clamp split: the defect is exactly zero, not merely small
    assert (split.lower - split.upper == sol.xi.values).all()
    assert ((split.lower > 0) & (split.upper > 0)).sum() == 0


def test_split_matches_designed_multiplier(solved_biactive):
    inst, sol = solved_biactive
    split = split_multiplier(sol)
    sigma = inst["sigma"]
    np.testing.assert_allclose(split.lower[inst["strict_lower"]], sigma, atol=1e-12)
    np.testing.assert_allclose(split.upper[inst["strict_upper"]], sigma, atol=1e-12)
    off = ~(inst["strict_lower"] | inst["strict_upper"])
    np.testing.assert_allclose(split.lower[off], 0.0, atol=1e-12)
    np.testing.assert_allclose(split.upper[off], 0.0, atol=1e-12)


def test_pairing_identity_for_random_tests(solved_biactive):
    """The interpolation-weight pairing identifies the two parts: for any w,
    xi.((1-v)w) recovers the lower pairing and xi.(v w) minus the upper."""
    _, sol = solved_biactive
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = rng.standard_normal(sol.y.values.size)
        assert pairing_identity_gap(sol, w) <= 1e-12


def test_split_refuses_interior_mass(solved_biactive):
    inst, sol = solved_biactive
    bogus_xi = sol.xi.values.copy()
    interior = ~(inst["strict_lower"] | inst["strict_upper"]
                 | inst["weak_lower"] | inst["weak_upper"])
    bogus_xi[np.flatnonzero(interior)[0]] = 0.5
    bogus = BopSolution(
        problem=sol.problem, u=sol.u, y=sol.y,
        xi=sol.problem.grid.function(bogus_xi),
        solver="tampered", iterations=0, residual_norm=0.0,
    )
    with pytest.raises(ComplementarityViolated):
        split_multiplier(bogus)


def test_partition_matches_design(solved_biactive):
    inst, sol = solved_biactive
    part = classify_sets(sol)
    assert np.array_equal(part.lower_strict, inst["strict_lower"])
    assert np.array_equal(part.upper_strict, inst["strict_upper"])
    assert np.array_equal(part.lower_weak, inst["weak_lower"])
    assert np.array_equal(part.upper_weak, inst["weak_upper"])


def test_partition_is_a_partition(solved_biactive):
    _, sol = solved_biactive
    part = classify_sets(sol)
    total = sol.y.values.size
    counts = part.counts()
    assert counts["lower"] + counts["upper"] + counts["inactive"] == total
    assert counts["lower"] == counts["lower_strict"] + counts["lower_weak"]
    assert counts["upper"] == counts["upper_strict"] + counts["upper_weak"]
    assert not (part.lower & part.upper).any()


def test_unconstrained_solution_is_all_inactive():
    inst = manufactured_instance(unit_grid(12, dim=2))
    problem = inst["problem"]
    grid = problem.grid
    wide = problem.obstacles
    from biobstacle import BopProblem, ObstaclePair
    roomy = BopProblem(
        operator=problem.operator,
        control=problem.control,
        obstacles=ObstaclePair(grid, wide.psi - 1.0, wide.phi + 1.0),
    )
    part = classify_sets(solve_bop(roomy, inst["u"]))
    assert part.counts()["inactive"] == grid.total
    flags = node_flags(part)
    assert (flags == "inactive").all()


def test_node_flags_values(solved_biactive):
    _, sol = solved_biactive
    part = classify_sets(sol)
    flags = node_flags(part)
    assert set(np.unique(flags)) == {"lower", "upper", "inactive"}
    assert (flags[part.lower] == "lower").all()
    assert (flags[part.upper] == "upper").all()


def test_classification_is_threshold_stable(solved_biactive, monkeypatch):
    """The manufactured instance puts every node far from both thresholds,
    so scaling them by 10 either way must not move any set."""
    _, sol = solved_biactive
    base = classify_sets(sol).counts()
    for factor in (0.1, 10.0):
        monkeypatch.setattr(multipliers, "EPS_ACTIVE", factor * EPS_ACTIVE)
        monkeypatch.setattr(multipliers, "EPS_MULT", factor * EPS_MULT)
        assert classify_sets(sol).counts() == base


def _cone_bounds(sol, monkeypatch):
    """The per-node bounds (lo, hi) that directional_derivative hands to the
    cone VI."""
    seen = []

    def capture(operator, rhs, lo, hi, **kwargs):
        seen.append((lo, hi))
        return solve_vi_bounds(operator, rhs, lo, hi, **kwargs)

    monkeypatch.setattr(derivatives, "solve_vi_bounds", capture)
    directional_derivative(sol, sol.problem.grid.constant(1.0))
    return seen[0]


def test_critical_cone_classes(solved_biactive, monkeypatch):
    """Free on the inactive set, [0, inf) on weak lower contact, (-inf, 0] on
    weak upper contact, {0} on strict contact."""
    _, sol = solved_biactive
    part = sol.sets
    lo, hi = _cone_bounds(sol, monkeypatch)
    strict = part.lower_strict | part.upper_strict
    for mask, bounds in ((part.inactive, (-np.inf, np.inf)),
                         (part.lower_weak, (0.0, np.inf)),
                         (part.upper_weak, (-np.inf, 0.0)),
                         (strict, (0.0, 0.0))):
        assert mask.any()  # the biactive design has every class of node
        assert (lo[mask] == bounds[0]).all() and (hi[mask] == bounds[1]).all()


def test_critical_cone_projection_and_membership(solved_biactive, monkeypatch):
    """The cone VI result lies in the cone exactly, with no slack: every
    PSOR sweep ends by projecting onto the cone's bounds, so along random
    directions eta is zero on strict contact and of the cone's sign on weak
    contact."""
    _, sol = solved_biactive
    part = sol.sets
    lo, hi = _cone_bounds(sol, monkeypatch)
    rng = np.random.default_rng(1)
    for _ in range(3):
        h = sol.problem.grid.function(rng.standard_normal(sol.y.values.size))
        eta = directional_derivative(sol, h).eta.values
        assert ((eta >= lo) & (eta <= hi)).all()
        assert (eta[part.lower_strict | part.upper_strict] == 0.0).all()


def test_strict_set_monotonicity_on_random_pairs():
    rng = np.random.default_rng(4)
    grid = unit_grid(12, dim=2)
    checked_reflection = 0
    for _ in range(8):
        problem, _ = random_instance(grid, rng)
        u_hi, u_lo = monotone_control_pair(grid, rng)
        assert (u_hi.values >= u_lo.values).all()
        sol_hi, sol_lo = solve_bop(problem, u_hi), solve_bop(problem, u_lo)
        report = pair_inclusion_violations(sol_hi.sets, sol_lo.sets)
        assert not any(report.values()), report
        if problem.control.kind == "identity":
            assert mirror_check(sol_hi)[1] == 0
            assert mirror_check(sol_lo)[1] == 0
            checked_reflection += 1
    assert checked_reflection >= 1  # identity-control draws exercise the cross-check


def test_sets_are_classified_on_first_read_and_kept():
    """solve_bop never classifies, so a solution whose multiplier carries
    mass off contact is built without complaint and only reading its sets
    raises. A solution classifies once and keeps the result."""
    problem, u = random_instance(unit_grid(8, dim=2), np.random.default_rng([0, 101]))
    psi, phi = problem.obstacles.psi, problem.obstacles.phi
    assert problem.obstacles.separation > 2 * EPS_ACTIVE   # the midpoint is free
    xi = np.zeros(problem.grid.total)
    xi[[3, 10, 17]] = [2e-6, -5e-6, 1e-6]
    off_contact = BopSolution(
        problem=problem, u=u, y=problem.grid.function((psi + phi) / 2),
        xi=problem.grid.function(xi), solver="psor", iterations=0,
        residual_norm=0.0,
    )
    with pytest.raises(ComplementarityViolated,
                       match="^3 interior nodes carry multiplier mass up to 5.000e-06$"):
        off_contact.sets
    sol = solve_bop(problem, u)
    assert sol.sets is sol.sets
