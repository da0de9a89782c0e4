"""Multiplier decomposition, set classification, critical cones."""

import numpy as np
import pytest

from biobstacle import (
    EPS_ACTIVE,
    EPS_MULT,
    classify_sets,
    directional_derivative,
    node_flags,
    pairing_identity_gap,
    solve_bop,
    solve_vi_bounds,
    split_multiplier,
    verify_strict_set_monotonicity,
)
from biobstacle import derivatives
from biobstacle.errors import ComplementarityViolated, InvalidD, NotMonotonePair
from biobstacle.obstacle import BopSolution
from biobstacle.problems import (
    biactive_instance,
    monotone_control_pair,
    random_instance,
    strict_instance,
    unit_grid,
)


@pytest.fixture(scope="module")
def solved_biactive():
    inst = biactive_instance(unit_grid(24, dim=2))
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
    split = split_multiplier(sol)
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = rng.standard_normal(sol.y.values.size)
        assert pairing_identity_gap(sol, split, w) <= 1e-12


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
    inst = strict_instance(unit_grid(12, dim=2))
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


def test_classification_is_threshold_stable(solved_biactive):
    """The manufactured instance puts every node far from both thresholds,
    so scaling them by 10 either way must not move any set."""
    _, sol = solved_biactive
    base = classify_sets(sol).counts()
    for factor in (0.1, 10.0):
        part = classify_sets(sol, eps_active=factor * EPS_ACTIVE,
                             eps_mult=factor * EPS_MULT)
        assert part.counts() == base


def _cone_bounds(sol, part, monkeypatch):
    """The per-node bounds (lo, hi) that directional_derivative hands to the
    cone VI."""
    seen = []

    def capture(operator, rhs, lo, hi, **kwargs):
        seen.append((lo, hi))
        return solve_vi_bounds(operator, rhs, lo, hi, **kwargs)

    monkeypatch.setattr(derivatives, "solve_vi_bounds", capture)
    directional_derivative(sol, part, sol.problem.grid.constant(1.0))
    return seen[0]


def test_critical_cone_classes(solved_biactive, monkeypatch):
    """Free on the inactive set, [0, inf) on weak lower contact, (-inf, 0] on
    weak upper contact, {0} on strict contact."""
    _, sol = solved_biactive
    part = classify_sets(sol)
    lo, hi = _cone_bounds(sol, part, monkeypatch)
    strict = part.lower_strict | part.upper_strict
    for mask, bounds in ((part.inactive, (-np.inf, np.inf)),
                         (part.lower_weak, (0.0, np.inf)),
                         (part.upper_weak, (-np.inf, 0.0)),
                         (strict, (0.0, 0.0))):
        assert mask.any()  # the biactive design has every class of node
        assert (lo[mask] == bounds[0]).all() and (hi[mask] == bounds[1]).all()


def test_critical_cone_projection_and_membership(solved_biactive, monkeypatch):
    """The cone VI result must lie in the cone: a projection onto the bounds
    is admitted, a point 1e-9 off a zero constraint is rejected, and one
    within 1e-12 of it is admitted."""
    _, sol = solved_biactive
    part = classify_sets(sol)
    lo, hi = _cone_bounds(sol, part, monkeypatch)
    rng = np.random.default_rng(1)
    projected = np.clip(rng.standard_normal(sol.y.values.size), lo, hi)
    strict = part.lower_strict | part.upper_strict
    h = sol.problem.grid.constant(1.0)
    for offset, admitted in ((0.0, True), (1e-13, True), (1e-9, False)):
        eta = projected.copy()
        eta[strict] = offset
        monkeypatch.setattr(derivatives, "solve_vi_bounds",
                            lambda *args, eta=eta, **kwargs: (eta, 0, 0.0))
        if admitted:
            assert (directional_derivative(sol, part, h).eta.values == eta).all()
        else:
            with pytest.raises(InvalidD):
                directional_derivative(sol, part, h)


def test_strict_set_monotonicity_on_random_pairs():
    rng = np.random.default_rng(4)
    grid = unit_grid(12, dim=2)
    checked_reflection = 0
    for _ in range(8):
        problem, _ = random_instance(grid, rng)
        u_hi, u_lo = monotone_control_pair(grid, rng)
        report = verify_strict_set_monotonicity(problem, u_hi, u_lo)
        assert report["ok"], report
        checked_reflection += int(report["reflection_checked"])
    assert checked_reflection >= 1  # identity-control draws exercise the cross-check


def test_monotonicity_guard_rejects_unordered_pair():
    rng = np.random.default_rng(9)
    grid = unit_grid(8, dim=2)
    problem, _ = random_instance(grid, rng)
    u_hi, u_lo = monotone_control_pair(grid, rng)
    with pytest.raises(NotMonotonePair):
        verify_strict_set_monotonicity(problem, u_lo, u_hi)
