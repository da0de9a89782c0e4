"""Verification suites, one per headline property of the package.

Each criterion function draws its randomness from an isolated, seeded
stream and returns a plain dict of deterministic values (no wall times, no
paths), so a report built from these dicts is byte-reproducible. Runtime
budgets are enforced by the callers that care (the test suite), not here.
"""

from __future__ import annotations

import numpy as np

from . import problems
from .controls import control_derivative_matrix
from .derivatives import (
    directional_derivative,
    gateaux_derivative_on_D,
    generalized_derivative,
    mosco_convergence_experiment,
)
from .multipliers import (
    EPS_ACTIVE,
    EPS_MULT,
    classify_sets,
    node_flags,
    pairing_identity_gap,
    reflection_swap_mismatches,
    split_multiplier,
    verify_strict_set_monotonicity,
)
from .obstacle import reflect_problem, solve_bop, solve_bop_with_obstacles
from .oracle import solve_by_enumeration
from .radial_series import (
    RingConfig,
    check_gap_bounds,
    series_study,
    verify_vi_solution_property,
)
from .reporting import render_json
from .tracking import adjoint_subgradient, descent_loop, objective

MULTIPLIER_NOISE = 1e-11  # solver-level multiplier noise, far below eps_mult


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def criterion_1(seed: int) -> dict:
    """PSOR and PDAS against the exhaustive 1D complementarity-pattern oracle."""
    rng = _rng(seed, 1)
    worst_y = 0.0
    pattern_mismatches = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        grid = problems.unit_grid(n, dim=1)
        problem, u = problems.random_instance(grid, rng)
        reference = solve_by_enumeration(problem, u)
        ref_flags = node_flags(classify_sets(reference))
        for method, tol in (("psor", 1e-10), ("pdas", 1e-10)):
            sol = solve_bop(problem, u, method=method, tol=tol)
            worst_y = max(worst_y, float(np.abs(sol.y.values - reference.y.values).max()))
            flags = node_flags(classify_sets(sol))
            pattern_mismatches += int((flags != ref_flags).sum())
    return {
        "criterion": 1,
        "name": "brute_force_equivalence",
        "instances": 20,
        "worst_y_gap": worst_y,
        "pattern_mismatches": pattern_mismatches,
        "tolerance": 1e-8,
        "passed": bool(worst_y <= 1e-8 and pattern_mismatches == 0),
    }


def criterion_2(seed: int) -> dict:
    """Four monotone-pair suites on a 32x32 grid, 50 pairs each."""
    rng = _rng(seed, 2)
    grid = problems.unit_grid(32, dim=2)
    tol = 1e-10

    worst_state_u = -np.inf       # max of y_lo - y_hi, should stay <= tol
    for _ in range(50):
        problem, _ = problems.random_instance(grid, rng)
        u_hi, u_lo = problems.monotone_control_pair(grid, rng)
        y_hi = solve_bop(problem, u_hi).y.values
        y_lo = solve_bop(problem, u_lo).y.values
        worst_state_u = max(worst_state_u, float((y_lo - y_hi).max()))

    worst_state_psi = -np.inf     # raising psi must not lower the state
    for _ in range(50):
        problem, u = problems.random_instance(grid, rng)
        raised, _ = problems.monotone_obstacle_pair(problem, rng)
        y_orig = solve_bop(problem, u).y.values
        y_raised = solve_bop_with_obstacles(problem, u, psi_override=raised.psi).y.values
        worst_state_psi = max(worst_state_psi, float((y_orig - y_raised).max()))

    inclusion_violations = 0
    reflection_mismatches = 0
    for _ in range(50):
        problem, _ = problems.random_instance(grid, rng)
        u_hi, u_lo = problems.monotone_control_pair(grid, rng)
        report = verify_strict_set_monotonicity(problem, u_hi, u_lo)
        inclusion_violations += sum(
            report[k] for k in ("lower_active_shrinks", "upper_active_grows",
                                "lower_strict_shrinks", "upper_strict_grows")
        )
        reflection_mismatches += report.get("reflection_swap_mismatches", 0)

    worst_multiplier = -np.inf    # xi_hi - xi_lo on shared contact, <= tol
    shared_contact_nodes = 0
    for _ in range(50):
        problem, _ = problems.random_instance(grid, rng)
        u_hi, u_lo = problems.monotone_control_pair(grid, rng)
        sol_hi = solve_bop(problem, u_hi)
        sol_lo = solve_bop(problem, u_lo)
        part_hi = classify_sets(sol_hi)
        part_lo = classify_sets(sol_lo)
        shared = (part_hi.lower & part_lo.lower) | (part_hi.upper & part_lo.upper)
        shared_contact_nodes += int(shared.sum())
        if shared.any():
            gap = (sol_hi.xi.values - sol_lo.xi.values)[shared]
            worst_multiplier = max(worst_multiplier, float(gap.max()))

    return {
        "criterion": 2,
        "name": "monotonicity_suites",
        "pairs_per_suite": 50,
        "worst_state_violation_u": worst_state_u,
        "worst_state_violation_psi": worst_state_psi,
        "set_inclusion_violations": inclusion_violations,
        "reflection_swap_mismatches": reflection_mismatches,
        "worst_multiplier_violation": worst_multiplier,
        "shared_contact_nodes": shared_contact_nodes,
        "tolerance": tol,
        "passed": bool(
            worst_state_u <= tol
            and worst_state_psi <= tol
            and inclusion_violations == 0
            and reflection_mismatches == 0
            and worst_multiplier <= tol
            and shared_contact_nodes > 0
        ),
    }


def criterion_3(seed: int) -> dict:
    """Lowering psi off the multiplier-carrying lower set leaves y unchanged."""
    rng = _rng(seed, 3)
    grid = problems.unit_grid(16, dim=2)
    worst = 0.0
    lowered_nodes = 0
    for _ in range(20):
        problem, u = problems.random_instance(grid, rng)
        sol = solve_bop(problem, u)
        carrying = sol.xi.values > MULTIPLIER_NOISE
        pair = problem.obstacles
        span = float((pair.phi - pair.psi).mean())
        v = np.abs(problems.smooth_field(grid, rng, amplitude=span).values)
        v[carrying] = 0.0
        lowered_nodes += int((v > 0).sum())
        sol_new = solve_bop_with_obstacles(problem, u, psi_override=pair.psi - v)
        worst = max(worst, float(np.abs(sol_new.y.values - sol.y.values).max()))
    return {
        "criterion": 3,
        "name": "obstacle_invariance",
        "instances": 20,
        "lowered_nodes": lowered_nodes,
        "worst_state_change": worst,
        "tolerance": 1e-9,
        "passed": bool(worst <= 1e-9 and lowered_nodes > 0),
    }


def criterion_4(seed: int) -> dict:
    """Mirrored problem solves to the negated state with swapped contact sets."""
    rng = _rng(seed, 4)
    grid = problems.unit_grid(16, dim=2)
    worst = 0.0
    swap_mismatches = 0
    for _ in range(20):
        problem, u = problems.random_instance(grid, rng, control_kinds=("identity",))
        sol = solve_bop(problem, u)
        mirrored = reflect_problem(problem)
        sol_m = solve_bop(mirrored, u.with_values(-u.values))
        worst = max(worst, float(np.abs(sol_m.y.values + sol.y.values).max()))
        swap_mismatches += reflection_swap_mismatches(classify_sets(sol),
                                                      classify_sets(sol_m))
    return {
        "criterion": 4,
        "name": "reflection_symmetry",
        "instances": 20,
        "worst_state_gap": worst,
        "swap_mismatches": swap_mismatches,
        "tolerance": 1e-10,
        "passed": bool(worst <= 1e-10 and swap_mismatches == 0),
    }


def criterion_5(seed: int) -> dict:
    """Multiplier split exactness, pairing identity, support conditions."""
    rng = _rng(seed, 5)
    grid = problems.unit_grid(16, dim=2)
    split_defect = 0.0
    worst_pairing = 0.0
    support_violations = 0
    for _ in range(20):
        problem, u = problems.random_instance(grid, rng)
        sol = solve_bop(problem, u)
        split = split_multiplier(sol)
        split_defect = max(
            split_defect,
            float(np.abs(split.lower - split.upper - sol.xi.values).max()),
        )
        for _ in range(20):
            w = rng.standard_normal(grid.total)
            worst_pairing = max(worst_pairing, pairing_identity_gap(sol, split, w))
        gap_lower = sol.y.values - problem.obstacles.psi
        gap_upper = problem.obstacles.phi - sol.y.values
        support_violations += int(((split.lower > EPS_MULT) & (gap_lower > EPS_ACTIVE)).sum())
        support_violations += int(((split.upper > EPS_MULT) & (gap_upper > EPS_ACTIVE)).sum())
    return {
        "criterion": 5,
        "name": "multiplier_split",
        "instances": 20,
        "split_defect": split_defect,
        "worst_pairing_gap": worst_pairing,
        "support_violations": support_violations,
        "tolerance": 1e-8,
        "passed": bool(
            split_defect == 0.0 and worst_pairing <= 1e-8 and support_violations == 0
        ),
    }


def criterion_6(seed: int) -> dict:
    """Cone-VI and reduced-system derivatives agree under strict
    complementarity; one-sided FD quotients converge at first order."""
    inst = problems.derivative_instance(problems.unit_grid(32, dim=2))
    problem, u, h = inst["problem"], inst["u"], inst["h"]
    sol = solve_bop(problem, u)
    part = classify_sets(sol)
    manufactured_state_gap = float(np.abs(sol.y.values - inst["y_star"].values).max())
    h_neg = h.with_values(-h.values)

    cone_plus = directional_derivative(sol, part, h)
    cone_minus = directional_derivative(sol, part, h_neg)
    reduced = gateaux_derivative_on_D(sol, part, h)
    eta = reduced.eta.values
    agreement_plus = float(np.abs(cone_plus.eta.values - eta).max())
    agreement_minus = float(np.abs(cone_minus.eta.values + eta).max())

    ts = (1e-2, 1e-3, 1e-4)
    errors = []
    for t in ts:
        u_t = u.with_values(u.values + t * h.values)
        y_t = solve_bop(problem, u_t).y.values
        quotient = (y_t - sol.y.values) / t
        errors.append(float(np.abs(quotient - eta).max()))
    order = float(np.polyfit(np.log(ts), np.log(errors), 1)[0])

    return {
        "criterion": 6,
        "name": "derivative_consistency",
        "manufactured_state_gap": manufactured_state_gap,
        "weak_nodes": int((part.lower_weak | part.upper_weak).sum()),
        "agreement_plus": agreement_plus,
        "agreement_minus": agreement_minus,
        "fd_errors": errors,
        "fd_order": order,
        "tolerance": 1e-9,
        "passed": bool(
            agreement_plus <= 1e-9 and agreement_minus <= 1e-9 and order >= 0.9
        ),
    }


def criterion_7(seed: int) -> dict:
    """Mosco experiment on a biactive instance: converging one-sided
    derivatives, and genuinely different limits for the two sides."""
    inst = problems.mosco_instance(problems.unit_grid(32, dim=2))
    problem, u, h, e = inst["problem"], inst["u"], inst["h"], inst["e"]
    schedule = (2, 4, 8, 16, 32, 64, 128, 256)

    sol = solve_bop(problem, u)
    part = classify_sets(sol)
    runs = {side: mosco_convergence_experiment(sol, part, h, side=side,
                                               schedule=schedule, e=e)
            for side in ("lower", "upper")}
    eta_lower = generalized_derivative(sol, part, h, "lower").eta.values
    eta_upper = generalized_derivative(sol, part, h, "upper").eta.values
    side_gap = float(np.abs(eta_lower - eta_upper).max())

    return {
        "criterion": 7,
        "name": "mosco_limit",
        "schedule": list(schedule),
        "weak_nodes": int((part.lower_weak | part.upper_weak).sum()),
        "final_error_lower": runs["lower"]["final_error"],
        "final_error_upper": runs["upper"]["final_error"],
        "tail_nonincreasing_lower": runs["lower"]["errors_nonincreasing_tail"],
        "tail_nonincreasing_upper": runs["upper"]["errors_nonincreasing_tail"],
        "errors_lower": [s["error"] for s in runs["lower"]["steps"]],
        "errors_upper": [s["error"] for s in runs["upper"]["steps"]],
        "side_gap": side_gap,
        "tolerance": 1e-4,
        "passed": bool(
            runs["lower"]["final_error"] <= 1e-4
            and runs["upper"]["final_error"] <= 1e-4
            and runs["lower"]["errors_nonincreasing_tail"]
            and runs["upper"]["errors_nonincreasing_tail"]
            and side_gap > 1e-3
        ),
    }


def criterion_8(seed: int) -> dict:
    """Adjoint identity, central-difference gradient check at generic
    controls, and strict descent of the tracking objective."""
    rng = _rng(seed, 8)
    inst = problems.control_instance(problems.unit_grid(32, dim=2), rng)
    problem, cp = inst["problem"], inst["control_problem"]
    grid = problem.grid

    worst_adjoint = 0.0
    worst_cd = 0.0
    weak_nodes = 0
    t = 1e-3
    for _ in range(10):
        u = problems.perturbed_control(inst, rng)
        sol = solve_bop(problem, u)
        part = classify_sets(sol)
        weak_nodes += int((part.lower_weak | part.upper_weak).sum())
        sub = adjoint_subgradient(cp, sol, part, side="lower")
        fprime = control_derivative_matrix(problem.control, u)
        for _ in range(3):
            w = rng.standard_normal(grid.total)
            lhs = float((fprime.T @ sub.q.values) @ w)
            rhs = float(sub.q.values @ (fprime @ w))
            worst_adjoint = max(worst_adjoint, abs(lhs - rhs))
        for _ in range(2):
            w = problems.smooth_field(grid, rng, amplitude=1.0)
            u_plus = u.with_values(u.values + t * w.values)
            u_minus = u.with_values(u.values - t * w.values)
            cd = (objective(cp, solve_bop(problem, u_plus))
                  - objective(cp, solve_bop(problem, u_minus))) / (2.0 * t)
            directional = float(sub.g.values @ w.values)
            worst_cd = max(worst_cd, abs(directional - cd) / max(abs(cd), 1e-300))

    trace = descent_loop(cp, problems.perturbed_control(inst, rng), steps=50,
                         side="lower")
    objectives = [row["objective"] for row in trace.rows]
    strict_decrease = all(b < a for a, b in zip(objectives, objectives[1:]))

    return {
        "criterion": 8,
        "name": "adjoint_subgradient",
        "controls": 10,
        "generic_weak_nodes": weak_nodes,
        "worst_adjoint_identity_gap": worst_adjoint,
        "worst_cd_relative_error": worst_cd,
        "descent_steps": len(objectives),
        "descent_strictly_decreasing": strict_decrease,
        "descent_termination": trace.termination,
        "tolerance_identity": 1e-12,
        "tolerance_cd": 1e-4,
        "passed": bool(
            worst_adjoint <= 1e-12
            and weak_nodes == 0
            and worst_cd <= 1e-4
            and strict_decrease
            and len(objectives) >= 50
            and trace.termination == "max_steps"
        ),
    }


def criterion_9(seed: int) -> dict:
    """Ring series: Cauchy tail of the bounded case, logarithmic divergence
    of the unbounded case, dual-norm bound at every truncation."""
    config = RingConfig(beta=1.0 / 3.0, omega_exponent=1.0)
    study = series_study(config, K_max=100_000, tail_from=10_000)
    gaps = check_gap_bounds(config.beta, k_max=1_000_000)
    vi = verify_vi_solution_property(config, K=2_000, samples=100, seed=seed)
    bounded = study["bounded"]
    fit = study["unbounded"]
    h1_ok = all(entry["ok"] for entry in study["h1_checks"].values())
    passed = bool(
        bounded["max_tail_increment"] < 1e-6
        and bounded["partial_sums_within_bound"]
        and np.isfinite(fit["C0"])
        and fit["slope_rel_err"] <= 0.25
        and h1_ok
        and gaps["ok"]
        and vi["ok"]
    )
    return {
        "criterion": 9,
        "name": "ring_series",
        "beta": config.beta,
        "K_max": study["K_max"],
        "max_tail_increment": bounded["max_tail_increment"],
        "tail_remainder_bound": bounded["remainder_bound_at_tail_from"],
        "bounded_limit_estimate": bounded["limit_estimate"],
        "measure_mass_bound": bounded["measure_mass_bound"],
        "growth_constant": fit["growth_constant"],
        "fitted_slope": fit["fitted_slope"],
        "slope_rel_err": fit["slope_rel_err"],
        "C0": fit["C0"],
        "h1_checks": study["h1_checks"],
        "gap_bounds_ok": gaps["ok"],
        "vi_property_ok": vi["ok"],
        "passed": passed,
    }


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(seed: int) -> dict:
    """Run criteria 1 through 9 sequentially and assemble the report body."""
    criteria = [fn(seed) for fn in CRITERIA]
    return {
        "experiment": "verify-all",
        "seed": int(seed),
        "criteria": criteria,
        "all_passed": bool(all(c["passed"] for c in criteria)),
    }


def run_acceptance(seed: int) -> dict:
    """run_all twice; the byte-comparison of the two renderings is the
    determinism criterion, appended as entry 10."""
    first = run_all(seed)
    second = run_all(seed)
    identical = render_json(first) == render_json(second)
    c10 = {
        "criterion": 10,
        "name": "determinism",
        "byte_identical": bool(identical),
        "passed": bool(identical),
    }
    report = dict(first)
    report["criteria"] = list(first["criteria"]) + [c10]
    report["all_passed"] = bool(first["all_passed"] and identical)
    return report
