"""Verification suites, one per headline property of the package.

Each criterion function draws its randomness from an isolated, seeded
stream and returns a plain dict of deterministic values (no wall times, no
paths), so a report built from these dicts is byte-reproducible. Runtime
budgets are enforced by the callers that care (the test suite), not here.

Every pass/fail bound of the criteria and of the CLI experiments is a row
of ``BOUNDS``; ``failures`` judges a report against its rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from . import problems
from .controls import control_slope
from .derivatives import (
    directional_derivative,
    gateaux_derivative_on_D,
    mosco_convergence_experiment,
)
from .grid import Grid
from .multipliers import (
    EPS_ACTIVE,
    EPS_MULT,
    mirror_check,
    node_flags,
    pair_inclusion_violations,
    pairing_identity_gap,
    split_multiplier,
)
from .obstacle import BopSolution, ObstaclePair, solve_bop
from .oracle import solve_by_enumeration
from .radial_series import (
    RingConfig,
    check_gap_bounds,
    series_study,
    verify_vi_solution_property,
)
from .reporting import render_json
from .tracking import adjoint_subgradient, descent_loop, objective

MULTIPLIER_NOISE = 1e-11  # solver-level multiplier noise, far below EPS_MULT
CONE_VS_REDUCED = 1e-9    # cone-VI vs inactive-set derivative: criterion 6, derivative run


class Field(str):
    """A bound read from another field of the same report."""


RELATIONS = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
             ">": operator.gt, ">=": operator.ge}

# criterion number or experiment name -> rows (fields, relation, bound, key):
# every field, space-separated, must stand in that relation to the bound, and
# a keyed row reports its bound under the key; "a.*.b" is b of every entry of a
BOUNDS = {
    1: (("worst_y_gap", "<=", 1e-8, "tolerance"), ("pattern_mismatches", "==", 0, None)),
    2: (("worst_state_violation_u worst_state_violation_psi worst_multiplier_violation",
         "<=", 1e-10, "tolerance"),
        ("set_inclusion_violations reflection_swap_mismatches", "==", 0, None),
        ("shared_contact_nodes", ">", 0, None)),
    3: (("worst_state_change", "<=", 1e-9, "tolerance"), ("lowered_nodes", ">", 0, None)),
    4: (("worst_state_gap", "<=", 1e-10, "tolerance"), ("swap_mismatches", "==", 0, None)),
    5: (("worst_pairing_gap", "<=", 1e-8, "tolerance"), ("split_defect", "==", 0.0, None),
        ("support_violations", "==", 0, None)),
    6: (("agreement_plus agreement_minus", "<=", CONE_VS_REDUCED, "tolerance"),
        ("fd_order", ">=", 0.9, None)),
    7: (("final_error_lower final_error_upper", "<=", 1e-4, "tolerance"),
        ("tail_nonincreasing_lower tail_nonincreasing_upper", "==", True, None),
        ("side_gap", ">", 1e-3, None)),
    8: (("worst_adjoint_identity_gap", "<=", 1e-12, "tolerance_identity"),
        ("worst_cd_relative_error", "<=", 1e-4, "tolerance_cd"),
        ("generic_weak_nodes", "==", 0, None), ("descent_steps", ">=", 50, None),
        ("descent_strictly_decreasing", "==", True, None),
        ("descent_termination", "==", "max_steps", None)),
    # the bounded upper partial sums never decrease, so the last one (the
    # limit estimate) within the mass bound puts every one within it
    9: (("max_tail_increment", "<", 1e-6, None),
        ("bounded_limit_estimate", "<=", Field("measure_mass_bound"), None),
        ("slope_rel_err", "<=", 0.25, None), ("C0", "<", math.inf, None),
        ("h1_checks.*.ok gap_bounds_ok vi_property_ok", "==", True, None)),
    10: (("byte_identical", "==", True, None),),
    "solve": (),
    "derivative": (("cone_vs_reduced_agreement", "<=", CONE_VS_REDUCED, None),),
    "mosco": (("errors_nonincreasing_tail", "==", True, None),),
    "control": (("strictly_decreasing", "==", True, None),),
    "counterexample": (("h1_checks.*.ok", "==", True, None),),
    "verify-all": (),
}


def _reached(report: dict, field: str) -> list[tuple[str, object]]:
    head, _, rest = field.partition(".*.")
    if not rest:
        return [(field, report[field])]
    return [(f"{head}.{key}.{rest}", entry[rest]) for key, entry in report[head].items()]


def failures(report: dict) -> list[str]:
    """One line per field that breaks its row of ``BOUNDS``: the field, its
    value, the relation and the bound. A report with ``criteria`` also
    lists theirs, each under the criterion's name."""
    lines = []
    rows = BOUNDS[report.get("criterion", report.get("experiment"))]
    for fields, relation, bound, _ in rows:
        limit = report[bound] if isinstance(bound, Field) else bound
        lines += [f"{name} {value} breaks {relation} {limit}"
                  for field in fields.split() for name, value in _reached(report, field)
                  if not RELATIONS[relation](value, limit)]
    for criterion in report.get("criteria", ()):
        lines += [f"{criterion['name']}: {line}" for line in failures(criterion)]
    return lines


def _judged(report: dict) -> dict:
    """The criterion report with its keyed bounds and its verdict filled in."""
    report.update({key: bound for _, _, bound, key in BOUNDS[report["criterion"]] if key})
    report["passed"] = not failures(report)
    return report


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def criterion_1(seed: int) -> dict:
    """PSOR and PDAS against the exhaustive 1D complementarity-pattern oracle."""
    rng = _rng(seed, 1)
    solve_tol = 1e-10
    worst_y = 0.0
    pattern_mismatches = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        grid = problems.unit_grid(n, dim=1)
        problem, u = problems.random_instance(grid, rng)
        reference = solve_by_enumeration(problem, u)
        ref_flags = node_flags(reference.sets)
        for method in ("psor", "pdas"):
            sol = solve_bop(problem, u, method=method, tol=solve_tol)
            worst_y = max(worst_y, float(np.abs(sol.y.values - reference.y.values).max()))
            flags = node_flags(sol.sets)
            pattern_mismatches += int((flags != ref_flags).sum())
    return _judged({
        "criterion": 1,
        "name": "brute_force_equivalence",
        "instances": 20,
        "worst_y_gap": worst_y,
        "pattern_mismatches": pattern_mismatches,
    })


def _solved_pairs(grid: Grid, rng: np.random.Generator,
                  ) -> Iterator[tuple[BopSolution, BopSolution]]:
    """50 solved monotone control pairs (sol_hi, sol_lo), each on a fresh
    random instance; u_hi is solved before u_lo."""
    for _ in range(50):
        problem, _ = problems.random_instance(grid, rng)
        u_hi, u_lo = problems.monotone_control_pair(grid, rng)
        yield solve_bop(problem, u_hi), solve_bop(problem, u_lo)


def criterion_2(seed: int) -> dict:
    """Four monotone-pair suites on a 32x32 grid, 50 pairs each."""
    rng = _rng(seed, 2)
    grid = problems.unit_grid(32, dim=2)

    worst_state_u = -np.inf       # max of y_lo - y_hi; BOUNDS[2] caps it
    for sol_hi, sol_lo in _solved_pairs(grid, rng):
        worst_state_u = max(worst_state_u, float((sol_lo.y.values - sol_hi.y.values).max()))

    worst_state_psi = -np.inf     # raising psi must not lower the state
    for _ in range(50):
        problem, u = problems.random_instance(grid, rng)
        raised = replace(problem, obstacles=problems.monotone_obstacle_pair(problem, rng))
        y_orig = solve_bop(problem, u).y.values
        y_raised = solve_bop(raised, u).y.values
        worst_state_psi = max(worst_state_psi, float((y_orig - y_raised).max()))

    inclusion_violations = 0
    reflection_mismatches = 0
    for sol_hi, sol_lo in _solved_pairs(grid, rng):
        inclusion_violations += sum(pair_inclusion_violations(sol_hi.sets,
                                                              sol_lo.sets).values())
        # every control map is odd, so the mirror would hold for the other
        # kind too; it is kept to identity draws because it costs two more
        # solves per pair
        if sol_hi.problem.control.kind == "identity":
            reflection_mismatches += mirror_check(sol_hi)[1] + mirror_check(sol_lo)[1]

    worst_multiplier = -np.inf    # xi_hi - xi_lo on shared contact; capped too
    shared_contact_nodes = 0
    for sol_hi, sol_lo in _solved_pairs(grid, rng):
        part_hi, part_lo = sol_hi.sets, sol_lo.sets
        shared = (part_hi.lower & part_lo.lower) | (part_hi.upper & part_lo.upper)
        shared_contact_nodes += int(shared.sum())
        if shared.any():
            gap = (sol_hi.xi.values - sol_lo.xi.values)[shared]
            worst_multiplier = max(worst_multiplier, float(gap.max()))

    return _judged({
        "criterion": 2,
        "name": "monotonicity_suites",
        "pairs_per_suite": 50,
        "worst_state_violation_u": worst_state_u,
        "worst_state_violation_psi": worst_state_psi,
        "set_inclusion_violations": inclusion_violations,
        "reflection_swap_mismatches": reflection_mismatches,
        "worst_multiplier_violation": worst_multiplier,
        "shared_contact_nodes": shared_contact_nodes,
    })


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
        lowered = replace(problem, obstacles=ObstaclePair(grid, pair.psi - v, pair.phi))
        sol_new = solve_bop(lowered, u)
        worst = max(worst, float(np.abs(sol_new.y.values - sol.y.values).max()))
    return _judged({
        "criterion": 3,
        "name": "obstacle_invariance",
        "instances": 20,
        "lowered_nodes": lowered_nodes,
        "worst_state_change": worst,
    })


def criterion_4(seed: int) -> dict:
    """Mirrored problem solves to the negated state with swapped contact sets."""
    rng = _rng(seed, 4)
    grid = problems.unit_grid(16, dim=2)
    worst = 0.0
    swap_mismatches = 0
    for _ in range(20):
        problem, u = problems.random_instance(grid, rng, control_kinds=("identity",))
        sol = solve_bop(problem, u)
        gap, mismatches = mirror_check(sol)
        worst = max(worst, gap)
        swap_mismatches += mismatches
    return _judged({
        "criterion": 4,
        "name": "reflection_symmetry",
        "instances": 20,
        "worst_state_gap": worst,
        "swap_mismatches": swap_mismatches,
    })


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
            worst_pairing = max(worst_pairing, pairing_identity_gap(sol, w))
        gap_lower = sol.y.values - problem.obstacles.psi
        gap_upper = problem.obstacles.phi - sol.y.values
        support_violations += int(((split.lower > EPS_MULT) & (gap_lower > EPS_ACTIVE)).sum())
        support_violations += int(((split.upper > EPS_MULT) & (gap_upper > EPS_ACTIVE)).sum())
    return _judged({
        "criterion": 5,
        "name": "multiplier_split",
        "instances": 20,
        "split_defect": split_defect,
        "worst_pairing_gap": worst_pairing,
        "support_violations": support_violations,
    })


def criterion_6(seed: int) -> dict:
    """Cone-VI and reduced-system derivatives agree under strict
    complementarity; one-sided FD quotients converge at first order."""
    inst = problems.derivative_instance(problems.unit_grid(32, dim=2))
    problem, u, h = inst["problem"], inst["u"], inst["h"]
    sol = solve_bop(problem, u)
    manufactured_state_gap = float(np.abs(sol.y.values - inst["y_star"].values).max())
    h_neg = h.with_values(-h.values)

    cone_plus = directional_derivative(sol, h)
    cone_minus = directional_derivative(sol, h_neg)
    reduced = gateaux_derivative_on_D(sol, h)
    eta = reduced.eta.values
    agreement_plus = float(np.abs(cone_plus.eta.values - eta).max())
    agreement_minus = float(np.abs(cone_minus.eta.values + eta).max())

    ts = (1e-2, 1e-3, 1e-4)
    errors = []
    for t in ts:
        u_t = u.with_values(u.values + t * h.values)
        y_t = solve_bop(problem, u_t, near=sol).y.values
        quotient = (y_t - sol.y.values) / t
        errors.append(float(np.abs(quotient - eta).max()))
    order = float(np.polyfit(np.log(ts), np.log(errors), 1)[0])

    return _judged({
        "criterion": 6,
        "name": "derivative_consistency",
        "manufactured_state_gap": manufactured_state_gap,
        "weak_nodes": int((sol.sets.lower_weak | sol.sets.upper_weak).sum()),
        "agreement_plus": agreement_plus,
        "agreement_minus": agreement_minus,
        "fd_errors": errors,
        "fd_order": order,
    })


def criterion_7(seed: int) -> dict:
    """Mosco experiment on a biactive instance: converging one-sided
    derivatives, and genuinely different limits for the two sides."""
    inst = problems.mosco_instance(problems.unit_grid(32, dim=2))
    schedule = (2, 4, 8, 16, 32, 64, 128, 256)

    sol = solve_bop(inst["problem"], inst["u"])
    runs = {side: mosco_convergence_experiment(sol, inst["h"], side=side, schedule=schedule)
            for side in ("lower", "upper")}
    side_gap = float(np.abs(runs["lower"]["eta_limit"] - runs["upper"]["eta_limit"]).max())

    return _judged({
        "criterion": 7,
        "name": "mosco_limit",
        "schedule": list(schedule),
        "weak_nodes": int((sol.sets.lower_weak | sol.sets.upper_weak).sum()),
        "final_error_lower": runs["lower"]["final_error"],
        "final_error_upper": runs["upper"]["final_error"],
        "tail_nonincreasing_lower": runs["lower"]["errors_nonincreasing_tail"],
        "tail_nonincreasing_upper": runs["upper"]["errors_nonincreasing_tail"],
        "errors_lower": [s["error"] for s in runs["lower"]["steps"]],
        "errors_upper": [s["error"] for s in runs["upper"]["steps"]],
        "side_gap": side_gap,
    })


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

    def central(u, sol, w, step):
        plus = solve_bop(problem, u.with_values(u.values + step * w.values), near=sol)
        minus = solve_bop(problem, u.with_values(u.values - step * w.values), near=sol)
        return (objective(cp, plus) - objective(cp, minus)) / (2.0 * step)

    for _ in range(10):
        u = problems.perturbed_control(inst, rng)
        sol = solve_bop(problem, u)
        weak_nodes += int((sol.sets.lower_weak | sol.sets.upper_weak).sum())
        sub = adjoint_subgradient(cp, sol, side="lower")
        slope = control_slope(problem.control, u)
        for _ in range(3):
            w = rng.standard_normal(grid.total)
            lhs = float((slope * sub.q.values) @ w)
            rhs = float(sub.q.values @ (slope * w))
            worst_adjoint = max(worst_adjoint, abs(lhs - rhs))
        for _ in range(2):
            w = problems.smooth_field(grid, rng, amplitude=1.0)
            # Richardson extrapolation cancels the O(t^2) truncation of the
            # central difference, which would otherwise dominate the relative
            # error where g.w is near zero (seed 27: 2e-13, error 1.2e-4)
            cd = (4.0 * central(u, sol, w, t / 2) - central(u, sol, w, t)) / 3.0
            directional = float(sub.g.values @ w.values)
            worst_cd = max(worst_cd, abs(directional - cd) / max(abs(cd), 1e-300))

    trace = descent_loop(cp, problems.perturbed_control(inst, rng), steps=50,
                         side="lower")

    return _judged({
        "criterion": 8,
        "name": "adjoint_subgradient",
        "controls": 10,
        "generic_weak_nodes": weak_nodes,
        "worst_adjoint_identity_gap": worst_adjoint,
        "worst_cd_relative_error": worst_cd,
        "descent_steps": len(trace.rows),
        "descent_strictly_decreasing": trace.strictly_decreasing,
        "descent_termination": trace.termination,
    })


def criterion_9(seed: int) -> dict:
    """Ring series: Cauchy tail of the bounded case, logarithmic divergence
    of the unbounded case, dual-norm bound at every truncation."""
    config = RingConfig(beta=1.0 / 3.0, omega_exponent=1.0)
    study = series_study(config, K_max=100_000)
    gaps = check_gap_bounds(config, k_max=1_000_000)
    vi = verify_vi_solution_property(config, K=2_000, samples=100, seed=seed)
    bounded = study["bounded"]
    fit = study["unbounded"]
    return _judged({
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
    })


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


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
    c10 = _judged({"criterion": 10, "name": "determinism",
                   "byte_identical": render_json(first) == render_json(run_all(seed))})
    return {**first, "criteria": [*first["criteria"], c10],
            "all_passed": first["all_passed"] and c10["passed"]}
