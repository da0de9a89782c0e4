"""Multiplier decomposition and the contact sets of a solved point.

The residual xi = A y - f(u) splits into nonnegative parts
xi = xi_lower - xi_upper supported on the respective active sets. The split
is certified through the interpolation weight v = (y - psi)/(phi - psi):
for any test vector w, xi . ((1-v) w) = xi_lower . w and
xi . (v w) = -(xi_upper . w), which is how the two parts are told apart
without ever looking at obstacle names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplementarityViolated, NotMonotonePair
from .grid import GridFunction
from .obstacle import BopProblem, BopSolution, reflect_problem, solve_bop

EPS_ACTIVE = 1e-8   # within this of the nearer obstacle counts as contact
EPS_MULT = 1e-7     # multiplier mass above this counts as strictly active


@dataclass(frozen=True, eq=False)
class MultiplierSplit:
    """xi = lower - upper with both parts nonnegative."""

    lower: np.ndarray
    upper: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("lower", "upper", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _contact(solution: BopSolution, eps_active: float) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) contact masks: a node within eps_active of an obstacle
    touches it, but only the strictly nearer obstacle, so no node touches
    both and the rule commutes with reflection even where the obstacles
    are closer than 2*eps_active."""
    obstacles = solution.problem.obstacles
    gap_lower = solution.y.values - obstacles.psi
    gap_upper = obstacles.phi - solution.y.values
    lower = (gap_lower <= eps_active) & (gap_lower < gap_upper)
    upper = (gap_upper <= eps_active) & (gap_upper < gap_lower)
    return lower, upper


def split_multiplier(
    solution: BopSolution,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> MultiplierSplit:
    """Decompose xi into its obstacle-attached parts.

    Refuses (ComplementarityViolated) if the multiplier carries mass at nodes
    in contact with neither obstacle, since the decomposition is meaningless
    for such data.
    """
    y = solution.y.values
    xi = solution.xi.values
    psi = solution.problem.obstacles.psi
    phi = solution.problem.obstacles.phi
    lower, upper = _contact(solution, eps_active)
    bad = ~(lower | upper) & (np.abs(xi) > eps_mult)
    if bad.any():
        worst = float(np.abs(xi[bad]).max())
        raise ComplementarityViolated(
            f"{int(bad.sum())} interior nodes carry multiplier mass up to {worst:.3e}"
        )
    with np.errstate(invalid="ignore"):
        v = np.clip((y - psi) / (phi - psi), 0.0, 1.0)
    return MultiplierSplit(
        lower=np.clip(xi, 0.0, None),
        upper=np.clip(-xi, 0.0, None),
        v=v,
    )


def pairing_identity_gap(
    solution: BopSolution, split: MultiplierSplit, w: np.ndarray
) -> float:
    """max of |xi.((1-v)w) - lower.w| and |xi.(v w) + upper.w| for one test vector."""
    xi = solution.xi.values
    lower_gap = abs(float(xi @ ((1.0 - split.v) * w)) - float(split.lower @ w))
    upper_gap = abs(float(xi @ (split.v * w)) + float(split.upper @ w))
    return max(lower_gap, upper_gap)


_MASKS = ("lower", "upper", "lower_strict", "upper_strict")


@dataclass(frozen=True, eq=False)
class SetPartition:
    """The contact sets of a solved point: active and strictly active at each
    obstacle. The weak and inactive sets are read off these four masks."""

    lower: np.ndarray
    upper: np.ndarray
    lower_strict: np.ndarray
    upper_strict: np.ndarray

    def __post_init__(self):
        for name in _MASKS:
            m = np.asarray(getattr(self, name), dtype=bool)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if (self.lower & self.upper).any():
            raise ComplementarityViolated("a node is active at both obstacles")
        for side in ("lower", "upper"):
            if (getattr(self, f"{side}_strict") & ~getattr(self, side)).any():
                raise ComplementarityViolated(f"{side} strict set leaves the active set")

    @property
    def lower_weak(self) -> np.ndarray:
        return self.lower & ~self.lower_strict

    @property
    def upper_weak(self) -> np.ndarray:
        return self.upper & ~self.upper_strict

    @property
    def inactive(self) -> np.ndarray:
        return ~(self.lower | self.upper)

    def counts(self) -> dict:
        return {
            name: int(getattr(self, name).sum())
            for name in (*_MASKS, "lower_weak", "upper_weak", "inactive")
        }


def classify_sets(
    solution: BopSolution,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> SetPartition:
    """Active sets by state proximity, strict subsets by multiplier mass."""
    split = split_multiplier(solution, eps_active=eps_active, eps_mult=eps_mult)
    lower, upper = _contact(solution, eps_active)
    return SetPartition(
        lower=lower,
        upper=upper,
        lower_strict=lower & (split.lower >= eps_mult),
        upper_strict=upper & (split.upper >= eps_mult),
    )


def node_flags(partition: SetPartition) -> np.ndarray:
    """Per-node string flag: 'lower' / 'upper' / 'inactive'."""
    flags = np.where(
        partition.lower, "lower", np.where(partition.upper, "upper", "inactive")
    )
    return flags


def pair_inclusion_violations(part_hi: SetPartition, part_lo: SetPartition) -> dict:
    """Violations of the set inclusions between the partitions at two controls
    u_hi >= u_lo: as the control grows, the lower active and strictly active
    sets may only shrink and the upper ones may only grow. Returns the number
    of nodes breaking each inclusion."""
    return {
        "lower_active_shrinks": int((part_hi.lower & ~part_lo.lower).sum()),
        "upper_active_grows": int((part_lo.upper & ~part_hi.upper).sum()),
        "lower_strict_shrinks": int((part_hi.lower_strict & ~part_lo.lower_strict).sum()),
        "upper_strict_grows": int((part_lo.upper_strict & ~part_hi.upper_strict).sum()),
    }


def reflection_swap_mismatches(partition: SetPartition, mirrored: SetPartition) -> int:
    """Nodes where the reflected problem's partition fails to swap the lower
    and upper sets of the original, summed over the four masks."""
    return (int((mirrored.lower != partition.upper).sum())
            + int((mirrored.upper != partition.lower).sum())
            + int((mirrored.lower_strict != partition.upper_strict).sum())
            + int((mirrored.upper_strict != partition.lower_strict).sum()))


def verify_strict_set_monotonicity(
    problem: BopProblem,
    u_hi: GridFunction,
    u_lo: GridFunction,
) -> dict:
    """Check the ordered-control set inclusions for u_hi >= u_lo.

    Expected: lower active and strictly lower active sets shrink as the
    control grows; upper ones grow. Returns per-inclusion violation counts.
    When the control kind allows it, the upper-side inclusions are re-derived
    through the reflected problem, which maps them back to lower-side ones.
    """
    if (u_hi.values < u_lo.values).any():
        raise NotMonotonePair("controls are not nodewise ordered")
    sol_hi = solve_bop(problem, u_hi)
    sol_lo = solve_bop(problem, u_lo)
    part_hi = classify_sets(sol_hi)
    part_lo = classify_sets(sol_lo)
    report = pair_inclusion_violations(part_hi, part_lo)
    report["ok"] = not any(report.values())
    report["reflection_checked"] = False
    if problem.control.kind == "identity":
        mirrored = reflect_problem(problem)
        swaps = sum(
            reflection_swap_mismatches(
                part, classify_sets(solve_bop(mirrored, sol.u.with_values(-sol.u.values))))
            for sol, part in ((sol_hi, part_hi), (sol_lo, part_lo))
        )
        report["reflection_checked"] = True
        report["reflection_swap_mismatches"] = swaps
        report["ok"] = report["ok"] and swaps == 0
    else:
        # reflection only commutes with odd control maps; record, don't fail
        report["reflection_skipped_kind"] = problem.control.kind
    return report
