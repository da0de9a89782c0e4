"""Multiplier decomposition and the contact sets of a solved point.

The residual xi = A y - f(u) splits into nonnegative parts
xi = xi_lower - xi_upper supported on the respective active sets. The split
is certified through the interpolation weight v = (y - psi)/(phi - psi):
for any test vector w, xi . ((1-v) w) = xi_lower . w and
xi . (v w) = -(xi_upper . w), which is how the two parts are told apart
without ever looking at obstacle names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ComplementarityViolated
from .obstacle import BopSolution, ObstaclePair, solve_bop

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


def _contact(solution: BopSolution) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) contact masks: a node within EPS_ACTIVE of an obstacle
    touches it, but only the strictly nearer obstacle, so no node touches
    both and the rule commutes with reflection even where the obstacles
    are closer than 2*EPS_ACTIVE. Refuses (ComplementarityViolated)
    multiplier mass at nodes in contact with neither obstacle, where neither
    a split nor a partition means anything."""
    pair, y, xi = solution.problem.obstacles, solution.y.values, solution.xi.values
    gap_lower, gap_upper = y - pair.psi, pair.phi - y
    lower = (gap_lower <= EPS_ACTIVE) & (gap_lower < gap_upper)
    upper = (gap_upper <= EPS_ACTIVE) & (gap_upper < gap_lower)
    bad = ~(lower | upper) & (np.abs(xi) > EPS_MULT)
    if bad.any():
        worst = float(np.abs(xi[bad]).max())
        raise ComplementarityViolated(
            f"{int(bad.sum())} interior nodes carry multiplier mass up to {worst:.3e}"
        )
    return lower, upper


def split_multiplier(solution: BopSolution) -> MultiplierSplit:
    """Decompose xi into its obstacle-attached parts; refuses mass off contact."""
    _contact(solution)
    pair, xi = solution.problem.obstacles, solution.xi.values
    with np.errstate(invalid="ignore"):
        v = np.clip((solution.y.values - pair.psi) / (pair.phi - pair.psi), 0.0, 1.0)
    return MultiplierSplit(lower=np.clip(xi, 0.0, None), upper=np.clip(-xi, 0.0, None), v=v)


def pairing_identity_gap(solution: BopSolution, w: np.ndarray) -> float:
    """max of |xi.((1-v)w) - lower.w| and |xi.(v w) + upper.w| for one test
    vector, with the split read off the solution."""
    split = split_multiplier(solution)
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


def classify_sets(solution: BopSolution) -> SetPartition:
    """Active sets by state proximity, strict subsets by multiplier mass."""
    lower, upper = _contact(solution)
    xi = solution.xi.values
    return SetPartition(
        lower=lower,
        upper=upper,
        lower_strict=lower & (xi >= EPS_MULT),
        upper_strict=upper & (-xi >= EPS_MULT),
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


def mirror_check(solution: BopSolution) -> tuple[float, int]:
    """Solve the mirror problem, obstacles (-phi, -psi) with the same operator
    and control, at -u, and compare it with the solution and its sets.

    Every control map is odd (f(-u) = -f(u), bit for bit), so the mirror
    state is exactly -y and its lower and upper sets are the original's
    upper and lower ones. Returns (max |y_mirror + y|, number of nodes where
    the four masks fail to swap, summed over the masks).
    """
    problem, part = solution.problem, solution.sets
    pair = problem.obstacles
    mirror = replace(problem, obstacles=ObstaclePair(pair.grid, -pair.phi, -pair.psi))
    sol_m = solve_bop(mirror, solution.u.with_values(-solution.u.values))
    part_m = sol_m.sets
    gap = float(np.abs(sol_m.y.values + solution.y.values).max())
    mismatches = (int((part_m.lower != part.upper).sum())
                  + int((part_m.upper != part.lower).sum())
                  + int((part_m.lower_strict != part.upper_strict).sum())
                  + int((part_m.upper_strict != part.lower_strict).sum()))
    return gap, mismatches
