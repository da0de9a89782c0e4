"""Multiplier decomposition, active-set classification, and the critical cone.

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

EPS_ACTIVE = 1e-8   # |y - obstacle| below this counts as contact
EPS_MULT = 1e-7     # multiplier mass above this counts as strictly active

# critical-cone node classes
FREE, NONNEG, NONPOS, ZERO = 0, 1, 2, 3
_CLASS_NAMES = {FREE: "free", NONNEG: "nonneg", NONPOS: "nonpos", ZERO: "zero"}


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


def split_multiplier(
    solution: BopSolution,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> MultiplierSplit:
    """Decompose xi into its obstacle-attached parts.

    Refuses (ComplementarityViolated) if the multiplier carries mass at nodes
    that are clearly away from both obstacles, since the decomposition is
    meaningless for such data.
    """
    y = solution.y.values
    xi = solution.xi.values
    psi = solution.problem.obstacles.psi
    phi = solution.problem.obstacles.phi
    interior = (y - psi > eps_active) & (phi - y > eps_active)
    bad = interior & (np.abs(xi) > eps_mult)
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


@dataclass(frozen=True, eq=False)
class SetPartition:
    """Boolean masks for the seven node sets of a solved instance."""

    lower: np.ndarray
    upper: np.ndarray
    lower_strict: np.ndarray
    upper_strict: np.ndarray
    lower_weak: np.ndarray
    upper_weak: np.ndarray
    inactive: np.ndarray
    eps_active: float
    eps_mult: float

    def __post_init__(self):
        masks = {}
        for name in ("lower", "upper", "lower_strict", "upper_strict",
                     "lower_weak", "upper_weak", "inactive"):
            m = np.asarray(getattr(self, name), dtype=bool)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
            masks[name] = m
        if (masks["lower"] & masks["upper"]).any():
            raise ComplementarityViolated("a node is active at both obstacles")
        for side in ("lower", "upper"):
            if (masks[f"{side}_strict"] & ~masks[side]).any():
                raise ComplementarityViolated(f"{side} strict set leaves the active set")
            if ((masks[f"{side}_weak"] ^ (masks[side] & ~masks[f"{side}_strict"]))).any():
                raise ComplementarityViolated(f"{side} weak set is not active minus strict")
        if (masks["inactive"] ^ ~(masks["lower"] | masks["upper"])).any():
            raise ComplementarityViolated("inactive set is not the complement of contact")

    @property
    def strict(self) -> np.ndarray:
        return self.lower_strict | self.upper_strict

    def counts(self) -> dict:
        return {
            name: int(getattr(self, name).sum())
            for name in ("lower", "upper", "lower_strict", "upper_strict",
                         "lower_weak", "upper_weak", "inactive")
        }


def classify_sets(
    solution: BopSolution,
    eps_active: float = EPS_ACTIVE,
    eps_mult: float = EPS_MULT,
) -> SetPartition:
    """Active sets by state proximity, strict subsets by multiplier mass."""
    y = solution.y.values
    psi = solution.problem.obstacles.psi
    phi = solution.problem.obstacles.phi
    split = split_multiplier(solution, eps_active=eps_active, eps_mult=eps_mult)
    lower = y - psi <= eps_active
    upper = phi - y <= eps_active
    lower_strict = lower & (split.lower >= eps_mult)
    upper_strict = upper & (split.upper >= eps_mult)
    return SetPartition(
        lower=lower,
        upper=upper,
        lower_strict=lower_strict,
        upper_strict=upper_strict,
        lower_weak=lower & ~lower_strict,
        upper_weak=upper & ~upper_strict,
        inactive=~(lower | upper),
        eps_active=eps_active,
        eps_mult=eps_mult,
    )


def node_flags(partition: SetPartition) -> np.ndarray:
    """Per-node string flag: 'lower' / 'upper' / 'inactive'."""
    flags = np.where(
        partition.lower, "lower", np.where(partition.upper, "upper", "inactive")
    )
    return flags


@dataclass(frozen=True, eq=False)
class CriticalCone:
    """Per-node sign constraints for directional derivatives.

    free on the inactive set, nonneg on the weakly active lower set,
    nonpos on the weakly active upper set, zero on the strictly active sets.
    """

    classes: np.ndarray

    def __post_init__(self):
        cls = np.asarray(self.classes, dtype=np.int8)
        cls.setflags(write=False)
        object.__setattr__(self, "classes", cls)

    @classmethod
    def from_partition(cls, partition: SetPartition) -> "CriticalCone":
        classes = np.full(partition.lower.size, FREE, dtype=np.int8)
        classes[partition.lower_weak] = NONNEG
        classes[partition.upper_weak] = NONPOS
        classes[partition.strict] = ZERO
        return cls(classes)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.where(np.isin(self.classes, (NONNEG, ZERO)), 0.0, -np.inf)
        hi = np.where(np.isin(self.classes, (NONPOS, ZERO)), 0.0, np.inf)
        return lo, hi

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        lo, hi = self.bounds()
        return bool((z >= lo - tol).all() and (z <= hi + tol).all())

    def describe(self) -> dict:
        return {
            name: int((self.classes == code).sum())
            for code, name in _CLASS_NAMES.items()
        }


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
    report = {
        "lower_active_shrinks": int((part_hi.lower & ~part_lo.lower).sum()),
        "upper_active_grows": int((part_lo.upper & ~part_hi.upper).sum()),
        "lower_strict_shrinks": int((part_hi.lower_strict & ~part_lo.lower_strict).sum()),
        "upper_strict_grows": int((part_lo.upper_strict & ~part_hi.upper_strict).sum()),
    }
    report["ok"] = not any(v for k, v in report.items() if k != "ok")
    report["reflection_checked"] = False
    if problem.control.kind == "identity":
        mirrored = reflect_problem(problem)
        swaps = 0
        for sol, opart in ((sol_hi, part_hi), (sol_lo, part_lo)):
            mpart = classify_sets(solve_bop(mirrored, sol.u.with_values(-sol.u.values)))
            swaps += int((mpart.lower != opart.upper).sum())
            swaps += int((mpart.upper != opart.lower).sum())
            swaps += int((mpart.lower_strict != opart.upper_strict).sum())
            swaps += int((mpart.upper_strict != opart.lower_strict).sum())
        report["reflection_checked"] = True
        report["reflection_swap_mismatches"] = swaps
        report["ok"] = report["ok"] and swaps == 0
    else:
        # reflection only commutes with odd control maps; record, don't fail
        report["reflection_skipped_kind"] = problem.control.kind
    return report
