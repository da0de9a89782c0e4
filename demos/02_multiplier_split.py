"""Decompose the multiplier into its lower and upper contact parts.

A manufactured instance places the contact sets by design: the state touches
the lower obstacle on one square patch and the upper obstacle on another, so
we know exactly where each part of xi = xi_lower - xi_upper must live.
"""

import numpy as np

from biobstacle import pairing_identity_gap, solve_bop, split_multiplier
from biobstacle.problems import manufactured_instance, unit_grid

inst = manufactured_instance(unit_grid(24, dim=2))
problem, u = inst["problem"], inst["u"]

sol = solve_bop(problem, u)
print("state recovered to:", float(np.abs(sol.y.values - inst["y_star"].values).max()))
print("multiplier recovered to:",
      float(np.abs(sol.xi.values - inst["xi_star"].values).max()))

# split xi by the relative position v = (y - psi)/(phi - psi): v = 0 on the
# lower contact, v = 1 on the upper contact
split = split_multiplier(sol)
print("\nsplit is exact:",
      bool((split.lower - split.upper == sol.xi.values).all()))
print("lower part supported on", int((split.lower > 0).sum()), "nodes,",
      "designed patch has", int(inst["strict_lower"].sum()))
print("upper part supported on", int((split.upper > 0).sum()), "nodes,",
      "designed patch has", int(inst["strict_upper"].sum()))

# both parts are nonnegative and never overlap
print("min of either part:", float(min(split.lower.min(), split.upper.min())))
print("overlapping support nodes:",
      int(((split.lower > 0) & (split.upper > 0)).sum()))

# pairing identity: testing xi against (1 - v) w isolates the lower part,
# testing against v w isolates (minus) the upper part
rng = np.random.default_rng(7)
worst = max(pairing_identity_gap(sol, rng.standard_normal(problem.grid.total))
            for _ in range(10))
print("worst pairing identity gap over 10 random w:", worst)

part = sol.sets
print("\nstrict lower flags match the design:",
      bool((part.lower_strict == inst["strict_lower"]).all()))
print("strict upper flags match the design:",
      bool((part.upper_strict == inst["strict_upper"]).all()))
