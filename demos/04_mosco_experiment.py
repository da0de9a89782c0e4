"""One-sided derivatives as limits of perturbed solves.

On a biactive instance (nodes that touch an obstacle while their multiplier
vanishes) the control-to-state map is no longer Gateaux differentiable: the
derivative from the lower side and from the upper side genuinely differ.
Each side is still the limit of reduced derivatives along monotone control
perturbations u_n = u - e/n (lower side) or u_n = u + e/n (upper side), and
this script watches those derivatives converge.
"""

import numpy as np

from biobstacle import generalized_derivative, mosco_convergence_experiment, solve_bop
from biobstacle.problems import mosco_instance, unit_grid

inst = mosco_instance(unit_grid(24, dim=2))
problem, u, h, e = inst["problem"], inst["u"], inst["h"], inst["e"]
sol = solve_bop(problem, u)
part = sol.sets
print("weak lower nodes:", int(part.lower_weak.sum()),
      " weak upper nodes:", int(part.upper_weak.sum()))

schedule = (2, 4, 8, 16, 32, 64, 128)

for side in ("lower", "upper"):
    result = mosco_convergence_experiment(sol, h, side=side, schedule=schedule, e=e)
    print(f"\nside = {side}:  dim D = {result['dim_D_limit']}")
    print("   n      error vs limit     state gap")
    for step in result["steps"]:
        print(f"{step['n']:4d}   {step['error']:.6e}   {step['state_gap']:.3e}")
    print("tail nonincreasing:", result["errors_nonincreasing_tail"])

# the two sides disagree exactly because of the weak contact nodes
eta_lower = generalized_derivative(sol, h, "lower").eta.values
eta_upper = generalized_derivative(sol, h, "upper").eta.values
print("\nmax |eta_lower - eta_upper|:", float(np.abs(eta_lower - eta_upper).max()))
disagree = np.abs(eta_lower - eta_upper) > 1e-12
weak = part.lower_weak | part.upper_weak
print("nodes where they differ:", int(disagree.sum()),
      "(weak contact nodes:", int(weak.sum()), ")")
