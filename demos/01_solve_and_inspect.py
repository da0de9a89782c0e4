"""Solve one random bilateral obstacle instance and inspect the solution.

The state y is pinned between two obstacles psi <= y <= phi. Wherever y sits
strictly between them the PDE A y = f(u) holds exactly; on the contact sets
the multiplier xi = A y - f(u) records the force the obstacle exerts.
"""

import numpy as np

from biobstacle import node_flags, solve_bop, solution_residual
from biobstacle.problems import random_instance, unit_grid

rng = np.random.default_rng(42)
grid = unit_grid(24, dim=2)
problem, u = random_instance(grid, rng)

print("grid:", grid.shape, "->", grid.total, "interior nodes")
print("operator kind:", problem.operator.spec.kind)
print("control kind:", problem.control.kind)

# the primal-dual active set method is the default solver
sol = solve_bop(problem, u)
print("\npdas converged in", sol.iterations, "set iterations")
print("natural residual:", solution_residual(sol))

# the projected SOR sweep reaches the same state
sor = solve_bop(problem, u, method="psor")
print("psor iterations:", sor.iterations)
print("max |y_pdas - y_psor|:", float(np.abs(sol.y.values - sor.y.values).max()))

# partition the nodes by which constraint is active; the solution classifies
# its contact sets on first use and keeps them
part = sol.sets
flags = node_flags(part)
for label in ("lower", "inactive", "upper"):
    print(f"{label:>8}: {int((flags == label).sum())} nodes")

# complementarity in numbers: xi >= 0 on lower contact, <= 0 on upper,
# and |xi| at solver-noise level everywhere the state is free
print("\nmin xi on lower contact:", float(sol.xi.values[part.lower].min())
      if part.lower.any() else "no lower contact")
print("max xi on upper contact:", float(sol.xi.values[part.upper].max())
      if part.upper.any() else "no upper contact")
print("max |xi| on inactive set:", float(np.abs(sol.xi.values[part.inactive]).max()))
