"""Three routes to the derivative of the control-to-state map.

Under strict complementarity (every contact node carries a genuinely
nonzero multiplier) the directional derivative solves a variational
inequality over the critical cone, but that VI collapses to a plain linear
system on the inactive set. This script computes both, confirms they agree
to solver precision, and checks first-order finite differences against them.
"""

import numpy as np

from biobstacle import (
    classify_sets,
    directional_derivative,
    gateaux_derivative_on_D,
    solve_bop,
)
from biobstacle.problems import mode_field, strict_instance, unit_grid

inst = strict_instance(unit_grid(24, dim=2))
problem, u = inst["problem"], inst["u"]
sol = solve_bop(problem, u)
part = classify_sets(sol)

print("weak contact nodes (must be 0 for strict complementarity):",
      int((part.lower_weak | part.upper_weak).sum()))

h = mode_field(problem.grid, 50.0)

# route 1: cone-constrained VI
cone = directional_derivative(sol, part, h)
# route 2: reduced linear system on the inactive nodes
reduced = gateaux_derivative_on_D(sol, part, h)

gap = float(np.abs(cone.eta.values - reduced.eta.values).max())
print("cone VI vs reduced system, max gap:", gap)
print("dim of the reduced domain D:", int(reduced.D_used.sum()),
      "of", problem.grid.total, "nodes")

# route 3: one-sided difference quotients of the solver itself
print("\n   t        max |(y(u+th) - y(u))/t - eta|")
errors = []
for t in (1e-2, 1e-3, 1e-4):
    u_t = u.with_values(u.values + t * h.values)
    y_t = solve_bop(problem, u_t).y.values
    err = float(np.abs((y_t - sol.y.values) / t - reduced.eta.values).max())
    errors.append(err)
    print(f"{t:8.0e}   {err:.6e}")

order = float(np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errors), 1)[0])
print("observed convergence order:", round(order, 3))
