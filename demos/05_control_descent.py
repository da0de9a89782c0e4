"""Subgradient descent on a target-tracking objective.

The objective J(u) = 0.5 ||y(u) - y_target||^2 + 0.5 alpha ||u||^2 is only
directionally differentiable where the contact sets degenerate, but an
adjoint state computed on one side always yields a usable subgradient. An
Armijo line search along its negative makes steady progress.
"""

import numpy as np

from biobstacle import (
    ControlProblem,
    adjoint_subgradient,
    classify_sets,
    descent_loop,
    objective,
    solve_bop,
)
from biobstacle.problems import smooth_field, strict_instance, unit_grid

inst = strict_instance(unit_grid(20, dim=2))
problem, u_star = inst["problem"], inst["u"]
grid = problem.grid

rng = np.random.default_rng(5)
y_amp = float(np.abs(inst["y_star"].values).max())
y_target = grid.function(
    inst["y_star"].values - smooth_field(grid, rng, amplitude=10.0 * y_amp).values
)
cp = ControlProblem(bop=problem, y_target=y_target, alpha=1e-10)

u0 = grid.function(u_star.values + smooth_field(grid, rng, amplitude=0.1).values)
# the objective and its subgradient are read off one solve at u0
sol0 = solve_bop(problem, u0)
print("objective at the start:", objective(cp, sol0))

sub = adjoint_subgradient(cp, sol0, classify_sets(sol0), side="lower")
print("initial subgradient norm:", float(np.linalg.norm(sub.g.values)))
print("adjoint state vanishes on the contact sets:",
      float(np.abs(sub.q.values[~sub.D_used]).max()))

trace = descent_loop(cp, u0, steps=25, side="lower")
print("\niter   objective        step       grad norm")
for row in trace.rows[::5]:
    print(f"{row['iter']:4d}   {row['objective']:.6e}   {row['step']:.2e}"
          f"   {row['grad_norm']:.3e}")

objectives = [row["objective"] for row in trace.rows]
print("\nfinal objective:", objectives[-1])
print("strictly decreasing:",
      all(b < a for a, b in zip(objectives, objectives[1:])))
print("termination:", trace.termination)
