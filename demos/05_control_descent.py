"""Subgradient descent on a target-tracking objective.

The objective J(u) = 0.5 ||y(u) - y_target||^2 + 0.5 alpha ||u||^2 is only
directionally differentiable where the contact sets degenerate, but an
adjoint state computed on one side always yields a usable subgradient. An
Armijo line search along its negative makes steady progress.
"""

import numpy as np

from biobstacle import adjoint_subgradient, descent_loop, objective, solve_bop
from biobstacle.problems import control_instance, perturbed_control, unit_grid

rng = np.random.default_rng(5)
inst = control_instance(unit_grid(20, dim=2), rng)
cp = inst["control_problem"]
u0 = perturbed_control(inst, rng)
# the objective and its subgradient are read off one solve at u0
sol0 = solve_bop(cp.bop, u0)
print("objective at the start:", objective(cp, sol0))

sub = adjoint_subgradient(cp, sol0, side="lower")
print("initial subgradient norm:", float(np.linalg.norm(sub.g.values)))
print("adjoint state vanishes on the contact sets:",
      float(np.abs(sub.q.values[~sub.D_used]).max()))

trace = descent_loop(cp, u0, steps=25, side="lower")
print("\niter   objective        step       grad norm")
for row in trace.rows[::5]:
    print(f"{row['iter']:4d}   {row['objective']:.6e}   {row['step']:.2e}"
          f"   {row['grad_norm']:.3e}")

print("\nfinal objective:", trace.objectives[-1])
print("strictly decreasing from the start:", trace.strictly_decreasing)
print("termination:", trace.termination)
