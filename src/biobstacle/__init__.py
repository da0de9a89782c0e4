"""Bilateral obstacle problems on structured grids.

Solvers (projected SOR, primal-dual active set) for states confined between
two obstacles, multiplier decomposition and contact-set classification,
directional and generalized derivatives of the solution operator, adjoint
subgradients for tracking objectives, and an exactly computable ring series
exhibiting a dual multiplier whose one-sided parts carry infinite mass.

The root re-exports the operations that the demos and the benchmark call;
types, builders and constants are imported from their modules.
"""

from .derivatives import (
    directional_derivative,
    gateaux_derivative_on_D,
    mosco_convergence_experiment,
)
from .multipliers import (
    classify_sets,
    node_flags,
    pairing_identity_gap,
    split_multiplier,
)
from .obstacle import (
    solution_residual,
    solve_bop,
)
from .radial_series import (
    RingConfig,
    check_gap_bounds,
    measure_mass_bound,
    pair_with_radial,
    profile_log_power,
    profile_ramp,
    series_study,
    verify_vi_solution_property,
)
from .tracking import (
    adjoint_subgradient,
    descent_loop,
    objective,
)

__version__ = "0.1.0"
