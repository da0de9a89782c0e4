"""Bilateral obstacle problems on structured grids.

Solvers (projected SOR, primal-dual active set) for states confined between
two obstacles, multiplier decomposition and contact-set classification,
directional and generalized derivatives of the solution operator, adjoint
subgradients for tracking objectives, and an exactly computable ring series
exhibiting a dual multiplier whose one-sided parts carry infinite mass.
"""

from .controls import (
    PROFILES,
    ControlOperator,
    apply_control,
    apply_control_derivative,
    control_derivative_matrix,
)
from .derivatives import (
    DerivativeResult,
    directional_derivative,
    domain_for_side,
    gateaux_derivative_on_D,
    generalized_derivative,
    mosco_convergence_experiment,
)
from .grid import (
    AssembledOperator,
    Grid,
    GridFunction,
    OperatorSpec,
    assemble,
    mass_norm,
    natural_scale,
)
from .multipliers import (
    EPS_ACTIVE,
    EPS_MULT,
    MultiplierSplit,
    SetPartition,
    classify_sets,
    mirror_check,
    node_flags,
    pair_inclusion_violations,
    pairing_identity_gap,
    split_multiplier,
)
from .obstacle import (
    BopProblem,
    BopSolution,
    ObstaclePair,
    solution_residual,
    solve_bop,
    solve_vi_bounds,
)
from .oracle import solve_by_enumeration
from .problems import (
    invert_profile,
    manufactured_instance,
    mode_field,
    monotone_control_pair,
    monotone_obstacle_pair,
    random_instance,
    smooth_field,
    unit_grid,
)
from .radial_series import (
    RadialProfile,
    RingConfig,
    check_gap_bounds,
    gap_bounds,
    h1_pairing_bound,
    log_radius_gap,
    measure_mass_bound,
    pair_with_radial,
    profile_log_power,
    profile_ramp,
    profile_state,
    ring_log_radii,
    series_study,
    verify_vi_solution_property,
)
from .tracking import (
    ControlProblem,
    DescentTrace,
    Subgradient,
    adjoint_subgradient,
    descent_loop,
    objective,
)
from . import errors, reporting, verify

__version__ = "0.1.0"
