"""Instance generators: random solver-test problems and manufactured
instances with known solution, multiplier, and contact structure.

The manufactured recipe pins the obstacles to a chosen state on chosen
patches and back-computes the control from the residual: given a state
y*, a multiplier xi* supported on the patches with the right signs, the
control image must equal A y* - xi*, which the superposition profiles can
invert nodewise because their slopes are bounded below by 1.

The derivative, Mosco and control experiments build their instances here,
so the command line and the verification criteria share one recipe each.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.sparse.linalg import spsolve

from .controls import PROFILES, ControlOperator, apply_control
from .errors import InvalidSpec
from .grid import OPERATOR_KINDS, Grid, GridFunction, OperatorSpec, assemble
from .obstacle import BopProblem, ObstaclePair
from .tracking import ControlProblem


def unit_grid(n: int, dim: int = 2) -> Grid:
    return Grid(shape=(n,) * dim)


def smooth_field(grid: Grid, rng: np.random.Generator,
                 amplitude: float = 1.0) -> GridFunction:
    """Random combination of three low-frequency Dirichlet sine modes."""
    coords = grid.coordinates()
    values = np.zeros(grid.total)
    for _ in range(3):
        freqs = rng.integers(1, 4, size=grid.dim)
        weight = rng.uniform(-1.0, 1.0)
        term = np.ones(grid.total)
        for axis in range(grid.dim):
            term *= np.sin(math.pi * freqs[axis] * coords[:, axis])
        values += weight * term
    peak = np.abs(values).max()
    if peak > 0:
        values *= amplitude / peak
    return grid.function(values)


def mode_field(grid: Grid, amplitude: float) -> GridFunction:
    """Deterministic first Dirichlet mode, positive everywhere; a probe
    direction guaranteed to be active on every interior contact patch."""
    coords = grid.coordinates()
    values = amplitude * np.ones(grid.total)
    for axis in range(grid.dim):
        values *= np.sin(math.pi * coords[:, axis])
    return grid.function(values)


def random_operator(grid: Grid, rng: np.random.Generator,
                    kinds: Iterable[str] = OPERATOR_KINDS) -> OperatorSpec:
    kind = str(rng.choice(list(kinds)))
    if kind == "laplacian":
        return OperatorSpec(kind="laplacian")
    if kind == "laplacian_plus_reaction":
        return OperatorSpec(kind=kind, reaction=float(rng.uniform(0.0, 2.0)))
    limit = 2.0 / max(grid.spacing)  # mesh-Peclet bound on each velocity
    velocity = tuple(float(v) for v in rng.uniform(-0.5, 0.5, grid.dim) * limit)
    return OperatorSpec(kind=kind, convection=velocity)


def random_control(grid: Grid, rng: np.random.Generator,
                   kinds: Iterable[str] = ("identity", "smooth_monotone_superposition", "affine_monotone"),
                   ) -> ControlOperator:
    kind = rng.choice(list(kinds))
    if kind == "identity":
        return ControlOperator(grid, kind="identity")
    if kind == "smooth_monotone_superposition":
        profile = rng.choice(sorted(PROFILES))
        return ControlOperator(grid, kind="smooth_monotone_superposition", profile=str(profile))
    weight = float(rng.uniform(0.2, 2.0))
    offset = smooth_field(grid, rng, amplitude=0.3).values
    return ControlOperator(grid, kind="affine_monotone", weight=weight, offset=offset)


def random_instance(grid: Grid, rng: np.random.Generator,
                    operator_kinds: Iterable[str] = OPERATOR_KINDS,
                    control_kinds: Iterable[str] = ("identity", "smooth_monotone_superposition"),
                    active_fraction: float = 0.25) -> tuple[BopProblem, GridFunction]:
    """Random problem whose obstacles cut into the unconstrained solution.

    The obstacle levels sit at quantiles of the free solution, so roughly
    active_fraction of the nodes end up in contact on each side; a smooth
    wiggle keeps the contact sets irregular.
    """
    operator = assemble(grid, random_operator(grid, rng, operator_kinds))
    control = random_control(grid, rng, control_kinds)
    u = smooth_field(grid, rng, amplitude=float(rng.uniform(0.5, 2.0)))
    free = spsolve(operator.matrix.tocsc(), apply_control(control, u).values)
    span = float(free.max() - free.min())
    # the scale floor keeps the obstacles apart even when the free solution
    # degenerates to a near-constant (possible on very coarse grids)
    scale = max(span, 0.1 * float(np.abs(free).max()), 1e-9)
    lo_level = float(np.quantile(free, active_fraction))
    hi_level = float(np.quantile(free, 1.0 - active_fraction))
    wiggle = smooth_field(grid, rng, amplitude=0.05 * scale).values
    psi = np.minimum(lo_level + wiggle, hi_level - 0.3 * span)
    phi = np.maximum(hi_level + wiggle, psi + 0.1 * scale)
    problem = BopProblem(
        operator=operator,
        control=control,
        obstacles=ObstaclePair(grid, psi, phi),
    )
    return problem, u


def monotone_control_pair(grid: Grid, rng: np.random.Generator,
                          ) -> tuple[GridFunction, GridFunction]:
    """(u_hi, u_lo) with u_hi >= u_lo nodewise; the bump is strictly positive
    on a random subregion so the pair is not degenerate."""
    u_lo = smooth_field(grid, rng, amplitude=1.0)
    bump = smooth_field(grid, rng, amplitude=1.0).values
    u_hi = u_lo.values + np.abs(bump) + float(rng.uniform(0.0, 0.5))
    return grid.function(u_hi), u_lo


def monotone_obstacle_pair(problem: BopProblem, rng: np.random.Generator,
                           ) -> tuple[ObstaclePair, ObstaclePair]:
    """(raised, original): lower obstacle raised by a nonnegative bump while
    staying strictly below phi."""
    grid = problem.grid
    pair = problem.obstacles
    room = pair.psi + 0.5 * (pair.phi - pair.psi)
    bump = np.abs(smooth_field(grid, rng, amplitude=1.0).values)
    scale = float(rng.uniform(0.1, 0.9))
    raised_psi = np.minimum(pair.psi + scale * bump, room)
    raised = ObstaclePair(grid, raised_psi, pair.phi)
    return raised, pair


def _patch_mask(grid: Grid, box: tuple[tuple[float, float], ...]) -> np.ndarray:
    coords = grid.coordinates()
    mask = np.ones(grid.total, dtype=bool)
    for axis in range(grid.dim):
        lo, hi = box[axis]
        mask &= (coords[:, axis] >= lo) & (coords[:, axis] <= hi)
    return mask


def invert_profile(profile: str, target: np.ndarray) -> np.ndarray:
    """Solve g(t) = target nodewise for the named superposition profile.

    Every profile is odd with slope >= 1, so |root| <= |target| and
    [-|target| - 1, |target| + 1] brackets it; bisection narrows the bracket
    and Newton polishes.
    """
    fn, deriv = PROFILES[profile]
    target = np.asarray(target, dtype=float)
    lo = -np.abs(target) - 1.0
    hi = np.abs(target) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high_side = fn(mid) > target
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
    t = 0.5 * (lo + hi)
    for _ in range(3):
        t = t - (fn(t) - target) / deriv(t)
    residual = np.abs(fn(t) - target).max()
    if residual > 1e-10:
        raise InvalidSpec(f"profile inversion stalled at residual {residual:.2e}")
    return t


DEFAULT_LOWER_BOX = ((0.15, 0.40), (0.15, 0.40))
DEFAULT_UPPER_BOX = ((0.60, 0.85), (0.60, 0.85))
DEFAULT_WEAK_LOWER_BOX = ((0.60, 0.80), (0.10, 0.30))
DEFAULT_WEAK_UPPER_BOX = ((0.10, 0.30), (0.60, 0.80))


def manufactured_instance(grid: Grid, biactive: bool = False) -> dict:
    """Instance with known solution y*, multiplier xi*, and contact patches.

    The operator is -Laplace + 1 and the control map is the id_plus_arctan
    superposition. Strict contact: xi* = +sigma on the lower patch, -sigma on
    the upper patch, zero elsewhere; sigma = 5 * mass so the multiplier is
    O(5) in control units. With biactive=True two extra patches touch their
    obstacle with zero multiplier (weakly active nodes).

    The state amplitude is tied to the node mass so the recovered control is
    O(1), where the superposition profiles are genuinely nonlinear.
    """
    if grid.dim != 2:
        raise InvalidSpec("manufactured instances are built on 2D grids")
    operator = assemble(
        grid, OperatorSpec(kind="laplacian_plus_reaction", reaction=1.0)
    )
    coords = grid.coordinates()
    x, yy = coords[:, 0], coords[:, 1]
    y_amp = 0.05 * grid.mass
    y_star = y_amp * (
        np.sin(math.pi * x) * np.sin(math.pi * yy)
        + 0.5 * np.sin(2.0 * math.pi * x) * np.sin(math.pi * yy)
    )

    strict_lower = _patch_mask(grid, DEFAULT_LOWER_BOX)
    strict_upper = _patch_mask(grid, DEFAULT_UPPER_BOX)
    weak_lower = _patch_mask(grid, DEFAULT_WEAK_LOWER_BOX) if biactive else np.zeros(grid.total, bool)
    weak_upper = _patch_mask(grid, DEFAULT_WEAK_UPPER_BOX) if biactive else np.zeros(grid.total, bool)
    weak_lower &= ~(strict_lower | strict_upper)
    weak_upper &= ~(strict_lower | strict_upper | weak_lower)

    sigma = 5.0 * grid.mass
    xi_star = np.zeros(grid.total)
    xi_star[strict_lower] = sigma
    xi_star[strict_upper] = -sigma

    # The off-patch gap is absolute (state units): large relative to the tiny
    # state so perturbation experiments never create contact off the patches.
    gap = 0.05
    psi = y_star - gap * (~(strict_lower | weak_lower)).astype(float)
    phi = y_star + gap * (~(strict_upper | weak_upper)).astype(float)

    image = operator.matrix @ y_star - xi_star  # required control image, with mass
    u_star = invert_profile("id_plus_arctan", image / grid.mass)
    problem = BopProblem(
        operator=operator,
        control=ControlOperator(grid, kind="smooth_monotone_superposition",
                                profile="id_plus_arctan"),
        obstacles=ObstaclePair(grid, psi, phi),
    )
    return {
        "problem": problem,
        "u": grid.function(u_star),
        "y_star": grid.function(y_star),
        "xi_star": grid.function(xi_star),
        "strict_lower": strict_lower,
        "strict_upper": strict_upper,
        "weak_lower": weak_lower,
        "weak_upper": weak_upper,
        "sigma": sigma,
    }


def strict_instance(grid: Grid) -> dict:
    return manufactured_instance(grid, biactive=False)


def biactive_instance(grid: Grid) -> dict:
    return manufactured_instance(grid, biactive=True)


def derivative_instance(grid: Grid, amplitude: float = 50.0) -> dict:
    """Strict-contact instance plus the mode-field probe direction "h"."""
    inst = strict_instance(grid)
    inst["h"] = mode_field(grid, amplitude)
    return inst


def mosco_instance(grid: Grid) -> dict:
    """Biactive instance plus the probe "h" and the control perturbation
    "e" = 5 of the Mosco schedule u_n = u -+ e/n."""
    inst = biactive_instance(grid)
    inst["h"] = mode_field(grid, 50.0)
    inst["e"] = grid.constant(5.0)
    return inst


def control_instance(grid: Grid, rng: np.random.Generator) -> dict:
    """Strict-contact instance plus a tracking problem "control_problem".

    The target is y* minus a smooth field, drawn from rng, whose peak is ten
    times that of y*.
    """
    inst = strict_instance(grid)
    y_amp = float(np.abs(inst["y_star"].values).max())
    y_target = grid.function(
        inst["y_star"].values
        - smooth_field(grid, rng, amplitude=10.0 * y_amp).values
    )
    inst["control_problem"] = ControlProblem(bop=inst["problem"],
                                             y_target=y_target, alpha=1e-10)
    return inst


def perturbed_control(inst: dict, rng: np.random.Generator) -> GridFunction:
    """A generic control near the manufactured one: u* + smooth_field(0.1)."""
    grid = inst["problem"].grid
    return grid.function(
        inst["u"].values + smooth_field(grid, rng, amplitude=0.1).values
    )
