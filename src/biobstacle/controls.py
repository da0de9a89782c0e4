"""Monotone control-to-load maps f.

Every kind maps nodal control values to a load vector (functional) and is
nodewise increasing and odd. The mass weight prod(h) sits here so that
f(u) . z approximates the integral of f(u)*z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, InvalidSpec
from .grid import Grid, GridFunction, require_same_grid

CONTROL_KINDS = ("identity", "smooth_monotone_superposition")


def _id_plus_arctan(t):
    return t + np.arctan(t)


def _id_plus_arctan_prime(t):
    return 1.0 + 1.0 / (1.0 + t * t)


def _scaled_softsign(t):
    # increasing, bounded derivative, strictly positive slope
    return 2.0 * t + t / (1.0 + np.abs(t))


def _scaled_softsign_prime(t):
    return 2.0 + 1.0 / (1.0 + np.abs(t)) ** 2


PROFILES = {
    "id_plus_arctan": (_id_plus_arctan, _id_plus_arctan_prime),
    "scaled_softsign": (_scaled_softsign, _scaled_softsign_prime),
}


@dataclass(frozen=True, eq=False)
class ControlOperator:
    """Increasing map from controls to load vectors; both kinds are odd.

    identity:                      f(u) = mass * u
    smooth_monotone_superposition: f(u) = mass * profile(u) nodewise
    """

    grid: Grid
    kind: str = "identity"
    profile: str = "id_plus_arctan"

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise InvalidSpec(f"unknown control kind {self.kind!r}")
        if self.kind == "smooth_monotone_superposition" and self.profile not in PROFILES:
            raise InvalidSpec(f"unknown profile {self.profile!r}")

    def _image(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return u.copy()
        g, _ = PROFILES[self.profile]
        return g(u)

    def _slope(self, u: np.ndarray) -> np.ndarray:
        """Nodewise derivative of the map before the mass weight."""
        if self.kind == "identity":
            return np.ones_like(u)
        _, gp = PROFILES[self.profile]
        return gp(u)


def apply_control(control: ControlOperator, u: GridFunction) -> GridFunction:
    """Load vector f(u)."""
    if u.grid != control.grid:
        raise GridMismatch("control and argument live on different grids")
    return u.with_values(control.grid.mass * control._image(u.values))


def apply_control_derivative(
    control: ControlOperator, u: GridFunction, h: GridFunction
) -> GridFunction:
    """Load vector f'(u) h (closed form, no differencing)."""
    require_same_grid(u, h)
    return h.with_values(control_derivative_matrix(control, u) @ h.values)


def control_derivative_matrix(control: ControlOperator, u: GridFunction) -> sp.csr_matrix:
    """Sparse matrix of h -> f'(u) h, used by adjoint computations."""
    if u.grid != control.grid:
        raise GridMismatch("control and argument live on different grids")
    return sp.diags(control.grid.mass * control._slope(u.values)).tocsr()
