"""Monotone control-to-load maps f.

Every kind maps nodal control values to a load vector (functional) and is
nodewise increasing and odd. The mass weight prod(h) sits here so that
f(u) . z approximates the integral of f(u)*z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidSpec
from .grid import Grid, GridFunction

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


def apply_control(control: ControlOperator, u: GridFunction) -> GridFunction:
    """Load vector f(u)."""
    if u.grid != control.grid:
        raise GridMismatch("control and argument live on different grids")
    if control.kind == "identity":
        return u.with_values(control.grid.mass * u.values)
    return u.with_values(control.grid.mass * PROFILES[control.profile][0](u.values))


def control_slope(control: ControlOperator, u: GridFunction) -> np.ndarray:
    """Nodewise slope mass * f'(u) (closed form, no differencing): the load
    f'(u) h is control_slope(control, u) * h.values, and the diagonal matrix
    f'(u) is its own adjoint."""
    if u.grid != control.grid:
        raise GridMismatch("control and argument live on different grids")
    if control.kind == "identity":
        return np.full(control.grid.total, control.grid.mass)
    return control.grid.mass * PROFILES[control.profile][1](u.values)
