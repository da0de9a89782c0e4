"""Monotone control-to-load maps f.

Every kind maps nodal control values to a load vector (functional) and is
nodewise increasing. The mass weight prod(h) sits here so that
f(u) . z approximates the integral of f(u)*z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, InvalidSpec
from .grid import Grid, GridFunction, require_same_grid

CONTROL_KINDS = ("identity", "affine_monotone", "smooth_monotone_superposition")


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
    """Increasing map from controls to load vectors.

    identity:                      f(u) = mass * u
    affine_monotone:               f(u) = mass * (W u + offset), W >= 0 entrywise
    smooth_monotone_superposition: f(u) = mass * profile(u) nodewise
    """

    grid: Grid
    kind: str = "identity"
    weight: object = None          # scalar or (N,N) nonnegative array/sparse
    offset: object = 0.0           # scalar or (N,) array
    profile: str = "id_plus_arctan"

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise InvalidSpec(f"unknown control kind {self.kind!r}")
        if self.kind == "affine_monotone":
            w = self.weight if self.weight is not None else 1.0
            if np.isscalar(w):
                if w < 0:
                    raise InvalidSpec("affine weight must be nonnegative")
            else:
                w = sp.csr_matrix(w)
                if w.shape != (self.grid.total,) * 2:
                    raise InvalidSpec(f"affine kernel shape {w.shape} does not fit grid")
                if w.nnz and w.data.min() < 0:
                    raise InvalidSpec("affine kernel must be nonnegative entrywise")
            object.__setattr__(self, "weight", w)
            off = np.asarray(self.offset, dtype=float)
            if off.ndim == 0:
                off = np.full(self.grid.total, float(off))
            if off.shape != (self.grid.total,):
                raise InvalidSpec(f"affine offset shape {off.shape} does not fit grid")
            off.setflags(write=False)
            object.__setattr__(self, "offset", off)
        elif self.kind == "smooth_monotone_superposition":
            if self.profile not in PROFILES:
                raise InvalidSpec(f"unknown profile {self.profile!r}")

    def _image(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return u.copy()
        if self.kind == "affine_monotone":
            wu = self.weight * u if np.isscalar(self.weight) else self.weight @ u
            return wu + self.offset
        g, _ = PROFILES[self.profile]
        return g(u)

    def _slope(self, u: np.ndarray) -> np.ndarray | None:
        """Nodewise derivative for the diagonal kinds; None for affine kernels."""
        if self.kind == "identity":
            return np.ones_like(u)
        if self.kind == "smooth_monotone_superposition":
            _, gp = PROFILES[self.profile]
            return gp(u)
        return None


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
    mass = control.grid.mass
    slope = control._slope(u.values)
    if slope is not None:
        return sp.diags(mass * slope).tocsr()
    w = control.weight
    if np.isscalar(w):
        return sp.identity(control.grid.total, format="csr") * (mass * w)
    return (mass * w).tocsr()
