"""Control-to-load maps: monotonicity, mass scaling, closed-form slopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobstacle.controls import PROFILES, ControlOperator, apply_control, control_slope
from biobstacle.errors import GridMismatch, InvalidSpec
from biobstacle.grid import Grid


def _grid():
    return Grid((4, 4))


def test_identity_is_mass_scaling():
    grid = _grid()
    u = grid.function(np.linspace(-2, 2, grid.total))
    out = apply_control(ControlOperator(grid, kind="identity"), u)
    np.testing.assert_allclose(out.values, grid.mass * u.values)


def test_profile_values_frozen():
    # id_plus_arctan(1) = 1 + pi/4, scaled_softsign(1) = 2.5
    fn, deriv = PROFILES["id_plus_arctan"]
    assert fn(1.0) == pytest.approx(1.0 + np.pi / 4.0)
    assert deriv(0.0) == pytest.approx(2.0)
    fn, deriv = PROFILES["scaled_softsign"]
    assert fn(1.0) == pytest.approx(2.5)
    assert deriv(0.0) == pytest.approx(3.0)


def test_profiles_are_odd_with_unit_slope_floor():
    # bitwise odd: multipliers.mirror_check relies on f(-u) == -f(u) exactly
    t = np.linspace(-50, 50, 100_001)
    for name, (fn, deriv) in PROFILES.items():
        assert np.array_equal(fn(-t), -fn(t))
        assert deriv(t).min() >= 1.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_control_maps_are_nodewise_increasing(seed):
    """u >= v nodewise implies f(u) >= f(v) nodewise for every kind."""
    grid = _grid()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=grid.total)
    u = v + rng.uniform(0.0, 1.0, size=grid.total)
    controls = [
        ControlOperator(grid, kind="identity"),
        ControlOperator(grid, kind="smooth_monotone_superposition", profile="id_plus_arctan"),
        ControlOperator(grid, kind="smooth_monotone_superposition", profile="scaled_softsign"),
    ]
    for control in controls:
        fu = apply_control(control, grid.function(u)).values
        fv = apply_control(control, grid.function(v)).values
        assert (fu - fv).min() >= -1e-12


@pytest.mark.parametrize("kind,kwargs", [
    ("identity", {}),
    ("smooth_monotone_superposition", {"profile": "id_plus_arctan"}),
    ("smooth_monotone_superposition", {"profile": "scaled_softsign"}),
])
def test_derivative_matches_finite_differences(kind, kwargs):
    grid = _grid()
    rng = np.random.default_rng(5)
    control = ControlOperator(grid, kind=kind, **kwargs)
    u = grid.function(rng.normal(size=grid.total))
    h = grid.function(rng.normal(size=grid.total))
    exact = control_slope(control, u) * h.values
    for t in (1e-3, 1e-4, 1e-5):
        up = grid.function(u.values + t * h.values)
        um = grid.function(u.values - t * h.values)
        fd = (apply_control(control, up).values - apply_control(control, um).values) / (2 * t)
        err = np.abs(fd - exact).max()
        # second-order quotient; the identity is exact up to roundoff
        assert err <= max(50.0 * t * t, 1e-12)


def test_control_validation():
    grid = _grid()
    with pytest.raises(InvalidSpec):
        ControlOperator(grid, kind="mystery")
    with pytest.raises(InvalidSpec):
        ControlOperator(grid, kind="smooth_monotone_superposition", profile="nope")
    with pytest.raises(InvalidSpec):
        ControlOperator(grid, kind="affine_monotone")


def test_grid_mismatch_rejected():
    grid = _grid()
    control = ControlOperator(grid, kind="identity")
    other = Grid((3, 3)).function(np.zeros(9))
    for control_map in (apply_control, control_slope):
        with pytest.raises(GridMismatch, match="different grids"):
            control_map(control, other)
