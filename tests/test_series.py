"""Ring series in log-radius coordinates: gaps, profiles, pairings, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biobstacle import (
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
from biobstacle.errors import EvaluationDomain, InvalidBeta, InvalidSpec
from biobstacle.radial_series import (
    RadialProfile,
    bounded_tail_remainder,
    growth_constant,
    lower_bound_terms,
    obstacle_values_at,
)


def _profile_piecewise_linear(knots_t: np.ndarray, knots_w: np.ndarray,
                              name: str = "piecewise_linear") -> RadialProfile:
    """Piecewise-linear W through (knots_t, knots_w); constant past the ends.

    Gradient integral is the exact sum of slope^2 * interval length.
    """
    t = np.asarray(knots_t, dtype=float)
    w = np.asarray(knots_w, dtype=float)
    if t.ndim != 1 or t.size < 2 or (np.diff(t) <= 0).any() or w.shape != t.shape:
        raise InvalidSpec("need strictly increasing knots with matching values")
    grad_sq = float((np.diff(w) ** 2 / np.diff(t)).sum())
    return RadialProfile(
        name=name,
        t_start=float(t[0]),
        _fn=lambda x: np.interp(x, t, w),
        _grad_sq=grad_sq,
    )

CFG = RingConfig()  # beta = 1/3, omega_k = 1/k

# int W'^2 dt for W = sin(t^(1/3)) on [pi^3, inf), frozen from the
# cosine-weighted quadrature; the sandwich test below rederives it.
STATE_GRAD_SQ = 0.055221711835820725


def test_ring_geometry_closed_forms():
    # beta = 1/3 turns every radius into an exact cubic in pi
    assert CFG.p == pytest.approx(3.0, rel=1e-15)
    assert CFG.t_boundary == pytest.approx(math.pi**3, rel=1e-15)
    t_lo, t_up = ring_log_radii(CFG, 1)
    assert t_lo == pytest.approx((3.0 * math.pi / 2.0) ** 3, rel=1e-14)
    assert t_up == pytest.approx((5.0 * math.pi / 2.0) ** 3, rel=1e-14)
    # gap_1 = ((5/2)^3 - (3/2)^3) pi^3 = (98/8) pi^3
    assert log_radius_gap(1, CFG.beta) == pytest.approx(
        12.25 * math.pi**3, rel=1e-13
    )


def test_gap_matches_naive_difference_at_small_k():
    # the expm1 form must agree with the plain cubic difference while the
    # latter is still free of cancellation
    k = np.arange(1, 101, dtype=float)
    naive = (2.0 * k * math.pi + math.pi / 2.0) ** 3 - (
        2.0 * k * math.pi - math.pi / 2.0
    ) ** 3
    np.testing.assert_allclose(log_radius_gap(k, 1.0 / 3.0), naive, rtol=1e-9)


def test_gap_bounds_at_first_ring():
    lo, hi = gap_bounds(1, 1.0 / 3.0)
    assert lo == pytest.approx(27.0 * math.pi**3 / 4.0, rel=1e-14)
    assert hi == pytest.approx(75.0 * math.pi**3 / 4.0, rel=1e-14)


@pytest.mark.parametrize("beta", [0.25, 1.0 / 3.0, 0.49])
def test_gap_bounds_bracket_every_ring(beta):
    report = check_gap_bounds(beta, k_max=200_000)
    assert report["ok"]
    assert report["interlaced"]
    assert report["min_slack_lower"] > 0.0
    assert report["min_slack_upper"] > 0.0


def test_config_validation():
    for beta in (0.5, 0.6, 0.0, -0.1):
        with pytest.raises(InvalidBeta):
            RingConfig(beta=beta)
    for expo in (0.5, 0.2, 0.0):
        with pytest.raises(InvalidSpec):
            RingConfig(omega_exponent=expo)
    RingConfig(beta=0.499999, omega_exponent=0.500001)
    assert CFG.sum_omega_sq() == pytest.approx(math.pi**2 / 6.0, rel=1e-12)


def test_ring_index_starts_at_one():
    with pytest.raises(InvalidSpec):
        log_radius_gap(0, 1.0 / 3.0)
    with pytest.raises(InvalidSpec):
        pair_with_radial(CFG, profile_ramp(CFG), 0)
    # the tail of series_study starts at a ring 1 <= tail_from <= K_max
    for tail_from in (0, 201):
        with pytest.raises(InvalidSpec, match="tail_from must lie in"):
            series_study(CFG, K_max=200, tail_from=tail_from)


def test_state_profile_gradient_frozen():
    state = profile_state(CFG)
    assert state.grad_sq_integral() == pytest.approx(STATE_GRAD_SQ, rel=1e-10)
    assert state.h1_seminorm() == pytest.approx(
        math.sqrt(2.0 * math.pi * STATE_GRAD_SQ), rel=1e-12
    )
    # the cos^2 <= 1 envelope, the log-power profile's gradient integral, is strict
    assert 0.0 < state.grad_sq_integral() < profile_log_power(CFG).grad_sq_integral()


def test_state_gradient_sandwich_by_direct_quadrature():
    # substituting s = t^(1/3) gives int (1/3) s^-2 cos^2(s) ds on [pi, inf);
    # integrate a long finite stretch directly and bound the positive tail by
    # the cos^2 <= 1 envelope (1/3)/T
    from scipy import integrate

    T = 2000.0 * math.pi
    finite, quad_err = integrate.quad(
        lambda s: (1.0 / 3.0) * s**-2 * np.cos(s) ** 2,
        math.pi,
        T,
        limit=20_000,
    )
    assert quad_err < 1e-6
    grad_sq = profile_state(CFG).grad_sq_integral()
    assert finite - 1e-8 <= grad_sq <= finite + (1.0 / 3.0) / T + 1e-8


def test_log_power_gradient_exact():
    prof = profile_log_power(CFG)
    # beta^2 t_b^(2 beta - 1) / (1 - 2 beta) collapses to 1/(3 pi) here
    assert prof.grad_sq_integral() == pytest.approx(
        1.0 / (3.0 * math.pi), rel=1e-14
    )
    assert float(prof.values(CFG.t_boundary)) == pytest.approx(0.0, abs=1e-12)


def test_ramp_profile_geometry():
    ramp = profile_ramp(CFG)
    knee = (3.0 * math.pi / 2.0) ** 3
    tb = CFG.t_boundary
    assert ramp.grad_sq_integral() == pytest.approx(
        1.0 / (knee - tb), rel=1e-13
    )
    vals = ramp.values(np.array([tb, 0.5 * (tb + knee), knee, knee + 50.0]))
    np.testing.assert_allclose(vals, [0.0, 0.5, 1.0, 1.0], atol=1e-13)


def test_profiles_refuse_points_outside_the_disk():
    state = profile_state(CFG)
    with pytest.raises(EvaluationDomain):
        state.values(CFG.t_boundary - 1e-3)
    # a hair below the boundary is tolerated as roundoff
    state.values(CFG.t_boundary - 1e-10)


def test_piecewise_linear_profile():
    prof = _profile_piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 2.0])
    assert prof.grad_sq_integral() == 4.0
    np.testing.assert_allclose(
        prof.values([0.0, 0.5, 1.0, 2.0, 3.0, 10.0]),
        [0.0, 1.0, 2.0, 2.0, 2.0, 2.0],
    )
    with pytest.raises(InvalidSpec):
        _profile_piecewise_linear([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(InvalidSpec):
        _profile_piecewise_linear([0.0], [1.0])
    with pytest.raises(InvalidSpec):
        _profile_piecewise_linear([0.0, 1.0], [0.0, 1.0, 2.0])


def test_ring_sums_split_identity_and_ramp_telescoping():
    sums = pair_with_radial(CFG, profile_ramp(CFG), 800)
    np.testing.assert_array_equal(
        sums.total, sums.lower_part - sums.upper_part
    )
    # the ramp equals 1 on every ring, so the two-sided sums cancel exactly
    # while each one-sided part keeps growing
    assert (sums.total == 0.0).all()
    assert (np.diff(sums.upper_part) > 0.0).all()
    assert (sums.upper_part == sums.lower_part).all()


def test_bounded_side_is_cauchy():
    sums = pair_with_radial(CFG, profile_ramp(CFG), 5000)
    remainder = bounded_tail_remainder(CFG, 200)
    later_moves = np.abs(sums.upper_part[200:] - sums.upper_part[199])
    assert float(later_moves.max()) <= remainder
    assert bounded_tail_remainder(CFG, 400) < remainder


def test_measure_mass_bound_contains_partial_sums():
    # the bound's direct part (the first 200,000 terms of sum 1/gap) is
    # positive, and its tail enclosure adds to it
    k = np.arange(1, 200_001, dtype=float)
    direct = float((1.0 / log_radius_gap(k, CFG.beta)).sum())
    bound = measure_mass_bound(CFG)
    assert 0.0 < 2.0 * math.pi * math.sqrt(CFG.sum_omega_sq()) * math.sqrt(direct) < bound
    sums = pair_with_radial(CFG, profile_ramp(CFG), 5000)
    assert float(sums.upper_part.max()) <= bound


def test_growth_constant_balance_detection():
    assert growth_constant(CFG) == pytest.approx(
        2.0 * math.pi / math.sqrt(3.0 * math.pi), rel=1e-14
    )
    assert growth_constant(RingConfig(omega_exponent=0.9)) is None
    assert growth_constant(RingConfig(omega_exponent=1.1)) is None
    # second balanced family: omega exponent 2 - (1/beta - 1)/2
    assert growth_constant(RingConfig(beta=0.4, omega_exponent=1.25)) is not None
    assert growth_constant(RingConfig(beta=0.25, omega_exponent=0.75)) is None


def test_unbounded_side_grows_like_the_constant_times_log():
    const = growth_constant(CFG)
    # the k-th term times k approaches the constant
    k = np.array([1.0e6])
    gap = log_radius_gap(k, CFG.beta)
    # log_power at the upper ring is (2 k pi + pi/2) - pi = 2 k pi - pi/2
    term = CFG.omega(k) * 2.0 * math.pi * (2.0 * k * math.pi - math.pi / 2.0)
    term = term / np.sqrt(gap)
    assert float(term[0] * k[0]) == pytest.approx(const, rel=1e-5)
    # the rigorous per-ring lower bound stays below the actual sums and
    # still gains about const * ln(10) per decade
    kk = np.arange(1, 2001, dtype=float)
    lb = np.cumsum(lower_bound_terms(CFG, kk))
    actual = pair_with_radial(CFG, profile_log_power(CFG), 2000).upper_part
    assert (lb <= actual + 1e-12).all()
    assert lb[1999] - lb[199] >= 0.95 * const * math.log(10.0)


def test_obstacles_touch_the_state_on_alternating_rings():
    k = np.arange(1, 51, dtype=float)
    t_lo, t_up = ring_log_radii(CFG, k)
    psi, phi = obstacle_values_at(CFG, t_lo)
    np.testing.assert_allclose(psi, -1.0, atol=1e-12)
    np.testing.assert_allclose(phi, 0.5, atol=1e-12)
    psi, phi = obstacle_values_at(CFG, t_up)
    np.testing.assert_allclose(psi, -0.5, atol=1e-12)
    np.testing.assert_allclose(phi, 1.0, atol=1e-12)


def test_vi_pairing_nonnegative_for_feasible_directions():
    report = verify_vi_solution_property(CFG, K=500, samples=40, seed=3)
    assert report["ok"]
    # z = state gives the exact zero of complementarity, and it is the worst
    assert report["pairing_at_state"] == 0.0
    assert report["worst_pairing"] == 0.0
    # z = clamp pushes both sides by 1/2, reproducing the ramp one-sided sum
    ramp_sum = pair_with_radial(CFG, profile_ramp(CFG), 500).upper_part[-1]
    assert report["pairing_at_clamp"] == pytest.approx(ramp_sum, rel=1e-12)


def test_series_study_small_run():
    study = series_study(CFG, K_max=2000, tail_from=500)
    assert study["K_max"] == 2000

    bounded = study["bounded"]
    assert bounded["partial_sums_within_bound"]
    assert bounded["max_tail_increment"] < 1e-5
    assert bounded["limit_estimate"] == pytest.approx(
        0.5320304113255986, rel=1e-9
    )
    assert bounded["limit_estimate"] < bounded["measure_mass_bound"]

    fit = study["unbounded"]
    assert fit["growth_constant"] == pytest.approx(2.046653415892977, rel=1e-12)
    assert fit["slope_rel_err"] < 0.02
    assert fit["C0"] == 0.0

    checks = study["h1_checks"]
    assert set(checks) == {"ramp", "log_power", "state"}
    assert all(entry["ok"] for entry in checks.values())
    assert checks["ramp"]["max_abs_partial_sum"] == 0.0

    rows = study["rows"]
    assert rows[0]["K"] == 1 and rows[-1]["K"] == 2000
    assert set(rows[0]) == {
        "K",
        "bounded_upper_part",
        "unbounded_upper_part",
        "unbounded_lower_part",
        "lower_bound_partial_sum",
        "ln_K",
    }
    for row in rows:
        assert row["lower_bound_partial_sum"] <= row["unbounded_upper_part"] + 1e-12


knot_values = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    min_size=5,
    max_size=5,
)


@given(values=knot_values)
@settings(max_examples=60, deadline=None)
def test_h1_bound_holds_for_arbitrary_piecewise_profiles(values):
    # the two-sided pairing kills constants, so the seminorm bound applies to
    # any piecewise-linear w, whatever its boundary value
    tb = CFG.t_boundary
    knots_t = tb + np.array([0.0, 40.0, 120.0, 250.0, 400.0])
    prof = _profile_piecewise_linear(knots_t, np.array(values), name="random")
    sums = pair_with_radial(CFG, prof, 3000)
    bound = h1_pairing_bound(CFG, prof)
    assert float(np.abs(sums.total).max()) <= bound + 1e-12
