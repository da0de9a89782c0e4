"""Ring-supported multiplier series in log-radius coordinates.

Setting: on a punctured disk of radius rho = exp(-pi^(1/beta)) in the plane,
the oscillating radial state W(t) = sin(t^beta), t = -ln|x|, touches the
obstacles min(-1/2, W) and max(1/2, W) on alternating circles. The functional

    <xi, w> = sum_k (omega_k / sqrt(gap_k)) * [2*pi*w(lower ring k)
                                               - 2*pi*w(upper ring k)]

(for radial w; gap_k is the log-radius width between the paired rings) is a
bounded functional on H^1_0, yet the two nonnegative measure parts carried by
the lower/upper rings assign infinite mass to suitable unbounded w. This
module evaluates gaps, partial sums, and the relevant bounds, entirely in
t = -ln r; radii themselves would underflow (rho ~ 3.4e-14 already at
beta = 1/3) and are never exponentiated.

Ring geometry: lower rings sit at t = (2k*pi - pi/2)^(1/beta) where W = -1
(lower contact), upper rings at t = (2k*pi + pi/2)^(1/beta) where W = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import EvaluationDomain, InvalidBeta, InvalidSpec

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RingConfig:
    """Oscillation exponent and ring weight rule omega_k = k^(-omega_exponent)."""

    beta: float = 1.0 / 3.0
    omega_exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise InvalidBeta(f"beta must lie in (0, 1/2), got {self.beta}")
        if not self.omega_exponent > 0.5:
            raise InvalidSpec(
                "omega_exponent must exceed 1/2 so the weights are square-summable"
            )

    @property
    def p(self) -> float:
        return 1.0 / self.beta

    @property
    def t_boundary(self) -> float:
        """Log-radius of the outer boundary: -ln(rho) = pi^(1/beta)."""
        return math.pi ** self.p

    def omega(self, k):
        return np.asarray(k, dtype=float) ** (-self.omega_exponent)

    def sum_omega_sq(self) -> float:
        """Full series sum of omega_k^2 (Riemann zeta, exact)."""
        return float(special.zeta(2.0 * self.omega_exponent, 1))


def _ring_index(k) -> np.ndarray:
    """k as a float array; raises InvalidSpec on a ring index below 1."""
    k = np.asarray(k, dtype=float)
    if (k < 1).any():
        raise InvalidSpec("ring index starts at 1")
    return k


def ring_log_radii(config: RingConfig, k) -> tuple[np.ndarray, np.ndarray]:
    """(t at lower ring, t at upper ring) for ring index k >= 1."""
    k = _ring_index(k)
    return (
        (2.0 * k * math.pi - math.pi / 2.0) ** config.p,
        (2.0 * k * math.pi + math.pi / 2.0) ** config.p,
    )


def log_radius_gap(config: RingConfig, k):
    """gap_k = (2k*pi + pi/2)^(1/beta) - (2k*pi - pi/2)^(1/beta).

    Evaluated as a^p * (expm1(p*log1p(s/a)) - expm1(p*log1p(-s/a))) with
    a = 2k*pi, s = pi/2, which avoids the cancellation of the direct
    difference at large k.
    """
    k = _ring_index(k)
    a = 2.0 * k * math.pi
    s = math.pi / 2.0
    p = config.p
    return a**p * (np.expm1(p * np.log1p(s / a)) - np.expm1(p * np.log1p(-s / a)))


def gap_bounds(config: RingConfig, k) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided mean-value bounds:
    (pi/beta)*(2k*pi - pi/2)^(1/beta - 1) <= gap_k <= same at (+ pi/2)."""
    k = _ring_index(k)
    q = config.p - 1.0
    factor = math.pi * config.p
    return (
        factor * (2.0 * k * math.pi - math.pi / 2.0) ** q,
        factor * (2.0 * k * math.pi + math.pi / 2.0) ** q,
    )


def check_gap_bounds(config: RingConfig, k_max: int) -> dict:
    """Sweep every ring index up to k_max; report worst slack of both bounds."""
    if k_max < 1:
        raise InvalidSpec("need at least one ring")
    k = np.arange(1, int(k_max) + 1, dtype=float)
    gap = log_radius_gap(config, k)
    lo, hi = gap_bounds(config, k)
    t_lo, t_up = ring_log_radii(config, k)
    interlace = np.all(t_up[:-1] < t_lo[1:])
    return {
        "beta": config.beta,
        "k_max": int(k_max),
        "min_slack_lower": float((gap - lo).min()),
        "min_slack_upper": float((hi - gap).min()),
        "interlaced": bool(interlace),
        "ok": bool((gap >= lo).all() and (gap <= hi).all() and interlace),
    }


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial test function given as W(t), t = -ln r, on [t_start, inf).

    grad_sq is the exact integral of W'(t)^2 over the domain, so the ambient
    H^1_0 seminorm is sqrt(2*pi*grad_sq).
    """

    name: str
    t_start: float
    fn: Callable[[np.ndarray], np.ndarray]
    grad_sq: float

    def values(self, t):
        t = np.asarray(t, dtype=float)
        if (t < self.t_start - 1e-9).any():
            raise EvaluationDomain(
                f"{self.name} sampled at t < {self.t_start:.6g} (outside the disk)"
            )
        return self.fn(t)

    def h1_seminorm(self) -> float:
        return math.sqrt(TWO_PI * self.grad_sq)


def profile_state(config: RingConfig) -> RadialProfile:
    """The oscillating state W = sin(t^beta); vanishes on the outer boundary.

    Closed-form gradient integral: with s = t^beta,
    int W'^2 dt = (beta/2) * [pi^(2 - 1/beta)/(1/beta - 2)
                              + int_pi^inf s^(1 - 1/beta) cos(2s) ds],
    the oscillatory part evaluated with an infinite-range cosine-weighted
    quadrature rule.
    """
    beta, p, tb = config.beta, config.p, config.t_boundary
    plain = math.pi ** (2.0 - p) / (p - 2.0)
    oscillatory, _ = integrate.quad(
        lambda s: s ** (1.0 - p), math.pi, np.inf, weight="cos", wvar=2.0
    )
    grad_sq = 0.5 * beta * (plain + oscillatory)
    return RadialProfile(
        name="state",
        t_start=tb,
        fn=lambda t: np.sin(t**beta),
        grad_sq=grad_sq,
    )


def profile_log_power(config: RingConfig) -> RadialProfile:
    """Unbounded W = t^beta - pi; zero on the outer boundary; exact gradient
    integral beta^2 * t_boundary^(2*beta-1)/(1-2*beta), which is also the
    cos^2 <= 1 envelope of the state profile's gradient integral."""
    beta, tb = config.beta, config.t_boundary
    return RadialProfile(
        name="log_power",
        t_start=tb,
        fn=lambda t: t**beta - math.pi,
        grad_sq=beta**2 * tb ** (2.0 * beta - 1.0) / (1.0 - 2.0 * beta),
    )


def profile_ramp(config: RingConfig) -> RadialProfile:
    """Ramp from 0 at the boundary to 1 at the first lower ring, then flat.

    Equals 1 on every ring, so its ring sums are exactly the measure masses.
    """
    tb = config.t_boundary
    width = float(ring_log_radii(config, 1)[0]) - tb
    return RadialProfile(
        name="ramp",
        t_start=tb,
        fn=lambda t: np.clip((t - tb) / width, 0.0, 1.0),
        grad_sq=1.0 / width,
    )


@dataclass(frozen=True, eq=False)
class RingSums:
    """Partial sums of the ring pairing against one radial profile.

    total[k-1]      = S_k of (omega/sqrt(gap)) * 2*pi * (w(lower) - w(upper))
    lower_part[k-1] = S_k of the lower-ring (first measure) contribution
    upper_part[k-1] = S_k of the upper-ring (second measure) contribution
    so total = lower_part - upper_part holds exactly.
    """

    k: np.ndarray
    total: np.ndarray
    lower_part: np.ndarray
    upper_part: np.ndarray


def _rings(config: RingConfig, K: int):
    """(k, t_lo, t_up, coeff) for rings 1..K: the index, the log-radii of the
    lower and upper rings, and the ring weight omega_k * 2*pi / sqrt(gap_k)."""
    if K < 1:
        raise InvalidSpec("need at least one ring")
    k = np.arange(1, int(K) + 1, dtype=float)
    t_lo, t_up = ring_log_radii(config, k)
    return k, t_lo, t_up, config.omega(k) / np.sqrt(log_radius_gap(config, k)) * TWO_PI


def pair_with_radial(config: RingConfig, profile: RadialProfile, K: int) -> RingSums:
    """Evaluate the pairing partial sums up to ring K."""
    k, t_lo, t_up, coeff = _rings(config, K)
    w_lo = coeff * profile.values(t_lo)
    w_up = coeff * profile.values(t_up)
    return RingSums(
        k=k.astype(int),
        total=np.cumsum(w_lo - w_up),
        lower_part=np.cumsum(w_lo),
        upper_part=np.cumsum(w_up),
    )


def measure_mass_bound(config: RingConfig) -> float:
    """2*pi*sqrt(sum omega^2)*sqrt(sum 1/gap): bounds either measure applied
    to any w with |w| <= 1 (rigorous upper enclosure of the tail).

    The first 200,000 terms of sum_k 1/gap_k are summed directly; the
    remainder is bounded above by the integral of the mean-value upper bound
    1/gap(x) <= (beta/pi) * (2x*pi - pi/2)^(1 - 1/beta), which has an
    elementary antiderivative.
    """
    exact_terms = 200_000
    k = np.arange(1, exact_terms + 1, dtype=float)
    partial = float((1.0 / log_radius_gap(config, k)).sum())
    p = config.p
    edge = 2.0 * exact_terms * math.pi - math.pi / 2.0
    tail = (config.beta / math.pi) * edge ** (2.0 - p) / (TWO_PI * (p - 2.0))
    return TWO_PI * math.sqrt(config.sum_omega_sq()) * math.sqrt(partial + tail)


def h1_pairing_bound(config: RingConfig, profile: RadialProfile) -> float:
    """sqrt(2*pi)*sqrt(sum omega^2)*||grad w||: bounds |<xi, w>_K| for all K."""
    return math.sqrt(TWO_PI) * math.sqrt(config.sum_omega_sq()) * profile.h1_seminorm()


def bounded_tail_remainder(config: RingConfig, K: int) -> float:
    """Upper bound on sum_{k>K} omega_k * 2*pi / sqrt(gap_k), the tail against
    any w with sup|w| <= 1.

    Dominates every later partial-sum movement of a one-sided part against a
    bounded w. Uses 1/sqrt(gap) <= sqrt(beta/pi)*(2k*pi - pi/2)^((1-1/beta)/2)
    inside an integral comparison.
    """
    if K < 1:
        raise InvalidSpec("need at least one ring")
    q = (1.0 - config.p) / 2.0  # decay exponent of 1/sqrt(gap)
    pref = TWO_PI * math.sqrt(config.beta / math.pi)

    def integrand(x):
        return x ** (-config.omega_exponent) * (2.0 * x * math.pi - math.pi / 2.0) ** q

    val, _ = integrate.quad(integrand, float(K), np.inf, limit=400)
    return pref * (integrand(float(K)) + val)


def obstacle_values_at(config: RingConfig, t) -> tuple[np.ndarray, np.ndarray]:
    """(psi, phi) along the radius: min(-1/2, W) and max(1/2, W)."""
    t = np.asarray(t, dtype=float)
    w = np.sin(t**config.beta)
    return np.minimum(-0.5, w), np.maximum(0.5, w)


def verify_vi_solution_property(
    config: RingConfig,
    K: int,
    samples: int,
    seed: int,
) -> dict:
    """Pairing against z - state for sampled feasible radial z stays >= -1e-10.

    z is piecewise linear in t through the ring radii with values drawn
    uniformly between the obstacles at each ring (the state itself and its
    clamp to [-1/2, 1/2] are always included as deterministic cases).
    """
    _, t_lo, t_up, coeff = _rings(config, K)
    y_lo, y_up = -1.0, 1.0  # state values on the two ring families
    psi_lo, phi_lo = obstacle_values_at(config, t_lo)
    psi_up, phi_up = obstacle_values_at(config, t_up)

    def pairing(z_lo, z_up):
        return float((coeff * ((z_lo - y_lo) - (z_up - y_up))).sum())

    rng = np.random.default_rng(seed)
    values = {
        "state": pairing(np.full_like(t_lo, y_lo), np.full_like(t_up, y_up)),
        "clamp": pairing(np.clip(np.full_like(t_lo, y_lo), -0.5, 0.5),
                         np.clip(np.full_like(t_up, y_up), -0.5, 0.5)),
    }
    for i in range(samples):
        z_lo = rng.uniform(psi_lo, phi_lo)
        z_up = rng.uniform(psi_up, phi_up)
        values[f"sample_{i}"] = pairing(z_lo, z_up)
    worst = min(values.values())
    return {
        "K": int(K),
        "samples": samples,
        "worst_pairing": worst,
        "pairing_at_state": values["state"],
        "pairing_at_clamp": values["clamp"],
        "ok": bool(worst >= -1e-10),
    }


def growth_constant(config: RingConfig) -> float | None:
    """Asymptotic slope of the unbounded-w one-sided sums against ln K.

    The terms decay like k^-d with d = omega_exponent + (1/beta - 1)/2 - 1,
    and only the balanced case d = 1 (terms ~ c/k) grows logarithmically.
    Returns the constant for that case, None otherwise.
    """
    decay = config.omega_exponent + (config.p - 1.0) / 2.0 - 1.0
    if abs(decay - 1.0) > 1e-12:
        return None
    # terms ~ omega_k * 2*pi * (2*pi*k) / sqrt((pi/beta)*(2*pi*k)^(p-1)) = c/k
    return TWO_PI * TWO_PI ** ((3.0 - config.p) / 2.0) / math.sqrt(math.pi / config.beta)


def lower_bound_terms(config: RingConfig, k: np.ndarray) -> np.ndarray:
    """Per-ring lower bound on the unbounded-w upper-part terms, obtained by
    replacing gap_k with its mean-value upper bound."""
    w_up = 2.0 * k * math.pi - math.pi / 2.0  # log_power at upper rings
    _, gap_hi = gap_bounds(config, k)
    return config.omega(k) * TWO_PI * w_up / np.sqrt(gap_hi)


def series_study(config: RingConfig, K_max: int, tail_from: int) -> dict:
    """Headline computation: bounded vs unbounded one-sided partial sums.

    Returns per-ring data (decimated for reporting), the Cauchy diagnostics of
    the bounded case, the divergence diagnostics of the unbounded case, and
    the H^-1 bound checks for both shipped profiles. The growth fit samples
    ln K from K = 100 up, so K_max must exceed 100, and the tail starts at
    a ring 1 <= tail_from <= K_max.
    """
    if K_max <= 100:
        raise InvalidSpec(f"series study needs K_max > 100, got {K_max}")
    if not 1 <= tail_from <= K_max:
        raise InvalidSpec(f"tail_from must lie in [1, K_max = {K_max}], got {tail_from}")
    ramp = profile_ramp(config)
    log_power = profile_log_power(config)
    sums_ramp = pair_with_radial(config, ramp, K_max)
    sums_logp = pair_with_radial(config, log_power, K_max)
    k = sums_ramp.k
    lnk = np.log(k.astype(float))

    # bounded case: one-sided sums converge; increments and a rigorous
    # remaining-sum bound document the Cauchy behavior
    upper_ramp = sums_ramp.upper_part
    increments = np.diff(upper_ramp, prepend=0.0)
    tail_mask = k >= tail_from
    max_tail_increment = float(np.abs(increments[tail_mask]).max())
    remainder_bound = bounded_tail_remainder(config, tail_from)
    bound_const = measure_mass_bound(config)

    # unbounded case: one-sided sums grow; fit against ln K when logarithmic
    upper_logp = sums_logp.upper_part
    const = growth_constant(config)
    fit = {}
    if const is not None:
        sample = np.unique(np.geomspace(100, K_max, 40).astype(int))
        slope, intercept = np.polyfit(np.log(sample.astype(float)),
                                      upper_logp[sample - 1], 1)
        deficit = 0.9 * const * lnk - upper_logp
        fit = {
            "growth_constant": const,
            "fitted_slope": float(slope),
            "fitted_intercept": float(intercept),
            "slope_rel_err": float(abs(slope - const) / const),
            "C0": float(max(0.0, deficit.max())),
        }

    # H^-1 bound for the full two-sided pairing, every truncation
    state = profile_state(config)
    h1_checks = {}
    for prof, ssum in ((ramp, sums_ramp), (log_power, sums_logp),
                       (state, pair_with_radial(config, state, K_max))):
        bound = h1_pairing_bound(config, prof)
        worst = float(np.abs(ssum.total).max())
        h1_checks[prof.name] = {
            "bound": bound,
            "max_abs_partial_sum": worst,
            "ok": bool(worst <= bound + 1e-12),
        }

    report_rows = np.unique(np.concatenate([
        np.arange(1, 101),
        np.geomspace(1, K_max, 400).astype(int),
    ]))
    lb_partial = np.cumsum(lower_bound_terms(config, k.astype(float)))
    return {
        "beta": config.beta,
        "omega_exponent": config.omega_exponent,
        "K_max": int(K_max),
        "tail_from": int(tail_from),
        "bounded": {
            "limit_estimate": float(upper_ramp[-1]),
            "max_tail_increment": max_tail_increment,
            "remainder_bound_at_tail_from": float(remainder_bound),
            "measure_mass_bound": float(bound_const),
            "partial_sums_within_bound": bool(
                (upper_ramp <= bound_const + 1e-12).all()
            ),
        },
        "unbounded": fit,
        "h1_checks": h1_checks,
        "rows": [
            {
                "K": int(kk),
                "bounded_upper_part": float(upper_ramp[kk - 1]),
                "unbounded_upper_part": float(upper_logp[kk - 1]),
                "unbounded_lower_part": float(sums_logp.lower_part[kk - 1]),
                "lower_bound_partial_sum": float(lb_partial[kk - 1]),
                "ln_K": float(lnk[kk - 1]),
            }
            for kk in report_rows
        ],
    }
